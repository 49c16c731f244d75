"""The daemon end to end: store hits, typed errors, timeouts, concurrency."""

import json
import socket
import threading
import time

import pytest

from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    decode_result,
)
from repro.serve.client import ServeRequestError

PRE = "forall <a>. a(x) == 0"
PROG = "x := 0"
POST = "forall <a>. a(x) == 0"


def raw_exchange(address, line):
    """Send one raw line, return the parsed response (protocol-level tests)."""
    with socket.create_connection(address) as sock:
        sock.sendall(line.encode("utf-8") + b"\n")
        reader = sock.makefile("r", encoding="utf-8")
        return json.loads(reader.readline())


class TestOps:
    def test_ping(self, client):
        response = client.ping()
        assert response["ok"] is True and response["op"] == "ping"

    def test_stats_counts_requests(self, client):
        client.ping()
        stats = client.stats()
        assert stats["requests"] >= 2
        assert stats["executor"] == "thread"
        assert "store" in stats

    def test_unsupported_op(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.request({"op": "frobnicate"})
        assert info.value.code == "unsupported-op"

    def test_ids_echoed(self, client):
        response = client.request({"op": "ping", "id": 941})
        assert response["id"] == 941


class TestVerify:
    def test_cold_then_store_hit(self, client):
        first = client.verify(PRE, PROG, POST)
        assert first["cached"] is False
        assert decode_result(first).verdict is True
        second = client.verify(PRE, PROG, POST)
        assert second["cached"] is True
        assert second["key"] == first["key"]
        # a store hit is byte-identical to the inline run's document —
        # proof trees, witnesses and elapsed floats included
        assert second["result"] == first["result"]
        assert decode_result(second) == decode_result(first)

    def test_refuted_triple_carries_counterexample(self, client):
        response = client.verify(
            "exists <a>. a(x) == 0", "x := 1", "exists <a>. a(x) == 0"
        )
        result = decode_result(response)
        assert result.verdict is False
        assert result.counterexample

    def test_store_hit_counted(self, client):
        client.verify(PRE, PROG, POST)
        client.verify(PRE, PROG, POST)
        stats = client.stats()
        assert stats["store_hits"] == 1
        assert stats["verified"] == 1

    def test_budgets_change_the_key(self, client):
        plain = client.verify(PRE, PROG, POST)
        budgeted = client.verify(PRE, PROG, POST, budgets={"exhaustive": 5.0})
        assert plain["key"] != budgeted["key"]
        assert budgeted["cached"] is False

    def test_distinct_tasks_distinct_keys(self, client):
        a = client.verify(PRE, PROG, POST)
        b = client.verify(PRE, "x := 0; x := 0", POST)
        assert a["key"] != b["key"]


class TestTypedErrors:
    def test_malformed_json_line(self, server):
        response = raw_exchange(server.address, "{not json")
        assert response["ok"] is False
        assert response["error"]["code"] == "malformed-json"
        assert response["error"]["$kind"] == "serve-error"

    def test_non_object_envelope(self, server):
        response = raw_exchange(server.address, "[1,2]")
        assert response["error"]["code"] == "malformed-envelope"

    def test_verify_without_task(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.request({"op": "verify"})
        assert info.value.code == "malformed-envelope"

    def test_malformed_document(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.verify_task({"$kind": "task", "schema_version": -1})
        assert info.value.code == "malformed-document"

    def test_non_task_document(self, client):
        from repro.assertions.parser import parse_assertion
        from repro.codec import to_wire

        with pytest.raises(ServeRequestError) as info:
            client.verify_task(to_wire(parse_assertion(PRE)))
        assert info.value.code == "malformed-document"

    def test_bad_budgets(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.verify(PRE, PROG, POST, budgets={"exhaustive": "fast"})
        assert info.value.code == "malformed-envelope"

    def test_bad_timeout(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.verify(PRE, PROG, POST, timeout=-2)
        assert info.value.code == "malformed-envelope"

    def test_errors_counted_in_stats(self, client):
        with pytest.raises(ServeRequestError):
            client.request({"op": "frobnicate"})
        assert client.stats()["errors"].get("unsupported-op") == 1

    def test_malformed_document_never_reaches_store_or_pool(self, client):
        before = client.stats()
        with pytest.raises(ServeRequestError):
            client.verify_task({"$kind": "task", "schema_version": -1})
        after = client.stats()
        assert after["verified"] == before["verified"]
        assert after["store"]["puts"] == before["store"]["puts"]


class TestTimeout:
    def test_slow_request_times_out_then_lands_in_store(
        self, server, client, monkeypatch
    ):
        import repro.serve.worker as worker_module

        real = worker_module.serve_document

        def slow(settings, document, budgets):
            time.sleep(0.5)
            return real(settings, document, budgets)

        monkeypatch.setattr(worker_module, "serve_document", slow)
        with pytest.raises(ServeRequestError) as info:
            client.verify(PRE, PROG, POST, timeout=0.05)
        assert info.value.code == "timeout"
        # the timeout answered the client, not the worker: the job runs to
        # completion and stores its result, so the retry is a store hit
        deadline = time.time() + 5
        while time.time() < deadline:
            if client.stats()["store"]["puts"] >= 1:
                break
            time.sleep(0.05)
        response = client.verify(PRE, PROG, POST)
        assert response["cached"] is True
        assert decode_result(response).verdict is True


class TestConcurrentClients:
    def test_many_clients_many_tasks(self, server):
        programs = ["x := 0", "x := 0; x := 0", "skip; x := 0", "x := 0; skip"]
        errors = []
        hits = []

        def worker(program):
            try:
                with ServeClient(*server.address) as mine:
                    for _ in range(3):
                        response = mine.verify(PRE, program, POST)
                        assert decode_result(response).verdict is True
                        hits.append(response["cached"])
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [
            threading.Thread(target=worker, args=(program,))
            for program in programs
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(hits) == len(threads) * 3
        # single-flight + store: each distinct task hits a worker exactly
        # once; every other request was coalesced or served from the store
        with ServeClient(*server.address) as mine:
            stats = mine.stats()
        assert stats["verified"] == len(programs)
        assert stats["store"]["puts"] == len(programs)
        assert stats["store_hits"] + stats["coalesced"] == len(hits) - len(
            programs
        )


class TestLifecycle:
    def test_store_survives_restart(self, store_path):
        config = ServeConfig(
            port=0, executor="thread", workers=1, store_path=store_path, quiet=True
        )
        with BackgroundServer(config) as background:
            with ServeClient(*background.address) as mine:
                first = mine.verify(PRE, PROG, POST)
                assert first["cached"] is False
        with BackgroundServer(config) as background:
            with ServeClient(*background.address) as mine:
                second = mine.verify(PRE, PROG, POST)
                assert second["cached"] is True
                assert second["result"] == first["result"]

    def test_shutdown_op_drains_cleanly(self, store_path):
        config = ServeConfig(
            port=0, executor="thread", workers=1, store_path=store_path, quiet=True
        )
        background = BackgroundServer(config).start()
        with ServeClient(*background.address) as mine:
            assert mine.shutdown()["ok"] is True
        background._thread.join(timeout=10)
        assert not background._thread.is_alive()
        # the listener is gone
        with pytest.raises(OSError):
            socket.create_connection(background.address, timeout=0.5)

    def test_stop_waits_for_the_thread_not_the_shutdown_future(
        self, store_path, monkeypatch
    ):
        # The shutdown runs, but its future never reports: what ``stop``
        # sees when the coroutine lands on a loop that is already closing.
        import asyncio
        import concurrent.futures

        real = asyncio.run_coroutine_threadsafe

        def never_reports(coro, loop):
            real(coro, loop)
            return concurrent.futures.Future()

        config = ServeConfig(
            port=0, executor="thread", workers=1, store_path=store_path, quiet=True
        )
        background = BackgroundServer(config).start()
        monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", never_reports)
        started = time.perf_counter()
        background.stop(timeout=10.0)
        assert time.perf_counter() - started < 5.0
        assert not background._thread.is_alive()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(executor="fibers")
        with pytest.raises(ValueError):
            ServeConfig(timeout=0)
