"""The daemon's result tiers: hits without a decode, spliced response
lines, the memory tier's TTL, and the write-behind disk store."""

import json
import socket
import time

import pytest

import repro.serve.server as server_module
from repro.api.task import VerificationTask
from repro.assertions.parser import parse_assertion
from repro.codec import to_wire
from repro.lang.parser import parse_command
from repro.serve import BackgroundServer, ResultStore, ServeClient, ServeConfig
from repro.serve.store import encode_record

PRE = "forall <a>. a(x) == 0"
POST = "forall <a>. a(x) == 0"
PROGRAMS = ("x := 0", "x := 0; x := 0", "skip; x := 0")


def task_document(program="x := 0"):
    return to_wire(
        VerificationTask(
            pre=parse_assertion(PRE),
            command=parse_command(program),
            post=parse_assertion(POST),
        )
    )


def verify_line(address, document, request_id=1):
    """One verify request over a raw socket → the response line's text."""
    envelope = {"id": request_id, "op": "verify", "task": document}
    with socket.create_connection(address) as sock:
        sock.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
        return sock.makefile("r", encoding="utf-8").readline().rstrip("\n")


def config_for(store_path, **overrides):
    fields = dict(
        port=0, executor="thread", workers=1, store_path=store_path, quiet=True
    )
    fields.update(overrides)
    return ServeConfig(**fields)


@pytest.fixture
def decodes(monkeypatch):
    """Counts the server's ``from_wire`` calls."""
    calls = []
    real = server_module.from_wire

    def counting(document):
        calls.append(document)
        return real(document)

    monkeypatch.setattr(server_module, "from_wire", counting)
    return calls


class TestHits:
    def test_hit_does_not_decode(self, client, decodes):
        first = client.verify(PRE, "x := 0", POST)
        assert first["cached"] is False and len(decodes) == 1
        second = client.verify(PRE, "x := 0", POST)
        assert second["cached"] is True
        assert len(decodes) == 1
        assert client.stats()["store_hits_by_tier"] == {"memory": 1, "disk": 0}

    def test_malformed_document_twice_same_code_nothing_stored(self, server):
        document = {"$kind": "task", "schema_version": -1}
        codes = [
            json.loads(verify_line(server.address, document))["error"]["code"]
            for _ in range(2)
        ]
        assert codes == ["malformed-document", "malformed-document"]
        with ServeClient(*server.address) as client:
            stats = client.stats()
        assert stats["store_hits"] == 0
        assert stats["memory_tier_size"] == 0
        assert stats["store"]["puts"] == 0 and stats["store"]["size"] == 0

    def test_cold_tier_and_disk_lines_are_canonical(self, store_path, decodes):
        document = task_document()
        config = config_for(store_path)
        with BackgroundServer(config) as background:
            cold = verify_line(background.address, document)
            warm = verify_line(background.address, document)
        with BackgroundServer(config) as background:
            disk = verify_line(background.address, document)
            with ServeClient(*background.address) as client:
                tiers = client.stats()["store_hits_by_tier"]
        assert tiers == {"memory": 0, "disk": 1}
        assert len(decodes) == 1  # the cold request only
        responses = [json.loads(line) for line in (cold, warm, disk)]
        for line, response in zip((cold, warm, disk), responses):
            assert line == json.dumps(response, sort_keys=True)
        assert [r["cached"] for r in responses] == [False, True, True]
        assert responses[0]["result"] == responses[1]["result"] == responses[2]["result"]

    def test_memory_tier_honours_store_ttl(self, store_path, monkeypatch):
        with BackgroundServer(config_for(store_path, store_ttl=60.0)) as background:
            with ServeClient(*background.address) as client:
                assert client.verify(PRE, "x := 0", POST)["cached"] is False
                assert client.verify(PRE, "x := 0", POST)["cached"] is True
                real = time.time
                monkeypatch.setattr(time, "time", lambda: real() + 120.0)
                assert client.verify(PRE, "x := 0", POST)["cached"] is False
                stats = client.stats()
        assert stats["verified"] == 2
        assert stats["store_hits_by_tier"] == {"memory": 1, "disk": 0}


class TestWriteBehind:
    def test_record_bytes_match_a_whole_record_dump(self):
        result = {"$kind": "task-result", "b": [1.5, None], "a": "é"}
        task = {"z": 1, "$kind": "task"}
        for task_document in (task, None):
            record = {
                "key": "ab" * 32,
                "stored_at": 1234.5,
                "result": result,
                "task": task_document,
            }
            assert encode_record(
                "ab" * 32, json.dumps(result, sort_keys=True), task_document, 1234.5
            ) == json.dumps(record, sort_keys=True).encode("utf-8")

    def test_shutdown_flushes_pending_writes(self, store_path, monkeypatch):
        real = ResultStore.write

        def slow(store, key, data):
            time.sleep(0.1)
            real(store, key, data)

        monkeypatch.setattr(ResultStore, "write", slow)
        with BackgroundServer(config_for(store_path)) as background:
            with ServeClient(*background.address) as client:
                results = {
                    response["key"]: response["result"]
                    for response in (
                        client.verify(PRE, program, POST) for program in PROGRAMS
                    )
                }
        store = ResultStore(store_path)
        assert len(store) == len(PROGRAMS)
        for key, result in results.items():
            assert store.get(key)["result"] == result

    def test_failed_write_is_counted_and_key_still_answered(
        self, client, monkeypatch, caplog
    ):
        def failing(store, key, data):
            raise OSError("no space left on device")

        monkeypatch.setattr(ResultStore, "write", failing)
        first = client.verify(PRE, "x := 0", POST)
        second = client.verify(PRE, "x := 0", POST)
        assert second["cached"] is True
        assert second["result"] == first["result"]
        stats = client.stats()
        assert stats["store_write_failures"] == 1
        assert stats["store"]["puts"] == 0
        assert "store write of %s failed" % first["key"] in caplog.text

    def test_stats_after_responses_counts_every_put(self, client, monkeypatch):
        real = ResultStore.write

        def slow(store, key, data):
            time.sleep(0.05)
            real(store, key, data)

        monkeypatch.setattr(ResultStore, "write", slow)
        for program in PROGRAMS:
            client.verify(PRE, program, POST)
        stats = client.stats()
        assert stats["store"]["puts"] == len(PROGRAMS)
