"""The default process executor: forked children on one pipe each.

These daemons fork real ``multiprocessing`` children of the test
process, so every test stops its daemon, and the ``worker_children``
fixture checks that no child outlives it.
"""

import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

import repro.api.task as task_module
import repro.serve.server as server_module
import repro.serve.worker as worker_module
from repro.api.task import VerificationTask
from repro.assertions.parser import parse_assertion
from repro.codec import to_wire
from repro.lang.parser import parse_command
from repro.serve import BackgroundServer, ServeClient, ServeConfig, decode_result
from repro.serve.client import ServeRequestError

PRE = "forall <a>. a(x) == 0"
POST = "forall <a>. a(x) == 0"
GNI = "forall <a>. exists <b>. a(x) == b(y)"


def task_document(pre, program, post):
    return to_wire(
        VerificationTask(
            pre=parse_assertion(pre),
            command=parse_command(program),
            post=parse_assertion(post),
        )
    )


def config_for(store_path, executor="process", workers=1):
    return ServeConfig(
        port=0,
        executor=executor,
        workers=workers,
        store_path=store_path,
        quiet=True,
        timeout=30.0,
    )


@pytest.fixture
def worker_children():
    """The live children this test started; none may outlive it."""
    before = set(multiprocessing.active_children())

    def started():
        return [c for c in multiprocessing.active_children() if c not in before]

    yield started
    assert started() == []


#: A proved, a refuted and a budget-limited task, a malformed document,
#: and the proved task again (a store hit).
STREAM = (
    {"task": task_document(PRE, "x := 0", POST)},
    {"task": task_document("exists <a>. a(x) == 0", "x := 1", "exists <a>. a(x) == 0")},
    {
        "task": task_document(GNI, "while (x == 0) { x := 1 }", GNI),
        "budgets": {"exhaustive": 0.0},
    },
    {"task": {"$kind": "task", "command": {"$kind": "command", "tree": ["jump"]}}},
    {"task": task_document(PRE, "x := 0", POST)},
)


def stream_lines(store_path, executor):
    """The response lines of :data:`STREAM` on one connection."""
    with BackgroundServer(config_for(store_path, executor)) as background:
        with socket.create_connection(background.address) as sock, \
                sock.makefile("r", encoding="utf-8") as reader:
            lines = []
            for index, request in enumerate(STREAM):
                envelope = dict(request, id=index, op="verify")
                sock.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
                lines.append(reader.readline())
    return lines


class TestProcessExecutor:
    def test_lines_are_byte_identical_to_the_thread_executor(
        self, tmp_path, monkeypatch, worker_children
    ):
        # one constant clock, inherited by the forked children: every
        # ``elapsed`` on both sides reads 0.0
        monkeypatch.setattr(task_module, "clock", lambda: 0.0)
        monkeypatch.setattr(server_module, "clock", lambda: 0.0)
        threads = stream_lines(str(tmp_path / "threads"), "thread")
        processes = stream_lines(str(tmp_path / "processes"), "process")
        assert processes == threads
        responses = [json.loads(line) for line in processes]
        assert [r["ok"] for r in responses] == [True, True, True, False, True]
        assert [r.get("cached") for r in responses] == [False, False, False, None, True]
        verdicts = [decode_result(r).verdict for r in responses if r["ok"]]
        assert verdicts == [True, False, None, True]
        assert "budget exhausted" in processes[2]
        assert responses[3]["error"]["code"] == "malformed-document"

    def test_close_then_stop_does_not_wait_out_the_drain(
        self, store_path, worker_children
    ):
        # the child drops the sockets it inherited, the client's included,
        # so closing the client ends its connection at once
        background = BackgroundServer(config_for(store_path)).start()
        client = ServeClient(*background.address)
        assert client.verify(PRE, "x := 0", POST)["cached"] is False
        started = time.perf_counter()
        client.close()
        background.stop()
        assert time.perf_counter() - started < 1.0

    def test_stop_message_ends_a_child_whose_pipe_another_process_holds(
        self, store_path, worker_children
    ):
        background = BackgroundServer(config_for(store_path)).start()
        with ServeClient(*background.address) as client:
            client.verify(PRE, "x := 0", POST)
        # forked by other code after the worker: it holds a copy of the
        # daemon's end of the worker's pipe, so closing it sends no EOF
        bystander = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,)
        )
        bystander.start()
        try:
            started = time.perf_counter()
            background.stop()
            assert time.perf_counter() - started < 5.0
        finally:
            bystander.kill()
            bystander.join()

    def test_children_fork_lazily_up_to_workers_and_are_joined(
        self, store_path, worker_children
    ):
        background = BackgroundServer(config_for(store_path, workers=2)).start()
        try:
            with ServeClient(*background.address) as client:
                client.ping()
                assert worker_children() == []
            programs = ["x := 0", "x := 0; x := 0", "skip; x := 0", "x := 0; skip"]
            errors = []

            def verify(program):
                try:
                    with ServeClient(*background.address) as client:
                        response = client.verify(PRE, program, POST)
                        assert decode_result(response).verdict is True
                except Exception as err:  # pragma: no cover
                    errors.append(err)

            threads = [threading.Thread(target=verify, args=(p,)) for p in programs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert 1 <= len(worker_children()) <= 2
        finally:
            background.stop()
        assert worker_children() == []

    def test_dead_worker_answers_internal_and_is_replaced(
        self, store_path, monkeypatch, worker_children
    ):
        real = worker_module.session_for

        def crash_on_z(spec):
            if "z" in spec.pvars:
                os._exit(3)
            return real(spec)

        # patched before the children fork, so they inherit it
        monkeypatch.setattr(worker_module, "session_for", crash_on_z)
        with BackgroundServer(config_for(store_path)) as background:
            with ServeClient(*background.address) as client:
                assert client.verify(PRE, "x := 0", POST)["cached"] is False
                (first,) = worker_children()
                with pytest.raises(ServeRequestError) as info:
                    client.verify(PRE, "z := 0", POST)
                assert info.value.code == "internal"
                response = client.verify(PRE, "x := 0; x := 0", POST)
                assert response["cached"] is False
                assert decode_result(response).verdict is True
                (second,) = worker_children()
                assert second.pid != first.pid
                assert first.exitcode == 3
                assert "exited with code 3" in info.value.message
                stats = client.stats()
        assert stats["errors"] == {"internal": 1}
        assert stats["verified"] == 2
