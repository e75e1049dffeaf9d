"""Wire-protocol unit tests: framing, EOF, bounds, function references."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.bench.parallel import execute_spec, payload_digest
from repro.fleet.protocol import (
    FrameSocket,
    ProtocolError,
    fn_reference,
    resolve_fn,
)


def _pair() -> tuple[FrameSocket, FrameSocket]:
    a, b = socket.socketpair()
    return FrameSocket(a), FrameSocket(b)


class TestFraming:
    def test_header_roundtrip(self):
        left, right = _pair()
        left.send({"type": "hello", "worker": "w1", "pid": 7})
        msg, payload = right.recv()
        assert msg == {"type": "hello", "worker": "w1", "pid": 7}
        assert payload == b""

    def test_payload_roundtrip(self):
        left, right = _pair()
        body = bytes(range(256)) * 17
        left.send({"type": "result", "task": 3,
                   "digest": payload_digest(body)}, body)
        msg, payload = right.recv()
        assert payload == body
        assert msg["plen"] == len(body)
        assert payload_digest(payload) == msg["digest"]

    def test_large_payload(self):
        left, right = _pair()
        body = b"\xab" * (1 << 20)
        done = {}

        def sender():
            done["sent"] = left.send({"type": "task", "task": 0}, body)

        t = threading.Thread(target=sender)
        t.start()
        msg, payload = right.recv()
        t.join(10)
        assert payload == body
        assert done["sent"] == right.bytes_received

    def test_messages_keep_order(self):
        left, right = _pair()
        for i in range(20):
            left.send({"type": "ready", "seq": i})
        for i in range(20):
            msg, _ = right.recv()
            assert msg["seq"] == i

    def test_clean_eof_is_none(self):
        left, right = _pair()
        left.close()
        assert right.recv() == (None, b"")

    def test_mid_frame_eof_raises(self):
        left, right = _pair()
        left.sock.sendall(b"\x00\x00\x00\x10partial")
        left.close()
        with pytest.raises(ConnectionError):
            right.recv()

    def test_garbage_header_raises(self):
        left, right = _pair()
        left.sock.sendall(b"\x00\x00\x00\x04WXYZ")
        with pytest.raises(ProtocolError):
            right.recv()

    def test_header_without_type_raises(self):
        left, right = _pair()
        left.sock.sendall(b'\x00\x00\x00\x08{"x": 1}')
        with pytest.raises(ProtocolError):
            right.recv()

    def test_implausible_header_length_raises(self):
        left, right = _pair()
        left.sock.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            right.recv()

    def test_byte_counters_accumulate(self):
        left, right = _pair()
        sent = left.send({"type": "ready"})
        sent += left.send({"type": "heartbeat"})
        right.recv()
        right.recv()
        assert left.bytes_sent == sent
        assert right.bytes_received == sent


class TestFnReference:
    def test_roundtrip_module_function(self):
        ref = fn_reference(execute_spec)
        assert ref == "repro.bench.parallel:execute_spec"
        assert resolve_fn(ref) is execute_spec

    def test_builtin_roundtrip(self):
        assert resolve_fn(fn_reference(len)) is len

    def test_lambda_rejected(self):
        with pytest.raises(ValueError):
            fn_reference(lambda x: x)

    def test_local_function_rejected(self):
        def local(x):
            return x

        with pytest.raises(ValueError):
            fn_reference(local)

    def test_main_module_named_by_its_import_name(self, monkeypatch):
        """A task function of a CLI run as ``python -m pkg.mod`` lives in
        ``__main__``; the worker must import ``pkg.mod`` instead."""
        import sys
        import types

        from importlib.machinery import ModuleSpec

        main = types.ModuleType("__main__")
        main.__spec__ = ModuleSpec("repro.bench.parallel", None)
        monkeypatch.setitem(sys.modules, "__main__", main)

        def cell(x):
            return x

        cell.__module__ = "__main__"
        cell.__qualname__ = "execute_spec"
        assert fn_reference(cell) == "repro.bench.parallel:execute_spec"

    def test_main_script_rejected(self, monkeypatch):
        import sys
        import types

        main = types.ModuleType("__main__")
        main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", main)

        def cell(x):
            return x

        cell.__module__ = "__main__"
        cell.__qualname__ = "cell"
        with pytest.raises(ValueError):
            fn_reference(cell)

    def test_malformed_reference_raises(self):
        with pytest.raises(ProtocolError):
            resolve_fn("no-colon-here")

    def test_non_callable_reference_raises(self):
        with pytest.raises(ProtocolError):
            resolve_fn("repro.bench.parallel:DEFAULT_CACHE_DIR")
