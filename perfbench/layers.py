"""Client-side layer trace, installed from outside the program.

Wrappers go around the public functions of each client-side layer, in the
benchmark process only:

* regions  - every listio_pfs.regions function as listio_pfs.client imports
             it; for generator functions the iteration is timed, not the call;
* wire     - send_request and recv_response for daemon-bound messages;
* client   - AccessPlan.scatter/gather and FileSession.acquire_token.

Spans (name, start, end, parent) are recorded only inside an access begun
with Tracer.begin; outside one the wrappers call straight through. Every
wrapper returns what the wrapped call returns and re-raises what it raises.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class AccessTrace:
    """Spans and counts of one access, owned by the thread running it."""

    __slots__ = ("access_id", "spans", "stack", "calls", "wire", "pending")

    def __init__(self, access_id: int):
        self.access_id = access_id
        self.spans = [["access", 0.0, 0.0, -1]]
        self.stack = [0]
        self.calls: Counter = Counter()
        # (handle, opcode) -> [messages, payload bytes both ways]
        self.wire: dict = defaultdict(lambda: [0, 0])
        self.pending: dict = {}  # socket -> (handle, opcode) awaiting reply

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, self.stack[-1]])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def child_seconds(self) -> Counter:
        """Time per span name over the access span's direct children."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans[1:]:
            if parent == 0:
                out[name] += end - start
        return out

    @property
    def seconds(self) -> float:
        return self.spans[0][2] - self.spans[0][1]


def daemon_bound(header, wire) -> bool:
    """True for requests that go to an I/O daemon rather than the manager:
    data operations, and OPEN with a handle (the per-daemon attach)."""
    op = header.opcode
    return op in (wire.READ, wire.WRITE, wire.READ_LIST, wire.WRITE_LIST,
                  wire.STAT) or (op == wire.OPEN and header.file_handle != 0)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._saved: list = []

    def current(self) -> AccessTrace | None:
        return getattr(self._local, "trace", None)

    def begin(self, access_id: int) -> AccessTrace:
        trace = AccessTrace(access_id)
        self._local.trace = trace
        return trace

    def end(self, trace: AccessTrace, start: float, stop: float) -> None:
        trace.spans[0][1] = start
        trace.spans[0][2] = stop
        self._local.trace = None

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn):
        current = self.current

        def wrapper(*args, **kwargs):
            trace = current()
            if trace is None:
                return fn(*args, **kwargs)
            trace.calls[name] += 1
            index = trace.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                trace.close(index)
        return wrapper

    def generator_span(self, name: str, fn):
        current = self.current

        def iterate(trace, it):
            while True:
                index = trace.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    trace.close(index)
                yield item

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            trace = current()
            if trace is None:
                return it
            trace.calls[name] += 1
            return iterate(trace, it)
        return wrapper

    def wire_send(self, fn, wire):
        current = self.current

        def wrapper(sock, header, trailing=None, payload=None):
            trace = current()
            if trace is None or not daemon_bound(header, wire):
                return fn(sock, header, trailing, payload)
            key = (header.file_handle, header.opcode)
            trace.pending[sock] = key
            index = trace.open("wire.send")
            try:
                return fn(sock, header, trailing, payload)
            finally:
                trace.close(index)
                counts = trace.wire[key]
                counts[0] += 1
                counts[1] += len(payload) if payload is not None else 0
        return wrapper

    def wire_recv(self, fn, wire):
        current = self.current

        def wrapper(sock, out=None):
            trace = current()
            key = trace.pending.pop(sock, None) if trace is not None else None
            if key is None:
                return fn(sock, out)
            index = trace.open("wire.wait")
            try:
                result = fn(sock, out)
            finally:
                trace.close(index)
            _rid, status, payload = result
            if status == wire.STATUS_OK:
                trace.wire[key][1] += (payload if isinstance(payload, int)
                                       else len(payload))
            return result
        return wrapper

    # -- install ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        from listio_pfs import client, wire

        for attr, fn in sorted(vars(client).items()):
            if inspect.isfunction(fn) and fn.__module__ == "listio_pfs.regions":
                name = f"regions.{attr}"
                if inspect.isgeneratorfunction(fn):
                    self._patch(client, attr, self.generator_span(name, fn))
                else:
                    self._patch(client, attr, self.span(name, fn))
        self._patch(wire, "send_request", self.wire_send(wire.send_request, wire))
        self._patch(wire, "recv_response",
                    self.wire_recv(wire.recv_response, wire))
        plan = client.AccessPlan
        self._patch(plan, "scatter",
                    self.span("client.scatter_gather", plan.scatter))
        self._patch(plan, "gather",
                    self.span("client.scatter_gather", plan.gather))
        session = client.FileSession
        self._patch(session, "acquire_token",
                    self.span("client.token_wait", session.acquire_token))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerTotals:
    """Sums over the traced accesses of one strategy."""

    def __init__(self, keep_spans: int):
        """Spans are kept for the first `keep_spans` accesses only."""
        self.accesses = 0
        self.seconds: Counter = Counter()   # direct-child span time by name
        self.calls: Counter = Counter()
        self.self_seconds = 0.0
        self.wire: dict = defaultdict(lambda: [0, 0])
        self.kept: list = []
        self._keep = keep_spans

    def add(self, trace: AccessTrace) -> None:
        self.accesses += 1
        children = trace.child_seconds()
        self.seconds.update(children)
        self.self_seconds += trace.seconds - sum(children.values())
        self.calls.update(trace.calls)
        for key, (messages, nbytes) in trace.wire.items():
            row = self.wire[key]
            row[0] += messages
            row[1] += nbytes
        if self.accesses <= self._keep:
            self.kept.extend(
                {"name": name, "start": start, "end": end, "parent": parent,
                 "access": trace.access_id}
                for name, start, end, parent in trace.spans
            )

    def layer(self, prefix: str) -> tuple[float, int]:
        """(seconds, calls) summed over span names with this prefix."""
        return (sum(v for k, v in self.seconds.items() if k.startswith(prefix)),
                sum(v for k, v in self.calls.items() if k.startswith(prefix)))
