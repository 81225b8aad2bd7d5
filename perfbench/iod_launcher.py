"""Run `listio_pfs.cli serve` for an I/O daemon with daemon-side counters.

    python -m perfbench.iod_launcher --counters PATH -- serve --role iod ...

Before handing over to the unmodified `serve` entry point, this wraps the
public methods of listio_pfs.server's IoDaemon.dispatch and StripeStore
pread/pwrite, and wire's request decode and response send, from outside
the program. Counters are keyed by "<handle>:<opcode>". SIGUSR1 writes a
snapshot to PATH.<n> (n = 1, 2, ...); a clean stop writes PATH.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import defaultdict

FIELDS = ("requests", "bytes_in", "bytes_out", "decode_s", "service_s",
          "reply_s", "storage_s", "storage_calls")


class DaemonCounters:
    """Per (handle, opcode) request counters, safe across handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._rows = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
        self._local = threading.local()

    def add(self, key, **amounts) -> None:
        with self._lock:
            row = self._rows[key]
            for name, amount in amounts.items():
                row[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {f"{h}:{op}": dict(row) for (h, op), row in self._rows.items()}

    def install(self, server_mod, wire_mod) -> None:
        """Wrap the daemon's request path; every wrapper returns what the
        wrapped call returns and lets its exceptions through."""
        counters = self
        local = self._local
        clock = time.perf_counter

        def timed_decode(fn, header_of):
            # decode_request calls decode_header; only the outer call counts.
            def wrapper(*args, **kwargs):
                if getattr(local, "decoding", False):
                    return fn(*args, **kwargs)
                local.decoding = True
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    local.decoding = False
                header = header_of(result)
                counters.add((header.file_handle, header.opcode),
                             decode_s=clock() - t0)
                return result
            return wrapper

        dispatch = server_mod.IoDaemon.dispatch

        def wrapped_dispatch(self, conn_id, header, trailing, data):
            key = (header.file_handle, header.opcode)
            local.key = key
            t0 = clock()
            try:
                payload = dispatch(self, conn_id, header, trailing, data)
            finally:
                counters.add(key, requests=1, bytes_in=len(data),
                             service_s=clock() - t0)
            counters.add(key, bytes_out=len(payload))
            return payload

        send_response = wire_mod.send_response

        def wrapped_send_response(sock, request_id, status, payload=b""):
            t0 = clock()
            try:
                return send_response(sock, request_id, status, payload)
            finally:
                key = getattr(local, "key", None)
                if key is not None:
                    counters.add(key, reply_s=clock() - t0)

        def timed_storage(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counters.add(local.key, storage_s=clock() - t0,
                                 storage_calls=1)
            return wrapper

        wire_mod.decode_header = timed_decode(wire_mod.decode_header,
                                              lambda header: header)
        wire_mod.decode_request = timed_decode(wire_mod.decode_request,
                                               lambda result: result[0])
        wire_mod.send_response = wrapped_send_response
        server_mod.IoDaemon.dispatch = wrapped_dispatch
        store = server_mod.StripeStore
        store.pread = timed_storage(store.pread)
        store.pwrite = timed_storage(store.pwrite)


def write_json(path: str, data) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(data, f)
    os.replace(tmp, path)


def _interrupt(*_):
    raise KeyboardInterrupt


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--counters" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    path, serve_argv = argv[1], argv[3:]
    from listio_pfs import cli, server, wire

    counters = DaemonCounters()
    counters.install(server, wire)
    dumps = iter(range(1, 1 << 30))
    signal.signal(signal.SIGUSR1, lambda *_: write_json(
        f"{path}.{next(dumps)}", counters.snapshot()))
    # `serve` stops cleanly on KeyboardInterrupt; SIGTERM raises it too.
    signal.signal(signal.SIGTERM, _interrupt)
    code = cli.main(serve_argv)
    write_json(path, counters.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
