"""The benchmark's correctness checks that do not run inside an access."""

from __future__ import annotations

from perfbench import shapes


def file_mismatch(storage_roots: dict, handle: int, expected) -> str | None:
    """Rebuild a file from its stripe files with the benchmark's own inverse
    striping map; describe the first difference from `expected`, if any."""
    actual = shapes.unstripe(shapes.read_stripe_files(storage_roots, handle))
    where = shapes.first_difference(actual, expected)
    if where is None:
        return None
    if where >= min(len(actual), len(expected)):
        return f"file is {len(actual)} bytes, expected {len(expected)}"
    return (f"file differs at offset {where}: expected {expected[where]:#04x},"
            f" found {actual[where]:#04x}")


def count_agreement(handle: int, client_metrics: dict, wire_counts: dict,
                    daemon_rows: dict) -> dict:
    """Compare one file's message and payload-byte counts at three places.

    client_metrics: ClientMetrics sums over the accesses ("server_messages",
        "wire_bytes") with "useful_bytes" and the plan's "plan_bytes";
    wire_counts: {(handle, opcode): [messages, payload bytes]} counted by
        the client-side wire wrappers;
    daemon_rows: {(handle, opcode): {"requests", "bytes_in", "bytes_out"}}
        counted inside the daemons.

    Returns the table row; row["agree"] is True only when every count is
    equal, per opcode too, and no message went to another handle.
    """
    from listio_pfs.wire import OPCODE_NAMES

    client = {op: counts for (h, op), counts in wire_counts.items() if h == handle}
    daemon = {op: [row["requests"], row["bytes_in"] + row["bytes_out"]]
              for (h, op), row in daemon_rows.items() if h == handle}
    stray = sorted(k for k in wire_counts if k[0] != handle)
    per_opcode = {
        OPCODE_NAMES.get(op, str(op)): {"wire": list(client.get(op, [0, 0])),
                                        "server": daemon.get(op, [0, 0])}
        for op in sorted(set(client) | set(daemon))
    }
    row = {
        "client_metrics.server_messages": client_metrics["server_messages"],
        "wire.messages": sum(c[0] for c in client.values()),
        "server.requests": sum(d[0] for d in daemon.values()),
        "client_metrics.wire_bytes": client_metrics["wire_bytes"],
        "wire.payload_bytes": sum(c[1] for c in client.values()),
        "server.payload_bytes": sum(d[1] for d in daemon.values()),
        "client_metrics.useful_bytes": client_metrics["useful_bytes"],
        "plan_bytes": client_metrics["plan_bytes"],
        "stray_messages": [list(k) for k in stray],
        "per_opcode": per_opcode,
    }
    row["agree"] = (
        row["client_metrics.server_messages"] == row["wire.messages"]
        == row["server.requests"]
        and row["client_metrics.wire_bytes"] == row["wire.payload_bytes"]
        == row["server.payload_bytes"]
        and row["client_metrics.useful_bytes"] == row["plan_bytes"]
        and not stray
        and all(v["wire"] == v["server"] for v in per_opcode.values())
    )
    return row
