"""The comparison of tools/counts.py, on saved perfbench results; no
benchmark is run here."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "counts", Path(__file__).resolve().parents[1] / "tools" / "counts.py")
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)


def metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": "count"}
            for name, value in values.items()}


# The counts of a traced cyclic-small run (perfbench/run.py --workload
# cyclic-small --seed 1 --trace 1 --seconds 5), with two timings of it.
CYCLIC_SMALL = {
    "multiple.wire.messages": 1024.0, "list.wire.messages": 64.0,
    "sieving.wire.messages": 4.0,
    "multiple.server.requests": 1024.0, "list.server.requests": 64.0,
    "sieving.server.requests": 4.0,
    "multiple.server.storage_calls": 1024.0,
    "list.server.storage_calls": 1024.0, "sieving.server.storage_calls": 4.0,
    "sieving.wire.bytes_per_useful": 1.9990234375,
    "list.wire.wait_ms": 2.31, "multiple.client.self_ms": 19.8,
}


def holding(rows) -> dict:
    return {name: holds for name, _want, _got, holds in rows}


def test_a_saved_run_holds_every_count():
    rows = counts.compare("cyclic-small", metrics(CYCLIC_SMALL))
    assert len(rows) == 10
    assert all(holding(rows).values())


def test_a_moved_count_does_not_hold():
    moved = dict(CYCLIC_SMALL, **{"list.wire.messages": 65.0,
                                  "sieving.server.storage_calls": 4.5})
    held = holding(counts.compare("cyclic-small", metrics(moved)))
    assert [name for name, holds in held.items() if not holds] == [
        "list.wire.messages", "sieving.server.storage_calls"]


def test_a_ratio_holds_to_three_decimals_only():
    for value, holds in ((1.9994, True), (1.9986, True), (1.9984, False),
                         (2.0, False)):
        ratio = dict(CYCLIC_SMALL, **{"sieving.wire.bytes_per_useful": value})
        held = holding(counts.compare("cyclic-small", metrics(ratio)))
        assert held["sieving.wire.bytes_per_useful"] is holds


def test_a_missing_count_does_not_hold():
    missing = dict(CYCLIC_SMALL)
    del missing["multiple.server.requests"]
    rows = counts.compare("cyclic-small", metrics(missing))
    assert ("multiple.server.requests", 1024, None, False) in rows


def test_the_exit_status_follows_every_workload(monkeypatch, capsys):
    saved = {"cyclic-small": CYCLIC_SMALL}
    for workload, expected in counts.EXPECTED.items():
        if workload not in saved:
            saved[workload] = {name: float(value)
                               for name, value in expected.items()}
    monkeypatch.setattr(counts, "run",
                        lambda workload: (metrics(saved[workload]), ""))
    assert counts.main() == 0
    saved["flash-write"] = dict(saved["flash-write"],
                                **{"list.wire.messages": 5.0})
    assert counts.main() == 1
    assert "flash-write list.wire.messages: 5.0 (expected 4)  MISMATCH" in (
        capsys.readouterr().out)
    monkeypatch.setattr(counts, "run", lambda workload: (None, "exit 2"))
    assert counts.main() == 1
