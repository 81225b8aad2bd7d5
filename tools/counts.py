"""Check the benchmark's exact per-access counts on a traced run.

    python3 tools/counts.py

Run it from the root of a checkout. For each of perfbench's three
workloads it runs

    python3 perfbench/run.py --workload W --seed 1 --trace 1 --seconds 5

and compares the per-access counts on the run's result line with the ones
that no change may move (ROADMAP.md, "Rules for every item"): wire
messages and daemon requests, daemon storage calls, and sieving's wire
bytes per useful byte, the last to three decimals. It prints one line per
count and exits 1 when a count differs, or when a run failed or printed
no result; else 0.
"""

from __future__ import annotations

import json
import subprocess
import sys

RUN = ["python3", "perfbench/run.py", "--seed", "1", "--trace", "1",
       "--seconds", "5"]
STRATEGIES = ("multiple", "list", "sieving")


def _per_strategy(name: str, values: tuple) -> dict:
    return {f"{s}.{name}": v for s, v in zip(STRATEGIES, values)}


def _expected(messages: tuple, storage_calls: tuple,
              sieving_bytes_per_useful: float) -> dict:
    return {**_per_strategy("wire.messages", messages),
            **_per_strategy("server.requests", messages),
            **_per_strategy("server.storage_calls", storage_calls),
            "sieving.wire.bytes_per_useful": sieving_bytes_per_useful}


# Per workload: each count's value per access, for multiple, list and
# sieving in turn.
EXPECTED = {
    "cyclic-small": _expected((1024, 64, 4), (1024, 1024, 4), 1.999),
    "cyclic-large": _expected((256, 8, 4), (256, 512, 4), 1.984),
    "flash-write": _expected((512, 4, 8), (512, 48, 8), 3.958),
}


def compare(workload: str, metrics: dict) -> list[tuple[str, object, object, bool]]:
    """(count, expected, got, holds) for each count of `workload`, from the
    metrics of its result line, {name: {"value": v, ...}}. A ratio holds
    when it rounds to the expected three decimals; any other count only
    when equal. A missing count does not hold."""
    rows = []
    for name, want in EXPECTED[workload].items():
        got = metrics.get(name, {}).get("value")
        if got is None:
            holds = False
        elif isinstance(want, float):
            holds = round(got, 3) == want
        else:
            holds = got == want
        rows.append((name, want, got, holds))
    return rows


def run(workload: str) -> tuple[dict | None, str]:
    """The metrics of one traced run, or None, and why not."""
    proc = subprocess.run(RUN + ["--workload", workload],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, (f"no result line (exit {proc.returncode}): "
                      f"{proc.stderr.strip()[-500:]}")
    if proc.returncode or not report.get("correct"):
        return None, (f"exit {proc.returncode}, correct "
                      f"{report.get('correct')}: {proc.stderr.strip()[-500:]}")
    return report["metrics"], ""


def main() -> int:
    ok = True
    for workload in EXPECTED:
        metrics, why = run(workload)
        if metrics is None:
            print(f"{workload}: run failed: {why}")
            ok = False
            continue
        for name, want, got, holds in compare(workload, metrics):
            print(f"{workload} {name}: {got} (expected {want})"
                  + ("" if holds else "  MISMATCH"))
            ok = ok and holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
