"""Paired perf comparison of a parent commit against the working tree.

    python3 tools/paired.py --parent HEAD~1 --out BENCH_<n>.json \\
        --pairs cyclic-small=10 --pairs cyclic-large=3 --pairs flash-write=3

Run it from the root of the checkout that holds the change. It checks the
parent out with `git worktree` in a temporary directory, removed again on
every exit path, then runs K parent/change pairs per workload of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

each side from its own tree's root, for the run_seconds that the
change's BENCHMARK.json sets (30). Both runs of a pair share a seed that
no other pair uses, and the side that runs first alternates from pair to
pair. The file it writes holds every run and, per workload and
end-to-end metric of BENCHMARK.json, both sides' quartiles, the quartiles
of the per-pair change/parent ratio, and how many pairs the change won.
Per workload it also prints, and stores as `room`, each metric's change
side IQR next to its bound times the parent's median: a report of how
steady the change ran against the spread a check allows, not a gate.
No pair is ever dropped: a run that failed keeps its exit status and
counts as a pair the change did not win. Just before each run it times
a fixed pure-Python loop (`cpu_probe`) and keeps that reading with the
run, with each side's quartiles per workload, so a pair taken while the
host ran slow can be told apart. Each side is named by its
commit and by git's ids of its `src/` and `perfbench/` trees as checked
out, so numbers taken on an uncommitted change can be matched to the
commit that later holds it: `git rev-parse <commit>:src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time

RUN = ["python3", "perfbench/run.py"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quartiles of no values")

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def _spread(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the per-pair change/parent ratio's
    quartiles, and the pairs the change won. A pair where either side lacks
    the metric has no ratio and is not a win. A metric with a `bound` also
    gets `room`: the change side's IQR next to the bound times the parent's
    median, the spread a benchmark check allows. It is a report, not a
    gate."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent, change, ratios, wins = [], [], [], 0
        for pair in pairs:
            a = pair["parent"]["metrics"].get(name)
            b = pair["change"]["metrics"].get(name)
            if a is not None:
                parent.append(a)
            if b is not None:
                change.append(b)
            if a is None or b is None:
                continue
            if a:
                ratios.append(b / a)
            wins += b < a if lower else b > a
        out[name] = {"better": spec["better"], "pairs": len(pairs),
                     "wins": wins, "parent": _spread(parent),
                     "change": _spread(change), "ratio": _spread(ratios)}
        if "bound" in spec and parent and change:
            out[name]["room"] = {
                "change_iqr": out[name]["change"]["iqr"],
                "bound_x_parent_median":
                    spec["bound"] * out[name]["parent"]["median"]}
    return out


def room_lines(workload: str, summary: dict) -> list[str]:
    """One line per metric with a `room`: the change side's IQR against the
    spread its bound allows."""
    return [f"{workload} {name}: change IQR {room['change_iqr']:.4g} vs "
            f"bound x parent median {room['bound_x_parent_median']:.4g}"
            for name, entry in summary.items()
            if (room := entry.get("room"))]


def probe_spread(pairs: list[dict]) -> dict:
    """Each side's quartiles of the CPU-speed probe taken before its runs."""
    return {side: _spread([p[side]["cpu_probe_ms"] for p in pairs])
            for side in ("parent", "change")}


def read_run(stdout: str, tree: str) -> dict:
    """Metrics, mean host steal and quiet-sample counts of one perfbench
    run, from its result line and its result.json."""
    run = {"metrics": {}, "mean_steal": None, "quiet": None}
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return run
    run["correct"] = report.get("correct")
    run["metrics"] = {k: v["value"] for k, v in report["metrics"].items()}
    found = re.search(r"details in (\S+)/result\.json", stdout)
    if found:
        with open(os.path.join(tree, found.group(1), "result.json")) as f:
            detail = json.load(f)
        steal = [s for per in detail.get("steal", {}).values() for s in per]
        run["mean_steal"] = sum(steal) / len(steal) if steal else None
        run["quiet"] = {s: n["quiet"]
                        for s, n in detail.get("samples", {}).items()}
    return run


def cpu_probe() -> float:
    """Milliseconds that a fixed pure-Python loop takes on this host now:
    a slower reading means a slower CPU (host steal, frequency drift) for
    the run that follows it."""
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x + i * i) % 1000003
    return (time.perf_counter() - start) * 1e3


def perf_run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"]
    probe_ms = cpu_probe()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = read_run(proc.stdout, tree)
    run["cpu_probe_ms"] = probe_ms
    run["exit"] = proc.returncode
    if proc.returncode:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def _git(tree: str, *args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=tree, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def src_lines(tree: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def checked_out_trees(tree: str, dirs=("src", "perfbench")) -> dict:
    """git's tree id of each directory as it is on disk, untracked files
    included, built in a scratch index so the checkout's own is untouched."""
    ids = {}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        for d in dirs:
            _git(tree, "add", "-A", "--", d, env=env)
            ids[d] = _git(tree, "write-tree", f"--prefix={d}/", env=env)
    return ids


def tree_info(tree: str) -> dict:
    return {"sha": _git(tree, "rev-parse", "HEAD"),
            "dirty": bool(_git(tree, "status", "--porcelain")),
            "trees": checked_out_trees(tree), "src_lines": src_lines(tree)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=K")
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; each pair takes the next one")
    args = parser.parse_args(argv)
    plan = [(w, int(k)) for w, k in (p.split("=") for p in args.pairs)]

    change = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    tmp = tempfile.mkdtemp(prefix="paired-")
    parent = os.path.join(tmp, "parent")
    try:
        _git(change, "worktree", "add", "--detach", parent, args.parent)
        result = {
            "command": RUN + ["--seconds", str(seconds), "--trace", "0"],
            "parent": tree_info(parent),
            "change": tree_info(change),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "workloads": {},
        }
        seed = args.seed
        for workload, k in plan:
            pairs = []
            for i in range(k):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    tree = parent if side == "parent" else change
                    pair[side] = perf_run(tree, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: exit "
                          f"{pair[side]['exit']}", file=sys.stderr, flush=True)
                pairs.append(pair)
                seed += 1
            summary = summarize(pairs, metrics)
            result["workloads"][workload] = {
                "pairs": pairs, "summary": summary,
                "cpu_probe_ms": probe_spread(pairs)}
            for line in room_lines(workload, summary):
                print(line, file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent],
                       cwd=change, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=change,
                       capture_output=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
