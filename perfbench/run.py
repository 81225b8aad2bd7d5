#!/usr/bin/env python3
"""Per-strategy access latency of listio-pfs on a multi-process cluster.

    python3 perfbench/run.py --workload cyclic-small --seed 1 --seconds 30 --trace 0

Run it from the repository root; it loads the program from ./src. Each run
starts one manager and four I/O daemons through `listio-pfs serve`, makes
its inputs from --seed, and drives multiple, list and sieving accesses
through the public client API in interleaved rounds (a closed loop: each
client thread issues its next access when the previous one returns). Every
returned buffer and every written file is checked against the benchmark's
own expected bytes.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it spends
half the time untraced and half with layer wrappers installed in this
process and in the daemons, checks that message and byte counts agree at
both ends and with ClientMetrics, and reports the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The full result, with provenance, goes to
.perfbench-runs/<run>/result.json. Exit status: 0 when every check passed,
1 when some access failed or a check did not hold, 2 when the run could
not start (for example outside a checkout with src/listio_pfs).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

# listio_pfs is imported inside functions: main() first checks that ./src
# holds it, so that a bare checkout fails cleanly instead of importing
# whatever else is installed.
from perfbench import checks, shapes, stats  # noqa: E402
from perfbench.cluster import Cluster, peak_rss_mb  # noqa: E402
from perfbench.host import WINDOW_S, StealMonitor  # noqa: E402
from perfbench.iod_launcher import FIELDS  # noqa: E402
from perfbench.layers import LayerTotals, Tracer  # noqa: E402

SETUPS = 3              # set-ups per untraced run; setup_s is their median
WATCHDOG_S = 20.0       # an access running longer gets the cluster killed
EXTRA_S = 10.0          # extra time allowed to reach the sample minimum
KEEP_SPANS = 1          # accesses per strategy whose spans are written out
QUIET_STEAL = 0.02      # accesses in windows with more host steal are set aside
MB = 1e6

# Every process of a run gets the same allocator policy and string hashing.
# glibc's default mmap threshold moves with the allocation history, so one
# process can page-fault a fresh 16 MiB sieving buffer on every access while
# the next reuses its heap; that doubled sieving latency for whole runs.
# These settings hold glibc in the reuse mode, which is its usual steady state.
PINNED_ENV = {
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432"
                      ":glibc.malloc.trim_threshold=1073741824",
    "PYTHONHASHSEED": "0",
}

clock = time.perf_counter


class Watchdog:
    """Kills the cluster when an access outlives WATCHDOG_S, so the blocked
    client sees EOF and fails instead of hanging."""

    def __init__(self, cluster, limit: float = WATCHDOG_S):
        self.fired: str | None = None
        self._cluster = cluster
        self._limit = limit
        self._active: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def begin(self, key) -> None:
        self._active[key] = time.monotonic()

    def end(self, key) -> None:
        self._active.pop(key, None)

    def _watch(self) -> None:
        while not self._stop.wait(0.2):
            now = time.monotonic()
            for key, started in list(self._active.items()):
                if now - started > self._limit and self.fired is None:
                    self.fired = (f"client thread {key}: access ran past "
                                  f"{self._limit:g} s")
                    self._cluster.kill()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


class Fixture:
    """One set-up: a cluster, and per strategy a file, plans and sessions."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.handles: dict[str, int] = {}
        self.sessions: list[dict] = []
        self.watchdog: Watchdog | None = None

    def tear_down(self) -> dict:
        """Stop the cluster first, so no session call can block, then close."""
        if self.watchdog is not None:
            self.watchdog.close()
        final = self.cluster.stop()
        for sessions in self.sessions:
            for session in sessions.values():
                session.close()
        for slot_root in self.cluster.storage_roots.values():
            shutil.rmtree(slot_root, ignore_errors=True)
        return final


class Phase:
    """What the measuring loops collected, per strategy."""

    def __init__(self, strategies):
        self.intervals = {s: [] for s in strategies}  # (start, stop) per access
        self.server_messages = dict.fromkeys(strategies, 0)
        self.wire_bytes = dict.fromkeys(strategies, 0)
        self.useful = dict.fromkeys(strategies, 0)
        self.rounds = 0
        self.seconds = 0.0

    def usable(self, strategy, monitor=None) -> list:
        """Intervals of the accesses made while the host stole at most
        QUIET_STEAL of the CPU time (all of them without a monitor)."""
        spans = self.intervals[strategy]
        if monitor is None:
            return spans
        return [(a, b) for a, b in spans
                if monitor.steal_during(a, b) <= QUIET_STEAL]

    def least_disturbed(self, strategy, monitor, need) -> list:
        """The quiet accesses; when fewer than `need`, the `need` accesses
        whose windows saw the least steal (earliest first among equals)."""
        quiet = self.usable(strategy, monitor)
        if len(quiet) >= need:
            return quiet
        spans = self.intervals[strategy]
        ranked = sorted(range(len(spans)),
                        key=lambda i: (monitor.steal_during(*spans[i]), i))
        return [spans[i] for i in sorted(ranked[:need])]


class Bench:
    """One workload's run: the expected data, set-ups and measuring loops."""

    def __init__(self, shape, seed: int, run_dir: str):
        self.shape = shape
        self.run_dir = run_dir
        self.outcomes = stats.Outcomes()
        self.problems: list[str] = []
        self.threads = shape.threads
        self.pool = ThreadPoolExecutor(max_workers=shape.threads)
        self._setups = 0
        self._trace_ids = itertools.count(1)
        sizes = dict(shape.sizes)
        if shape.direction == "read":
            file_regions = shapes.cyclic_file_regions(**sizes)
            mem_regions = shapes.cyclic_mem_regions(**sizes)
            self.own = [{s: (mem_regions, file_regions) for s in shapes.STRATEGIES}]
            file_size = sizes["total_bytes"]
            self.image = shapes.stream(seed, shape.name, "file").randbytes(file_size)
            self.expected = shapes.expected_buffer(mem_regions, file_regions,
                                                   self.image)
            self.buffers = [bytearray(len(self.expected))]
            self.zeros = bytes(len(self.expected))
        else:
            per_slice = sizes["nb"] ** 3
            self.own = []
            for p in range(shape.threads):
                mem = shapes.flash_mem_regions(**sizes)
                file = shapes.flash_file_regions(proc_id=p, **sizes)
                self.own.append({"multiple": (mem[:per_slice], file[:1]),
                                 "list": (mem, file), "sieving": (mem, file)})
            nbytes = shapes.flash_buffer_bytes(**sizes)
            # Rounds alternate between two buffer versions, so each round's
            # file check sees that round's writes, not an earlier round's.
            self.versions = [
                [bytearray(shapes.stream(seed, shape.name, p, v).randbytes(nbytes))
                 for p in range(shape.threads)]
                for v in (0, 1)
            ]
            self.images = {
                s: [shapes.write_image(
                        [(own[s][1], shapes.gather(self.versions[v][p], own[s][0]))
                         for p, own in enumerate(self.own)])
                    for v in (0, 1)]
                for s in shapes.STRATEGIES
            }
        self.plan_bytes = {s: sum(n for _off, n in self.own[0][s][1])
                           for s in shapes.STRATEGIES}

    # -- set-up ----------------------------------------------------------

    def make_plans(self):
        """The program's plans, from listio_pfs.workloads."""
        from listio_pfs import AccessPlan, workloads

        sizes = self.shape.sizes
        if self.shape.direction == "read":
            plan = workloads.gen_cyclic(workloads.CyclicSpec(**sizes))
            return [dict.fromkeys(shapes.STRATEGIES, plan)]
        plans = []
        for p in range(self.threads):
            spec = workloads.FlashSpec(
                procs=sizes["procs"], proc_id=p, nblocks=sizes["nblocks"],
                nb=sizes["nb"], guard=sizes["guard"], nvars=sizes["nvars"],
                element_size=sizes["element_size"],
            )
            plan = workloads.gen_flash(spec)
            piece = AccessPlan(plan.mem[: spec.interior_elements], plan.file[:1])
            plans.append({"multiple": piece, "list": plan, "sieving": plan})
        return plans

    def set_up(self, traced: bool) -> tuple[Fixture, dict]:
        """Spawn a cluster, generate plans, create and fill one file per
        strategy, open sessions and run one warm-up access per strategy."""
        from listio_pfs import StripingParams, pvfs_create, pvfs_open, pvfs_write

        self._setups += 1
        run_dir = os.path.join(self.run_dir, f"setup{self._setups}")
        os.makedirs(run_dir)
        t0 = clock()
        cluster = Cluster(ROOT, run_dir, shapes.DAEMONS, traced=traced)
        fixture = Fixture(cluster)
        try:
            serve_s = cluster.start()
            fixture.watchdog = Watchdog(cluster)
            t_plan = clock()
            self.plans = self.make_plans()
            plan_s = clock() - t_plan
            striping = StripingParams(0, shapes.DAEMONS, shapes.SSIZE)
            for s in shapes.STRATEGIES:
                session = pvfs_create(cluster.manager_addr,
                                      f"{self.shape.name}-{s}", striping)
                try:
                    if self.shape.direction == "read":
                        view = memoryview(self.image)
                        for off in range(0, len(view), 4 << 20):
                            pvfs_write(session, off, view[off : off + (4 << 20)])
                    fixture.handles[s] = session.handle
                finally:
                    session.close()
            for _p in range(self.threads):
                fixture.sessions.append({
                    s: pvfs_open(cluster.manager_addr, f"{self.shape.name}-{s}")
                    for s in shapes.STRATEGIES
                })
            if not self.run_round(fixture, Phase(shapes.STRATEGIES), 0,
                                  warm_up=True):
                raise RuntimeError(f"warm-up access failed: "
                                   f"{self.outcomes.reasons[-1]}")
            setup_s = clock() - t0
        except BaseException:
            fixture.tear_down()
            raise
        self.check_plans()
        return fixture, {"setup_s": setup_s, "serve_start_s": serve_s,
                         "plan_s": plan_s}

    def check_plans(self) -> None:
        """The program's plans must match the benchmark's own region lists."""
        for p, plans in enumerate(self.plans):
            for s, plan in plans.items():
                mem, file = self.own[p][s]
                if ([tuple(r) for r in plan.mem] != mem
                        or [tuple(r) for r in plan.file] != file):
                    raise RuntimeError(
                        f"{s} plan of client {p} differs from the expected "
                        f"regions")

    # -- client threads ----------------------------------------------------

    def _client(self, fixture, strategy, p, count, version, barrier, tracer):
        """One client thread's closed loop: `count` accesses back to back.

        Returns (start, stop, metrics, error, mismatch, trace) per access;
        a raising access ends the loop.
        """
        import listio_pfs as pfs

        session = fixture.sessions[p][strategy]
        plan = self.plans[p][strategy]
        direction = self.shape.direction
        reading = direction == "read"
        buffer = self.buffers[p] if reading else self.versions[version][p]
        out = []
        barrier.wait(timeout=WATCHDOG_S)
        for _ in range(count):
            if reading:
                buffer[:] = self.zeros
            trace = tracer.begin(next(self._trace_ids)) if tracer else None
            fixture.watchdog.begin(p)
            metrics = error = mismatch = None
            t0 = clock()
            try:
                if strategy == "multiple":
                    metrics = pfs.access_multiple(session, plan, buffer, direction)
                elif strategy == "list":
                    metrics = pfs.access_list(session, plan, buffer, direction)
                elif reading:
                    metrics = pfs.access_sieving_read(session, plan, buffer)
                else:
                    metrics = pfs.access_sieving_write(session, plan, buffer)
            except Exception as exc:
                error = exc
            t1 = clock()
            fixture.watchdog.end(p)
            if trace is not None:
                tracer.end(trace, t0, t1)
            if reading and error is None:
                where = shapes.first_difference(buffer, self.expected)
                if where is not None:
                    mismatch = f"buffer differs at memory offset {where}"
            out.append((t0, t1, metrics, error, mismatch, trace))
            if error is not None:
                break
        return out

    def turn(self, fixture, strategy, count, version, phase, tracer=None,
             totals=None) -> bool:
        """Every client thread runs `count` accesses of one strategy; a
        write turn ends with the file check. Returns False when an access
        raised, which ends the run."""
        barrier = threading.Barrier(self.threads)
        futures = [
            self.pool.submit(self._client, fixture, strategy, p, count,
                             version, barrier, tracer)
            for p in range(self.threads)
        ]
        samples = [x for f in futures for x in f.result(timeout=4 * WATCHDOG_S)]
        alive = True
        ids = []
        for t0, t1, metrics, error, mismatch, trace in samples:
            access_id = self.outcomes.attempt()
            ids.append(access_id)
            if error is not None:
                why = fixture.watchdog.fired or repr(error)
                self.outcomes.fail(access_id, f"{strategy}: {why}")
                alive = False
                continue
            if metrics.useful_bytes != self.plan_bytes[strategy]:
                mismatch = f"useful_bytes {metrics.useful_bytes}"
            if mismatch is not None:
                self.outcomes.fail(access_id, f"{strategy}: {mismatch}")
                continue
            phase.intervals[strategy].append((t0, t1))
            phase.useful[strategy] += metrics.useful_bytes
            phase.server_messages[strategy] += metrics.server_messages
            phase.wire_bytes[strategy] += (metrics.wire_bytes_read
                                           + metrics.wire_bytes_written)
            if totals is not None:
                totals[strategy].add(trace)
        if alive and self.shape.direction == "write":
            self.check_file(fixture, strategy, version, ids)
        return alive

    def check_file(self, fixture, strategy, version, access_ids) -> None:
        """Rebuild the strategy's file from the stripe files and compare."""
        problem = checks.file_mismatch(fixture.cluster.storage_roots,
                                       fixture.handles[strategy],
                                       self.images[strategy][version])
        if problem is not None:
            for access_id in access_ids:
                self.outcomes.fail(access_id, f"{strategy}: {problem} after a "
                                   f"turn writing version {version}")

    def run_round(self, fixture, phase, round_no, tracer=None, totals=None,
                  warm_up=False) -> bool:
        """One turn per strategy, starting with a different one each round."""
        n = len(shapes.STRATEGIES)
        order = [shapes.STRATEGIES[(round_no + i) % n] for i in range(n)]
        count = 1 if warm_up else self.shape.per_round
        return all(self.turn(fixture, s, count, round_no % 2, phase, tracer,
                             totals)
                   for s in order)

    def measure(self, fixture, phase, until, need=0, monitor=None,
                tracer=None, totals=None) -> bool:
        """Interleaved rounds until the phase holds `until` seconds of
        measuring, and on for at most EXTRA_S until every strategy has
        `need` usable samples. Returns False when an access raised."""
        start = clock() - phase.seconds
        while True:
            alive = self.run_round(fixture, phase, phase.rounds + 1, tracer,
                                   totals)
            phase.rounds += 1
            phase.seconds = clock() - start
            if not alive:
                self.problems.append("an access raised; the run stopped")
                return False
            if phase.seconds >= until and (
                    phase.seconds >= until + EXTRA_S
                    or all(len(phase.usable(s, monitor)) >= need
                           for s in shapes.STRATEGIES)):
                return True

    # -- the two kinds of run ----------------------------------------------

    def run(self, seconds: int) -> dict:
        """Measure on SETUPS clusters in turn, seconds/SETUPS each, so that
        one cluster's placement on the host does not set the result."""
        phase = Phase(shapes.STRATEGIES)
        timings, server_rss = [], []
        monitor = StealMonitor()
        try:
            for k in range(1, SETUPS + 1):
                fixture, timing = self.set_up(traced=False)
                timings.append(timing)
                try:
                    alive = self.measure(
                        fixture, phase, seconds * k / SETUPS,
                        need=stats.min_samples(90) if k == SETUPS else 0,
                        monitor=monitor)
                    if alive:
                        server_rss.append(fixture.cluster.server_rss_mb())
                finally:
                    fixture.tear_down()
                if not alive:
                    break
            time.sleep(WINDOW_S * 1.5)  # let the last window close
        finally:
            monitor.close()
        return {
            "phase": phase,
            "monitor": monitor,
            "setup_s": [t["setup_s"] for t in timings],
            "server_rss_mb": server_rss,
        }

    def trace_run(self, seconds: int) -> dict:
        """Half the time untraced, half traced, each on its own cluster."""
        plain = Phase(shapes.STRATEGIES)
        fixture, plain_timing = self.set_up(traced=False)
        try:
            self.measure(fixture, plain, seconds / 2)
        finally:
            fixture.tear_down()
        tracer = Tracer()
        totals = {s: LayerTotals(KEEP_SPANS) for s in shapes.STRATEGIES}
        traced = Phase(shapes.STRATEGIES)
        fixture, _timing = self.set_up(traced=True)
        try:
            before = fixture.cluster.snapshot()
            tracer.install()
            try:
                self.measure(fixture, traced, seconds / 2, tracer=tracer,
                             totals=totals)
            finally:
                tracer.uninstall()
        finally:
            after = fixture.tear_down()
        return {"plain": plain, "traced": traced, "totals": totals,
                "daemon": daemon_rows(before, after),
                "handles": dict(fixture.handles), "timing": plain_timing}


def busy_seconds(intervals) -> float:
    """Length of the union of (start, stop) intervals: the time during
    which at least one access was in flight."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def daemon_rows(before: dict, after: dict) -> dict:
    """Per (handle, opcode) daemon counters between two dumps, summed over
    daemons."""

    rows: dict = {}
    for slot, final in after.items():
        start = before.get(slot, {})
        for key, row in final.items():
            handle, opcode = (int(x) for x in key.split(":"))
            base = start.get(key, {})
            out = rows.setdefault((handle, opcode), dict.fromkeys(FIELDS, 0))
            for name in FIELDS:
                out[name] += row[name] - base.get(name, 0)
    return {k: v for k, v in rows.items() if v["requests"]}


# -- metrics -----------------------------------------------------------------

def end_to_end(bench, result) -> tuple[dict, dict]:
    """Latency percentiles and MB/s over the accesses the host disturbed
    least: those made while it stole at most QUIET_STEAL of the CPU time,
    or, when fewer than the p90 minimum were, that many least-disturbed
    ones."""
    phase, monitor = result["phase"], result["monitor"]
    need = stats.min_samples(90)
    metrics, detail = {}, {"samples": {}}
    for s in shapes.STRATEGIES:
        spans = phase.least_disturbed(s, monitor, need)
        detail["samples"][s] = {"all": len(phase.intervals[s]),
                                "quiet": len(phase.usable(s, monitor)),
                                "used": len(spans)}
        latency = [b - a for a, b in spans]
        try:
            metrics[f"{s}.p50_ms"] = (stats.percentile(latency, 50) * 1e3, "ms")
            metrics[f"{s}.p90_ms"] = (stats.percentile(latency, 90) * 1e3, "ms")
        except ValueError as exc:
            bench.problems.append(f"{s}: {exc}")
            continue
        metrics[f"{s}.useful_MBps"] = (
            len(spans) * bench.plan_bytes[s] / busy_seconds(spans) / MB, "MB/s")
        all_latency = [b - a for a, b in phase.intervals[s]]
        detail[f"{s}.all_accesses_p50_ms"] = stats.median(all_latency) * 1e3
    metrics["setup_s"] = (stats.median(result["setup_s"]), "s")
    if result["server_rss_mb"]:  # empty when the watchdog killed the cluster
        metrics["server_rss_mb"] = (stats.median(result["server_rss_mb"]), "MiB")
    metrics["client_rss_mb"] = (peak_rss_mb(os.getpid()), "MiB")
    detail["setup_s_each"] = result["setup_s"]
    detail["rounds"] = phase.rounds
    detail["measured_s"] = phase.seconds
    detail["latency_ms"] = {s: [round((b - a) * 1e3, 4) for a, b in v]
                            for s, v in phase.intervals.items()}
    detail["steal"] = {s: [round(monitor.steal_during(a, b), 4) for a, b in v]
                       for s, v in phase.intervals.items()}
    return metrics, detail


def per_layer(bench, result) -> tuple[dict, dict]:
    """Per-access layer metrics, and the three-way count agreement table."""
    plain, traced = result["plain"], result["traced"]
    metrics, agreement = {}, {}
    for s in shapes.STRATEGIES:
        t = result["totals"][s]
        n = t.accesses
        if not n:
            bench.problems.append(f"{s}: no traced access completed")
            continue
        handle = result["handles"][s]
        row = checks.count_agreement(
            handle,
            {"server_messages": traced.server_messages[s],
             "wire_bytes": traced.wire_bytes[s],
             "useful_bytes": traced.useful[s],
             "plan_bytes": n * bench.plan_bytes[s]},
            t.wire, result["daemon"])
        agreement[s] = row
        if not row["agree"]:
            bench.problems.append(f"{s}: counts disagree: {row}")
        daemon = [r for (h, _op), r in result["daemon"].items() if h == handle]
        w_messages, w_bytes = row["wire.messages"], row["wire.payload_bytes"]
        d_requests = row["server.requests"]

        def total(field):
            return sum(r[field] for r in daemon)

        ms = 1e3 / n
        send = t.seconds["wire.send"] * ms
        wait = t.seconds["wire.wait"] * ms
        decode, service, reply = (total("decode_s") * ms, total("service_s") * ms,
                                  total("reply_s") * ms)
        regions_s, regions_calls = t.layer("regions.")
        sg_s, sg_calls = t.layer("client.scatter_gather")
        values = {
            "wire.messages": (w_messages / n, "count"),
            "wire.send_ms": (send, "ms"),
            "wire.wait_ms": (wait, "ms"),
            "wire.transit_ms": (wait - decode - service - reply, "ms"),
            "wire.bytes_per_useful": (w_bytes / (n * bench.plan_bytes[s]), "ratio"),
            "server.requests": (d_requests / n, "count"),
            "server.decode_ms": (decode, "ms"),
            "server.service_ms": (service, "ms"),
            "server.reply_ms": (reply, "ms"),
            "server.storage_ms": (total("storage_s") * ms, "ms"),
            "server.storage_calls": (total("storage_calls") / n, "count"),
            "client.scatter_gather_ms": (sg_s * ms, "ms"),
            "client.scatter_gather_calls": (sg_calls / n, "count"),
            "client.token_wait_ms": (t.seconds["client.token_wait"] * ms, "ms"),
            "client.self_ms": (t.self_seconds * ms, "ms"),
            "regions.ms": (regions_s * ms, "ms"),
            "regions.calls": (regions_calls / n, "count"),
        }
        try:
            values["trace_overhead"] = (
                stats.median([b - a for a, b in traced.intervals[s]])
                / stats.median([b - a for a, b in plain.intervals[s]]),
                "ratio")
        except ValueError as exc:
            bench.problems.append(f"{s}: {exc}")
        for name, value in values.items():
            metrics[f"{s}.{name}"] = value
    metrics["workloads.plan_ms"] = (result["timing"]["plan_s"] * 1e3, "ms")
    metrics["cli.serve_start_s"] = (result["timing"]["serve_start_s"], "s")
    return metrics, agreement


# -- provenance and output ----------------------------------------------------

def provenance(shape, seed: int, trace: int, seconds: int) -> dict:
    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.CalledProcessError):
            pass
    package = os.path.join(SRC, "listio_pfs")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                lines += f.read().count(b"\n")
    return {
        "git": git,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "src_listio_pfs_lines": lines,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "workload": shape.name,
        "direction": shape.direction,
        "client_threads": shape.threads,
        "accesses_per_strategy_per_round": shape.per_round,
        "sizes": shape.sizes,
    }


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "listio_pfs", "__init__.py")):
        print("error: src/listio_pfs not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import listio_pfs

    if not os.path.abspath(listio_pfs.__file__).startswith(SRC + os.sep):
        print(f"error: listio_pfs loaded from {listio_pfs.__file__}",
              file=sys.stderr)
        return 2
    shape = shapes.SHAPES.get(args.workload)
    if shape is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(shapes.SHAPES)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # The allocator reads its tunables at start-up: restart with them.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    signal.signal(signal.SIGTERM, _terminate)
    run_dir = os.path.join(
        ROOT, ".perfbench-runs",
        f"{time.strftime('%Y%m%d-%H%M%S')}-{shape.name}-s{args.seed}"
        f"-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    bench = Bench(shape, args.seed, run_dir)
    try:
        if args.trace:
            result = bench.trace_run(args.seconds)
            metrics, detail = per_layer(bench, result)
            spans = [span for t in result["totals"].values() for span in t.kept]
            with open(os.path.join(run_dir, "spans.json"), "w") as f:
                json.dump(spans, f)
            detail = {"agreement": detail}
        else:
            result = bench.run(args.seconds)
            metrics, detail = end_to_end(bench, result)
    finally:
        bench.pool.shutdown(wait=True)

    outcomes = bench.outcomes
    correct = outcomes.failed == 0 and not bench.problems
    report = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({**report, "error_rate": outcomes.error_rate,
                   "failures": outcomes.reasons[:50], "problems": bench.problems,
                   "provenance": provenance(shape, args.seed, args.trace,
                                            args.seconds),
                   **detail}, f, indent=1, default=str)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    if not args.trace:
        print("samples per strategy (used/quiet/all): " + ", ".join(
            f"{s}={n['used']}/{n['quiet']}/{n['all']}"
            for s, n in detail["samples"].items()))
    print(f"error_rate {outcomes.error_rate:.6f} "
          f"({outcomes.failed}/{outcomes.attempted}); "
          f"details in {os.path.relpath(run_dir, ROOT)}/result.json")
    for line in outcomes.reasons[:5] + bench.problems[:5]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
