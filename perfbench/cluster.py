"""A multi-process cluster: one manager and N I/O daemons, each started as
`python -m listio_pfs.cli serve`, under a fresh storage root.

Traced daemons go through perfbench.iod_launcher, which installs the
daemon-side wrappers and then runs the same `serve` entry point.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

READY_TIMEOUT = 30.0
STOP_TIMEOUT = 5.0


class ClusterError(RuntimeError):
    pass


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ClusterError(f"no VmHWM for pid {pid}")


class _Proc:
    def __init__(self, argv, env, log_path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        try:
            self.popen = subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE, stderr=self._log,
            )
        except BaseException:
            self._log.close()
            raise
        self._buf = b""

    def ready_line(self, deadline: float) -> str:
        """First stdout line, which `serve` prints once it is listening
        (and, for a daemon, registered)."""
        fd = self.popen.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ClusterError(f"no ready line; see {self.log_path}")
            readable, _, _ = select.select([fd], [], [], left)
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ClusterError(
                        f"exited with {self.popen.wait()} before it was "
                        f"ready; see {self.log_path}"
                    )
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode()

    def signal(self, signum) -> None:
        if self.popen.poll() is None:
            try:
                self.popen.send_signal(signum)
            except ProcessLookupError:
                pass

    def reap(self) -> None:
        try:
            self.popen.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
        self.popen.stdout.close()
        self._log.close()


class Cluster:
    """Manager plus daemons; slot i stores its stripes under storage_roots[i]."""

    def __init__(self, root_dir: str, run_dir: str, daemons: int,
                 traced: bool = False):
        self.run_dir = run_dir
        self.traced = traced
        self.daemons = daemons
        self.manager_addr = ""
        self.storage_roots: dict[int, str] = {}
        self._procs: list[_Proc] = []
        self._counters: dict[int, tuple[_Proc, str]] = {}
        self._dumps = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root_dir, "src"), root_dir]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._env = env

    def _spawn(self, argv, log_name) -> _Proc:
        proc = _Proc(argv, self._env, os.path.join(self.run_dir, log_name))
        self._procs.append(proc)
        return proc

    def start(self) -> float:
        """Spawn, wait until every daemon has registered; returns seconds."""
        t0 = time.perf_counter()
        deadline = time.monotonic() + READY_TIMEOUT
        serve = ["serve", "--addr", "127.0.0.1:0"]
        manager = self._spawn(
            [sys.executable, "-m", "listio_pfs.cli", *serve, "--role", "manager"],
            "manager.log",
        )
        line = manager.ready_line(deadline)
        if not line.startswith("manager listening on "):
            raise ClusterError(f"unexpected manager line {line!r}")
        self.manager_addr = line.rsplit(" ", 1)[1]
        pending = []
        for i in range(self.daemons):
            root = os.path.join(self.run_dir, f"iod{i}")
            argv = [*serve, "--role", "iod", "--storage-root", root,
                    "--manager", self.manager_addr]
            counters = os.path.join(self.run_dir, f"iod{i}.counters")
            if self.traced:
                argv = ["-m", "perfbench.iod_launcher", "--counters", counters,
                        "--", *argv]
            else:
                argv = ["-m", "listio_pfs.cli", *argv]
            proc = self._spawn([sys.executable, *argv], f"iod{i}.log")
            pending.append((proc, root, counters))
        for proc, root, counters in pending:
            line = proc.ready_line(deadline)
            if " as slot " not in line:
                raise ClusterError(f"daemon did not register: {line!r}")
            slot = int(line.rsplit(" ", 1)[1])
            self.storage_roots[slot] = root
            if self.traced:
                self._counters[slot] = (proc, counters)
        if sorted(self.storage_roots) != list(range(self.daemons)):
            raise ClusterError(f"roster slots {sorted(self.storage_roots)}")
        return time.perf_counter() - t0

    def server_rss_mb(self) -> float:
        return sum(peak_rss_mb(p.popen.pid) for p in self._procs)

    def snapshot(self) -> dict[int, dict]:
        """Ask every traced daemon for its counters and wait for them."""
        self._dumps += 1
        for proc, _path in self._counters.values():
            proc.signal(signal.SIGUSR1)
        return {slot: _wait_json(f"{path}.{self._dumps}")
                for slot, (_proc, path) in self._counters.items()}

    def kill(self) -> None:
        """Watchdog path: SIGKILL everything so blocked clients see EOF."""
        for proc in self._procs:
            proc.signal(signal.SIGKILL)

    def stop(self) -> dict[int, dict]:
        """Stop and reap every process. Returns traced daemons' final
        counters, which each writes on a clean exit.

        SIGTERM, not SIGINT: a shell starting a background job makes it
        ignore SIGINT, and the children inherit that.
        """
        for proc in reversed(self._procs):
            proc.signal(signal.SIGTERM)
        for proc in self._procs:
            proc.reap()
        self._procs.clear()
        final = {}
        for slot, (_proc, path) in self._counters.items():
            if os.path.exists(path):
                with open(path) as f:
                    final[slot] = json.load(f)
        return final


def _wait_json(path: str, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise ClusterError(f"daemon counters {path} never appeared")
        time.sleep(0.002)
    with open(path) as f:
        return json.load(f)
