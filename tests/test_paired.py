"""The summary arithmetic of tools/paired.py, on canned perfbench results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parents[1] / "tools" / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

METRICS = [{"name": "list.p50_ms", "better": "lower"},
           {"name": "list.useful_MBps", "better": "higher"}]


def pair(parent: dict, change: dict) -> dict:
    return {"seed": 0, "first": "parent",
            "parent": {"metrics": parent}, "change": {"metrics": change}}


class TestQuartiles:
    def test_interpolates_between_order_statistics(self):
        assert paired.quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)
        assert paired.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
        assert paired.quartiles([7]) == (7, 7, 7)

    def test_no_values_is_an_error(self):
        with pytest.raises(ValueError):
            paired.quartiles([])


class TestSummarize:
    def test_sides_ratios_and_wins(self):
        pairs = [pair({"list.p50_ms": 10.0, "list.useful_MBps": 100.0},
                      {"list.p50_ms": 8.0, "list.useful_MBps": 125.0}),
                 pair({"list.p50_ms": 12.0, "list.useful_MBps": 80.0},
                      {"list.p50_ms": 9.0, "list.useful_MBps": 120.0}),
                 pair({"list.p50_ms": 10.0, "list.useful_MBps": 100.0},
                      {"list.p50_ms": 11.0, "list.useful_MBps": 90.0})]
        out = paired.summarize(pairs, METRICS)
        p50 = out["list.p50_ms"]
        assert (p50["pairs"], p50["wins"]) == (3, 2)
        assert p50["parent"] == {"n": 3, "median": 10.0, "q1": 10.0,
                                 "q3": 11.0, "iqr": 1.0}
        assert p50["change"]["median"] == 9.0
        assert p50["ratio"]["median"] == pytest.approx(0.8)
        assert p50["ratio"]["q1"] == pytest.approx(0.775)
        assert p50["ratio"]["q3"] == pytest.approx(0.95)
        mbps = out["list.useful_MBps"]
        assert mbps["wins"] == 2  # higher is better here
        assert mbps["ratio"]["median"] == pytest.approx(1.25)

    def test_a_pair_missing_a_metric_is_kept_but_never_a_win(self):
        pairs = [pair({"list.p50_ms": 10.0}, {}),
                 pair({"list.p50_ms": 10.0}, {"list.p50_ms": 5.0})]
        p50 = paired.summarize(pairs, METRICS)["list.p50_ms"]
        assert (p50["pairs"], p50["wins"]) == (2, 1)
        assert (p50["parent"]["n"], p50["change"]["n"], p50["ratio"]["n"]) == (
            2, 1, 1)
        assert paired.summarize(pairs, METRICS)["list.useful_MBps"] == {
            "better": "higher", "pairs": 2, "wins": 0, "parent": {"n": 0},
            "change": {"n": 0}, "ratio": {"n": 0}}


class TestRoom:
    def test_change_iqr_next_to_bound_times_parent_median(self):
        metrics = [dict(METRICS[0], bound=0.25), METRICS[1]]
        pairs = [pair({"list.p50_ms": p, "list.useful_MBps": 100.0},
                      {"list.p50_ms": c, "list.useful_MBps": 120.0})
                 for p, c in ((10.0, 5.0), (12.0, 6.0), (14.0, 9.0))]
        out = paired.summarize(pairs, metrics)
        # Change side 5, 6, 9: IQR 7.5 - 5.5; parent median 12.
        assert out["list.p50_ms"]["room"] == {"change_iqr": 2.0,
                                              "bound_x_parent_median": 3.0}
        assert "room" not in out["list.useful_MBps"]  # no bound given
        assert paired.room_lines("flash-write", out) == [
            "flash-write list.p50_ms: change IQR 2 vs bound x parent median 3"]

    def test_no_room_without_both_sides(self):
        metrics = [dict(METRICS[0], bound=0.25)]
        out = paired.summarize([pair({"list.p50_ms": 10.0}, {})], metrics)
        assert "room" not in out["list.p50_ms"]
        assert paired.room_lines("w", out) == []


class TestReadRun:
    def test_metrics_steal_and_quiet_counts(self, tmp_path):
        run_dir = tmp_path / ".perfbench-runs" / "r1"
        run_dir.mkdir(parents=True)
        (run_dir / "result.json").write_text(json.dumps({
            "steal": {"list": [0.0, 0.02], "multiple": [0.04]},
            "samples": {"list": {"all": 2, "quiet": 2, "used": 2},
                        "multiple": {"all": 1, "quiet": 0, "used": 1}}}))
        report = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"list.p50_ms": {"value": 9.5, "unit": "ms"}}}
        stdout = ("list.p50_ms    9.5 ms\n"
                  "error_rate 0.000000 (0/3); details in "
                  ".perfbench-runs/r1/result.json\n" + json.dumps(report))
        run = paired.read_run(stdout, str(tmp_path))
        assert run["metrics"] == {"list.p50_ms": 9.5}
        assert run["correct"] is True
        assert run["mean_steal"] == pytest.approx(0.02)
        assert run["quiet"] == {"list": 2, "multiple": 0}

    def test_a_run_with_no_result_line_has_no_metrics(self, tmp_path):
        run = paired.read_run("Traceback ...\n", str(tmp_path))
        assert run == {"metrics": {}, "mean_steal": None, "quiet": None}


class TestCpuProbe:
    def test_each_run_keeps_the_probe_taken_just_before_it(self, monkeypatch,
                                                           tmp_path):
        readings = iter([41.5, 47.25])
        calls = []
        monkeypatch.setattr(paired, "cpu_probe", lambda: next(readings))

        def fake_run(cmd, cwd, **kwargs):
            calls.append(cmd)
            report = {"correct": True,
                      "metrics": {"list.p50_ms": {"value": 9.5}}}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(report), "")

        monkeypatch.setattr(paired.subprocess, "run", fake_run)
        first = paired.perf_run(str(tmp_path), "cyclic-small", 7, 30)
        second = paired.perf_run(str(tmp_path), "cyclic-small", 8, 30)
        assert (first["cpu_probe_ms"], second["cpu_probe_ms"]) == (41.5, 47.25)
        assert first["metrics"] == {"list.p50_ms": 9.5} and len(calls) == 2

    def test_each_sides_probe_readings_are_summarised(self):
        pairs = [{"parent": {"cpu_probe_ms": p}, "change": {"cpu_probe_ms": c}}
                 for p, c in ((40.0, 44.0), (42.0, 41.0), (50.0, 43.0))]
        out = paired.probe_spread(pairs)
        assert out["parent"] == {"n": 3, "median": 42.0, "q1": 41.0,
                                 "q3": 46.0, "iqr": 5.0}
        assert out["change"]["median"] == 43.0 and out["change"]["n"] == 3

    def test_the_probe_times_a_loop_in_milliseconds(self):
        assert 0 < paired.cpu_probe() < 60_000


class TestTreeIds:
    def test_an_uncommitted_src_is_named_by_the_tree_it_commits_to(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        for d in ("src", "perfbench"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.py").write_text("x = 1\n")
        git("add", "-A")
        git("commit", "-qm", "parent")
        assert paired.checked_out_trees(str(tmp_path)) == {
            "src": git("rev-parse", "HEAD:src"),
            "perfbench": git("rev-parse", "HEAD:perfbench")}
        (tmp_path / "src" / "a.py").write_text("x = 2\n")
        (tmp_path / "src" / "new.py").write_text("y = 1\n")
        info = paired.tree_info(str(tmp_path))
        assert info["dirty"] and info["src_lines"] == 2
        assert info["trees"]["src"] != git("rev-parse", "HEAD:src")
        assert git("status", "--porcelain", "--", "src") == (
            "M src/a.py\n?? src/new.py")  # the checkout's index is untouched
        git("add", "-A")
        git("commit", "-qm", "change")
        assert info["trees"]["src"] == git("rev-parse", "HEAD:src")
