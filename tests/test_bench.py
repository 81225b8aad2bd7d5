import importlib
import os
import subprocess
import sys

import pytest

from listio_pfs import bench, cli
from listio_pfs.bench import (
    BenchConfig,
    CSV_COLUMNS,
    emit_report,
    launch_cluster,
    report_rows,
    run_matrix,
    verify_read_buffers,
    verify_write_stores,
)
from listio_pfs.client import AccessPlan, pvfs_create, pvfs_write
from listio_pfs.errors import BenchError
from listio_pfs.regions import RegionList, StripingParams


class TestLaunchCluster:
    def test_eight_daemons_registered(self, cluster):
        assert len(cluster.manager.roster) == 8

    def test_single_daemon_degenerate(self, tmp_path):
        with launch_cluster(servers=1, storage_root=str(tmp_path)) as c:
            assert len(c.manager.roster) == 1

    def test_busy_port_rejected(self, cluster):
        port = int(cluster.manager_addr.rsplit(":", 1)[1])
        with pytest.raises(OSError):
            launch_cluster(servers=1, manager_port=port)


class TestRunMatrix:
    def test_flash_list_two_procs(self, cluster):
        config = BenchConfig(
            workload="flash", strategies=("list",), clients=2, reps=1,
            verify=True, allow_sieving_writes=True, seed=3,
        )
        report = run_matrix(config, cluster)
        cell = report.cell("list")
        assert cell.per_client_logical_requests == 30
        assert cell.verified is True

    def test_tiled_multiple_six_clients(self, cluster):
        config = BenchConfig(
            workload="tiled", strategies=("multiple",), clients=6, reps=1,
            verify=True, seed=4,
        )
        report = run_matrix(config, cluster)
        cell = report.cell("multiple")
        assert cell.per_client_logical_requests == 768
        assert cell.verified is True

    def test_cyclic_list_one_full_batch(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("list",), clients=4,
            accesses=(64,), total_bytes=1 << 20, reps=1, verify=True, seed=5,
        )
        report = run_matrix(config, cluster)
        assert report.cell("list").per_client_logical_requests == 1
        assert report.cell("list").verified is True

    def test_runs_against_one_external_manager_do_not_collide(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("list", "multiple"), clients=2,
            accesses=(8,), total_bytes=1 << 14, reps=1, verify=True, seed=6,
            external_manager=cluster.manager_addr,
        )
        for _ in range(2):
            importlib.reload(bench)  # as in a new process
            report = bench.run_matrix(config)
            assert report.cell("list").verified is True

    def test_sieving_writes_need_the_flag(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("sieving",), clients=2,
            accesses=(8,), total_bytes=1 << 16, direction="write", reps=1,
        )
        with pytest.raises(BenchError):
            run_matrix(config, cluster)

    def test_tiled_writes_rejected(self, cluster):
        config = BenchConfig(
            workload="tiled", strategies=("multiple",), clients=6,
            direction="write", reps=1,
        )
        with pytest.raises(BenchError):
            run_matrix(config, cluster)

    def test_deterministic_apart_from_elapsed(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("multiple", "list"), clients=2,
            accesses=(16,), total_bytes=1 << 16, reps=2, verify=True, seed=6,
        )
        rows_a = report_rows(run_matrix(config, cluster))
        rows_b = report_rows(run_matrix(config, cluster))

        def strip_elapsed(rows):
            out = []
            for row in rows:
                cols = row.split(",")
                del cols[11]  # elapsed_us
                out.append(",".join(cols))
            return out

        assert strip_elapsed(rows_a) == strip_elapsed(rows_b)


class TestVerify:
    def test_corrupted_stripe_fails_at_offset(self, cluster, unique_name):
        sp = StripingParams(0, 8, 16384)
        name = unique_name("corrupt")
        session = pvfs_create(cluster.manager_addr, name, sp)
        image = bytes(range(256)) * 256  # 64 KiB
        pvfs_write(session, 0, image)
        handle = session.handle
        session.close()
        ok, _ = verify_write_stores(cluster.storage_roots, handle, sp, image)
        assert ok
        # flip one byte in the stripe that holds global offset 20000
        from listio_pfs.regions import stripe_location

        target = 20000
        slot, local = stripe_location(target, sp)
        path = os.path.join(cluster.storage_roots[slot], f"{handle}.stripe")
        with open(path, "r+b") as f:
            f.seek(local)
            original = f.read(1)
            f.seek(local)
            f.write(bytes([original[0] ^ 0xFF]))
        ok, detail = verify_write_stores(cluster.storage_roots, handle, sp, image)
        assert not ok
        assert f"offset {target}" in detail

    def test_empty_plan_vacuous_pass(self):
        plan = AccessPlan(RegionList(), RegionList())
        ok, detail = verify_read_buffers([plan], [bytearray(0)], b"")
        assert ok and detail is None

    def test_read_buffer_divergence_reported(self):
        plan = AccessPlan(RegionList([(0, 4)]), RegionList([(8, 4)]))
        image = bytes(16)
        good = bytearray(4)
        ok, _ = verify_read_buffers([plan], [good], image)
        assert ok
        bad = bytearray(b"\x00\x01\x00\x00")
        ok, detail = verify_read_buffers([plan], [bad], image)
        assert not ok and "client 0" in detail


class TestReport:
    def _small_report(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("multiple",), clients=2,
            accesses=(8,), total_bytes=1 << 16, reps=3, verify=True, seed=7,
        )
        return run_matrix(config, cluster)

    def test_header_and_row_count(self, cluster, tmp_path):
        report = self._small_report(cluster)
        path = tmp_path / "out.csv"
        emit_report(report, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        # one cell: three rep rows plus one mean row
        assert len(lines) == 1 + len(report.cells) * (3 + 1)
        assert lines[1].startswith("cyclic,multiple,2,8,1,")
        assert lines[4].startswith("cyclic,multiple,2,8,mean,")

    def test_reemit_identical(self, cluster, tmp_path):
        report = self._small_report(cluster)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, str(a))
        emit_report(report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_append_mode(self, cluster, tmp_path):
        report = self._small_report(cluster)
        path = tmp_path / "acc.csv"
        emit_report(report, str(path), append=True)
        emit_report(report, str(path), append=True)
        lines = path.read_text().splitlines()
        assert lines.count(CSV_COLUMNS) == 1
        assert len(lines) == 1 + 2 * len(report.cells) * 4


class TestCli:
    def test_verify_counts(self, capsys):
        assert cli.main(["verify-counts"]) == 0
        out = capsys.readouterr().out
        assert "983040" in out.replace(",", "")
        assert "= 30" in out
        assert "= 12" in out
        assert "10695168" in out

    def test_importing_cli_leaves_the_harness_unloaded(self):
        # Every `serve` process imports cli; only `bench` needs the harness.
        probe = "import sys, listio_pfs.cli; print('listio_pfs.bench' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"

    def test_bench_cli_runs_and_writes_csv(self, tmp_path, capsys):
        csv = tmp_path / "cli.csv"
        code = cli.main([
            "bench", "--workload", "cyclic", "--strategy", "multiple,list",
            "--clients", "2", "--servers", "2", "--accesses", "16",
            "--total-bytes", "65536", "--reps", "1", "--verify",
            "--seed", "1", "--csv", str(csv),
        ])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert any(",pass" in line for line in lines[1:])


@pytest.mark.slow
class TestExternalProcesses:
    def _spawn(self, args):
        return subprocess.Popen(
            [sys.executable, "-m", "listio_pfs.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def test_external_cluster_over_real_sockets(self, tmp_path):
        procs = []
        try:
            manager = self._spawn(["serve", "--role", "manager",
                                   "--addr", "127.0.0.1:0"])
            procs.append(manager)
            line = manager.stdout.readline()
            assert "manager listening on" in line
            manager_addr = line.strip().rsplit(" ", 1)[1]
            for i in range(2):
                iod = self._spawn([
                    "serve", "--role", "iod", "--addr", "127.0.0.1:0",
                    "--storage-root", str(tmp_path / f"iod{i}"),
                    "--manager", manager_addr,
                ])
                procs.append(iod)
                assert "iod listening on" in iod.stdout.readline()
            result = subprocess.run(
                [sys.executable, "-m", "listio_pfs.cli", "bench",
                 "--workload", "cyclic", "--strategy", "multiple,sieving,list",
                 "--clients", "2", "--servers", "2", "--accesses", "32",
                 "--total-bytes", "65536", "--reps", "1", "--verify",
                 "--external-cluster", manager_addr],
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            assert "fail" not in result.stdout
        finally:
            for p in procs:
                p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait()
                p.stdout.close()
