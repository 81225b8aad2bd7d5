import importlib
import os
import subprocess
import sys
import tempfile

import pytest

from listio_pfs import bench, cli, workloads
from listio_pfs.bench import (
    BenchConfig,
    CSV_COLUMNS,
    launch_cluster,
    report_rows,
    run_matrix,
    verify_read_buffers,
    verify_write_stores,
)
from listio_pfs.client import AccessPlan, pvfs_create, pvfs_write
from listio_pfs.errors import BenchError
from listio_pfs.regions import RegionList, StripingParams
from listio_pfs.server import IoDaemon

from oracles import per_client_logical_requests


class TestLaunchCluster:
    def test_eight_daemons_registered(self, cluster):
        assert len(cluster.manager.roster) == 8

    def test_single_daemon_degenerate(self, tmp_path):
        with launch_cluster(servers=1, storage_root=str(tmp_path)) as c:
            assert len(c.manager.roster) == 1

    def test_a_failed_start_removes_the_storage_root_it_made(self, tmp_path,
                                                              monkeypatch):
        # The cluster's own root is made under tmp_path; the second daemon
        # fails as a refused registration does, stopped and raising.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        started = []
        start = IoDaemon.start

        def failing_start(daemon):
            start(daemon)
            started.append(daemon)
            if len(started) == 2:
                daemon.stop()
                raise OSError("injected start failure")

        monkeypatch.setattr(IoDaemon, "start", failing_start)
        with pytest.raises(OSError, match="injected"):
            launch_cluster(servers=3)
        assert len(started) == 2
        assert list(tmp_path.iterdir()) == []


class TestRunMatrix:
    def test_flash_list_two_procs(self, cluster):
        config = BenchConfig(
            workload="flash", strategies=("list",), clients=2, reps=1, seed=3,
        )
        report = run_matrix(config, cluster)
        cell = report.cell("list")
        assert per_client_logical_requests(cell) == 30
        assert cell.verified is True

    def test_tiled_multiple_six_clients(self, cluster):
        config = BenchConfig(
            workload="tiled", strategies=("multiple",), clients=6, reps=1, seed=4,
        )
        report = run_matrix(config, cluster)
        cell = report.cell("multiple")
        assert per_client_logical_requests(cell) == 768
        assert cell.verified is True

    def test_cyclic_list_one_full_batch(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("list",), clients=4,
            accesses=(64,), total_bytes=1 << 20, reps=1, seed=5,
        )
        report = run_matrix(config, cluster)
        assert per_client_logical_requests(report.cell("list")) == 1
        assert report.cell("list").verified is True

    def test_runs_against_one_external_manager_do_not_collide(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("list", "multiple"), clients=2,
            accesses=(8,), total_bytes=1 << 14, reps=1, seed=6,
            external_manager=cluster.manager_addr,
        )
        for _ in range(2):
            importlib.reload(bench)  # as in a new process
            report = bench.run_matrix(config)
            assert report.cell("list").verified is True

    def test_cyclic_sieving_write_verifies(self, cluster):
        # One window each: a tokened read-modify-write is two requests.
        config = BenchConfig(
            workload="cyclic", strategies=("sieving",), clients=2,
            accesses=(8,), total_bytes=1 << 16, direction="write", reps=1,
        )
        cell = run_matrix(config, cluster).cell("sieving")
        assert per_client_logical_requests(cell) == 2
        assert cell.verified is True

    def test_flash_external_manager_writes_verify_by_readback(self, cluster):
        # No stripe-store access: every write cell is read back and compared.
        config = BenchConfig(
            workload="flash", clients=2, flash_blocks=1, reps=1, seed=8,
            external_manager=cluster.manager_addr,
        )
        report = run_matrix(config)
        assert [c.strategy for c in report.cells] == list(bench.STRATEGIES)
        assert all(c.verified is True for c in report.cells)

    def test_tiled_writes_rejected(self, cluster):
        config = BenchConfig(
            workload="tiled", strategies=("multiple",), clients=6,
            direction="write", reps=1,
        )
        with pytest.raises(BenchError):
            run_matrix(config, cluster)

    @pytest.mark.parametrize("workload,clients,implied", [("tiled", 4, 6)])
    def test_client_count_must_match_the_workload(self, cluster, workload,
                                                  clients, implied):
        config = BenchConfig(workload=workload, clients=clients,
                             total_bytes=1 << 20, reps=1)
        with pytest.raises(BenchError, match=f"workload implies {implied} "
                                             f"clients, config says {clients}"):
            run_matrix(config, cluster)

    def test_deterministic_apart_from_elapsed(self, cluster):
        config = BenchConfig(
            workload="cyclic", strategies=("multiple", "list"), clients=2,
            accesses=(16,), total_bytes=1 << 16, reps=2, seed=6,
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

    def test_readback_reports_first_differing_offset(self, cluster,
                                                     unique_name):
        name = unique_name("readback")
        session = pvfs_create(cluster.manager_addr, name, StripingParams(0, 8))
        image = bytes(range(256)) * 256  # 64 KiB, across four stripes
        pvfs_write(session, 0, image)
        session.close()
        assert bench._verify_write_readback(cluster.manager_addr, name,
                                            image) == (True, None)
        wrong = bytearray(image)
        wrong[40000] ^= 0xFF
        ok, detail = bench._verify_write_readback(cluster.manager_addr, name,
                                                  wrong)
        assert not ok
        assert "offset 40000" in detail

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
            accesses=(8,), total_bytes=1 << 16, reps=3, seed=7,
        )
        return run_matrix(config, cluster)

    def test_header_and_row_count(self, cluster):
        rows = report_rows(self._small_report(cluster))
        # one cell: three rep rows plus one mean row
        assert len(rows) == 3 + 1
        for rep, row in zip(("1", "2", "3", "mean"), rows):
            assert row.startswith(f"cyclic,multiple,2,8,{rep},")
            assert len(row.split(",")) == len(CSV_COLUMNS.split(","))

    def test_reemit_identical(self, cluster):
        report = self._small_report(cluster)
        assert report_rows(report) == report_rows(report)

    def test_append_mode(self, cluster):
        # Rows carry no header, so two runs' rows join under one header.
        first = report_rows(self._small_report(cluster))
        second = report_rows(self._small_report(cluster))
        lines = [CSV_COLUMNS] + first + second
        assert lines.count(CSV_COLUMNS) == 1
        assert len(lines) == 1 + 2 * 4


class TestCli:
    def test_verify_counts(self, capsys):
        assert cli.main(["verify-counts"]) == 0
        out = capsys.readouterr().out
        assert "983040" in out.replace(",", "")
        assert "= 30" in out
        assert "= 12" in out
        assert "10695168" in out

    def test_verify_counts_fails_when_the_planner_disagrees(self, monkeypatch,
                                                           capsys):
        flash_counts = workloads.flash_counts
        monkeypatch.setattr(workloads, "flash_counts", lambda spec: dict(
            flash_counts(spec), list_requests=31))
        # test_verify_counts walks the 983,040 flash pieces; here the
        # analytic count stands in for that walk, and tiled's is walked.
        flash = workloads.FlashSpec(procs=1, proc_id=0)
        walk = cli.count_transfer_pieces
        monkeypatch.setattr(cli, "count_transfer_pieces", lambda mem, file: (
            flash.mem_region_count if len(file) == flash.file_region_count
            else walk(mem, file)))
        assert cli.main(["verify-counts"]) == 1
        out = capsys.readouterr().out
        assert "list_requests     = 31  but the planner gives 30" in out
        assert "list_requests     = 12\n" in out  # tiled still agrees

    def test_importing_cli_leaves_the_harness_unloaded(self):
        # Every `serve` process imports cli; only `bench` needs the harness.
        probe = "import sys, listio_pfs.cli; print('listio_pfs.bench' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"

    def test_importing_cli_leaves_the_client_unloaded(self):
        # The manager and the daemons run under cli; only clients need it.
        probe = "import sys, listio_pfs.cli; print('listio_pfs.client' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"

    def test_bench_cli_runs_and_writes_csv(self, capsys):
        code = cli.main([
            "bench", "--workload", "cyclic", "--strategy", "multiple,list",
            "--clients", "2", "--servers", "2", "--accesses", "16",
            "--total-bytes", "65536", "--reps", "1", "--seed", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_COLUMNS
        assert any(",pass" in line for line in lines[1:])

    def test_bench_cli_flash_runs_every_strategy_by_default(self, capsys):
        code = cli.main([
            "bench", "--workload", "flash", "--clients", "2", "--servers", "2",
            "--flash-blocks", "1", "--reps", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for strategy in ("multiple", "sieving", "list"):
            assert f"flash,{strategy},2,-,mean," in out

    @pytest.mark.parametrize("workload", ["flash", "tiled"])
    def test_bench_cli_refuses_access_counts_on_a_fixed_shape(
            self, capsys, monkeypatch, workload):
        # The pattern ignores the count, so each count would rerun one cell.
        monkeypatch.setattr(bench, "launch_cluster",
                            lambda *args: pytest.fail("a cluster started"))
        code = cli.main(["bench", "--workload", workload,
                         "--accesses", "64,128", "--reps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--servers", "--reps"])
    def test_bench_cli_zero_count_is_an_error(self, capsys, flag):
        code = cli.main([
            "bench", "--workload", "cyclic", "--strategy", "list",
            "--accesses", "64", "--total-bytes", "1048576", flag, "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_cli_more_servers_than_the_cluster_has_is_an_error(
            self, tmp_path, capsys):
        with launch_cluster(servers=2, storage_root=str(tmp_path)) as c:
            code = cli.main([
                "bench", "--workload", "cyclic", "--strategy", "list",
                "--clients", "2", "--servers", "8", "--accesses", "8",
                "--total-bytes", "16384", "--reps", "1",
                "--external-cluster", c.manager_addr,
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "striping wants 8 servers but only 2 registered" in err


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
                 "--total-bytes", "65536", "--reps", "1",
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
