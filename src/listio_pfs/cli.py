"""Command-line entry points: serve, bench, verify-counts."""

from __future__ import annotations

import argparse
import sys
import threading

from . import workloads
from .errors import PfsError
from .regions import batch_regions, count_transfer_pieces
from .server import IoDaemon, Manager, parse_addr


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listio-pfs",
        description="Miniature striped parallel file system and noncontiguous "
                    "I/O benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a manager or I/O daemon")
    serve.add_argument("--role", choices=("manager", "iod"), required=True)
    serve.add_argument("--addr", required=True, metavar="HOST:PORT")
    serve.add_argument("--storage-root", default="listio-pfs-data",
                       help="stripe storage directory (iod role)")
    serve.add_argument("--manager", metavar="HOST:PORT",
                       help="manager to register with (iod role)")

    run = sub.add_parser("bench", help="run a benchmark matrix and print its CSV")
    run.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    run.add_argument("--strategy", default="multiple,sieving,list",
                     help="comma-separated subset of multiple,sieving,list")
    run.add_argument("--clients", type=int, default=8)
    run.add_argument("--servers", type=int, default=8)
    run.add_argument("--accesses", type=_parse_int_list, default=None,
                     metavar="A[,A...]",
                     help="per-client access counts (cyclic only)")
    run.add_argument("--total-bytes", type=int, default=64 * 2**20)
    run.add_argument("--direction", choices=("read", "write"), default=None,
                     help="defaults to write for flash, read otherwise")
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--flash-blocks", type=int, default=80)
    run.add_argument("--external-cluster", metavar="HOST:PORT",
                     help="use a running manager instead of launching one")

    sub.add_parser("verify-counts",
                   help="check the analytic request counts against the planner")
    return parser


def _cmd_serve(args) -> int:
    host, port = parse_addr(args.addr)
    if args.role == "manager":
        node = Manager(host, port)
        node.start()
        print(f"manager listening on {node.address}", flush=True)
    else:
        node = IoDaemon(args.storage_root, host, port, manager_addr=args.manager)
        node.start()
        where = (f", registered with {args.manager} as slot {node.slot}"
                 if args.manager else "")
        print(f"iod listening on {node.address}{where}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        node.stop()
    return 0


def _cmd_bench(args) -> int:
    # Imported here so that `serve` processes do not load the harness.
    from . import bench

    config = bench.BenchConfig(
        workload=args.workload,
        strategies=tuple(args.strategy.split(",")),
        clients=args.clients,
        servers=args.servers,
        accesses=args.accesses,
        total_bytes=args.total_bytes,
        direction=args.direction,
        reps=args.reps,
        seed=args.seed,
        flash_blocks=args.flash_blocks,
        external_manager=args.external_cluster,
    )
    report = bench.run_matrix(config)
    print(bench.CSV_COLUMNS)
    for row in bench.report_rows(report):
        print(row)
    if not report.all_verified:
        for cell in report.cells:
            if not cell.verified:
                print(f"VERIFY FAIL {cell.strategy}: {cell.failure}",
                      file=sys.stderr)
        return 1
    return 0


def _cmd_verify_counts() -> int:
    """Print the analytic counts; exit 1 if the planner disagrees with one."""
    flash = workloads.FlashSpec(procs=1, proc_id=0)
    tiled = workloads.TiledSpec(tile_x=0, tile_y=0)
    agree = True
    for spec, counts in ((flash, workloads.flash_counts(flash)),
                         (tiled, workloads.tiled_counts(tiled))):
        plan = spec.generate()
        file = plan.file
        planned = {"file_regions": len(file), "plan_bytes": file.total_length,
                   "multiple_requests": count_transfer_pieces(plan.mem, file),
                   "list_requests": len(batch_regions(file))}
        print(spec)
        for key, value in counts.items():
            got = planned.get(key, value)
            agree = agree and got == value
            print(f"  {key:<17} = {value}"
                  + ("" if got == value else f"  but the planner gives {got}"))
    return 0 if agree else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "verify-counts":
            return _cmd_verify_counts()
    except PfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
