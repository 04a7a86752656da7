"""Command-line driver: single solves and benchmark suites.

Exit codes: 0 optimal, 3 timeout, 4 infeasible, 2 usage error, 1 other
failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .bench import (append_record_csv, load_instance, record_from_report,
                    run_suite)
from .decompose import SourceEdgeFlow, columns_to_source_flows, decompose_all
from .engine import (ColGenSolver, SolverConfig, solve,
                     solve_direct_formulation)
from .errors import McflowError
from .instance import Instance

EXIT_OPTIMAL = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INFEASIBLE = 4

_STATUS_EXIT = {"optimal": EXIT_OPTIMAL, "timeout": EXIT_TIMEOUT,
                "infeasible": EXIT_INFEASIBLE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Minimum-cost multi-commodity flow solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("solve", help="solve one instance")
    run.add_argument("instance", help=".mcf file, or TNTP net file with --trips")
    run.add_argument("--trips", help="TNTP trips file")
    run.add_argument("--coefficient", type=float,
                     help="TNTP demand coefficient (demands are divided by it)")
    run.add_argument("--name", help="instance label for reports")
    run.add_argument("--formulation", default="tree",
                     choices=["tree", "path", "source-lp", "edge-lp"])
    run.add_argument("--tol", type=float, default=1e-4,
                     help="relative optimality tolerance")
    run.add_argument("--timeout", type=float, default=7200.0,
                     help="timeout in seconds")
    run.add_argument("--strategy", default="auto",
                     choices=["auto", "pricing-easy"],
                     help="both values run the one column generation loop")
    run.add_argument("--pricing", default="full",
                     choices=["full", "bounded", "astar"])
    run.add_argument("--backend", default="highs", choices=["highs", "builtin"])
    run.add_argument("--json", dest="json_file", help="write the RunRecord here")
    run.add_argument("--csv", dest="csv_file", help="append a CSV row here")
    run.add_argument("--decompose-flows", dest="flows_file",
                     help="write per-commodity path flows here")
    run.add_argument("--quiet", action="store_true")

    bench = sub.add_parser("bench", help="run a manifest of instances")
    bench.add_argument("manifest", help="JSON manifest file")
    bench.add_argument("--output-dir", required=True)
    return parser


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        formulation=args.formulation,
        rel_tol=args.tol,
        timeout_seconds=args.timeout,
        strategy=args.strategy,
        pricing_strategy=args.pricing,
        lp_backend=args.backend,
    )


def _solve_with_flows(instance: Instance, config: SolverConfig, want_flows: bool):
    """Solve and, when asked, also return the per-source edge flows."""
    if config.formulation in ("tree", "path"):
        if not want_flows:
            return solve(instance, config), None
        solver = ColGenSolver(instance, config)
        report = solver.run()
        flows = None
        if report.status == "optimal":
            master = solver.master
            flows = columns_to_source_flows(instance, master.columns, master.solution.x)
        return report, flows
    report, direct = solve_direct_formulation(instance, config)
    flows = None
    if want_flows and report.status == "optimal":
        owners = np.fromiter(direct.flows, dtype=np.int64)
        if config.formulation == "edge-lp":
            owners = instance.source[owners]
        sources, group = np.unique(owners, return_inverse=True)
        per_edge = np.array(list(direct.flows.values()))
        merged = np.zeros((sources.size, instance.network.edge_count))
        np.add.at(merged, group, np.where(per_edge > 1e-12, per_edge, 0.0))
        flows = SourceEdgeFlow({
            source: {e: float(row[e]) for e in np.flatnonzero(row).tolist()}
            for source, row in zip(sources.tolist(), merged)})
    return report, flows


def _write_flows(instance: Instance, flows: SourceEdgeFlow, path: str) -> float:
    """Decompose and dump per-commodity paths; returns the phase time."""
    t0 = time.perf_counter()
    routings = decompose_all(instance, flows)
    elapsed = time.perf_counter() - t0
    net = instance.network
    with open(path, "w") as f:
        f.write("# commodity amount node-path (1-based)\n")
        for r in routings:
            for edge_path, amount in r.paths:
                nodes = [int(net.tail[edge_path[0]]) + 1]
                nodes += [int(net.head[e]) + 1 for e in edge_path]
                f.write(f"{r.commodity} {float(amount)!r} " +
                        " ".join(map(str, nodes)) + "\n")
    return elapsed


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    instance = load_instance(args.instance, args.trips, args.coefficient,
                             args.name)
    report, flows = _solve_with_flows(instance, config,
                                      want_flows=bool(args.flows_file))
    record = record_from_report(instance, config, report)
    if not args.quiet:
        print(f"instance     {record.instance}  "
              f"(|V|={instance.network.node_count} |E|={instance.network.edge_count} "
              f"|K|={record.commodities} |S|={record.sources})")
        print(f"formulation  {record.formulation}  strategy {record.strategy}")
        print(f"status       {record.status}")
        if record.objective is not None:
            print(f"objective    {record.objective:.10g}")
        if record.lower_bound is not None:
            # A run stopped before its first feasible master has no gap.
            gap = "" if record.gap is None else f"  gap {record.gap:.3g}"
            print(f"lower bound  {record.lower_bound:.10g}{gap}")
        print(f"iterations   {record.iterations}  columns {record.columns_generated}"
              f"  active rows {record.rows_activated}")
        print(f"wall time    {record.wall_time_s:.3f}s  "
              f"peak rss {record.peak_memory_bytes / 1e6:.0f}MB")
        dropped = instance.meta.get("dropped_unreachable", 0)
        if dropped:
            print(f"note         {dropped} unreachable OD pairs were dropped "
                  "during parsing")
        if report.message:
            print(f"note         {report.message}")
    if args.flows_file and flows is not None:
        phase = _write_flows(instance, flows, args.flows_file)
        if not args.quiet:
            print(f"flow decomposition written to {args.flows_file} "
                  f"({phase:.3f}s, reported separately from solve time)")
    elif args.flows_file and not args.quiet:
        print(f"note         no flow file written to {args.flows_file}: "
              f"status {record.status}")
    if args.json_file:
        Path(args.json_file).write_text(record.to_json() + "\n")
    if args.csv_file:
        append_record_csv(record, args.csv_file)
    return _STATUS_EXIT.get(record.status, EXIT_ERROR)


def cmd_bench(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    base_dir = Path(args.manifest).parent
    records = run_suite(manifest, args.output_dir, base_dir=base_dir)
    solved = sum(1 for r in records if r.status == "optimal")
    print(f"{len(records)} runs, {solved} optimal; outputs in {args.output_dir}")
    return EXIT_OPTIMAL


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except McflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
