"""Run records and the benchmark harness CSV outputs.

The suite CSV holds one :class:`RunRecord` per (instance, formulation)
run; from it the harness derives the performance-profile, cactus,
scatter, and heatmap tables that back the usual solver-comparison
figures. Peak memory is best-effort process-level RSS and is not
comparable across machines or solvers.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import resource
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .engine import ColGenSolver, SolveReport, SolverConfig, solve
from .errors import McflowError, ParseError
from .instance import TNTP_COEFFICIENTS, Instance, parse_native, parse_tntp

log = logging.getLogger(__name__)

CSV_HEADER = [
    "instance", "formulation", "strategy", "status", "objective",
    "lower_bound", "gap", "wall_time_s", "peak_memory_bytes", "iterations",
    "columns_generated", "rows_activated", "commodities", "sources",
]


@dataclass
class RunRecord:
    """One benchmark run, as written to the suite CSV."""

    instance: str
    formulation: str
    strategy: str
    status: str
    objective: float | None
    lower_bound: float | None
    gap: float | None
    wall_time_s: float
    peak_memory_bytes: int
    iterations: int
    columns_generated: int
    rows_activated: int
    commodities: int
    sources: int

    def to_csv_row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)
        return [fmt(getattr(self, f.name)) for f in fields(self)]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "RunRecord":
        def opt_float(s):
            return None if s == "" else float(s)
        return cls(
            instance=row[0], formulation=row[1], strategy=row[2], status=row[3],
            objective=opt_float(row[4]), lower_bound=opt_float(row[5]),
            gap=opt_float(row[6]), wall_time_s=float(row[7]),
            peak_memory_bytes=int(row[8]), iterations=int(row[9]),
            columns_generated=int(row[10]), rows_activated=int(row[11]),
            commodities=int(row[12]), sources=int(row[13]),
        )

    def to_json(self) -> str:
        payload = asdict(self)
        for key in ("objective", "lower_bound", "gap"):
            v = payload[key]
            if v is not None and not math.isfinite(v):
                payload[key] = None
        return json.dumps(payload, indent=2)


def peak_memory_bytes() -> int:
    """Best-effort peak RSS of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def record_from_report(instance: Instance, config: SolverConfig,
                       report: SolveReport) -> RunRecord:
    def clean(v):
        return None if v is None or not math.isfinite(v) else float(v)
    columns = report.peak_columns
    # Tree and path runs all take the one column generation loop.
    strategy = ColGenSolver.strategy if config.formulation in ("tree", "path") \
        else config.strategy
    return RunRecord(
        instance=instance.name or "<unnamed>",
        formulation=config.formulation,
        strategy=strategy,
        status=report.status,
        objective=clean(report.objective),
        lower_bound=clean(report.lower_bound),
        gap=clean(report.gap),
        wall_time_s=report.wall_time,
        peak_memory_bytes=peak_memory_bytes(),
        iterations=report.iteration_count,
        columns_generated=columns,
        rows_activated=report.active_rows,
        commodities=instance.commodity_count,
        sources=instance.source_count,
    )


def load_instance(path: str | Path, trips: str | Path | None = None,
                  coefficient: float | None = None,
                  name: str | None = None) -> Instance:
    """Load a native ``.mcf`` file, or a TNTP pair when ``trips`` is given.

    A missing TNTP coefficient falls back to the bundled table of
    published values, keyed by the instance label.
    """
    path = Path(path)
    label = name or path.stem.removesuffix("_net")
    if trips is not None:
        if coefficient is None:
            coefficient = TNTP_COEFFICIENTS.get(label)
        if coefficient is None:
            raise ParseError(f"TNTP input needs a demand coefficient and "
                             f"{label!r} has no bundled value")
        with open(path) as net_f, open(trips) as trips_f:
            return parse_tntp(net_f, trips_f, coefficient, name=label)
    with open(path) as f:
        return parse_native(f, name=label)


# ---------------------------------------------------------------------------
# Suite driver and derived CSVs
# ---------------------------------------------------------------------------

def run_suite(manifest: dict, output_dir: str | Path,
              base_dir: str | Path = ".") -> list[RunRecord]:
    """Run every instance x formulation pair of a manifest.

    Manifest layout::

        {
          "instances": [{"path": ..., "trips": ..., "coefficient": ...,
                         "name": ...}, ...],
          "formulations": ["tree", "path", ...],
          "tol": 1e-4, "timeout": 7200.0, "strategy": "auto",
          "pricing": "full", "backend": "highs"
        }

    ``strategy`` may be ``auto`` or ``pricing-easy``; both run the one
    column generation loop, and tree and path records name it
    ``pricing-easy``. Other keys, such as the ``heuristic`` of older
    manifests, are ignored. Missing instance files are listed and
    skipped with a warning.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    base = Path(base_dir)
    records: list[RunRecord] = []
    formulations = manifest.get("formulations", ["tree", "path"])
    timeout = float(manifest.get("timeout", 7200.0))
    for entry in manifest.get("instances", []):
        path = base / entry["path"]
        if not path.exists():
            log.warning("skipping missing instance file %s", path)
            continue
        trips = entry.get("trips")
        trips_path = base / trips if trips else None
        if trips_path is not None and not trips_path.exists():
            log.warning("skipping %s: trips file %s missing", path, trips_path)
            continue
        inst = load_instance(path, trips_path, entry.get("coefficient"),
                             entry.get("name"))
        for formulation in formulations:
            config = SolverConfig(
                formulation=formulation,
                rel_tol=float(manifest.get("tol", 1e-4)),
                timeout_seconds=timeout,
                strategy=manifest.get("strategy", "auto"),
                pricing_strategy=manifest.get("pricing", "full"),
                lp_backend=manifest.get("backend", "highs"),
            )
            t0 = time.perf_counter()
            try:
                report = solve(inst, config)
            except McflowError as exc:
                log.error("%s/%s failed: %s", inst.name, formulation, exc)
                report = SolveReport(status="error", objective=math.nan,
                                     lower_bound=math.nan, gap=math.nan,
                                     wall_time=time.perf_counter() - t0,
                                     message=str(exc))
            records.append(record_from_report(inst, config, report))
            log.info("%s %s: %s in %.2fs", inst.name, formulation,
                     records[-1].status, records[-1].wall_time_s)

    write_records_csv(records, output_dir / "runs.csv")
    write_profile_csv(records, output_dir / "profile.csv")
    write_cactus_csv(records, output_dir / "cactus.csv", timeout)
    write_scatter_csv(records, output_dir / "scatter.csv")
    write_heatmap_csv(records, output_dir / "heatmap.csv")
    return records


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_csv_row())


def read_records_csv(path: str | Path) -> list[RunRecord]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != CSV_HEADER:
            raise ParseError(f"unexpected CSV header {header}")
        return [RunRecord.from_csv_row(row) for row in reader]


def append_record_csv(record: RunRecord, path: str | Path) -> None:
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if fresh:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.to_csv_row())


def write_profile_csv(records: list[RunRecord], path: str | Path) -> None:
    """Performance profile: fraction of instances solved within a factor
    of the per-instance best time, one column per formulation."""
    solvers = sorted({r.formulation for r in records})
    instances = sorted({r.instance for r in records})
    times: dict[tuple[str, str], float] = {}
    for r in records:
        if r.status == "optimal":
            times[(r.instance, r.formulation)] = r.wall_time_s
    ratios: dict[tuple[str, str], float] = {}
    for inst in instances:
        per = {s: times.get((inst, s)) for s in solvers}
        best = min((t for t in per.values() if t is not None), default=None)
        if best is None:
            continue
        for s, t in per.items():
            if t is not None:
                ratios[(inst, s)] = t / max(best, 1e-9)
    grid = sorted({1.0} | set(ratios.values()))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["ratio"] + solvers)
        denom = max(len(instances), 1)
        for tau in grid:
            row = [repr(tau)]
            for s in solvers:
                frac = sum(1 for inst in instances
                           if ratios.get((inst, s), math.inf) <= tau) / denom
                row.append(repr(frac))
            writer.writerow(row)


def write_cactus_csv(records: list[RunRecord], path: str | Path,
                     timeout: float) -> None:
    """Sorted solve times per formulation; unsolved runs sit at the cap."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["formulation", "rank", "time_s", "solved"])
        for s in sorted({r.formulation for r in records}):
            runs = [r for r in records if r.formulation == s]
            entries = [(r.wall_time_s if r.status == "optimal" else timeout,
                        r.status == "optimal") for r in runs]
            entries.sort(key=lambda t: (not t[1], t[0]))
            for rank, (t, solved) in enumerate(entries, start=1):
                writer.writerow([s, rank, repr(t), int(solved)])


def write_scatter_csv(records: list[RunRecord], path: str | Path) -> None:
    """Per-instance tree time against path time."""
    by_inst: dict[str, dict[str, RunRecord]] = {}
    for r in records:
        by_inst.setdefault(r.instance, {})[r.formulation] = r
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["instance", "time_tree_s", "time_path_s"])
        for inst in sorted(by_inst):
            per = by_inst[inst]
            if "tree" in per and "path" in per:
                writer.writerow([inst, repr(per["tree"].wall_time_s),
                                 repr(per["path"].wall_time_s)])


def write_heatmap_csv(records: list[RunRecord], path: str | Path) -> None:
    """Commodity count, shared-source fraction, and tree speed-up."""
    by_inst: dict[str, dict[str, RunRecord]] = {}
    for r in records:
        by_inst.setdefault(r.instance, {})[r.formulation] = r
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["instance", "commodities", "shared_source_fraction",
                         "speedup_path_over_tree"])
        for inst in sorted(by_inst):
            per = by_inst[inst]
            if "tree" not in per or "path" not in per:
                continue
            rec = per["tree"]
            frac = 1.0 - rec.sources / max(rec.commodities, 1)
            speedup = per["path"].wall_time_s / max(per["tree"].wall_time_s, 1e-9)
            writer.writerow([inst, rec.commodities, repr(frac), repr(speedup)])
