"""Direct LP construction for the edge-based and source-based models.

These are the comparison solvers and the correctness oracles for the
column generation code: the edge-based model carries one variable per
(commodity, edge) pair, the source-based model one per (source, edge)
pair, and both enforce every capacity row up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import InputError
from .instance import Instance
from .lp import INFEASIBLE, OPTIMAL, LpBackend, SparseLp, get_backend

EDGE_LP = "edge-lp"
SOURCE_LP = "source-lp"


@dataclass
class DirectLp:
    """A fully built direct formulation ready for a backend."""

    kind: str
    lp: SparseLp
    owners: list[int]
    instance: Instance

    @property
    def num_vars(self) -> int:
        return self.lp.num_cols

    @property
    def nnz(self) -> int:
        return self.lp.nnz


def build_edge_lp(instance: Instance) -> DirectLp:
    """Per-commodity edge flows: |K|*|E| variables, balance rows per
    (node, commodity), one capacity row per edge."""
    net = instance.network
    K = len(instance.commodities)
    E = net.edge_count
    V = net.node_count

    rows_l: list[int] = []
    cols_l: list[int] = []
    vals_l: list[float] = []
    obj = np.tile(net.cost, K)
    rhs = np.zeros(K * V + E)
    senses = ["E"] * (K * V) + ["L"] * E
    row_names = [f"bal_{i}_k{k}" for k in range(K) for i in range(V)]
    row_names += [f"cap_{e}" for e in range(E)]
    col_names = [f"f_k{k}_e{e}" for k in range(K) for e in range(E)]

    for k, com in enumerate(instance.commodities):
        rhs[k * V + com.source] = com.demand
        rhs[k * V + com.sink] = -com.demand
        base = k * E
        for e in range(E):
            rows_l.append(k * V + int(net.tail[e]))
            cols_l.append(base + e)
            vals_l.append(1.0)
            rows_l.append(k * V + int(net.head[e]))
            cols_l.append(base + e)
            vals_l.append(-1.0)
            rows_l.append(K * V + e)
            cols_l.append(base + e)
            vals_l.append(1.0)
    rhs[K * V:] = net.capacity

    lp = SparseLp(K * E, obj, senses, rhs,
                  np.array(rows_l, dtype=np.int64),
                  np.array(cols_l, dtype=np.int64),
                  np.array(vals_l),
                  col_names=col_names, row_names=row_names)
    return DirectLp(EDGE_LP, lp, list(range(K)), instance)


def build_source_lp(instance: Instance) -> DirectLp:
    """Source-aggregated edge flows: |S|*|E| variables, balance rows per
    (node, source) with aggregated right-hand sides."""
    net = instance.network
    S = len(instance.groups)
    E = net.edge_count
    V = net.node_count

    rows_l: list[int] = []
    cols_l: list[int] = []
    vals_l: list[float] = []
    obj = np.tile(net.cost, S)
    rhs = np.zeros(S * V + E)
    senses = ["E"] * (S * V) + ["L"] * E
    row_names = [f"bal_{i}_s{g.source}" for g in instance.groups for i in range(V)]
    row_names += [f"cap_{e}" for e in range(E)]
    col_names = [f"f_s{g.source}_e{e}" for g in instance.groups for e in range(E)]

    for gi, group in enumerate(instance.groups):
        rhs[gi * V + group.source] = group.total_demand
        for t, d in group.sink_demands.items():
            rhs[gi * V + t] -= d
        base = gi * E
        for e in range(E):
            rows_l.append(gi * V + int(net.tail[e]))
            cols_l.append(base + e)
            vals_l.append(1.0)
            rows_l.append(gi * V + int(net.head[e]))
            cols_l.append(base + e)
            vals_l.append(-1.0)
            rows_l.append(S * V + e)
            cols_l.append(base + e)
            vals_l.append(1.0)
    rhs[S * V:] = net.capacity

    lp = SparseLp(S * E, obj, senses, rhs,
                  np.array(rows_l, dtype=np.int64),
                  np.array(cols_l, dtype=np.int64),
                  np.array(vals_l),
                  col_names=col_names, row_names=row_names)
    return DirectLp(SOURCE_LP, lp, [g.source for g in instance.groups], instance)


@dataclass
class DirectSolution:
    status: str
    objective: float
    flows: dict[int, np.ndarray]


def solve_direct(direct: DirectLp, backend: str | LpBackend = "highs") -> DirectSolution:
    """Solve a direct formulation; per-owner edge flows come back keyed
    by commodity id (edge model) or source id (source model)."""
    backend = get_backend(backend)
    sol = backend.solve(direct.lp)
    if sol.status == INFEASIBLE:
        return DirectSolution(INFEASIBLE, np.inf, {})
    if sol.status != OPTIMAL:
        return DirectSolution(sol.status, np.nan, {})
    E = direct.instance.network.edge_count
    flows = {owner: np.asarray(sol.x[i * E:(i + 1) * E])
             for i, owner in enumerate(direct.owners)}
    return DirectSolution(OPTIMAL, float(sol.objective), flows)


def export_lp(direct: DirectLp, stream: IO[str]) -> None:
    """Write the model in CPLEX LP text format.

    Rows are named ``bal_<node>_<owner>`` and ``cap_<edge>``; variables
    ``f_<owner>_e<edge>``.
    """
    lp = direct.lp
    if lp.col_names is None or lp.row_names is None:
        raise InputError("model carries no names; build it with the builders here")
    by_row: dict[int, list[tuple[int, float]]] = {}
    for r, c, v in zip(lp.rows, lp.cols, lp.vals):
        by_row.setdefault(int(r), []).append((int(c), float(v)))

    stream.write("Minimize\n obj:")
    parts = [f" {lp.objective[j]:+.17g} {lp.col_names[j]}" for j in range(lp.num_cols)
             if lp.objective[j] != 0.0]
    stream.write(_wrap(parts) + "\n")
    stream.write("Subject To\n")
    for r in range(lp.num_rows):
        terms: dict[int, float] = {}
        for c, v in by_row.get(r, []):
            terms[c] = terms.get(c, 0.0) + v
        parts = [f" {v:+.17g} {lp.col_names[c]}" for c, v in sorted(terms.items())
                 if v != 0.0]
        op = "=" if lp.senses[r] == "E" else "<="
        stream.write(f" {lp.row_names[r]}:{_wrap(parts)} {op} {lp.rhs[r]:.17g}\n")
    stream.write("Bounds\n")
    stream.write("End\n")


def _wrap(parts: list[str], width: int = 12) -> str:
    out = []
    for i, p in enumerate(parts):
        out.append(p)
        if (i + 1) % width == 0 and i + 1 < len(parts):
            out.append("\n  ")
    return "".join(out)
