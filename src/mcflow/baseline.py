"""Direct LP construction for the edge-based and source-based models.

These are the comparison solvers and the correctness oracles for the
column generation code. Both are one node-arc LP built from arrays:
each owner (a commodity in the edge-based model, a source in the
source-based model) carries one flow variable per edge and one balance
row per node, and every capacity row is enforced up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    supply = [[(c.source, c.demand), (c.sink, -c.demand)]
              for c in instance.commodities]
    return _node_arc_lp(EDGE_LP, instance, list(range(len(supply))), supply)


def build_source_lp(instance: Instance) -> DirectLp:
    """Source-aggregated edge flows: |S|*|E| variables, balance rows per
    (node, source) with aggregated right-hand sides."""
    groups = instance.groups
    supply = [[(g.source, g.total_demand)] + [(t, -d) for t, d in g.sink_demands.items()]
              for g in groups]
    return _node_arc_lp(SOURCE_LP, instance, [g.source for g in groups], supply)


def _node_arc_lp(kind: str, instance: Instance, owners: list[int],
                 supply: list[list[tuple[int, float]]]) -> DirectLp:
    """The node-arc LP with one block per owner.

    Owner i's flow on edge e is column ``i*|E| + e``; its balance row at
    node v is row ``i*|V| + v``, and the capacity row of edge e is row
    ``|owners|*|V| + e``. Each column holds +1 at its tail row, -1 at its
    head row and +1 at its capacity row, in that order. ``supply[i]``
    lists owner i's (node, net supply) pairs; every other balance row is
    zero. The nodes of one owner's pairs must be distinct.
    """
    net = instance.network
    O, E, V = len(owners), net.edge_count, net.node_count
    block = np.arange(O, dtype=np.int64)[:, None] * V
    rows = np.stack([block + net.tail, block + net.head,
                     np.broadcast_to(O * V + np.arange(E), (O, E))], axis=2)
    rhs = np.zeros(O * V + E)
    rhs[[i * V + v for i, pairs in enumerate(supply) for v, _ in pairs]] = \
        [value for pairs in supply for _, value in pairs]
    rhs[O * V:] = net.capacity
    lp = SparseLp(O * E, np.tile(net.cost, O), ["E"] * (O * V) + ["L"] * E, rhs,
                  rows.ravel(), np.repeat(np.arange(O * E), 3),
                  np.tile([1.0, -1.0, 1.0], O * E))
    return DirectLp(kind, lp, owners, instance)


@dataclass
class DirectSolution:
    """``simplex_iterations`` counts the LP's pivots (0 on ``builtin``)."""

    status: str
    objective: float
    flows: dict[int, np.ndarray]
    simplex_iterations: int = 0


def solve_direct(direct: DirectLp, backend: str | LpBackend = "highs",
                 time_limit: float | None = None) -> DirectSolution:
    """Solve a direct formulation; per-owner edge flows come back keyed
    by commodity id (edge model) or source id (source model).

    ``time_limit`` (seconds) is passed to the backend; ``highs`` stops
    there and the solution's status is :data:`~mcflow.lp.TIME_LIMIT`.
    """
    backend = get_backend(backend)
    sol = backend.solve(direct.lp, time_limit=time_limit)
    if sol.status == INFEASIBLE:
        return DirectSolution(INFEASIBLE, np.inf, {}, sol.simplex_iterations)
    if sol.status != OPTIMAL:
        return DirectSolution(sol.status, np.nan, {}, sol.simplex_iterations)
    E = direct.instance.network.edge_count
    flows = {owner: np.asarray(sol.x[i * E:(i + 1) * E])
             for i, owner in enumerate(direct.owners)}
    return DirectSolution(OPTIMAL, float(sol.objective), flows, sol.simplex_iterations)
