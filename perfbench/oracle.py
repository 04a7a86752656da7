"""Independent optimal objectives and the gate that checks solves against them.

Two oracles:

* :func:`source_lp_objective` solves the source-aggregated direct LP
  through the library's own baseline, an independent formulation of the
  same problem with every capacity row present up front.
* :func:`uncapacitated_objective` is the sum of demand times shortest
  distance, computed with SciPy's ``csgraph`` Dijkstra rather than the
  library's kernels. It equals the optimum only when no capacity can
  bind, which it checks: every capacity must be at least the total demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import mcflow.baseline


class OracleError(RuntimeError):
    """The oracle cannot give a trustworthy objective for this instance."""


def source_lp_objective(instance) -> float:
    """Optimal objective of the source-based direct LP, solved with HiGHS."""
    direct = mcflow.baseline.build_source_lp(instance)
    solution = mcflow.baseline.solve_direct(direct, "highs")
    if solution.status != "optimal":
        raise OracleError(f"source LP returned {solution.status}")
    return solution.objective


def uncapacitated_objective(instance) -> float:
    """Sum of demand times shortest distance, valid when no capacity binds."""
    net = instance.network
    total_demand = sum(c.demand for c in instance.commodities)
    if net.capacity.min() < total_demand:
        raise OracleError("a capacity is below the total demand; "
                          "the uncapacitated optimum is not the optimum")
    if net.cost.min() <= 0.0:
        raise OracleError("csgraph reads a zero-cost entry as a missing edge")
    # csgraph sums duplicate entries, so keep only the cheapest of any
    # parallel edges, and drop self-loops, which no shortest path uses.
    keep = net.tail != net.head
    tail, head, cost = net.tail[keep], net.head[keep], net.cost[keep]
    order = np.lexsort((cost, head, tail))
    tail, head, cost = tail[order], head[order], cost[order]
    first = np.ones(tail.size, dtype=bool)
    first[1:] = (tail[1:] != tail[:-1]) | (head[1:] != head[:-1])
    n = net.node_count
    graph = csr_matrix((cost[first], (tail[first], head[first])), shape=(n, n))
    sources = sorted({c.source for c in instance.commodities})
    row = {s: i for i, s in enumerate(sources)}
    dist = csgraph_dijkstra(graph, directed=True, indices=sources)
    total = 0.0
    for c in instance.commodities:
        d = dist[row[c.source], c.sink]
        if not math.isfinite(d):
            raise OracleError(f"sink {c.sink} unreachable from {c.source}")
        total += c.demand * d
    return total


@dataclass
class Gate:
    """Counts solves and the ones that fail the oracle check.

    A solve fails when it raised, when its status is not optimal, when
    its objective is further than ``rel_tol * max(1, |oracle|)`` from the
    oracle, or when its lower bound exceeds ``oracle * (1 + rel_tol)``.
    """

    attempted: int = 0
    failed: int = 0

    def check(self, report, oracle: float, rel_tol: float) -> bool:
        """Count one solve; ``report`` is None when the solve raised."""
        self.attempted += 1
        ok = bool(report is not None
              and report.status == "optimal"
              and abs(report.objective - oracle) <= rel_tol * max(1.0, abs(oracle))
              and report.lower_bound <= oracle * (1.0 + rel_tol))
        if not ok:
            self.failed += 1
        return ok
