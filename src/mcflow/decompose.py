"""Reconstruct per-commodity path flows from source-aggregated edge flows.

Aggregated flows (from solution columns or a direct source-based solve)
are turned back into explicit commodity routings by iterative path
extraction: find a source-to-sink path in the positive-flow subgraph,
pull the bottleneck amount, repeat until each demand is met. Every
extraction either saturates an edge or finishes a demand, which bounds
the number of paths per (source, sink) pair by the edge count. Cycles
in the flow support (possible in degenerate optima) carry no demand and
are canceled first so the extraction always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .graph import Network
from .instance import Instance, SourceGroup
from .master import TREE, as_batch


@dataclass
class SourceEdgeFlow:
    """Per-source sparse edge flows f[source][edge]."""

    flows: dict[int, dict[int, float]]

    def total_per_edge(self, edge_count: int) -> np.ndarray:
        total = np.zeros(edge_count)
        for per_edge in self.flows.values():
            for e, f in per_edge.items():
                total[e] += f
        return total


@dataclass
class CommodityPathFlow:
    """Explicit routing of one commodity: (edge path, amount) pairs."""

    commodity: int
    paths: list[tuple[tuple[int, ...], float]]

    @property
    def total(self) -> float:
        return sum(a for _, a in self.paths)


def columns_to_source_flows(instance: Instance, columns, primal) -> SourceEdgeFlow:
    """Aggregate solution columns into per-source edge flows.

    ``columns`` (a :class:`ColumnBatch` or a sequence of columns) and
    ``primal`` must align; tree columns contribute their demand-weighted
    coefficients times the convexity weight, path columns their path
    indicator times the path flow. Only columns with a positive value
    contribute, and each total is summed in entry order.
    """
    x = np.asarray(primal, dtype=np.float64)
    keep = x > 0.0
    used, x = as_batch(columns).take(keep), x[keep]
    source = used.owner.copy()
    path = used.kind != TREE
    source[path] = instance.source[used.owner[path]]
    E = instance.network.edge_count
    keys, key_of = np.unique(source[used.col_of] * E + used.edges, return_inverse=True)
    totals = np.bincount(key_of, weights=used.coefs * x[used.col_of])
    flows: dict[int, dict[int, float]] = {}
    for key, total in zip(keys.tolist(), totals.tolist()):
        flows.setdefault(key // E, {})[key % E] = total
    return SourceEdgeFlow(flows)


def decompose(source_flows: SourceEdgeFlow, group: SourceGroup, net: Network,
              instance: Instance | None = None) -> list[CommodityPathFlow]:
    """Extract per-commodity paths for one source group.

    Sinks are processed in group order; each path extraction follows a
    depth-first search over positive-residual edges with smallest-edge-
    id preference and pulls ``min(bottleneck, remaining demand)``.
    Raises :class:`DecompositionError` when the aggregated flows cannot
    cover a sink's demand (conservation violated beyond tolerance).
    """
    zero_tol = 1e-9 * max(group.total_demand, 1.0)
    residual = {e: f for e, f in source_flows.flows.get(group.source, {}).items()
                if f > zero_tol}
    _cancel_cycles(residual, net, zero_tol)

    member_of_sink: dict[int, int] = {}
    comms = instance.commodities if instance is not None else None
    for k in group.members:
        if comms is not None:
            member_of_sink.setdefault(comms[k].sink, k)
    results: list[CommodityPathFlow] = []
    for t, demand in group.sink_demands.items():
        member = member_of_sink.get(t, t)
        record = CommodityPathFlow(member, [])
        remaining = demand
        while remaining > zero_tol:
            path = _find_path(residual, net, group.source, t)
            if path is None:
                raise DecompositionError(
                    f"cannot extract remaining {remaining} units to sink {t} "
                    f"from source {group.source}; "
                    f"{_balance_report(residual, net, group.source, t)}")
            bottleneck = min(residual[e] for e in path)
            amount = min(bottleneck, remaining)
            for e in path:
                residual[e] -= amount
                if residual[e] <= zero_tol:
                    del residual[e]
            record.paths.append((tuple(path), amount))
            remaining -= amount
        results.append(record)
    return results


def decompose_all(instance: Instance, source_flows: SourceEdgeFlow
                  ) -> list[CommodityPathFlow]:
    """Decompose every source group of an instance."""
    out: list[CommodityPathFlow] = []
    for group in instance.groups:
        out.extend(decompose(source_flows, group, instance.network, instance))
    return out


def _find_path(residual: dict[int, float], net: Network, source: int,
               sink: int) -> list[int] | None:
    """Depth-first source-to-sink path over positive-residual edges,
    preferring the smallest edge id at every step."""
    out: dict[int, list[int]] = {}
    for e in residual:
        out.setdefault(int(net.tail[e]), []).append(e)
    for edges in out.values():
        edges.sort()
    visited = {source}
    stack = [(source, iter(out.get(source, [])))]
    edge_into: dict[int, int] = {}
    while stack:
        v, it = stack[-1]
        advanced = False
        for e in it:
            u = int(net.head[e])
            if u in visited:
                continue
            visited.add(u)
            edge_into[u] = e
            if u == sink:
                path = [e]
                w = v
                while w != source:
                    pe = edge_into[w]
                    path.append(pe)
                    w = int(net.tail[pe])
                path.reverse()
                return path
            stack.append((u, iter(out.get(u, []))))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return None


def _balance_report(residual: dict[int, float], net: Network, source: int,
                    sink: int) -> str:
    balance = {}
    for e, f in residual.items():
        balance[int(net.tail[e])] = balance.get(int(net.tail[e]), 0.0) + f
        balance[int(net.head[e])] = balance.get(int(net.head[e]), 0.0) - f
    worst = max(balance.items(), key=lambda kv: abs(kv[1]), default=(source, 0.0))
    return f"worst residual imbalance {worst[1]:+.3e} at node {worst[0]}"


def _cancel_cycles(residual: dict[int, float], net: Network, zero_tol: float) -> None:
    """Remove directed cycles from the positive-flow support."""
    while True:
        cycle = _find_cycle(residual, net)
        if cycle is None:
            return
        amount = min(residual[e] for e in cycle)
        for e in cycle:
            residual[e] -= amount
            if residual[e] <= zero_tol:
                del residual[e]


def _find_cycle(residual: dict[int, float], net: Network):
    """One directed cycle (as an edge list) in the support, or None."""
    out: dict[int, list[int]] = {}
    for e in residual:
        out.setdefault(int(net.tail[e]), []).append(e)
    for edges in out.values():
        edges.sort()
    color: dict[int, int] = {}
    edge_into: dict[int, int] = {}
    for start in sorted(out):
        if color.get(start, 0) != 0:
            continue
        stack = [(start, iter(out.get(start, [])))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for e in it:
                u = int(net.head[e])
                if color.get(u, 0) == 1:
                    # Back edge: walk the stack to recover the cycle.
                    cycle = [e]
                    w = v
                    while w != u:
                        pe = edge_into[w]
                        cycle.append(pe)
                        w = int(net.tail[pe])
                    cycle.reverse()
                    return cycle
                if color.get(u, 0) == 0:
                    color[u] = 1
                    edge_into[u] = e
                    stack.append((u, iter(out.get(u, []))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return None
