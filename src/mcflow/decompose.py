"""Reconstruct per-commodity path flows from source-aggregated edge flows.

Aggregated flows (from solution columns or a direct source-based solve)
are turned back into explicit commodity routings by the textbook flow
decomposition (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, §3.5),
one source group at a time. A walk starts at the source and follows
positive-residual edges, smallest edge id first, until it reaches a
node with unmet demand, then pulls ``min(bottleneck, unmet demand)``
along its path. A walk that comes back to a node already on it cancels
that cycle (cycles carry no demand and occur in degenerate optima) and
walks on. Every extraction either empties an edge or meets a sink's
demand, which bounds the number of paths per sink by the edge count.
Each sink's paths are then shared among its commodities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, InputError
from .graph import Network
from .instance import Instance, SourceGroup
from .master import as_batch, column_owners


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

    ``columns`` (a :class:`ColumnBatch` or a list of one kind) and
    ``primal`` must have the same length, else :class:`InputError` is
    raised, as it is for a column whose owner owns no demand row. A
    column adds its coefficients times its value to its owner's root
    (see :func:`mcflow.master.column_owners`): a tree its flows times its
    convexity weight, a path its edges times its flow. Only columns with
    a positive value contribute, and each total is summed in entry order.
    """
    x = np.asarray(primal, dtype=np.float64)
    columns = as_batch(columns)
    if x.shape != (len(columns),):
        raise InputError(f"{len(columns)} columns but {x.size} primal values")
    if not len(columns):
        return SourceEdgeFlow({})
    keep = x > 0.0
    used, x = columns.take(keep), x[keep]
    known, source, _ = column_owners(used.kind, used.owner, instance)
    if not known.all():
        raise InputError(f"column owner {used.owner[np.argmin(known)]} owns no demand row")
    E = instance.network.edge_count
    keys, key_of = np.unique(source[used.col_of] * E + used.edges, return_inverse=True)
    totals = np.bincount(key_of, weights=used.coefs * x[used.col_of])
    flows: dict[int, dict[int, float]] = {}
    for key, total in zip(keys.tolist(), totals.tolist()):
        flows.setdefault(key // E, {})[key % E] = total
    return SourceEdgeFlow(flows)


def decompose(source_flows: SourceEdgeFlow, group: SourceGroup,
              instance: Instance) -> list[CommodityPathFlow]:
    """Extract per-commodity paths for one source group.

    Returns one record per member commodity, in member order. The
    out-edge lists of the group's flow support are built once, smallest
    edge id last, and spent edges are popped from them lazily. A node
    left with no usable edge is dropped for the rest of the group: it
    stays unusable because residual flow and unmet demand only shrink.
    A sink's extracted amounts go to its commodities in member order,
    each up to its own demand, the last one taking the rest. Raises
    :class:`DecompositionError` when the aggregated flows cannot cover a
    sink's demand (conservation violated beyond tolerance).
    """
    net = instance.network
    zero_tol = 1e-9 * max(group.total_demand, 1.0)
    source = group.source
    residual = {e: f for e, f in source_flows.flows.get(source, {}).items()
                if f > zero_tol}
    support = np.array(sorted(residual, reverse=True), dtype=np.int64)
    head = dict(zip(support.tolist(), net.head[support].tolist()))
    out: dict[int, list[int]] = {}
    for e, v in zip(support.tolist(), net.tail[support].tolist()):
        out.setdefault(v, []).append(e)
    unmet = dict(group.sink_demands)
    extracted: dict[int, list] = {t: [] for t in unmet}
    open_sinks = len(unmet)
    dead: set[int] = set()
    while open_sinks:
        # nodes[i] is the tail of path[i]; on_path maps a node to its index.
        nodes, path, on_path = [source], [], {source: 0}
        while unmet.get(nodes[-1], 0.0) <= zero_tol:
            edges = out.get(nodes[-1], [])
            while edges and (residual[edges[-1]] <= zero_tol or head[edges[-1]] in dead):
                edges.pop()
            if not edges:  # a dead end: drop the node and step back
                if len(nodes) == 1:
                    t = next(t for t, d in unmet.items() if d > zero_tol)
                    raise DecompositionError(
                        f"cannot extract remaining {unmet[t]} units to sink {t} "
                        f"from source {source}; {_balance_report(residual, net, source)}")
                dead.add(nodes[-1])
                del on_path[nodes.pop()]
                path.pop()
                continue
            e = edges[-1]
            u = head[e]
            if u in on_path:  # cancel the cycle u -> ... -> u, walk on from u
                i = on_path[u]
                cycle = path[i:] + [e]
                amount = min(residual[c] for c in cycle)
                for c in cycle:
                    residual[c] -= amount
                for w in nodes[i + 1:]:
                    del on_path[w]
                del nodes[i + 1:], path[i:]
            else:
                on_path[u] = len(nodes)
                nodes.append(u)
                path.append(e)
        t = nodes[-1]
        amount = min(unmet[t], min(residual[e] for e in path))
        for e in path:
            residual[e] -= amount
        unmet[t] -= amount
        if unmet[t] <= zero_tol:
            open_sinks -= 1
        extracted[t].append((tuple(path), amount))

    records = {k: CommodityPathFlow(k, []) for k in group.members}
    members_at: dict[int, list[int]] = {}
    for k in group.members:
        members_at.setdefault(instance.commodities[k].sink, []).append(k)
    for t, ks in members_at.items():
        j, need = 0, instance.commodities[ks[0]].demand
        for path, amount in extracted[t]:
            while amount > 0.0:
                while need <= zero_tol and j + 1 < len(ks):
                    j += 1
                    need = instance.commodities[ks[j]].demand
                # A path left within tolerance of empty goes whole to this
                # commodity; the last commodity takes all that remains.
                take = amount if j + 1 == len(ks) or amount - need <= zero_tol else need
                records[ks[j]].paths.append((path, take))
                amount -= take
                need -= take
    return list(records.values())


def decompose_all(instance: Instance, source_flows: SourceEdgeFlow
                  ) -> list[CommodityPathFlow]:
    """Decompose every source group of an instance."""
    out: list[CommodityPathFlow] = []
    for group in instance.groups:
        out.extend(decompose(source_flows, group, instance))
    return out


def _balance_report(residual: dict[int, float], net: Network, source: int) -> str:
    balance = {}
    for e, f in residual.items():
        balance[int(net.tail[e])] = balance.get(int(net.tail[e]), 0.0) + f
        balance[int(net.head[e])] = balance.get(int(net.head[e]), 0.0) - f
    worst = max(balance.items(), key=lambda kv: abs(kv[1]), default=(source, 0.0))
    return f"worst residual imbalance {worst[1]:+.3e} at node {worst[0]}"
