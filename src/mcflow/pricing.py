"""Column pricing: batched shortest paths and shortest-path trees.

A pricing round runs the shortest-path kernel once over the sources of
all groups it prices, one row per group; rounds over very many sources
run once per block of sources, so that a block's dense per-node arrays
stay below ``SOURCE_BLOCK_ENTRIES`` entries. A group's row classifies
every member commodity at once; tree pricing additionally pushes the
member demands up the tree, one depth level at a time, to obtain the
edge flow coefficients. Reduced costs use the dual-adjusted weights
``cost - mu`` which are nonnegative by the master's dual normalization,
so Dijkstra applies. The ``bounded`` and ``astar`` strategies settle
only nodes below each source's stop key, past which no destination can
price out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError
from .graph import (HeuristicBounds, Network, SptResult, astar, dijkstra,
                    dijkstra_bounded, tree_levels)
from .instance import Instance, SourceGroup
from .master import PATH, TREE, Column

# Upper bound on (sources in one kernel call) x (nodes): each call's dense
# labels (distances, parent edges, flags) hold this many entries per array.
SOURCE_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class DualSnapshot:
    """Immutable dual values handed from the master to pricing.

    ``pi`` maps the demand-row owner (commodity id in path mode, source
    id in tree mode) to its dual; ``mu`` is the per-edge capacity dual,
    zero for inactive rows and nonpositive everywhere.
    """

    pi: dict[int, float]
    mu: np.ndarray


@dataclass
class PricingStats:
    """``runs`` counts the groups priced; ``early_stops`` the groups whose
    bounded or A* row left a selected sink unsettled."""

    runs: int = 0
    early_stops: int = 0


@dataclass
class PricingOutcome:
    """Result of pricing one or more owners.

    ``min_reduced_cost`` maps each priced owner to its most negative
    reduced cost clamped at zero (zero therefore means "proven
    nonnegative"); owners skipped by a filter or an early exit are
    absent, and callers treat them as unknown.
    """

    columns: list[Column] = field(default_factory=list)
    min_reduced_cost: dict[int, float] = field(default_factory=dict)
    stats: PricingStats = field(default_factory=PricingStats)


def adjusted_weights(net: Network, mu: np.ndarray) -> np.ndarray:
    """Pricing weights ``cost - mu``; nonnegative when mu <= 0."""
    w = net.cost - mu
    if np.any(w < 0):
        raise InputError("capacity duals must be nonpositive")
    return w


def _blocks(items: list, node_count: int, size: int | None = None):
    """Consecutive slices of ``items`` with at most ``size`` entries,
    by default as many as fit one kernel call's entry budget."""
    size = size or max(1, SOURCE_BLOCK_ENTRIES // node_count)
    for lo in range(0, len(items), size):
        yield items[lo:lo + size]


def _as_groups(groups) -> list[SourceGroup]:
    return [groups] if isinstance(groups, SourceGroup) else list(groups)


def _path_columns(net: Network, spt: SptResult, rows: np.ndarray,
                  sinks: np.ndarray, commodities: np.ndarray) -> list[Column]:
    """Path columns for ``commodities[i]``, whose sink is ``sinks[i]``,
    from tree row ``rows[i]`` of a batched run; every sink must be
    reached. All paths are walked up the parent edges together, one step
    per pass."""
    if not commodities.size:
        return []
    pe = spt.parent_edge.reshape(-1)
    base = rows * net.node_count
    at = base + sinks
    steps = []
    while True:
        e = pe[at]
        live = e >= 0
        if not live.any():
            break
        steps.append(e)
        at = np.where(live, base + net.tail[e], at)
    # One row per path in path order, -1 padding in front of short paths.
    edges = np.array(steps[::-1]).T
    used = edges >= 0
    lengths = used.sum(axis=1).tolist()
    costs = np.cumsum(np.where(used, net.cost[edges], 0.0), axis=1)[:, -1].tolist()
    width = edges.shape[1]
    return [Column(owner=k, kind=PATH, edges=tuple(row[width - length:]),
                   coefs=(1.0,) * length, cost=cost)
            for k, row, length, cost in zip(commodities.tolist(), edges.tolist(),
                                            lengths, costs)]


def _tree_flows(net: Network, spt: SptResult, sink_demands: list[dict[int, float]]):
    """Demand-weighted flow per tree edge for every row of a run.

    Each sink's demand is pushed up its parent chain, all rows and all
    nodes of one depth at a time (deepest first). Returns ``(row, edge,
    flow)`` arrays over the edges that carry flow, sorted by row and
    then edge id. Every sink must be reached.
    """
    n = net.node_count
    up, levels = tree_levels(net, spt.parent_edge)
    acc = np.zeros(spt.parent_edge.size)
    for i, demands in enumerate(sink_demands):
        acc[i * n + np.fromiter(demands, np.int64, len(demands))] = list(demands.values())
    for level in reversed(levels):
        np.add.at(acc, up[level], acc[level])
    pe = spt.parent_edge.reshape(-1)
    carry = np.flatnonzero((pe >= 0) & (acc > 0))
    row, edge = carry // n, pe[carry]
    order = np.lexsort((edge, row))
    return row[order], edge[order], acc[carry[order]]


def compute_tree_flows(net: Network, spt: SptResult,
                       sink_demands: dict[int, float]) -> dict[int, float]:
    """Demand-weighted flow per tree edge of a single-source run; every
    sink must be reached."""
    _, edges, flows = _tree_flows(net, spt, [sink_demands])
    return dict(zip(edges.tolist(), flows.tolist()))


def _tree_columns(instance: Instance, groups: list[SourceGroup], spt: SptResult,
                  w: np.ndarray | None = None):
    """Tree columns of ``groups`` from the rows of one batched run, and
    each tree's weighted sum of ``w`` (None when ``w`` is None)."""
    net = instance.network
    row, edges, flows = _tree_flows(net, spt, [g.sink_demands for g in groups])
    count = len(groups)
    costs = np.bincount(row, weights=flows * net.cost[edges], minlength=count).tolist()
    cut = np.searchsorted(row, np.arange(count + 1)).tolist()
    edge_list, flow_list = edges.tolist(), flows.tolist()
    columns = [Column(owner=g.source, kind=TREE,
                      edges=tuple(edge_list[cut[i]:cut[i + 1]]),
                      coefs=tuple(flow_list[cut[i]:cut[i + 1]]), cost=costs[i])
               for i, g in enumerate(groups)]
    weighted = None if w is None else \
        np.bincount(row, weights=flows * w[edges], minlength=count)
    return columns, weighted


def price_paths(instance: Instance, groups, duals: DualSnapshot,
                strategy: str = "full",
                bounds: HeuristicBounds | dict[int, HeuristicBounds] | None = None,
                tolerance: float = 0.0, weights: np.ndarray | None = None,
                members=None, column_limit: int | None = None) -> PricingOutcome:
    """Price the path columns of one source group or a sequence of them.

    One kernel call covers all groups (per block of sources): a
    commodity's reduced cost is ``dist[sink] - pi`` in its group's row,
    and its shortest path is emitted when that is below ``-tolerance``.
    The ``bounded`` and ``astar`` strategies may leave sinks unsettled,
    but any such sink is then proven to have no negative path, so the
    clamped reduced-cost map stays exact.

    Args:
        bounds: A* heuristic, either one shared by all groups or a map
            source -> heuristic (then each group runs on its own).
        members: Optional iterable restricting which member commodities
            to price (the master-easy filter); others are not reported.
        column_limit: Stop after the first group, in the given order,
            that brings the emitted columns to this many; later groups
            are not reported.
    """
    if strategy not in ("full", "bounded", "astar"):
        raise InputError(f"unknown pricing strategy {strategy!r}")
    if strategy == "astar" and bounds is None:
        raise InputError("astar pricing requires heuristic bounds")
    net = instance.network
    w = adjusted_weights(net, duals.mu) if weights is None else weights
    wanted = None if members is None else set(members)
    jobs = []
    for g in _as_groups(groups):
        selected = list(g.members) if wanted is None else \
            [k for k in g.members if k in wanted]
        if selected:
            jobs.append((g, selected))
    per_source = strategy == "astar" and not isinstance(bounds, HeuristicBounds)
    sink_of = [c.sink for c in instance.commodities]

    out = PricingOutcome()
    for block in _blocks(jobs, net.node_count, 1 if per_source else None):
        sources = [g.source for g, _ in block]
        if strategy == "full":
            spt = dijkstra(net, w, sources)
        else:
            dest_duals = []
            for _, selected in block:
                stop: dict[int, float] = {}
                for k in selected:
                    t = sink_of[k]
                    stop[t] = max(stop.get(t, -np.inf), duals.pi[k])
                dest_duals.append(stop)
            if strategy == "bounded":
                spt = dijkstra_bounded(net, w, sources, dest_duals)
            else:
                spt = astar(net, w, sources, dest_duals,
                            bounds[sources[0]] if per_source else bounds)

        ks = np.array([k for _, selected in block for k in selected])
        sizes = [len(selected) for _, selected in block]
        rows = np.repeat(np.arange(len(block)), sizes)
        sinks = np.array([sink_of[k] for k in ks.tolist()])
        settled = spt.settled[rows, sinks]
        rc = spt.dist[rows, sinks] - np.array([duals.pi[k] for k in ks.tolist()])
        negative = settled & (rc < -tolerance)
        min_rc = np.where(settled, np.minimum(rc, 0.0), 0.0).tolist()
        columns = _path_columns(net, spt, rows[negative], sinks[negative],
                                ks[negative])
        ends = np.cumsum(sizes).tolist()
        found = np.cumsum(negative)[np.array(ends) - 1].tolist()
        lo = 0
        for (_, selected), hi, upto in zip(block, ends, found):
            out.stats.runs += 1
            out.min_reduced_cost.update(zip(selected, min_rc[lo:hi]))
            if strategy != "full" and not settled[lo:hi].all():
                out.stats.early_stops += 1
            lo = hi
            if column_limit is not None and len(out.columns) + upto >= column_limit:
                out.columns.extend(columns[:upto])
                return out
        out.columns.extend(columns)
    return out


def price_tree(instance: Instance, groups, duals: DualSnapshot,
               tolerance: float = 0.0, weights: np.ndarray | None = None,
               column_limit: int | None = None) -> PricingOutcome:
    """Price the tree column of one source group or a sequence of them.

    The shortest-path tree under the adjusted weights minimizes every
    member path simultaneously, so it minimizes the demand-weighted
    reduced cost over all trees covering the group's sinks; the
    reported minimum is therefore exact. One kernel call covers all
    groups (per block of sources); ``column_limit`` is as in
    :func:`price_paths`.
    """
    net = instance.network
    w = adjusted_weights(net, duals.mu) if weights is None else weights
    out = PricingOutcome()
    for block in _blocks(_as_groups(groups), net.node_count):
        spt = dijkstra(net, w, [g.source for g in block])
        for i, g in enumerate(block):
            missing = [t for t in g.sink_demands if not spt.settled[i, t]]
            if missing:
                raise InfeasibleError(
                    f"sinks {missing} unreachable from source {g.source}",
                    owners=tuple(missing))
        columns, weighted = _tree_columns(instance, block, spt, w)
        for g, col, tree_weight in zip(block, columns, weighted.tolist()):
            out.stats.runs += 1
            reduced = tree_weight - duals.pi[g.source]
            if reduced < -tolerance:
                out.columns.append(col)
            out.min_reduced_cost[g.source] = min(reduced, 0.0)
            if column_limit is not None and len(out.columns) >= column_limit:
                return out
    return out


def lagrangian_bound(rmp_objective: float,
                     min_reduced_costs: dict[int, float | None],
                     owner_weights: dict[int, float]) -> float | None:
    """Valid lower bound from a complete pricing round.

    Lowering each demand dual by its owner's most negative reduced cost
    makes the master duals feasible for the full problem, which shifts
    the dual objective by the weighted reduced costs. Returns None when
    any owner's minimum is unknown.
    """
    total = 0.0
    for owner, weight in owner_weights.items():
        rc = min_reduced_costs.get(owner)
        if rc is None:
            return None
        total += weight * min(0.0, rc)
    return rmp_objective + total


def initial_columns(instance: Instance, mode: str) -> list[Column]:
    """One pure shortest-path (or tree) column per pricing problem.

    Runs zero-dual pricing under the original costs and emits every
    column regardless of sign; this seeds the master so the demand rows
    are satisfiable without artificial help. Raises
    :class:`InfeasibleError` naming the commodities whose sink is
    unreachable from its source.
    """
    if mode not in (TREE, PATH):
        raise InputError(f"unknown mode {mode!r}")
    net = instance.network
    cols: list[Column] = []
    unreachable: list[int] = []
    for block in _blocks(list(instance.groups), net.node_count):
        spt = dijkstra(net, net.cost, [g.source for g in block])
        ks = np.array([k for g in block for k in g.members])
        rows = np.repeat(np.arange(len(block)), [len(g.members) for g in block])
        sinks = np.array([instance.commodities[k].sink for k in ks.tolist()])
        reached = spt.settled[rows, sinks]
        if not reached.all():
            unreachable.extend(ks[~reached].tolist())
        if unreachable:
            continue
        if mode == TREE:
            cols.extend(_tree_columns(instance, block, spt)[0])
        else:
            cols.extend(_path_columns(net, spt, rows, sinks, ks))
    if unreachable:
        unreachable.sort()
        raise InfeasibleError(
            f"{len(unreachable)} commodities have unreachable sinks: "
            f"{unreachable[:10]}", owners=tuple(unreachable))
    return cols
