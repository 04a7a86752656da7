"""Column pricing: batched shortest paths and shortest-path trees.

A pricing round runs the shortest-path kernel once over the sources of
all groups it prices, one row per group; rounds over very many sources
run once per block of sources, so that a block's dense per-node arrays
stay below ``SOURCE_BLOCK_ENTRIES`` entries. A round given a deadline
starts no block once that has passed; the owners of later blocks are
then left unpriced. A group's row classifies every member commodity at
once; tree pricing additionally pushes the member demands up the tree,
one depth level at a time, to obtain the edge flow coefficients.
Reduced costs use the dual-adjusted weights ``cost - mu`` which are
nonnegative by the master's dual normalization, so Dijkstra applies.
The ``bounded`` and ``astar`` strategies settle only nodes below each
source's stop key, past which no destination can price out.

Columns leave pricing as one :class:`~mcflow.master.ColumnBatch` per
call, built straight from the kernel's parent-edge arrays: path columns
by walking every priced sink up its tree at once, tree columns from the
per-edge flows, with no Python object per column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError
from .graph import (HeuristicBounds, Network, SptResult, astar, dijkstra,
                    dijkstra_bounded, tree_levels)
from .instance import Instance, SourceGroup
from .master import PATH, TREE, ColumnBatch

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

    ``columns`` is the batch of columns that price out, in group order.
    ``min_reduced_cost`` maps each priced owner to its most negative
    reduced cost clamped at zero (zero therefore means "proven
    nonnegative"); owners skipped by a filter, a column limit or a
    deadline are absent, and callers treat them as unknown.
    """

    columns: ColumnBatch
    min_reduced_cost: dict[int, float] = field(default_factory=dict)
    stats: PricingStats = field(default_factory=PricingStats)


def adjusted_weights(net: Network, mu: np.ndarray) -> np.ndarray:
    """Pricing weights ``cost - mu``; nonnegative when mu <= 0."""
    w = net.cost - mu
    if np.any(w < 0):
        raise InputError("capacity duals must be nonpositive")
    return w


def _blocks(items: list, node_count: int, size: int | None = None,
            deadline: float | None = None):
    """Consecutive slices of ``items`` with at most ``size`` entries,
    by default as many as fit one kernel call's entry budget. No slice
    is yielded once ``time.perf_counter()`` has passed ``deadline``."""
    size = size or max(1, SOURCE_BLOCK_ENTRIES // node_count)
    for lo in range(0, len(items), size):
        if deadline is not None and time.perf_counter() > deadline:
            return
        yield items[lo:lo + size]


def _as_groups(groups) -> list[SourceGroup]:
    return [groups] if isinstance(groups, SourceGroup) else list(groups)


def _path_columns(net: Network, spt: SptResult, rows: np.ndarray,
                  sinks: np.ndarray, commodities: np.ndarray) -> ColumnBatch:
    """Path columns for ``commodities[i]``, whose sink is ``sinks[i]``,
    from tree row ``rows[i]`` of a batched run; every sink must be
    reached. All paths are walked up the parent edges together, one step
    per pass."""
    if not commodities.size:
        return ColumnBatch(PATH, [], [], [], [], [])
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
    cost = np.cumsum(np.where(used, net.cost[edges], 0.0), axis=1)[:, -1]
    flat = edges[used]
    return ColumnBatch(PATH, commodities, used.sum(axis=1), flat, np.ones(flat.size),
                       cost)


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
    columns = ColumnBatch(TREE, [g.source for g in groups],
                          np.bincount(row, minlength=count), edges, flows,
                          np.bincount(row, weights=flows * net.cost[edges],
                                      minlength=count))
    weighted = None if w is None else \
        np.bincount(row, weights=flows * w[edges], minlength=count)
    return columns, weighted


def _limit_cut(negative: np.ndarray, ends: np.ndarray, found: int,
               column_limit: int | None) -> int | None:
    """Groups to keep of a block whose groups end at entries ``ends``:
    up to the first that brings the columns found to ``column_limit``
    (``found`` before the block), or None when no group does."""
    if column_limit is None:
        return None
    hit = np.flatnonzero(found + np.cumsum(negative)[ends - 1] >= column_limit)
    return int(hit[0]) + 1 if hit.size else None


def price_paths(instance: Instance, groups, duals: DualSnapshot,
                strategy: str = "full",
                bounds: HeuristicBounds | dict[int, HeuristicBounds] | None = None,
                tolerance: float = 0.0, weights: np.ndarray | None = None,
                members=None, column_limit: int | None = None,
                deadline: float | None = None) -> PricingOutcome:
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
        deadline: A ``time.perf_counter()`` value after which no further
            block of sources is priced; later groups are not reported.
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
        selected = g.members if wanted is None else \
            [k for k in g.members if k in wanted]
        if selected:
            jobs.append((g, selected))
    per_source = strategy == "astar" and not isinstance(bounds, HeuristicBounds)

    parts, min_rc, stats, found = [], {}, PricingStats(), 0
    for block in _blocks(jobs, net.node_count, 1 if per_source else None, deadline):
        sources = [g.source for g, _ in block]
        sizes = [len(selected) for _, selected in block]
        ks = np.fromiter((k for _, selected in block for k in selected), np.int64,
                         sum(sizes))
        rows = np.repeat(np.arange(len(block)), sizes)
        sinks = instance.sink[ks]
        pi = np.fromiter(map(duals.pi.__getitem__, ks.tolist()), np.float64, ks.size)
        if strategy == "full":
            spt = dijkstra(net, w, sources)
        else:
            dest_duals = [{} for _ in block]
            for r, t, p in zip(rows.tolist(), sinks.tolist(), pi.tolist()):
                stop = dest_duals[r]
                stop[t] = max(stop.get(t, -np.inf), p)
            if strategy == "bounded":
                spt = dijkstra_bounded(net, w, sources, dest_duals)
            else:
                spt = astar(net, w, sources, dest_duals,
                            bounds[sources[0]] if per_source else bounds)

        settled = spt.settled[rows, sinks]
        rc = spt.dist[rows, sinks] - pi
        negative = settled & (rc < -tolerance)
        ends = np.cumsum(sizes)
        cut = _limit_cut(negative, ends, found, column_limit)
        count = len(block) if cut is None else cut
        upto = int(ends[count - 1])
        keep = np.flatnonzero(negative[:upto])
        parts.append(_path_columns(net, spt, rows[keep], sinks[keep], ks[keep]))
        found += keep.size
        min_rc.update(zip(ks[:upto].tolist(),
                          np.where(settled, np.minimum(rc, 0.0), 0.0)[:upto].tolist()))
        stats.runs += count
        if strategy != "full":
            stats.early_stops += np.unique(rows[:upto][~settled[:upto]]).size
        if cut is not None:
            break
    return PricingOutcome(ColumnBatch.concat(parts), min_rc, stats)


def price_tree(instance: Instance, groups, duals: DualSnapshot,
               tolerance: float = 0.0, weights: np.ndarray | None = None,
               column_limit: int | None = None,
               deadline: float | None = None) -> PricingOutcome:
    """Price the tree column of one source group or a sequence of them.

    The shortest-path tree under the adjusted weights minimizes every
    member path simultaneously, so it minimizes the demand-weighted
    reduced cost over all trees covering the group's sinks; the
    reported minimum is therefore exact. One kernel call covers all
    groups (per block of sources); ``column_limit`` and ``deadline``
    are as in :func:`price_paths`.
    """
    net = instance.network
    w = adjusted_weights(net, duals.mu) if weights is None else weights
    parts, min_rc, stats, found = [], {}, PricingStats(), 0
    for block in _blocks(_as_groups(groups), net.node_count, deadline=deadline):
        sources = [g.source for g in block]
        spt = dijkstra(net, w, sources)
        for i, g in enumerate(block):
            missing = [t for t in g.sink_demands if not spt.settled[i, t]]
            if missing:
                raise InfeasibleError(
                    f"sinks {missing} unreachable from source {g.source}",
                    owners=tuple(missing))
        columns, weighted = _tree_columns(instance, block, spt, w)
        reduced = weighted - np.array([duals.pi[s] for s in sources])
        negative = reduced < -tolerance
        cut = _limit_cut(negative, np.arange(1, len(block) + 1), found, column_limit)
        count = len(block) if cut is None else cut
        keep = np.flatnonzero(negative[:count])
        parts.append(columns.take(keep))
        found += keep.size
        min_rc.update(zip(sources[:count], np.minimum(reduced[:count], 0.0).tolist()))
        stats.runs += count
        if cut is not None:
            break
    return PricingOutcome(ColumnBatch.concat(parts), min_rc, stats)


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


def initial_columns(instance: Instance, mode: str) -> ColumnBatch:
    """One pure shortest-path (or tree) column per pricing problem.

    Runs zero-dual pricing under the original costs and emits every
    column regardless of sign, in group order (members in group order
    in path mode); this seeds the master so the demand rows are
    satisfiable without artificial help. Raises
    :class:`InfeasibleError` naming the commodities whose sink is
    unreachable from its source.
    """
    if mode not in (TREE, PATH):
        raise InputError(f"unknown mode {mode!r}")
    net = instance.network
    parts: list[ColumnBatch] = []
    unreachable: list[int] = []
    for block in _blocks(list(instance.groups), net.node_count):
        spt = dijkstra(net, net.cost, [g.source for g in block])
        sizes = [len(g.members) for g in block]
        ks = np.fromiter((k for g in block for k in g.members), np.int64, sum(sizes))
        rows = np.repeat(np.arange(len(block)), sizes)
        sinks = instance.sink[ks]
        reached = spt.settled[rows, sinks]
        if not reached.all():
            unreachable.extend(ks[~reached].tolist())
        if unreachable:
            continue
        if mode == TREE:
            parts.append(_tree_columns(instance, block, spt)[0])
        else:
            parts.append(_path_columns(net, spt, rows, sinks, ks))
    if unreachable:
        unreachable.sort()
        raise InfeasibleError(
            f"{len(unreachable)} commodities have unreachable sinks: "
            f"{unreachable[:10]}", owners=tuple(unreachable))
    return ColumnBatch.concat(parts)
