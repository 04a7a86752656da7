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
source's stop key, the largest dual among its group's commodities, past
which no destination can price out. Duals and minimum reduced costs are
owner-indexed float arrays (one entry per commodity in path mode, per
node in tree mode), NaN where unknown: no demand row has that owner, or
pricing did not reach it.

Columns leave pricing as one :class:`~mcflow.master.ColumnBatch` per
call, built straight from the kernel's parent-edge arrays: path columns
by walking every priced sink up its tree at once, tree columns from the
per-edge flows, with no Python object per column.

Tree pricing given each group's incumbent tree (as a parent-edge
matrix) emits several columns per group, in the sense of "multiple
columns per pricing iteration" (Lübbecke & Desrosiers 2005, "Selected
topics in column generation"): after an exact tree that prices out, one
rerouted tree for every branch tip of that tree whose tree path differs
from its incumbent path, which takes that path from the exact tree and
every other parent from the incumbent. All rerouted trees of a block are
costed together by the same level-by-level flow push, on a (candidates
x nodes) parent matrix, without another kernel call. The reported
minimum reduced cost stays the exact tree's, so Lagrangian bounds stay
valid.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
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
    """Dual values handed from the master to pricing, which never
    writes them. ``pi`` is the owner-indexed demand-row dual; a mapping
    from owner to dual is converted once, NaN at the ids it does not
    map. ``mu`` is the per-edge capacity dual, zero for inactive rows
    and nonpositive everywhere.
    """

    pi: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if isinstance(self.pi, Mapping):
            pi = np.full(max(self.pi, default=-1) + 1, np.nan)
            pi[list(self.pi)] = list(self.pi.values())
            object.__setattr__(self, "pi", pi)

    def of(self, owners: np.ndarray) -> np.ndarray:
        """``pi[owners]``; raises :class:`InputError` naming the first
        owner without a dual (an id past ``pi``, or NaN)."""
        pi = np.append(self.pi, np.nan)[np.minimum(owners, self.pi.size)]
        if np.isnan(pi).any():
            raise InputError(f"no dual for owner {int(owners[np.isnan(pi).argmax()])}")
        return pi


@dataclass
class PricingStats:
    """``runs`` counts the groups priced; ``early_stops`` the groups whose
    bounded or A* row left a sink of its group unsettled."""

    runs: int = 0
    early_stops: int = 0


@dataclass
class PricingOutcome:
    """Result of pricing one or more owners.

    ``columns`` is the batch of columns that price out, in group order.
    ``min_reduced_cost`` holds, per owner id, the most negative reduced
    cost clamped at zero (zero therefore means "proven nonnegative"),
    and NaN for ids of no priced group, such as owners skipped by a
    column limit or a deadline.
    """

    columns: ColumnBatch
    min_reduced_cost: np.ndarray
    stats: PricingStats = field(default_factory=PricingStats)


def adjusted_weights(net: Network, mu: np.ndarray) -> np.ndarray:
    """Pricing weights ``cost - mu``; nonnegative when mu <= 0."""
    w = net.cost - mu
    if np.any(w < 0):
        raise InputError("capacity duals must be nonpositive")
    return w


def _blocks(items: list, node_count: int, deadline: float | None = None):
    """Consecutive slices of ``items``, each as long as fits one kernel
    call's entry budget. No slice is yielded once ``time.perf_counter()``
    has passed ``deadline``."""
    size = max(1, SOURCE_BLOCK_ENTRIES // node_count)
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


def _sink_loads(groups: list[SourceGroup]):
    """``(row, sink, demand)`` arrays with one entry per sink of every
    group, ``row`` being the group's index, in group and sink order."""
    sizes = [len(g.sink_demands) for g in groups]
    total = sum(sizes)
    sinks = np.fromiter((t for g in groups for t in g.sink_demands), np.int64, total)
    demands = np.fromiter((d for g in groups for d in g.sink_demands.values()),
                          np.float64, total)
    return np.repeat(np.arange(len(groups)), sizes), sinks, demands


def _tree_flows(net: Network, parent_edge: np.ndarray, loads):
    """Demand-weighted flow per tree edge for every row of a parent-edge
    matrix (one tree per row).

    ``loads`` are ``(row, sink, demand)`` arrays; each sink's demand is
    pushed up its row's parent chain, all rows and all nodes of one depth
    at a time (deepest first). Returns ``(row, edge, flow)`` arrays over
    the edges that carry flow, sorted by row and then edge id. Every sink
    must be reached.
    """
    n = net.node_count
    rows, sinks, demands = loads
    up, levels = tree_levels(net, parent_edge)
    acc = np.zeros(parent_edge.size)
    acc[rows * n + sinks] = demands
    for level in reversed(levels):
        np.add.at(acc, up[level], acc[level])
    pe = parent_edge.reshape(-1)
    carry = np.flatnonzero((pe >= 0) & (acc > 0))
    row, edge = carry // n, pe[carry]
    order = np.lexsort((edge, row))
    return row[order], edge[order], acc[carry[order]]


def _tree_columns(net: Network, owners, parent_edge: np.ndarray, loads,
                  w: np.ndarray | None = None):
    """Tree columns of ``owners`` (one per parent-edge row) under the
    given sink loads, and each tree's weighted sum of ``w`` (None when
    ``w`` is None)."""
    row, edges, flows = _tree_flows(net, parent_edge, loads)
    count = len(owners)
    columns = ColumnBatch(TREE, owners, np.bincount(row, minlength=count), edges,
                          flows, np.bincount(row, weights=flows * net.cost[edges],
                                             minlength=count))
    weighted = None if w is None else \
        np.bincount(row, weights=flows * w[edges], minlength=count)
    return columns, weighted


def _rerouted_trees(net: Network, spt_parent: np.ndarray, incumbent: np.ndarray,
                    loads, trees: ColumnBatch, priced: np.ndarray, w: np.ndarray,
                    pi: np.ndarray, tolerance: float):
    """The extra tree columns of one block of groups.

    Row i of ``spt_parent`` and ``incumbent`` holds the parent edges of
    group i's exact tree (column i of ``trees``) and of its incumbent.
    For every group flagged by ``priced`` whose incumbent reaches all its
    sinks, and for every branch tip of its exact tree (a sink no other
    sink's tree path passes through) whose tree path differs from its
    incumbent path, the candidate takes the exact tree's parent edge at
    each node of that path and the incumbent's everywhere else: an
    arborescence rooted at the source that reaches every sink. A sink
    inside a branch gets no candidate of its own, because the tip's
    candidate reroutes its path too. Candidates equal to the exact tree
    are dropped; the others are costed in chunks of at most
    ``SOURCE_BLOCK_ENTRIES`` parent-matrix entries and kept when their
    reduced cost is below ``-tolerance``.

    Returns the kept columns, their group indices and reduced costs.
    """
    n = net.node_count
    rows, sinks, demands = loads
    exact, inc = spt_parent.reshape(-1), incumbent.reshape(-1)
    # Nodes of each exact tree that carry flow, and its branch tips: the
    # sinks no other sink's tree path passes through.
    on_tree = np.zeros(spt_parent.shape, dtype=bool)
    on_tree[trees.col_of, net.head[trees.edges]] = True
    tip = on_tree.copy()
    tip[trees.col_of, net.tail[trees.edges]] = False
    reach = np.ones(priced.size, dtype=bool)
    reach[rows[incumbent[rows, sinks] < 0]] = False
    load = np.flatnonzero((priced & reach)[rows] & tip[rows, sinks])
    # Walk all their tree paths up at once, one step per pass, keeping
    # the (load, flat node) pairs where the tree and incumbent disagree.
    at = rows[load] * n + sinks[load]
    live = np.arange(load.size)
    pos, nodes = [live[:0]], [at[:0]]
    while live.size:
        e = exact[at[live]]
        live, e = live[e >= 0], e[e >= 0]
        node = at[live]
        off = e != inc[node]
        pos.append(live[off])
        nodes.append(node[off])
        at[live] = node - node % n + net.tail[e]
    pos, nodes = np.concatenate(pos), np.concatenate(nodes)
    differs = np.zeros(load.size, dtype=bool)
    differs[pos] = True
    load = load[differs]
    pos = (np.cumsum(differs) - 1)[pos]         # candidate of each pair

    sizes = np.bincount(rows, minlength=priced.size)
    first = np.cumsum(sizes) - sizes
    parts, groups, reduced = [], [], []
    chunk = max(1, SOURCE_BLOCK_ENTRIES // n)
    for lo in range(0, load.size, chunk):
        group = rows[load[lo:lo + chunk]]
        cand = incumbent[group]
        mine = (pos >= lo) & (pos < lo + chunk)
        cand.reshape(-1)[(pos[mine] - lo) * n + nodes[mine] % n] = exact[nodes[mine]]
        # A candidate that agrees with the exact tree on every node
        # carrying flow there is that tree.
        fresh = ~np.all((cand == spt_parent[group]) | ~on_tree[group], axis=1)
        group, cand = group[fresh], cand[fresh]
        if not group.size:
            continue
        # Each candidate carries all the sink loads of its group.
        count = sizes[group]
        pick = np.repeat(first[group] - (np.cumsum(count) - count), count) \
            + np.arange(int(count.sum()))
        columns, weighted = _tree_columns(
            net, trees.owner[group], cand,
            (np.repeat(np.arange(group.size), count), sinks[pick], demands[pick]), w)
        rc = weighted - pi[group]
        keep = np.flatnonzero(rc < -tolerance)
        parts.append(columns.take(keep))
        groups.append(group[keep])
        reduced.append(rc[keep])
    if not parts:
        return ColumnBatch(TREE, [], [], [], [], []), np.zeros(0, np.int64), np.zeros(0)
    return ColumnBatch.concat(parts), np.concatenate(groups), np.concatenate(reduced)


def limit_cut(found_per_entry: np.ndarray, ends: np.ndarray, found: int,
              column_limit: int | None) -> int | None:
    """Groups to keep of a block whose groups end at entries ``ends``,
    entry i emitting ``found_per_entry[i]`` columns: up to the first
    group that brings the columns found to ``column_limit`` (``found``
    before the block), or None when no group does."""
    if column_limit is None:
        return None
    hit = np.flatnonzero(found + np.cumsum(found_per_entry)[ends - 1] >= column_limit)
    return int(hit[0]) + 1 if hit.size else None


def price_paths(instance: Instance, groups, duals: DualSnapshot,
                strategy: str = "full", bounds: HeuristicBounds | None = None,
                tolerance: float = 0.0, column_limit: int | None = None,
                deadline: float | None = None) -> PricingOutcome:
    """Price the path columns of one source group or a sequence of them.

    One kernel call covers all groups (per block of sources), under the
    weights :func:`adjusted_weights` derives from ``duals.mu``: a
    commodity's reduced cost is ``dist[sink] - pi`` in its group's row,
    and its shortest path is emitted when that is below ``-tolerance``.
    The ``bounded`` and ``astar`` strategies stop each group's row at
    the largest dual among its commodities and may leave sinks
    unsettled, but any such sink is then proven to have no negative
    path, so the clamped reduced-cost map stays exact.

    Args:
        bounds: A* heuristic shared by all groups, admissible for every
            sink priced.
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
    w = adjusted_weights(net, duals.mu)

    parts, stats, found = [], PricingStats(), 0
    min_rc = np.full(len(instance.commodities), np.nan)
    for block in _blocks(_as_groups(groups), net.node_count, deadline):
        sources = [g.source for g in block]
        sizes = [len(g.members) for g in block]
        ks = np.fromiter((k for g in block for k in g.members), np.int64, sum(sizes))
        rows = np.repeat(np.arange(len(block)), sizes)
        sinks = instance.sink[ks]
        pi = duals.of(ks)
        ends = np.cumsum(sizes)
        if strategy == "full":
            spt = dijkstra(net, w, sources)
        else:
            stops = np.maximum.reduceat(pi, ends - sizes)
            if strategy == "bounded":
                spt = dijkstra_bounded(net, w, sources, stops)
            else:
                spt = astar(net, w, sources, stops, bounds)

        settled = spt.settled[rows, sinks]
        rc = spt.dist[rows, sinks] - pi
        negative = settled & (rc < -tolerance)
        cut = limit_cut(negative, ends, found, column_limit)
        count = len(block) if cut is None else cut
        upto = int(ends[count - 1])
        keep = np.flatnonzero(negative[:upto])
        parts.append(_path_columns(net, spt, rows[keep], sinks[keep], ks[keep]))
        found += keep.size
        min_rc[ks[:upto]] = np.where(settled, np.minimum(rc, 0.0), 0.0)[:upto]
        stats.runs += count
        if strategy != "full":
            stats.early_stops += np.unique(rows[:upto][~settled[:upto]]).size
        if cut is not None:
            break
    return PricingOutcome(ColumnBatch.concat(parts), min_rc, stats)


def price_tree(instance: Instance, groups, duals: DualSnapshot,
               tolerance: float = 0.0, column_limit: int | None = None,
               deadline: float | None = None,
               incumbents: np.ndarray | None = None) -> PricingOutcome:
    """Price the tree columns of one source group or a sequence of them.

    The shortest-path tree under the weights :func:`adjusted_weights`
    derives from ``duals.mu`` minimizes every member path
    simultaneously, so it minimizes the demand-weighted reduced cost
    over all trees covering the group's sinks; the reported minimum is
    therefore exact. One kernel call covers all groups (per block of
    sources).

    ``incumbents``, one row per group, holds the parent edge of every
    node in the group's incumbent tree (-1 elsewhere). With it, a group
    whose exact tree prices out also emits, after that tree, rerouted
    trees: one per branch tip of the exact tree (a sink no other sink's
    tree path passes through) whose tree path differs from its
    incumbent path, in which that path's nodes take their tree parent
    and every other node keeps its incumbent parent. Those that price
    out are emitted, most negative first; the kernel is not called
    again, and the reported minimum stays the exact tree's.

    ``column_limit`` counts every emitted column: pricing stops after
    the group that brings them to the limit, and that group keeps its
    exact tree and then its most negative rerouted trees up to the
    limit. ``deadline`` is as in :func:`price_paths`.
    """
    net = instance.network
    w = adjusted_weights(net, duals.mu)
    parts, stats, found, start = [], PricingStats(), 0, 0
    min_rc = np.full(net.node_count, np.nan)
    for block in _blocks(_as_groups(groups), net.node_count, deadline=deadline):
        sources = [g.source for g in block]
        pi = duals.of(np.array(sources))
        spt = dijkstra(net, w, sources)
        for i, g in enumerate(block):
            missing = [t for t in g.sink_demands if not spt.settled[i, t]]
            if missing:
                raise InfeasibleError(
                    f"sinks {missing} unreachable from source {g.source}",
                    owners=tuple(k for k in g.members if instance.sink[k] in missing))
        ends = np.arange(1, len(block) + 1)
        loads = _sink_loads(block)
        trees, weighted = _tree_columns(net, sources, spt.parent_edge, loads, w)
        reduced = weighted - pi
        negative = reduced < -tolerance
        # Rerouted trees only add columns, so the limit is reached no
        # later than by the exact trees alone.
        count = limit_cut(negative, ends, found, column_limit) or len(block)
        group = np.flatnonzero(negative[:count])
        emitted = trees.take(group)
        if incumbents is not None and group.size:
            priced = np.zeros(len(block), dtype=bool)
            priced[group] = True
            extra, extra_group, extra_rc = _rerouted_trees(
                net, spt.parent_edge, incumbents[start:start + len(block)], loads,
                trees, priced, w, pi, tolerance)
            # Group order; in a group the exact tree, then by reduced cost.
            order = np.lexsort((np.concatenate([np.full(group.size, -np.inf), extra_rc]),
                                np.concatenate([group, extra_group])))
            emitted = ColumnBatch.concat([emitted, extra]).take(order)
            group = np.concatenate([group, extra_group])[order]
            cut = limit_cut(np.bincount(group, minlength=count), ends[:count], found,
                            column_limit)
            if cut is not None:
                count = cut
                emitted = emitted[:column_limit - found]
        parts.append(emitted)
        found += len(emitted)
        min_rc[sources[:count]] = np.minimum(reduced[:count], 0.0)
        stats.runs += count
        start += len(block)
        if column_limit is not None and found >= column_limit:
            break
    return PricingOutcome(ColumnBatch.concat(parts), min_rc, stats)


def lagrangian_bound(rmp_objective: float, min_reduced_costs: np.ndarray,
                     owner_weights: np.ndarray) -> float | None:
    """Valid lower bound from a complete pricing round.

    Lowering each demand dual by its owner's most negative reduced cost
    makes the master duals feasible for the full problem, which shifts
    the dual objective by the weighted reduced costs. Both arrays are
    owner-indexed, ``owner_weights`` zero at ids that own no row. Returns
    None when an owner with a weight has an unknown (NaN) minimum.
    """
    # Ids without a weight count 0, so a NaN total means an owner's is unknown.
    total = float(owner_weights @ np.where(owner_weights != 0,
                                           np.minimum(min_reduced_costs, 0.0), 0.0))
    return None if np.isnan(total) else rmp_objective + total


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
            parts.append(_tree_columns(net, [g.source for g in block],
                                       spt.parent_edge, _sink_loads(block))[0])
        else:
            parts.append(_path_columns(net, spt, rows, sinks, ks))
    if unreachable:
        unreachable.sort()
        raise InfeasibleError(
            f"{len(unreachable)} commodities have unreachable sinks: "
            f"{unreachable[:10]}", owners=tuple(unreachable))
    return ColumnBatch.concat(parts)
