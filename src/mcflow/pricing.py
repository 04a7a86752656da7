"""Column pricing: batched shortest paths and shortest-path trees.

A pricing round runs the shortest-path kernel once over the sources of
all groups it prices, one row per group; rounds over very many sources
run once per block of sources, so that a block's dense per-node arrays
stay below ``SOURCE_BLOCK_ENTRIES`` entries. A round given a deadline
starts no block once that has passed; the owners of later blocks are
then left unpriced. A group's row classifies every member commodity at
once; tree pricing additionally pushes the member demands up the tree,
one depth level at a time, to obtain the edge flow coefficients. A
block's members and sink loads are read from the instance's flat group
arrays (:class:`~mcflow.instance.GroupArrays`), so no round loops in
Python over commodities or sinks.
Reduced costs use the dual-adjusted weights ``cost - mu`` which are
nonnegative by the master's dual normalization, so Dijkstra applies.
The ``bounded`` and ``astar`` strategies settle only nodes below each
source's stop key, the largest dual among its group's commodities, past
which no destination can price out. Duals and minimum reduced costs are
owner-indexed float arrays (one entry per commodity in path mode, per
node in tree mode), NaN where unknown: no demand row has that owner, or
pricing did not reach it. A sink that a full kernel row leaves unsettled
is unreachable, and the call raises one ``InfeasibleError`` naming every
such commodity. The seed columns are one call at zero duals.

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
x nodes) parent matrix, without another kernel call, in chunks; a
round past its deadline starts no further chunk. The reported minimum
reduced cost stays the exact tree's, so Lagrangian bounds stay valid.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError
from .graph import (SOURCE_BLOCK_ENTRIES, HeuristicBounds, Network, SptResult,
                    astar, dijkstra, dijkstra_bounded, tree_levels)
from .instance import GroupArrays, Instance, SourceGroup
from .master import PATH, TREE, ColumnBatch


@dataclass(frozen=True)
class DualSnapshot:
    """Dual values handed from the master to pricing, which never
    writes them. ``pi`` is the owner-indexed demand-row dual; a mapping
    from owner to dual is converted once, NaN at the ids it does not
    map, and a negative owner id raises :class:`InputError`. ``mu`` is
    the per-edge capacity dual, zero for inactive rows and nonpositive
    everywhere.
    """

    pi: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if isinstance(self.pi, Mapping):
            if min(self.pi, default=0) < 0:
                raise InputError(f"owner id {min(self.pi)} is negative")
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
    and NaN for ids of no priced group, such as the owners of blocks a
    deadline left unpriced.
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


def _blocks(items: np.ndarray, node_count: int, deadline: float | None = None):
    """Consecutive slices of ``items``, each as long as fits one kernel
    call's entry budget. No slice is yielded once ``time.perf_counter()``
    has passed ``deadline``."""
    size = max(1, SOURCE_BLOCK_ENTRIES // node_count)
    for lo in range(0, len(items), size):
        if deadline is not None and time.perf_counter() > deadline:
            return
        yield items[lo:lo + size]


def _unreachable(ks: list[int]) -> InfeasibleError:
    """The error naming the commodities ``ks``, whose sinks are unreachable."""
    ks = sorted(ks)
    return InfeasibleError(f"{len(ks)} commodities have unreachable sinks: {ks[:10]}",
                           owners=tuple(ks))


def _group_index(flat: GroupArrays, groups) -> np.ndarray:
    """Positions in the instance's groups of one source group or a
    sequence of them, found by source; raises :class:`InputError` for a
    source that has no group in the instance."""
    groups = [groups] if isinstance(groups, SourceGroup) else groups
    sources = np.array([g.source for g in groups], dtype=np.int64)
    index = np.searchsorted(flat.source, sources)
    known = index < flat.source.size
    known[known] = flat.source[index[known]] == sources[known]
    if not known.all():
        raise InputError(f"source {sources[~known][0]} has no group in the instance")
    return index


def _entries(start: np.ndarray, block: np.ndarray):
    """``(row, index)`` of every entry of the groups ``block``, whose
    entries lie at ``start[g]:start[g + 1]`` of a :class:`GroupArrays`
    array, in group order; ``row`` is the group's position in ``block``."""
    lo, sizes = start[block], start[block + 1] - start[block]
    row = np.repeat(np.arange(block.size), sizes)
    return row, np.arange(row.size) + (lo - np.cumsum(sizes) + sizes)[row]


def _members(flat: GroupArrays, block: np.ndarray):
    """``(row, commodity)`` arrays over the members of the groups
    ``block``, in group and member order."""
    row, at = _entries(flat.member_start, block)
    return row, flat.members[at]


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
    # Each path's cost, summed from its source end as the path runs.
    cost = np.zeros(commodities.size)
    for e in reversed(steps):
        cost += np.where(e >= 0, net.cost[e], 0.0)
    # One row per path in path order, -1 padding in front of short paths.
    edges = np.array(steps[::-1]).T
    used = edges >= 0
    flat = edges[used]
    return ColumnBatch(PATH, commodities, used.sum(axis=1), flat, np.ones(flat.size),
                       cost)


def _sink_loads(flat: GroupArrays, block: np.ndarray):
    """``(row, sink, demand)`` arrays with one entry per sink of every
    group of ``block``, ``row`` being the group's position in ``block``,
    in group and sink order."""
    row, at = _entries(flat.load_start, block)
    return row, flat.sink[at], flat.demand[at]


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
    order = np.argsort(row * net.edge_count + edge)     # unique keys
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
                    pi: np.ndarray, tolerance: float, deadline: float | None = None):
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
    reduced cost is below ``-tolerance``. No chunk is started once
    ``time.perf_counter()`` has passed ``deadline``; the columns kept
    from earlier chunks are returned.

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
        if deadline is not None and time.perf_counter() > deadline:
            break
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


def price_paths(instance: Instance, groups, duals: DualSnapshot,
                strategy: str = "full", bounds: HeuristicBounds | None = None,
                tolerance: float = 0.0, deadline: float | None = None
                ) -> PricingOutcome:
    """Price the path columns of one source group or a sequence of them.

    One kernel call covers all groups (per block of sources), under the
    weights :func:`adjusted_weights` derives from ``duals.mu``: a
    commodity's reduced cost is ``dist[sink] - pi`` in its group's row,
    and its shortest path is emitted when that is below ``-tolerance``,
    in group and member order.
    The ``bounded`` and ``astar`` strategies stop each group's row at
    the largest dual among its commodities and may leave sinks
    unsettled, but any such sink is then proven to have no negative
    path, so the clamped reduced-cost map stays exact. Under ``full``,
    unreached sinks raise one :class:`InfeasibleError` naming them all.

    Args:
        bounds: A* heuristic shared by all groups, admissible for every
            sink priced.
        deadline: A ``time.perf_counter()`` value after which no further
            block of sources is priced; later groups are not reported.
    """
    if strategy not in ("full", "bounded", "astar"):
        raise InputError(f"unknown pricing strategy {strategy!r}")
    if strategy == "astar" and bounds is None:
        raise InputError("astar pricing requires heuristic bounds")
    net = instance.network
    w = adjusted_weights(net, duals.mu)

    flat = instance.group_arrays
    parts, stats, unreachable = [], PricingStats(), []
    min_rc = np.full(len(instance.commodities), np.nan)
    for block in _blocks(_group_index(flat, groups), net.node_count, deadline):
        sources = flat.source[block]
        rows, ks = _members(flat, block)
        sinks = instance.sink[ks]
        pi = duals.of(ks)
        if strategy == "full":
            spt = dijkstra(net, w, sources)
        else:
            sizes = flat.member_start[block + 1] - flat.member_start[block]
            stops = np.maximum.reduceat(pi, np.cumsum(sizes) - sizes)
            if strategy == "bounded":
                spt = dijkstra_bounded(net, w, sources, stops)
            else:
                spt = astar(net, w, sources, stops, bounds)

        settled = spt.settled[rows, sinks]
        rc = spt.dist[rows, sinks] - pi
        keep = settled & (rc < -tolerance)
        picked = (rows, sinks, ks) if keep.all() else (rows[keep], sinks[keep], ks[keep])
        parts.append(_path_columns(net, spt, *picked))
        min_rc[ks] = np.where(settled, np.minimum(rc, 0.0), 0.0)
        stats.runs += len(block)
        if strategy == "full":
            unreachable.extend(ks[~settled].tolist())
        else:
            stats.early_stops += np.unique(rows[~settled]).size
    if unreachable:
        raise _unreachable(unreachable)
    return PricingOutcome(ColumnBatch.concat(parts), min_rc, stats)


def price_tree(instance: Instance, groups, duals: DualSnapshot,
               tolerance: float = 0.0, deadline: float | None = None,
               incumbents: np.ndarray | None = None) -> PricingOutcome:
    """Price the tree columns of one source group or a sequence of them.

    The shortest-path tree under the weights :func:`adjusted_weights`
    derives from ``duals.mu`` minimizes every member path
    simultaneously, so it minimizes the demand-weighted reduced cost
    over all trees covering the group's sinks; the reported minimum is
    therefore exact. One kernel call covers all groups (per block of
    sources). Unreached sinks raise one :class:`InfeasibleError` naming
    them all, as in :func:`price_paths`.

    ``incumbents``, one row per group, holds the parent edge of every
    node in the group's incumbent tree (-1 elsewhere). With it, a group
    whose exact tree prices out also emits, after that tree, rerouted
    trees: one per branch tip of the exact tree (a sink no other sink's
    tree path passes through) whose tree path differs from its
    incumbent path, in which that path's nodes take their tree parent
    and every other node keeps its incumbent parent. Those that price
    out are emitted, most negative first; the kernel is not called
    again, and the reported minimum stays the exact tree's. Columns come
    in group order.

    ``deadline`` is as in :func:`price_paths`, and once it has passed no
    further chunk of rerouted trees is costed either: a group then keeps
    its exact tree and the rerouted trees costed so far.
    """
    net = instance.network
    w = adjusted_weights(net, duals.mu)
    flat = instance.group_arrays
    parts, stats, start, unreachable = [], PricingStats(), 0, []
    min_rc = np.full(net.node_count, np.nan)
    for block in _blocks(_group_index(flat, groups), net.node_count, deadline=deadline):
        sources = flat.source[block]
        pi = duals.of(sources)
        spt = dijkstra(net, w, sources)
        rows, ks = _members(flat, block)
        unreachable.extend(ks[~spt.settled[rows, instance.sink[ks]]].tolist())
        if unreachable:
            continue
        loads = _sink_loads(flat, block)
        trees, weighted = _tree_columns(net, sources, spt.parent_edge, loads, w)
        reduced = weighted - pi
        negative = reduced < -tolerance
        group = np.flatnonzero(negative)
        emitted = trees if negative.all() else trees.take(group)
        if incumbents is not None and group.size:
            extra, extra_group, extra_rc = _rerouted_trees(
                net, spt.parent_edge, incumbents[start:start + len(block)], loads,
                trees, negative, w, pi, tolerance, deadline)
            # Group order; in a group the exact tree, then by reduced cost.
            order = np.lexsort((np.concatenate([np.full(group.size, -np.inf), extra_rc]),
                                np.concatenate([group, extra_group])))
            emitted = ColumnBatch.concat([emitted, extra]).take(order)
        parts.append(emitted)
        min_rc[sources] = np.minimum(reduced, 0.0)
        stats.runs += len(block)
        start += len(block)
    if unreachable:
        raise _unreachable(unreachable)
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
    """One pure shortest-path (or tree) column per pricing problem: the
    columns of one full-kernel :func:`price_tree` or :func:`price_paths`
    call over every group at zero duals and tolerance -inf, so that every
    owner prices out, in group order. They seed the master so the demand
    rows are satisfiable without artificial help; unreachable sinks raise
    :class:`InfeasibleError` naming their commodities.
    """
    if mode not in (TREE, PATH):
        raise InputError(f"unknown mode {mode!r}")
    net = instance.network
    pi = np.zeros(net.node_count if mode == TREE else len(instance.commodities))
    duals = DualSnapshot(pi, np.zeros(net.edge_count))
    price = price_tree if mode == TREE else price_paths
    return price(instance, instance.groups, duals, tolerance=-np.inf).columns
