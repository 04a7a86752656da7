"""Directed-graph storage and the shortest-path kernels used by pricing.

The graph is an immutable edge list with a compressed index of each
node's entering edges, built once per instance, plus an index of its
distinct (tail, head) pairs built on the first kernel call. Every
kernel runs SciPy's compiled ``scipy.sparse.csgraph.dijkstra``: a call
builds one sparse matrix from its weight vector, keeping per (tail,
head) pair the cheapest parallel edge (ties go to the smallest edge id)
and dropping self-loops, and runs Dijkstra from one source or from a
whole batch of sources at once. Zero weights are kept as explicit
entries, which csgraph treats as edges. csgraph returns predecessor
nodes; the pair (u, v) of a node v reached from u is found by a search
for column v inside row u of the pair index, which is the matrix's own
CSR layout, and that pair's chosen edge is v's parent edge.

A kernel given an int source returns 1-D labels; given a sequence of
sources it returns one row per source, as csgraph does with its own
``indices``. Distances use 64-bit floats with ``math.inf`` as the
"unreached" sentinel. Among equally short paths through different
nodes, the tree keeps whichever csgraph found first; identical inputs
always produce identical trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
# SciPy's private, compiled lookup of (row, column) entries of a CSR
# matrix with sorted, unique columns: a binary search inside each row.
from scipy.sparse._sparsetools import csr_sample_offsets
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import InputError, InternalError

INF = math.inf

# Upper bound on the entries of one dense (rows x nodes) working array of
# pricing: a kernel call's labels or a chunk of candidate trees' parents.
SOURCE_BLOCK_ENTRIES = 1 << 22


class Network:
    """Immutable directed network with per-edge cost and capacity.

    Parallel edges and self-loops are permitted (real road networks
    contain both); self-loops are never relaxed.

    Attributes:
        node_count: Number of nodes; ids are 0..node_count-1.
        edge_count: Number of edges; ids are 0..edge_count-1.
        tail: Per-edge tail node id (int64 array).
        head: Per-edge head node id (int64 array).
        cost: Per-edge nonnegative cost (float64 array).
        capacity: Per-edge nonnegative capacity (float64 array).
    """

    __slots__ = ("node_count", "edge_count", "tail", "head", "cost", "capacity",
                 "_in_start", "_in_edges", "_pairs")

    def __init__(self, node_count: int, edges):
        if node_count < 1:
            raise InputError(f"node_count must be positive, got {node_count}")
        edges = list(edges)
        tail = np.array([e[0] for e in edges], dtype=np.int64)
        head = np.array([e[1] for e in edges], dtype=np.int64)
        cost = np.array([e[2] for e in edges], dtype=np.float64)
        capacity = np.array([e[3] for e in edges], dtype=np.float64)
        if edges:
            bad = np.flatnonzero((tail < 0) | (tail >= node_count)
                                 | (head < 0) | (head >= node_count))
            if bad.size:
                e = int(bad[0])
                raise InputError(
                    f"edge {e} endpoint out of range: ({tail[e]}, {head[e]}) "
                    f"with {node_count} nodes")
            if not np.all(np.isfinite(cost)) or np.any(cost < 0):
                raise InputError("edge costs must be finite and nonnegative")
            if np.any(np.isnan(capacity)) or np.any(capacity < 0):
                raise InputError("edge capacities must be nonnegative")
        self.node_count = int(node_count)
        self.edge_count = len(edges)
        self.tail = tail
        self.head = head
        self.cost = cost
        self.capacity = capacity
        self._in_start = _offsets(head, node_count)
        self._in_edges = stable_argsort(head)
        self._pairs: _PairIndex | None = None
        for a in (self.tail, self.head, self.cost, self.capacity,
                  self._in_start, self._in_edges):
            a.setflags(write=False)

    def in_edges(self, v: int) -> np.ndarray:
        """Edge ids entering node v, ordered by edge id."""
        return self._in_edges[self._in_start[v]:self._in_start[v + 1]]

    def _pair_index(self) -> "_PairIndex":
        """The (tail, head) pair index of the kernels, built on first use so
        that instances never priced do not pay for it."""
        if self._pairs is None:
            self._pairs = _PairIndex.build(self.tail, self.head, self.node_count)
        return self._pairs

    def check_node(self, v: int) -> int:
        if not 0 <= v < self.node_count:
            raise InputError(f"node id {v} out of range [0, {self.node_count})")
        return int(v)

    def __repr__(self) -> str:
        return f"Network(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class _PairIndex:
    """The distinct (tail, head) pairs of the non-loop edges.

    Pairs are sorted by ``tail * node_count + head``, which is also the
    row-major order of a CSR matrix, so pair i is stored entry i.
    ``edges`` lists the non-loop edge ids sorted by (pair, edge id),
    ``start[i]`` is where pair i's parallel edges begin in it and
    ``pair_of[j]`` is the pair of ``edges[j]``.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray       # int32, the CSR column indices
    indptr: np.ndarray      # int32, the CSR row offsets
    edges: np.ndarray
    start: np.ndarray
    pair_of: np.ndarray

    @staticmethod
    def build(tail: np.ndarray, head: np.ndarray, node_count: int) -> "_PairIndex":
        edges = np.flatnonzero(tail != head)
        keys = tail[edges] * node_count + head[edges]
        # Edge ids ascend, so the stable sort breaks key ties by edge id.
        order = stable_argsort(keys)
        edges, keys = edges[order], keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        start = np.flatnonzero(first)
        pair_keys = keys[start]
        tails = pair_keys // node_count
        index = _PairIndex(node_count, tails,
                           (pair_keys % node_count).astype(np.int32),
                           _offsets(tails, node_count), edges, start,
                           np.cumsum(first) - 1)
        for a in vars(index).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return index

    def cheapest(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the lowest weight and the smallest edge id carrying it."""
        wp = w[self.edges]
        if self.start.size == wp.size:      # no parallel edges
            return wp, self.edges
        best = np.minimum.reduceat(wp, self.start)
        hit = np.flatnonzero(wp == best[self.pair_of])
        first = np.ones(hit.size, dtype=bool)
        first[1:] = self.pair_of[hit[1:]] != self.pair_of[hit[:-1]]
        return best, self.edges[hit[first]]

    def matrix(self, weights: np.ndarray, keep: np.ndarray | None = None) -> csr_matrix:
        """CSR matrix holding ``weights`` per pair, optionally only the kept
        pairs; zero weights stay stored entries."""
        n = self.node_count
        if keep is None:
            return csr_matrix((weights, self.heads, self.indptr), shape=(n, n))
        return csr_matrix((weights[keep], self.heads[keep],
                           _offsets(self.tails[keep], n)), shape=(n, n))


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of nonnegative integer keys.

    The keys are cast to the narrowest unsigned type that holds them,
    which lets NumPy sort 8- and 16-bit keys by radix. Below a few hundred
    keys the cast costs more than radix sorting saves, so short arrays are
    sorted as they are.
    """
    if keys.size < 256:
        return np.argsort(keys, kind="stable")
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))),
                      kind="stable")


def _offsets(rows: np.ndarray, node_count: int) -> np.ndarray:
    """int32 CSR row offsets for the entries of ``rows`` sorted by row."""
    indptr = np.zeros(node_count + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
    return indptr


@dataclass
class SptResult:
    """Labels produced by one shortest-path run from one or more sources.

    A run from an int source holds 1-D per-node arrays; a run from a
    sequence of sources holds one row per source.

    Attributes:
        dist: Distance labels of settled nodes; ``math.inf`` for every
            other node.
        parent_edge: Incoming tree edge id of settled nodes, -1 for the
            source and every node that is not settled. Parent edges of
            settled nodes form a tree rooted at the source.
        settled: True exactly for nodes whose label is final and below
            the run's stop key.
    """

    dist: np.ndarray
    parent_edge: np.ndarray
    settled: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """Flat indices of the settled (source, node) pairs, row-major;
        node ids for a single-source run."""
        return np.flatnonzero(self.settled)


@dataclass(frozen=True)
class HeuristicBounds:
    """Admissible, consistent lower bounds to a fixed destination set.

    ``h[v]`` underestimates the distance from v to the nearest bounded
    destination under the weights the bounds were built for, and stays
    valid for any heavier weight vector.
    """

    h: np.ndarray


def _check_weights(net: Network, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (net.edge_count,):
        raise InputError(f"weight vector has shape {w.shape}, expected ({net.edge_count},)")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise InputError("edge weights must be finite and nonnegative")
    return w


def _check_sources(net: Network, sources) -> int | np.ndarray:
    """An int source stays an int; a sequence becomes an int64 array."""
    if np.ndim(sources) == 0:
        return net.check_node(int(sources))
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = np.flatnonzero((src < 0) | (src >= net.node_count))
    if bad.size:
        net.check_node(int(src[bad[0]]))
    return src


def _stop_keys(net: Network, sources, stops) -> np.ndarray:
    """Per source, its stop key: for an int source a 0-d array holding
    the largest dual of its destination map, else the given keys."""
    if np.ndim(sources) == 0:
        if not stops:
            raise InputError("the destination map must be nonempty")
        for t in stops:
            net.check_node(t)
        return np.array(max(stops.values()), dtype=np.float64)
    keys = np.asarray(stops, dtype=np.float64)
    if keys.shape != (np.size(sources),):
        raise InputError(f"stop keys of shape {keys.shape} for {np.size(sources)} sources")
    return keys


def _shortest_paths(net: Network, matrix: csr_matrix, pair_edges: np.ndarray,
                    sources, limit: float = INF):
    """One csgraph call; returns distances and parent edge ids.

    A reached node's predecessor u and the node v name the pair (u, v),
    found by a search inside row u of the pair index; ``pair_edges``
    gives the edge that pair stands for.
    """
    dist, pred = _csgraph_dijkstra(matrix, directed=True, indices=sources,
                                   return_predecessors=True, limit=limit)
    n = net.node_count
    pairs = net._pair_index()
    flat = pred.reshape(-1)
    has = np.flatnonzero(flat >= 0)
    pos = np.empty(has.size, dtype=np.int32)
    csr_sample_offsets(n, n, pairs.indptr, pairs.heads, has.size, flat[has],
                       (has % n).astype(np.int32), pos)
    parent = np.full(pred.shape, -1, dtype=np.int64)
    parent.reshape(-1)[has] = pair_edges[pos]
    return dist, parent


def tree_levels(net: Network, parent_edge: np.ndarray):
    """Group the non-root nodes of shortest-path trees by depth.

    Returns ``(up, levels)``: ``up`` maps each flat index of
    ``parent_edge`` to the flat index of its tree parent (-1 for roots
    and unreached nodes), and ``levels[d]`` holds the flat indices of
    the nodes at depth d + 1, so every parent of ``levels[d]`` is a root
    or in ``levels[d - 1]``, and each level is in flat-index order.
    Depths come from pointer jumping, which needs log2(depth) vectorized
    passes.
    """
    pe = parent_edge.reshape(-1)
    n = net.node_count
    idx = np.flatnonzero(pe >= 0)
    up = np.full(pe.size, -1, dtype=np.int64)
    up[idx] = idx - idx % n + net.tail[pe[idx]]
    depth = (pe >= 0).astype(np.int64)
    anc = up.copy()
    live = idx
    while live.size:
        a = anc[live]
        depth[live] += depth[a]
        anc[live] = anc[a]
        live = live[anc[live] >= 0]
    node_depth = depth[idx]
    ordered = idx[stable_argsort(node_depth)]
    ends = np.cumsum(np.bincount(node_depth)[1:]).tolist() if idx.size else []
    return up, [ordered[lo:hi] for lo, hi in zip([0] + ends, ends)]


def dijkstra(net: Network, w: np.ndarray, sources) -> SptResult:
    """Shortest paths under nonnegative weights from one or many sources.

    Args:
        net: The network.
        w: Per-edge nonnegative weights.
        sources: Start node, or a sequence of start nodes (one result
            row each).

    Returns:
        Exact distance labels; every reachable node is settled and
        unreached nodes carry inf.
    """
    w = _check_weights(net, w)
    sources = _check_sources(net, sources)
    pairs = net._pair_index()
    weights, pair_edges = pairs.cheapest(w)
    dist, parent = _shortest_paths(net, pairs.matrix(weights), pair_edges, sources)
    return SptResult(dist, parent, np.isfinite(dist))


def dijkstra_bounded(net: Network, w: np.ndarray, sources,
                     stops) -> SptResult:
    """Dijkstra with the early stop test for pricing.

    A source's run settles exactly the nodes at distance below its stop
    key, the largest dual among its destinations: past that key no
    destination can be settled at a distance below its dual, so no
    further negative classification is possible. Labels of settled
    nodes are identical to a full run. One csgraph call serves all
    sources, limited at the largest stop key.

    Args:
        sources: Start node, or a sequence of start nodes.
        stops: For an int source, a nonempty map destination node ->
            dual value, whose largest value is the stop key; a
            destination t is classified negative iff it is settled with
            ``dist[t] < stops[t]``. For a sequence of sources, one stop
            key per source (a float array of the same length).
    """
    w = _check_weights(net, w)
    sources = _check_sources(net, sources)
    keys = _stop_keys(net, sources, stops)
    pairs = net._pair_index()
    weights, pair_edges = pairs.cheapest(w)
    dist, parent = _shortest_paths(net, pairs.matrix(weights), pair_edges,
                                   sources, limit=max(0.0, float(keys.max())))
    return _settled_only(dist, parent, dist < keys[..., None])


def _settled_only(dist: np.ndarray, parent: np.ndarray,
                  settled: np.ndarray) -> SptResult:
    """Clear the labels of nodes that are not settled, so a row does not
    depend on how far the shared limit let csgraph run past its key."""
    dist[~settled] = INF
    parent[~settled] = -1
    return SptResult(dist, parent, settled)


def _check_consistency(net: Network, w: np.ndarray, h: np.ndarray) -> None:
    """Raise naming the first edge with h(tail) > w + h(head) among edges
    whose endpoints both have finite bounds."""
    ht, hh = h[net.tail], h[net.head]
    with np.errstate(invalid="ignore"):
        bad = (net.tail != net.head) & np.isfinite(ht) & np.isfinite(hh) \
            & (ht > w + hh + 1e-9 * (1.0 + np.abs(ht)))
    if bad.any():
        e = int(np.flatnonzero(bad)[0])
        raise InternalError(
            f"inconsistent heuristic on edge {e}: "
            f"h({net.tail[e]})={ht[e]!r} > w={w[e]!r} + h({net.head[e]})={hh[e]!r}")


def astar(net: Network, w: np.ndarray, sources, stops,
          bounds: HeuristicBounds) -> SptResult:
    """A* with keys f(v) = g(v) + h(v) and the same stop keys and stop
    test as :func:`dijkstra_bounded`.

    Runs as Dijkstra on the potential-reduced weights
    ``w + h(head) - h(tail)`` limited at ``key - h(source)``; a node is
    settled iff it is reached and ``g(v) + h(v)`` is below its source's
    stop key, where ``g`` is recomputed along the tree from ``w`` so
    settled labels equal a full run's. Requires ``bounds`` admissible
    and consistent for ``w``; a violation raises :class:`InternalError`
    naming the first offending edge. Nodes with ``h == inf`` cannot
    reach any bounded destination and are never reached.
    """
    w = _check_weights(net, w)
    sources = _check_sources(net, sources)
    keys = _stop_keys(net, sources, stops)
    h = np.asarray(bounds.h, dtype=np.float64)
    if h.shape != (net.node_count,):
        raise InputError(f"heuristic has shape {h.shape}, expected ({net.node_count},)")
    _check_consistency(net, w, h)

    src = np.atleast_1d(sources)
    lim = np.atleast_1d(keys) - h[src]      # -inf where h(source) = inf
    run = np.flatnonzero(lim > 0)
    dist = np.full((src.size, net.node_count), INF)
    parent = np.full(dist.shape, -1, dtype=np.int64)
    settled = np.zeros(dist.shape, dtype=bool)
    if run.size:
        pairs = net._pair_index()
        weights, pair_edges = pairs.cheapest(w)
        h_tail, h_head = h[pairs.tails], h[pairs.heads]
        keep = np.isfinite(h_tail) & np.isfinite(h_head)
        reduced = np.zeros_like(weights)
        reduced[keep] = np.maximum(weights[keep] + h_head[keep] - h_tail[keep], 0.0)
        # Reach slightly past the limit, so rounding in the reduced
        # distances cannot hide a node whose g + h is below the key.
        limit = float(lim[run].max())
        limit += 1e-9 * (1.0 + limit + float(np.abs(h[src[run]]).max()))
        _, parent[run] = _shortest_paths(net, pairs.matrix(reduced, keep),
                                         pair_edges, src[run], limit=limit)
        up, levels = tree_levels(net, parent)
        flat = dist.reshape(-1)
        flat[run * net.node_count + src[run]] = 0.0
        pe = parent.reshape(-1)
        for level in levels:
            flat[level] = flat[up[level]] + w[pe[level]]
        settled = dist + h < keys.reshape(-1, 1)
        # f is nondecreasing along tree paths up to rounding; settling
        # the ancestors of settled nodes keeps every settled path whole.
        flags = settled.reshape(-1)
        for level in reversed(levels):
            flags[up[level][flags[level]]] = True
    if np.ndim(sources) == 0:
        return _settled_only(dist[0], parent[0], settled[0])
    return _settled_only(dist, parent, settled)


def reverse_multi_target_bounds(net: Network, w: np.ndarray,
                                destinations) -> HeuristicBounds:
    """Lower bounds h(v) = min over destinations t of dist(v, t).

    Computed as one multi-source Dijkstra on the edge-reversed graph.
    The result is admissible and consistent for any pricing run whose
    destination set is a subset of ``destinations``, and stays valid
    for any weight vector pointwise >= ``w``.
    """
    w = _check_weights(net, w)
    given = (np.asarray(destinations, dtype=np.int64)
             if isinstance(destinations, np.ndarray)
             else np.fromiter(destinations, dtype=np.int64))
    dests = np.unique(given)
    if not dests.size:
        raise InputError("destinations must be nonempty")
    if dests[0] < 0 or dests[-1] >= net.node_count:
        # Name the first one out of range, in the order given.
        net.check_node(int(given[(given < 0) | (given >= net.node_count)][0]))
    # The entering edges of each node, parallel edges and self-loops
    # included: csgraph relaxes every stored entry on its own, so parallel
    # entries act as parallel edges, and a self-loop never improves a label.
    n = net.node_count
    reverse = csr_matrix((w[net._in_edges], net.tail[net._in_edges].astype(np.int32),
                          net._in_start), shape=(n, n))
    dist = _csgraph_dijkstra(reverse, directed=True, indices=dests, min_only=True)
    dist.setflags(write=False)
    return HeuristicBounds(dist)
