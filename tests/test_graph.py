"""Shortest-path kernel tests against hand traces and a Bellman-Ford oracle."""

import math
import random

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import mcflow.graph
from mcflow.errors import InputError
from mcflow.graph import (HeuristicBounds, Network, astar, dijkstra,
                          dijkstra_bounded, reverse_multi_target_bounds,
                          tree_levels)
from mcflow.pricing import _tree_flows

INF = math.inf


def spt_path(net, spt, v):
    """Edge ids of the tree path from a single-source run's source to
    settled node v."""
    assert spt.settled[v]
    edges = []
    while spt.parent_edge[v] >= 0:
        e = int(spt.parent_edge[v])
        edges.append(e)
        v = int(net.tail[e])
    return edges[::-1]


def bellman_ford(net, w, source):
    """Independent O(VE) oracle for shortest distances."""
    dist = [INF] * net.node_count
    dist[source] = 0.0
    for _ in range(net.node_count):
        changed = False
        for e in range(net.edge_count):
            t, h = int(net.tail[e]), int(net.head[e])
            if t == h or dist[t] == INF:
                continue
            nd = dist[t] + w[e]
            if nd < dist[h]:
                dist[h] = nd
                changed = True
        if not changed:
            break
    return dist


def random_network(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    m = rng.randint(n, 4 * n)
    edges = []
    for _ in range(m):
        t = rng.randrange(n)
        h = rng.randrange(n)
        edges.append((t, h, rng.uniform(0.0, 10.0), rng.uniform(1.0, 10.0)))
    return Network(n, edges)


class TestNetwork:
    def test_adjacency_enumerates_every_edge_once(self):
        rng = random.Random(7)
        net = random_network(rng)
        in_all = sorted(e for v in range(net.node_count) for e in net.in_edges(v))
        assert in_all == list(range(net.edge_count))

    def test_rejects_bad_endpoints(self):
        with pytest.raises(InputError):
            Network(2, [(0, 5, 1.0, 1.0)])

    def test_rejects_negative_cost(self):
        with pytest.raises(InputError):
            Network(2, [(0, 1, -1.0, 1.0)])

    def test_parallel_edges_and_self_loops_allowed(self):
        net = Network(2, [(0, 1, 1.0, 1.0), (0, 1, 2.0, 1.0), (1, 1, 0.5, 1.0)])
        assert net.edge_count == 3
        spt = dijkstra(net, net.cost, 0)
        assert spt.dist[1] == 1.0


class TestDijkstra:
    def test_line(self, line_net):
        spt = dijkstra(line_net, line_net.cost, 0)
        assert list(spt.dist) == [0.0, 1.0, 2.0]
        assert list(spt.parent_edge) == [-1, 0, 1]

    def test_zero_weights(self, triangle_net):
        spt = dijkstra(triangle_net, np.zeros(3), 0)
        assert all(spt.dist[v] == 0.0 for v in range(3))

    def test_triangle_with_target(self, triangle_net):
        spt = dijkstra(triangle_net, triangle_net.cost, 0)
        assert spt.dist[2] == 2.0
        assert spt_path(triangle_net, spt, 2) == [0, 1]

    def test_invalid_source(self, triangle_net):
        with pytest.raises(InputError):
            dijkstra(triangle_net, triangle_net.cost, 9)

    def test_matches_bellman_ford_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(40):
            net = random_network(rng)
            w = np.array([rng.uniform(0.0, 5.0) for _ in range(net.edge_count)])
            src = rng.randrange(net.node_count)
            spt = dijkstra(net, w, src)
            oracle = bellman_ford(net, w, src)
            for v in range(net.node_count):
                if oracle[v] == INF:
                    assert not spt.settled[v]
                    assert spt.dist[v] == INF
                else:
                    assert spt.dist[v] == pytest.approx(oracle[v], abs=1e-12)

    def test_parent_edges_form_tree_with_consistent_labels(self):
        rng = random.Random(3)
        net = random_network(rng, max_nodes=30)
        w = net.cost
        spt = dijkstra(net, w, 0)
        for v in range(net.node_count):
            if spt.settled[v] and v != 0:
                e = int(spt.parent_edge[v])
                assert e >= 0
                assert spt.dist[v] == pytest.approx(
                    spt.dist[int(net.tail[e])] + w[e], abs=1e-12)


def classify(spt, dest_duals):
    return {t for t, pi in dest_duals.items() if spt.settled[t] and spt.dist[t] < pi}


class TestBoundedDijkstra:
    def test_triangle_negative_sink(self, triangle_net):
        spt = dijkstra_bounded(triangle_net, triangle_net.cost, 0, {2: 5.0})
        assert spt.settled[2] and spt.dist[2] == 2.0
        assert classify(spt, {2: 5.0}) == {2}

    def test_zero_dual_stops_immediately(self, triangle_net):
        spt = dijkstra_bounded(triangle_net, triangle_net.cost, 0, {2: 0.0})
        assert not spt.settled.any()
        assert classify(spt, {2: 0.0}) == set()

    def test_line_partial_stop(self, line_net):
        duals = {1: 1.5, 2: 1.5}
        spt = dijkstra_bounded(line_net, line_net.cost, 0, duals)
        assert spt.settled[1] and spt.dist[1] == 1.0
        assert not spt.settled[2]
        assert classify(spt, duals) == {1}

    def test_empty_duals_rejected(self, line_net):
        with pytest.raises(InputError):
            dijkstra_bounded(line_net, line_net.cost, 0, {})

    def test_early_stop_soundness_random(self):
        rng = random.Random(11)
        for _ in range(50):
            net = random_network(rng)
            w = np.array([rng.uniform(0.0, 5.0) for _ in range(net.edge_count)])
            src = rng.randrange(net.node_count)
            sinks = {rng.randrange(net.node_count): rng.uniform(0.0, 8.0)
                     for _ in range(rng.randint(1, 6))}
            sinks.pop(src, None)
            if not sinks:
                continue
            full = dijkstra(net, w, src)
            fast = dijkstra_bounded(net, w, src, sinks)
            expected = {t for t, pi in sinks.items()
                        if full.settled[t] and full.dist[t] < pi}
            assert classify(fast, sinks) == expected
            for t in classify(fast, sinks):
                assert fast.dist[t] == full.dist[t]


class TestAstar:
    def test_zero_heuristic_matches_bounded(self, triangle_net):
        from mcflow.graph import HeuristicBounds
        zero = HeuristicBounds(np.zeros(3))
        duals = {2: 5.0}
        a = astar(triangle_net, triangle_net.cost, 0, duals, zero)
        b = dijkstra_bounded(triangle_net, triangle_net.cost, 0, duals)
        assert np.array_equal(a.settled, b.settled)
        assert classify(a, duals) == classify(b, duals)

    def test_exact_heuristic_settles_optimal_path_only(self, triangle_net):
        h = reverse_multi_target_bounds(triangle_net, triangle_net.cost, {2})
        assert list(h.h) == [2.0, 1.0, 0.0]
        spt = astar(triangle_net, triangle_net.cost, 0, {2: 5.0}, h)
        assert spt.dist[2] == 2.0
        assert classify(spt, {2: 5.0}) == {2}

    def test_stop_before_any_relaxation(self, triangle_net):
        h = reverse_multi_target_bounds(triangle_net, triangle_net.cost, {2})
        spt = astar(triangle_net, triangle_net.cost, 0, {2: 1.0}, h)
        assert not spt.settled.any()
        assert classify(spt, {2: 1.0}) == set()

    def test_inconsistent_heuristic_detected(self, line_net):
        from mcflow.errors import InternalError
        from mcflow.graph import HeuristicBounds
        bad = HeuristicBounds(np.array([10.0, 0.0, 0.0]))
        with pytest.raises(InternalError, match="edge 0"):
            astar(line_net, line_net.cost, 0, {2: 100.0}, bad)

    def test_agreement_and_settle_count_random(self):
        rng = random.Random(99)
        for _ in range(50):
            net = random_network(rng)
            w = np.array([rng.uniform(0.0, 5.0) for _ in range(net.edge_count)])
            src = rng.randrange(net.node_count)
            sinks = {rng.randrange(net.node_count): rng.uniform(0.0, 10.0)
                     for _ in range(rng.randint(1, 5))}
            sinks.pop(src, None)
            if not sinks:
                continue
            h = reverse_multi_target_bounds(net, w, set(sinks))
            full = dijkstra(net, w, src)
            fast = dijkstra_bounded(net, w, src, sinks)
            star = astar(net, w, src, sinks, h)
            assert classify(star, sinks) == classify(fast, sinks)
            for t in classify(star, sinks):
                assert star.dist[t] == pytest.approx(fast.dist[t], abs=1e-12)
            assert len(star.order) <= len(full.order)


class TestReverseBounds:
    def test_triangle(self, triangle_net):
        h = reverse_multi_target_bounds(triangle_net, triangle_net.cost, {2})
        assert list(h.h) == [2.0, 1.0, 0.0]

    def test_all_nodes_zero(self, triangle_net):
        h = reverse_multi_target_bounds(triangle_net, triangle_net.cost, {0, 1, 2})
        assert list(h.h) == [0.0, 0.0, 0.0]

    def test_line_two_destinations(self, line_net):
        h = reverse_multi_target_bounds(line_net, line_net.cost, {1, 2})
        assert list(h.h) == [1.0, 0.0, 0.0]

    def test_superset_dominance(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_network(rng, max_nodes=25)
            w = np.array([rng.uniform(0.0, 5.0) for _ in range(net.edge_count)])
            all_dest = {rng.randrange(net.node_count) for _ in range(5)}
            sub = set(list(all_dest)[:2])
            if not sub:
                continue
            h_all = reverse_multi_target_bounds(net, w, all_dest)
            h_sub = reverse_multi_target_bounds(net, w, sub)
            assert np.all(h_all.h <= h_sub.h + 1e-12)

    @pytest.mark.parametrize("dests,bad", [({0, 5}, 5), ({-1, 2}, -1),
                                           (np.array([2, 5, -1]), 5),
                                           (np.array([-4, 1, 9]), -4)])
    def test_names_the_first_destination_out_of_range(self, triangle_net, dests, bad):
        with pytest.raises(InputError, match=rf"node id {bad} out of range \[0, 3\)"):
            reverse_multi_target_bounds(triangle_net, triangle_net.cost, dests)

    @pytest.mark.parametrize("dests", [set(), np.array([], dtype=np.int64)])
    def test_refuses_no_destination(self, triangle_net, dests):
        with pytest.raises(InputError, match="destinations must be nonempty"):
            reverse_multi_target_bounds(triangle_net, triangle_net.cost, dests)

    def test_set_and_array_give_the_same_bounds(self):
        for net, w, _, duals in rich_cases(4, 10):
            dests = sorted({t for d in duals for t in d})
            by_set = reverse_multi_target_bounds(net, w, set(dests)).h
            by_array = reverse_multi_target_bounds(net, w, np.array(dests[::-1] * 2)).h
            np.testing.assert_array_equal(by_set, by_array)


def rich_network(rng, max_nodes=40):
    """Random graph with parallel edges, self-loops, zero weights and
    nodes no edge enters."""
    n = rng.randint(3, max_nodes)
    cut = rng.randint(1, n - 1)        # nodes >= cut are never entered
    edges = []
    for _ in range(rng.randint(n, 4 * n)):
        t, h = rng.randrange(n), rng.randrange(cut)
        cost = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 10.0)
        edges.append((t, h, cost, 1.0))
        if rng.random() < 0.2:
            edges.append((t, h, rng.choice([cost, cost + 1.0]), 1.0))
        if rng.random() < 0.1:
            edges.append((t, t, rng.uniform(0.0, 1.0), 1.0))
    return Network(n, edges)


def rich_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        net = rich_network(rng)
        w = np.array([0.0 if rng.random() < 0.2 else rng.uniform(0.0, 5.0)
                      for _ in range(net.edge_count)])
        sources = rng.sample(range(net.node_count), rng.randint(1, net.node_count))
        duals = [{rng.randrange(net.node_count): rng.uniform(0.0, 12.0)
                  for _ in range(rng.randint(1, 4))} for _ in sources]
        yield net, w, sources, duals


def assert_row_equals(batched, i, single):
    assert np.array_equal(batched.dist[i], single.dist)
    assert np.array_equal(batched.parent_edge[i], single.parent_edge)
    assert np.array_equal(batched.settled[i], single.settled)


class TestBatchedKernels:
    def test_rows_match_bellman_ford(self):
        for net, w, sources, _ in rich_cases(1, 40):
            spt = dijkstra(net, w, sources)
            assert spt.dist.shape == (len(sources), net.node_count)
            for i, s in enumerate(sources):
                oracle = bellman_ford(net, w, s)
                for v in range(net.node_count):
                    if oracle[v] == INF:
                        assert not spt.settled[i, v] and spt.dist[i, v] == INF
                    else:
                        assert spt.dist[i, v] == pytest.approx(oracle[v], abs=1e-12)
                        e = spt.parent_edge[i, v]
                        if v != s:
                            assert net.head[e] == v and net.tail[e] != v
                            assert spt.dist[i, v] == \
                                spt.dist[i, net.tail[e]] + w[e]

    def test_each_row_equals_its_single_source_run(self):
        for net, w, sources, duals in rich_cases(2, 40):
            h = reverse_multi_target_bounds(net, w, {t for d in duals for t in d})
            keys = np.array([max(d.values()) for d in duals])
            full = dijkstra(net, w, sources)
            fast = dijkstra_bounded(net, w, sources, keys)
            star = astar(net, w, sources, keys, h)
            for i, s in enumerate(sources):
                assert_row_equals(full, i, dijkstra(net, w, s))
                assert_row_equals(fast, i, dijkstra_bounded(net, w, s, duals[i]))
                assert_row_equals(star, i, astar(net, w, s, duals[i], h))
                expected = {t for t, pi in duals[i].items()
                            if full.settled[i, t] and full.dist[i, t] < pi}
                for spt in (fast, star):
                    got = {t for t, pi in duals[i].items()
                           if spt.settled[i, t] and spt.dist[i, t] < pi}
                    assert got == expected
                    for t in got:
                        assert spt.dist[i, t] == full.dist[i, t]
            assert len(star.order) <= len(full.order)
            assert len(fast.order) == int(fast.settled.sum())

    def test_reverse_bounds_match_bellman_ford(self):
        for net, w, _, duals in rich_cases(3, 15):
            dests = {t for d in duals for t in d}
            h = reverse_multi_target_bounds(net, w, dests).h
            for v in range(net.node_count):
                dist = bellman_ford(net, w, v)
                assert h[v] == pytest.approx(min(dist[t] for t in dests), abs=1e-12)

    def test_parallel_edge_ties_pick_smallest_id(self):
        net = Network(3, [(0, 1, 2.0, 1.0), (0, 1, 1.0, 1.0), (0, 1, 1.0, 1.0),
                          (1, 2, 0.0, 1.0), (1, 2, 0.0, 1.0), (1, 1, 0.0, 1.0)])
        spt = dijkstra(net, net.cost, [0, 1])
        assert spt.parent_edge.tolist() == [[-1, 1, 3], [-1, -1, 3]]
        assert spt.dist[0].tolist() == [0.0, 1.0, 1.0]
        # Heavier weights on the first copies move the choice, not the id rule.
        w = np.array([1.0, 1.0, 1.0, 0.5, 0.0, 0.0])
        assert dijkstra(net, w, 0).parent_edge.tolist() == [-1, 0, 4]

    def test_zero_weight_edges_are_edges(self):
        net = Network(3, [(0, 1, 0.0, 1.0), (1, 2, 0.0, 1.0)])
        spt = dijkstra(net, net.cost, 0)
        assert spt.settled.all() and spt.dist.tolist() == [0.0, 0.0, 0.0]
        assert spt_path(net, spt, 2) == [0, 1]
        assert reverse_multi_target_bounds(net, net.cost, {2}).h.tolist() == [0.0] * 3

    def test_stop_key_is_strict_per_source(self, line_net):
        spt = dijkstra_bounded(line_net, line_net.cost, [0, 1], np.array([1.0, 1.5]))
        assert spt.settled.tolist() == [[True, False, False],
                                        [False, True, True]]
        for i, duals in enumerate([{2: 1.0}, {1: 0.5, 2: 1.5}]):
            assert_row_equals(spt, i, dijkstra_bounded(line_net, line_net.cost, i, duals))

    @pytest.mark.parametrize("keys", [[1.0], [1.0, 1.5, 2.0], [[1.0, 1.5]]])
    def test_stop_key_count_must_match_sources(self, line_net, keys):
        h = reverse_multi_target_bounds(line_net, line_net.cost, {2})
        with pytest.raises(InputError, match="for 2 sources"):
            dijkstra_bounded(line_net, line_net.cost, [0, 1], np.array(keys))
        with pytest.raises(InputError, match="for 2 sources"):
            astar(line_net, line_net.cost, [0, 1], np.array(keys), h)

    def test_heuristic_slack_within_tolerance_keeps_paths_whole(self):
        # h(1) exceeds w(1, 2) + h(2) by less than the consistency
        # tolerance, so f(1) = 3 + 1e-10 lies above the stop key while its
        # descendants 2 and 3 (f = 3) lie below it; node 1 must be
        # settled too, or the path to 3 would lose its first edge.
        net = Network(4, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        h = HeuristicBounds(np.array([2.0, 2.0 + 1e-10, 1.0, 0.0]))
        spt = astar(net, net.cost, 0, {3: 3.0 + 5e-11}, h)
        assert spt.settled.all()
        assert spt_path(net, spt, 3) == [0, 1, 2]
        assert spt.dist.tolist() == [0.0, 1.0, 2.0, 3.0]


# Straightforward references for the kernels' sorts and searches; the
# kernels must match them bit for bit.

def searchsorted_shortest_paths(net, matrix, pair_edges, sources, limit=INF):
    """``graph._shortest_paths`` mapping each predecessor u of node v to
    its pair by a binary search for u * n + v among all pair keys."""
    dist, pred = csgraph_dijkstra(matrix, directed=True, indices=sources,
                                  return_predecessors=True, limit=limit)
    n = net.node_count
    pairs = net._pair_index()
    parent = np.full(pred.shape, -1, dtype=np.int64)
    has = pred >= 0
    node = np.broadcast_to(np.arange(n), pred.shape)
    keys = pred[has].astype(np.int64) * n + node[has]
    parent[has] = pair_edges[np.searchsorted(pairs.tails * n + pairs.heads, keys)]
    return dist, parent


def int64_tree_levels(net, parent_edge):
    """``graph.tree_levels`` with a stable sort of int64 depths."""
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
    ordered = idx[np.argsort(node_depth, kind="stable")]
    ends = np.cumsum(np.bincount(node_depth)[1:]).tolist() if idx.size else []
    return up, [ordered[lo:hi] for lo, hi in zip([0] + ends, ends)]


def lexsort_tree_flows(net, parent_edge, loads):
    """``pricing._tree_flows`` on the reference levels, ordered root first
    by a three-key sort on (row, depth, node)."""
    n = net.node_count
    rows, sinks, demands = loads
    up, levels = int64_tree_levels(net, parent_edge)
    acc = np.zeros(parent_edge.size)
    acc[rows * n + sinks] = demands
    for level in reversed(levels):
        np.add.at(acc, up[level], acc[level])
    depth = np.zeros(parent_edge.size, dtype=np.int64)
    for d, level in enumerate(levels):
        depth[level] = d
    pe = parent_edge.reshape(-1)
    carry = np.flatnonzero((pe >= 0) & (acc > 0))
    row = carry // n
    order = np.lexsort((carry % n, depth[carry], row))
    return row[order], pe[carry[order]], acc[carry[order]]


def kernel_runs(net, w, sources, duals):
    """Full, bounded and A* runs from the same sources."""
    h = reverse_multi_target_bounds(net, w, {t for d in duals for t in d})
    keys = np.array([max(d.values()) for d in duals])
    return [dijkstra(net, w, sources), dijkstra_bounded(net, w, sources, keys),
            astar(net, w, sources, keys, h)]


def long_paths():
    """Chains deep enough for 16- and 32-bit depths, with a shortcut and
    a node no edge enters."""
    for n in (300, 70_000):
        edges = [(v, v + 1, 1.0, 1.0) for v in range(n - 2)] + [(0, n // 2, 0.0, 1.0)]
        yield Network(n, edges)


class TestKernelReferences:
    def test_parent_edges_match_the_searchsorted_mapping(self, monkeypatch):
        for net, w, sources, duals in rich_cases(4, 60):
            new = kernel_runs(net, w, sources, duals)
            with monkeypatch.context() as m:
                m.setattr(mcflow.graph, "_shortest_paths", searchsorted_shortest_paths)
                m.setattr(mcflow.graph, "tree_levels", int64_tree_levels)
                old = kernel_runs(net, w, sources, duals)
            for a, b in zip(new, old):
                assert np.array_equal(a.parent_edge, b.parent_edge)
                assert np.array_equal(a.dist, b.dist)
                assert np.array_equal(a.settled, b.settled)

    def test_levels_match_the_int64_sort(self):
        cases = [(net, kernel_runs(net, w, sources, duals))
                 for net, w, sources, duals in rich_cases(5, 60)]
        cases += [(net, [dijkstra(net, net.cost, [0, 1, net.node_count - 1])])
                  for net in long_paths()]
        for net, runs in cases:
            for spt in runs:
                up, levels = tree_levels(net, spt.parent_edge)
                ref_up, ref_levels = int64_tree_levels(net, spt.parent_edge)
                assert np.array_equal(up, ref_up)
                assert len(levels) == len(ref_levels)
                for level, ref in zip(levels, ref_levels):
                    assert np.array_equal(level, ref)

    def test_tree_flows_match_the_lexsort(self):
        rng = np.random.default_rng(6)
        for net, w, sources, duals in rich_cases(6, 60):
            for spt in kernel_runs(net, w, sources, duals):
                # Demands at random settled nodes, several per row.
                rows, nodes = np.nonzero(spt.settled)
                pick = rng.random(rows.size) < 0.5
                loads = (rows[pick], nodes[pick], rng.uniform(0.5, 5.0, int(pick.sum())))
                got = _tree_flows(net, spt.parent_edge, loads)
                want = lexsort_tree_flows(net, spt.parent_edge, loads)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
