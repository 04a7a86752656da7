"""Shortest-path kernel tests against hand traces and a Bellman-Ford oracle."""

import math
import random

import numpy as np
import pytest

from mcflow.errors import InputError
from mcflow.graph import (HeuristicBounds, Network, astar, dijkstra,
                          dijkstra_bounded, reverse_multi_target_bounds,
                          spt_path)

INF = math.inf


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
        out_all = sorted(e for v in range(net.node_count) for e in net.out_edges(v))
        in_all = sorted(e for v in range(net.node_count) for e in net.in_edges(v))
        assert out_all == list(range(net.edge_count))
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
            full = dijkstra(net, w, sources)
            fast = dijkstra_bounded(net, w, sources, duals)
            star = astar(net, w, sources, duals, h)
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
        spt = dijkstra_bounded(line_net, line_net.cost, [0, 1],
                               [{2: 1.0}, {2: 1.5}])
        assert spt.settled.tolist() == [[True, False, False],
                                        [False, True, True]]

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
