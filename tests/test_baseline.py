"""Direct LP builders: count contracts, LP layout, oracle agreement."""

import random

import numpy as np
import pytest

from mcflow.baseline import build_edge_lp, build_source_lp, solve_direct
from mcflow.errors import BackendError
from mcflow.graph import Network, dijkstra
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.lp import INFEASIBLE, OPTIMAL, SimplexBackend


class TestBuildEdgeLp:
    def test_triangle_counts(self, triangle):
        d = build_edge_lp(triangle)
        assert d.num_vars == 6                      # |K| * |E|
        assert d.lp.num_rows == 6 + 3               # balance + capacity
        assert sum(1 for s in d.lp.senses if s == "E") == 6

    def test_forced_single_edge(self):
        net = Network(2, [(0, 1, 2.0, 9.0)])
        inst = Instance.build(net, [Commodity(0, 1, 3.0)])
        d = build_edge_lp(inst)
        sol = solve_direct(d)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(6.0)
        assert sol.flows[0][0] == pytest.approx(3.0)

    def test_capacitated_triangle(self, triangle_capped):
        sol = solve_direct(build_edge_lp(triangle_capped))
        assert sol.objective == pytest.approx(6.0)


class TestBuildSourceLp:
    def test_triangle_counts(self, triangle):
        d = build_source_lp(triangle)
        assert d.num_vars == 3                      # |S| * |E|
        assert d.lp.num_rows == 3 + 3

    def test_capacitated_triangle(self, triangle_capped):
        sol = solve_direct(build_source_lp(triangle_capped))
        assert sol.objective == pytest.approx(6.0)

    def test_unique_sources_matches_edge_lp_size(self):
        inst = generate_random(10, 30, 5, 5, seed=1)
        assert build_source_lp(inst).num_vars == build_edge_lp(inst).num_vars


class TestNodeArcLayout:
    @pytest.fixture
    def odd_edges(self):
        # Edges 0 and 1 are parallel, 2 is a self-loop at node 1, 3 costs
        # nothing; commodities 0 and 1 share the pair (0, 2).
        net = Network(4, [(0, 1, 1.0, 4.0), (0, 1, 2.0, 10.0), (1, 1, 1.0, 10.0),
                          (1, 2, 0.0, 10.0), (0, 2, 5.0, 10.0), (2, 3, 1.0, 10.0)])
        return Instance.build(net, [Commodity(0, 2, 2.0), Commodity(0, 2, 3.0),
                                    Commodity(1, 3, 1.0)])

    @pytest.mark.parametrize("build, blocks", [
        (build_edge_lp, [{0: 2.0, 2: -2.0}, {0: 3.0, 2: -3.0}, {1: 1.0, 3: -1.0}]),
        (build_source_lp, [{0: 5.0, 2: -5.0}, {1: 1.0, 3: -1.0}]),
    ])
    def test_blocks_rhs_and_entries(self, odd_edges, build, blocks):
        d = build(odd_edges)
        lp, net = d.lp, odd_edges.network
        O, E, V = len(blocks), net.edge_count, net.node_count
        assert d.num_vars == O * E and lp.num_rows == O * V + E
        assert d.nnz == 3 * O * E
        assert np.all(np.bincount(lp.cols, minlength=d.num_vars) == 3)
        for i, block in enumerate(blocks):
            expected = np.zeros(V)
            expected[list(block)] = list(block.values())
            np.testing.assert_array_equal(lp.rhs[i * V:(i + 1) * V], expected)
            # The self-loop keeps +1 and -1 on its node's row; they cancel.
            loop = lp.cols == i * E + 2
            assert sorted(zip(lp.rows[loop], lp.vals[loop])) == [
                (i * V + 1, -1.0), (i * V + 1, 1.0), (O * V + 2, 1.0)]
        np.testing.assert_array_equal(lp.rhs[O * V:], net.capacity)
        for backend in ("highs", "builtin"):
            sol = solve_direct(d, backend)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(7.0)


class TestSolveDirect:
    def test_uncapacitated_equals_shortest_path_sum(self):
        inst = generate_random(12, 36, 8, 3, seed=4, tightness="loose")
        net = inst.network
        expected = 0.0
        for g in inst.groups:
            spt = dijkstra(net, net.cost, g.source)
            expected += sum(d * spt.dist[t] for t, d in g.sink_demands.items())
        for build in (build_edge_lp, build_source_lp):
            sol = solve_direct(build(inst))
            assert sol.objective == pytest.approx(expected, rel=1e-9)

    def test_infeasible_reported(self):
        net = Network(2, [(0, 1, 1.0, 1.0)])
        inst = Instance.build(net, [Commodity(0, 1, 5.0)])
        assert solve_direct(build_edge_lp(inst)).status == INFEASIBLE
        assert solve_direct(build_source_lp(inst)).status == INFEASIBLE

    def test_oracle_agreement_edge_vs_source(self):
        rng = random.Random(2)
        for seed in range(12):
            n = rng.randint(5, 12)
            m = rng.randint(n, 3 * n)
            s = rng.randint(1, 4)
            k = rng.randint(s, min(10, s * (n - 1)))
            inst = generate_random(n, m, k, s, seed=seed,
                                   tightness=("mixed", "tight")[seed % 2])
            a = solve_direct(build_edge_lp(inst))
            b = solve_direct(build_source_lp(inst))
            assert a.status == b.status
            if a.status == OPTIMAL:
                assert a.objective == pytest.approx(b.objective, rel=1e-7)

    def test_builtin_and_highs_agree(self):
        for seed in range(6):
            inst = generate_random(8, 20, 6, 2, seed=seed, tightness="mixed")
            d = build_source_lp(inst)
            a = solve_direct(d, "builtin")
            b = solve_direct(d, "highs")
            assert a.status == b.status == OPTIMAL
            assert a.objective == pytest.approx(b.objective, rel=1e-8)

    def test_size_guard_directs_to_highs(self, triangle):
        d = build_edge_lp(triangle)
        with pytest.raises(BackendError, match="highs"):
            solve_direct(d, SimplexBackend(max_nnz=1))


class TestExport:
    def test_source_lp_nonzero_accounting(self):
        # Variables/constraints/nonzeros follow |S|*|E| / |S|*|V|+|E| /
        # roughly 3 entries per variable.
        inst = generate_random(10, 30, 12, 4, seed=6)
        d = build_source_lp(inst)
        S, E, V = 4, 30, 10
        assert d.num_vars == S * E
        assert d.lp.num_rows == S * V + E
        assert d.nnz == 3 * S * E
