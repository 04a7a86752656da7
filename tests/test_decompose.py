"""Flow decomposition tests: hand extractions and conservation properties."""

import random

import numpy as np
import pytest

from mcflow.cli import _solve_with_flows
from mcflow.decompose import (CommodityPathFlow, SourceEdgeFlow,
                              columns_to_source_flows, decompose, decompose_all)
from mcflow.engine import SolverConfig
from mcflow.errors import DecompositionError, InputError
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.master import Column


class TestColumnsToSourceFlows:
    def test_single_tree_column(self, triangle):
        col = Column(owner=0, kind="tree", edges=(0, 1), coefs=(3.0, 2.0), cost=5.0)
        flows = columns_to_source_flows(triangle, [col], [1.0])
        assert flows.flows == {0: {0: 3.0, 1: 2.0}}

    def test_convex_combination(self, triangle):
        a = Column(owner=0, kind="tree", edges=(0, 1), coefs=(3.0, 2.0), cost=5.0)
        b = Column(owner=0, kind="tree", edges=(0, 1, 2), coefs=(1.0, 1.0, 2.0),
                   cost=8.0)
        flows = columns_to_source_flows(triangle, [a, b], [0.5, 0.5])
        assert flows.flows[0] == pytest.approx({0: 2.0, 1: 1.5, 2: 1.0})

    def test_path_mode_split(self, triangle_capped):
        cols = [
            Column(owner=0, kind="path", edges=(0, 1), coefs=(1.0, 1.0), cost=2.0),
            Column(owner=0, kind="path", edges=(2,), coefs=(1.0,), cost=3.0),
            Column(owner=1, kind="path", edges=(0,), coefs=(1.0,), cost=1.0),
        ]
        flows = columns_to_source_flows(triangle_capped, cols, [1.0, 1.0, 1.0])
        assert flows.flows[0] == pytest.approx({0: 2.0, 1: 1.0, 2: 1.0})

    def test_zero_columns_skipped(self, triangle):
        a = Column(owner=0, kind="tree", edges=(0, 1), coefs=(3.0, 2.0), cost=5.0)
        b = Column(owner=0, kind="tree", edges=(2,), coefs=(3.0,), cost=9.0)
        flows = columns_to_source_flows(triangle, [a, b], [1.0, 0.0])
        assert flows.flows == {0: {0: 3.0, 1: 2.0}}

    @pytest.mark.parametrize("primal", [[1.0], [1.0, 0.5, 0.5]])
    def test_misaligned_primal_raises(self, triangle, primal):
        a = Column(owner=0, kind="tree", edges=(0, 1), coefs=(3.0, 2.0), cost=5.0)
        b = Column(owner=0, kind="tree", edges=(2,), coefs=(3.0,), cost=9.0)
        with pytest.raises(InputError, match=f"2 columns but {len(primal)} primal"):
            columns_to_source_flows(triangle, [a, b], primal)

    def test_owner_without_a_row_raises(self, triangle):
        # Commodity 2 and source 1 own no row of the triangle.
        for col in (Column(owner=2, kind="path", edges=(0,), coefs=(1.0,), cost=1.0),
                    Column(owner=1, kind="tree", edges=(1,), coefs=(1.0,), cost=1.0)):
            with pytest.raises(InputError, match="owner . owns no demand row"):
                columns_to_source_flows(triangle, [col], [1.0])
        assert columns_to_source_flows(triangle, [], []).flows == {}

    @pytest.mark.parametrize("formulation", ["tree", "path"])
    def test_batch_equals_column_list(self, formulation):
        from mcflow.engine import ColGenSolver, SolverConfig
        inst = generate_random(10, 30, 8, 3, seed=5, tightness="tight")
        solver = ColGenSolver(inst, SolverConfig(formulation=formulation))
        assert solver.run().status == "optimal"
        master = solver.master
        x = master.solution.x
        as_list = columns_to_source_flows(inst, list(master.columns), x.tolist())
        assert columns_to_source_flows(inst, master.columns, x).flows == as_list.flows
        assert sorted(as_list.flows) == [g.source for g in inst.groups]


class TestDecompose:
    def test_line_hand_extraction(self, triangle):
        flows = SourceEdgeFlow({0: {0: 3.0, 1: 2.0}})
        group = triangle.groups[0]
        result = decompose(flows, group, triangle)
        by_sink = {triangle.commodities[r.commodity].sink: r for r in result}
        assert by_sink[1].paths == [((0,), 1.0)]
        assert by_sink[2].paths == [((0, 1), 2.0)]

    def test_single_path_flow(self):
        net = Network(2, [(0, 1, 1.0, 9.0)])
        inst = Instance.build(net, [Commodity(0, 1, 4.0)])
        flows = SourceEdgeFlow({0: {0: 4.0}})
        result = decompose(flows, inst.groups[0], inst)
        assert result[0].paths == [((0,), 4.0)]

    def test_split_flow_two_paths(self, triangle):
        # f = {a->b:1, b->c:1, a->c:1} covering a single sink demand of 2.
        net = triangle.network
        inst = Instance.build(net, [Commodity(0, 2, 2.0)])
        flows = SourceEdgeFlow({0: {0: 1.0, 1: 1.0, 2: 1.0}})
        result = decompose(flows, inst.groups[0], inst)
        assert len(result[0].paths) == 2
        amounts = sorted(a for _, a in result[0].paths)
        assert amounts == pytest.approx([1.0, 1.0])
        assert result[0].total == pytest.approx(2.0)

    def test_insufficient_flow_raises(self, triangle):
        flows = SourceEdgeFlow({0: {0: 1.0}})
        with pytest.raises(DecompositionError, match="imbalance"):
            decompose(flows, triangle.groups[0], triangle)

    def test_cycle_in_support_is_canceled(self):
        # Flow support contains the 2-cycle b<->c carrying no net demand.
        net = Network(3, [(0, 1, 1.0, 9.0), (1, 2, 1.0, 9.0), (2, 1, 1.0, 9.0)])
        inst = Instance.build(net, [Commodity(0, 1, 1.0)])
        flows = SourceEdgeFlow({0: {0: 1.0, 1: 0.5, 2: 0.5}})
        result = decompose(flows, inst.groups[0], inst)
        assert result[0].paths == [((0,), 1.0)]

    def test_cycle_on_the_walk_is_canceled(self):
        # a->b 1, b->c 0.5, c->b 0.5, b->d 1: the walk meets the cycle
        # b->c->b before it reaches d.
        net = Network(4, [(0, 1, 1.0, 9.0), (1, 2, 1.0, 9.0), (2, 1, 1.0, 9.0),
                          (1, 3, 1.0, 9.0)])
        inst = Instance.build(net, [Commodity(0, 3, 1.0)])
        flows = SourceEdgeFlow({0: {0: 1.0, 1: 0.5, 2: 0.5, 3: 1.0}})
        result = decompose(flows, inst.groups[0], inst)
        assert result[0].paths == [((0, 3), 1.0)]

    def test_commodities_sharing_a_pair_each_get_their_demand(self, triangle_net):
        # Two commodities a->c (demands 0.5 and 1.5) and one a->b, one group.
        inst = Instance.build(triangle_net, [Commodity(0, 2, 0.5), Commodity(0, 1, 1.0),
                                             Commodity(0, 2, 1.5)])
        flows = SourceEdgeFlow({0: {0: 2.0, 1: 1.0, 2: 1.0}})
        result = decompose(flows, inst.groups[0], inst)
        assert [r.commodity for r in result] == [0, 1, 2]
        assert [r.total for r in result] == pytest.approx([0.5, 1.0, 1.5])
        assert result[0].paths == [((0, 1), 0.5)]
        assert result[2].paths == [((0, 1), 0.5), ((2,), 1.0)]


class TestProperties:
    def solved_flows(self, inst):
        from mcflow.engine import ColGenSolver, SolverConfig
        solver = ColGenSolver(inst, SolverConfig(formulation="tree", rel_tol=1e-7))
        report = solver.run()
        assert report.status == "optimal"
        master = solver.master
        cols = [master.columns[i] for i in master.active_column_ids]
        x = [master.solution.x[i] for i in master.active_column_ids]
        return columns_to_source_flows(inst, cols, x), report

    def test_demand_exactness_and_linearity(self):
        rng = random.Random(14)
        for seed in range(8):
            n = rng.randint(6, 14)
            m = rng.randint(n + 2, 3 * n)
            s = rng.randint(1, 4)
            k = rng.randint(s, min(12, s * (n - 1)))
            inst = generate_random(n, m, k, s, seed=seed, tightness="mixed")
            flows, _ = self.solved_flows(inst)
            paths = decompose_all(inst, flows)
            by_comm = {r.commodity: r for r in paths}
            for kk, com in enumerate(inst.commodities):
                r = by_comm[kk]
                assert r.total == pytest.approx(com.demand, rel=1e-7)
                assert len(r.paths) <= inst.network.edge_count
                for edge_path, _amount in r.paths:
                    assert int(inst.network.tail[edge_path[0]]) == com.source
                    assert int(inst.network.head[edge_path[-1]]) == com.sink
            # Linearity: per-edge sums over paths reproduce total edge flows.
            total = np.zeros(inst.network.edge_count)
            for r in paths:
                for edge_path, amount in r.paths:
                    for e in edge_path:
                        total[e] += amount
            assert total == pytest.approx(
                flows.total_per_edge(inst.network.edge_count), abs=1e-8)
            # Capacity respect follows from the master's feasibility.
            assert np.all(total <= inst.network.capacity + 1e-6)

    def test_cost_preservation(self):
        inst = generate_random(10, 26, 8, 3, seed=23, tightness="tight")
        flows, report = self.solved_flows(inst)
        paths = decompose_all(inst, flows)
        net = inst.network
        path_cost = sum(a * sum(net.cost[e] for e in p)
                        for r in paths for p, a in r.paths)
        edge_cost = float(net.cost @ flows.total_per_edge(net.edge_count))
        assert path_cost == pytest.approx(edge_cost, rel=1e-9)
        assert path_cost == pytest.approx(report.objective, rel=1e-7)

    def test_source_lp_flows_with_zero_cost_edges(self):
        # Zero-cost rings, parallel edges and self-loops make degenerate
        # optima whose flow support can hold cycles.
        rng = random.Random(15)
        for _ in range(100):
            n = rng.randint(3, 8)
            ring = rng.sample(range(n), n)
            edges = [(ring[i], ring[(i + 1) % n], rng.choice([0.0, 1.0]), 50.0)
                     for i in range(n)]
            edges += [(rng.randrange(n), rng.randrange(n), rng.choice([0.0, 0.0, 1.0, 2.0]),
                       rng.uniform(0.5, 4.0)) for _ in range(rng.randint(0, 2 * n))]
            net = Network(n, edges)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
            comms = [Commodity(s, t, rng.uniform(0.5, 3.0))
                     for s, t in pairs + rng.sample(pairs, rng.randint(0, len(pairs)))]
            inst = Instance.build(net, comms)
            report, flows = _solve_with_flows(inst, SolverConfig(formulation="source-lp"),
                                              want_flows=True)
            assert report.status == "optimal"
            paths = decompose_all(inst, flows)
            assert [r.commodity for r in paths] == [k for g in inst.groups
                                                    for k in g.members]
            total = np.zeros(net.edge_count)
            for r in paths:
                com = inst.commodities[r.commodity]
                assert r.total == pytest.approx(com.demand, rel=1e-7)
                assert len(r.paths) <= net.edge_count
                for edge_path, amount in r.paths:
                    assert int(net.tail[edge_path[0]]) == com.source
                    assert int(net.head[edge_path[-1]]) == com.sink
                    np.add.at(total, list(edge_path), amount)
            # Canceled cycles make path sums fall short of the edge flows, never exceed.
            assert np.all(total <= flows.total_per_edge(net.edge_count) + 1e-9)
