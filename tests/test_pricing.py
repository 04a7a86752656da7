"""Pricing tests: hand reduced costs, tree flow accumulation, brute-force
tree optimality, and the Lagrangian bound."""

import hashlib
import itertools
import random
import types

import numpy as np
import pytest

import mcflow.engine
import mcflow.pricing
from mcflow.engine import SolverConfig, solve
from mcflow.errors import InfeasibleError, InputError
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, SourceGroup, generate_random
from mcflow.master import TREE, ColumnBatch, RestrictedMaster, validate_columns
from mcflow.pricing import (DualSnapshot, adjusted_weights, initial_columns,
                            lagrangian_bound, price_paths, price_tree)


def snapshot(pi, edge_count, mu=None):
    mu_arr = np.zeros(edge_count)
    if mu:
        for e, v in mu.items():
            mu_arr[e] = v
    return DualSnapshot(pi=pi, mu=mu_arr)


def known(out):
    """The known entries of ``out.min_reduced_cost`` as {owner: value}:
    every owner id whose entry is not NaN."""
    rc = out.min_reduced_cost
    return {int(o): float(rc[o]) for o in np.flatnonzero(~np.isnan(rc))}


class TestPricePaths:
    def test_triangle_hand_values(self, triangle):
        # k0 (a->c, pi 5): shortest path a-b-c has reduced cost 2-5 = -3.
        # k1 (a->b, pi 0.5): reduced cost 1-0.5 = +0.5, not emitted.
        duals = snapshot({0: 5.0, 1: 0.5}, 3)
        out = price_paths(triangle, triangle.groups[0], duals)
        assert len(out.columns) == 1
        col = out.columns[0]
        assert col.owner == 0 and col.edges == (0, 1)
        assert out.min_reduced_cost[0] == pytest.approx(-3.0)
        assert out.min_reduced_cost[1] == 0.0

    def test_adjusted_weights_reroute(self, triangle):
        # mu(a->b) = -10 makes the two-hop route expensive: best path for
        # k0 becomes the direct edge with reduced cost 3 - 5 = -2.
        duals = snapshot({0: 5.0, 1: 0.5}, 3, mu={0: -10.0})
        out = price_paths(triangle, triangle.groups[0], duals)
        cols = {c.owner: c for c in out.columns}
        assert cols[0].edges == (2,)
        assert out.min_reduced_cost[0] == pytest.approx(-2.0)

    def test_zero_duals_emit_nothing(self, triangle):
        duals = snapshot({0: 0.0, 1: 0.0}, 3)
        out = price_paths(triangle, triangle.groups[0], duals)
        assert len(out.columns) == 0
        assert out.min_reduced_cost.tolist() == [0.0, 0.0]

    def test_reduced_cost_audit_random(self):
        rng = random.Random(4)
        for seed in range(15):
            inst = generate_random(10, 28, 8, 3, seed=seed)
            net = inst.network
            mu = np.where(np.arange(net.edge_count) % 3 == 0,
                          -rng.uniform(0, 2), 0.0)
            pi = {k: rng.uniform(0, 30) for k in range(8)}
            duals = DualSnapshot(pi=pi, mu=mu)
            for group in inst.groups:
                out = price_paths(inst, group, duals)
                for col in out.columns:
                    audit = sum(net.cost[e] - mu[e] for e in col.edges) \
                        - pi[col.owner]
                    assert audit == pytest.approx(
                        out.min_reduced_cost[col.owner], abs=1e-9)
                    assert audit < 0

    def test_strategies_agree_on_emitted_columns(self):
        from mcflow.graph import reverse_multi_target_bounds
        rng = random.Random(12)
        for seed in range(10):
            inst = generate_random(12, 36, 10, 2, seed=seed)
            net = inst.network
            pi = {k: rng.uniform(0, 25) for k in range(10)}
            duals = DualSnapshot(pi=pi, mu=np.zeros(net.edge_count))
            for group in inst.groups:
                sinks = set(group.sink_demands)
                bounds = reverse_multi_target_bounds(net, net.cost, sinks)
                full = price_paths(inst, group, duals, strategy="full")
                fast = price_paths(inst, group, duals, strategy="bounded")
                star = price_paths(inst, group, duals, strategy="astar",
                                   bounds=bounds)
                key = lambda out: sorted((c.owner, c.edges) for c in out.columns)
                assert key(fast) == key(full)
                assert key(star) == key(full)
                assert known(fast) == known(full)
                assert known(star) == known(full)


def tree_flows(net, demands):
    """Edge flows of the seed tree of each source group, in group order;
    ``demands`` maps (source, sink) pairs to demand."""
    inst = Instance.build(net, [Commodity(s, t, d) for (s, t), d in demands.items()])
    return [dict(zip(col.edges, col.coefs)) for col in initial_columns(inst, "tree")]


class TestComputeTreeFlows:
    def test_line_two_sinks(self, line_net):
        flows, = tree_flows(line_net, {(0, 1): 1.0, (0, 2): 2.0})
        assert flows == {0: 3.0, 1: 2.0}

    def test_single_sink(self, line_net):
        flows, = tree_flows(line_net, {(0, 2): 2.0})
        assert flows == {0: 2.0, 1: 2.0}

    def test_star(self):
        net = Network(4, [(0, 1, 1.0, 9.0), (0, 2, 1.0, 9.0), (0, 3, 1.0, 9.0)])
        flows, = tree_flows(net, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
        assert flows == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_root_outflow_equals_total_demand(self):
        inst = generate_random(12, 30, 9, 2, seed=3)
        net = inst.network
        for g, col in zip(inst.groups, initial_columns(inst, "tree")):
            flows = dict(zip(col.edges, col.coefs))
            out = sum(f for e, f in flows.items() if net.tail[e] == g.source)
            assert out == pytest.approx(g.total_demand)

    def test_flow_conservation_at_interior_nodes(self):
        inst = generate_random(14, 34, 10, 3, seed=8)
        net = inst.network
        for g, col in zip(inst.groups, initial_columns(inst, "tree")):
            flows = dict(zip(col.edges, col.coefs))
            inflow = {}
            outflow = {}
            for e, f in flows.items():
                outflow[int(net.tail[e])] = outflow.get(int(net.tail[e]), 0.0) + f
                inflow[int(net.head[e])] = inflow.get(int(net.head[e]), 0.0) + f
            nodes = set(inflow) | set(outflow)
            for v in nodes:
                if v == g.source:
                    continue
                net_in = inflow.get(v, 0.0) - outflow.get(v, 0.0)
                assert net_in == pytest.approx(g.sink_demands.get(v, 0.0))


class TestPriceTree:
    def test_triangle_emitted(self, triangle):
        duals = snapshot({0: 6.0}, 3)
        out = price_tree(triangle, triangle.groups[0], duals)
        assert len(out.columns) == 1
        col = out.columns[0]
        assert col.edges == (0, 1)
        assert col.coefs == (3.0, 2.0)
        assert col.cost == pytest.approx(5.0)
        assert out.min_reduced_cost[0] == pytest.approx(-1.0)

    def test_boundary_not_emitted(self, triangle):
        duals = snapshot({0: 5.0}, 3)
        out = price_tree(triangle, triangle.groups[0], duals)
        assert len(out.columns) == 0
        assert out.min_reduced_cost[0] == 0.0

    def test_adjusted_weights_change_tree(self, triangle):
        # mu(b->c) = -2: c is now cheaper via the direct edge; the tree
        # becomes {a->b, a->c} with reduced cost 1*1 + 2*3 - 6 = +1.
        duals = snapshot({0: 6.0}, 3, mu={1: -2.0})
        out = price_tree(triangle, triangle.groups[0], duals)
        assert len(out.columns) == 0
        assert out.min_reduced_cost[0] == 0.0

    def test_unreachable_sink_raises(self):
        net = Network(3, [(0, 1, 1.0, 5.0)])
        # Sink 2 of commodity 1 is unreachable; the error names commodity 1.
        inst = Instance.build(net, [Commodity(0, 1, 1.0), Commodity(0, 2, 1.0)])
        duals = snapshot({0: 1.0}, 1)
        with pytest.raises(InfeasibleError) as err:
            price_tree(inst, inst.groups[0], duals)
        assert err.value.owners == (1,)


class TestOwnerArrays:
    """Duals enter pricing as an owner-indexed array, or as a mapping
    converted into one; minima leave it as an owner-indexed array."""

    def test_mapping_becomes_an_owner_indexed_array(self):
        pi = DualSnapshot({3: 2.0, 1: 5.0}, np.zeros(1)).pi
        np.testing.assert_array_equal(pi, [np.nan, 5.0, np.nan, 2.0])

    def test_negative_owner_id_is_refused(self):
        # -1 would otherwise index the last entry and overwrite owner 0.
        with pytest.raises(InputError, match="owner id -1 is negative"):
            DualSnapshot({0: 1.0, -1: 2.0}, np.zeros(1))

    @pytest.mark.parametrize("pi,owner", [
        ({0: 5.0}, 1),                      # commodity 1 is past the array
        (np.array([np.nan, 0.5]), 0),       # commodity 0 has a NaN dual
    ])
    def test_path_owner_without_a_dual_is_named(self, triangle, pi, owner):
        with pytest.raises(InputError, match=f"no dual for owner {owner}$"):
            price_paths(triangle, triangle.groups[0], DualSnapshot(pi, np.zeros(3)))

    @pytest.mark.parametrize("pi", [{1: 3.0}, np.zeros(0)])
    def test_tree_owner_without_a_dual_is_named(self, triangle, pi):
        with pytest.raises(InputError, match="no dual for owner 0$"):
            price_tree(triangle, triangle.groups[0], DualSnapshot(pi, np.zeros(3)))

    @pytest.mark.parametrize("source", [1, 7])
    def test_group_of_another_instance_is_refused(self, triangle, source):
        # Pricing reads a group's members and sinks from the instance, so
        # a group whose source has no group there is refused, not guessed.
        group = SourceGroup(source, (0,), {2: 1.0}, 1.0)
        duals = DualSnapshot(np.zeros(8), np.zeros(3))
        for price in (price_paths, price_tree):
            with pytest.raises(InputError, match=f"source {source} has no group"):
                price(triangle, [triangle.groups[0], group], duals)

    def test_mapping_and_array_give_identical_outcomes(self):
        from mcflow.graph import reverse_multi_target_bounds
        rng = random.Random(5)
        for seed in range(4):
            inst = generate_random(14, 44, 30, 5, seed=seed, tightness="mixed")
            net = inst.network
            mu = np.array([-rng.uniform(0, 2) if rng.random() < 0.3 else 0.0
                           for _ in range(net.edge_count)])
            sinks = {t for g in inst.groups for t in g.sink_demands}
            bounds = reverse_multi_target_bounds(net, net.cost, sinks)
            seed_trees = RestrictedMaster(inst, TREE)
            seed_trees.add_column(initial_columns(inst, TREE))
            incumbents = seed_trees.incumbent_trees(np.ones(len(inst.groups)))
            path_pi = {k: rng.uniform(0, 30) for k in range(len(inst.commodities))}
            # Around the seed tree costs, so that trees price out.
            tree_pi = {c.owner: c.cost * rng.uniform(0.9, 2.0)
                       for c in seed_trees.columns}
            path_array = np.array([path_pi[k] for k in range(len(inst.commodities))])
            tree_array = np.full(net.node_count, np.nan)
            for source, dual in tree_pi.items():
                tree_array[source] = dual
            outcomes = []
            for path, tree in ((path_pi, tree_pi), (path_array, tree_array)):
                runs = [price_paths(inst, inst.groups, DualSnapshot(path, mu),
                                    strategy=kernel, bounds=bounds)
                        for kernel in ("full", "bounded", "astar")]
                runs += [price_tree(inst, inst.groups, DualSnapshot(tree, mu),
                                    incumbents=given)
                         for given in (None, incumbents)]
                outcomes.append(runs)
            for by_mapping, by_array in zip(*outcomes):
                assert by_mapping.columns == by_array.columns
                np.testing.assert_array_equal(by_mapping.min_reduced_cost,
                                              by_array.min_reduced_cost)
                assert by_mapping.stats == by_array.stats


def enumerate_tree_minimum(inst, group, duals):
    """Brute force: try every parent assignment covering the sinks."""
    net = inst.network
    w = adjusted_weights(net, duals.mu)
    root = group.source
    nodes = [v for v in range(net.node_count) if v != root]
    in_edges = {v: [int(e) for e in net.in_edges(v) if net.tail[e] != net.head[e]]
                for v in nodes}
    best = np.inf
    for choice in itertools.product(*[in_edges[v] + [None] for v in nodes]):
        parent = {v: e for v, e in zip(nodes, choice) if e is not None}
        # Follow parents from every sink; all must reach the root acyclically.
        support = set()
        ok = True
        for t in group.sink_demands:
            seen = set()
            v = t
            while v != root:
                if v in seen or v not in parent:
                    ok = False
                    break
                seen.add(v)
                e = parent[v]
                support.add(e)
                v = int(net.tail[e])
            if not ok:
                break
        if not ok:
            continue
        flows: dict[int, float] = {}
        for t, d in group.sink_demands.items():
            v = t
            while v != root:
                e = parent[v]
                flows[e] = flows.get(e, 0.0) + d
                v = int(net.tail[e])
        reduced = sum(f * w[e] for e, f in flows.items()) - duals.pi[root]
        best = min(best, reduced)
    return best


class TestTreeBruteForce:
    def test_emitted_tree_is_globally_optimal(self):
        rng = random.Random(21)
        count = 0
        for seed in range(60):
            if count >= 25:
                break
            n = rng.randint(3, 6)
            m = rng.randint(n, 2 * n)
            try:
                inst = generate_random(n, m, min(3, n - 1), 1, seed=seed)
            except Exception:
                continue
            net = inst.network
            mu = np.array([-rng.uniform(0, 2) if rng.random() < 0.4 else 0.0
                           for _ in range(net.edge_count)])
            group = inst.groups[0]
            duals = DualSnapshot(pi={group.source: rng.uniform(0, 40)}, mu=mu)
            out = price_tree(inst, group, duals)
            oracle = enumerate_tree_minimum(inst, group, duals)
            reported = out.min_reduced_cost[group.source]
            assert min(0.0, oracle) == pytest.approx(reported, abs=1e-9)
            count += 1
        assert count >= 25


class TestPathTreeConsistency:
    def test_singleton_groups_match(self):
        rng = random.Random(17)
        for seed in range(10):
            inst = generate_random(10, 30, 4, 4, seed=seed)
            net = inst.network
            assert all(len(g.members) == 1 for g in inst.groups)
            mu = np.array([-rng.uniform(0, 1) if rng.random() < 0.3 else 0.0
                           for _ in range(net.edge_count)])
            for g in inst.groups:
                k = g.members[0]
                d_k = inst.commodities[k].demand
                pi_path = rng.uniform(0, 30)
                path_out = price_paths(inst, g, DualSnapshot({k: pi_path}, mu))
                tree_out = price_tree(inst, g,
                                      DualSnapshot({g.source: pi_path * d_k}, mu))
                # Same support, demand-scaled cost and reduced cost.
                if path_out.columns:
                    pcol = path_out.columns[0]
                    tcol = tree_out.columns[0]
                    assert set(pcol.edges) == set(tcol.edges)
                    assert tcol.cost == pytest.approx(d_k * pcol.cost, rel=1e-12)
                    assert tree_out.min_reduced_cost[g.source] == pytest.approx(
                        d_k * path_out.min_reduced_cost[k], rel=1e-9, abs=1e-9)


class TestLagrangianBound:
    def test_all_nonnegative_proves_optimality(self):
        lb = lagrangian_bound(7.5, np.array([0.0, 0.0]), np.array([2.0, 1.0]))
        assert lb == pytest.approx(7.5)

    def test_tree_mode_instantiation(self):
        lb = lagrangian_bound(5.0, np.array([-1.0]), np.array([1.0]))
        assert lb == pytest.approx(4.0)

    def test_path_mode_instantiation(self):
        lb = lagrangian_bound(6.0, np.array([-0.5, 0.3]), np.array([2.0, 1.0]))
        assert lb == pytest.approx(5.0)

    def test_unknown_owner_gives_no_bound(self):
        rc = np.array([-0.5, np.nan])
        assert lagrangian_bound(6.0, rc, np.array([1.0, 1.0])) is None
        # An id with no weight owns no row; its unknown minimum is ignored.
        assert lagrangian_bound(6.0, rc, np.array([1.0, 0.0])) == pytest.approx(5.5)

    def test_bound_below_oracle_on_random_instances(self):
        from mcflow.baseline import build_edge_lp, solve_direct
        from mcflow.master import new_master
        rng = random.Random(31)
        for seed in range(10):
            inst = generate_random(9, 24, 7, 2, seed=seed, tightness="tight")
            opt = solve_direct(build_edge_lp(inst), "highs").objective
            m = new_master(inst, "tree")
            for col in initial_columns(inst, "tree"):
                m.add_column(col)
            sol = m.solve_rmp()
            duals = DualSnapshot(sol.pi, sol.mu)
            min_rc = np.full(inst.network.node_count, np.nan)
            for g in inst.groups:
                min_rc = np.fmin(min_rc, price_tree(inst, g, duals).min_reduced_cost)
            weights = np.zeros(inst.network.node_count)
            weights[[g.source for g in inst.groups]] = 1.0
            lb = lagrangian_bound(sol.objective, min_rc, weights)
            assert lb is not None
            assert lb <= sol.objective + 1e-9
            assert lb <= opt + 1e-7 * (1 + abs(opt))


class TestInitialColumns:
    def test_one_column_per_owner(self, triangle):
        assert len(initial_columns(triangle, "path")) == 2
        assert len(initial_columns(triangle, "tree")) == 1

    def test_unreachable_commodities_named(self):
        net = Network(3, [(0, 1, 1.0, 5.0)])
        inst = Instance.build(net, [Commodity(0, 1, 1.0), Commodity(0, 2, 1.0)])
        with pytest.raises(InfeasibleError) as err:
            initial_columns(inst, "path")
        assert err.value.owners == (1,)


def batch_digest(batch) -> str:
    """SHA-256 of a column batch's owner, lengths and edges (little-endian
    64-bit integers), then its coefs and cost (little-endian doubles)."""
    h = hashlib.sha256()
    for name, dtype in (("owner", "<i8"), ("lengths", "<i8"), ("edges", "<i8"),
                        ("coefs", "<f8"), ("cost", "<f8")):
        h.update(np.asarray(getattr(batch, name), dtype=dtype).tobytes())
    return h.hexdigest()


# Seed batches of the desk benchmark's three shapes (perfbench/run.py
# WORKLOADS) at the held-out seed 271828: a seeding change that moves any
# bit of a seed column alters a digest. Tree columns list their edges root
# first (see pricing._tree_flows).
SEED_DIGESTS = {
    ((250, 1000, 5000, 100), "loose"): {
        "tree": "60a41c98d221e6113b1425172f549620273ad10a5163611a798d9c368aff7828",
        "path": "1d87f1fde9048d07a7d0f0b0bf226eb0d4c2d8591381839284152260f80777ea",
    },
    ((20, 100, 80, 5), "tight"): {
        "tree": "209b90387516b633f950ac48b3958ebdc2395a85f84480183131a3be01195450",
        "path": "b9864780bc609e7ccc86bf7ac6691fe7fc05245b63ded25bfcbe85a7eb6c7717",
    },
    ((100, 400, 60, 10), "mixed"): {
        "tree": "749a82ca80b0e5301d7db1d7c41548519f1cd66dbb65b7ba49a565e5e5b06e11",
        "path": "977df4995aaf884f1d3104487df47930236959121bb5a90afb0ffbfca3e11bf3",
    },
}

# The same tree seed batches as built when tree columns listed their
# edges by edge id, with each cost summed in that order.
EDGE_ORDER_TREE_DIGESTS = {
    ((250, 1000, 5000, 100), "loose"):
        "2704cda7c538f291a753638b918abcd7443b56d818fcca29939bae55bb40a1ea",
    ((20, 100, 80, 5), "tight"):
        "17069d18f8c96f9bc9ca93135ad231236e8d9765ce4f7d9de077a9c9c7ade5bd",
    ((100, 400, 60, 10), "mixed"):
        "33f3d18179139ae3d4916b4d6495196ceb68d0df0cd496d209344ce34c79de54",
}


@pytest.mark.parametrize("size,tightness", list(SEED_DIGESTS))
def test_seed_batches_match_pinned_digests(size, tightness):
    inst = generate_random(*size, seed=271828, tightness=tightness)
    digests = {mode: batch_digest(initial_columns(inst, mode)) for mode in ("tree", "path")}
    assert digests == SEED_DIGESTS[size, tightness]


@pytest.mark.parametrize("size,tightness", list(EDGE_ORDER_TREE_DIGESTS))
def test_root_first_seed_trees_keep_their_coefficients(size, tightness):
    # Listing tree edges root first moves no owner and no edge's
    # coefficient: sorted back by edge id, with costs summed in that
    # order, each batch is the one built in edge-id order, bit for bit.
    inst = generate_random(*size, seed=271828, tightness=tightness)
    net = inst.network
    trees = initial_columns(inst, "tree")
    order = np.lexsort((trees.edges, trees.col_of))
    edges, coefs = trees.edges[order], trees.coefs[order]
    cost = np.bincount(trees.col_of, weights=coefs * net.cost[edges], minlength=len(trees))
    by_edge = ColumnBatch("tree", trees.owner, trees.lengths, edges, coefs, cost)
    assert batch_digest(by_edge) == EDGE_ORDER_TREE_DIGESTS[size, tightness]
    np.testing.assert_allclose(trees.cost, cost, rtol=1e-12, atol=0.0)
    # Root first: each edge leaves the root or the head of an earlier
    # edge of its column.
    for col in trees:
        seen = {col.owner}
        for e in col.edges:
            assert int(net.tail[e]) in seen
            seen.add(int(net.head[e]))


class TestUnreachableSinks:
    """Every full-kernel pricing call reads an unreached sink as
    unreachable and names all such commodities of the groups it priced;
    bounded and A* rows read it as proven nonnegative."""

    @staticmethod
    def two_groups():
        # Node 3 has no incoming edge: commodity 1 of source 0 and
        # commodity 3 of source 2 cannot be routed.
        net = Network(4, [(0, 1, 1.0, 5.0), (2, 1, 1.0, 5.0)])
        return Instance.build(net, [Commodity(0, 1, 1.0), Commodity(0, 3, 1.0),
                                    Commodity(2, 1, 1.0), Commodity(2, 3, 1.0)])

    @pytest.mark.parametrize("block_entries", [None, 4])
    def test_full_kernels_name_every_commodity(self, monkeypatch, block_entries):
        if block_entries is not None:      # one group per block
            monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES", block_entries)
        inst = self.two_groups()
        calls = [lambda: price_tree(inst, inst.groups, snapshot(np.full(3, 5.0), 2)),
                 lambda: price_paths(inst, inst.groups, snapshot(np.full(4, 5.0), 2)),
                 lambda: initial_columns(inst, "tree"),
                 lambda: initial_columns(inst, "path")]
        for call in calls:
            with pytest.raises(InfeasibleError,
                               match=r"^2 commodities have unreachable sinks: \[1, 3\]$"
                               ) as err:
                call()
            assert err.value.owners == (1, 3)

    @pytest.mark.parametrize("strategy", ["bounded", "astar"])
    def test_early_stopping_kernels_read_it_as_nonnegative(self, strategy):
        from mcflow.graph import reverse_multi_target_bounds
        inst = self.two_groups()
        net = inst.network
        bounds = reverse_multi_target_bounds(net, net.cost, np.unique(inst.sink))
        out = price_paths(inst, inst.groups, snapshot(np.full(4, 5.0), 2),
                          strategy=strategy, bounds=bounds)
        assert sorted(c.owner for c in out.columns) == [0, 2]
        assert known(out) == {0: -4.0, 1: 0.0, 2: -4.0, 3: 0.0}
        assert out.stats.early_stops == 2


def column_key(out):
    return ([(c.owner, c.edges, c.coefs, c.cost) for c in out.columns],
            known(out), out.stats.runs, out.stats.early_stops)


class TestBatchedPricing:
    def test_block_size_does_not_change_columns(self, monkeypatch):
        import mcflow.pricing
        from mcflow.graph import reverse_multi_target_bounds
        rng = random.Random(8)
        for seed in range(6):
            inst = generate_random(15, 45, 40, 7, seed=seed, tightness="mixed")
            net = inst.network
            mu = np.array([-rng.uniform(0, 2) if rng.random() < 0.3 else 0.0
                           for _ in range(net.edge_count)])
            pi = {k: rng.uniform(0, 30) for k in range(len(inst.commodities))}
            path_duals = DualSnapshot(pi=pi, mu=mu)
            tree_duals = DualSnapshot(
                pi={g.source: rng.uniform(0, 300) for g in inst.groups}, mu=mu)
            sinks = {t for g in inst.groups for t in g.sink_demands}
            bounds = reverse_multi_target_bounds(net, net.cost, sinks)

            seed_trees = RestrictedMaster(inst, TREE)
            seed_trees.add_column(initial_columns(inst, TREE))
            incumbents = seed_trees.incumbent_trees(np.ones(len(inst.groups)))

            def run_all():
                runs = [column_key(price_tree(inst, inst.groups, tree_duals,
                                              incumbents=given))
                        for given in (None, incumbents)]
                for strategy in ("full", "bounded", "astar"):
                    runs.append(column_key(price_paths(
                        inst, inst.groups, path_duals, strategy=strategy,
                        bounds=bounds)))
                seeds = [initial_columns(inst, m) for m in ("tree", "path")]
                return runs, seeds

            expected = run_all()
            # Two sources, then one, per kernel call instead of all in one.
            for per_call in (2, 1):
                monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES",
                                    per_call * net.node_count)
                assert run_all() == expected
            monkeypatch.undo()

    def test_vectorized_tree_flows_conserve_flow(self):
        # Zero-cost and parallel edges make many trees tie.
        rng = random.Random(13)
        for seed in range(8):
            base = generate_random(16, 50, 30, 6, seed=seed)
            net0 = base.network
            edges = [(int(net0.tail[e]), int(net0.head[e]),
                      0.0 if rng.random() < 0.3 else float(net0.cost[e]), 1.0)
                     for e in range(net0.edge_count)]
            edges += [edges[rng.randrange(len(edges))] for _ in range(10)]
            net = Network(net0.node_count, edges)
            inst = Instance.build(net, base.commodities)
            for col, g in zip(initial_columns(inst, "tree"), inst.groups):
                inflow, outflow = {}, {}
                for e, f in zip(col.edges, col.coefs):
                    t, h = int(net.tail[e]), int(net.head[e])
                    outflow[t] = outflow.get(t, 0.0) + f
                    inflow[h] = inflow.get(h, 0.0) + f
                assert inflow.get(g.source, 0.0) == 0.0
                assert outflow[g.source] == pytest.approx(g.total_demand)
                for v in set(inflow) | set(outflow):
                    if v != g.source:
                        assert inflow.get(v, 0.0) - outflow.get(v, 0.0) == \
                            pytest.approx(g.sink_demands.get(v, 0.0))


def kernel_tree_rounds(monkeypatch, inst):
    """Solve ``inst`` in tree mode and return every kernel pricing round
    the engine ran: ``(groups, duals, keywords, outcome)``."""
    rounds = []
    real = mcflow.engine.price_tree

    def record(instance, groups, duals, **kwargs):
        out = real(instance, groups, duals, **kwargs)
        rounds.append((list(groups), duals, kwargs, out))
        return out

    monkeypatch.setattr(mcflow.engine, "price_tree", record)
    report = solve(inst, SolverConfig(formulation="tree", rel_tol=1e-7))
    monkeypatch.undo()
    assert report.status == "optimal"
    return report, rounds


def tight_instances():
    return [generate_random(14, 44, 40, 4, seed=seed, tightness="tight")
            for seed in range(4)]


class TestReroutedTrees:
    """With incumbents, a group whose exact tree prices out also emits
    rerouted trees, at most one per branch tip of that tree; everything
    the exact pricing reports stays."""

    def test_emitted_trees_are_valid_and_price_out(self, monkeypatch):
        extras = 0
        for inst in tight_instances():
            net = inst.network
            _, rounds = kernel_tree_rounds(monkeypatch, inst)
            for groups, duals, kw, out in rounds:
                tol = kw["tolerance"]
                validate_columns(out.columns, inst)
                exact = price_tree(inst, groups, duals, tolerance=tol)
                # The reported minima are those of single-column pricing.
                minima, exact_minima = known(out), known(exact)
                assert minima == exact_minima
                first = {c.owner: c for c in exact.columns}
                for g in groups:
                    mine = [c for c in out.columns if c.owner == g.source]
                    if g.source not in minima or minima[g.source] >= -tol:
                        assert mine == []
                        continue
                    # The exact tree first, then at most one extra per
                    # branch tip of it (a node it enters but never leaves).
                    tree = first[g.source]
                    assert mine[0] == tree
                    tips = set(net.head[list(tree.edges)].tolist()) - \
                        set(net.tail[list(tree.edges)].tolist())
                    assert tips <= set(g.sink_demands)
                    assert len(mine) <= 1 + len(tips)
                    extras += len(mine) - 1
                    for col in mine:
                        assert set(g.sink_demands) <= set(net.head[list(col.edges)].tolist())
                        w = adjusted_weights(net, duals.mu)
                        reduced = float(np.dot(col.coefs, w[list(col.edges)]))
                        assert reduced - duals.pi[g.source] < -tol
        assert extras > 0

    def test_kernel_calls_per_round_unchanged(self, monkeypatch):
        calls = []
        real = mcflow.pricing.dijkstra
        inst = tight_instances()[0]
        _, rounds = kernel_tree_rounds(monkeypatch, inst)
        monkeypatch.setattr(mcflow.pricing, "dijkstra",
                            lambda *a: calls.append(a) or real(*a))
        for groups, duals, kw, _ in rounds:
            for incumbents in (None, kw["incumbents"]):
                del calls[:]
                price_tree(inst, groups, duals, tolerance=kw["tolerance"],
                           incumbents=incumbents)
                assert len(calls) == 1

    def test_deadline_stops_between_candidate_chunks(self, monkeypatch):
        # One group per block and one candidate per chunk, under a clock
        # that reads 0, 1, 2, ...: the first block reads 0, its candidate
        # chunks read 1 to m, and a deadline of c + 0.5 lets exactly c of
        # them be costed. The next block then finds the deadline passed.
        def ticking():
            return types.SimpleNamespace(perf_counter=itertools.count().__next__)

        cut_extras = 0
        for inst in tight_instances():
            _, rounds = kernel_tree_rounds(monkeypatch, inst)
            for groups, duals, kw, _ in rounds:
                monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES",
                                    inst.network.node_count)
                args = dict(tolerance=kw["tolerance"], incumbents=kw["incumbents"])
                full = price_tree(inst, groups, duals, **args)
                mine = full.columns[:int(np.sum(full.columns.owner == groups[0].source))]
                clock = ticking()
                monkeypatch.setattr(mcflow.pricing, "time", clock)
                price_tree(inst, groups[:1], duals, deadline=1e9, **args)
                m = clock.perf_counter() - 1        # chunks of the first group
                kept = []
                for c in range(m + 1):
                    monkeypatch.setattr(mcflow.pricing, "time", ticking())
                    out = price_tree(inst, groups, duals, deadline=c + 0.5, **args)
                    assert out.stats.runs == 1
                    assert known(out) == {groups[0].source: known(full)[groups[0].source]}
                    # The exact tree first, then the extras costed so far.
                    assert out.columns[:1] == mine[:1]
                    assert set(kept) <= set(out.columns) <= set(mine)
                    kept = list(out.columns)
                    cut_extras += len(kept) < len(mine)
                assert kept == list(mine)
                monkeypatch.undo()
        assert cut_extras > 0

    def test_kept_extras_stop_once_they_fill_the_block_budget(self, monkeypatch):
        # With SOURCE_BLOCK_ENTRIES = |V|, a kernel block holds one group
        # and a chunk one candidate, and the rerouted trees one call keeps
        # may hold |V| entries: once they do, no further candidate is
        # costed and the later groups keep their exact trees alone. What
        # the exact pricing reports does not move.
        cut_rounds = 0
        for inst in tight_instances():
            n = inst.network.node_count
            _, rounds = kernel_tree_rounds(monkeypatch, inst)
            for groups, duals, kw, _ in rounds:
                args = dict(tolerance=kw["tolerance"], incumbents=kw["incumbents"])
                free = price_tree(inst, groups, duals, **args)
                monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES", n)
                cut = price_tree(inst, groups, duals, **args)
                monkeypatch.undo()
                assert np.array_equal(cut.min_reduced_cost, free.min_reduced_cost,
                                      equal_nan=True)
                extras = []
                short = False           # an earlier group lost an extra
                for g in groups:
                    mine, all_of = ([c for c in out.columns if c.owner == g.source]
                                    for out in (cut, free))
                    assert mine[:1] == all_of[:1]       # the exact tree, if any
                    assert set(mine[1:]) <= set(all_of[1:])
                    if short:
                        assert mine[1:] == []
                    short = short or len(mine) < len(all_of)
                    extras += [len(c.edges) for c in mine[1:]]
                if short:
                    cut_rounds += 1
                    assert sum(extras) >= n > sum(extras) - max(extras)
        assert cut_rounds > 0

    def test_no_extras_without_a_priced_exact_tree(self):
        inst = tight_instances()[1]
        master = RestrictedMaster(inst, TREE)
        master.add_column(initial_columns(inst, TREE))
        incumbents = master.incumbent_trees(np.ones(len(inst.groups)))
        rng = random.Random(3)
        mu = np.array([-rng.uniform(0, 5) for _ in range(inst.network.edge_count)])
        low = DualSnapshot(pi={g.source: 0.0 for g in inst.groups}, mu=mu)
        out = price_tree(inst, inst.groups, low, incumbents=incumbents)
        assert len(out.columns) == 0
        assert set(known(out).values()) == {0.0}
        high = DualSnapshot(pi={g.source: 1e6 for g in inst.groups}, mu=mu)
        out = price_tree(inst, inst.groups, high, incumbents=incumbents)
        assert len(out.columns) > len(inst.groups)

    def test_tight_solve_adds_more_columns_than_sources(self):
        inst = tight_instances()[0]
        report = solve(inst, SolverConfig(formulation="tree"))
        assert report.status == "optimal"
        assert max(it.columns_added for it in report.iterations) > len(inst.groups)
