"""Pricing tests: hand reduced costs, tree flow accumulation, brute-force
tree optimality, and the Lagrangian bound."""

import itertools
import random

import numpy as np
import pytest

import mcflow.engine
import mcflow.pricing
from mcflow.engine import SolverConfig, solve
from mcflow.errors import InfeasibleError, InputError
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.master import TREE, RestrictedMaster, validate_columns
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
            # A column limit leaves later owners unpriced, so NaN minima.
            for limit in (None, 2):
                outcomes = []
                for path, tree in ((path_pi, tree_pi), (path_array, tree_array)):
                    runs = [price_paths(inst, inst.groups, DualSnapshot(path, mu),
                                        strategy=kernel, bounds=bounds,
                                        column_limit=limit)
                            for kernel in ("full", "bounded", "astar")]
                    runs += [price_tree(inst, inst.groups, DualSnapshot(tree, mu),
                                        column_limit=limit, incumbents=given)
                             for given in (None, incumbents)]
                    outcomes.append(runs)
                for by_mapping, by_array in zip(*outcomes):
                    assert by_mapping.columns == by_array.columns
                    np.testing.assert_array_equal(by_mapping.min_reduced_cost,
                                                  by_array.min_reduced_cost)
                    assert by_mapping.stats == by_array.stats
                    if limit is not None:
                        assert by_array.stats.runs < len(inst.groups)


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
                                              column_limit=limit, incumbents=given))
                        for limit in (None, 1, 4, 9) for given in (None, incumbents)]
                for strategy in ("full", "bounded", "astar"):
                    for limit in (None, 3, 12):
                        runs.append(column_key(price_paths(
                            inst, inst.groups, path_duals, strategy=strategy,
                            bounds=bounds, column_limit=limit)))
                seeds = [initial_columns(inst, m) for m in ("tree", "path")]
                return runs, seeds

            expected = run_all()
            # Two sources, then one, per kernel call instead of all in one.
            for per_call in (2, 1):
                monkeypatch.setattr(mcflow.pricing, "SOURCE_BLOCK_ENTRIES",
                                    per_call * net.node_count)
                assert run_all() == expected
            monkeypatch.undo()

    def test_column_limit_stops_after_the_group_that_reaches_it(self):
        inst = generate_random(12, 36, 30, 6, seed=2, tightness="loose")
        duals = DualSnapshot(pi={k: 1e3 for k in range(30)},
                             mu=np.zeros(inst.network.edge_count))
        out = price_paths(inst, inst.groups, duals, column_limit=1)
        first = inst.groups[0]
        assert [c.owner for c in out.columns] == list(first.members)
        assert set(known(out)) == set(first.members)
        assert out.stats.runs == 1

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
                assert minima == {s: exact_minima[s] for s in minima}
                if kw["column_limit"] is None:
                    assert set(minima) == set(exact_minima)
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

    def test_column_limit_keeps_the_exact_tree_first(self, monkeypatch):
        cut_inside_a_group = 0
        for inst in tight_instances():
            _, rounds = kernel_tree_rounds(monkeypatch, inst)
            for groups, duals, kw, _ in rounds:
                args = dict(tolerance=kw["tolerance"], incumbents=kw["incumbents"])
                full = price_tree(inst, groups, duals, **args)
                owners = full.columns.owner.tolist()
                for limit in range(1, len(full.columns) + 1):
                    out = price_tree(inst, groups, duals, column_limit=limit, **args)
                    # Columns come in group order, each group's exact tree
                    # first, so the limit keeps a prefix of the full round.
                    assert out.columns == full.columns[:limit]
                    last = owners[limit - 1]
                    priced = [g.source for g in groups][:out.stats.runs]
                    assert priced[-1] == last
                    assert set(known(out)) == set(priced)
                    cut_inside_a_group += limit < len(owners) and owners[limit] == last
        assert cut_inside_a_group > 0

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
