"""Restricted master tests: hand LPs, lazy rows, slacks, dual signs."""

import numpy as np
import pytest

from mcflow.engine import ColGenSolver, SolverConfig
from mcflow.errors import InputError, LpTimeLimit
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.lp import HighsBackend, HighsModel
from mcflow.master import (Column, ColumnBatch, RestrictedMaster, new_master,
                           validate_columns)
from mcflow.pricing import initial_columns

TREE_COL = Column(owner=0, kind="tree", edges=(0, 1), coefs=(3.0, 2.0), cost=5.0)
PATH_ABC = Column(owner=0, kind="path", edges=(0, 1), coefs=(1.0, 1.0), cost=2.0)
PATH_AC = Column(owner=0, kind="path", edges=(2,), coefs=(1.0,), cost=3.0)
PATH_AB = Column(owner=1, kind="path", edges=(0,), coefs=(1.0,), cost=1.0)
PATH_BC = Column(owner=2, kind="path", edges=(1,), coefs=(1.0,), cost=1.0)


def two_source_net():
    """0->1->2 at cost 1 per edge and 3->4, 3->5 at cost 0.1 per edge."""
    return Network(6, [(0, 1, 1.0, 99.0), (1, 2, 1.0, 99.0), (3, 4, 0.1, 99.0),
                       (3, 5, 0.1, 99.0)])


@pytest.fixture
def triangle_three(triangle_capped):
    """``triangle_capped`` plus k2: b->c demand 0.5. Three path rows on
    three edges, so the slack rule picks edge slack in path mode."""
    return Instance.build(triangle_capped.network,
                          [*triangle_capped.commodities, Commodity(1, 2, 0.5)])


class TestNewMaster:
    def test_tree_mode_row_count(self, triangle):
        m = new_master(triangle, "tree")
        assert len(m.owners) == 1
        assert len(m.active_edges) == 0

    def test_path_mode_row_count(self, triangle):
        m = new_master(triangle, "path")
        assert len(m.owners) == 2
        assert list(m.demand_rhs) == [2.0, 1.0]

    def test_slack_policy_rule(self, triangle, triangle_three):
        # Source a holds k0 and k1 -> edge slack in both modes, though the
        # triangle's 2 path rows are fewer than its 3 edges. A triangle
        # whose two commodities leave distinct sources -> demand slack.
        for mode in ("path", "tree"):
            assert new_master(triangle, mode).slack_policy == "edge"
            assert new_master(triangle_three, mode).slack_policy == "edge"
            unique = Instance.build(triangle.network, [Commodity(0, 2, 2.0),
                                                       Commodity(1, 2, 1.0)])
            assert new_master(unique, mode).slack_policy == "demand"

    @pytest.mark.parametrize("mode,commodities,policy", [
        # 2 single-member path rows < 3 edges.
        ("path", [(0, 2, 2.0), (1, 2, 0.5)], "demand"),
        # 3 path rows on 3 edges.
        ("path", [(0, 2, 2.0), (0, 1, 1.0), (1, 2, 0.5)], "edge"),
        # 2 single-member tree rows < 3 edges.
        ("tree", [(0, 2, 2.0), (1, 2, 0.5)], "demand"),
        # 3 single-member tree rows on 3 edges.
        ("tree", [(0, 2, 2.0), (1, 2, 0.5), (2, 0, 1.0)], "edge"),
        # 2 tree rows < 3 edges, but source a's row holds two commodities
        # on one (source, sink) pair.
        ("tree", [(0, 2, 2.0), (0, 2, 1.0), (1, 2, 0.5)], "edge"),
        # 2 path rows < 3 edges, but source a holds both commodities.
        ("path", [(0, 2, 2.0), (0, 1, 1.0)], "edge"),
    ])
    def test_slack_policy_table(self, triangle_net, mode, commodities, policy):
        inst = Instance.build(triangle_net, [Commodity(*c) for c in commodities])
        assert new_master(inst, mode).slack_policy == policy

    @pytest.mark.parametrize("size,policy", [
        ((12, 36, 4, 4), "demand"),         # one commodity per source, |K| < |E|
        ((8, 8, 8, 8), "edge"),             # one commodity per source, |K| = |E|
        ((12, 36, 14, 4), "edge"),          # shared sources, |K| < |E|
        ((8, 16, 20, 4), "edge"),           # shared sources, |K| > |E|
        ((250, 1000, 5000, 100), "edge"),   # the benchmark's bulk-loose size
        ((20, 100, 80, 5), "edge"),         # tight-master
        ((100, 400, 60, 10), "edge"),       # few-commodities
    ])
    def test_tree_and_path_masters_share_the_slack_rule(self, size, policy):
        inst = generate_random(*size, seed=271828, tightness="mixed")
        single = len(inst.groups) == len(inst.commodities)
        assert single == (size[2] == size[3])
        assert policy == ("demand" if single and size[2] < size[1] else "edge")
        assert new_master(inst, "tree").slack_policy == policy
        assert new_master(inst, "path").slack_policy == policy

    def test_big_m_values(self, triangle):
        path_m = new_master(triangle, "path")
        tree_m = new_master(triangle, "tree")
        assert path_m.big_m == pytest.approx(5.0)          # sum of edge costs
        assert tree_m.big_m == pytest.approx(5.0)          # per unit of flow too
        # A source row's slack drops the group's whole demand of 3.
        assert tree_m.demand_slack_costs.tolist() == pytest.approx([5.0 * 3.0])

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_slack_prices_follow_the_demand_below_unit_cost(self, backend):
        # Edge costs sum to 0.4 < 1, so big-M is 1. Each single-member
        # source row stands for its commodity's demand and its slack costs
        # big-M per unit of it, as the path row's does: the two masters
        # stay the same LP.
        net = Network(3, [(0, 1, 0.1, 9.0), (1, 2, 0.1, 9.0), (0, 2, 0.2, 9.0)])
        inst = Instance.build(net, [Commodity(0, 2, 4.0), Commodity(1, 2, 2.0)])
        path_m, tree_m = new_master(inst, "path"), new_master(inst, "tree")
        assert tree_m.slack_policy == path_m.slack_policy == "demand"
        assert tree_m.big_m == path_m.big_m == 1.0
        assert path_m.demand_slack_costs.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(tree_m.demand_slack_costs,
                                      path_m.demand_slack_costs * inst.demand)
        assert tree_m.solve_rmp(backend).objective == pytest.approx(6.0)
        assert path_m.solve_rmp(backend).objective == pytest.approx(6.0)


class TestAddColumn:
    def test_insert_and_dedup(self, triangle):
        m = new_master(triangle, "path")
        cid = m.add_column(PATH_ABC)
        assert m.pool_size == 1
        assert m.add_column(PATH_ABC) == cid
        assert m.pool_size == 1

    def test_tree_cycle_rejected(self, triangle):
        m = new_master(triangle, "tree")
        bad = Column(owner=0, kind="tree", edges=(0, 1, 2), coefs=(1.0, 1.0, 1.0),
                     cost=5.0)
        with pytest.raises(InputError, match="in-degree"):
            m.add_column(bad)

    def test_path_validation(self, triangle):
        # b->c alone leaves a->c's path disconnected from its source; the
        # edges of a path may come in any order.
        bad = Column(owner=0, kind="path", edges=(1,), coefs=(1.0,), cost=1.0)
        with pytest.raises(InputError, match="disconnected or cyclic at node 2"):
            validate_columns([bad], triangle)
        validate_columns([Column(owner=0, kind="path", edges=(1, 0), coefs=(1.0, 1.0),
                                 cost=2.0)], triangle)

    def test_cost_identity_enforced(self, triangle):
        bad = Column(owner=0, kind="path", edges=(0, 1), coefs=(1.0, 1.0), cost=9.0)
        with pytest.raises(InputError, match="cost"):
            validate_columns([bad], triangle)

    @pytest.mark.parametrize("formulation", ["tree", "path"])
    def test_each_pool_column_validated_once(self, monkeypatch, formulation):
        import mcflow.master
        from mcflow.engine import ColGenSolver, SolverConfig
        calls = []
        real = mcflow.master.validate_columns

        def spy(cols, instance):
            cols = list(cols)
            calls.extend(col.support_key for col in cols)
            return real(cols, instance)

        monkeypatch.setattr(mcflow.master, "validate_columns", spy)
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        solver = ColGenSolver(inst, SolverConfig(formulation=formulation,
                                                 rel_tol=1e-7))
        assert solver.run().status == "optimal"
        pool = list(solver.master.columns)
        assert len(calls) == len(pool) > 3
        # Offer the engine's pool to a fresh master: a few columns first,
        # then one batch that repeats pooled columns and its own columns.
        calls.clear()
        m = new_master(inst, formulation)
        k = len(m.owners)
        assert m.add_column(pool[:k]) == list(range(k))
        m.solve_rmp()
        ids = list(range(len(pool)))
        assert m.add_column(pool + pool[::-1]) == ids + ids[::-1]
        assert m.add_column(pool[1]) == 1
        assert m.active_column_ids == ids
        assert len(calls) == m.pool_size == len(pool)
        assert len(set(calls)) == len(calls)

    def test_column_of_the_other_kind_raises(self, triangle):
        # Node 1 owns no tree row, and source 3 is no commodity of the
        # two-commodity path master: the kind is what is wrong.
        tree_m = new_master(triangle, "tree")
        with pytest.raises(InputError, match="tree master only accepts tree columns"):
            tree_m.add_column(Column(owner=1, kind="path", edges=(0,), coefs=(1.0,),
                                     cost=1.0))
        inst = Instance.build(two_source_net(), [Commodity(0, 1, 1.0),
                                                 Commodity(3, 4, 1.0)])
        path_m = new_master(inst, "path")
        with pytest.raises(InputError, match="path master only accepts path columns"):
            path_m.add_column(Column(owner=3, kind="tree", edges=(2,), coefs=(1.0,),
                                     cost=0.1))
        # A batch of the other kind whose first column is malformed (it
        # repeats an edge) raises that column's error, and pools nothing.
        batch = [Column(owner=0, kind="path", edges=(2, 2), coefs=(1.0, 1.0), cost=6.0),
                 PATH_ABC]
        with pytest.raises(InputError, match="repeats edges"):
            tree_m.add_column(batch)
        with pytest.raises(InputError, match="tree master only accepts tree columns"):
            tree_m.add_column(batch[::-1])
        assert tree_m.pool_size == path_m.pool_size == 0

    def test_malformed_column_with_new_key_raises(self, triangle):
        m = new_master(triangle, "path")
        m.add_column(PATH_ABC)
        bad = Column(owner=0, kind="path", edges=(1,), coefs=(1.0,), cost=1.0)
        with pytest.raises(InputError, match="disconnected"):
            m.add_column(bad)
        assert m.pool_size == 1


def pool_arrays(m):
    pool = m.columns
    arrays = {name: getattr(pool, name) for name in ("owner", "lengths", "edges",
                                                       "coefs", "cost")}
    return {**arrays, "_row": m._row}


def offered_batches(inst, mode):
    """An engine pool offered again in three batches, with repeats of
    pooled columns and of columns earlier in the same batch."""
    from mcflow.engine import ColGenSolver, SolverConfig
    solver = ColGenSolver(inst, SolverConfig(formulation=mode, rel_tol=1e-7))
    solver.run()
    pool = list(solver.master.columns)
    k = len(pool) // 2
    return [pool[:k], pool[k - 2:] + pool[:3] + [pool[k], pool[-1]], pool[::-1]]


class TestColumnBatch:
    @pytest.mark.parametrize("mode", ["tree", "path"])
    def test_list_and_batch_ingest_alike(self, mode):
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        offers = offered_batches(inst, mode)
        by_list, by_batch = new_master(inst, mode), new_master(inst, mode)
        for cols in offers:
            ids = by_list.add_column(cols)
            assert by_batch.add_column(ColumnBatch.from_columns(cols)) == ids
        for name, a in pool_arrays(by_list).items():
            b = pool_arrays(by_batch)[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        pool = offers[2][::-1]
        assert list(by_batch.columns) == pool
        k = len(offers[0])
        assert ids == list(range(len(pool)))[::-1]
        assert by_list.add_column(offers[1]) == \
            list(range(k - 2, len(pool))) + [0, 1, 2, k, len(pool) - 1]

    @pytest.mark.parametrize("mode", ["tree", "path"])
    def test_constant_hash_keeps_the_support_key_rule(self, monkeypatch, mode):
        import mcflow.master
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        offers = offered_batches(inst, mode)
        plain = new_master(inst, mode)
        ids = [plain.add_column(cols) for cols in offers]
        monkeypatch.setattr(mcflow.master, "_support_hash",
                            lambda batch: np.zeros(len(batch), dtype=np.uint64))
        colliding = new_master(inst, mode)
        assert [colliding.add_column(cols) for cols in offers] == ids
        assert list(colliding.columns) == list(plain.columns)
        assert len({c.support_key for c in plain.columns}) == plain.pool_size

    def test_edge_order_and_coefficients_are_not_the_key(self, triangle, monkeypatch):
        import mcflow.master
        flipped = Column(owner=0, kind="tree", edges=(1, 0), coefs=(2.0, 3.0), cost=5.0)
        # a->b carries b's demand of 1 and a->c c's demand of 2.
        other = Column(owner=0, kind="tree", edges=(2, 0), coefs=(2.0, 1.0), cost=7.0)
        for constant in (False, True):
            if constant:
                monkeypatch.setattr(mcflow.master, "_support_hash",
                                    lambda batch: np.full(len(batch), 7, dtype=np.uint64))
            m = new_master(triangle, "tree")
            assert m.add_column([TREE_COL, other, flipped, other]) == [0, 1, 0, 1]
            assert m.add_column(flipped) == 0
            assert m.columns[0] == TREE_COL and m.columns[-1] == other

    def test_views(self, triangle):
        m = new_master(triangle, "path")
        m.add_column([PATH_ABC, PATH_AB, PATH_AC])
        pool = m.columns
        assert len(pool) == 3 and pool[1] == PATH_AB and pool[-1] == PATH_AC
        assert list(pool) == [PATH_ABC, PATH_AB, PATH_AC]
        assert pool[1:] == ColumnBatch.from_columns([PATH_AB, PATH_AC])
        assert pool.take([2, 0]) == ColumnBatch.from_columns([PATH_AC, PATH_ABC])
        assert isinstance(pool[0].edges[0], int) and isinstance(pool[0].cost, float)

    def test_mismatched_column_is_refused_at_the_door(self, triangle):
        m = new_master(triangle, "path")
        m.add_column(PATH_ABC)
        bad = Column(owner=0, kind="path", edges=(0, 1), coefs=(1.0,), cost=2.0)
        with pytest.raises(InputError, match="2 edges but 1 coefficients"):
            m.add_column(bad)
        with pytest.raises(InputError, match="disagree in size"):
            ColumnBatch("path", [0], [2], [0, 1], [1.0], [2.0])

    def test_a_batch_has_one_kind(self):
        with pytest.raises(InputError, match="path or tree columns, not both"):
            ColumnBatch.from_columns([PATH_ABC, TREE_COL])
        bogus = Column(owner=0, kind="bogus", edges=(0,), coefs=(1.0,), cost=1.0)
        with pytest.raises(InputError, match="unknown column kind 'bogus'"):
            ColumnBatch.from_columns([PATH_ABC, bogus])
        paths = ColumnBatch.from_columns([PATH_ABC, PATH_AB])
        assert paths.kind == "path" and paths[1].kind == "path"
        with pytest.raises(InputError, match="cannot concatenate path and tree"):
            ColumnBatch.concat([paths, ColumnBatch.from_columns(TREE_COL)])
        for kind in ("tree", "path", ""):
            empty = ColumnBatch(kind, [], [], [], [], [])
            assert ColumnBatch.concat([empty, paths, empty]) == paths
        assert ColumnBatch.concat([ColumnBatch("tree", [], [], [], [], []),
                                   ColumnBatch.from_columns(TREE_COL)]).kind == "tree"

    @pytest.mark.parametrize("mode", ["tree", "path"])
    def test_the_pool_is_one_batch(self, mode):
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        m = new_master(inst, mode)
        assert m.columns is m.columns and m.columns.kind == mode
        fresh = []                  # each new column where its id first occurs
        for cols in offered_batches(inst, mode):
            for col, i in zip(cols, m.add_column(cols)):
                if i == len(fresh):
                    fresh.append(col)
        assert m.columns is m.columns and len(fresh) == m.pool_size
        assert m.columns == ColumnBatch.from_columns(fresh)


def engine_batches(inst, mode):
    """Every batch a solve hands its master, in order, and the solve."""
    solver = ColGenSolver(inst, SolverConfig(formulation=mode, rel_tol=1e-7))
    batches, real = [], solver.master.add_column

    def recording(cols):
        batches.append(cols)
        return real(cols)

    solver.master.add_column = recording
    solver.run()
    return batches, solver


class TestPoolGrowth:
    @pytest.mark.parametrize("mode", ["tree", "path"])
    def test_batch_by_batch_equals_one_batch(self, mode):
        inst = generate_random(20, 100, 80, 5, seed=3, tightness="tight")
        batches, solver = engine_batches(inst, mode)
        assert len(batches) > 10
        by_batch, at_once = new_master(inst, mode), new_master(inst, mode)
        views = []                  # (view, copy) of the pool after each batch
        for batch in batches:
            by_batch.add_column(batch)
            views.append((by_batch.columns, by_batch.columns[:]))
        at_once.add_column(ColumnBatch.concat(batches))
        assert by_batch.pool_size == solver.master.pool_size
        for m in (by_batch, at_once):
            m.add_capacity_rows(solver.master.active_edges)
        arrays = (pool_arrays(by_batch), pool_arrays(at_once), pool_arrays(solver.master))
        for name in arrays[0]:
            assert len({(a[name].dtype, a[name].tobytes()) for a in arrays}) == 1, name
        assert by_batch._hash.tobytes() == at_once._hash.tobytes()
        lps = [m.build_lp()[0] for m in (by_batch, at_once)]
        for name in ("objective", "rhs", "rows", "cols", "vals"):
            a, b = (getattr(lp, name) for lp in lps)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert lps[0].senses == lps[1].senses and lps[0].num_cols == lps[1].num_cols
        x = np.random.default_rng(4).integers(0, 3, by_batch.pool_size) / 2.0
        assert np.array_equal(by_batch.incumbent_trees(x), at_once.incumbent_trees(x))
        # A view taken earlier keeps its columns through later appends.
        for view, copy in views:
            assert view == copy and not view.edges.flags.writeable

    def test_rejected_batch_leaves_the_buffers(self, triangle):
        m = new_master(triangle, "path")
        m.add_column([PATH_ABC, PATH_AC])
        pool = m.columns
        bad = Column(owner=1, kind="path", edges=(1,), coefs=(1.0,), cost=1.0)
        with pytest.raises(InputError, match="disconnected"):
            m.add_column([PATH_AB, bad])
        assert m.columns is pool and m.pool_size == 2
        assert m.add_column(PATH_AB) == 2
        assert list(m.columns) == [PATH_ABC, PATH_AC, PATH_AB]
        assert list(pool) == [PATH_ABC, PATH_AC]


class TestIncumbentTrees:
    def test_matches_a_loop_over_the_pool(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            inst = generate_random(14, 44, 40, 4, seed=seed, tightness="tight")
            solver = ColGenSolver(inst, SolverConfig(formulation="tree"))
            solver.run()
            master = solver.master
            net = inst.network
            # The last primal, then random values with ties.
            for x in (master.solution.x, rng.integers(0, 3, master.pool_size) / 2.0):
                expected = np.full((len(master.owners), net.node_count), -1)
                best = {}
                for i, col in enumerate(master.columns):
                    if col.owner not in best or x[i] > x[best[col.owner]]:
                        best[col.owner] = i
                for row, owner in enumerate(master.owners):
                    for e in master.columns[best[owner]].edges:
                        expected[row, net.head[e]] = e
                assert np.array_equal(master.incumbent_trees(x), expected)


class TestSolveRmp:
    def test_single_tree_column(self, triangle):
        m = new_master(triangle, "tree")
        m.add_column(TREE_COL)
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(5.0)
        assert sol.pi[0] == pytest.approx(5.0)
        assert np.all(sol.mu == 0.0)

    def test_slack_only_master(self, triangle_net):
        # One single-member source row (k0: a->c demand 2) on 3 edges keeps
        # demand slack, priced at big-M times the demand.
        m = new_master(Instance.build(triangle_net, [Commodity(0, 2, 2.0)]), "tree")
        assert m.slack_policy == "demand"
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(m.big_m * 2.0)
        assert sol.pi[0] == pytest.approx(m.big_m * 2.0)
        assert sol.slack.max() == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_demand_row_without_column_raises_under_edge_slack(self, backend):
        # Two multi-member sources, so edge slack and no demand slack. Source
        # 0 sends 21 units over 0->1 and 20 over 1->2 on its only tree.
        # Source 3 has no column, so its row cannot be met.
        inst = Instance.build(two_source_net(), [
            Commodity(0, 1, 1.0), Commodity(0, 2, 20.0),
            Commodity(3, 4, 1.0), Commodity(3, 5, 1.0)])
        m = new_master(inst, "tree")
        assert m.slack_policy == "edge"
        m.add_column(Column(owner=0, kind="tree", edges=(0, 1), coefs=(21.0, 20.0),
                            cost=41.0))
        with pytest.raises(InputError, match=r"owners \[3\]"):
            m.solve_rmp(backend)
        m.add_column(Column(owner=3, kind="tree", edges=(2, 3), coefs=(1.0, 1.0),
                            cost=0.2))
        sol = m.solve_rmp(backend)
        assert sol.x.tolist() == pytest.approx([1.0, 1.0])
        assert sol.objective == pytest.approx(41.2)

    def test_path_mode_two_columns(self, triangle):
        m = new_master(triangle, "path")
        m.add_column(PATH_ABC)
        m.add_column(PATH_AB)
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(2.0 * 2 + 1.0)

    def test_capacity_row_raises_objective(self, triangle_capped):
        m = new_master(triangle_capped, "path")
        for col in (PATH_ABC, PATH_AC, PATH_AB):
            m.add_column(col)
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(5.0)      # capacity ignored so far
        assert m.violated_capacities() == [1]           # b->c at flow 2 > cap 1
        m.add_capacity_rows([1])
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(6.0)
        flows = m.aggregate_edge_flows()
        assert flows[1] <= 1.0 + 1e-9
        assert m.violated_capacities() == []

    def test_add_active_edge_is_noop(self, triangle):
        m = new_master(triangle, "tree")
        m.add_capacity_rows([1])
        m.add_capacity_rows([1])
        assert m.active_edges == [1]
        # Rows in the given order, each edge once; an unknown edge adds none.
        m.add_capacity_rows(np.array([2, 1, 2, 0]))
        assert m.active_edges == [1, 2, 0]
        assert m._cap_pos.tolist() == [2, 0, 1]
        for edges, unknown in (([0, 3, -1], 3), ([-1, 3], -1)):
            with pytest.raises(InputError, match=f"unknown edge {unknown}$"):
                m.add_capacity_rows(edges)
        assert m.active_edges == [1, 2, 0]
        m.add_capacity_rows([])
        assert m.active_edges == [1, 2, 0]
        fresh = new_master(triangle, "tree")
        with pytest.raises(InputError, match="unknown edge 3"):
            fresh.add_capacity_rows([0, 3])
        assert fresh.active_edges == [] and fresh._cap_pos.max() == -1

    def test_vacuous_capacity_row(self, triangle):
        m = new_master(triangle, "tree")
        m.add_column(TREE_COL)
        m.add_capacity_rows([2])    # a->c used by no pooled column
        sol = m.solve_rmp()
        assert sol.objective == pytest.approx(5.0)
        assert sol.mu[2] == pytest.approx(0.0)

    def test_exactly_at_capacity_not_violated(self, triangle):
        m = new_master(triangle, "tree")
        # Tree carries 2 units on b->c; capacity exactly 2 on that edge.
        inst = triangle
        inst.network.capacity.setflags(write=True)
        inst.network.capacity[1] = 2.0
        inst.network.capacity.setflags(write=False)
        m.add_column(TREE_COL)
        m.solve_rmp()
        assert m.violated_capacities() == []


class TestSeedSolve:
    """The seed restriction (no capacity row, one column per demand row)
    is solved in closed form; it must equal a cold LP solve."""

    @pytest.mark.parametrize("mode,size,policy", [
        ("path", (12, 36, 4, 4), "demand"),
        ("path", (8, 16, 20, 4), "edge"),
        ("tree", (12, 36, 4, 4), "demand"),
        ("tree", (12, 36, 14, 4), "edge"),
        ("path", (12, 36, 14, 4), "edge"),
    ])
    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_equals_a_cold_solve(self, mode, size, policy, backend):
        inst = generate_random(*size, seed=21, tightness="tight")
        m = new_master(inst, mode)
        assert m.slack_policy == policy
        m.add_column(initial_columns(inst, mode))
        sol = m.solve_rmp(backend)
        assert m._model is None
        assert sol.simplex_iterations == 0
        cold = HighsBackend().solve(m.build_lp()[0])
        n, rows = m.pool_size, len(m.owners)
        assert sol.objective == pytest.approx(cold.objective, rel=1e-12)
        np.testing.assert_allclose(sol.x, cold.x[:n], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol.slack, cold.x[n:], atol=1e-12)
        assert sol.slack.size == (rows if policy == "demand" else 0)
        np.testing.assert_allclose(sol.pi[m.owners], cold.duals[:rows], rtol=1e-12)
        assert np.isnan(np.delete(sol.pi, m.owners)).all()
        assert cold.duals.size == rows and not sol.mu.any()
        assert sol.mu.size == inst.network.edge_count

    def test_dearer_than_slack_takes_the_lp(self, triangle_net):
        # k0: a->c demand 2 and k1: b->c demand 1 leave distinct sources, so
        # the master keeps demand slack. k0's only path costs 2 per unit,
        # more than its slack price of 1.5, so k0 ships on slack at the LP
        # optimum.
        inst = Instance.build(triangle_net, [Commodity(0, 2, 2.0), Commodity(1, 2, 1.0)])
        m = new_master(inst, "path")
        assert m.slack_policy == "demand"
        m.add_column([PATH_ABC, Column(owner=1, kind="path", edges=(1,), coefs=(1.0,),
                                       cost=1.0)])
        m.demand_slack_costs = np.array([1.5, 5.0])
        sol = m.solve_rmp()
        assert m._model is not None
        assert sol.x.tolist() == pytest.approx([0.0, 1.0])
        assert sol.slack.tolist() == pytest.approx([2.0, 0.0])
        assert sol.pi[:2].tolist() == pytest.approx([1.5, 1.0])
        assert sol.objective == pytest.approx(1.5 * 2.0 + 1.0)

    @pytest.mark.parametrize("extra", ["row", "column"])
    def test_other_states_take_the_lp(self, triangle_capped, extra):
        m = new_master(triangle_capped, "path")
        m.add_column([PATH_ABC, PATH_AB])
        if extra == "row":
            m.add_capacity_rows([1])
        else:
            m.add_column(PATH_AC)
        sol = m.solve_rmp()
        assert m._model is not None
        assert_matches_cold(m, sol)


class TestDualNormalization:
    def test_mu_nonpositive_and_adjusted_costs_nonnegative(self):
        inst = generate_random(12, 30, 10, 3, seed=2, tightness="tight")
        m = new_master(inst, "tree")
        from mcflow.pricing import initial_columns
        for col in initial_columns(inst, "tree"):
            m.add_column(col)
        sol = m.solve_rmp()
        for _ in range(10):
            viol = m.violated_capacities()
            if not viol:
                break
            m.add_capacity_rows(viol)
            sol = m.solve_rmp()
        assert np.all(sol.mu <= 0.0)
        assert np.all(inst.network.cost - sol.mu >= 0.0)

    def test_inactive_rows_expose_zero_dual(self, triangle):
        m = new_master(triangle, "tree")
        m.add_column(TREE_COL)
        sol = m.solve_rmp()
        assert list(sol.mu) == [0.0, 0.0, 0.0]


class TestMonotonicity:
    def test_objective_nonincreasing_with_columns(self, triangle_capped):
        m = new_master(triangle_capped, "path")
        m.add_column(PATH_ABC)
        m.add_column(PATH_AB)
        m.add_capacity_rows([1])
        z1 = m.solve_rmp().objective
        m.add_column(PATH_AC)
        z2 = m.solve_rmp().objective
        assert z2 <= z1 + 1e-9

    def test_objective_nondecreasing_with_rows(self, triangle_capped):
        m = new_master(triangle_capped, "path")
        for col in (PATH_ABC, PATH_AC, PATH_AB):
            m.add_column(col)
        z1 = m.solve_rmp().objective
        m.add_capacity_rows([1])
        z2 = m.solve_rmp().objective
        assert z2 >= z1 - 1e-9


def cold_objective(master):
    """Objective of the master's current restriction, rebuilt and solved cold."""
    return HighsBackend().solve(master.build_lp()[0]).objective


def assert_matches_cold(master, sol):
    assert sol.objective == pytest.approx(cold_objective(master), rel=1e-9)


class StrategyLog:
    """A HiGHS handle that records ``simplex_strategy`` at every run."""

    def __init__(self, highs):
        self._highs = highs
        self.strategies = []

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self.strategies.append(self._highs.getOptionValue("simplex_strategy")[1])
        return self._highs.run()


class TestLiveModel:
    """The kept HiGHS model must always equal the rebuilt restriction."""

    def test_built_lazily_and_kept(self, triangle):
        m = new_master(triangle, "tree")
        assert m._model is None
        m.add_column(TREE_COL)
        m.solve_rmp()
        # The seed restriction is solved in closed form.
        assert m._model is None
        m.add_capacity_rows([1])
        m.solve_rmp()
        model = m._model
        assert model is not None
        m.add_capacity_rows([0])
        m.solve_rmp()
        assert m._model is model

    def test_updates_match_cold_solves(self, triangle_three):
        # Edge slack: every demand row needs a column before the first solve.
        m = new_master(triangle_three, "path")
        assert m.slack_policy == "edge"
        m.add_column([PATH_ABC, PATH_AB, PATH_BC])
        assert_matches_cold(m, m.solve_rmp())
        # b->c carries 2.5 units on capacity 1 until a->c is pooled.
        m.add_capacity_rows([1])
        sol = m.solve_rmp()
        assert sol.slack.max() == pytest.approx(1.5)
        assert_matches_cold(m, sol)
        m.escalate_big_m()
        assert_matches_cold(m, m.solve_rmp())
        m.add_column(PATH_AC)
        sol = m.solve_rmp()
        # k0 sends 0.5 over a->b->c and 1.5 over a->c.
        assert sol.objective == pytest.approx(1.0 + 4.5 + 1.0 + 0.5)
        assert sol.slack.max(initial=0.0) == pytest.approx(0.0)
        assert_matches_cold(m, sol)
        m.add_capacity_rows([0, 2])
        assert_matches_cold(m, m.solve_rmp())

    def test_escalation_reprices_slacks(self, triangle_three):
        # b->c carries 2.5 units on capacity 1, so 1.5 units of its row's
        # slack cost big-M each on top of the columns' 5.5.
        m = new_master(triangle_three, "path")
        assert m.slack_policy == "edge"
        m.add_column([PATH_ABC, PATH_AB, PATH_BC])
        m.add_capacity_rows([1])
        before = m.solve_rmp().objective
        assert before == pytest.approx(5.5 + 1.5 * m.big_m)
        m.escalate_big_m()
        sol = m.solve_rmp()
        assert sol.objective - 5.5 == pytest.approx(100.0 * (before - 5.5))
        assert_matches_cold(m, sol)

    def test_first_solve_chooses_later_solves_run_primal(self):
        model = HighsModel()
        highs = model._h = StrategyLog(model._h)
        # min x0 + 2 x1  s.t.  x0 + x1 = 1.
        model.add_rows(["E"], [1.0])
        model.add_cols([1.0, 2.0], [0, 1, 2], [0, 0], [1.0, 1.0])
        assert model.solve().objective == pytest.approx(1.0)
        # A cheaper column, then a row that caps it at 0.25.
        model.add_cols([0.5], [0, 1], [0], [1.0])
        assert model.solve().objective == pytest.approx(0.5)
        model.add_rows(["L"], [0.25], [0, 1], [2], [1.0])
        assert model.solve().objective == pytest.approx(0.125 + 0.75)
        # 0 is HiGHS's choice, 4 its primal simplex.
        assert highs.strategies == [0, 4, 4]

    def test_primal_re_solves_take_fewer_pivots(self, monkeypatch):
        inst = generate_random(20, 100, 80, 5, seed=0, tightness="tight")

        def run(mode):
            report = ColGenSolver(inst, SolverConfig(formulation=mode)).run()
            assert report.status == "optimal"
            return (report.objective,
                    sum(it.simplex_iterations for it in report.iterations))

        primal = {mode: run(mode) for mode in ("tree", "path")}
        solve = HighsModel.solve

        def keep_choose(model, time_limit=None):
            model._h.setOptionValue("simplex_strategy", 0)
            return solve(model, time_limit)

        monkeypatch.setattr(HighsModel, "solve", keep_choose)
        for mode, (objective, pivots) in primal.items():
            choose_objective, choose_pivots = run(mode)
            assert objective == pytest.approx(choose_objective, rel=1e-9)
            # Measured: tree 1,276 against 1,475, path 518 against 828.
            assert pivots < choose_pivots

    def test_builtin_and_highs_masters_agree(self):
        inst = generate_random(12, 30, 10, 3, seed=2, tightness="tight")
        masters = {b: new_master(inst, "tree") for b in ("builtin", "highs")}
        for m in masters.values():
            for col in initial_columns(inst, "tree"):
                m.add_column(col)
        for _ in range(6):
            sols = {b: m.solve_rmp(b) for b, m in masters.items()}
            assert sols["highs"].objective == pytest.approx(
                sols["builtin"].objective, rel=1e-9)
            viol = masters["highs"].violated_capacities()
            if not viol:
                break
            for m in masters.values():
                m.add_capacity_rows(viol)


class TestTimeLimit:
    def test_near_zero_limit_stops_a_large_master(self):
        inst = generate_random(100, 400, 2500, 40, seed=4, tightness="tight")
        m = new_master(inst, "path")
        for col in initial_columns(inst, "path"):
            m.add_column(col)
        m.add_capacity_rows(range(inst.network.edge_count))
        assert m.pool_size >= 2000
        with pytest.raises(LpTimeLimit):
            m.solve_rmp(time_limit=1e-6)
        # The model stays usable, and a later solve without a limit finishes.
        sol = m.solve_rmp()
        assert_matches_cold(m, sol)
