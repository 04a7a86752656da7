"""Engine tests: termination, the iteration rule, bounds, determinism."""

import ast
import dataclasses
import random
import time
from pathlib import Path

import numpy as np
import pytest

import mcflow.bench
import mcflow.cli
import mcflow.engine
from mcflow.baseline import build_edge_lp, build_source_lp, solve_direct
from mcflow.engine import ColGenSolver, SolveReport, SolverConfig, solve
from mcflow.errors import InputError
from mcflow.graph import Network, dijkstra
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.lp import OPTIMAL, HighsBackend, HighsModel
from mcflow.pricing import DualSnapshot, lagrangian_bound, price_paths, price_tree


def cfg(**kw):
    kw.setdefault("rel_tol", 1e-7)
    return SolverConfig(**kw)


class TestSolveBasics:
    def test_triangle_tree(self, triangle):
        r = solve(triangle, cfg(formulation="tree"))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(5.0)
        assert r.lower_bound == pytest.approx(5.0)

    def test_capacitated_triangle_both_modes(self, triangle_capped):
        for form in ("tree", "path"):
            r = solve(triangle_capped, cfg(formulation=form))
            assert r.status == "optimal"
            assert r.objective == pytest.approx(6.0)
            assert r.active_rows >= 1

    def test_uncapacitated_equals_shortest_paths(self):
        inst = generate_random(14, 40, 10, 3, seed=11, tightness="loose")
        net = inst.network
        expected = 0.0
        for g in inst.groups:
            spt = dijkstra(net, net.cost, g.source)
            expected += sum(d * spt.dist[t] for t, d in g.sink_demands.items())
        for form in ("tree", "path"):
            r = solve(inst, cfg(formulation=form))
            assert r.objective == pytest.approx(expected, rel=1e-9)

    def test_infeasible_names_commodities(self):
        net = Network(3, [(0, 1, 1.0, 1.0)])
        inst = Instance.build(net, [Commodity(0, 1, 1.0), Commodity(0, 2, 2.0)])
        r = solve(inst, cfg(formulation="tree"))
        assert r.status == "infeasible"
        assert 1 in r.infeasible_owners

    @pytest.mark.parametrize("form", ["tree", "path"])
    @pytest.mark.parametrize("former", ["demand", "edge"])
    def test_infeasible_owners_are_commodities(self, form, former):
        # ``former`` names the slack rows these masters took under the
        # former two-policy rule; both now keep slack on capacity rows.
        if former == "demand":
            # One commodity per source. Commodity 0 needs 5 units on edge
            # 0->1 of capacity 1; node 1 has no outgoing edge.
            net = Network(4, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 9.0), (2, 3, 1.0, 9.0),
                              (3, 0, 1.0, 9.0)])
            commodities = [Commodity(0, 1, 5.0), Commodity(2, 3, 1.0)]
            overloaded, unreachable = [0], Commodity(1, 0, 1.0)
        else:
            # 2 edges of capacity 1, which must carry 2 units each; node 2
            # has no outgoing edge.
            net = Network(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
            commodities = [Commodity(0, 1, 1.0), Commodity(0, 2, 1.0),
                           Commodity(1, 2, 1.0)]
            overloaded, unreachable = [0, 1], Commodity(2, 0, 1.0)
        # Capacity slack that stays names edges and no owner.
        r = solve(Instance.build(net, commodities), cfg(formulation=form))
        assert r.status == "infeasible"
        assert r.infeasible_owners == ()
        assert f"capacity rows of edges {overloaded}" in r.message
        # An unreachable sink names its commodity's id, in tree mode too.
        r = solve(Instance.build(net, [*commodities, unreachable]), cfg(formulation=form))
        assert r.status == "infeasible"
        assert r.infeasible_owners == (len(commodities),)

    def test_infeasible_multi_member_tree_names_edges(self):
        # Source 0 holds commodities 0 and 1, and both masters put their
        # slack on capacity rows: commodity 0's 5 units overload edge 0->1.
        net = Network(4, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 9.0), (2, 3, 1.0, 9.0),
                          (3, 0, 1.0, 9.0)])
        inst = Instance.build(net, [Commodity(0, 1, 5.0), Commodity(0, 2, 1.0),
                                    Commodity(2, 3, 1.0)])
        for form in ("tree", "path"):
            r = solve(inst, cfg(formulation=form))
            assert r.status == "infeasible"
            assert r.infeasible_owners == ()
            assert "capacity rows of edges [0]" in r.message

    @pytest.mark.parametrize("kernel", ["full", "bounded", "astar"])
    def test_infeasible_shared_source_path_names_edges(self, kernel):
        # Commodities 0 -> 2 and 0 -> 1 need 4 units, but the edges leaving
        # node 0 carry at most 2, so edge slack remains on their rows.
        net = Network(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 4.0, 1.0)])
        inst = Instance.build(net, [Commodity(0, 2, 2.0), Commodity(0, 1, 2.0)])
        r = solve(inst, cfg(formulation="path", pricing_strategy=kernel))
        assert r.status == "infeasible"
        assert r.infeasible_owners == ()
        assert "slack remains on the capacity rows of edges [" in r.message

    def test_capacity_infeasible_detected(self):
        net = Network(2, [(0, 1, 1.0, 1.0)])
        inst = Instance.build(net, [Commodity(0, 1, 5.0)])
        for form in ("tree", "path"):
            r = solve(inst, cfg(formulation=form))
            assert r.status == "infeasible"

    def test_timeout_reports_valid_bounds(self):
        inst = generate_random(20, 60, 25, 6, seed=3, tightness="tight")
        r = solve(inst, cfg(formulation="tree", timeout_seconds=0.0))
        assert r.status == "timeout"
        assert r.message == "the time budget of 0 s ran out between iterations"

    def test_direct_formulations_routed(self, triangle_capped):
        for form in ("source-lp", "edge-lp"):
            r = solve(triangle_capped, cfg(formulation=form))
            assert r.status == "optimal"
            assert r.objective == pytest.approx(6.0)

    def test_direct_lp_records_its_pivots(self):
        inst = generate_random(20, 100, 80, 5, seed=0, tightness="tight")
        pivots = HighsBackend().solve(build_source_lp(inst).lp).simplex_iterations
        r = solve(inst, cfg(formulation="source-lp"))
        assert r.status == "optimal"
        assert sum(it.simplex_iterations for it in r.iterations) == pivots > 0

    @pytest.mark.parametrize("field,value", [("timeout_seconds", float("nan")),
                                             ("timeout_seconds", -1.0),
                                             ("rel_tol", float("nan")),
                                             ("rel_tol", 0.0)])
    def test_config_refuses_nan_and_out_of_range(self, triangle, field, value):
        config = SolverConfig(**{field: value})
        for check in (config.validate, lambda: solve(triangle, config)):
            with pytest.raises(InputError, match=field):
                check()


class TestStrategies:
    def test_master_easy_is_refused(self, triangle):
        config = SolverConfig(strategy="master-easy")
        for check in (config.validate, lambda: solve(triangle, config)):
            with pytest.raises(InputError, match="master-easy strategy was removed"):
                check()

    @pytest.mark.parametrize("form,size,seed,tightness", [
        ("tree", (100, 400, 400, 5), 271828, "mixed"),
        ("path", (40, 160, 150, 4), 0, "tight")])
    def test_every_round_prices_every_source(self, form, size, seed, tightness):
        # A round that stops before the last group gives no Lagrangian
        # bound; these solves have rounds that find over 100 columns.
        inst = generate_random(*size, seed=seed, tightness=tightness)
        r = solve(inst, cfg(formulation=form))
        assert r.status == "optimal"
        for it in r.iterations:
            assert it.pricing_runs == len(inst.groups)
            assert np.isfinite(it.lower_bound)
        oracle = solve_direct(build_source_lp(inst), "highs").objective
        assert r.objective == pytest.approx(oracle, rel=1e-6)

    def test_pricing_strategies_same_objective(self):
        for seed in range(5):
            inst = generate_random(12, 34, 10, 3, seed=100 + seed, tightness="mixed")
            objs = [solve(inst, cfg(formulation="path", pricing_strategy=p)).objective
                    for p in ("full", "bounded", "astar")]
            for o in objs[1:]:
                assert o == pytest.approx(objs[0], rel=1e-7)


class TestBounds:
    def test_lb_monotone_and_sandwich(self):
        rng = random.Random(9)
        for seed in range(6):
            inst = generate_random(10, 30, 12, 3, seed=seed, tightness="tight")
            oracle = solve_direct(build_edge_lp(inst), "highs").objective
            for form in ("tree", "path"):
                solver = ColGenSolver(inst, cfg(formulation=form))
                lbs = []
                orig = solver._price_round

                def traced(*a, **kw):
                    out = orig(*a, **kw)
                    lbs.append(solver.best_lb)
                    return out

                solver._price_round = traced
                r = solver.run()
                assert r.status == "optimal"
                assert all(b <= a + 1e-9 for a, b in zip(lbs[1:], lbs))
                assert r.lower_bound <= oracle + 1e-6 * (1 + abs(oracle))
                assert r.objective >= oracle - 1e-6 * (1 + abs(oracle))

    def test_optimal_solution_feasible_for_all_capacities(self):
        for seed in range(6):
            inst = generate_random(12, 36, 14, 4, seed=seed, tightness="tight")
            solver = ColGenSolver(inst, cfg(formulation="tree"))
            r = solver.run()
            assert r.status == "optimal"
            flows = solver.master.aggregate_edge_flows()
            assert np.all(flows <= inst.network.capacity + 1e-6)
            assert solver.master.violated_capacities() == []
            assert r.active_rows <= inst.network.edge_count

    def test_termination_soundness_repricing_changes_nothing(self):
        from mcflow.pricing import lagrangian_bound
        for seed in range(5):
            inst = generate_random(11, 32, 12, 3, seed=40 + seed,
                                   tightness="mixed")
            for form in ("tree", "path"):
                solver = ColGenSolver(inst, cfg(formulation=form))
                r = solver.run()
                assert r.status == "optimal"
                assert solver.master.violated_capacities() == []
                # One more full pricing round cannot improve the
                # objective beyond the configured tolerance.
                _, min_rc, _, complete = solver._price_round()
                assert complete
                lb = lagrangian_bound(r.objective, min_rc, solver.owner_weights)
                assert lb >= r.objective - 1e-7 * max(1.0, abs(r.objective))


class TestDeterminism:
    def test_identical_traces(self):
        inst = generate_random(12, 36, 12, 4, seed=8, tightness="mixed")
        def trace(threads=1):
            r = solve(inst, cfg(formulation="tree", threads=threads))
            return [(it.rmp_objective, it.columns_added, it.rows_added,
                     it.pricing_runs) for it in r.iterations]
        assert trace() == trace()
        assert trace() == trace(threads=4)


class TestReport:
    def test_iteration_trace_shape(self, triangle_capped):
        r = solve(triangle_capped, cfg(formulation="tree"))
        assert r.iteration_count == len(r.iterations)
        assert r.peak_columns >= 1
        assert r.wall_time >= 0.0
        assert r.gap == 0.0

    def test_optimal_gap_is_the_bound_gap(self):
        # This run stops on rel_tol with the lower bound below the
        # objective; the report must not round that gap to zero.
        inst = generate_random(30, 120, 60, 8, seed=1, tightness="mixed")
        r = solve(inst, SolverConfig(formulation="tree"))
        assert r.status == "optimal"
        assert 0.0 < r.gap <= SolverConfig().rel_tol
        assert r.gap == mcflow.engine.relative_gap(r.objective, r.lower_bound)

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_slack_mass_traces_the_big_m_phase(self, triangle_capped, form):
        # triangle_capped plus b->c demand 0.5: b->c carries 2.5 units on
        # capacity 1 until a->c is priced, and slack covers the 1.5 excess.
        inst = Instance.build(triangle_capped.network,
                              [*triangle_capped.commodities, Commodity(1, 2, 0.5)])
        solver = ColGenSolver(inst, cfg(formulation=form))
        r = solver.run()
        assert r.status == "optimal"
        assert solver._escalations_left == mcflow.engine.BIG_M_ESCALATIONS
        masses = [it.slack_mass for it in r.iterations]
        assert max(masses) == pytest.approx(1.5)
        assert masses[-1] == 0.0

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_slack_mass_stays_through_escalations(self, form):
        # 5 units on an edge of capacity 1: once its row exists, slack
        # carries the excess of 4 through every escalation.
        net = Network(2, [(0, 1, 1.0, 1.0)])
        r = solve(Instance.build(net, [Commodity(0, 1, 5.0)]), cfg(formulation=form))
        assert r.status == "infeasible"
        assert r.iterations[0].slack_mass == 0.0
        assert [it.slack_mass for it in r.iterations[1:]] == \
            pytest.approx([4.0] * (r.iteration_count - 1))

    def test_simplex_iterations_count_master_pivots(self):
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        r = solve(inst, cfg(formulation="tree"))
        assert r.status == "optimal"
        assert any(it.rows_added for it in r.iterations)
        assert sum(it.simplex_iterations for it in r.iterations) > 0
        builtin = solve(inst, cfg(formulation="tree", lp_backend="builtin"))
        assert all(it.simplex_iterations == 0 for it in builtin.iterations)

    def test_bounded_pricing_records_early_stops(self):
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        r = solve(inst, cfg(formulation="path", pricing_strategy="bounded"))
        assert r.status == "optimal"
        assert any(it.early_stops > 0 for it in r.iterations)
        full = solve(inst, cfg(formulation="path"))
        assert all(it.early_stops == 0 for it in full.iterations)


def count_solves(solver, stop_after=None):
    """Wrap ``solver``'s master solves; returns the list of the pivots of
    every solve that completes. With ``stop_after``, every later solve
    gets no time, so HiGHS stops it at its time limit."""
    real = solver.master.solve_rmp
    pivots, calls = [], []

    def counting(backend, time_limit=None):
        calls.append(time_limit)
        if stop_after is not None and len(calls) > stop_after:
            time_limit = 0.0
        sol = real(backend, time_limit=time_limit)
        pivots.append(sol.simplex_iterations)
        return sol

    solver.master.solve_rmp = counting
    return pivots


def record_pivots(report) -> int:
    return sum(it.simplex_iterations for it in report.iterations)


class TestTraceCountsEverySolve:
    """Every master solve that returns is one iteration, however the run
    ends, and the run record sums the pivots of all of them."""

    @staticmethod
    def run(solver, pivots):
        r = solver.run()
        record = mcflow.bench.record_from_report(solver.instance, solver.config, r)
        assert r.iteration_count == record.iterations == len(pivots)
        assert [it.simplex_iterations for it in r.iterations] == pivots
        assert record.simplex_iterations == sum(pivots)
        return r

    def test_gap_closed(self):
        inst = generate_random(30, 120, 60, 8, seed=1, tightness="mixed")
        solver = ColGenSolver(inst, SolverConfig(formulation="tree"))
        pivots = count_solves(solver)
        r = self.run(solver, pivots)
        assert r.status == "optimal" and r.gap > 0.0
        # The final solve closed the gap, so it priced nothing.
        assert r.iterations[-1].pricing_runs == 0
        assert r.iterations[-1].simplex_iterations > 0

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_empty_complete_round(self, form):
        inst = generate_random(12, 36, 14, 4, seed=1, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form))
        r = self.run(solver, count_solves(solver))
        assert r.status == "optimal" and r.gap == 0.0
        last = r.iterations[-1]
        assert last.pricing_runs == len(inst.groups) and last.columns_added == 0
        assert record_pivots(r) > 0

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_infeasible_after_escalation(self, form):
        net = Network(2, [(0, 1, 1.0, 1.0)])
        solver = ColGenSolver(Instance.build(net, [Commodity(0, 1, 5.0)]),
                              cfg(formulation=form))
        r = self.run(solver, count_solves(solver))
        assert r.status == "infeasible" and solver._escalations_left == 0
        assert r.iteration_count > mcflow.engine.BIG_M_ESCALATIONS

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_timeout_between_iterations(self, form):
        # The deadline passes once the third round's columns are pooled.
        inst = generate_random(20, 100, 80, 5, seed=7, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form, timeout_seconds=50.0))
        pivots = count_solves(solver)
        real = solver.master.add_column
        adds = []

        def slow_add(columns):
            real(columns)
            adds.append(len(columns))
            if len(adds) == 4:              # the seeds, then three rounds
                solver._t0 -= 100.0

        solver.master.add_column = slow_add
        r = self.run(solver, pivots)
        assert r.status == "timeout" and "between iterations" in r.message
        assert r.iteration_count == 3 and record_pivots(r) > 0

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_lp_time_limit(self, form):
        # The fourth solve stops at its time limit and is not counted.
        inst = generate_random(20, 100, 80, 5, seed=7, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form))
        pivots = count_solves(solver, stop_after=3)
        r = self.run(solver, pivots)
        assert r.status == "timeout" and "time limit" in r.message
        assert r.iteration_count == 3 and record_pivots(r) > 0

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_batch_past_the_deadline(self, form):
        inst = generate_random(20, 100, 80, 5, seed=7, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form, timeout_seconds=50.0))
        pivots = count_solves(solver)
        real = solver._price_round

        def slow_round():
            out = real()
            if len(pivots) == 3:
                solver._t0 -= 100.0         # as if pricing took 100 s
            return out

        solver._price_round = slow_round
        r = self.run(solver, pivots)
        assert r.status == "timeout" and "ran out before the round's" in r.message
        assert r.iteration_count == 3 and record_pivots(r) > 0


class TestSeedRound:
    """While mu is all zero a round is proven empty without a kernel: the
    weights are the original costs, under which each owner's cheapest
    column is its pooled seed, and the optimal master prices every
    pooled column nonnegative."""

    @staticmethod
    def kernel_round(solver):
        """The pricing call a round makes at nonzero capacity duals."""
        inst, sol = solver.instance, solver.master.solution
        duals = DualSnapshot(sol.pi, sol.mu)
        tolerance = 1e-9 * (1.0 + abs(sol.objective))
        if solver.mode == "tree":
            return price_tree(inst, inst.groups, duals, tolerance=tolerance,
                              incumbents=solver.master.incumbent_trees(sol.x))
        return price_paths(inst, inst.groups, duals,
                           strategy=solver.config.pricing_strategy,
                           bounds=solver._bounds, tolerance=tolerance)

    @pytest.mark.parametrize("form,kernel", [
        ("tree", "full"), ("path", "full"), ("path", "bounded"), ("path", "astar")])
    def test_zero_capacity_duals_leave_nothing_to_price(self, form, kernel):
        loose_rows = 0
        for seed in range(8):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            solver = ColGenSolver(inst, cfg(formulation=form, pricing_strategy=kernel))
            solver._seed_pool()
            master = solver.master
            # The seed state, then a capacity row that does not bind.
            for state in ("seed", "loose row"):
                if state == "loose row":
                    flow, cap = master.aggregate_edge_flows(), inst.network.capacity
                    e = int(np.argmax(np.where(flow > 0, cap - flow, -np.inf)))
                    if not flow[e] < cap[e]:
                        continue
                    master.add_capacity_rows([e])
                    loose_rows += 1
                sol = master.solve_rmp()
                assert not sol.mu.any()
                outcome = self.kernel_round(solver)
                before = master.pool_size
                master.add_column(outcome.columns)
                assert master.pool_size == before
                bound = lagrangian_bound(sol.objective, outcome.min_reduced_cost,
                                         solver.owner_weights)
                assert bound == pytest.approx(sol.objective, rel=1e-9)
                # The engine's round without the kernel says the same.
                columns, min_rc, stats, complete = solver._price_round()
                assert len(columns) == 0 and complete
                assert stats.runs == len(inst.groups)
                assert lagrangian_bound(sol.objective, min_rc,
                                        solver.owner_weights) == sol.objective
        assert loose_rows > 0

    @pytest.mark.parametrize("form,kernel", [
        ("tree", "full"), ("path", "full"), ("path", "bounded"), ("path", "astar")])
    def test_loose_solve_prices_without_the_kernel(self, monkeypatch, form, kernel):
        import mcflow.engine
        calls = []
        for name in ("price_tree", "price_paths"):
            real = getattr(mcflow.engine, name)
            monkeypatch.setattr(mcflow.engine, name,
                                lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
        inst = generate_random(14, 44, 40, 4, seed=3, tightness="loose")
        r = solve(inst, cfg(formulation=form, pricing_strategy=kernel))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(r.lower_bound, rel=1e-9)
        assert calls == []

    @pytest.mark.parametrize("form", ["tree", "path"])
    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_one_iteration_solve_runs_no_lp(self, monkeypatch, form, backend):
        # A loose instance ends after its seed solve, which the master
        # solves in closed form: no LP is solved and no HiGHS model built.
        import mcflow.lp

        def refuse(*args, **kwargs):
            raise AssertionError("an LP was solved")

        inst = generate_random(14, 44, 40, 4, seed=3, tightness="loose")
        oracle = solve_direct(build_source_lp(inst)).objective
        for cls in (mcflow.lp.HighsModel, mcflow.lp.HighsBackend,
                    mcflow.lp.SimplexBackend):
            monkeypatch.setattr(cls, "solve", refuse)
        solver = ColGenSolver(inst, cfg(formulation=form, lp_backend=backend))
        r = solver.run()
        assert r.status == "optimal" and r.iteration_count == 1
        assert solver.master._model is None
        assert r.iterations[0].simplex_iterations == 0
        assert r.objective == pytest.approx(oracle, rel=1e-9)


def checked_against_cold_solves(solver):
    """Make every master solve of ``solver`` compare its objective with a
    cold HiGHS solve of the rebuilt restriction; returns the solve count."""
    master = solver.master
    real = master.solve_rmp
    count = [0]

    def checked(*args, **kwargs):
        sol = real(*args, **kwargs)
        cold = HighsBackend().solve(master.build_lp()[0])
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
        count[0] += 1
        return sol

    master.solve_rmp = checked
    return count


class TestLiveMaster:
    @pytest.mark.parametrize("form", ["tree", "path"])
    @pytest.mark.parametrize("options", [
        {},                                 # multi-member groups
        {"size": (8, 16, 20, 4)},           # 20 path rows on 16 edges
        {"size": (12, 36, 4, 4)},           # one commodity per source
    ])
    def test_every_solve_matches_a_cold_solve(self, form, options):
        size = options.get("size", (12, 36, 14, 4))
        inst = generate_random(*size, seed=21, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form))
        count = checked_against_cold_solves(solver)
        r = solver.run()
        assert r.status == "optimal"
        assert count[0] == r.iteration_count >= 3
        oracle = solve_direct(build_source_lp(inst)).objective
        assert r.objective == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("form", ["tree", "path"])
    def test_big_m_escalations_match_cold_solves(self, form):
        net = Network(2, [(0, 1, 1.0, 1.0)])
        inst = Instance.build(net, [Commodity(0, 1, 5.0)])
        solver = ColGenSolver(inst, cfg(formulation=form))
        count = checked_against_cold_solves(solver)
        r = solver.run()
        assert r.status == "infeasible"
        assert solver._escalations_left == 0
        assert count[0] == r.iteration_count

    def test_unique_source_tree_and_path_agree(self):
        # Acceptance criterion 2, by construction: with one commodity per
        # source, the tree and path masters are one LP at every solve, bit
        # for bit, so their iteration objectives agree. The instances are
        # the acceptance suite's stream (suite 2) extended to 100 trials,
        # solved on both backends.
        for backend in ("builtin", "highs"):
            rng = random.Random(77)
            for trial in range(100):
                n = rng.randint(6, 20)
                s = rng.randint(2, min(9, n - 1))
                m = rng.randint(n, 60)
                inst = generate_random(n, m, s, s, seed=30_000 + trial,
                                       tightness=("loose", "tight", "mixed")[trial % 3])
                assert all(len(g.members) == 1 for g in inst.groups)
                where = f"{backend} trial {trial}"
                solvers = [ColGenSolver(inst, cfg(formulation=form, lp_backend=backend))
                           for form in ("tree", "path")]
                lps = [recorded_lps(solver) for solver in solvers]
                reports = [solver.run() for solver in solvers]
                assert reports[0].status == reports[1].status == "optimal", where
                assert lps[0] == lps[1], where
                objectives = [[it.rmp_objective for it in r.iterations] for r in reports]
                assert len(objectives[0]) == len(objectives[1]), where
                assert objectives[0] == pytest.approx(objectives[1], rel=1e-9, abs=1e-9), \
                    where


def recorded_lps(solver):
    """Make every master solve of ``solver`` record the bytes of its
    rebuilt LP; returns the list they are appended to."""
    master = solver.master
    real = master.solve_rmp
    lps = []

    def recording(*args, **kwargs):
        lp = master.build_lp()[0]
        names = ("objective", "rows", "cols", "vals", "rhs")
        lps.append((*(np.asarray(getattr(lp, name)).tobytes() for name in names),
                    tuple(lp.senses)))
        return real(*args, **kwargs)

    master.solve_rmp = recording
    return lps


class TestLpTimeLimit:
    def test_engine_passes_the_time_left(self):
        inst = generate_random(12, 36, 12, 4, seed=6, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation="tree", timeout_seconds=50.0))
        real = solver.master.solve_rmp
        limits = []

        def recording(backend, time_limit=None):
            limits.append(time_limit)
            return real(backend, time_limit=time_limit)

        solver.master.solve_rmp = recording
        assert solver.run().status == "optimal"
        assert all(0.0 < t <= 50.0 for t in limits)
        assert limits == sorted(limits, reverse=True)

    def test_limit_inside_an_lp_ends_in_timeout(self):
        inst = generate_random(20, 100, 80, 5, seed=7, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation="tree"))
        real = solver.master.solve_rmp
        calls = []

        def running_out(backend, time_limit=None):
            # The fourth solve finds no time left: HiGHS must stop itself.
            calls.append(time_limit)
            return real(backend, time_limit=0.0 if len(calls) > 3 else time_limit)

        solver.master.solve_rmp = running_out
        r = solver.run()
        assert r.status == "timeout"
        assert len(calls) == 4
        assert r.iteration_count == 3
        assert "time limit" in r.message
        oracle = solve_direct(build_source_lp(inst)).objective
        assert r.lower_bound <= oracle + 1e-6 * abs(oracle)
        assert r.objective >= oracle - 1e-6 * abs(oracle)

    @pytest.mark.parametrize("formulation", ["tree", "path"])
    def test_batch_past_the_deadline_is_not_added(self, formulation):
        # The deadline passes while the second round is priced: its
        # columns must not be pooled, and the run must end in timeout, not
        # in the empty round that reads as optimal.
        inst = generate_random(12, 36, 12, 4, seed=6, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=formulation, timeout_seconds=50.0))
        real = solver._price_round
        pool_sizes = []

        def slow_round():
            out = real()
            pool_sizes.append(solver.master.pool_size)
            if len(pool_sizes) == 2:
                assert len(out[0]) > 0
                solver._t0 -= 100.0         # as if pricing took 100 s
            return out

        solver._price_round = slow_round
        r = solver.run()
        assert r.status == "timeout"
        assert "ran out before the round's" in r.message
        assert solver.master.pool_size == pool_sizes[-1] == r.peak_columns
        assert len(pool_sizes) == r.iteration_count == 2
        assert r.iterations[-1].columns_added == 0

    def test_limit_counts_from_this_solve(self):
        # A live model's earlier warm solves add up to more than the limit
        # of the next one, which needs far less than that limit: it must
        # end optimal. Each solve gets new costs, so it has to pivot.
        m = 30
        rng = np.random.default_rng(5)
        model = HighsModel()
        model.add_rows(["E"] * (2 * m), np.ones(2 * m))
        # Column i * m + j ships from supply row i to demand row m + j.
        cols = np.arange(m * m)
        model.add_cols(rng.uniform(1, 10, m * m), np.arange(0, 2 * m * m + 1, 2),
                       np.stack([cols // m, m + cols % m], axis=1).reshape(-1),
                       np.ones(2 * m * m))
        longest = 0.0

        def warm_solve(limit=None):
            nonlocal longest
            model.set_costs(cols, rng.uniform(1, 10, m * m))
            t0 = time.perf_counter()
            sol = model.solve(limit)
            longest = max(longest, time.perf_counter() - t0)
            return sol

        while True:
            sol = warm_solve()
            assert sol.status == OPTIMAL and sol.simplex_iterations > 0
            limit = max(20 * longest, 0.25)
            if model._h.getRunTime() > 2 * limit:
                break
        sol = warm_solve(limit)
        assert sol.status == OPTIMAL and sol.simplex_iterations > 0


def solver_config_keywords(path: Path, function: str) -> set[str]:
    """Keywords passed to ``SolverConfig(...)`` inside ``function``."""
    tree = ast.parse(path.read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    keywords = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            if name == "SolverConfig":
                keywords.update(k.arg for k in node.keywords if k.arg)
    return keywords


def test_every_config_field_is_set_outside_tests():
    """A SolverConfig field that only tests set is a knob nothing uses:
    every field must be passed by the CLI, the suite runner or the desk
    benchmark. ``strategy`` is the one exception: it selects nothing and
    stays only because the acceptance suite's criterion 9 passes it."""
    callers = [(Path(mcflow.cli.__file__), "_config_from_args"),
               (Path(mcflow.bench.__file__), "run_suite"),
               (Path(__file__).resolve().parents[1] / "perfbench" / "run.py",
                "solver_configs")]
    passed = set()
    for path, function in callers:
        keywords = solver_config_keywords(path, function)
        assert keywords, (path.name, function)
        passed |= keywords
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert sorted(fields - passed) == ["strategy"]


def test_differential_grid_against_source_lp():
    """Tree and path with every path kernel on HiGHS, checked against the
    source-LP oracle on seeded random instances. Tree
    runs that add more columns than sources in one iteration show that
    rerouted trees are among the columns checked."""
    runs = [("tree", "full")] + [("path", k) for k in ("full", "bounded", "astar")]
    tightness = ("tight", "mixed", "loose")
    rerouted = 0
    for seed in range(30):
        inst = generate_random(12 + seed % 5, 36 + seed % 9, 10 + seed % 8,
                               3 + seed % 3, seed=500 + seed,
                               tightness=tightness[seed % 3])
        oracle = solve_direct(build_source_lp(inst), "highs")
        assert oracle.status == "optimal"
        for form, kernel in runs:
            config = SolverConfig(formulation=form, pricing_strategy=kernel,
                                  rel_tol=1e-6, lp_backend="highs")
            r = solve(inst, config)
            where = (seed, form, kernel)
            scale = max(1.0, abs(oracle.objective))
            assert r.status == "optimal", where
            assert abs(r.objective - oracle.objective) <= 1e-6 * scale, where
            assert r.lower_bound <= oracle.objective + 1e-9 * scale, where
            rerouted += form == "tree" and \
                max(it.columns_added for it in r.iterations) > len(inst.groups)
    assert rerouted > 0
