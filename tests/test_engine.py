"""Engine tests: termination, the iteration rule, bounds, determinism."""

import ast
import dataclasses
import random
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
from mcflow.lp import HighsBackend


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
    @pytest.mark.parametrize("policy", ["demand", "edge"])
    def test_infeasible_owners_are_commodities(self, form, policy):
        if policy == "demand":
            # 3 path rows and 2 tree rows on 4 edges. Commodity 0 needs 5
            # units on edge 0->1 of capacity 1; its tree row is source 0's,
            # whose group also holds commodity 1.
            net = Network(4, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 9.0), (2, 3, 1.0, 9.0),
                              (3, 0, 1.0, 9.0)])
            commodities = [Commodity(0, 1, 5.0), Commodity(0, 2, 1.0),
                           Commodity(2, 3, 1.0)]
            expected = (0,) if form == "path" else (0, 1)
        else:
            # 3 path rows and 2 tree rows on 2 edges of capacity 1, which
            # must carry 2 units each: the slack is on capacity rows.
            net = Network(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
            commodities = [Commodity(0, 1, 1.0), Commodity(0, 2, 1.0),
                           Commodity(1, 2, 1.0)]
            expected = ()
        solver = ColGenSolver(Instance.build(net, commodities), cfg(formulation=form))
        assert solver.master.slack_policy == policy
        r = solver.run()
        assert r.status == "infeasible"
        assert r.infeasible_owners == expected
        if policy == "edge":
            assert "capacity rows of edges [0, 1]" in r.message

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


    def test_pricing_easy_column_limit(self):
        inst = generate_random(12, 36, 12, 6, seed=5, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation="tree", strategy="pricing-easy"))
        assert solver.column_limit == 100       # N = max(|S|, 100)
        solver.column_limit = 1
        r = solver.run()
        assert r.status == "optimal"
        # No iteration may add more than one column.
        assert all(it.columns_added <= 1 for it in r.iterations)

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


class TestSeedRound:
    """While mu is all zero a round prices from the seed columns; it must
    give exactly what the kernel gives."""

    @pytest.mark.parametrize("form,kernel", [
        ("tree", "full"), ("path", "full"), ("path", "bounded"), ("path", "astar")])
    def test_seed_round_equals_kernel_round(self, monkeypatch, form, kernel):
        rng = random.Random(11)
        priced = cut = 0
        for seed in range(8):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            solver = ColGenSolver(inst, cfg(formulation=form, pricing_strategy=kernel))
            solver._seed_pool()
            sol = solver.master.solve_rmp()
            assert not sol.mu.any()
            # Duals around the seed costs, so that some owners price out.
            seeds = solver._seeds
            pi = sol.pi.copy()
            pi[seeds.owner] = seeds.cost * [rng.uniform(0.8, 1.3) for _ in seeds]
            solver.master.solution = dataclasses.replace(sol, pi=pi)
            for limit in (None, 1, 3):
                seeded = solver._price_round(limit=limit)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_price_seeds", solver._price_kernel)
                    kernel_round = solver._price_round(limit=limit)
                # Early stops are the kernel's own; a seed round has none.
                assert seeded[2].early_stops == 0
                runs = lambda r: (r[0], r[2].runs, r[3])  # noqa: E731
                assert runs(kernel_round) == runs(seeded)
                # The same minima, unknown (NaN) for the same owners.
                np.testing.assert_array_equal(kernel_round[1], seeded[1])
                priced += len(seeded[0])
                cut += limit is not None and seeded[2].runs < len(inst.groups)
        assert priced > 0 and cut > 0

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


EDGE_SLACK_SIZE = (8, 16, 20, 4)


class TestLiveMaster:
    @pytest.mark.parametrize("form", ["tree", "path"])
    @pytest.mark.parametrize("options", [
        {},
        # 20 path rows on 16 edges: the row-count rule picks edge slack.
        {"size": EDGE_SLACK_SIZE},
    ])
    def test_every_solve_matches_a_cold_solve(self, form, options):
        size = options.get("size", (12, 36, 14, 4))
        inst = generate_random(*size, seed=21, tightness="tight")
        solver = ColGenSolver(inst, cfg(formulation=form))
        edge_slack = form == "path" and size == EDGE_SLACK_SIZE
        assert solver.master.slack_policy == ("edge" if edge_slack else "demand")
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
    benchmark."""
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
    assert sorted(fields - passed) == []


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
