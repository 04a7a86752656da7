"""Column generation engine: alternate master solves, lazy capacity row
separation, and pricing until the relative gap closes.

Every iteration is one master solve (:meth:`ColGenSolver._iterate`),
and its :class:`IterationStat` is recorded as soon as the solve returns.
The iteration then ends the run if the solve has no violated row, no
slack and closes the gap; that final stat has no pricing round.
Otherwise it adds the violated capacity rows and prices every source
group, emitting every column that prices out. A round that prices every
group is complete and refreshes the Lagrangian bound; only the time
budget's deadline leaves a round incomplete. A complete round that adds
no column while no row was violated is optimal if the master has no
slack; otherwise big-M is escalated, up to three times, before the
instance is declared infeasible. This is the one loop; ``strategy``
accepts ``auto`` and ``pricing-easy`` for it. Duals, minimum reduced
costs and owner weights are owner-indexed arrays (see
:mod:`mcflow.pricing`), so the Lagrangian bound is one dot product.

A kernel tree round hands pricing each source's incumbent, its pooled
column with the largest value in the last master solve
(:meth:`~mcflow.master.RestrictedMaster.incumbent_trees`). A source
whose exact tree prices out then also gets rerouted trees, at most one
per branch tip of that tree (see :func:`~mcflow.pricing.price_tree`),
so a round can add more than |S| columns: each group's exact tree, then
its rerouted trees that price out, most negative first. Every column
the master pools stays in the restriction for the whole solve.

The seed columns come from one ordinary pricing round at zero duals
(:func:`~mcflow.pricing.initial_columns`). While every capacity dual is
zero the weights are those original costs, under which each owner's
cheapest column is its pooled seed, which the optimal master prices
nonnegative: such a round is proven empty, every owner's minimum is
zero, and no kernel runs. The master solve of the seeds alone is solved
in closed form (see :mod:`mcflow.master`), so a run that ends after its
first iteration solves no LP and builds no HiGHS model.

The time left of ``timeout_seconds`` is passed to every master solve as
its LP time limit, which HiGHS enforces; a solve stopped there ends the
run with status ``timeout`` and the bounds found so far, and records no
stat, since it has no objective. A kernel pricing round gets the
budget's deadline and starts no block of sources after it, which leaves
the round incomplete (no Lagrangian bound, no optimality claim). The
budget is also checked before every iteration, which ends such a run,
and before a round's columns are added: a round whose batch arrives
past the deadline adds nothing and ends the run with status
``timeout``, never as optimal. Either way the report's message says
why.

Direct solves of the edge-based and source-based LPs are routed through
the same entry point for convenience; HiGHS stops them at the time left
after the LP is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baseline import (EDGE_LP, SOURCE_LP, DirectSolution, build_edge_lp,
                       build_source_lp, solve_direct)
from .errors import InfeasibleError, InputError, LpTimeLimit
from .graph import HeuristicBounds, reverse_multi_target_bounds
from .instance import Instance
from .lp import INFEASIBLE as LP_INFEASIBLE
from .lp import OPTIMAL as LP_OPTIMAL
from .lp import TIME_LIMIT as LP_TIME_LIMIT
from .lp import get_backend
from .master import PATH, TREE, ColumnBatch, RestrictedMaster, new_master
from .pricing import (DualSnapshot, PricingStats, initial_columns,
                      lagrangian_bound, price_paths, price_tree)

OPTIMAL = "optimal"
TIMEOUT = "timeout"
INFEASIBLE = "infeasible"

FORMULATIONS = (TREE, PATH, SOURCE_LP, EDGE_LP)

# Big-M escalations tried before slack left at the end means infeasible.
BIG_M_ESCALATIONS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Everything the engine needs to run one solve."""

    formulation: str = TREE
    rel_tol: float = 1e-4
    timeout_seconds: float = 7200.0
    strategy: str = "auto"              # auto | pricing-easy: the same loop
    pricing_strategy: str = "full"      # full | bounded | astar
    lp_backend: str = "highs"
    threads: int = 1                    # no effect: pricing is one kernel call per round

    def validate(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise InputError(f"unknown formulation {self.formulation!r}")
        if not self.rel_tol > 0:
            raise InputError("rel_tol must be positive")
        if not self.timeout_seconds >= 0:
            raise InputError("timeout_seconds must be nonnegative")
        if self.strategy == "master-easy":
            raise InputError("the master-easy strategy was removed; every solve "
                             "runs the pricing-easy loop")
        if self.strategy not in ("auto", "pricing-easy"):
            raise InputError(f"unknown strategy {self.strategy!r}")
        if self.pricing_strategy not in ("full", "bounded", "astar"):
            raise InputError(f"unknown pricing strategy {self.pricing_strategy!r}")
        if self.threads < 1:
            raise InputError("threads must be at least 1")


@dataclass
class IterationStat:
    """One iteration of a run: one completed master solve.

    A run records one stat per master solve that returns, the last one
    included; a run that ends on the gap stops before pricing, so its
    last stat has no pricing round. ``slack_mass`` is the sum of the
    master's slack values in the iteration's solve (positive while the
    run is in its big-M phase); ``pricing_runs`` counts the source
    groups the round priced, which is every group (|S|) unless the time
    budget's deadline cut the round; ``early_stops`` counts the groups
    whose bounded or A* kernel row stopped before settling every sink of
    its group; ``simplex_iterations`` counts the pivots of the
    iteration's master solve (HiGHS's ``simplex_iteration_count``; 0 on
    the builtin backend, and 0 for the seed solve, which the master
    solves in closed form).
    """

    rmp_objective: float
    columns_added: int = 0
    rows_added: int = 0
    pricing_runs: int = 0
    elapsed: float = 0.0
    lower_bound: float = -np.inf
    slack_mass: float = 0.0
    early_stops: int = 0
    simplex_iterations: int = 0


@dataclass
class SolveReport:
    """Outcome of one solve: bounds, status, and the iteration trace.

    ``iterations`` holds one :class:`IterationStat` per completed master
    solve (a solve stopped at its LP time limit has none), or one for a
    direct LP. ``IterationStat.slack_mass`` sums the excess flow that
    capacity-row slack carries, the only slack a master has.
    ``infeasible_owners`` names the commodity ids with an unreachable
    sink; slack that remains after big-M escalation names edges in the
    message instead.
    """

    status: str
    objective: float
    lower_bound: float
    gap: float
    iterations: list[IterationStat] = field(default_factory=list)
    peak_columns: int = 0
    active_rows: int = 0
    wall_time: float = 0.0
    message: str = ""
    infeasible_owners: tuple = ()

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


def relative_gap(upper: float, lower: float) -> float:
    if upper == np.inf or lower == -np.inf:
        return np.inf
    return (upper - lower) / max(1.0, abs(upper))


class ColGenSolver:
    """One column generation run over a fixed instance and config."""

    strategy = "pricing-easy"           # the loop every run takes

    def __init__(self, instance: Instance, config: SolverConfig):
        config.validate()
        if config.formulation not in (TREE, PATH):
            raise InputError("ColGenSolver handles the tree and path formulations")
        self.instance = instance
        self.config = config
        self.mode = config.formulation
        self.backend = get_backend(config.lp_backend)
        self.master: RestrictedMaster = new_master(instance, self.mode)
        # Lagrangian weight per owner id: its demand row's right-hand side.
        self.owner_weights = np.zeros(instance.network.node_count if self.mode == TREE
                                      else len(instance.commodities))
        self.owner_weights[self.master.owners] = self.master.demand_rhs
        # Slack is excess flow in both modes, so the tolerance is read off
        # the row demands, which the tree and path masters share.
        self._slack_tol = 1e-7 * (1.0 + float(self.master.row_demand.max()))

        self.best_lb = -np.inf
        self.best_ub = np.inf
        self.iterations: list[IterationStat] = []
        self.status: str | None = None
        self.message = ""
        self.infeasible_owners: tuple = ()
        self._escalations_left = BIG_M_ESCALATIONS
        self._bounds: HeuristicBounds | None = None
        self._t0 = time.perf_counter()     # reset when the run starts
        if self.mode == PATH and config.pricing_strategy == "astar":
            # One bound to every sink, under the original costs: the
            # adjusted costs are always pointwise heavier, so admissibility
            # is preserved across dual updates and nothing is recomputed.
            net = instance.network
            self._bounds = reverse_multi_target_bounds(net, net.cost,
                                                       np.unique(instance.sink))

    # -- main loop -----------------------------------------------------------

    def run(self) -> SolveReport:
        self._t0 = time.perf_counter()
        try:
            self._seed_pool()
        except InfeasibleError as exc:
            self.status = INFEASIBLE
            self.message = str(exc)
            self.infeasible_owners = exc.owners
            return self._report()

        try:
            while self.status is None:
                if self._time_left() < 0.0:
                    self.status = TIMEOUT
                    self.message = (f"the time budget of {self.config.timeout_seconds:g}"
                                    " s ran out between iterations")
                    break
                it = self._iterate()
                it.elapsed = time.perf_counter() - self._t0
                it.lower_bound = self.best_lb
        except LpTimeLimit as exc:
            self.status = TIMEOUT
            self.message = str(exc)
        return self._report()

    def _seed_pool(self) -> None:
        self.master.add_column(initial_columns(self.instance, self.mode))

    def _time_left(self) -> float:
        return self.config.timeout_seconds - (time.perf_counter() - self._t0)

    def _deadline(self) -> float:
        """The ``time.perf_counter()`` value at which the budget runs out."""
        return self._t0 + self.config.timeout_seconds

    def _iterate(self) -> IterationStat:
        """Solve the master and record that solve's stat, then end the run
        or separate rows and price (see the module docstring). Returns
        the stat."""
        sol = self.master.solve_rmp(self.backend,
                                    time_limit=max(0.0, self._time_left()))
        it = IterationStat(sol.objective, slack_mass=float(sol.slack.sum()),
                           simplex_iterations=sol.simplex_iterations)
        self.iterations.append(it)
        viol = self.master.violated_capacities()
        slack_ok = sol.slack.max(initial=0.0) <= self._slack_tol
        if not viol and slack_ok:
            self.best_ub = min(self.best_ub, sol.objective)
            if relative_gap(sol.objective, self.best_lb) <= self.config.rel_tol:
                self.status = OPTIMAL
                return it
        if viol:
            self.master.add_capacity_rows(viol)
            it.rows_added = len(viol)
        columns, min_rc, stats, complete = self._price_round()
        it.pricing_runs, it.early_stops = stats.runs, stats.early_stops
        if complete:
            self.best_lb = max(self.best_lb, lagrangian_bound(
                sol.objective, min_rc, self.owner_weights))
        if len(columns) and self._time_left() < 0.0:
            # Validating and pooling a paper-size batch takes seconds; a
            # round that adds nothing must not be read as optimal.
            self.status = TIMEOUT
            self.message = (f"the time budget of {self.config.timeout_seconds:g} s "
                            f"ran out before the round's {len(columns)} columns "
                            "were added")
            return it
        before = self.master.pool_size
        self.master.add_column(columns)
        it.columns_added = self.master.pool_size - before
        if it.columns_added or not complete or viol:
            return it
        if slack_ok:
            self.best_lb = max(self.best_lb, sol.objective)
            self.status = OPTIMAL
        elif self._escalations_left > 0:
            self._escalations_left -= 1
            self.master.escalate_big_m()
        else:
            edges = np.array(self.master.active_edges)[sol.slack > self._slack_tol]
            self.status = INFEASIBLE
            self.message = (f"slack remains on the capacity rows of edges "
                            f"{edges[:10].tolist()} after big-M escalation; "
                            "demands cannot be routed within capacity")
        return it

    # -- pricing -------------------------------------------------------------

    def _price_round(self):
        """Price every group in source order.

        Returns (columns, min_reduced_cost, stats, complete). A kernel
        round starts no block of sources once the time budget has run
        out; owners of groups left unpriced have a NaN minimum, and the
        round is complete when every group was priced. A round at zero
        capacity duals is empty and complete (see the module docstring).
        """
        sol = self.master.solution
        if not sol.mu.any():
            min_rc = np.full(self.owner_weights.size, np.nan)
            min_rc[self.master.owners] = 0.0
            return (ColumnBatch(self.mode, [], [], [], [], []), min_rc,
                    PricingStats(runs=len(self.instance.groups)), True)
        duals = DualSnapshot(sol.pi, sol.mu)
        tolerance = 1e-9 * (1.0 + abs(sol.objective))
        if self.mode == TREE:
            outcome = price_tree(self.instance, self.instance.groups, duals,
                                 tolerance=tolerance, deadline=self._deadline(),
                                 incumbents=self.master.incumbent_trees(sol.x))
        else:
            outcome = price_paths(self.instance, self.instance.groups, duals,
                                  strategy=self.config.pricing_strategy,
                                  bounds=self._bounds, tolerance=tolerance,
                                  deadline=self._deadline())
        complete = outcome.stats.runs == len(self.instance.groups)
        return outcome.columns, outcome.min_reduced_cost, outcome.stats, complete

    # -- reporting -----------------------------------------------------------

    def _report(self) -> SolveReport:
        wall = time.perf_counter() - self._t0
        objective = self.best_ub
        lower = self.best_lb
        return SolveReport(
            status=self.status or TIMEOUT,
            objective=float(objective),
            lower_bound=float(lower),
            gap=float(relative_gap(objective, lower)),
            iterations=self.iterations,
            peak_columns=self.master.pool_size,   # the pool never shrinks
            active_rows=len(self.master.active_edges),
            wall_time=wall,
            message=self.message,
            infeasible_owners=self.infeasible_owners,
        )


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveReport:
    """Solve an instance with any of the four formulations."""
    config = config or SolverConfig()
    if config.formulation in (TREE, PATH):
        return ColGenSolver(instance, config).run()
    return solve_direct_formulation(instance, config)[0]


def solve_direct_formulation(instance: Instance, config: SolverConfig
                             ) -> tuple[SolveReport, DirectSolution]:
    """Build and solve the edge-based or source-based LP once; returns
    the report and the direct solution with its per-owner flows.

    The time left of ``timeout_seconds`` after building the LP is the
    backend's time limit; a solve stopped there ends with status
    ``timeout``.
    """
    config.validate()
    t0 = time.perf_counter()
    build = build_edge_lp if config.formulation == EDGE_LP else build_source_lp
    direct = build(instance)
    budget = config.timeout_seconds
    sol = solve_direct(direct, config.lp_backend,
                       time_limit=max(0.0, budget - (time.perf_counter() - t0)))
    wall = time.perf_counter() - t0
    if sol.status == LP_TIME_LIMIT:
        return SolveReport(TIMEOUT, np.inf, -np.inf, np.inf, wall_time=wall,
                           message=f"the time budget of {budget:g} s ran out in "
                                   "the direct LP solve"), sol
    if sol.status == LP_INFEASIBLE:
        return SolveReport(INFEASIBLE, np.inf, np.inf, np.inf, wall_time=wall,
                           message="direct LP is infeasible"), sol
    if sol.status != LP_OPTIMAL:
        return SolveReport(INFEASIBLE, np.nan, np.nan, np.inf, wall_time=wall,
                           message=f"direct LP returned {sol.status}"), sol
    it = IterationStat(sol.objective, elapsed=wall,
                       simplex_iterations=sol.simplex_iterations)
    return SolveReport(OPTIMAL, sol.objective, sol.objective, 0.0,
                       iterations=[it], active_rows=instance.network.edge_count,
                       wall_time=wall), sol
