"""Restricted master problem for the path and tree decompositions.

The master keeps a pool of priced columns, the demand rows (one per
commodity in path mode, one per source in tree mode), and a lazily
grown set of capacity rows. Slack variables at big-M cost guarantee
feasibility before enough columns and rows exist; which rows get slack
follows the row-count rule: demand rows when there are fewer of them
than edges, capacity rows otherwise. Capacity duals are normalized to
be nonpositive after every solve, so the adjusted pricing weights
``cost - mu`` stay nonnegative.

On the ``highs`` backend the master keeps one :class:`HighsModel` for
its whole life, created on the first solve. Each solve first brings that
model up to date (new capacity rows with the coefficients of the
columns already in it, new pool columns in one batch, retired columns
fixed at zero, reactivated ones freed, escalated slack costs) and then
lets HiGHS re-solve from the basis it kept. Other backends get the
whole restriction rebuilt by :meth:`RestrictedMaster.build_lp` and
solved cold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError, LpTimeLimit
from .instance import Instance
from .lp import (INFEASIBLE, OPTIMAL, TIME_LIMIT, HighsBackend, HighsModel,
                 LpBackend, LpSolution, SparseLp, get_backend)

PATH = "path"
TREE = "tree"

# Absolute plus relative feasibility tolerance for violation detection;
# kept well below the optimality tolerance so lazy rows never mask the gap.
VIOLATION_ABS = 1e-6
VIOLATION_REL = 1e-9


@dataclass(frozen=True)
class Column:
    """A priced variable: a commodity path or a source-rooted tree.

    ``edges`` lists the support (in path order for path columns);
    ``coefs`` holds the per-edge flow coefficient, identically 1 for a
    path and the demand-weighted edge flow for a tree. ``cost`` is the
    dot product of the coefficients with the original edge costs.
    """

    owner: int
    kind: str
    edges: tuple[int, ...]
    coefs: tuple[float, ...]
    cost: float

    @property
    def support_key(self) -> tuple:
        return (self.kind, self.owner, tuple(sorted(self.edges)))


def validate_column(col: Column, instance: Instance) -> None:
    """Check the structural invariants of a column; raise on violation."""
    net = instance.network
    if len(col.edges) != len(set(col.edges)):
        raise InputError(f"column repeats edges: {col.edges}")
    if not col.edges:
        raise InputError("column has empty support")
    for e in col.edges:
        if not 0 <= e < net.edge_count:
            raise InputError(f"column references unknown edge {e}")
    recomputed = float(sum(c * net.cost[e] for e, c in zip(col.edges, col.coefs)))
    if abs(recomputed - col.cost) > 1e-9 * (1.0 + abs(recomputed)):
        raise InputError(f"column cost {col.cost} differs from recomputed {recomputed}")
    if col.kind == PATH:
        k = col.owner
        if not 0 <= k < len(instance.commodities):
            raise InputError(f"path column owner {k} is not a commodity")
        com = instance.commodities[k]
        if any(c != 1.0 for c in col.coefs):
            raise InputError("path column coefficients must all equal 1")
        seen = {com.source}
        at = com.source
        for e in col.edges:
            if net.tail[e] != at:
                raise InputError(f"path column edges are not contiguous at edge {e}")
            at = int(net.head[e])
            if at in seen:
                raise InputError(f"path column revisits node {at}")
            seen.add(at)
        if at != com.sink:
            raise InputError(f"path column ends at {at}, expected sink {com.sink}")
    elif col.kind == TREE:
        sources = {g.source for g in instance.groups}
        if col.owner not in sources:
            raise InputError(f"tree column owner {col.owner} is not a source")
        if any(c <= 0 for c in col.coefs):
            raise InputError("tree column coefficients must be positive")
        heads = [int(net.head[e]) for e in col.edges]
        if len(set(heads)) != len(heads):
            raise InputError("tree column support has a node with in-degree > 1")
        if col.owner in heads:
            raise InputError("tree column support re-enters the root")
        parent = {int(net.head[e]): int(net.tail[e]) for e in col.edges}
        for v in heads:
            chain = set()
            u = v
            while u != col.owner:
                if u in chain or u not in parent:
                    raise InputError(f"tree column support is disconnected or "
                                     f"cyclic at node {v}")
                chain.add(u)
                u = parent[u]
    else:
        raise InputError(f"unknown column kind {col.kind!r}")


@dataclass
class RmpSolution:
    """Primal/dual snapshot of the latest restricted master solve."""

    objective: float
    x: np.ndarray
    pi: dict[int, float]
    mu: np.ndarray
    slack: dict = field(default_factory=dict)
    max_slack: float = 0.0
    artificial: float = 0.0


class RestrictedMaster:
    """Mutable restricted master problem. Single-threaded by contract."""

    def __init__(self, instance: Instance, mode: str, *,
                 slack_policy: str = "auto", big_m: float | None = None,
                 initial_capacity_edges=(), retire_after: int | None = None):
        if mode not in (PATH, TREE):
            raise InputError(f"unknown master mode {mode!r}")
        self.instance = instance
        self.mode = mode
        net = instance.network
        if mode == PATH:
            self.owners = list(range(len(instance.commodities)))
            self.demand_rhs = np.array([c.demand for c in instance.commodities])
        else:
            self.owners = [g.source for g in instance.groups]
            self.demand_rhs = np.ones(len(instance.groups))
        self.owner_row = {o: i for i, o in enumerate(self.owners)}
        if slack_policy == "auto":
            slack_policy = "demand" if len(self.owners) < net.edge_count else "edge"
        if slack_policy not in ("demand", "edge"):
            raise InputError(f"unknown slack policy {slack_policy!r}")
        self.slack_policy = slack_policy
        total_cost = float(net.cost.sum())
        if big_m is None:
            if mode == TREE:
                total_demand = float(sum(c.demand for c in instance.commodities))
                big_m = total_cost * total_demand
            else:
                big_m = total_cost
        self.big_m = max(1.0, float(big_m))
        # Demand-row slack prices: one unit of convexity slack stands for the
        # whole group's demand, so its penalty scales with that demand. This
        # keeps the tree and path masters exactly equivalent LPs whenever
        # every group has a single member.
        if mode == TREE:
            self.demand_slack_costs = np.array(
                [max(1.0, total_cost * g.total_demand) for g in instance.groups])
        else:
            self.demand_slack_costs = np.full(len(self.owners), self.big_m)
        self.retire_after = retire_after

        self.columns: list[Column] = []
        self.column_active: list[bool] = []
        self._nonbasic_streak: list[int] = []
        self._by_key: dict[tuple, int] = {}
        self.edge_owners: dict[int, set[int]] = {}

        self.active_edges: list[int] = []
        self._active_set: set[int] = set()
        self._use_artificials = False
        self.solution: RmpSolution | None = None

        # Live HiGHS model, built on the first solve (see _sync_model).
        self._model: HighsModel | None = None
        self._col_vars: list[int] = []      # model column of pool ids 0, 1, ...
        self._cap_rows = 0                  # active_edges[:_cap_rows] are rows
        self._pending_entries: dict[int, list[tuple[int, float]]] = {}
        self._slack_vars: dict = {}
        self._art_vars: dict[int, int] = {}
        self._bounds_changed: set[int] = set()
        self._costs_changed = False
        for e in initial_capacity_edges:
            self.add_capacity_rows([e])

    # -- column pool --------------------------------------------------------

    def add_column(self, col: Column) -> int:
        """Add a column to the pool; exact duplicates are dropped.

        Returns the pool id of the (possibly preexisting) column. A
        duplicate only reactivates the pooled column, which was checked
        when it entered, so each pool column is validated exactly once.
        """
        key = col.support_key
        existing = self._by_key.get(key)
        if existing is not None:
            if not self.column_active[existing]:
                self.column_active[existing] = True
                self._nonbasic_streak[existing] = 0
                self._bounds_changed.add(existing)
            return existing
        validate_column(col, self.instance)
        if col.owner not in self.owner_row:
            raise InternalError(f"no demand row for owner {col.owner}")
        if self.mode == PATH and col.kind != PATH:
            raise InputError("path master only accepts path columns")
        if self.mode == TREE and col.kind != TREE:
            raise InputError("tree master only accepts tree columns")
        cid = len(self.columns)
        self.columns.append(col)
        self.column_active.append(True)
        self._nonbasic_streak.append(0)
        self._by_key[key] = cid
        for e in col.edges:
            self.edge_owners.setdefault(int(e), set()).add(col.owner)
        return cid

    @property
    def pool_size(self) -> int:
        return len(self.columns)

    @property
    def active_column_ids(self) -> list[int]:
        return [i for i, a in enumerate(self.column_active) if a]

    def owners_touching(self, edges) -> set[int]:
        """Owners whose pooled columns use any of the given edges."""
        hit: set[int] = set()
        for e in edges:
            hit |= self.edge_owners.get(int(e), set())
        return hit

    # -- capacity rows ------------------------------------------------------

    def add_capacity_rows(self, edges) -> None:
        """Activate capacity rows for the given edges (no-op if active)."""
        net = self.instance.network
        for e in edges:
            e = int(e)
            if not 0 <= e < net.edge_count:
                raise InputError(f"unknown edge {e}")
            if e in self._active_set:
                continue
            self.active_edges.append(e)
            self._active_set.add(e)

    def aggregate_edge_flows(self, x: np.ndarray | None = None) -> np.ndarray:
        """Total flow per edge implied by the given (or last) primal."""
        if x is None:
            x = self._require_solution().x
        flows = np.zeros(self.instance.network.edge_count)
        for cid, col in enumerate(self.columns):
            if not self.column_active[cid]:
                continue
            xv = x[cid]
            if xv <= 0.0:
                continue
            flows[list(col.edges)] += np.asarray(col.coefs) * xv
        return flows

    def violated_capacities(self, x: np.ndarray | None = None) -> list[int]:
        """Inactive edges whose aggregated flow exceeds capacity.

        Strict violations only, sorted by violation magnitude
        descending (ties by edge id for determinism).
        """
        net = self.instance.network
        flows = self.aggregate_edge_flows(x)
        tol = VIOLATION_ABS + VIOLATION_REL * net.capacity
        over = flows - net.capacity
        hits = [(float(over[e]), int(e)) for e in np.flatnonzero(over > tol)
                if int(e) not in self._active_set]
        hits.sort(key=lambda t: (-t[0], t[1]))
        return [e for _, e in hits]

    def escalate_big_m(self, factor: float = 100.0) -> None:
        self.big_m *= factor
        self.demand_slack_costs = self.demand_slack_costs * factor
        self._costs_changed = True

    # -- LP assembly and solve ----------------------------------------------

    def build_lp(self) -> tuple[SparseLp, list[int]]:
        """Assemble the current restriction as a SparseLp.

        Returns the LP and the pool ids of the LP's column variables in
        order. Variable layout: columns, then slacks, then artificials.
        """
        n_demand = len(self.owners)
        n_cap = len(self.active_edges)
        cap_row = {e: n_demand + i for i, e in enumerate(self.active_edges)}
        col_ids = self.active_column_ids

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        obj: list[float] = []
        for j, cid in enumerate(col_ids):
            col = self.columns[cid]
            obj.append(col.cost)
            rows.append(self.owner_row[col.owner])
            cols.append(j)
            vals.append(1.0)
            for e, coef in zip(col.edges, col.coefs):
                r = cap_row.get(int(e))
                if r is not None:
                    rows.append(r)
                    cols.append(j)
                    vals.append(float(coef))
        n = len(col_ids)
        slack_index: dict = {}
        if self.slack_policy == "demand":
            for i in range(n_demand):
                slack_index[("demand", self.owners[i])] = n
                rows.append(i)
                cols.append(n)
                vals.append(1.0)
                obj.append(float(self.demand_slack_costs[i]))
                n += 1
        else:
            for i, e in enumerate(self.active_edges):
                slack_index[("edge", e)] = n
                rows.append(n_demand + i)
                cols.append(n)
                vals.append(-1.0)
                obj.append(self.big_m)
                n += 1
        art_index: dict = {}
        if self._use_artificials:
            for i in range(n_demand):
                art_index[self.owners[i]] = n
                rows.append(i)
                cols.append(n)
                vals.append(1.0)
                obj.append(10.0 * self.big_m)
                n += 1

        senses = ["E"] * n_demand + ["L"] * n_cap
        rhs = np.concatenate([self.demand_rhs,
                              self.instance.network.capacity[self.active_edges]
                              if n_cap else np.zeros(0)])
        lp = SparseLp(
            num_cols=n,
            objective=np.array(obj),
            senses=senses,
            rhs=rhs,
            rows=np.array(rows, dtype=np.int64),
            cols=np.array(cols, dtype=np.int64),
            vals=np.array(vals, dtype=np.float64),
        )
        self._slack_index = slack_index
        self._art_index = art_index
        return lp, col_ids

    def solve_rmp(self, backend: str | LpBackend = "highs",
                  time_limit: float | None = None) -> RmpSolution:
        """Solve the current restriction and normalize the duals.

        Capacity duals are clipped to be nonpositive (so the adjusted
        costs ``c - mu`` stay nonnegative) and inactive edges expose a
        zero dual. If the LP is infeasible, artificial variables priced
        above big-M are injected once and the solve is repeated.

        On ``highs`` the live model is updated and re-solved warm, and
        ``time_limit`` (seconds for this call) is a hard limit: HiGHS
        stops there and :class:`LpTimeLimit` is raised. Other backends
        rebuild the LP, solve it cold and ignore ``time_limit``.
        """
        backend = get_backend(backend)
        if isinstance(backend, HighsBackend):
            deadline = None if time_limit is None else time.perf_counter() + time_limit
            sol = self._solve_model(deadline)
            if sol.status == INFEASIBLE and not self._use_artificials:
                self._use_artificials = True
                sol = self._solve_model(deadline)
            _check_rmp_solution(sol)
            x = sol.x[self._col_vars]
            x[~np.asarray(self.column_active, dtype=bool)] = 0.0
            slack = {key: float(sol.x[j]) for key, j in self._slack_vars.items()}
            artificial = sum(float(sol.x[j]) for j in self._art_vars.values())
        else:
            lp, col_ids = self.build_lp()
            sol = backend.solve(lp)
            if sol.status == INFEASIBLE and not self._use_artificials:
                self._use_artificials = True
                lp, col_ids = self.build_lp()
                sol = backend.solve(lp)
            _check_rmp_solution(sol)
            x = np.zeros(len(self.columns))
            x[col_ids] = sol.x[:len(col_ids)]
            slack = {key: float(sol.x[j]) for key, j in self._slack_index.items()}
            artificial = sum(float(sol.x[j]) for j in self._art_index.values())

        # Both layouts put the demand rows first and the capacity rows of
        # active_edges after them, in order.
        n_demand = len(self.owners)
        pi = {o: float(sol.duals[i]) for i, o in enumerate(self.owners)}
        mu = np.zeros(self.instance.network.edge_count)
        if self.active_edges:
            mu[self.active_edges] = np.minimum(0.0, sol.duals[n_demand:])
        max_slack = max(slack.values(), default=0.0)
        self.solution = RmpSolution(sol.objective, x, pi, mu, slack,
                                    max_slack, artificial)
        self._update_retirement(x)
        return self.solution

    # -- live HiGHS model ---------------------------------------------------

    def _solve_model(self, deadline: float | None) -> LpSolution:
        self._sync_model()
        limit = None if deadline is None else deadline - time.perf_counter()
        sol = self._model.solve(limit)
        if sol.status == TIME_LIMIT:
            raise LpTimeLimit("the restricted master LP reached its time limit")
        return sol

    def _sync_model(self) -> None:
        """Bring the live model up to date with the pool and the rows.

        Model layout: demand rows first, then capacity rows in
        ``active_edges`` order; columns in order of insertion, so pool
        columns, slacks and artificials interleave and are tracked by
        index.
        """
        n_demand = len(self.owners)
        if self._model is None:
            self._model = HighsModel()
            self._model.add_rows(["E"] * n_demand, self.demand_rhs)
            if self.slack_policy == "demand":
                first = self._model.add_cols(
                    self.demand_slack_costs, np.arange(n_demand + 1),
                    np.arange(n_demand), np.ones(n_demand))
                for i, o in enumerate(self.owners):
                    self._slack_vars[("demand", o)] = first + i
        model = self._model

        new_edges = self.active_edges[self._cap_rows:]
        if new_edges:
            starts, indices, values = [0], [], []
            for e in new_edges:
                for var, coef in self._pending_entries.pop(e, ()):
                    indices.append(var)
                    values.append(coef)
                starts.append(len(indices))
            first_row = model.add_rows(["L"] * len(new_edges),
                                       self.instance.network.capacity[new_edges],
                                       starts, indices, values)
            self._cap_rows = len(self.active_edges)
            if self.slack_policy == "edge":
                n = len(new_edges)
                first = model.add_cols(np.full(n, self.big_m), np.arange(n + 1),
                                       np.arange(first_row, first_row + n),
                                       np.full(n, -1.0))
                for i, e in enumerate(new_edges):
                    self._slack_vars[("edge", e)] = first + i

        new_ids = range(len(self._col_vars), len(self.columns))
        if new_ids:
            cap_row = {e: n_demand + i for i, e in enumerate(self.active_edges)}
            first = model.num_cols
            starts, indices, values, costs = [0], [], [], []
            for j, cid in enumerate(new_ids):
                col = self.columns[cid]
                costs.append(col.cost)
                indices.append(self.owner_row[col.owner])
                values.append(1.0)
                for e, coef in zip(col.edges, col.coefs):
                    r = cap_row.get(e)
                    if r is None:
                        # Kept until the edge's capacity row is added.
                        self._pending_entries.setdefault(e, []).append((first + j, coef))
                    else:
                        indices.append(r)
                        values.append(coef)
                starts.append(len(indices))
            model.add_cols(costs, starts, indices, values)
            self._col_vars.extend(range(first, first + len(new_ids)))
            self._bounds_changed.update(
                cid for cid in new_ids if not self.column_active[cid])

        if self._use_artificials and not self._art_vars:
            first = model.add_cols(np.full(n_demand, 10.0 * self.big_m),
                                   np.arange(n_demand + 1), np.arange(n_demand),
                                   np.ones(n_demand))
            self._art_vars = {o: first + i for i, o in enumerate(self.owners)}

        if self._bounds_changed:
            for fixed in (True, False):
                cids = [c for c in self._bounds_changed
                        if self.column_active[c] != fixed]
                if cids:
                    model.set_fixed([self._col_vars[c] for c in cids], fixed)
            self._bounds_changed.clear()

        if self._costs_changed:
            slack_costs = [self.demand_slack_costs[self.owner_row[label]]
                           if kind == "demand" else self.big_m
                           for kind, label in self._slack_vars]
            model.set_costs(list(self._slack_vars.values()), slack_costs)
            if self._art_vars:
                model.set_costs(list(self._art_vars.values()),
                                np.full(n_demand, 10.0 * self.big_m))
            self._costs_changed = False

    def _update_retirement(self, x: np.ndarray) -> None:
        if self.retire_after is None:
            return
        for cid in self.active_column_ids:
            if x[cid] > 1e-12:
                self._nonbasic_streak[cid] = 0
            else:
                self._nonbasic_streak[cid] += 1
                if self._nonbasic_streak[cid] >= self.retire_after:
                    self.column_active[cid] = False
                    self._bounds_changed.add(cid)

    def _require_solution(self) -> RmpSolution:
        if self.solution is None:
            raise InternalError("restricted master has not been solved yet")
        return self.solution

    def positive_slack_rows(self, tol: float) -> list:
        """Labels of slack variables above tolerance in the last solve."""
        sol = self._require_solution()
        return [key for key, v in sol.slack.items() if v > tol]


def _check_rmp_solution(sol: LpSolution) -> None:
    if sol.status != OPTIMAL:
        raise InternalError(f"restricted master solve returned {sol.status}")
    if sol.duality_gap > 1e-7 * (1.0 + abs(sol.objective)):
        raise InternalError(f"duality gap {sol.duality_gap} too large "
                            f"for objective {sol.objective}")


def new_master(instance: Instance, mode: str, **kwargs) -> RestrictedMaster:
    """Create a restricted master with the configured slack policy."""
    return RestrictedMaster(instance, mode, **kwargs)
