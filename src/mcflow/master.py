"""Restricted master problem for the path and tree decompositions.

The master keeps a pool of priced columns, the demand rows (one per
commodity in path mode, one per source in tree mode), and a lazily
grown set of capacity rows. Slack variables at big-M cost guarantee
feasibility before enough columns and rows exist; which rows get slack
follows the row-count rule: demand rows when there are fewer of them
than edges, capacity rows otherwise. Capacity duals are normalized to
be nonpositive after every solve, so the adjusted pricing weights
``cost - mu`` stay nonnegative.

Columns enter the pool in batches: :meth:`RestrictedMaster.add_column`
takes one column or a sequence of them. Duplicates, of pooled columns
or within the batch, are found by support key first; the new columns
are then checked together by :func:`validate_columns`, which raises for
the first bad column in batch order, and a batch with a bad column
changes nothing. Every pooled column stays in the restriction for the
whole solve, so the restriction's columns are the pool ids ``0 ..
pool_size - 1``. The coefficients of all pooled columns live in one
flat entry store: parallel ``(edge, coef, column)`` arrays in pool
order, each column's entries in its own edge order, appended once per
batch. Every reader uses array operations on that store: edge flows
are one weighted ``bincount``, :meth:`~RestrictedMaster.owners_touching`
masks the entries, and the LP coefficients are the entries whose edge
has a capacity row, found through an edge -> capacity-row index array.

On the ``highs`` backend the master keeps one :class:`HighsModel` for
its whole life, created on the first solve. Each solve first brings that
model up to date (new capacity rows with the entries of the columns
already in it, new pool columns in one batch, escalated slack costs)
and then lets HiGHS re-solve from the basis it kept. Other backends get
the whole restriction rebuilt by :meth:`RestrictedMaster.build_lp` and
solved cold. Both get the same coefficients in the same order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

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

# Each big-M escalation multiplies every slack price by this factor.
BIG_M_FACTOR = 100.0


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


class _Batch:
    """A batch of columns as flat entry arrays, and the first failed check
    of every column, checks added in the validator's order."""

    def __init__(self, cols: list[Column], net):
        self.cols = cols
        self.n = len(cols)
        self.lengths = np.array([len(c.edges) for c in cols], dtype=np.int64)
        total = self.total = int(self.lengths.sum())
        self.edges = np.fromiter(chain.from_iterable(c.edges for c in cols),
                                 np.int64, total)
        self.coefs = np.fromiter(chain.from_iterable(c.coefs for c in cols),
                                 np.float64, total)
        self.owner = np.array([c.owner for c in cols], dtype=np.int64)
        self.col_of = np.repeat(np.arange(self.n), self.lengths)
        self.start = np.cumsum(self.lengths) - self.lengths
        # Unknown edges read as edge 0 where an edge's data is looked up.
        self.unknown = (self.edges < 0) | (self.edges >= net.edge_count)
        self.known_edges = np.where(self.unknown, 0, self.edges)
        self.tail = net.tail[self.known_edges]
        self.head = net.head[self.known_edges]
        self.failed = np.full(self.n, -1)
        self.messages = []

    def any_entry(self, entries: np.ndarray) -> np.ndarray:
        """Columns with any of the given entries (a mask or indices)."""
        hit = np.zeros(self.n, dtype=bool)
        hit[self.col_of[entries]] = True
        return hit

    def first_entry(self, mask: np.ndarray, i: int) -> int:
        """Position in column ``i`` of its first entry flagged by ``mask``."""
        lo = self.start[i]
        return int(np.flatnonzero(mask[lo:lo + self.lengths[i]])[0])

    def check(self, bad: np.ndarray, message) -> None:
        """``bad`` flags the columns failing this check; ``message(i)``
        is the error text for column ``i``."""
        self.failed[(self.failed < 0) & bad] = len(self.messages)
        self.messages.append(message)

    def raise_first(self) -> None:
        bad = np.flatnonzero(self.failed >= 0)
        if bad.size:
            i = int(bad[0])
            raise InputError(self.messages[self.failed[i]](i))


def validate_columns(cols, instance: Instance):
    """Check the structural invariants of a batch of columns.

    Raises :class:`InputError` for the first bad column in batch order,
    with the message of the first check it fails; a column whose
    coefficient count differs from its edge count is reported before
    any other check runs. Every column must have no repeated and no
    unknown edge, and a cost equal to its coefficients times the edge
    costs. A path column must walk from its commodity's source to its
    sink with unit coefficients and no node twice. A tree column must be
    owned by a source, have positive coefficients, enter every node at
    most once, never enter the root, and connect every node to the root.

    Returns the batch's entries as flat arrays ``(lengths, edges,
    coefs)``: per column its edge count, then every column's edges and
    coefficients in batch order.
    """
    cols = list(cols)
    for col in cols:
        if len(col.coefs) != len(col.edges):
            raise InputError(f"column has {len(col.edges)} edges but "
                             f"{len(col.coefs)} coefficients")
    net = instance.network
    b = _Batch(cols, net)
    if not b.n:
        return b.lengths, b.edges, b.coefs
    edges, col_of = b.edges, b.col_of
    order = np.lexsort((edges, col_of))
    repeated = (edges[order][1:] == edges[order][:-1]) & \
        (col_of[order][1:] == col_of[order][:-1])
    b.check(b.any_entry(order[1:][repeated]),
            lambda i: f"column repeats edges: {cols[i].edges}")
    b.check(b.lengths == 0, lambda i: "column has empty support")
    b.check(b.any_entry(b.unknown), lambda i: "column references unknown edge "
            f"{cols[i].edges[b.first_entry(b.unknown, i)]}")
    if not b.total:
        b.raise_first()             # every column is empty
    # Summed in entry order, as the column's own sum would be.
    recomputed = np.bincount(col_of, weights=b.coefs * net.cost[b.known_edges],
                             minlength=b.n)
    cost = np.array([c.cost for c in cols], dtype=np.float64)
    b.check(np.abs(recomputed - cost) > 1e-9 * (1.0 + np.abs(recomputed)),
            lambda i: f"column cost {cols[i].cost} differs from recomputed "
                      f"{float(recomputed[i])}")
    is_path = np.array([c.kind == PATH for c in cols])
    is_tree = np.array([c.kind == TREE for c in cols])
    b.check(~(is_path | is_tree), lambda i: f"unknown column kind {cols[i].kind!r}")
    if is_path.any():
        _check_paths(b, is_path, instance)
    if is_tree.any():
        _check_trees(b, is_tree, instance)
    b.raise_first()
    return b.lengths, b.edges, b.coefs


def _check_paths(b: _Batch, is_path: np.ndarray, instance: Instance) -> None:
    """Path checks. The walk starts at the source; entry j must leave the
    node the walk is at (the source, or the head of entry j - 1) and
    reach a node the walk has not visited."""
    cols, head = b.cols, b.head
    commodities = instance.commodities
    known = (b.owner >= 0) & (b.owner < len(commodities))
    b.check(is_path & ~known,
            lambda i: f"path column owner {cols[i].owner} is not a commodity")
    b.check(is_path & b.any_entry(b.coefs != 1.0),
            lambda i: "path column coefficients must all equal 1")
    k = np.where(known, b.owner, 0).tolist()
    source = np.array([commodities[j].source for j in k], dtype=np.int64)
    sink = np.array([commodities[j].sink for j in k], dtype=np.int64)
    nonempty = b.lengths > 0
    at = np.empty_like(head)
    at[1:] = head[:-1]
    at[b.start[nonempty]] = source[nonempty]
    jump = b.tail != at
    # A node is revisited when it occurs earlier in the column's node
    # sequence: its source (position -1), then the head of every edge.
    nodes = np.concatenate([source, head])
    column = np.concatenate([np.arange(b.n), b.col_of])
    position = np.concatenate([np.full(b.n, -1), np.arange(b.total) - b.start[b.col_of]])
    order = np.lexsort((position, nodes, column))
    seen = np.zeros(b.n + b.total, dtype=bool)
    seen[order[1:]] = (nodes[order][1:] == nodes[order][:-1]) & \
        (column[order][1:] == column[order][:-1])
    stray = jump | seen[b.n:]

    def walk_message(i: int) -> str:
        j = b.first_entry(stray, i)
        if jump[b.start[i] + j]:
            return f"path column edges are not contiguous at edge {cols[i].edges[j]}"
        return f"path column revisits node {int(head[b.start[i] + j])}"

    b.check(is_path & b.any_entry(stray), walk_message)
    last = head[np.maximum(b.start + b.lengths - 1, 0)]
    b.check(is_path & (last != sink),
            lambda i: f"path column ends at {int(last[i])}, expected sink "
                      f"{commodities[cols[i].owner].sink}")


def _check_trees(b: _Batch, is_tree: np.ndarray, instance: Instance) -> None:
    """Tree checks; connectivity follows parent entries by pointer jumping."""
    cols, head, tail, total = b.cols, b.head, b.tail, b.total
    nodes = instance.network.node_count
    is_source = np.zeros(nodes, dtype=bool)
    is_source[[g.source for g in instance.groups]] = True
    owner_ok = (b.owner >= 0) & (b.owner < nodes)
    b.check(is_tree & ~(owner_ok & is_source[np.where(owner_ok, b.owner, 0)]),
            lambda i: f"tree column owner {cols[i].owner} is not a source")
    b.check(is_tree & b.any_entry(b.coefs <= 0),
            lambda i: "tree column coefficients must be positive")
    key = b.col_of * nodes + head
    order = np.argsort(key, kind="stable")
    key = key[order]
    b.check(is_tree & b.any_entry(order[1:][key[1:] == key[:-1]]),
            lambda i: "tree column support has a node with in-degree > 1")
    root = b.owner[b.col_of]
    b.check(is_tree & b.any_entry(head == root),
            lambda i: "tree column support re-enters the root")
    # An entry's parent is the entry of its column whose head is its tail;
    # slots total and total + 1 stand for the root and a missing parent.
    # After r rounds of pointer jumping every entry has followed 2^r
    # parent steps, and no chain to the root is longer than its column.
    want = b.col_of * nodes + tail
    found = np.minimum(np.searchsorted(key, want), total - 1)
    up = np.where(key[found] == want, order[found], total + 1)
    up = np.concatenate([np.where(tail == root, total, up), [total, total + 1]])
    for _ in range(int(b.lengths.max()).bit_length()):
        up = up[up]
    loose = up[:total] != total
    b.check(is_tree & b.any_entry(loose),
            lambda i: "tree column support is disconnected or cyclic at node "
                      f"{int(head[b.start[i] + b.first_entry(loose, i)])}")


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

    def __init__(self, instance: Instance, mode: str):
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
        self.slack_policy = "demand" if len(self.owners) < net.edge_count else "edge"
        total_cost = float(net.cost.sum())
        big_m = total_cost
        if mode == TREE:
            big_m *= float(sum(c.demand for c in instance.commodities))
        self.big_m = max(1.0, big_m)
        # Demand-row slack prices: one unit of convexity slack stands for the
        # whole group's demand, so its penalty scales with that demand. This
        # keeps the tree and path masters exactly equivalent LPs whenever
        # every group has a single member.
        if mode == TREE:
            self.demand_slack_costs = np.array(
                [max(1.0, total_cost * g.total_demand) for g in instance.groups])
        else:
            self.demand_slack_costs = np.full(len(self.owners), self.big_m)

        self.columns: list[Column] = []
        self._by_key: dict[tuple, int] = {}
        # Per pool column: cost and demand row.
        self._cost = np.zeros(0)
        self._row = np.zeros(0, dtype=np.int64)
        # The entry store: one (edge, coef, column) triple per column edge.
        self._edge = np.zeros(0, dtype=np.int64)
        self._coef = np.zeros(0)
        self._col = np.zeros(0, dtype=np.int64)

        self.active_edges: list[int] = []
        # Per edge: its position in active_edges, or -1 without a row.
        self._cap_pos = np.full(net.edge_count, -1, dtype=np.int64)
        self._use_artificials = False
        self.solution: RmpSolution | None = None

        # Live HiGHS model, built on the first solve (see _sync_model).
        self._model: HighsModel | None = None
        self._col_vars = np.zeros(0, dtype=np.int64)  # model column per pool id
        self._cap_rows = 0                  # active_edges[:_cap_rows] are rows
        self._slack_vars: dict = {}
        self._art_vars: dict[int, int] = {}
        self._costs_changed = False

    # -- column pool --------------------------------------------------------

    def add_column(self, cols: Column | list[Column]) -> int | list[int]:
        """Add one column or a sequence of columns to the pool.

        Returns the pool id of each column, one int for one column. An
        exact duplicate of a pooled or earlier column gets that column's
        id and changes nothing, so each pool column is validated exactly
        once. The new columns are validated together; if one is bad,
        nothing is added.
        """
        single = isinstance(cols, Column)
        batch = [cols] if single else list(cols)
        first = len(self.columns)
        ids, new, keys = [], [], {}
        for col in batch:
            key = col.support_key
            cid = self._by_key.get(key)
            if cid is None:
                cid = keys.get(key)
                if cid is None:
                    cid = keys[key] = first + len(new)
                    new.append(col)
            ids.append(cid)
        if new:
            self._append(new, keys)
        return ids[0] if single else ids

    def _append(self, new: list[Column], keys: dict[tuple, int]) -> None:
        """Validate new columns and append them and their entries."""
        # A column's owner and kind are checked after its structure: the
        # first column failing them ends the batch the validator sees, so
        # the error raised is always the first bad column's first failure.
        wrong = next((i for i, col in enumerate(new)
                      if col.owner not in self.owner_row or col.kind != self.mode),
                     None)
        checked = new if wrong is None else new[:wrong + 1]
        lengths, edges, coefs = validate_columns(checked, self.instance)
        if wrong is not None:
            col = new[wrong]
            if col.owner not in self.owner_row:
                raise InternalError(f"no demand row for owner {col.owner}")
            raise InputError(f"{self.mode} master only accepts {self.mode} columns")
        first = len(self.columns)
        count = len(new)
        self.columns.extend(new)
        self._by_key.update(keys)
        self._cost = np.concatenate([self._cost, [c.cost for c in new]])
        self._row = np.concatenate([self._row, [self.owner_row[c.owner] for c in new]])
        self._edge = np.concatenate([self._edge, edges])
        self._coef = np.concatenate([self._coef, coefs])
        self._col = np.concatenate(
            [self._col, np.repeat(np.arange(first, first + count), lengths)])

    @property
    def pool_size(self) -> int:
        return len(self.columns)

    @property
    def active_column_ids(self) -> list[int]:
        """Pool ids of the columns in the restriction: every pooled column."""
        return list(range(self.pool_size))

    def owners_touching(self, edges) -> set[int]:
        """Owners whose pooled columns use any of the given edges."""
        hit = np.zeros(self.instance.network.edge_count, dtype=bool)
        hit[[int(e) for e in edges]] = True
        cols = np.unique(self._col[hit[self._edge]])
        return {self.owners[r] for r in np.unique(self._row[cols]).tolist()}

    # -- capacity rows ------------------------------------------------------

    def add_capacity_rows(self, edges) -> None:
        """Activate capacity rows for the given edges (no-op if active)."""
        net = self.instance.network
        for e in edges:
            e = int(e)
            if not 0 <= e < net.edge_count:
                raise InputError(f"unknown edge {e}")
            if self._cap_pos[e] < 0:
                self._cap_pos[e] = len(self.active_edges)
                self.active_edges.append(e)

    def aggregate_edge_flows(self, x: np.ndarray | None = None) -> np.ndarray:
        """Total flow per edge implied by the given (or last) primal.

        Only columns with positive flow count; entries are summed in
        pool order.
        """
        if x is None:
            x = self._require_solution().x
        flow = np.where(x > 0.0, x, 0.0)
        return np.bincount(self._edge, weights=self._coef * flow[self._col],
                           minlength=self.instance.network.edge_count)

    def violated_capacities(self, x: np.ndarray | None = None) -> list[int]:
        """Inactive edges whose aggregated flow exceeds capacity.

        Strict violations only, sorted by violation magnitude
        descending (ties by edge id for determinism).
        """
        net = self.instance.network
        over = self.aggregate_edge_flows(x) - net.capacity
        tol = VIOLATION_ABS + VIOLATION_REL * net.capacity
        hits = np.flatnonzero((over > tol) & (self._cap_pos < 0))
        return hits[np.lexsort((hits, -over[hits]))].tolist()

    def escalate_big_m(self) -> None:
        """Raise every slack price (and with it big-M) a hundredfold."""
        self.big_m *= BIG_M_FACTOR
        self.demand_slack_costs = self.demand_slack_costs * BIG_M_FACTOR
        self._costs_changed = True

    # -- LP assembly and solve ----------------------------------------------

    def _column_matrix(self, first: int = 0):
        """The LP coefficients of pool columns ``first ..`` in CSC form
        ``(starts, indices, values)`` over the demand rows and the active
        capacity rows: per column its demand row, then its entries on
        edges with a row, in the column's edge order."""
        n = self.pool_size - first
        lo = np.searchsorted(self._col, first)
        row = self._cap_pos[self._edge[lo:]]
        keep = row >= 0
        j = self._col[lo:][keep] - first
        counts = np.bincount(j, minlength=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts + 1, out=starts[1:])
        indices = np.empty(starts[-1], dtype=np.int64)
        values = np.empty(starts[-1])
        indices[starts[:-1]] = self._row[first:]
        values[starts[:-1]] = 1.0
        # An entry goes after its column's demand entry and earlier entries.
        rank = np.arange(j.size) - (np.cumsum(counts) - counts)[j]
        at = starts[j] + 1 + rank
        indices[at] = len(self.owners) + row[keep]
        values[at] = self._coef[lo:][keep]
        return starts, indices, values

    def build_lp(self) -> tuple[SparseLp, list[int]]:
        """Assemble the current restriction as a SparseLp.

        Returns the LP and the pool ids of the LP's column variables in
        order, which are all pool ids. Variable layout: columns, then
        slacks, then artificials.
        """
        n_demand = len(self.owners)
        n_cap = len(self.active_edges)
        n_pool = self.pool_size
        starts, indices, values = self._column_matrix()
        if self.slack_policy == "demand":
            labels = [("demand", o) for o in self.owners]
            extra = [(np.arange(n_demand), 1.0, self.demand_slack_costs)]
        else:
            labels = [("edge", e) for e in self.active_edges]
            extra = [(n_demand + np.arange(n_cap), -1.0, np.full(n_cap, self.big_m))]
        slack_index = {label: n_pool + i for i, label in enumerate(labels)}
        art_index: dict = {}
        if self._use_artificials:
            first = n_pool + len(labels)
            art_index = {o: first + i for i, o in enumerate(self.owners)}
            extra.append((np.arange(n_demand), 1.0, np.full(n_demand, 10.0 * self.big_m)))
        # One variable per extra row, each with a single entry.
        rows = [indices] + [r for r, _, _ in extra]
        vals = [values] + [np.full(r.size, v) for r, v, _ in extra]
        obj = [self._cost] + [c for _, _, c in extra]
        n = n_pool + sum(r.size for r, _, _ in extra)
        cols = np.concatenate([np.repeat(np.arange(n_pool), np.diff(starts)),
                               np.arange(n_pool, n)])

        senses = ["E"] * n_demand + ["L"] * n_cap
        rhs = np.concatenate([self.demand_rhs,
                              self.instance.network.capacity[self.active_edges]
                              if n_cap else np.zeros(0)])
        lp = SparseLp(
            num_cols=n,
            objective=np.concatenate(obj),
            senses=senses,
            rhs=rhs,
            rows=np.concatenate(rows),
            cols=cols,
            vals=np.concatenate(vals),
        )
        self._slack_index = slack_index
        self._art_index = art_index
        return lp, list(range(n_pool))

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
            x = sol.x[:len(col_ids)]
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
        synced = self._col_vars.size

        new_edges = self.active_edges[self._cap_rows:]
        if new_edges:
            # Entries of the columns already in the model, per new row in
            # row order and within a row in pool order.
            end = np.searchsorted(self._col, synced)
            pos = self._cap_pos[self._edge[:end]]
            keep = np.flatnonzero(pos >= self._cap_rows)
            keep = keep[np.argsort(pos[keep], kind="stable")]
            starts = np.searchsorted(pos[keep], np.arange(self._cap_rows,
                                                          len(self.active_edges) + 1))
            first_row = model.add_rows(["L"] * len(new_edges),
                                       self.instance.network.capacity[new_edges],
                                       starts, self._col_vars[self._col[keep]],
                                       self._coef[keep])
            self._cap_rows = len(self.active_edges)
            if self.slack_policy == "edge":
                n = len(new_edges)
                first = model.add_cols(np.full(n, self.big_m), np.arange(n + 1),
                                       np.arange(first_row, first_row + n),
                                       np.full(n, -1.0))
                for i, e in enumerate(new_edges):
                    self._slack_vars[("edge", e)] = first + i

        if synced < self.pool_size:
            first = model.add_cols(self._cost[synced:], *self._column_matrix(synced))
            self._col_vars = np.concatenate(
                [self._col_vars, np.arange(first, first + self.pool_size - synced)])

        if self._use_artificials and not self._art_vars:
            first = model.add_cols(np.full(n_demand, 10.0 * self.big_m),
                                   np.arange(n_demand + 1), np.arange(n_demand),
                                   np.ones(n_demand))
            self._art_vars = {o: first + i for i, o in enumerate(self.owners)}

        if self._costs_changed:
            slack_costs = [self.demand_slack_costs[self.owner_row[label]]
                           if kind == "demand" else self.big_m
                           for kind, label in self._slack_vars]
            model.set_costs(list(self._slack_vars.values()), slack_costs)
            if self._art_vars:
                model.set_costs(list(self._art_vars.values()),
                                np.full(n_demand, 10.0 * self.big_m))
            self._costs_changed = False

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


def new_master(instance: Instance, mode: str) -> RestrictedMaster:
    """Create the restricted master of an instance in the given mode."""
    return RestrictedMaster(instance, mode)
