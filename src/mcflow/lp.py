"""Sparse LP interchange structure and the LP solvers.

Direct LPs, and the restricted master when it is rebuilt for a solve,
are expressed as a :class:`SparseLp` (row/col/value triplets, row
senses, nonnegative variables, minimization) and handed to an
:class:`LpBackend`. Two backends ship:

* ``highs`` (the default): HiGHS through :class:`HighsModel`, the
  package's one adapter around SciPy's bundled HiGHS bindings. The
  restricted master keeps one :class:`HighsModel` alive for a whole
  column generation run and only ever appends rows and columns to it
  or changes costs, so each re-solve starts from the previous basis.
  A model's first solve, which has no basis, lets HiGHS choose its
  simplex; every later solve runs the primal simplex, which re-optimizes
  a basis made infeasible by new columns and rows in fewer pivots. A
  direct LP is one cold solve, so it keeps HiGHS's choice: primal
  simplex took 11.0 s instead of 2.6 s for the edge LPs of 20
  ``tight-master`` benchmark instances, and 28.4 s instead of 1.9 s for
  10 ``few-commodities`` ones.
* ``builtin``: the dense two-phase revised simplex from
  :mod:`mcflow.simplex`, kept as a solver that shares no code with
  HiGHS; the restricted master rebuilds and cold-solves its LP on it.

Both report duals in the same convention: equality duals are free,
``<=`` duals are nonpositive at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import BackendError, InternalError

OPTIMAL = simplex.OPTIMAL
INFEASIBLE = simplex.INFEASIBLE
UNBOUNDED = simplex.UNBOUNDED
TIME_LIMIT = "time_limit"

# Densifying beyond these sizes is refused by the builtin backend.
DEFAULT_MAX_NNZ = 2_000_000
DEFAULT_MAX_DENSE = 30_000_000


@dataclass
class SparseLp:
    """``min obj.x  s.t.  A x (senses) rhs,  x >= 0`` in triplet form.

    Attributes:
        num_cols: Number of variables.
        objective: Objective coefficients, shape (num_cols,).
        senses: Per-row sense string, "E" or "L".
        rhs: Per-row right-hand side.
        rows/cols/vals: Coefficient triplets; duplicate entries add up.
    """

    num_cols: int
    objective: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.senses)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def validate(self) -> None:
        if self.objective.shape != (self.num_cols,):
            raise InternalError("objective length mismatch")
        if self.rhs.shape != (self.num_rows,):
            raise InternalError("rhs length mismatch")
        if not (self.rows.size == self.cols.size == self.vals.size):
            raise InternalError("triplet arrays differ in length")
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= self.num_rows):
            raise InternalError("triplet row index out of range")
        if self.cols.size and (self.cols.min() < 0 or self.cols.max() >= self.num_cols):
            raise InternalError("triplet col index out of range")

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.num_rows, self.num_cols))
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A


@dataclass
class LpSolution:
    """``simplex_iterations`` counts the pivots of the run (HiGHS only;
    0 from the builtin backend)."""

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    duality_gap: float = 0.0
    simplex_iterations: int = 0


class LpBackend:
    """Interface every LP backend implements."""

    name: str = "abstract"

    def solve(self, lp: SparseLp, time_limit: float | None = None) -> LpSolution:
        """Solve ``lp``; a backend that enforces ``time_limit`` (seconds)
        reports :data:`TIME_LIMIT` when it stops there."""
        raise NotImplementedError


class SimplexBackend(LpBackend):
    """Adapter for the builtin dense revised simplex."""

    name = "builtin"

    def __init__(self, max_nnz: int = DEFAULT_MAX_NNZ,
                 max_dense_entries: int = DEFAULT_MAX_DENSE):
        self.max_nnz = max_nnz
        self.max_dense_entries = max_dense_entries

    def solve(self, lp: SparseLp, time_limit: float | None = None) -> LpSolution:
        """Solve ``lp`` to the end; ``time_limit`` is ignored."""
        lp.validate()
        if lp.nnz > self.max_nnz:
            raise BackendError(
                f"model has {lp.nnz} nonzeros, above the builtin limit of "
                f"{self.max_nnz}; use the 'highs' backend")
        if lp.num_rows * lp.num_cols > self.max_dense_entries:
            raise BackendError(
                f"dense model would need {lp.num_rows}x{lp.num_cols} entries; "
                "use the 'highs' backend")
        result = simplex.solve_dense(lp.objective, lp.to_dense(), lp.rhs, lp.senses)
        return LpSolution(result.status, result.objective, result.x,
                          result.duals, result.duality_gap)


class HighsModel:
    """One HiGHS LP that grows in place and re-solves from its last basis.

    ``min c.x  s.t.  rows (senses) rhs,  x >= 0``. Rows are appended in
    CSR form over the columns already present, columns in CSC form over
    the rows already present; both take ``starts`` with one entry per
    new row or column plus a final end offset, like SciPy's ``indptr``.
    HiGHS keeps its basis across :meth:`solve` calls, so after columns,
    rows or costs change the next solve starts from the previous optimum
    instead of from scratch, with the primal simplex.

    This wraps ``scipy.optimize._highspy._core``, the HiGHS binding that
    SciPy >= 1.15 bundles. The module is private, so every use of it
    stays in this class.
    """

    def __init__(self):
        try:
            from scipy.optimize._highspy._core import (HighsModelStatus,
                                                       HighsStatus, _Highs,
                                                       kHighsInf)
        except ImportError as exc:  # pragma: no cover - depends on SciPy
            raise BackendError("the 'highs' backend needs SciPy >= 1.15, "
                               f"which bundles HiGHS bindings: {exc}") from None
        self._status = HighsModelStatus
        self._error = HighsStatus.kError
        self._inf = kHighsInf
        self._h = _Highs()
        # HiGHS logs to stdout unless told otherwise.
        self._h.setOptionValue("output_flag", False)
        # The first solve starts without a basis and lets HiGHS choose its
        # simplex (its default always runs the dual): primal simplex is
        # several times slower on cold LPs (see the module docstring).
        # :meth:`solve` switches to primal simplex once the model holds a
        # basis.
        self._h.setOptionValue("simplex_strategy", 0)
        self._rhs: list[float] = []
        self._equality: list[bool] = []
        self.num_cols = 0

    @property
    def num_rows(self) -> int:
        return len(self._rhs)

    def add_rows(self, senses, rhs, starts=None, indices=(), values=()) -> int:
        """Append rows; returns the index of the first new row."""
        rhs = np.asarray(rhs, dtype=np.float64)
        n = rhs.size
        equality = np.asarray(senses) == "E"
        if starts is None:
            starts = np.zeros(n + 1)
        first = self.num_rows
        self._check(self._h.addRows(n, np.where(equality, rhs, -self._inf), rhs,
                                    len(values), *_sparse(starts, indices, values)))
        self._rhs.extend(rhs.tolist())
        self._equality.extend(equality.tolist())
        return first

    def add_cols(self, costs, starts=None, indices=(), values=()) -> np.ndarray:
        """Append free nonnegative columns; returns their indices."""
        costs = np.asarray(costs, dtype=np.float64)
        n = costs.size
        if starts is None:
            starts = np.zeros(n + 1)
        first = self.num_cols
        self._check(self._h.addCols(n, costs, np.zeros(n), np.full(n, self._inf),
                                    len(values), *_sparse(starts, indices, values)))
        self.num_cols += n
        return np.arange(first, first + n)

    def set_costs(self, cols, costs) -> None:
        cols = np.asarray(cols, dtype=np.int32)
        self._check(self._h.changeColsCost(cols.size, cols,
                                           np.asarray(costs, dtype=np.float64)))

    def solve(self, time_limit: float | None = None) -> LpSolution:
        """Run HiGHS; a run stopped by ``time_limit`` (seconds) reports
        :data:`TIME_LIMIT` with no solution.

        A cold solve (a direct LP, or the live master's first) can
        overrun a short limit by a few tenths of a second, apparently
        because HiGHS checks its limit only between the phases of a
        solve: a 0.05 s limit on a source LP returned after 0.3-0.7 s.
        """
        # HiGHS compares its limit with its run time summed over every
        # solve of this model, so the limit of this solve starts from there.
        self._h.setOptionValue(
            "time_limit", self._inf if time_limit is None
            else self._h.getRunTime() + max(0.0, time_limit))
        self._h.run()
        # Every later solve starts from the basis this one kept, after new
        # columns (and often new rows) made it neither primal nor dual
        # feasible; there primal simplex takes fewer pivots than choose,
        # which runs the dual simplex whenever rows were added.
        self._h.setOptionValue("simplex_strategy", 4)
        status = self._h.getModelStatus()
        info = self._h.getInfo()
        pivots = int(info.simplex_iteration_count)
        empty = dict(x=np.zeros(self.num_cols), duals=np.zeros(self.num_rows),
                     simplex_iterations=pivots)
        if status == self._status.kModelEmpty:
            # No columns: feasible exactly when x = () satisfies every row.
            rhs = np.asarray(self._rhs)
            equality = np.asarray(self._equality, dtype=bool)
            if np.all(rhs[equality] == 0.0) and np.all(rhs[~equality] >= 0.0):
                return LpSolution(OPTIMAL, 0.0, **empty)
            return LpSolution(INFEASIBLE, np.inf, **empty)
        if status == self._status.kTimeLimit:
            return LpSolution(TIME_LIMIT, np.nan, **empty)
        if status == self._status.kInfeasible:
            return LpSolution(INFEASIBLE, np.inf, **empty)
        if status == self._status.kUnbounded:
            return LpSolution(UNBOUNDED, -np.inf, **empty)
        if status != self._status.kOptimal:
            raise BackendError(
                f"HiGHS failed: {self._h.modelStatusToString(status)}")
        solution = self._h.getSolution()
        x = np.asarray(solution.col_value)
        duals = np.asarray(solution.row_dual)
        objective = float(info.objective_function_value)
        # No column has a finite upper bound, so bounds add nothing here.
        dual_objective = float(duals @ np.asarray(self._rhs))
        return LpSolution(OPTIMAL, objective, x, duals,
                          abs(objective - dual_objective), pivots)

    def _check(self, status) -> None:
        if status == self._error:
            raise BackendError("HiGHS rejected a model change")


def _sparse(starts, indices, values):
    """HiGHS's compressed-matrix arguments: starts without the end offset."""
    return (np.asarray(starts[:-1], dtype=np.int32),
            np.asarray(indices, dtype=np.int32),
            np.asarray(values, dtype=np.float64))


class HighsBackend(LpBackend):
    """Cold solves of a :class:`SparseLp` on a fresh :class:`HighsModel`."""

    name = "highs"

    def solve(self, lp: SparseLp, time_limit: float | None = None) -> LpSolution:
        from scipy import sparse

        lp.validate()
        model = HighsModel()
        model.add_rows(lp.senses, lp.rhs)
        # COO to CSC sums duplicate entries, as SparseLp documents.
        matrix = sparse.csc_matrix(
            (lp.vals, (lp.rows, lp.cols)), shape=(lp.num_rows, lp.num_cols))
        model.add_cols(lp.objective, matrix.indptr, matrix.indices, matrix.data)
        return model.solve(time_limit)


_BACKENDS = {"builtin": SimplexBackend, "highs": HighsBackend}


def get_backend(name: str | LpBackend = "highs") -> LpBackend:
    """Resolve a backend by name; instances pass through unchanged."""
    if isinstance(name, LpBackend):
        return name
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise BackendError(f"unknown LP backend {name!r}; "
                           f"available: {sorted(_BACKENDS)}") from None
