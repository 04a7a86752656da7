"""Restricted master problem for the path and tree decompositions.

The master keeps a pool of priced columns, the demand rows (one per
commodity in path mode, one per source in tree mode), and a lazily
grown set of capacity rows. Slack variables at big-M cost keep every
restriction feasible before enough columns and rows exist. Which rows
get slack follows one slack rule for both modes, read off the instance:
demand rows when every source has exactly one commodity and there are
fewer commodities than edges, capacity rows otherwise. So a master on an
instance whose sources carry several commodities, path or tree, prices
an overloaded edge per unit of excess flow, not as the loss of a whole
demand. Big-M is one price per unit of flow in both modes, the total
edge cost: slack that covers a demand row's whole demand costs big-M
times that demand. Under capacity-row slack each demand row needs a
pooled column before the master can be solved; the engine pools one
seed column per row before its first solve.
Capacity duals are normalized to be nonpositive after every solve, so
the adjusted pricing weights ``cost - mu`` stay nonnegative.

Columns move from pricing to the master as a :class:`ColumnBatch` of
one ``kind``, path or tree: per-column ``owner``, ``lengths`` and
``cost`` arrays and per-entry ``edges`` and ``coefs`` arrays, with no
Python object per column. :class:`Column` is only a one-column view of
a batch, built on demand when a batch (or the pool,
:attr:`RestrictedMaster.columns`) is indexed or iterated.
:meth:`RestrictedMaster.add_column` takes a batch of the master's kind;
one column or a list of them is first converted into one. Duplicates,
of pooled columns or within the batch, are found by a vectorized hash of
(owner, edge set), each hash hit confirmed by comparing the edge sets
exactly. A valid column's owner and edge set fix its coefficients, so
equal keys mean equal columns. The new columns are then checked
together by :func:`validate_columns`, one check for both kinds, which
raises for the first bad column in batch order, and a batch with a bad
column changes nothing. Every pooled column stays in the restriction
for the whole solve, so the restriction's columns are the pool ids
``0 .. pool_size - 1``. The pool is one batch of the master's kind
whose arrays are read-only views of the filled prefix of buffers; each
batch's arrays are written after that prefix, and a full buffer is
moved to one of twice its capacity, so a batch costs its own size plus
an amortized constant per pooled entry. A pooled entry is an
``(edge, coef)`` pair, and no per-entry column id is stored. Every
reader uses array operations on the pool: edge flows are one weighted
``bincount``, and the LP coefficients are the entries whose edge has a
capacity row, found through an edge -> capacity-row index array.

A solve's demand duals ``RmpSolution.pi`` are an owner-indexed array
(see :mod:`mcflow.pricing`), NaN at ids that own no row.
``RmpSolution.slack`` is aligned with the slack rows: the demand rows in
``owners`` order, or the capacity rows of ``active_edges`` under the
edge slack policy.

The seed restriction, with no capacity row and one pooled column per
demand row that is no dearer than the row's slack price, is solved in
closed form on every backend: each column carries its row's right-hand
side and each row's dual is its column's cost. A run that ends after
its first iteration therefore solves no LP.

On the ``highs`` backend the master keeps one :class:`HighsModel` for
its whole life, created on the first solve that needs an LP. That first
solve starts without a basis and lets HiGHS choose its simplex. Each
later solve first brings the model up to date (new capacity rows with
the entries of the columns already in it, new pool columns in one
batch, escalated slack costs) and then re-solves from the basis HiGHS
kept, with the primal simplex: after new columns, and often new rows,
that basis is neither primal nor dual feasible, and primal simplex
re-optimizes it in fewer pivots than HiGHS's choice (see
:mod:`mcflow.lp`). Other backends get the whole restriction rebuilt by
:meth:`RestrictedMaster.build_lp` and solved cold. Both get the same
coefficients in the same order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError, LpTimeLimit
from .instance import Instance
from .lp import (OPTIMAL, TIME_LIMIT, HighsBackend, HighsModel, LpBackend,
                 LpSolution, SparseLp, get_backend)

PATH = "path"
TREE = "tree"

# Absolute plus relative feasibility tolerance for violation detection;
# kept well below the optimality tolerance so lazy rows never mask the gap.
VIOLATION_ABS = 1e-6
VIOLATION_REL = 1e-9

# Each big-M escalation multiplies every slack price by this factor.
BIG_M_FACTOR = 100.0

# Slots of validate_columns's (column, node) table.
SLOT_TABLE_SIZE = 1 << 18

# Flow conservation tolerance of a column, relative to a node's inflow.
CONSERVATION_REL = 1e-9


@dataclass(frozen=True)
class Column:
    """One column of a :class:`ColumnBatch`: a commodity path or a
    source-rooted tree.

    ``edges`` lists the support in any order; ``coefs`` holds the
    per-edge flow that delivers the owner's loads (see
    :func:`column_owners`), identically 1 for a path and the
    demand-weighted edge flow for a tree. ``cost`` is the dot product of
    the coefficients with the original edge costs.
    """

    owner: int
    kind: str
    edges: tuple[int, ...]
    coefs: tuple[float, ...]
    cost: float

    @property
    def support_key(self) -> tuple:
        return (self.kind, self.owner, tuple(sorted(self.edges)))


class ColumnBatch(Sequence):
    """Columns of one ``kind`` (str) as flat arrays.

    Per column: ``owner``, ``lengths`` (its entry count) and ``cost``;
    per entry: ``edges`` and ``coefs``, every column's entries in its own
    edge order and the columns in batch order. A batch is read-only.
    ``len()``, indexing and iteration give :class:`Column` views; a
    slice or :meth:`take` gives a batch.
    """

    __slots__ = ("kind", "owner", "lengths", "edges", "coefs", "cost",
                 "_starts", "_col_of")

    def __init__(self, kind: str, owner, lengths, edges, coefs, cost):
        self.kind = kind
        self.owner = np.asarray(owner, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.coefs = np.asarray(coefs, dtype=np.float64)
        self.cost = np.asarray(cost, dtype=np.float64)
        n = self.owner.size
        if not (self.lengths.size == self.cost.size == n) or \
                not self.edges.size == self.coefs.size == int(self.lengths.sum()):
            raise InputError("column batch arrays disagree in size")
        self._starts = self._col_of = None

    @classmethod
    def from_columns(cls, cols) -> ColumnBatch:
        """The batch of one :class:`Column` or a sequence of them, all
        path or all tree columns; the first column of an unknown kind raises."""
        cols = [cols] if isinstance(cols, Column) else list(cols)
        for col in cols:
            if len(col.coefs) != len(col.edges):
                raise InputError(f"column has {len(col.edges)} edges but "
                                 f"{len(col.coefs)} coefficients")
            if col.kind not in (PATH, TREE):
                raise InputError(f"unknown column kind {col.kind!r}")
        kind = cols[0].kind if cols else ""
        if any(c.kind != kind for c in cols):
            raise InputError("a column batch holds path or tree columns, not both")
        return cls(kind, [c.owner for c in cols], [len(c.edges) for c in cols],
                   [e for c in cols for e in c.edges],
                   [x for c in cols for x in c.coefs], [c.cost for c in cols])

    @classmethod
    def concat(cls, batches) -> ColumnBatch:
        """The columns of the given batches, in order, as one batch; the
        nonempty batches must have one kind."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls("", [], [], [], [], [])
        kinds = {b.kind for b in batches if len(b)}
        if len(kinds) > 1:
            raise InputError(f"cannot concatenate {' and '.join(sorted(kinds))} columns")
        return cls(next(iter(kinds), batches[0].kind),
                   *(np.concatenate([getattr(b, name) for b in batches])
                     for name in ("owner", "lengths", "edges", "coefs", "cost")))

    @property
    def starts(self) -> np.ndarray:
        """Offset of each column's first entry."""
        if self._starts is None:
            self._starts = self.lengths.cumsum() - self.lengths
        return self._starts

    @property
    def col_of(self) -> np.ndarray:
        """Column of each entry."""
        if self._col_of is None:
            self._col_of = np.repeat(np.arange(self.owner.size), self.lengths)
        return self._col_of

    def take(self, index) -> ColumnBatch:
        """The columns at ``index`` (indices or a boolean mask), in order."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        lengths = self.lengths[index]
        entries = np.repeat(self.starts[index] - (lengths.cumsum() - lengths),
                            lengths) + np.arange(int(lengths.sum()))
        return ColumnBatch(self.kind, self.owner[index], lengths,
                           self.edges[entries], self.coefs[entries], self.cost[index])

    def __len__(self) -> int:
        return self.owner.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        lo = int(self.starts[i])
        hi = lo + int(self.lengths[i])
        return Column(int(self.owner[i]), self.kind,
                      tuple(self.edges[lo:hi].tolist()),
                      tuple(self.coefs[lo:hi].tolist()), float(self.cost[i]))

    def __iter__(self):
        edges, coefs = self.edges.tolist(), self.coefs.tolist()
        cut = self.lengths.cumsum().tolist()
        lo = 0
        for owner, hi, cost in zip(self.owner.tolist(), cut, self.cost.tolist()):
            yield Column(owner, self.kind, tuple(edges[lo:hi]), tuple(coefs[lo:hi]), cost)
            lo = hi

    def __eq__(self, other):
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        return self.kind == other.kind and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("owner", "lengths", "edges", "coefs", "cost"))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self)} columns, {self.edges.size} entries)"


def as_batch(cols) -> ColumnBatch:
    """``cols`` if it is a batch, else the batch of its columns."""
    return cols if isinstance(cols, ColumnBatch) else ColumnBatch.from_columns(cols)


# Odd multipliers of the support hash (from splitmix64).
_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9),
        np.uint64(0x94D049BB133111EB))


def _support_hash(batch: ColumnBatch) -> np.ndarray:
    """Per column, a uint64 hash of its owner and edge set.

    The edge set enters as the wrapping sum of its mixed edge ids, which
    does not depend on the column's edge order. Equal hashes only make
    columns candidates for an exact comparison.
    """
    mixed = batch.edges.astype(np.uint64) * _MIX[0]
    mixed ^= mixed >> np.uint64(29)
    summed = np.zeros(mixed.size + 1, dtype=np.uint64)
    mixed.cumsum(out=summed[1:])
    starts = batch.starts
    edge_set = summed[starts + batch.lengths] - summed[starts]
    return (edge_set ^ (batch.owner.astype(np.uint64) * _MIX[1])) * _MIX[2]


class _Checks:
    """A batch under validation and the checks it failed, in the
    validator's order. A check that no column fails costs one test."""

    def __init__(self, batch: ColumnBatch):
        self.batch = batch
        self.n = len(batch)
        self.failed = []            # (column mask, message) per failed check

    def check(self, bad: np.ndarray, message, first: bool = False) -> None:
        """``bad`` flags the columns failing this check; ``message(i)``
        is the error text for column ``i``. A ``first`` check goes before
        every check made so far."""
        if np.count_nonzero(bad):
            self.failed.insert(0 if first else len(self.failed), (bad, message))

    def check_entries(self, entries: np.ndarray, message) -> None:
        """Fail the columns with any of the given entries (a mask or
        indices)."""
        hits = np.count_nonzero(entries) if entries.dtype == bool else entries.size
        if hits:
            bad = np.zeros(self.n, dtype=bool)
            bad[self.batch.col_of[entries]] = True
            self.check(bad, message)

    def first_entry(self, mask: np.ndarray, i: int) -> int:
        """Position in column ``i`` of its first entry flagged by ``mask``."""
        lo = self.batch.starts[i]
        return int(np.flatnonzero(mask[lo:lo + self.batch.lengths[i]])[0])

    def raise_first(self) -> None:
        """Raise for the first bad column, with its first failed check."""
        if self.failed:
            i = min(int(np.argmax(bad)) for bad, _ in self.failed)
            raise InputError(next(message for bad, message in self.failed
                                  if bad[i])(i))


def column_owners(kind: str, owner: np.ndarray, instance: Instance):
    """The roots and loads of the owners of ``kind`` columns.

    A column is a flow from its owner's root that delivers its owner's
    loads. A path owner k is a commodity, rooted at ``source[k]`` with a
    load of 1 at ``sink[k]``; a tree owner s is a source, rooted at s
    with its group's summed demand at each of its sinks. Returns
    ``known`` (whether each ``owner`` owns a demand row of this kind),
    ``root`` (0 for an unknown owner) and the loads as ``(index, node,
    amount)`` arrays, ``index`` into ``owner`` and nondecreasing. An
    unknown kind raises :class:`InputError`.
    """
    if kind == PATH:
        known = (owner >= 0) & (owner < len(instance.commodities))
        k = owner[known]
        root = np.zeros(owner.size, dtype=np.int64)
        root[known] = instance.source[k]
        return known, root, (np.flatnonzero(known), instance.sink[k], np.ones(k.size))
    if kind != TREE:
        raise InputError(f"unknown column kind {kind!r}")
    flat = instance.group_arrays
    # Groups are in ascending source order.
    g = np.searchsorted(flat.source, owner)
    known = (g < flat.source.size) & (np.append(flat.source, 0)[g] == owner)
    g = g[known]
    lo = flat.load_start[g]
    sizes = flat.load_start[g + 1] - lo
    at = np.arange(int(sizes.sum())) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    return known, np.where(known, owner, 0), \
        (np.repeat(np.flatnonzero(known), sizes), flat.sink[at], flat.demand[at])


def validate_columns(cols, instance: Instance) -> None:
    """Check the structural invariants of a batch of columns.

    ``cols`` is a :class:`ColumnBatch`, or columns that are converted
    into one, which checks their kinds before their structure (see
    :meth:`ColumnBatch.from_columns`). Raises :class:`InputError` for
    the first bad column in batch order, with the message of the first
    check it fails. Every column must have no repeated and no unknown
    edge, and a cost equal to its coefficients times the edge costs.
    It must then be a flow that delivers its owner's demands, one check
    for both kinds (only :func:`column_owners` reads the kind): its owner
    owns a demand row, its coefficients are positive, and its support is
    an arborescence at the owner's root (no node entered twice, the root
    never, every node connected to the root). At each node it enters,
    the inflow minus the outflow is the owner's load there, within
    ``CONSERVATION_REL`` of the inflow, and every load's node is
    entered. A path column thus passes exactly when it is a unit flow
    along a simple path from source to sink, in any edge order.

    A dense (column, node) slot table, allocated once per call with at
    most ``SLOT_TABLE_SIZE`` slots and serving a chunk of columns at a
    time, maps each slot to the column's first entry into that node. It
    gives each entry's parent entry and each load's entry; connectivity
    follows parent entries by pointer jumping.
    """
    b = as_batch(cols)
    n = len(b)
    if not n:
        return
    net = instance.network
    known, root, (load_col, load_node, load) = column_owners(b.kind, b.owner, instance)
    c = _Checks(b)
    edges, col_of, coefs, total = b.edges, b.col_of, b.coefs, b.edges.size
    unknown = (edges < 0) | (edges >= net.edge_count)
    c.check(b.lengths == 0, lambda i: "column has empty support")
    if np.count_nonzero(unknown):
        c.check_entries(unknown, lambda i: "column references unknown edge "
                        f"{b[i].edges[c.first_entry(unknown, i)]}")
        # Unknown edges read as edge 0 where an edge's data is looked up.
        edges = np.where(unknown, 0, edges)
    if not total:
        c.raise_first()             # every column is empty
    # Summed in entry order, as the column's own sum would be.
    recomputed = np.bincount(col_of, weights=coefs * net.cost[edges], minlength=n)
    c.check(np.abs(recomputed - b.cost) > 1e-9 * (1.0 + np.abs(recomputed)),
            lambda i: f"column cost {float(b.cost[i])} differs from recomputed "
                      f"{float(recomputed[i])}")
    c.check(~known,
            lambda i: f"{b.kind} column owner {int(b.owner[i])} owns no demand row")
    c.check_entries(~(coefs > 0), lambda i: "column coefficients must be positive")

    head, tail = net.head[edges], net.tail[edges]
    nodes = net.node_count
    # Parent entries; slots total and total + 1 stand for the root and a
    # missing parent.
    missing = total + 1
    up = np.empty(total + 2, dtype=np.int64)
    repeat = np.empty(total, dtype=bool)        # not the first entry of its slot
    reached = np.empty(load_col.size, dtype=np.int64)   # the entry into each load's node
    chunk = max(1, SLOT_TABLE_SIZE // nodes)
    table = np.full(min(chunk, n) * nodes, missing, dtype=np.int64)
    cut = np.append(b.starts, total)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        s, t = cut[lo], cut[hi]
        row = (col_of[s:t] - lo) * nodes
        slot = row + head[s:t]
        entries = np.arange(s, t)
        # Written in reverse entry order, so each slot keeps its first entry.
        table[slot[::-1]] = entries[::-1]
        repeat[s:t] = table[slot] != entries
        up[s:t] = table[row + tail[s:t]]
        u, v = np.searchsorted(load_col, (lo, hi))
        reached[u:v] = table[(load_col[u:v] - lo) * nodes + load_node[u:v]]
        if hi < n:
            table[slot] = missing
    c.check_entries(repeat, lambda i: "column support has a node with in-degree > 1")
    entry_root = root[col_of]
    c.check_entries(head == entry_root, lambda i: "column support re-enters the root")
    up[:total][tail == entry_root] = total
    up[total:] = total, missing
    # Outflow plus load minus inflow at each entry's head.
    excess = np.bincount(up[:total], weights=coefs, minlength=total + 2)
    np.add.at(excess, reached, load)
    excess[:total] -= coefs
    # After r rounds of pointer jumping every entry has followed 2^r
    # parent steps, and no chain to the root is longer than its column;
    # the rounds stop once every entry has reached the root or a gap.
    for _ in range(int(b.lengths.max()).bit_length()):
        if up[:total].min() >= total:
            break
        up = up[up]
    loose = up[:total] != total
    c.check_entries(loose, lambda i: "column support is disconnected or cyclic "
                    f"at node {int(head[b.starts[i] + c.first_entry(loose, i)])}")
    tolerance = coefs * CONSERVATION_REL
    tolerance += CONSERVATION_REL
    leak = ~(np.abs(excess[:total], out=excess[:total]) <= tolerance)
    c.check_entries(leak, lambda i: "column does not conserve flow at node "
                    f"{int(head[b.starts[i] + c.first_entry(leak, i)])}")
    unreached = reached == missing
    if np.count_nonzero(unreached):
        short = np.zeros(n, dtype=bool)
        short[load_col[unreached]] = True
        c.check(short, lambda i: "column does not reach load node "
                f"{int(load_node[unreached & (load_col == i)][0])}")
    if np.count_nonzero(repeat):
        # Only a column that enters a node twice can repeat an edge; that
        # message comes first. Sorting column * span + edge rank groups each
        # column's equal edges; edge ids are their own ranks unless some are unknown.
        span, rank = net.edge_count, b.edges
        if np.count_nonzero(unknown):
            ids, rank = np.unique(b.edges, return_inverse=True)
            span = ids.size
        key = np.sort(col_of * span + rank)
        repeated = np.zeros(n, dtype=bool)
        repeated[key[1:][key[1:] == key[:-1]] // span] = True
        c.check(repeated, lambda i: f"column repeats edges: {b[i].edges}", first=True)
    c.raise_first()


@dataclass
class RmpSolution:
    """Primal/dual snapshot of the latest restricted master solve.

    ``simplex_iterations`` counts the LP pivots of the solve, and is 0
    for the closed-form solve of the seed restriction.
    """

    objective: float
    x: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    slack: np.ndarray
    simplex_iterations: int = 0


def _extend(buffer: np.ndarray, used: int, values: np.ndarray) -> np.ndarray:
    """``buffer`` with ``values`` written after its first ``used`` items;
    when they do not fit, a new buffer of twice the capacity (or more)
    that starts with those items. The items are never written again, so
    a view of them stays unchanged."""
    end = used + values.size
    if end > buffer.size:
        grown = np.empty(max(end, 2 * buffer.size), dtype=buffer.dtype)
        grown[:used] = buffer[:used]
        buffer = grown
    buffer[used:end] = values
    return buffer


class RestrictedMaster:
    """Mutable restricted master problem. Single-threaded by contract."""

    def __init__(self, instance: Instance, mode: str):
        """An empty master of ``instance`` in ``mode``, path or tree.

        ``slack_policy`` is ``"demand"`` only when every source has
        exactly one commodity and there are fewer commodities than edges,
        and ``"edge"`` otherwise, the same in both modes. Under
        ``"edge"``, solving a master with a demand row that has no pooled
        column raises :class:`InputError`.
        """
        if mode not in (PATH, TREE):
            raise InputError(f"unknown master mode {mode!r}")
        self.instance = instance
        self.mode = mode
        net = instance.network
        if mode == PATH:
            self.owners = np.arange(len(instance.commodities))
            self.demand_rhs = instance.demand.copy()
            row_demand = instance.demand
        else:
            self.owners = np.array([g.source for g in instance.groups], dtype=np.int64)
            self.demand_rhs = np.ones(len(instance.groups))
            row_demand = np.array([g.total_demand for g in instance.groups])
        # One rule for both modes, read off the instance: demand slack only
        # when every source has exactly one commodity (a group has at least
        # one member) and there are fewer commodities than edges. The tree
        # and path masters of such an instance are then the same LP.
        k = len(instance.commodities)
        self.slack_policy = ("demand" if len(instance.groups) == k < net.edge_count
                             else "edge")
        total_cost = float(net.cost.sum())
        # The price of one unit of flow on a capacity row's slack.
        self.big_m = max(1.0, total_cost)
        # Demand-row slack prices: big-M per unit of the demand a row stands
        # for (a tree row's unit of slack is its group's whole demand), so
        # the tree and path masters are the same LP when every group has a
        # single member, the only instances with demand slack.
        self.demand_slack_costs = self.big_m * (row_demand / self.demand_rhs)

        # Demand row per owner id (commodity, or node in tree mode), -1 if none.
        self._row_of = np.full(net.node_count if mode == TREE else len(self.owners), -1)
        self._row_of[self.owners] = np.arange(len(self.owners))
        # The pool, and per pool column its demand row and support hash:
        # read-only views of the filled prefix of the buffers that _append
        # writes and doubles when full.
        self._buffers: dict[str, np.ndarray] = {}
        self._pool = ColumnBatch(mode, [], [], [], [], [])
        self._row = np.zeros(0, dtype=np.int64)
        self._hash = np.zeros(0, dtype=np.uint64)

        self.active_edges: list[int] = []
        # Per edge: its position in active_edges, or -1 without a row.
        self._cap_pos = np.full(net.edge_count, -1, dtype=np.int64)
        self.solution: RmpSolution | None = None

        # Live HiGHS model, built on the first solve that needs an LP (see
        # _sync_model).
        self._model: HighsModel | None = None
        self._col_vars = np.zeros(0, dtype=np.int64)  # model column per pool id
        self._cap_rows = 0                  # active_edges[:_cap_rows] are rows
        self._slack_cols = np.zeros(0, dtype=np.int64)  # model column per slack row
        self._costs_changed = False

    # -- column pool --------------------------------------------------------

    def add_column(self, cols: ColumnBatch | Column | list[Column]) -> int | list[int]:
        """Add a batch of columns to the pool.

        ``cols`` is a :class:`ColumnBatch` of the master's kind; one
        :class:`Column` or a sequence of them is converted into one
        first, which checks their kinds before their structure. A batch
        of the other kind raises its first column's structural error, or
        else that the master only accepts its own kind. Returns the pool
        id of each column, one int for one column. A column with the
        owner and edge set of a pooled or earlier column gets that
        column's id and changes nothing, so each pool column is
        validated exactly once. The new columns are validated together;
        if one is bad, nothing is added.
        """
        batch = as_batch(cols)
        if len(batch) and batch.kind != self.mode:
            validate_columns(batch[:1], self.instance)
            raise InputError(f"{self.mode} master only accepts {self.mode} columns")
        ids, new, hashes = self._match(batch)
        fresh = np.count_nonzero(new)
        if fresh:
            if fresh < len(batch):
                batch, hashes = batch.take(new), hashes[new]
            self._append(batch, hashes)
        return int(ids[0]) if isinstance(cols, Column) else ids.tolist()

    def _match(self, batch: ColumnBatch):
        """Pool ids of a batch's columns, the mask of its new columns and
        their support hashes.

        Columns whose hash equals that of a pooled or earlier column are
        compared with each such column, in pool and batch order, and
        repeat the first one with the same owner and edge set.
        """
        n, first = len(batch), self.pool_size
        hashes = _support_hash(batch)
        every = np.concatenate([self._hash, hashes])
        order = every.argsort(kind="stable")
        ranked = every[order]
        same = ranked[1:] == ranked[:-1]
        if not np.count_nonzero(same):
            return first + np.arange(n), np.ones(n, dtype=bool), hashes
        # Per batch column: the (pool, then batch) index of the column it
        # repeats, or -1.
        match = np.full(n, -1, dtype=np.int64)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        suspects = np.zeros(every.size, dtype=bool)
        suspects[order[1:][same]] = True
        for i in np.flatnonzero(suspects[first:]).tolist():
            lo = np.searchsorted(ranked, every[first + i])
            for j in order[lo:rank[first + i]].tolist():
                if (j < first or match[j - first] < 0) and self._same_support(j, batch, i):
                    match[i] = j
                    break
        new = match < 0
        ids = np.empty(n, dtype=np.int64)
        ids[new] = first + np.arange(int(new.sum()))
        repeats = match[~new]
        ids[~new] = np.where(repeats < first, repeats,
                             ids[np.maximum(repeats - first, 0)])
        return ids, new, hashes

    def _same_support(self, j: int, batch: ColumnBatch, i: int) -> bool:
        """Whether column ``i`` of ``batch`` has the owner and edge set of
        pool column ``j`` (batch column ``j - pool_size`` when ``j`` is
        not in the pool)."""
        first = self.pool_size
        other, j = (self._pool, j) if j < first else (batch, j - first)
        at_j, at_i = other.starts[j], batch.starts[i]
        return (other.owner[j] == batch.owner[i]
                and np.array_equal(np.sort(other.edges[at_j:at_j + other.lengths[j]]),
                                   np.sort(batch.edges[at_i:at_i + batch.lengths[i]])))

    def _append(self, batch: ColumnBatch, hashes: np.ndarray) -> None:
        """Validate new columns of the master's kind and append them to
        the pool. A valid column has a demand row: path owners are
        commodities and tree owners are sources. The pool arrays, ``_row``
        and ``_hash`` become new views of their buffers; views handed out
        before keep their columns."""
        validate_columns(batch, self.instance)
        new = dict(owner=batch.owner, lengths=batch.lengths, cost=batch.cost,
                   row=self._row_of[batch.owner], hash=hashes,
                   edges=batch.edges, coefs=batch.coefs)
        n, size = self.pool_size, self._pool.edges.size
        view = {}
        for name, values in new.items():
            used = size if name in ("edges", "coefs") else n
            # The first batch starts from an empty buffer of its own dtype.
            buffer = _extend(self._buffers.get(name, values[:0]), used, values)
            self._buffers[name] = buffer
            view[name] = buffer[:used + values.size]
            view[name].flags.writeable = False
        self._pool = ColumnBatch(self.mode, view["owner"], view["lengths"],
                                 view["edges"], view["coefs"], view["cost"])
        self._row, self._hash = view["row"], view["hash"]

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    @property
    def columns(self) -> ColumnBatch:
        """The pool: a read-only batch of the master's kind in pool-id
        order; indexing or iterating it builds :class:`Column` views."""
        return self._pool

    @property
    def active_column_ids(self) -> list[int]:
        """Pool ids of the columns in the restriction: every pooled column."""
        return list(range(self.pool_size))

    def incumbent_trees(self, x: np.ndarray | None = None) -> np.ndarray:
        """Parent-edge matrix of the incumbent column of every demand row.

        Row r (in demand-row order) holds, at each node, the edge of row
        r's incumbent entering that node, and -1 at every other node. A
        row's incumbent is its pooled column with the largest value in
        the given (or last) primal, the lowest pool id among ties; a row
        without a column is all -1. Meant for tree columns, whose edges
        enter distinct nodes.
        """
        if x is None:
            x = self._require_solution().x
        net = self.instance.network
        parents = np.full((len(self.owners), net.node_count), -1, dtype=np.int64)
        # By row, then by value descending; lexsort keeps pool order in ties.
        order = np.lexsort((-x, self._row))
        _, first = np.unique(self._row[order], return_index=True)
        best = np.zeros(self.pool_size, dtype=bool)
        best[order[first]] = True
        pool = self._pool
        edges = pool.edges[np.repeat(best, pool.lengths)]
        parents[np.repeat(self._row[best], pool.lengths[best]), net.head[edges]] = edges
        return parents

    # -- capacity rows ------------------------------------------------------

    def add_capacity_rows(self, edges) -> None:
        """Activate capacity rows for the given edges, in order; an active
        or repeated edge adds nothing. An unknown edge raises
        :class:`InputError` for the first one, and no row is added."""
        e = np.asarray(list(edges), dtype=np.int64)
        bad = (e < 0) | (e >= self.instance.network.edge_count)
        if np.count_nonzero(bad):
            raise InputError(f"unknown edge {int(e[np.argmax(bad)])}")
        new = e[np.sort(np.unique(e, return_index=True)[1])]
        new = new[self._cap_pos[new] < 0]
        self._cap_pos[new] = len(self.active_edges) + np.arange(new.size)
        self.active_edges.extend(new.tolist())

    def aggregate_edge_flows(self, x: np.ndarray | None = None) -> np.ndarray:
        """Total flow per edge implied by the given (or last) primal.

        Only columns with positive flow count; entries are summed in
        pool order.
        """
        if x is None:
            x = self._require_solution().x
        flow = np.where(x > 0.0, x, 0.0)
        pool = self._pool
        return np.bincount(pool.edges, weights=pool.coefs * np.repeat(flow, pool.lengths),
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
        pool = self._pool
        n = self.pool_size - first
        lo = int(pool.lengths[:first].sum())
        row = self._cap_pos[pool.edges[lo:]]
        keep = row >= 0
        j = np.repeat(np.arange(n), pool.lengths[first:])[keep]
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
        values[at] = pool.coefs[lo:][keep]
        return starts, indices, values

    def build_lp(self) -> tuple[SparseLp, list[int]]:
        """Assemble the current restriction as a SparseLp.

        Returns the LP and the pool ids of the LP's column variables in
        order, which are all pool ids. Variable layout: columns, then one
        slack per slack row in row order, each with a single entry.
        """
        n_demand = len(self.owners)
        n_cap = len(self.active_edges)
        n_pool = self.pool_size
        starts, indices, values = self._column_matrix()
        if self.slack_policy == "demand":
            slack_rows, sign, slack_costs = np.arange(n_demand), 1.0, self.demand_slack_costs
        else:
            slack_rows, sign, slack_costs = (n_demand + np.arange(n_cap), -1.0,
                                             np.full(n_cap, self.big_m))
        n = n_pool + slack_rows.size
        lp = SparseLp(
            num_cols=n,
            objective=np.concatenate([self._pool.cost, slack_costs]),
            senses=["E"] * n_demand + ["L"] * n_cap,
            rhs=np.concatenate([self.demand_rhs,
                                self.instance.network.capacity[self.active_edges]]),
            rows=np.concatenate([indices, slack_rows]),
            cols=np.concatenate([np.repeat(np.arange(n_pool), np.diff(starts)),
                                 np.arange(n_pool, n)]),
            vals=np.concatenate([values, np.full(slack_rows.size, sign)]),
        )
        return lp, list(range(n_pool))

    def solve_rmp(self, backend: str | LpBackend = "highs",
                  time_limit: float | None = None) -> RmpSolution:
        """Solve the current restriction and normalize the duals.

        Capacity duals are clipped to be nonpositive (so the adjusted
        costs ``c - mu`` stay nonnegative) and inactive edges expose a
        zero dual. Slack keeps every restriction feasible, except one
        under capacity-row slack with a demand row that has no pooled
        column: that raises :class:`InputError` naming the rows' owners.

        The seed restriction (no capacity row, one pooled column per
        demand row, each no dearer than its row's slack price) is solved
        in closed form on every backend, with zero pivots and no LP, and
        ``time_limit`` does not apply to it. Every other state is solved
        as one LP. On ``highs`` the live model is then built if it does
        not exist yet, otherwise updated and re-solved warm, and
        ``time_limit`` (seconds for the LP solve) is a hard limit: HiGHS
        stops there and :class:`LpTimeLimit` is raised. Other backends
        rebuild the LP, solve it cold and ignore ``time_limit``.
        """
        backend = get_backend(backend)
        seed = self._seed_solution()
        if seed is not None:
            self.solution = seed
            return seed
        n_demand = len(self.owners)
        if self.slack_policy == "edge":
            bare = self.owners[np.bincount(self._row, minlength=n_demand) == 0]
            if bare.size:
                raise InputError(f"the demand rows of owners {bare[:10].tolist()} have "
                                 "no pooled column; under capacity-row slack every "
                                 "demand row needs one")
        live = isinstance(backend, HighsBackend)
        sol = self._solve_model(time_limit) if live else backend.solve(self.build_lp()[0])
        _check_rmp_solution(sol)
        if live:
            x, slack = sol.x[self._col_vars], sol.x[self._slack_cols]
        else:
            # build_lp's layout: columns, then one slack per slack row.
            x, slack = sol.x[:self.pool_size], sol.x[self.pool_size:]

        # Both layouts put the demand rows first and the capacity rows of
        # active_edges after them, in order.
        pi = np.full(self._row_of.size, np.nan)
        pi[self.owners] = sol.duals[:n_demand]
        mu = np.zeros(self.instance.network.edge_count)
        mu[self.active_edges] = np.minimum(0.0, sol.duals[n_demand:])
        self.solution = RmpSolution(sol.objective, x, pi, mu, slack,
                                    sol.simplex_iterations)
        return self.solution

    def _seed_solution(self) -> RmpSolution | None:
        """The optimum of the seed restriction, or None in any other state.

        The seed restriction has no capacity row and exactly one pooled
        column per demand row, each no dearer than its row's slack price
        (both have coefficient 1 on the row). Its optimum routes each
        row's right-hand side through the row's column, prices the row at
        that column's cost and leaves every slack and capacity dual at
        zero.
        """
        n = len(self.owners)
        row, cost = self._row, self._pool.cost
        if self.active_edges or self.pool_size != n \
                or not np.all(np.bincount(row, minlength=n) == 1) \
                or not np.all(cost <= self.demand_slack_costs[row]):
            return None
        x = self.demand_rhs[row]
        pi = np.full(self._row_of.size, np.nan)
        pi[self.owners[row]] = cost
        slack = np.zeros(n if self.slack_policy == "demand" else 0)
        return RmpSolution(float(cost @ x), x, pi,
                           np.zeros(self.instance.network.edge_count), slack)

    # -- live HiGHS model ---------------------------------------------------

    def _solve_model(self, time_limit: float | None) -> LpSolution:
        self._sync_model()
        sol = self._model.solve(time_limit)
        if sol.status == TIME_LIMIT:
            raise LpTimeLimit("the restricted master LP reached its time limit")
        return sol

    def _sync_model(self) -> None:
        """Bring the live model up to date with the pool and the rows.

        Model layout: demand rows first, then capacity rows in
        ``active_edges`` order; columns in order of insertion, so pool
        columns and slacks interleave and are tracked by index.
        """
        if self._model is None:
            n_demand = len(self.owners)
            self._model = HighsModel()
            self._model.add_rows(["E"] * n_demand, self.demand_rhs)
            if self.slack_policy == "demand":
                self._slack_cols = self._model.add_cols(
                    self.demand_slack_costs, np.arange(n_demand + 1),
                    np.arange(n_demand), np.ones(n_demand))
        model = self._model
        synced = self._col_vars.size

        new_edges = self.active_edges[self._cap_rows:]
        if new_edges:
            # Entries of the columns already in the model, per new row in
            # row order and within a row in pool order.
            pool = self._pool
            pos = self._cap_pos[pool.edges[:int(pool.lengths[:synced].sum())]]
            keep = np.flatnonzero(pos >= self._cap_rows)
            keep = keep[np.argsort(pos[keep], kind="stable")]
            starts = np.searchsorted(pos[keep], np.arange(self._cap_rows,
                                                          len(self.active_edges) + 1))
            # The pool column of each kept entry (no pooled column is empty).
            col = pool.starts.searchsorted(keep, side="right") - 1
            first_row = model.add_rows(["L"] * len(new_edges),
                                       self.instance.network.capacity[new_edges],
                                       starts, self._col_vars[col], pool.coefs[keep])
            self._cap_rows = len(self.active_edges)
            if self.slack_policy == "edge":
                n = len(new_edges)
                self._slack_cols = np.concatenate([self._slack_cols, model.add_cols(
                    np.full(n, self.big_m), np.arange(n + 1),
                    np.arange(first_row, first_row + n), np.full(n, -1.0))])

        if synced < self.pool_size:
            self._col_vars = np.concatenate(
                [self._col_vars, model.add_cols(self._pool.cost[synced:],
                                                *self._column_matrix(synced))])

        if self._costs_changed:
            model.set_costs(self._slack_cols,
                            self.demand_slack_costs if self.slack_policy == "demand"
                            else np.full(self._slack_cols.size, self.big_m))
            self._costs_changed = False

    def _require_solution(self) -> RmpSolution:
        if self.solution is None:
            raise InternalError("restricted master has not been solved yet")
        return self.solution


def _check_rmp_solution(sol: LpSolution) -> None:
    if sol.status != OPTIMAL:
        raise InternalError(f"restricted master solve returned {sol.status}")
    if sol.duality_gap > 1e-7 * (1.0 + abs(sol.objective)):
        raise InternalError(f"duality gap {sol.duality_gap} too large "
                            f"for objective {sol.objective}")


def new_master(instance: Instance, mode: str) -> RestrictedMaster:
    """Create the restricted master of an instance in the given mode."""
    return RestrictedMaster(instance, mode)
