"""Instance representation, source-group aggregation, and file parsers.

Supported inputs are the native line-oriented ``.mcf`` format and the
TNTP transportation-network pair (``_net.tntp`` + ``_trips.tntp``).
TNTP conversion uses free-flow time as the unit edge cost and divides
every origin-destination demand by a feasibility coefficient; the
coefficients used for the published networks ship in
:data:`TNTP_COEFFICIENTS`.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from .errors import GenerationError, InputError, ParseError
from .graph import Network, dijkstra, stable_argsort

log = logging.getLogger(__name__)

# Feasibility coefficients for the published transportation networks
# (demands are divided by these values during conversion).
TNTP_COEFFICIENTS: dict[str, float] = {
    "Austin": 6.0,
    "Barcelona": 5050.0,
    "BerlinCenter": 0.5,
    "Birmingham": 0.9,
    "ChicagoRegional": 4.1,
    "ChicagoSketch": 2.4,
    "Philadelphia": 7.0,
    "Sydney": 1.9,
    "Winnipeg": 2000.0,
}


@dataclass(frozen=True)
class Commodity:
    """One origin-destination demand."""

    source: int
    sink: int
    demand: float


@dataclass(frozen=True)
class SourceGroup:
    """All commodities sharing one source node.

    ``sink_demands`` aggregates duplicate (source, sink) pairs by
    summing their demands; ``members`` keeps the original commodity ids.
    """

    source: int
    members: tuple[int, ...]
    sink_demands: dict[int, float]
    total_demand: float


@dataclass(frozen=True)
class GroupArrays:
    """The source groups of an instance as flat read-only arrays, in
    group order.

    Group i has source ``source[i]``, its members are
    ``members[member_start[i]:member_start[i + 1]]``, and its sinks and
    summed demands (``SourceGroup.sink_demands``) are ``sink`` and
    ``demand`` at ``load_start[i]:load_start[i + 1]``.
    """

    source: np.ndarray
    member_start: np.ndarray
    members: np.ndarray
    load_start: np.ndarray
    sink: np.ndarray
    demand: np.ndarray

    @staticmethod
    def build(source: np.ndarray, sink: np.ndarray, demand: np.ndarray,
              node_count: int) -> "GroupArrays":
        """The groups of the commodities with these fields, as
        :func:`group_by_source` forms them."""
        # Stable sorts keep commodity ids ascending among equal keys, which
        # is group_by_source's member order and the order it sums demands in.
        members = stable_argsort(source)
        member_start = _run_starts(source[members])
        pair = source * node_count + sink
        loads = stable_argsort(pair)
        pair_start = _run_starts(pair[loads])
        first = loads[pair_start[:-1]]
        pair_of = np.repeat(np.arange(first.size), np.diff(pair_start))
        arrays = GroupArrays(source[members[member_start[:-1]]], member_start, members,
                             _run_starts(source[first]), sink[first],
                             np.bincount(pair_of, weights=demand[loads],
                                         minlength=first.size))
        for a in vars(arrays).values():
            a.setflags(write=False)
        return arrays


@dataclass(frozen=True)
class Instance:
    """A full multi-commodity flow instance.

    ``groups`` partitions the commodity list by source node;
    :meth:`build` derives it, with :attr:`group_arrays`, from the
    commodity arrays. ``meta`` carries parser notes (for
    example counts of dropped OD pairs) and does not participate in the
    data model proper. ``source``, ``sink`` and ``demand`` hold the
    commodities' fields as arrays indexed by commodity id, built once.
    """

    network: Network
    commodities: tuple[Commodity, ...]
    groups: tuple[SourceGroup, ...]
    name: str
    meta: dict = field(default_factory=dict, compare=False)
    source: np.ndarray = field(init=False, repr=False, compare=False)
    sink: np.ndarray = field(init=False, repr=False, compare=False)
    demand: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cs = self.commodities
        for name, values in (("source", np.array([c.source for c in cs], dtype=np.int64)),
                             ("sink", np.array([c.sink for c in cs], dtype=np.int64)),
                             ("demand", np.array([c.demand for c in cs], dtype=np.float64))):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @cached_property
    def group_arrays(self) -> GroupArrays:
        """``groups`` as flat arrays. :meth:`build` sets them, as it
        derives ``groups`` from them; an instance constructed directly
        builds them on first use."""
        return GroupArrays.build(self.source, self.sink, self.demand,
                                 self.network.node_count)

    @property
    def source_count(self) -> int:
        return len(self.groups)

    @property
    def commodity_count(self) -> int:
        return len(self.commodities)

    @staticmethod
    def build(network: Network, commodities: Iterable[Commodity], name: str = "",
              meta: dict | None = None) -> "Instance":
        """The instance of these commodities on ``network``, with its
        groups and :attr:`group_arrays` derived from the commodity
        arrays. Raises :class:`InputError` for the first bad commodity."""
        commodities = tuple(commodities)
        # Built with no groups so that its commodity arrays, made once by
        # __post_init__, serve the checks and the grouping.
        inst = Instance(network, commodities, (), name, meta or {})
        source, sink, demand = inst.source, inst.sink, inst.demand
        n = network.node_count
        bad = (np.minimum(source, sink) < 0) | (np.maximum(source, sink) >= n) \
            | (demand <= 0) | (source == sink)
        if np.count_nonzero(bad):
            i = int(np.argmax(bad))
            _check_commodity(network, i, commodities[i])
        flat = GroupArrays.build(source, sink, demand, n)
        object.__setattr__(inst, "groups", _source_groups(flat))
        inst.__dict__["group_arrays"] = flat        # the cached property's slot
        return inst


def _check_commodity(network: Network, i: int, c: Commodity) -> None:
    """Raise :class:`InputError` if commodity ``i`` is invalid."""
    network.check_node(c.source)
    network.check_node(c.sink)
    if c.demand <= 0:
        raise InputError(f"commodity {i} has nonpositive demand {c.demand}")
    if c.source == c.sink:
        raise InputError(f"commodity {i} has identical source and sink {c.source}")


def _source_groups(flat: GroupArrays) -> tuple[SourceGroup, ...]:
    """The groups held by ``flat``, equal to :func:`group_by_source`'s."""
    members, sinks, demands = (a.tolist() for a in (flat.members, flat.sink, flat.demand))
    member_start, load_start = flat.member_start.tolist(), flat.load_start.tolist()
    groups = []
    for i, s in enumerate(flat.source.tolist()):
        lo, hi = load_start[i], load_start[i + 1]
        sink_demands = dict(zip(sinks[lo:hi], demands[lo:hi]))
        groups.append(SourceGroup(s, tuple(members[member_start[i]:member_start[i + 1]]),
                                  sink_demands, sum(sink_demands.values())))
    return tuple(groups)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts, then its
    size."""
    cut = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=cut[1:-1])
    return np.flatnonzero(cut)


def group_by_source(commodities: Iterable[Commodity]) -> list[SourceGroup]:
    """Aggregate commodities by source node.

    Returns one group per distinct source, ordered by source id; sinks
    within a group are ordered by sink id and duplicate (source, sink)
    pairs are merged by summing demand.
    """
    by_source: dict[int, list[int]] = {}
    commodities = list(commodities)
    for k, c in enumerate(commodities):
        by_source.setdefault(c.source, []).append(k)
    groups = []
    for s in sorted(by_source):
        members = tuple(by_source[s])
        sink_demands: dict[int, float] = {}
        for k in members:
            c = commodities[k]
            sink_demands[c.sink] = sink_demands.get(c.sink, 0.0) + c.demand
        sink_demands = {t: sink_demands[t] for t in sorted(sink_demands)}
        groups.append(SourceGroup(
            source=s,
            members=members,
            sink_demands=sink_demands,
            total_demand=sum(sink_demands.values()),
        ))
    return groups


# ---------------------------------------------------------------------------
# Native .mcf format
#
#   # comment
#   p mcf <nodes> <edges> <commodities>
#   a <tail> <head> <cost> <capacity>     (1-based node ids)
#   d <source> <sink> <demand>
# ---------------------------------------------------------------------------

def parse_native(stream: IO[str], name: str = "") -> Instance:
    """Parse the native ``.mcf`` text format.

    Duplicate (source, sink) commodity pairs are merged by summing
    demand. Raises :class:`ParseError` with the offending line on any
    malformed or inconsistent input.
    """
    header = None
    edges: list[tuple[int, int, float, float]] = []
    demands: dict[tuple[int, int], float] = {}
    n_nodes = n_edges = n_comms = 0

    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "mcf":
                raise ParseError(f"malformed header {line!r}, expected "
                                 "'p mcf <nodes> <edges> <commodities>'", lineno)
            n_nodes, n_edges, n_comms = (_parse_int(f, lineno, i + 2)
                                         for i, f in enumerate(fields[2:]))
            if n_nodes < 1:
                raise ParseError(f"node count must be positive, got {n_nodes}", lineno)
            header = (n_nodes, n_edges, n_comms)
        elif tag == "a":
            if header is None:
                raise ParseError("edge line before header", lineno)
            if len(fields) != 5:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            t = _parse_node(fields[1], n_nodes, lineno, 2)
            h = _parse_node(fields[2], n_nodes, lineno, 3)
            cost = _parse_float(fields[3], lineno, 4)
            cap = _parse_float(fields[4], lineno, 5)
            if cost < 0:
                raise ParseError(f"negative cost {cost}", lineno, 4)
            if cap < 0:
                raise ParseError(f"negative capacity {cap}", lineno, 5)
            edges.append((t, h, cost, cap))
        elif tag == "d":
            if header is None:
                raise ParseError("commodity line before header", lineno)
            if len(fields) != 4:
                raise ParseError(f"malformed commodity line {line!r}", lineno)
            s = _parse_node(fields[1], n_nodes, lineno, 2)
            t = _parse_node(fields[2], n_nodes, lineno, 3)
            d = _parse_float(fields[3], lineno, 4)
            if d <= 0:
                raise ParseError(f"demand must be positive, got {d}", lineno, 4)
            if s == t:
                raise ParseError(f"commodity with identical source and sink {s + 1}", lineno)
            demands[(s, t)] = demands.get((s, t), 0.0) + d
        else:
            raise ParseError(f"unknown record tag {tag!r}", lineno, 1)

    if header is None:
        raise ParseError("missing header", 1)
    if len(edges) != n_edges:
        raise ParseError(f"header declares {n_edges} edges, found {len(edges)}")
    if n_comms == 0 or not demands:
        raise ParseError("no commodities")
    # The header counts raw demand lines; merged duplicates may shrink the list.
    network = Network(n_nodes, edges)
    commodities = [Commodity(s, t, d) for (s, t), d in demands.items()]
    log.debug("parsed %s: %d nodes, %d edges, %d commodities (%d declared)",
              name or "<stream>", n_nodes, len(edges), len(commodities), n_comms)
    return Instance.build(network, commodities, name=name)


def write_native(instance: Instance, stream: IO[str]) -> None:
    """Write an instance in the native ``.mcf`` format (1-based ids)."""
    net = instance.network
    stream.write(f"p mcf {net.node_count} {net.edge_count} {len(instance.commodities)}\n")
    for e in range(net.edge_count):
        stream.write(f"a {net.tail[e] + 1} {net.head[e] + 1} "
                     f"{float(net.cost[e])!r} {float(net.capacity[e])!r}\n")
    for c in instance.commodities:
        stream.write(f"d {c.source + 1} {c.sink + 1} {float(c.demand)!r}\n")


def _parse_int(text: str, lineno: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected integer, got {text!r}", lineno, col) from None


def _parse_float(text: str, lineno: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"expected number, got {text!r}", lineno, col) from None


def _parse_node(text: str, n_nodes: int, lineno: int, col: int) -> int:
    v = _parse_int(text, lineno, col)
    if not 1 <= v <= n_nodes:
        raise ParseError(f"node {v} out of range [1, {n_nodes}]", lineno, col)
    return v - 1


# ---------------------------------------------------------------------------
# TNTP transportation networks
# ---------------------------------------------------------------------------

def parse_tntp(net_stream: IO[str], trips_stream: IO[str], coefficient: float,
               name: str = "") -> Instance:
    """Parse a TNTP network/trips pair into an instance.

    Edge cost is the free-flow time field and edge capacity the capacity
    field; all other link attributes are ignored. Each OD pair with
    positive demand becomes one commodity with ``demand / coefficient``;
    zero-demand pairs, self pairs, and OD pairs whose destination is
    unreachable from the origin are dropped (the counts are recorded in
    ``Instance.meta``).
    """
    if coefficient <= 0:
        raise InputError(f"coefficient must be positive, got {coefficient}")
    n_nodes, first_thru, edges = _parse_tntp_net(net_stream)
    od_pairs, n_zones = _parse_tntp_trips(trips_stream, n_nodes)
    network = Network(n_nodes, edges)

    reachable: dict[int, np.ndarray] = {}
    commodities: list[Commodity] = []
    dropped_zero = dropped_self = dropped_unreachable = 0
    merged: dict[tuple[int, int], float] = {}
    for (o, d), demand in od_pairs.items():
        if demand <= 0:
            dropped_zero += 1
            continue
        if o == d:
            dropped_self += 1
            continue
        if o not in reachable:
            reachable[o] = dijkstra(network, network.cost, o).settled
        if not reachable[o][d]:
            dropped_unreachable += 1
            continue
        merged[(o, d)] = merged.get((o, d), 0.0) + demand / coefficient
    for (o, d), dem in merged.items():
        commodities.append(Commodity(o, d, dem))
    if dropped_unreachable:
        log.warning("%s: dropped %d unreachable OD pairs", name or "<tntp>",
                    dropped_unreachable)
    meta = {
        "format": "tntp",
        "coefficient": coefficient,
        "zones": n_zones,
        "first_thru_node": first_thru,
        "dropped_zero_demand": dropped_zero,
        "dropped_self_pairs": dropped_self,
        "dropped_unreachable": dropped_unreachable,
    }
    return Instance.build(network, commodities, name=name, meta=meta)


def _tntp_lines(stream: IO[str]):
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("~", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_tntp_net(stream: IO[str]):
    n_nodes = None
    n_links = None
    first_thru = None
    edges: list[tuple[int, int, float, float]] = []
    in_body = False
    saw_metadata = False
    for lineno, line in _tntp_lines(stream):
        if line.startswith("<"):
            saw_metadata = True
            tag, _, value = line.partition(">")
            tag = tag.strip("< ").upper()
            value = value.strip()
            if tag == "NUMBER OF NODES":
                n_nodes = _parse_int(value, lineno, 2)
            elif tag == "NUMBER OF LINKS":
                n_links = _parse_int(value, lineno, 2)
            elif tag == "FIRST THRU NODE":
                first_thru = _parse_int(value, lineno, 2)
            elif tag == "END OF METADATA":
                in_body = True
            continue
        in_body = True
        fields = line.replace(";", " ").split()
        if not fields:
            continue
        if len(fields) < 5:
            raise ParseError(f"malformed link row {line!r}", lineno)
        try:
            init, term = int(fields[0]), int(fields[1])
            capacity, _length, fftime = (float(fields[2]), float(fields[3]),
                                         float(fields[4]))
        except ValueError:
            raise ParseError(f"non-numeric link field in {line!r}", lineno) from None
        if fftime < 0 or capacity < 0:
            raise ParseError(f"negative cost or capacity in {line!r}", lineno)
        edges.append((init - 1, term - 1, fftime, capacity))
    if not edges:
        raise ParseError("network file contains no links")
    max_node = max(max(t, h) for t, h, _, _ in edges) + 1
    if n_nodes is None:
        n_nodes = max_node
    elif max_node > n_nodes:
        raise ParseError(f"link references node {max_node} but metadata "
                         f"declares {n_nodes} nodes")
    if n_links is not None and n_links != len(edges):
        raise ParseError(f"metadata declares {n_links} links, found {len(edges)}")
    if not saw_metadata:
        log.debug("network file has no metadata tags; node count inferred")
    return n_nodes, first_thru, edges


def _parse_tntp_trips(stream: IO[str], n_nodes: int):
    n_zones = None
    od: dict[tuple[int, int], float] = {}
    origin = None
    for lineno, line in _tntp_lines(stream):
        if line.startswith("<"):
            tag, _, value = line.partition(">")
            tag = tag.strip("< ").upper()
            if tag == "NUMBER OF ZONES":
                n_zones = _parse_int(value.strip(), lineno, 2)
                if n_zones > n_nodes:
                    raise ParseError(f"trips file declares {n_zones} zones but the "
                                     f"network has only {n_nodes} nodes", lineno)
            continue
        if line.lower().startswith("origin"):
            fields = line.split()
            if len(fields) < 2:
                raise ParseError(f"malformed origin line {line!r}", lineno)
            origin = _parse_int(fields[1], lineno, 2)
            if not 1 <= origin <= n_nodes:
                raise ParseError(f"origin {origin} exceeds node count {n_nodes}", lineno)
            continue
        if origin is None:
            raise ParseError("trip entry before any origin line", lineno)
        for entry in line.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            dest_text, sep, amount_text = entry.partition(":")
            if not sep:
                raise ParseError(f"malformed trip entry {entry!r}", lineno)
            dest = _parse_int(dest_text.strip(), lineno, 1)
            if not 1 <= dest <= n_nodes:
                raise ParseError(f"destination {dest} exceeds node count {n_nodes}",
                                 lineno)
            try:
                amount = float(amount_text.strip())
            except ValueError:
                raise ParseError(f"non-numeric trip amount {amount_text!r}",
                                 lineno) from None
            od[(origin - 1, dest - 1)] = od.get((origin - 1, dest - 1), 0.0) + amount
    if not od:
        raise ParseError("trips file contains no OD pairs")
    return od, n_zones


# ---------------------------------------------------------------------------
# Random instances for desk-scale verification
# ---------------------------------------------------------------------------

def generate_random(nodes: int, edges: int, commodities: int, sources: int,
                    seed: int, tightness: str = "mixed",
                    name: str | None = None) -> Instance:
    """Generate a random feasible instance, deterministic per seed.

    A directed backbone cycle (or path when ``edges == nodes - 1``) over
    a random node permutation guarantees that every sink is reachable
    from every source and, with loose backbone capacities, that a
    feasible routing always exists. Remaining edges are random
    shortcuts whose capacities follow ``tightness``:

    * ``"loose"``: all shortcut capacities exceed the total demand;
    * ``"tight"``: shortcut capacities are comparable to single demands
      so several capacity constraints bind at optimality;
    * ``"mixed"``: a per-edge coin flip between the two.

    Exactly ``sources`` distinct source nodes are used and duplicate
    (source, sink) pairs are avoided.
    """
    if nodes < 2:
        raise GenerationError(f"need at least 2 nodes, got {nodes}")
    if sources > commodities:
        raise GenerationError(f"sources ({sources}) cannot exceed commodities "
                              f"({commodities})")
    if edges < nodes - 1:
        raise GenerationError(f"need at least nodes-1={nodes - 1} edges, got {edges}")
    if sources < 1 or commodities < 1:
        raise GenerationError("need at least one source and one commodity")
    if commodities > sources * (nodes - 1):
        raise GenerationError(f"cannot place {commodities} distinct (source, sink) "
                              f"pairs with {sources} sources on {nodes} nodes")
    if tightness not in ("loose", "tight", "mixed"):
        raise GenerationError(f"unknown tightness {tightness!r}")

    rng = random.Random(seed)
    perm = list(range(nodes))
    rng.shuffle(perm)
    cycle = edges >= nodes

    edge_list: list[tuple[int, int, float, float]] = []
    backbone_count = nodes if cycle else nodes - 1
    for i in range(backbone_count):
        t = perm[i]
        h = perm[(i + 1) % nodes]
        edge_list.append((t, h, rng.uniform(1.0, 10.0), 0.0))  # capacity set below
    for _ in range(edges - backbone_count):
        t = rng.randrange(nodes)
        h = rng.randrange(nodes)
        while h == t:
            h = rng.randrange(nodes)
        edge_list.append((t, h, rng.uniform(1.0, 10.0), 0.0))

    pos = {v: i for i, v in enumerate(perm)}
    if cycle:
        source_pool = list(range(nodes))
    else:
        # On a path backbone only downstream nodes are guaranteed reachable.
        source_pool = [v for v in perm[:-1]]
    rng.shuffle(source_pool)
    if sources > len(source_pool):
        raise GenerationError("not enough eligible source nodes")
    chosen_sources = sorted(source_pool[:sources])

    avail: dict[int, list[int]] = {}
    for s in chosen_sources:
        sinks = [t for t in range(nodes)
                 if t != s and (cycle or pos[t] > pos[s])]
        rng.shuffle(sinks)
        avail[s] = sinks
    if sum(len(v) for v in avail.values()) < commodities or \
            any(not v for v in avail.values()):
        raise GenerationError("not enough reachable (source, sink) pairs for the "
                              "requested commodity count")
    comm_list: list[Commodity] = []
    # Sources with a sink left, in source order; a source leaves when its
    # last sink is drawn.
    eligible = list(chosen_sources)
    for k in range(commodities):
        if k < sources:
            s = chosen_sources[k]
        else:
            s = eligible[rng.randrange(len(eligible))]
        t = avail[s].pop()
        if not avail[s]:
            eligible.remove(s)
        comm_list.append(Commodity(s, t, rng.uniform(1.0, 10.0)))

    total_demand = sum(c.demand for c in comm_list)
    mean_demand = total_demand / len(comm_list)
    final_edges = []
    for i, (t, h, cost, _) in enumerate(edge_list):
        if i < backbone_count:
            cap = total_demand * rng.uniform(1.5, 3.0)
        else:
            tight = tightness == "tight" or (tightness == "mixed" and rng.random() < 0.5)
            if tight:
                cap = mean_demand * rng.uniform(0.3, 2.0)
            else:
                cap = total_demand * rng.uniform(1.5, 4.0)
        final_edges.append((t, h, cost, cap))

    network = Network(nodes, final_edges)
    label = name if name is not None else f"random-n{nodes}-m{edges}-k{commodities}-s{sources}-seed{seed}"
    return Instance.build(network, comm_list, name=label,
                          meta={"seed": seed, "tightness": tightness})
