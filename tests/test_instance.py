"""Instance model, parsers, and generator tests."""

import hashlib
import io
import random

import numpy as np
import pytest

from mcflow.errors import GenerationError, InputError, ParseError
from mcflow.graph import Network, dijkstra
from mcflow.instance import (Commodity, Instance, TNTP_COEFFICIENTS,
                             generate_random, group_by_source, parse_native,
                             parse_tntp, write_native)

TRIANGLE_MCF = """\
# tiny triangle
p mcf 3 3 2
a 1 2 1.0 10.0
a 2 3 1.0 10.0
a 1 3 3.0 10.0
d 1 3 2.0
d 1 2 1.0
"""


class TestGroupBySource:
    def test_two_commodities_one_source(self):
        groups = group_by_source([Commodity(0, 2, 2.0), Commodity(0, 1, 1.0)])
        assert len(groups) == 1
        g = groups[0]
        assert g.source == 0
        assert g.sink_demands == {1: 1.0, 2: 2.0}
        assert g.total_demand == 3.0
        assert g.members == (0, 1)

    def test_singleton(self):
        groups = group_by_source([Commodity(0, 2, 2.0)])
        assert len(groups) == 1
        assert groups[0].sink_demands == {2: 2.0}

    def test_duplicate_pair_merged(self):
        groups = group_by_source([Commodity(0, 2, 1.0), Commodity(0, 2, 2.0)])
        assert len(groups) == 1
        assert groups[0].sink_demands == {2: 3.0}

    def test_conservation(self):
        rng = random.Random(0)
        comms = [Commodity(rng.randrange(5), 5 + rng.randrange(5), rng.uniform(1, 4))
                 for _ in range(30)]
        groups = group_by_source(comms)
        assert sum(g.total_demand for g in groups) == pytest.approx(
            sum(c.demand for c in comms))

    def test_groups_partition_commodities(self):
        rng = random.Random(1)
        comms = [Commodity(rng.randrange(4), 4 + rng.randrange(4), 1.0)
                 for _ in range(20)]
        groups = group_by_source(comms)
        seen = sorted(k for g in groups for k in g.members)
        assert seen == list(range(20))


class TestNativeFormat:
    def test_parse_triangle(self):
        inst = parse_native(io.StringIO(TRIANGLE_MCF), name="triangle")
        assert inst.network.node_count == 3
        assert inst.network.edge_count == 3
        assert inst.commodity_count == 2
        assert inst.source_count == 1
        assert inst.commodities[0] == Commodity(0, 2, 2.0)

    def test_empty_commodities_rejected(self):
        text = "p mcf 2 1 0\na 1 2 1.0 1.0\n"
        with pytest.raises(ParseError, match="no commodities"):
            parse_native(io.StringIO(text))

    def test_dangling_node_named(self):
        text = "p mcf 3 1 1\na 1 99 1.0 1.0\nd 1 2 1.0\n"
        with pytest.raises(ParseError, match="99"):
            parse_native(io.StringIO(text))

    def test_error_carries_line_number(self):
        text = "p mcf 2 1 1\na 1 2 -5 1.0\nd 1 2 1.0\n"
        with pytest.raises(ParseError) as err:
            parse_native(io.StringIO(text))
        assert err.value.line == 2

    def test_duplicate_pairs_merged_at_parse(self):
        text = "p mcf 2 1 2\na 1 2 1.0 9.0\nd 1 2 1.0\nd 1 2 2.5\n"
        inst = parse_native(io.StringIO(text))
        assert inst.commodity_count == 1
        assert inst.commodities[0].demand == pytest.approx(3.5)

    def test_round_trip(self):
        inst = generate_random(8, 20, 10, 3, seed=5)
        buf = io.StringIO()
        write_native(inst, buf)
        buf.seek(0)
        again = parse_native(buf, name=inst.name)
        assert again.network.node_count == inst.network.node_count
        assert again.network.edge_count == inst.network.edge_count
        assert list(again.network.tail) == list(inst.network.tail)
        assert list(again.network.head) == list(inst.network.head)
        assert list(again.network.cost) == list(inst.network.cost)
        assert list(again.network.capacity) == list(inst.network.capacity)
        assert again.commodities == inst.commodities


TNTP_NET = """\
<NUMBER OF ZONES> 2
<NUMBER OF NODES> 4
<FIRST THRU NODE> 1
<NUMBER OF LINKS> 5
<END OF METADATA>
~ init term capacity length fftime b power speed toll type ;
1 3 100.0 1.0 2.0 0.15 4 60 0 1 ;
3 2 80.0 1.0 1.5 0.15 4 60 0 1 ;
1 4 50.0 1.0 4.0 0.15 4 60 0 1 ;
4 2 50.0 1.0 1.0 0.15 4 60 0 1 ;
2 1 90.0 1.0 3.0 0.15 4 60 0 1 ;
"""

TNTP_TRIPS = """\
<NUMBER OF ZONES> 2
<TOTAL OD FLOW> 30.0
<END OF METADATA>
Origin 1
    2 : 20.0;
Origin 2
    1 : 10.0;  2 : 0.0;
"""


class TestTntp:
    def test_parse_pair(self):
        inst = parse_tntp(io.StringIO(TNTP_NET), io.StringIO(TNTP_TRIPS), 2.0,
                          name="toy")
        assert inst.network.node_count == 4
        assert inst.network.edge_count == 5
        # Costs are free-flow times, capacities the capacity field.
        assert list(inst.network.cost) == [2.0, 1.5, 4.0, 1.0, 3.0]
        assert list(inst.network.capacity) == [100.0, 80.0, 50.0, 50.0, 90.0]
        assert inst.commodity_count == 2
        assert inst.commodities[0] == Commodity(0, 1, 10.0)
        assert inst.commodities[1] == Commodity(1, 0, 5.0)
        assert inst.meta["dropped_zero_demand"] == 1

    def test_identity_coefficient(self):
        inst = parse_tntp(io.StringIO(TNTP_NET), io.StringIO(TNTP_TRIPS), 1.0)
        assert inst.commodities[0].demand == pytest.approx(20.0)

    def test_demand_scaling_property(self):
        a = parse_tntp(io.StringIO(TNTP_NET), io.StringIO(TNTP_TRIPS), 2.0)
        b = parse_tntp(io.StringIO(TNTP_NET), io.StringIO(TNTP_TRIPS), 5.0)
        for ca, cb in zip(a.commodities, b.commodities):
            assert ca.demand * 2.0 == pytest.approx(cb.demand * 5.0)

    def test_zone_count_mismatch_rejected(self):
        trips = "<NUMBER OF ZONES> 99\nOrigin 1\n 2 : 1.0;\n"
        with pytest.raises(ParseError, match="zones"):
            parse_tntp(io.StringIO(TNTP_NET), io.StringIO(trips), 1.0)

    def test_non_numeric_rejected(self):
        net = TNTP_NET.replace("100.0", "abc")
        with pytest.raises(ParseError, match="non-numeric"):
            parse_tntp(io.StringIO(net), io.StringIO(TNTP_TRIPS), 1.0)

    def test_unreachable_od_dropped_and_counted(self):
        # Remove the return edge 2->1 so origin 2 cannot reach node 1.
        net_text = "\n".join(line for line in TNTP_NET.splitlines()
                             if not line.startswith("2 1")).replace(
            "<NUMBER OF LINKS> 5", "<NUMBER OF LINKS> 4")
        inst = parse_tntp(io.StringIO(net_text), io.StringIO(TNTP_TRIPS), 1.0)
        assert inst.meta["dropped_unreachable"] == 1
        assert inst.commodity_count == 1

    def test_coefficients_table(self):
        assert TNTP_COEFFICIENTS["Winnipeg"] == 2000.0
        assert TNTP_COEFFICIENTS["Barcelona"] == 5050.0
        assert len(TNTP_COEFFICIENTS) == 9


class TestGenerateRandom:
    def test_parameter_echo(self):
        inst = generate_random(10, 30, 20, 3, seed=7)
        assert inst.network.node_count == 10
        assert inst.network.edge_count == 30
        assert inst.commodity_count == 20
        assert inst.source_count == 3

    def test_minimal(self):
        inst = generate_random(2, 1, 1, 1, seed=0)
        assert inst.network.edge_count == 1
        assert inst.commodity_count == 1

    def test_deterministic(self):
        a = generate_random(12, 40, 15, 4, seed=9)
        b = generate_random(12, 40, 15, 4, seed=9)
        assert a.commodities == b.commodities
        assert list(a.network.tail) == list(b.network.tail)
        assert list(a.network.cost) == list(b.network.cost)
        assert list(a.network.capacity) == list(b.network.capacity)

    def test_every_sink_reachable(self):
        for seed in range(8):
            inst = generate_random(15, 25, 12, 4, seed=seed)
            net = inst.network
            for g in inst.groups:
                spt = dijkstra(net, net.cost, g.source)
                for t in g.sink_demands:
                    assert spt.settled[t]

    def test_unsatisfiable_rejected(self):
        with pytest.raises(GenerationError):
            generate_random(3, 2, 10, 1, seed=0)

    def test_sources_cannot_exceed_commodities(self):
        with pytest.raises(GenerationError):
            generate_random(10, 20, 2, 5, seed=0)


def instance_digest(inst) -> str:
    """SHA-256 of an instance's node count, edge arrays (tail, head, cost,
    capacity) and commodity arrays (source, sink, demand), as
    little-endian 64-bit values."""
    net = inst.network
    h = hashlib.sha256(np.int64(net.node_count).tobytes())
    for a in (net.tail, net.head, inst.source, inst.sink):
        h.update(np.asarray(a, dtype="<i8").tobytes())
    for a in (net.cost, net.capacity, inst.demand):
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# generate_random output at the desk benchmark's three sizes
# (perfbench/run.py WORKLOADS), seeds 1-3 and the held-out seed 271828. A
# generator change that alters any digest alters the benchmark's instances.
GENERATOR_DIGESTS = {
    ((250, 1000, 5000, 100), "loose"): {
        1: "a3fffb0dfa1f89ef7502f3c69a32b3aeafcbe13e3ba76f09690afbef9459e86e",
        2: "57525d93d0a63f8f930742f47bab3ada454157711fcb5e4f0b4f64719b44b71b",
        3: "49f76fc9ebb586542ef02ec3ce7b86fde994f5fd70557bd99ed52fd34e85d2fa",
        271828: "2aa7ca890272b18f7837cbc4c9680008719d5e5e95ae7d2944dd25fec65fd918",
    },
    ((20, 100, 80, 5), "tight"): {
        1: "0eaa6fe27f833f3b38f75dca0445f2f6d1739eb72f407abf827f6d54f77e7991",
        2: "d7611f71fdd33d7ea43a2f424b086b954bddcb41e48079207397a7dd4b0b2e70",
        3: "1fe9b52cf614fdacc213d212b65d9ba01d35209ede2f30c6da5b73772077e6cd",
        271828: "3cb21b3c7b3e5db81d67f0b6b18370131ea4e9c5adad118c1853f90a3632ba46",
    },
    ((100, 400, 60, 10), "mixed"): {
        1: "3ec0150a28d6b71bd9bc30c093341fc20dfed6dec1e185840a465a2ec70c2f6d",
        2: "f7fb530ec837c015bf8780732d771d92795bb5ccafdeb9b8be8551d8a5322122",
        3: "ad543bca1bfb33b085fff817b416a0e4b69d03f6562821498fc0e35f2c9fcabd",
        271828: "72bc31ceacc884933a8b2877e7a4a0b3ac58bfd97c852ef5f11c274288ebf39e",
    },
}


@pytest.mark.parametrize("size,tightness", list(GENERATOR_DIGESTS))
def test_generated_instances_match_pinned_digests(size, tightness):
    digests = {seed: instance_digest(generate_random(*size, seed=seed,
                                                     tightness=tightness))
               for seed in GENERATOR_DIGESTS[size, tightness]}
    assert digests == GENERATOR_DIGESTS[size, tightness]


class TestInstanceBuild:
    def test_rejects_zero_demand(self, triangle_net):
        with pytest.raises(InputError):
            Instance.build(triangle_net, [Commodity(0, 1, 0.0)])

    def test_rejects_self_pair(self, triangle_net):
        with pytest.raises(InputError):
            Instance.build(triangle_net, [Commodity(1, 1, 1.0)])

    def test_groups_equal_group_by_source(self):
        # Few nodes and many commodities, so (source, sink) pairs repeat and
        # the summed demands and totals must match bit for bit.
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 8)
            net = Network(n, [(v, (v + 1) % n, 1.0, 1.0) for v in range(n)])
            comms = [Commodity(*rng.sample(range(n), 2), rng.uniform(0.1, 10.0))
                     for _ in range(rng.randint(1, 40))]
            expected = tuple(group_by_source(comms))
            groups = Instance.build(net, comms).groups
            assert groups == expected
            for g, e in zip(groups, expected):
                assert list(g.sink_demands) == list(e.sink_demands)
                assert [type(v) for v in (g.source, *g.members, *g.sink_demands)] \
                    == [int] * (1 + len(g.members) + len(g.sink_demands))
        assert Instance.build(net, []).groups == ()

    @pytest.mark.parametrize("bad,message", [
        (Commodity(0, 3, 1.0), r"node id 3 out of range \[0, 3\)"),
        (Commodity(-1, 2, 1.0), r"node id -1 out of range"),
        (Commodity(0, 2, -1.0), "commodity 1 has nonpositive demand -1.0"),
        (Commodity(2, 2, 1.0), "commodity 1 has identical source and sink 2"),
    ])
    def test_first_bad_commodity_is_named(self, triangle_net, bad, message):
        # Commodity 2 is bad too (an unknown sink and no demand); the error
        # must be commodity 1's, with its first failed check.
        comms = [Commodity(0, 1, 1.0), bad, Commodity(1, 9, 0.0)]
        with pytest.raises(InputError, match=f"^{message}"):
            Instance.build(triangle_net, comms)

    def test_group_arrays_follow_group_by_source(self):
        # Few nodes and many commodities, so (source, sink) pairs repeat;
        # summed demands must equal group_by_source's bit for bit.
        rng = random.Random(4)
        repeated = 0
        for _ in range(40):
            n = rng.randint(2, 8)
            net = Network(n, [(v, (v + 1) % n, 1.0, 1.0) for v in range(n)])
            comms = []
            for _ in range(rng.randint(1, 40)):
                s, t = rng.sample(range(n), 2)
                comms.append(Commodity(s, t, rng.uniform(0.1, 10.0)))
            flat = Instance.build(net, comms).group_arrays
            groups = group_by_source(comms)
            assert flat.source.tolist() == [g.source for g in groups]
            assert flat.member_start.tolist() == \
                np.cumsum([0] + [len(g.members) for g in groups]).tolist()
            assert flat.members.tolist() == [k for g in groups for k in g.members]
            assert flat.load_start.tolist() == \
                np.cumsum([0] + [len(g.sink_demands) for g in groups]).tolist()
            assert flat.sink.tolist() == [t for g in groups for t in g.sink_demands]
            assert flat.demand.tolist() == [d for g in groups for d in g.sink_demands.values()]
            repeated += len(comms) > flat.sink.size
        assert repeated > 0

    def test_group_arrays_of_no_commodities(self, triangle_net):
        flat = Instance.build(triangle_net, []).group_arrays
        assert flat.member_start.tolist() == flat.load_start.tolist() == [0]
        assert flat.source.size == flat.members.size == flat.sink.size == 0
