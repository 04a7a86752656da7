"""The batched column validator against a per-column reference checker.

``reference_validate_column`` checks one column at a time with plain
Python walks. It is the reference the batched ``validate_columns`` must
agree with, verdict and message, on valid and mutated columns, and it is
used nowhere else.
"""

import math
import random

import pytest

from mcflow.engine import ColGenSolver, SolverConfig
from mcflow.errors import InputError
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.master import Column, ColumnBatch, new_master, validate_columns
from mcflow.pricing import initial_columns


def reference_owner(col, instance):
    """The root and the ``{node: load}`` of a column's owner, or None if
    it owns no demand row of the column's kind."""
    if col.kind == "path" and 0 <= col.owner < len(instance.commodities):
        com = instance.commodities[col.owner]
        return com.source, {com.sink: 1.0}
    for g in instance.groups if col.kind == "tree" else ():
        if g.source == col.owner:
            return g.source, dict(g.sink_demands)
    return None


def reference_validate_column(col, instance):
    """Check the structural invariants of one column; raise on violation."""
    net = instance.network
    if col.kind not in ("path", "tree"):
        raise InputError(f"unknown column kind {col.kind!r}")
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
    owner = reference_owner(col, instance)
    if owner is None:
        raise InputError(f"{col.kind} column owner {col.owner} owns no demand row")
    root, loads = owner
    if any(not c > 0 for c in col.coefs):
        raise InputError("column coefficients must be positive")
    heads = [int(net.head[e]) for e in col.edges]
    if len(set(heads)) != len(heads):
        raise InputError("column support has a node with in-degree > 1")
    if root in heads:
        raise InputError("column support re-enters the root")
    parent = {int(net.head[e]): int(net.tail[e]) for e in col.edges}
    for v in heads:
        chain = set()
        u = v
        while u != root:
            if u in chain or u not in parent:
                raise InputError(f"column support is disconnected or cyclic at node {v}")
            chain.add(u)
            u = parent[u]
    outflow = {}
    for e, c in zip(col.edges, col.coefs):
        outflow[int(net.tail[e])] = outflow.get(int(net.tail[e]), 0.0) + c
    for v, c in zip(heads, col.coefs):
        if not abs(c - outflow.get(v, 0.0) - loads.get(v, 0.0)) <= 1e-9 * (1.0 + c):
            raise InputError(f"column does not conserve flow at node {v}")
    for t in sorted(loads):
        if t not in parent:
            raise InputError(f"column does not reach load node {t}")


def verdict(check, cols, instance):
    try:
        check(cols, instance)
    except InputError as exc:
        return str(exc)
    return None


def converted(cols, instance):
    """``validate_columns`` of the batch converted from ``cols``."""
    validate_columns(ColumnBatch.from_columns(cols), instance)


def reference_verdict(cols, instance):
    """The first bad column's message, checking one column at a time."""
    for col in cols:
        message = verdict(reference_validate_column, col, instance)
        if message is not None:
            return message
    return None


def recosted(col, instance, **changes):
    """``col`` with ``changes`` applied and its cost recomputed."""
    fields = dict(owner=col.owner, kind=col.kind, edges=col.edges,
                  coefs=col.coefs, cost=col.cost)
    fields.update(changes)
    net = instance.network
    if all(0 <= e < net.edge_count for e in fields["edges"]):
        fields["cost"] = float(sum(c * net.cost[e]
                                   for e, c in zip(fields["edges"], fields["coefs"])))
    return Column(**fields)


def mutations(col, instance, rng):
    """Mutated copies of a valid column, most with a consistent cost."""
    net = instance.network
    edges, coefs = list(col.edges), list(col.coefs)
    i = rng.randrange(len(edges))
    out = []
    if len(edges) > 1:
        out.append(recosted(col, instance, edges=tuple(edges[:i] + edges[i + 1:]),
                            coefs=tuple(coefs[:i] + coefs[i + 1:])))
    out.append(recosted(col, instance, edges=tuple(edges + [edges[i]]),
                        coefs=tuple(coefs + [coefs[i]])))
    for e in (rng.randrange(net.edge_count), net.edge_count, -1):
        out.append(recosted(col, instance, edges=tuple(edges[:i] + [e] + edges[i + 1:])))
    # Unknown ids far outside the edge range, distinct or repeated.
    for extra in ([-2**62], [2**62, -2**62], [-7, -7], [2**62, 5, 2**62]):
        out.append(recosted(col, instance, edges=tuple(edges + extra),
                            coefs=tuple(coefs + [1.0] * len(extra))))
    out.append(recosted(col, instance, edges=tuple(edges[::-1]), coefs=tuple(coefs[::-1])))
    for owner in (rng.randrange(net.node_count), len(instance.commodities), -1,
                  rng.randrange(len(instance.commodities))):
        out.append(recosted(col, instance, owner=owner))
    for bad in (0.0, -1.0, 2.0):
        out.append(recosted(col, instance, coefs=tuple(coefs[:i] + [bad] + coefs[i + 1:])))
    out.append(Column(col.owner, col.kind, col.edges, col.coefs, col.cost + 1.0))
    out.append(Column(col.owner, "bogus", col.edges, col.coefs, col.cost))
    for scale in (0.5, 2.0):
        out.append(recosted(col, instance, coefs=tuple(x * scale for x in coefs)))
    # Drop a leaf edge, which enters a sink: once with the coefficients
    # left as they are, and once with its flow taken off every edge above
    # it, which conserves flow but misses that sink (or leaves a zero
    # coefficient on a path).
    tails = {int(net.tail[e]) for e in edges}
    leaf = rng.choice([j for j, e in enumerate(edges) if int(net.head[e]) not in tails])
    above = {int(net.head[e]): j for j, e in enumerate(edges)}
    pruned = list(coefs)
    u = int(net.tail[edges[leaf]])
    while u in above:
        pruned[above[u]] -= coefs[leaf]
        u = int(net.tail[edges[above[u]]])
    for kept in (coefs, pruned):
        out.append(recosted(col, instance, edges=tuple(edges[:leaf] + edges[leaf + 1:]),
                            coefs=tuple(kept[:leaf] + kept[leaf + 1:])))
    if col.kind == "path":
        # Step on from the sink back onto the path: contiguous, but a revisit.
        on_path = {int(net.tail[e]) for e in edges}
        back = [e for e in range(net.edge_count)
                if net.tail[e] == net.head[edges[-1]] and int(net.head[e]) in on_path]
        if back:
            out.append(recosted(col, instance, edges=tuple(edges + [rng.choice(back)]),
                                coefs=tuple(coefs + [1.0])))
    if col.kind == "tree":
        heads = {int(net.head[e]) for e in edges}
        into_root = [e for e in range(net.edge_count) if net.head[e] == col.owner]
        if into_root:
            out.append(recosted(col, instance, edges=tuple(edges + [rng.choice(into_root)]),
                                coefs=tuple(coefs + [1.0])))
        # Reroute node v through an edge from a node of the tree: a cycle
        # when that node hangs below v, a new branch otherwise.
        v_at = rng.randrange(len(edges))
        v = int(net.head[edges[v_at]])
        swaps = [e for e in range(net.edge_count)
                 if net.head[e] == v and int(net.tail[e]) in heads and e != edges[v_at]]
        if swaps:
            rerouted = edges[:v_at] + [rng.choice(swaps)] + edges[v_at + 1:]
            out.append(recosted(col, instance, edges=tuple(rerouted)))
    return out


class TestBatchedValidatorAgreesWithReference:
    @pytest.mark.parametrize("mode", ["tree", "path"])
    def test_mutated_column_after_valid_ones(self, mode):
        rng = random.Random(7 if mode == "tree" else 8)
        checked = bad = 0
        for seed in range(6):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            valid = initial_columns(inst, mode)
            for col in valid:
                for mutant in mutations(col, inst, rng):
                    # The mutant is put after valid columns, and a valid one
                    # follows it, as a pricing round would hand them over.
                    batch = rng.sample(valid, 3) + [mutant] + [valid[0]]
                    expected = reference_verdict(batch, inst)
                    assert verdict(validate_columns, batch, inst) == expected, mutant
                    assert verdict(converted, batch, inst) == expected, mutant
                    checked += 1
                    bad += expected is not None
        assert checked >= 150
        assert bad >= 0.75 * checked

    @pytest.mark.parametrize("mode", ["tree", "path"])
    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_chunks_of_one_or_two_columns(self, monkeypatch, mode, per_chunk):
        # The checks build their (column, node) slot table for a chunk of
        # columns at a time; a table of one or two columns puts chunk
        # boundaries between every few columns of a batch.
        import mcflow.master
        rng = random.Random(11 + per_chunk)
        messages = []
        for seed in range(4):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            net = inst.network
            monkeypatch.setattr(mcflow.master, "SLOT_TABLE_SIZE",
                                per_chunk * net.node_count)
            valid = initial_columns(inst, mode)
            for col in valid:
                mutants = mutations(col, inst, rng)
                # A second edge into a node of the column, not a repeated edge.
                heads = {int(net.head[e]) for e in col.edges}
                into = [e for e in range(net.edge_count)
                        if int(net.head[e]) in heads and e not in col.edges]
                if into:
                    mutants.append(recosted(col, inst, edges=col.edges + (rng.choice(into),),
                                            coefs=col.coefs + (1.0,)))
                batches = [rng.sample(valid, rng.randrange(4)) + [mutant] + [valid[0]]
                           for mutant in mutants]
                batches.append(list(valid) + [m for m in mutants if m.kind == mode])
                for batch in batches:
                    expected = reference_verdict(batch, inst)
                    assert verdict(validate_columns, batch, inst) == expected, batch
                    assert verdict(converted, batch, inst) == expected, batch
                    messages.append(expected)
        parts = ["unknown edge", "cyclic", "in-degree", "re-enters the root",
                 "repeats edges", "positive", "does not conserve flow"]
        # A path that conserves flow ends at its sink.
        parts += ["does not reach load node"] if mode == "tree" else []
        for part in parts:
            assert any(part in (m or "") for m in messages), part
        assert None in messages

    def test_valid_batches_pass(self):
        for seed in range(4):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            for mode in ("tree", "path"):
                batch = initial_columns(inst, mode)
                cols = list(batch)
                validate_columns(batch, inst)
                validate_columns(cols, inst)
                assert ColumnBatch.from_columns(cols) == batch
                assert batch.lengths.tolist() == [len(c.edges) for c in cols]
                assert batch.edges.tolist() == [e for c in cols for e in c.edges]
                assert batch.coefs.tolist() == [x for c in cols for x in c.coefs]

    def test_coefficient_count_must_match_edges(self, triangle):
        col = Column(owner=0, kind="path", edges=(0, 1), coefs=(1.0,), cost=1.0)
        with pytest.raises(InputError, match="2 edges but 1 coefficients"):
            validate_columns([col], triangle)


@pytest.fixture
def star():
    """Root 0 with edges 0->1, 1->2, 2->1, 0->3, 3->0, 1->0, 2->2 (unit
    costs); one group at node 0 and one at node 3."""
    net = Network(4, [(0, 1, 1.0, 9.0), (1, 2, 1.0, 9.0), (2, 1, 1.0, 9.0),
                      (0, 3, 1.0, 9.0), (3, 0, 1.0, 9.0), (1, 0, 1.0, 9.0),
                      (2, 2, 1.0, 9.0)])
    return Instance.build(net, [Commodity(0, 2, 1.0), Commodity(3, 1, 1.0)])


def tree(owner, edges, coefs=None, kind="tree"):
    coefs = coefs or (1.0,) * len(edges)
    return Column(owner=owner, kind=kind, edges=tuple(edges), coefs=tuple(coefs),
                  cost=float(sum(coefs)))


def path(owner, edges, coefs=None):
    return tree(owner, edges, coefs, kind="path")


class TestTreeMessages:
    """One case per tree message, each also run through the reference."""

    @pytest.mark.parametrize("col,message", [
        (tree(0, [0, 1, 5]), "re-enters the root"),
        (tree(0, [1, 2]), "disconnected or cyclic at node 2"),
        (tree(0, [0, 6]), "disconnected or cyclic at node 2"),
        (tree(0, [3, 1]), "disconnected or cyclic at node 2"),
        (tree(0, [0, 1], (1.0, 0.0)), "coefficients must be positive"),
        (tree(0, [0, 1], (1.0, -1.0)), "coefficients must be positive"),
        (tree(1, [1]), "owner 1 owns no demand row"),
        (tree(0, [0, 1, 2]), "in-degree"),
        (tree(0, [0, 1], (2.0, 1.0)), "does not conserve flow at node 1"),
        (tree(0, [0], (1.0,)), "does not conserve flow at node 1"),
    ])
    def test_message(self, star, col, message):
        with pytest.raises(InputError, match=message):
            validate_columns([tree(0, [0, 1]), col], star)
        assert message in reference_verdict([col], star)

    def test_missing_sink(self, triangle):
        # a->c carries c's demand of 2 and conserves flow, but b's demand
        # of 1 is not delivered.
        col = recosted(tree(0, [2], (2.0,)), triangle)
        with pytest.raises(InputError, match="does not reach load node 1"):
            validate_columns([col], triangle)
        assert "does not reach load node 1" in reference_verdict([col], triangle)

    def test_cycle_below_a_valid_branch(self, star):
        # 0->3 is fine; 1->2 and 2->1 form a cycle that never meets the root.
        with pytest.raises(InputError, match="cyclic at node 2"):
            validate_columns([tree(0, [3, 1, 2])], star)

    def test_master_rejects_a_bad_batch_whole(self, star):
        m = new_master(star, "tree")
        good = tree(0, [0, 1])
        with pytest.raises(InputError, match="re-enters the root"):
            m.add_column([good, tree(3, [4, 3])])
        assert m.pool_size == 0
        assert m.add_column([good, tree(3, [4, 0]), good]) == [0, 1, 0]
        assert m.add_column(good) == 0

    def test_nan_cost_passes_as_before(self, star):
        col = Column(owner=0, kind="tree", edges=(0, 1), coefs=(1.0, 1.0), cost=math.nan)
        assert reference_verdict([col], star) is None
        validate_columns([col], star)


class TestPathMessages:
    """One case per path message, each also run through the reference.
    In ``star`` commodity 0 goes 0 -> 2 and commodity 1 goes 3 -> 1."""

    @pytest.mark.parametrize("col,message", [
        (path(0, [0, 1, 5]), "re-enters the root"),
        (path(0, [1]), "disconnected or cyclic at node 2"),
        (path(0, [0, 1], (1.0, math.nan)), "coefficients must be positive"),
        (path(2, [0, 1]), "path column owner 2 owns no demand row"),
        (path(0, [0, 1, 2]), "in-degree"),
        (path(0, [0, 1], (2.0, 2.0)), "does not conserve flow at node 2"),
        (path(0, [0]), "does not conserve flow at node 1"),
        (path(1, [4, 0], (1.0, 1.0 + 1e-6)), "does not conserve flow at node 0"),
    ])
    def test_message(self, star, col, message):
        with pytest.raises(InputError, match=message):
            validate_columns([path(0, [0, 1]), col], star)
        assert message in reference_verdict([col], star)

    def test_edge_order_is_free(self, star):
        # A path is a set of edges: the same column in any order.
        for edges in ([0, 1], [1, 0]):
            validate_columns([path(0, edges)], star)
            assert reference_verdict([path(0, edges)], star) is None
        validate_columns([path(1, [0, 4]), path(1, [4, 0], (1.0, 1.0 + 1e-12))], star)


class TestConservation:
    def test_sink_skipping_tree_is_refused(self):
        # A seed tree without its leaf edges, whose coefficients and cost
        # are those of the full tree's remaining edges. Pooled, it let the
        # master report 930.9 on an instance whose optimum is 1045.5.
        inst = generate_random(12, 40, 20, 4, seed=0, tightness="loose")
        seed = initial_columns(inst, "tree")[0]
        kept = [j for j, e in enumerate(seed.edges) if e in (2, 16, 23, 26)]
        assert len(kept) == 4 < len(seed.edges)
        bad = recosted(seed, inst, edges=tuple(seed.edges[j] for j in kept),
                       coefs=tuple(seed.coefs[j] for j in kept))
        m = new_master(inst, "tree")
        m.add_column(initial_columns(inst, "tree"))
        pool = m.columns
        with pytest.raises(InputError, match="does not conserve flow"):
            m.add_column(bad)
        assert m.columns is pool and m.pool_size == len(inst.groups)
        assert "does not conserve flow" in reference_verdict([bad], inst)

    def test_structure_with_other_demands_is_refused(self, triangle):
        # a->b->c is the right arborescence for source a (b needs 1, c
        # needs 2), but these coefficients deliver 2 to b and 1 to c.
        col = recosted(tree(0, [0, 1], (3.0, 1.0)), triangle)
        with pytest.raises(InputError, match="does not conserve flow at node 1"):
            validate_columns([col], triangle)
        assert "does not conserve flow at node 1" in reference_verdict([col], triangle)
        validate_columns([recosted(tree(0, [0, 1], (3.0, 2.0)), triangle)], triangle)


# Each benchmark workload's shape, tightness and relative tolerance.
BENCHMARK_SHAPES = {
    "bulk-loose": ((250, 1000, 5000, 100), "loose", 1e-4),
    "tight-master": ((20, 100, 80, 5), "tight", 1e-6),
    "few-commodities": ((100, 400, 60, 10), "mixed", 1e-4),
}


class TestPools:
    @pytest.mark.parametrize("workload", sorted(BENCHMARK_SHAPES))
    def test_every_pooled_column_passes(self, workload):
        # A pool holds every column pricing made, rerouted trees among
        # them, whose coefficients are float sums of their sinks' demands.
        shape, tightness, rel_tol = BENCHMARK_SHAPES[workload]
        inst = generate_random(*shape, seed=271828, tightness=tightness)
        for formulation, kernel in (("tree", "full"), ("path", "full"),
                                    ("path", "bounded"), ("path", "astar")):
            solver = ColGenSolver(inst, SolverConfig(
                formulation=formulation, pricing_strategy=kernel, rel_tol=rel_tol))
            assert solver.run().status == "optimal"
            pool = solver.master.columns
            validate_columns(pool, inst)
            assert reference_verdict(pool, inst) is None
