"""The batched column validator against a per-column reference checker.

``reference_validate_column`` checks one column at a time with plain
Python walks. It is the reference the batched ``validate_columns`` must
agree with, verdict and message, on valid and mutated columns, and it is
used nowhere else.
"""

import math
import random

import pytest

from mcflow.errors import InputError
from mcflow.graph import Network
from mcflow.instance import Commodity, Instance, generate_random
from mcflow.master import Column, ColumnBatch, new_master, validate_columns
from mcflow.pricing import initial_columns


def reference_validate_column(col, instance):
    """Check the structural invariants of one column; raise on violation."""
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
    if col.kind == "path":
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
    elif col.kind == "tree":
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

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_tree_chunks_of_one_or_two_columns(self, monkeypatch, per_chunk):
        # The tree checks build their (column, node) slot table for a
        # chunk of columns at a time; a budget of one or two columns puts
        # chunk boundaries between every few columns of a batch.
        import mcflow.master
        rng = random.Random(11 + per_chunk)
        messages = []
        for seed in range(4):
            inst = generate_random(14, 44, 24, 4, seed=seed, tightness="mixed")
            net = inst.network
            monkeypatch.setattr(mcflow.master, "SOURCE_BLOCK_ENTRIES",
                                per_chunk * net.node_count)
            valid = initial_columns(inst, "tree")
            for col in valid:
                mutants = mutations(col, inst, rng)
                # A second edge into a node of the tree, not a repeated edge.
                heads = {int(net.head[e]) for e in col.edges}
                into = [e for e in range(net.edge_count)
                        if int(net.head[e]) in heads and e not in col.edges]
                if into:
                    mutants.append(recosted(col, inst, edges=col.edges + (rng.choice(into),),
                                            coefs=col.coefs + (1.0,)))
                batches = [rng.sample(valid, rng.randrange(4)) + [mutant] + [valid[0]]
                           for mutant in mutants]
                batches.append(list(valid) + [m for m in mutants if m.kind == "tree"])
                for batch in batches:
                    expected = reference_verdict(batch, inst)
                    assert verdict(validate_columns, batch, inst) == expected, batch
                    assert verdict(converted, batch, inst) == expected, batch
                    messages.append(expected)
        for part in ("unknown edge", "cyclic", "in-degree", "re-enters the root",
                     "repeats edges"):
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


def tree(owner, edges, coefs=None):
    coefs = coefs or (1.0,) * len(edges)
    return Column(owner=owner, kind="tree", edges=tuple(edges), coefs=tuple(coefs),
                  cost=float(sum(coefs)))


class TestTreeMessages:
    """One case per tree message, each also run through the reference."""

    @pytest.mark.parametrize("col,message", [
        (tree(0, [0, 1, 5]), "re-enters the root"),
        (tree(0, [1, 2]), "disconnected or cyclic at node 2"),
        (tree(0, [0, 6]), "disconnected or cyclic at node 2"),
        (tree(0, [3, 1]), "disconnected or cyclic at node 2"),
        (tree(0, [0, 1], (1.0, 0.0)), "coefficients must be positive"),
        (tree(0, [0, 1], (1.0, -1.0)), "coefficients must be positive"),
        (tree(1, [1]), "owner 1 is not a source"),
        (tree(0, [0, 1, 2]), "in-degree"),
    ])
    def test_message(self, star, col, message):
        with pytest.raises(InputError, match=message):
            validate_columns([tree(0, [0, 1]), col], star)
        assert message in reference_verdict([col], star)

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
        col = Column(owner=0, kind="tree", edges=(0,), coefs=(1.0,), cost=math.nan)
        assert reference_verdict([col], star) is None
        validate_columns([col], star)
