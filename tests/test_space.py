"""Bi-soft spaces: supremum topology, slices, subspaces."""

import pytest

from bisoft.axioms import pairwise_soft_t0
from bisoft.errors import ContextMismatchError
from bisoft.softset import Context, SoftSet, absolute_soft_set, null_soft_set
from bisoft.space import BiSoftSpace, slice_space, subspace, sup_topology
from bisoft.topology import topology_violations, validate_topology

from conftest import make_soft


class TestSupTopology:
    def test_nine_member_worked_example(self, fx):
        doc = fx("bisoft1")
        s = doc.space("S")
        sup = sup_topology(s)
        ctx = doc.context
        h1 = make_soft(ctx, e1="h1 h2", e2="h1 h2")
        expected = {
            0,
            ctx.full_mask,
            doc.resolve("F1").mask,
            doc.resolve("F2").mask,
            doc.resolve("G1").mask,
            doc.resolve("G2").mask,
            doc.resolve("G3").mask,
            doc.resolve("G4").mask,
            h1.mask,
        }
        assert set(sup.masks()) == expected
        assert len(sup) == 9

    def test_twelve_member_worked_example(self, fx):
        doc = fx("t2a")
        sup = sup_topology(doc.space("S"))
        ctx = doc.context
        new_members = {
            make_soft(ctx, e1="h1 h3", e2="h1 h3").mask,
            make_soft(ctx, e1="h2 h3", e2="h1 h2 h3").mask,
            make_soft(ctx, e1="h3", e2="h1 h3").mask,
        }
        declared = {doc.resolve(n).mask for n in doc.soft_sets}
        assert len(sup) == 12
        assert set(sup.masks()) == declared | new_members | {0, ctx.full_mask}

    def test_sup_of_identical_topologies_is_itself(self, fx):
        t = fx("basic").topology("T")
        assert sup_topology(BiSoftSpace(t, t)) == t

    def test_contains_both_and_is_minimal(self, fx):
        doc = fx("t0b")
        s = doc.space("S")
        sup = sup_topology(s)
        assert set(s.t1.masks()) <= set(sup.masks())
        assert set(s.t2.masks()) <= set(sup.masks())
        # no proper sub-collection containing both families is closed
        both = set(s.t1.masks()) | set(s.t2.masks())
        for drop in set(sup.masks()) - both:
            remaining = set(sup.masks()) - {drop}
            assert any(
                (a | b not in remaining) or (a & b not in remaining)
                for a in remaining
                for b in remaining
            )


class TestSliceSpace:
    def test_second_parameter_worked_example(self, fx):
        doc = fx("param")
        b = slice_space(doc.space("S"), "e2")
        assert {m.table()["e2"] for m in b.t1.members} == {
            (),
            ("h1", "h2", "h3"),
            ("h1",),
            ("h1", "h3"),
            ("h1", "h2"),
        }
        assert {m.table()["e2"] for m in b.t2.members} == {
            (),
            ("h1", "h2", "h3"),
            ("h2",),
        }

    def test_blue_slice_worked_example(self, fx):
        doc = fx("rough")
        b = slice_space(doc.space("S"), "Blue")
        assert {m.table()["Blue"] for m in b.t1.members} == {
            (),
            ("x1", "x2", "x3", "x4", "x5"),
            ("x1",),
            ("x2",),
            ("x1", "x3"),
            ("x1", "x2"),
            ("x1", "x2", "x3"),
        }
        assert {m.table()["Blue"] for m in b.t2.members} == {
            (),
            ("x1", "x2", "x3", "x4", "x5"),
            ("x2",),
            ("x1", "x3"),
            ("x1", "x2", "x3"),
        }

    def test_indiscrete_pair(self):
        ctx = Context.of(["a", "b"], ["p", "q"])
        t = validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])
        b = slice_space(BiSoftSpace(t, t), "p")
        assert set(b.t1.masks()) == {0, 3}
        assert set(b.t2.masks()) == {0, 3}


class TestSubspace:
    def test_whole_universe_is_identity(self, fx):
        s = fx("t0a").space("S")
        sub = subspace(s, s.context.universe.elements)
        assert sub.t1 == s.t1
        assert sub.t2 == s.t2

    def test_discrete_pair_stays_discrete(self):
        ctx = Context.of(["a", "b"], ["p"])
        discrete = validate_topology(
            [SoftSet(ctx, m) for m in range(ctx.full_mask + 1)]
        )
        sub = subspace(BiSoftSpace(discrete, discrete), ["b"])
        assert len(sub.t1) == 2 and len(sub.t2) == 2

    def test_subspace_valid_and_separation_preserved(self, fx):
        s = fx("t0a").space("S")
        sub = subspace(s, ["h1", "h2"])
        assert not topology_violations(list(sub.t1.members))
        assert not topology_violations(list(sub.t2.members))
        assert pairwise_soft_t0(s)
        assert pairwise_soft_t0(sub)

    def test_mismatched_contexts_rejected(self, fx):
        with pytest.raises(ContextMismatchError):
            BiSoftSpace(fx("t0a").topology("T1"), fx("t0d").topology("T1"))
