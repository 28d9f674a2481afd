"""Bi-soft spaces: supremum topology, slices, subspaces."""

from itertools import combinations

import pytest

from bisoft import topology
from bisoft.axioms import (
    axiom_report,
    hausdorff_char,
    pairwise_soft_t0,
    pairwise_verdicts,
    point_closure_intersection,
    soft_t0,
    soft_t1,
    soft_t2,
    strong_t0,
    strong_t1,
)
from bisoft.errors import ContextMismatchError, InvalidTopologyError
from bisoft.fixtures import builtin_fixture_names, load_fixture
from bisoft.search import random_space, standard_context
from bisoft.softset import (
    Context,
    ParameterSet,
    SoftSet,
    absolute_soft_set,
    null_soft_set,
    point_soft_set,
)
from bisoft.space import BiSoftSpace, slice_space, subspace, sup_topology
from bisoft.topology import (
    SoftTopology,
    generate_topology,
    parameterize,
    relative_topology,
    soft_closure,
    topology_violations,
    validate_topology,
)

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


def member_sup(s):
    """The supremum generated by both member lists."""
    return generate_topology(s.context, s.t1.members + s.t2.members)


def member_slice(t, parameter):
    """The members' blocks at one parameter, kept as given."""
    ctx = t.context
    shift = ctx.parameter_index(parameter) * ctx.nx
    sub = Context(ctx.universe, ParameterSet((parameter,)))
    blocks = sorted({(m >> shift) & ctx.block_mask for m in t.masks()})
    return SoftTopology(sub, [SoftSet(sub, m) for m in blocks])


def member_trace(t, keep):
    """The members cut to the kept elements and re-homed, member by
    member, to the context of those elements."""
    ctx = t.context
    kept = [i for i, e in enumerate(ctx.universe.elements) if e in keep]
    names = [ctx.universe.elements[i] for i in kept]
    sub = Context.of(names, ctx.parameters.parameters)
    traces = {
        sum(
            1 << (e * sub.nx + j)
            for e in range(ctx.ne)
            for j, i in enumerate(kept)
            if m >> (e * ctx.nx + i) & 1
        )
        for m in t.masks()
    }
    return SoftTopology(sub, [SoftSet(sub, m) for m in traces])


def fixture_spaces():
    for name in builtin_fixture_names():
        doc = load_fixture(name)
        for space_name in doc.space_pairs:
            yield doc.space(space_name)


def from_u(t):
    """The topology kept as its ``U`` alone, with no member list."""
    return SoftTopology._from_neighbourhoods(t.context, t.neighbourhoods())


class TestFromNeighbourhoods:
    """``sup_topology``, ``parameterize`` and ``relative_topology`` read
    ``U``; the member routes they replaced are the reference."""

    CORPUS = list(fixture_spaces()) + [
        random_space(standard_context(nx, ne), seed)
        for nx, ne in ((2, 2), (3, 2), (2, 3), (4, 2), (5, 3))
        for seed in range(12)
    ]

    @pytest.mark.parametrize("k", range(len(CORPUS)))
    def test_match_the_member_routes(self, k):
        s = self.CORPUS[k]
        assert sup_topology(s) == member_sup(s)
        for e in s.context.parameters.parameters:
            for t in (s.t1, s.t2):
                assert parameterize(t, e) == member_slice(t, e)

    @pytest.mark.parametrize("k", range(len(CORPUS)))
    def test_traces_match_the_member_route(self, k):
        s = self.CORPUS[k]
        elems = s.context.universe.elements
        for t in (s.t1, s.t2):
            for r in range(1, len(elems) + 1):
                for keep in combinations(elems, r):
                    got = relative_topology(from_u(t), keep)
                    assert got._masks is None  # read off U, nothing listed
                    expected = member_trace(t, keep)
                    assert got.neighbourhoods() == expected.neighbourhoods()
                    assert got.masks() == expected.masks()

    def test_family_that_is_not_closed(self):
        # no space, slice, supremum or trace is built from a family that is
        # not a topology: it is rejected, with every violation, at once
        ctx = Context.of(["a", "b", "c"], ["p", "q"])
        for masks in ((0b11, 0b110, 0b110000), (0b101000, 0b101)):
            members = [SoftSet(ctx, m) for m in masks]
            violations = topology_violations(members, ctx)
            assert violations
            with pytest.raises(InvalidTopologyError) as err:
                SoftTopology(ctx, members)
            assert err.value.violations == violations
            with pytest.raises(InvalidTopologyError):
                validate_topology(members)

    def test_no_member_list_is_built(self, monkeypatch):
        def read(s):
            params = s.context.parameters.parameters
            slices = [pairwise_verdicts(slice_space(s, e)) for e in params]
            sub = subspace(s, s.context.universe.elements[1:])
            traces = sub.t1.neighbourhoods(), sub.t2.neighbourhoods()
            return slices, sup_topology(s).neighbourhoods(), traces

        def refuse(*args, **kwargs):
            raise AssertionError("built a member list")

        def spaces():  # fresh each time: a topology keeps members once listed
            ctx = standard_context(4, 3)
            return [load_fixture("t2a").space("S"), random_space(ctx, 5)]

        expected = [read(s) for s in spaces()]
        monkeypatch.setattr(topology, "_union_closure", refuse)
        assert [read(s) for s in spaces()] == expected


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

    def test_large_discrete_space_lists_no_member(self):
        # the discrete topology on 17 points has 2^17 members, past the cap
        ctx = standard_context(17, 1)
        t = generate_topology(ctx, [SoftSet(ctx, 1 << p) for p in range(17)])
        s = BiSoftSpace(t, t)
        pair = subspace(s, ["x1", "x17"])
        assert pair.t1.neighbourhoods() == (1, 2)
        assert pair.t1.masks() == (0, 1, 2, 3)
        big = subspace(s, ctx.universe.elements[1:])
        assert big.t1.neighbourhoods() == tuple(1 << p for p in range(16))
        assert pairwise_verdicts(big) == {"t0": True, "t1": True, "t2": True}
        assert len(big.t2) == 1 << 16

    def test_large_discrete_space_answers_every_checker(self, monkeypatch):
        # every verdict is read off U: no member is listed, and the report
        # builds no supremum, slice or (t, t) topology
        ctx = standard_context(17, 1)
        t = generate_topology(ctx, [SoftSet(ctx, 1 << p) for p in range(17)])
        s = BiSoftSpace(t, t)

        def refuse(*args, **kwargs):
            raise AssertionError("built a member list or a topology")

        monkeypatch.setattr(topology, "_union_closure", refuse)
        assert soft_t0(t) and soft_t1(t) and soft_t2(t)
        assert pairwise_verdicts(s) == {"t0": True, "t1": True, "t2": True}
        assert strong_t0(s) and strong_t1(s) and hausdorff_char(s)
        # equality, hashing, membership and closure read U as well
        twin = generate_topology(ctx, [SoftSet(ctx, 1 << p) for p in range(17)][::-1])
        indiscrete = generate_topology(ctx)
        assert t == twin and hash(t) == hash(twin) and t != indiscrete
        a = SoftSet(ctx, 0b101)
        assert a in t and a not in indiscrete
        assert soft_closure(t, a) == a
        assert soft_closure(indiscrete, a) == absolute_soft_set(ctx)
        for x in ("x1", "x17"):
            assert point_closure_intersection(s, x) == (point_soft_set(x, ctx), False)
        monkeypatch.setattr(SoftTopology, "_from_neighbourhoods", refuse)
        rep = axiom_report(s, strict_orientation=True)
        every = {"t0": True, "t1": True, "t2": True}
        assert rep.soft1 == rep.soft2 == rep.sup == rep.pairwise == every
        assert rep.strong == {"t0": True, "t1": True} and rep.hausdorff
        assert rep.slices == {"e1": every} and rep.strict_pairwise_t0
        assert rep.witnesses == {}

    def test_mismatched_contexts_rejected(self, fx):
        with pytest.raises(ContextMismatchError):
            BiSoftSpace(fx("t0a").topology("T1"), fx("t0d").topology("T1"))
