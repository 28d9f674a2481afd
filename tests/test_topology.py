"""Soft topology validation, generation, closure, slices and subspaces."""

import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from bisoft.axioms import hausdorff_char, pairwise_soft_t2
from bisoft.errors import (
    ContextMismatchError,
    InvalidTopologyError,
    TooManyMembersError,
)
from bisoft.rough import lower_approx, upper_approx
from bisoft.search import (
    enumerate_topologies,
    random_soft_topology,
    standard_context,
)
from bisoft.softset import (
    Context,
    SoftSet,
    absolute_soft_set,
    constant_soft_set,
    null_soft_set,
    soft_complement,
    soft_subset,
)
from bisoft.space import BiSoftSpace
from bisoft.topology import (
    MEMBER_CAP,
    SoftTopology,
    closed_sets,
    generate_topology,
    parameterize,
    relative_topology,
    soft_closure,
    topology_violations,
    validate_topology,
)

from conftest import make_soft
from labelled_scan import _point_topologies
import member_oracle as oracle


def masks_of(t):
    return set(t.masks())


def worklist_topology(ctx, submasks):
    """Definitional oracle: close under pairwise union and intersection.

    Seeded with the null and absolute soft sets and iterated until a
    round adds nothing; the finite lattice of soft sets bounds it.
    """
    masks = {0, ctx.full_mask} | set(submasks)
    work = sorted(masks)
    while True:
        added = []
        for i, a in enumerate(work):
            for b in work[i + 1 :]:
                for c in (a | b, a & b):
                    if c not in masks:
                        masks.add(c)
                        added.append(c)
        if not added:
            break
        work = sorted(masks)
    return tuple(sorted(masks))


GENERATION_CONTEXTS = [
    standard_context(nx, ne) for nx in (1, 2, 3) for ne in (1, 2, 3)
] + [standard_context(5, 2)]


@st.composite
def subbases(draw):
    """A context and 0-6 subbasis masks, duplicates, null and absolute allowed."""
    ctx = draw(st.sampled_from(GENERATION_CONTEXTS))
    mask = st.one_of(
        st.just(0),
        st.just(ctx.full_mask),
        st.integers(min_value=0, max_value=ctx.full_mask),
    )
    return ctx, draw(st.lists(mask, max_size=6))


def raw_families(rng, ctx, count):
    """Random mask sets that are usually not topologies."""
    for _ in range(count):
        yield {rng.randrange(ctx.full_mask + 1) for _ in range(rng.randint(0, 6))}


def generated_topologies(rng, ctx, count):
    """The topologies random mask sets generate."""
    for masks in raw_families(rng, ctx, count):
        yield generate_topology(ctx, [SoftSet(ctx, m) for m in masks])


class TestValidate:
    def test_shipped_topology_family(self, fx):
        doc = fx("basic")
        t = doc.topology("T")
        assert len(t) == 7

    def test_empty_family_has_no_context(self):
        with pytest.raises(
            ValueError, match="^cannot infer context from an empty family$"
        ):
            validate_topology([])

    def test_indiscrete_is_valid(self):
        ctx = Context.of(["a", "b"], ["p"])
        t = validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])
        assert len(t) == 2

    def test_missing_null_reported(self):
        ctx = Context.of(["a"], ["p"])
        with pytest.raises(InvalidTopologyError) as err:
            validate_topology([absolute_soft_set(ctx)])
        assert any(v.kind == "missing-null" for v in err.value.violations)

    def test_union_escape_reported_with_witnesses(self, fx):
        doc = fx("bisoft1")
        members = [doc.resolve(n) for n in ("Phi", "X", "G1", "G3", "G4")]
        violations = topology_violations(members)
        union_escapes = [v for v in violations if v.kind == "union"]
        assert union_escapes
        escaped = union_escapes[0]
        assert escaped.missing.mask == (
            escaped.witnesses[0].mask | escaped.witnesses[1].mask
        )
        assert escaped.missing == doc.resolve("G2")

    def test_construction_raises_iff_the_family_has_violations(self):
        # raw mask sets, topologies, and topologies with one mask added or
        # removed; the closure test at construction against the pairwise
        # definitional check
        rng = random.Random(37)
        closed = 0
        for nx, ne in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (4, 1)]:
            ctx = standard_context(nx, ne)
            families = list(raw_families(rng, ctx, 40))
            for seed in range(40):
                masks = set(random_soft_topology(ctx, seed).masks())
                families += [masks, masks ^ {rng.randrange(ctx.full_mask + 1)}]
            for masks in families:
                members = [SoftSet(ctx, m) for m in sorted(masks)]
                violations = topology_violations(members, ctx)
                if violations:
                    with pytest.raises(InvalidTopologyError) as err:
                        SoftTopology(ctx, members)
                    assert err.value.violations == violations
                else:
                    closed += 1
                    assert SoftTopology(ctx, members).masks() == tuple(sorted(masks))
        assert closed > 240

    def test_member_order_and_repeats_do_not_matter(self):
        ctx = standard_context(2, 1)
        a, b, c = (SoftSet(ctx, m) for m in (0, 1, 3))
        t = SoftTopology(ctx, [a, b, c])
        for members in ([c, b, a], [a, b, b, c], [c, a, c, b, a, a]):
            other = SoftTopology(ctx, members)
            assert other == t and hash(other) == hash(t)
            assert len(other) == 3 and other.members == (a, b, c)
            assert repr(other) == repr(t)
        assert t == generate_topology(ctx, [b]) != generate_topology(ctx)

    def test_members_must_share_the_context(self):
        ctx = standard_context(2, 1)
        other = Context.of(["a", "b"], ["e1"])
        with pytest.raises(ContextMismatchError):
            SoftTopology(ctx, [SoftSet(ctx, 0), SoftSet(other, 3)])

    def test_closure_can_survive_removing_a_non_generator(self, fx):
        # dropping G3 leaves a family that is still closed, dropping G2
        # does not; checked against a direct pairwise closure scan
        doc = fx("bisoft1")

        def brute_closed(names):
            ms = {doc.resolve(n).mask for n in names}
            return all(a | b in ms and a & b in ms for a in ms for b in ms)

        with_g3_removed = ("Phi", "X", "G1", "G2", "G4")
        with_g2_removed = ("Phi", "X", "G1", "G3", "G4")
        assert brute_closed(with_g3_removed)
        assert not brute_closed(with_g2_removed)
        assert not topology_violations([doc.resolve(n) for n in with_g3_removed])
        assert topology_violations([doc.resolve(n) for n in with_g2_removed])


class TestGenerate:
    def test_reproduces_shipped_generated_family(self, fx):
        doc = fx("rough")
        ctx = doc.context
        got = generate_topology(
            ctx, [doc.resolve("F1"), doc.resolve("F2"), doc.resolve("F3")]
        )
        assert got == doc.topology("T1")
        assert len(got) == 10
        got2 = generate_topology(
            ctx, [doc.resolve("G1"), doc.resolve("G2"), doc.resolve("G3")]
        )
        assert got2 == doc.topology("T2")

    def test_empty_subbasis_gives_indiscrete(self):
        ctx = Context.of(["a", "b", "c"], ["p"])
        assert masks_of(generate_topology(ctx)) == {0, ctx.full_mask}

    def test_all_soft_sets_give_discrete(self):
        ctx = Context.of(["a", "b"], ["p"])
        everything = [SoftSet(ctx, m) for m in range(ctx.full_mask + 1)]
        assert len(generate_topology(ctx, everything)) == 4

    def test_minimality_against_enumeration(self):
        # the generated topology must equal the intersection of every
        # enumerated topology containing the subbasis
        rng = random.Random(7)
        for nx, ne in [(2, 1), (1, 3), (2, 2), (4, 1)]:
            ctx = standard_context(nx, ne)
            n = nx * ne
            topos = _point_topologies(n)
            for _ in range(5):
                sub = [
                    SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
                    for _ in range(rng.randint(0, 3))
                ]
                submasks = {s.mask for s in sub}
                containing = [
                    set(op) for op in topos if submasks <= set(op)
                ]
                expected = set.intersection(*containing)
                got = generate_topology(ctx, sub)
                assert masks_of(got) == expected
                assert not topology_violations(list(got.members))
                assert submasks <= masks_of(got)

    @given(subbases())
    def test_matches_worklist_oracle(self, case):
        ctx, submasks = case
        got = generate_topology(ctx, [SoftSet(ctx, m) for m in submasks])
        assert got.masks() == worklist_topology(ctx, submasks)


class TestClosedSets:
    def test_indiscrete(self):
        ctx = Context.of(["a"], ["p"])
        t = validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])
        assert {c.mask for c in closed_sets(t)} == {0, ctx.full_mask}

    def test_worked_family(self, fx):
        doc = fx("t2a")
        got = {c.mask for c in closed_sets(doc.topology("T2"))}
        ctx = doc.context
        expected = {
            0,
            ctx.full_mask,
            make_soft(ctx, e1="h1 h2", e2="h1 h2").mask,
            make_soft(ctx, e1="h1 h3", e2="h1 h3").mask,
            make_soft(ctx, e1="h1", e2="h1").mask,
        }
        assert got == expected

    def test_complement_is_a_bijection(self, fx):
        for name in ("basic", "t1a", "rough"):
            doc = fx(name)
            for tname in doc.topology_members:
                t = doc.topology(tname)
                assert len(closed_sets(t)) == len(t)


class TestSoftClosure:
    def test_absolute_is_closed(self, fx):
        t = fx("bisoft1").topology("T1")
        top = absolute_soft_set(t.context)
        assert soft_closure(t, top) == top

    def test_set_from_another_context_raises(self, fx):
        t = fx("bisoft1").topology("T1")
        other = null_soft_set(Context.of(["a"], ["e"]))
        with pytest.raises(
            ContextMismatchError, match="^soft set and topology contexts differ$"
        ):
            soft_closure(t, other)

    def test_already_closed_set_is_its_own_closure(self, fx):
        doc = fx("t2a")
        t2 = doc.topology("T2")
        f1 = doc.resolve("F1")
        assert soft_closure(t2, f1) == f1

    def test_indiscrete_closure_is_absolute(self):
        ctx = Context.of(["a", "b"], ["p", "q"])
        t = validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])
        for m in range(1, ctx.full_mask + 1):
            assert soft_closure(t, SoftSet(ctx, m)) == absolute_soft_set(ctx)

    def test_closure_laws_over_random_inputs(self, fx):
        rng = random.Random(3)
        doc = fx("t1a")
        t = doc.topology("T1")
        ctx = doc.context
        for _ in range(50):
            a = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            b = SoftSet(ctx, a.mask | rng.randrange(ctx.full_mask + 1))
            ca, cb = soft_closure(t, a), soft_closure(t, b)
            assert soft_subset(a, ca)
            assert soft_closure(t, ca) == ca
            assert soft_subset(ca, cb)
            # the closure really is closed: its complement is a member
            assert ctx.full_mask & ~ca.mask in masks_of(t)

    def test_matches_closed_superset_intersection_on_raw_families(self):
        # oracle: intersect the closed supersets listed by closed_sets, over
        # the topologies raw families generate
        rng = random.Random(29)
        for nx, ne in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            ctx = standard_context(nx, ne)
            for t in generated_topologies(rng, ctx, 20):
                closed = closed_sets(t)
                for m in range(ctx.full_mask + 1):
                    acc = ctx.full_mask
                    for c in closed:
                        if m & ~c.mask == 0:
                            acc &= c.mask
                    assert soft_closure(t, SoftSet(ctx, m)).mask == acc

    def test_hausdorff_char_reads_raw_families_as_generated(self):
        # a family that is not closed cannot be built; on the topologies
        # such families generate, the closure characterization agrees with
        # pairwise soft T2 and with the member oracle (Theorem 1)
        rng = random.Random(31)
        for nx, ne in [(2, 2), (3, 2), (2, 3)]:
            ctx = standard_context(nx, ne)
            families = []
            for masks in raw_families(rng, ctx, 30):
                members = [SoftSet(ctx, m) for m in masks]
                if topology_violations(members, ctx):
                    with pytest.raises(InvalidTopologyError):
                        SoftTopology(ctx, members)
                families.append(generate_topology(ctx, members))
            for t1, t2 in product(families, repeat=2):
                s = BiSoftSpace(t1, t2)
                assert hausdorff_char(s) == pairwise_soft_t2(s)
                assert hausdorff_char(s) == oracle.hausdorff_char(s)
        ctx = standard_context(2, 2)
        for masks in ((5, 6, 8, 10, 11, 13, 14), (0, 1, 3, 6, 7, 8, 9, 12)):
            with pytest.raises(InvalidTopologyError, match="absolute"):
                SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in masks))


class TestRelativeTopology:
    def test_whole_universe_is_identity(self, fx):
        t = fx("bisoft1").topology("T2")
        assert relative_topology(t, t.context.universe.elements) == t

    def test_discrete_restricts_to_discrete(self):
        ctx = Context.of(["a", "b"], ["p"])
        discrete = validate_topology(
            [SoftSet(ctx, m) for m in range(ctx.full_mask + 1)]
        )
        sub = relative_topology(discrete, ["a"])
        assert len(sub) == 2  # one point, one parameter
        assert sub.context.universe.elements == ("a",)

    def test_worked_example(self, fx):
        doc = fx("t0a")
        sub = relative_topology(doc.topology("T2"), ["h1", "h2"])
        ctx = sub.context
        assert ctx.universe.elements == ("h1", "h2")
        expected = {
            0,
            ctx.full_mask,
            make_soft(ctx, e1="h1", e2="").mask,
            make_soft(ctx, e1="h2", e2="h2").mask,
            make_soft(ctx, e1="h1 h2", e2="h2").mask,
        }
        assert masks_of(sub) == expected

    def test_restriction_matches_per_member_oracle(self, fx):
        def check(t, keep):
            sub = relative_topology(t, keep)
            oracle = set()
            for m in t.members:
                table = {
                    p: [x for x in v if x in keep] for p, v in m.table().items()
                }
                oracle.add(
                    make_soft(
                        sub.context, **{p: " ".join(v) for p, v in table.items()}
                    ).mask
                )
            assert masks_of(sub) == oracle
            return len(sub) < len(t)

        doc = fx("t0a")
        check(doc.topology("T2"), ["h1", "h2"])
        # the topologies raw families generate, over every nonempty keep
        # subset, including ones where distinct members collide after
        # restriction
        rng = random.Random(23)
        collisions = 0
        for nx, ne in [(2, 2), (3, 2), (2, 3), (4, 1)]:
            ctx = standard_context(nx, ne)
            elems = ctx.universe.elements
            for t in generated_topologies(rng, ctx, 15):
                for r in range(1, nx + 1):
                    for keep in combinations(elems, r):
                        collisions += check(t, list(keep))
        assert collisions > 0

    def test_hereditary_validity(self):
        ctx = standard_context(3, 2)
        for seed in range(20):
            t = random_soft_topology(ctx, seed)
            elems = ctx.universe.elements
            for r in range(1, len(elems) + 1):
                for keep in combinations(elems, r):
                    sub = relative_topology(t, keep)
                    assert not topology_violations(list(sub.members))

    def test_empty_keep_rejected(self, fx):
        with pytest.raises(ValueError):
            relative_topology(fx("bisoft1").topology("T1"), [])


def slice_names(t):
    """The members of a one-parameter topology as element-name tuples."""
    (e,) = t.context.parameters.parameters
    return {m.table()[e] for m in t.members}


class TestParameterize:
    def test_first_parameter_slices(self, fx):
        doc = fx("param")
        p = parameterize(doc.topology("T1"), "e1")
        names = slice_names(p)
        assert names == {
            (),
            ("h1", "h2", "h3"),
            ("h2",),
            ("h1", "h2"),
            ("h2", "h3"),
        }
        q = parameterize(doc.topology("T2"), "e2")
        assert slice_names(q) == {
            (),
            ("h1", "h2", "h3"),
            ("h2",),
        }

    def test_color_slices(self, fx):
        doc = fx("rough")
        t1red = parameterize(doc.topology("T1"), "Red")
        assert slice_names(t1red) == {
            (),
            ("x1", "x2", "x3", "x4", "x5"),
            ("x2",),
            ("x2", "x4"),
            ("x1", "x2", "x4"),
        }

    def test_indiscrete_slices_to_indiscrete(self):
        ctx = Context.of(["a", "b"], ["p", "q"])
        t = validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])
        p = parameterize(t, "q")
        assert set(p.masks()) == {0, p.context.full_mask}

    def test_slices_are_topologies(self, fx):
        # per-parameter slices always satisfy the classical axioms
        for name in ("basic", "param", "t1a", "rough"):
            doc = fx(name)
            for tname in doc.topology_members:
                t = doc.topology(tname)
                for e in doc.context.parameters.parameters:
                    p = parameterize(t, e)
                    opens = set(p.masks())
                    assert 0 in opens and p.context.full_mask in opens
                    for a in opens:
                        for b in opens:
                            assert a | b in opens and a & b in opens


def interior(t, a):
    """Interior in a one-parameter topology: the lower approximation of
    the space whose two topologies are both ``t``."""
    return lower_approx(BiSoftSpace(t, t), a)


class TestPointOperators:
    def test_interior_of_full_set(self):
        ctx = Context.of(["a", "b"], ["e"])
        p = validate_topology([SoftSet(ctx, m) for m in (0, 1, 3)])
        assert interior(p, SoftSet(ctx, 3)).mask == 3

    def test_interior_worked_example(self, fx):
        doc = fx("rough")
        t1red = parameterize(doc.topology("T1"), "Red")
        subset = constant_soft_set(["x2", "x4", "x5"], t1red.context)
        assert interior(t1red, subset).table()["Red"] == ("x2", "x4")

    def test_closure_worked_example(self, fx):
        doc = fx("rough")
        t2red = parameterize(doc.topology("T2"), "Red")
        subset = constant_soft_set(["x2", "x4", "x5"], t2red.context)
        assert soft_closure(t2red, subset).table()["Red"] == (
            "x2",
            "x3",
            "x4",
            "x5",
        )

    def test_closure_matches_closed_superset_scan(self, fx):
        # oracle: intersect every closed superset directly; the closure is
        # also the upper approximation of the space (p, p)
        doc = fx("rough")
        for tname in ("T1", "T2"):
            for e in doc.context.parameters.parameters:
                p = parameterize(doc.topology(tname), e)
                full = p.context.full_mask
                closed = [full & ~o for o in p.masks()]
                for subset in range(full + 1):
                    acc = full
                    for c in closed:
                        if subset & ~c == 0:
                            acc &= c
                    a = SoftSet(p.context, subset)
                    assert soft_closure(p, a).mask == acc
                    assert upper_approx(BiSoftSpace(p, p), a).mask == acc

    def test_duality(self):
        for p in enumerate_topologies(3):
            for subset in range(8):
                a = SoftSet(p.context, subset)
                assert soft_closure(p, a) == soft_complement(
                    interior(p, soft_complement(a))
                )


class TestMemberCap:
    @staticmethod
    def discrete(n_points):
        ctx = standard_context(n_points, 1)
        return generate_topology(ctx, [SoftSet(ctx, 1 << p) for p in range(n_points)])

    def test_sixteen_points_are_listed(self):
        assert len(self.discrete(16)) == MEMBER_CAP == 1 << 16

    def test_discrete_topology_on_24_points_fails_fast(self):
        t = self.discrete(24)
        start = time.perf_counter()
        with pytest.raises(TooManyMembersError, match="more than 65536 members"):
            len(t)
        # the closure stops at the cap: 2^17 masks, not 2^24
        assert time.perf_counter() - start < 5.0
        assert t.neighbourhoods() == tuple(1 << p for p in range(24))