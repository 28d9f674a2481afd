"""Soft topology validation, generation, closure, slices and subspaces."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bisoft.errors import InvalidTopologyError
from bisoft.search import _point_topologies, standard_context
from bisoft.softset import (
    Context,
    SoftSet,
    absolute_soft_set,
    null_soft_set,
    soft_subset,
)
from bisoft.topology import (
    SoftTopology,
    closed_sets,
    generate_topology,
    parameterize,
    point_topology,
    pt_closure,
    pt_interior,
    relative_topology,
    soft_closure,
    topology_violations,
    validate_topology,
)

from conftest import make_soft


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
    """Random member families that are usually not topologies."""
    for _ in range(count):
        masks = sorted(
            {rng.randrange(ctx.full_mask + 1) for _ in range(rng.randint(0, 6))}
        )
        yield SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in masks))


class TestValidate:
    def test_shipped_topology_family(self, fx):
        doc = fx("basic")
        t = doc.topology("T")
        assert len(t) == 7

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
        # oracle: intersect the closed supersets listed by closed_sets;
        # raw families need not be topologies, so nothing may rely on it
        rng = random.Random(29)
        for nx, ne in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            ctx = standard_context(nx, ne)
            for t in raw_families(rng, ctx, 20):
                closed = closed_sets(t)
                for m in range(ctx.full_mask + 1):
                    acc = ctx.full_mask
                    for c in closed:
                        if m & ~c.mask == 0:
                            acc &= c.mask
                    assert soft_closure(t, SoftSet(ctx, m)).mask == acc


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
        # raw families over every nonempty keep subset, including ones
        # where distinct members collide after restriction
        rng = random.Random(23)
        collisions = 0
        for nx, ne in [(2, 2), (3, 2), (2, 3), (4, 1)]:
            ctx = standard_context(nx, ne)
            elems = ctx.universe.elements
            for t in raw_families(rng, ctx, 15):
                for r in range(1, nx + 1):
                    for keep in combinations(elems, r):
                        collisions += check(t, list(keep))
        assert collisions > 0

    def test_hereditary_validity(self):
        ctx = standard_context(3, 2)
        from bisoft.search import random_soft_topology

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


class TestParameterize:
    def test_first_parameter_slices(self, fx):
        doc = fx("param")
        p = parameterize(doc.topology("T1"), "e1")
        names = {p.subset_names(o) for o in p.opens}
        assert names == {
            (),
            ("h1", "h2", "h3"),
            ("h2",),
            ("h1", "h2"),
            ("h2", "h3"),
        }
        q = parameterize(doc.topology("T2"), "e2")
        assert {q.subset_names(o) for o in q.opens} == {
            (),
            ("h1", "h2", "h3"),
            ("h2",),
        }

    def test_color_slices(self, fx):
        doc = fx("rough")
        t1red = parameterize(doc.topology("T1"), "Red")
        assert {t1red.subset_names(o) for o in t1red.opens} == {
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
        assert set(p.opens) == {0, p.full}

    def test_slices_are_topologies(self, fx):
        # per-parameter slices always satisfy the classical axioms
        for name in ("basic", "param", "t1a", "rough"):
            doc = fx(name)
            for tname in doc.topology_members:
                t = doc.topology(tname)
                for e in doc.context.parameters.parameters:
                    p = parameterize(t, e)
                    opens = set(p.opens)
                    assert 0 in opens and p.full in opens
                    for a in opens:
                        for b in opens:
                            assert a | b in opens and a & b in opens


class TestPointOperators:
    def test_interior_of_full_set(self):
        p = point_topology(["a", "b"], [0, 1, 3])
        assert pt_interior(p, 3) == 3

    def test_interior_worked_example(self, fx):
        doc = fx("rough")
        t1red = parameterize(doc.topology("T1"), "Red")
        subset = t1red.subset_mask(["x2", "x4", "x5"])
        assert t1red.subset_names(pt_interior(t1red, subset)) == ("x2", "x4")

    def test_closure_worked_example(self, fx):
        doc = fx("rough")
        t2red = parameterize(doc.topology("T2"), "Red")
        subset = t2red.subset_mask(["x2", "x4", "x5"])
        assert t2red.subset_names(pt_closure(t2red, subset)) == (
            "x2",
            "x3",
            "x4",
            "x5",
        )

    def test_closure_matches_closed_superset_scan(self, fx):
        # oracle: intersect every closed superset directly
        doc = fx("rough")
        for tname in ("T1", "T2"):
            for e in doc.context.parameters.parameters:
                p = parameterize(doc.topology(tname), e)
                closed = [p.full & ~o for o in p.opens]
                for subset in range(p.full + 1):
                    acc = p.full
                    for c in closed:
                        if subset & ~c == 0:
                            acc &= c
                    assert pt_closure(p, subset) == acc

    def test_duality(self):
        for opens in _point_topologies(3):
            p = point_topology(["a", "b", "c"], opens)
            for subset in range(8):
                assert pt_closure(p, subset) == p.full & ~pt_interior(
                    p, p.full & ~subset
                )
