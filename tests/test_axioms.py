"""Soft and pairwise soft separation axiom checkers."""

import pytest

from bisoft.axioms import (
    axiom_report,
    hausdorff_char,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    point_closure_intersection,
    soft_t0,
    soft_t1,
    soft_t2,
    strong_t0,
    strong_t1,
)
from bisoft.errors import InvalidTopologyError, UnknownElementError
from bisoft.softset import (
    Context,
    SoftSet,
    absolute_soft_set,
    member,
    null_soft_set,
    point_soft_set,
    soft_complement,
)
from bisoft.space import BiSoftSpace, sup_topology
from bisoft.topology import SoftTopology, validate_topology


def discrete(ctx):
    return validate_topology([SoftSet(ctx, m) for m in range(ctx.full_mask + 1)])


def indiscrete(ctx):
    return validate_topology([null_soft_set(ctx), absolute_soft_set(ctx)])


CTX = Context.of(["a", "b"], ["p", "q"])


class TestSingleTopologyAxioms:
    def test_discrete_is_t0(self):
        assert soft_t0(discrete(CTX))

    def test_indiscrete_fails_t0_with_two_points(self):
        assert not soft_t0(indiscrete(CTX))

    def test_both_shipped_topologies_fail_t0(self, fx):
        doc = fx("t0a")
        assert not soft_t0(doc.topology("T1"))
        assert not soft_t0(doc.topology("T2"))

    def test_one_sided_families_are_t1(self, fx):
        doc = fx("t1c")
        assert soft_t1(doc.topology("T1"))
        assert soft_t1(doc.topology("T2"))

    def test_small_families_fail_t1(self, fx):
        doc = fx("t1b")
        assert not soft_t1(doc.topology("T1"))
        assert not soft_t1(doc.topology("T2"))

    def test_indiscrete_fails_t1(self):
        assert not soft_t1(indiscrete(CTX))

    def test_sup_of_disjointness_example_is_t2(self, fx):
        s = fx("t2a").space("S")
        assert soft_t2(sup_topology(s))

    def test_sup_without_disjoint_witnesses_fails_t2(self, fx):
        # checked against a direct scan over the five-member family
        s = fx("t1b").space("S")
        sup = sup_topology(s)
        ctx = s.context
        rows = [(x, ctx.row(x)) for x in ctx.universe.elements]
        masks = sup.masks()

        def scan():
            for x, rx in rows:
                for y, ry in rows:
                    if x == y:
                        continue
                    if not any(
                        f & rx == rx and g & ry == ry and f & g == 0
                        for f in masks
                        for g in masks
                    ):
                        return False
            return True

        assert soft_t2(sup) == scan() == False

    def test_indiscrete_fails_t2(self):
        assert not soft_t2(indiscrete(CTX))


class TestPairwiseAxioms:
    def test_t0_fixture_matrix(self, space_of):
        assert pairwise_soft_t0(space_of("t0a"))
        assert not pairwise_soft_t0(space_of("t0b"))
        assert pairwise_soft_t0(space_of("t0d"))

    def test_indiscrete_with_discrete_is_pairwise_t0(self):
        s = BiSoftSpace(indiscrete(CTX), discrete(CTX))
        assert pairwise_soft_t0(s)

    def test_t1_fixture_matrix(self, space_of):
        assert pairwise_soft_t1(space_of("t1a"))
        assert not pairwise_soft_t1(space_of("t1b"))
        assert not pairwise_soft_t1(space_of("t0d"))

    def test_t2_fixture_matrix(self, space_of):
        assert not pairwise_soft_t2(space_of("t2a"))
        assert not pairwise_soft_t2(space_of("t1a"))

    def test_discrete_pair_is_pairwise_t2(self):
        s = BiSoftSpace(discrete(CTX), discrete(CTX))
        assert pairwise_soft_t2(s)

    def test_strict_orientation_is_stronger(self, fx):
        for name in ("t0a", "t0b", "t0d", "t1a", "t1b", "t1c", "t2a"):
            s = fx(name).space("S")
            if pairwise_soft_t0(s, strict_orientation=True):
                assert pairwise_soft_t0(s)

    def test_strict_orientation_differs_on_asymmetric_space(self, space_of):
        s = space_of("t0a")
        assert pairwise_soft_t0(s)
        assert not pairwise_soft_t0(s, strict_orientation=True)


class TestStrongConditions:
    def test_indiscrete_discrete_pair(self):
        s = BiSoftSpace(indiscrete(CTX), discrete(CTX))
        assert strong_t0(s)

    def test_weakly_separated_space_is_not_strong(self, space_of):
        assert not strong_t0(space_of("t0a"))

    def test_discrete_pair_strong_t1(self):
        s = BiSoftSpace(discrete(CTX), discrete(CTX))
        assert strong_t1(s)

    def test_strong_matrix_from_manifest(self, fx):
        from bisoft.fixtures import load_manifest

        manifest = load_manifest()
        for name, entry in manifest.items():
            for sname, expected in entry.get("spaces", {}).items():
                s = fx(name).space(sname)
                assert strong_t0(s) == expected["strong_t0"], (name, sname)
                assert strong_t1(s) == expected["strong_t1"], (name, sname)


class TestHausdorffCharacterization:
    def test_agrees_with_pairwise_t2_on_fixtures(self, fx):
        for name in ("bisoft1", "t0a", "t0b", "t0d", "t1a", "t1b", "t1c", "t2a", "rough", "param"):
            s = fx(name).space("S")
            assert hausdorff_char(s) == pairwise_soft_t2(s), name

    def test_discrete_pair(self):
        s = BiSoftSpace(discrete(CTX), discrete(CTX))
        assert hausdorff_char(s)

    def test_fails_where_pairwise_t2_fails(self, space_of):
        assert not hausdorff_char(space_of("t2a"))


class TestPointClosureIntersection:
    def test_discrete_pair_recovers_point_soft_sets(self):
        s = BiSoftSpace(discrete(CTX), discrete(CTX))
        for x in CTX.universe.elements:
            got = point_closure_intersection(s, x)
            assert not got.vacuous
            assert got.value == point_soft_set(x, CTX)
            comp = soft_complement(got.value)
            assert comp in s.t1 and comp in s.t2

    def test_direct_evaluation_on_non_hausdorff_space(self, fx):
        # oracle: intersect the closures by hand
        from bisoft.topology import soft_closure

        doc = fx("t2a")
        s = doc.space("S")
        got = point_closure_intersection(s, "h1")
        acc = s.context.full_mask
        for m in s.t1.members:
            if member("h1", m):
                acc &= soft_closure(s.t2, m).mask
        assert not got.vacuous
        assert got.value.mask == acc

    def test_vacuous_flag_on_raw_family(self):
        # a family without the absolute member is not a topology and cannot
        # be built, so the absolute member always contains the point and
        # the empty intersection convention never applies
        ctx = Context.of(["a", "b"], ["p"])
        with pytest.raises(InvalidTopologyError, match="absolute"):
            SoftTopology(ctx, (null_soft_set(ctx),))
        t = SoftTopology(ctx, (null_soft_set(ctx), absolute_soft_set(ctx)))
        got = point_closure_intersection(BiSoftSpace(t, t), "a")
        assert not got.vacuous
        assert got.value == absolute_soft_set(ctx)

    def test_unknown_element_is_named(self):
        s = BiSoftSpace(discrete(CTX), discrete(CTX))
        with pytest.raises(UnknownElementError) as exc:
            point_closure_intersection(s, "zz")
        assert str(exc.value) == "unknown element 'zz'"


class TestAxiomReport:
    def test_report_matches_individual_checkers(self, fx):
        doc = fx("t1a")
        s = doc.space("S")
        rep = axiom_report(s, strict_orientation=True)
        assert rep.soft1 == {"t0": True, "t1": True, "t2": False}
        assert rep.soft2 == {"t0": True, "t1": True, "t2": True}
        assert rep.pairwise == {"t0": True, "t1": True, "t2": False}
        assert rep.strict_pairwise_t0 is True
        assert rep.hausdorff == pairwise_soft_t2(s)
        assert "pairwise_t2" in rep.witnesses

    def test_witnesses_reverify(self, fx):
        s = fx("t2a").space("S")
        rep = axiom_report(s)
        x, y = rep.witnesses["pairwise_t2"]
        rx, ry = s.context.row(x), s.context.row(y)
        assert not any(
            f & rx == rx and g & ry == ry and f & g == 0
            for f in s.t1.masks()
            for g in s.t2.masks()
        )
