"""Rough approximation: worked example, laws, idempotence failure oracle."""

import random

import pytest

from bisoft.errors import ContextMismatchError
from bisoft.rough import (
    _lower,
    _reach,
    _upper,
    lower_approx,
    rough_regions,
    upper_approx,
)
from bisoft.search import _point_neighbourhoods, random_space, standard_context
from bisoft.softset import (
    SoftSet,
    absolute_soft_set,
    null_soft_set,
    soft_complement,
    soft_intersect,
    soft_subset,
    soft_union,
)
from bisoft.space import BiSoftSpace
from bisoft.topology import validate_topology


class TestWorkedExample:
    def test_lower(self, fx):
        doc = fx("rough")
        got = lower_approx(doc.space("S"), doc.resolve("F"))
        assert got.table() == {
            "Red": ("x2", "x4"),
            "Green": (),
            "Blue": ("x1", "x3"),
        }

    def test_target_from_another_context_raises(self, fx):
        doc = fx("rough")
        other = null_soft_set(standard_context(2, 1))
        with pytest.raises(
            ContextMismatchError, match="^target lives over a different context$"
        ):
            lower_approx(doc.space("S"), other)

    def test_upper(self, fx):
        doc = fx("rough")
        got = upper_approx(doc.space("S"), doc.resolve("F"))
        assert got.table() == {
            "Red": ("x1", "x2", "x3", "x4", "x5"),
            "Green": (),
            "Blue": ("x1", "x3", "x4", "x5"),
        }

    def test_regions(self, fx):
        doc = fx("rough")
        rr = rough_regions(doc.space("S"), doc.resolve("F"))
        assert rr.pos == rr.lower
        assert rr.neg.table() == {
            "Red": (),
            "Green": ("x1", "x2", "x3", "x4", "x5"),
            "Blue": ("x2",),
        }
        assert rr.bnd.table() == {
            "Red": ("x1", "x3", "x5"),
            "Green": (),
            "Blue": ("x4", "x5"),
        }
        assert not rr.definable


class TestFixedPoints:
    def test_null_and_absolute(self, fx):
        s = fx("rough").space("S")
        phi = null_soft_set(s.context)
        top = absolute_soft_set(s.context)
        assert lower_approx(s, phi) == phi
        assert upper_approx(s, phi) == phi
        assert lower_approx(s, top) == top
        assert upper_approx(s, top) == top
        rr = rough_regions(s, top)
        assert rr.definable
        assert rr.bnd == phi


def _interior_by_scan(opens, subset):
    """Definitional interior: union of the opens inside the subset."""
    acc = 0
    for o in opens:
        if o & ~subset == 0:
            acc |= o
    return acc


class TestIdempotenceFailureInstance:
    """Brute-force confirmation of the refuting instance, independent of
    the approximation code: one parameter, three points, slice families
    {0,X,{a,b}} and {0,X,{b}}, target {a,b}."""

    def test_oracle_confirms_strict_drop(self):
        t1_opens = [0b000, 0b111, 0b011]  # {}, X, {a,b}
        t2_opens = [0b000, 0b111, 0b010]  # {}, X, {b}
        target = 0b011
        once = _interior_by_scan(t1_opens, target) & _interior_by_scan(
            t2_opens, target
        )
        assert once == 0b010  # {b}
        twice = _interior_by_scan(t1_opens, once) & _interior_by_scan(
            t2_opens, once
        )
        assert twice == 0  # strictly smaller: idempotence equality fails

    def test_module_reproduces_the_instance(self):
        ctx = standard_context(3, 1)
        t1 = validate_topology(
            [SoftSet(ctx, m) for m in (0b000, 0b111, 0b011)]
        )
        t2 = validate_topology(
            [SoftSet(ctx, m) for m in (0b000, 0b111, 0b010)]
        )
        s = BiSoftSpace(t1, t2)
        a = SoftSet(ctx, 0b011)
        once = lower_approx(s, a)
        assert once.mask == 0b010
        assert lower_approx(s, once).mask == 0


class TestLaws:
    def _cases(self, count=120, seed=5):
        rng = random.Random(seed)
        for k in range(count):
            nx, ne = rng.randint(1, 4), rng.randint(1, 2)
            ctx = standard_context(nx, ne)
            s = random_space(ctx, 1000 * seed + k)
            a = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            b = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            yield s, a, b

    def test_sandwich(self):
        for s, a, _ in self._cases():
            assert soft_subset(lower_approx(s, a), a)
            assert soft_subset(a, upper_approx(s, a))

    def test_meet_law_and_join_law(self):
        for s, a, b in self._cases():
            assert lower_approx(s, soft_intersect(a, b)) == soft_intersect(
                lower_approx(s, a), lower_approx(s, b)
            )
            assert upper_approx(s, soft_union(a, b)) == soft_union(
                upper_approx(s, a), upper_approx(s, b)
            )

    def test_containments(self):
        for s, a, b in self._cases():
            assert soft_subset(
                soft_union(lower_approx(s, a), lower_approx(s, b)),
                lower_approx(s, soft_union(a, b)),
            )
            assert soft_subset(
                upper_approx(s, soft_intersect(a, b)),
                soft_intersect(upper_approx(s, a), upper_approx(s, b)),
            )

    def test_monotone(self):
        for s, a, b in self._cases():
            big = soft_union(a, b)
            assert soft_subset(lower_approx(s, a), lower_approx(s, big))
            assert soft_subset(upper_approx(s, a), upper_approx(s, big))

    def test_duality(self):
        for s, a, _ in self._cases():
            assert upper_approx(s, a) == soft_complement(
                lower_approx(s, soft_complement(a))
            )

    def test_weak_idempotence_only(self):
        for s, a, _ in self._cases():
            lo = lower_approx(s, a)
            up = upper_approx(s, a)
            assert soft_subset(lower_approx(s, lo), lo)
            assert soft_subset(up, upper_approx(s, up))


class TestEveryReachVector:
    """The laws on every reach vector at 4 x 1, each with all 16 targets.
    The approximations read a space only through its reach vector, the
    reach vectors at nx x ne are the ne-tuples of those at nx x 1, and
    each law compares sets inside one block, so these settle the laws for
    every space with |X| <= 4, whatever |E|."""

    @pytest.fixture(scope="class")
    def reaches(self):
        ctx = standard_context(4, 1)
        us = _point_neighbourhoods(4)
        reaches = {_reach(ctx, u1, u2) for u1 in us for u2 in us}
        assert len(reaches) == 3602
        return reaches

    def test_sandwich_and_duality(self, reaches):
        for r in reaches:
            for a in range(16):
                lo, up = _lower(r, a), _upper(r, a)
                assert lo & ~a == 0 and a & ~up == 0, (r, a)
                assert up == 15 & ~_lower(r, 15 & ~a), (r, a)

    def test_idempotence_exactly_when_the_reach_relation_is_transitive(
        self, reaches
    ):
        # p reaches q when q lies in r_p; the relation is reflexive, and
        # L(L(A)) = L(A) for every A exactly when it is also transitive,
        # as is U(U(A)) = U(A) (Yao, Inf. Sci. 1998)
        outcomes = set()
        for r in reaches:
            lower = all(_lower(r, _lower(r, a)) == _lower(r, a) for a in range(16))
            upper = all(_upper(r, _upper(r, a)) == _upper(r, a) for a in range(16))
            transitive = all(
                r[q] | r[p] == r[p] for p in range(4) for q in range(4) if r[p] >> q & 1
            )
            assert lower == upper == transitive, r
            outcomes.add(transitive)
        assert outcomes == {True, False}
