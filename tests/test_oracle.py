"""Every public checker, slice and rough approximation against the
member-quantifying oracle in ``member_oracle``."""

import random

import pytest

import member_oracle as oracle
from labelled_scan import _point_topologies, as_soft_topology
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
from bisoft.rough import lower_approx, upper_approx
from bisoft.search import (
    random_spaces,
    standard_context,
)
from bisoft.softset import SoftSet
from bisoft.space import BiSoftSpace, slice_space, sup_topology

# (|X|, |E|, random sample count); a count of None takes every space
CORPORA = [
    (2, 1, None),
    (1, 2, None),
    (3, 1, None),
    (1, 3, None),
    (4, 2, 200),
    (5, 3, 40),
    (2, 4, 200),
    (3, 3, 200),
]
RANDOM_TARGETS = 4


def _spaces(nx, ne, count):
    ctx = standard_context(nx, ne)
    if count is not None:
        return list(random_spaces(ctx, count, seed=0))
    topos = [as_soft_topology(opens, ctx) for opens in _point_topologies(nx * ne)]
    return [BiSoftSpace(p, q) for p in topos for q in topos]


def _soft(t, checkers):
    return {k: f(t) for k, f in checkers.items()}


def _check_space(s, targets):
    ctx = s.context
    sup = sup_topology(s)
    public = {"t0": soft_t0, "t1": soft_t1, "t2": soft_t2}
    defined = {"t0": oracle.soft_t0, "t1": oracle.soft_t1, "t2": oracle.soft_t2}
    for t in (s.t1, s.t2, sup):
        assert _soft(t, public) == _soft(t, defined)

    failures = oracle.pairwise_failures(s)
    pairwise = {k: pair is None for k, pair in failures.items()}
    assert {
        "t0": pairwise_soft_t0(s),
        "t1": pairwise_soft_t1(s),
        "t2": pairwise_soft_t2(s),
    } == pairwise
    strict = pairwise_soft_t0(s, strict_orientation=True)
    assert strict == oracle.pairwise_soft_t0_strict(s)
    strong = {"t0": strong_t0(s), "t1": strong_t1(s)}
    assert strong == {"t0": oracle.strong_t0(s), "t1": oracle.strong_t1(s)}
    assert hausdorff_char(s) == oracle.hausdorff_char(s)
    for x in ctx.universe.elements:
        pc = point_closure_intersection(s, x)
        assert (pc.value.mask, pc.vacuous) == oracle.point_closure_intersection(s, x)

    slices = {}
    for e, name in enumerate(ctx.parameters.parameters):
        b = slice_space(s, name)
        p, q = oracle.slice_opens(s.t1, e), oracle.slice_opens(s.t2, e)
        assert (b.t1.masks(), b.t2.masks()) == (p, q)
        slices[name] = {
            "t0": oracle.pw_t0(p, q, ctx.nx),
            "t1": oracle.pw_t1(p, q, ctx.nx),
            "t2": oracle.pw_t2(p, q, ctx.nx),
        }
        assert {
            "t0": pairwise_soft_t0(b),
            "t1": pairwise_soft_t1(b),
            "t2": pairwise_soft_t2(b),
        } == slices[name]

    rep = axiom_report(s, strict_orientation=True)
    assert rep.soft1 == _soft(s.t1, defined)
    assert rep.soft2 == _soft(s.t2, defined)
    assert rep.sup == _soft(sup, defined)
    assert rep.pairwise == pairwise
    assert rep.strict_pairwise_t0 == strict
    assert rep.strong == strong
    assert rep.hausdorff == hausdorff_char(s)
    assert rep.slices == slices
    # each witness is the first pair the oracle finds unseparated
    assert rep.witnesses == {
        f"pairwise_{k}": pair for k, pair in failures.items() if pair is not None
    }

    for a in targets:
        target = SoftSet(ctx, a)
        assert lower_approx(s, target).mask == oracle.lower_approx(s, a)
        assert upper_approx(s, target).mask == oracle.upper_approx(s, a)


@pytest.mark.parametrize(
    "nx,ne,count", CORPORA, ids=[f"{nx}x{ne}" for nx, ne, _ in CORPORA]
)
def test_public_checkers_agree_with_member_oracle(nx, ne, count):
    rng = random.Random(nx * 10 + ne)
    full = standard_context(nx, ne).full_mask
    for s in _spaces(nx, ne, count):
        if count is None:
            targets = range(full + 1)
        else:
            targets = [rng.randrange(full + 1) for _ in range(RANDOM_TARGETS)]
        _check_space(s, targets)
