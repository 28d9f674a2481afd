"""Decision procedures for soft and pairwise soft separation axioms.

Membership throughout is the strong soft membership: a point belongs to a
soft set only when it lies in the subset at every parameter, and fails to
belong as soon as one parameter leaves it out.  That asymmetry is exactly
why pairwise soft T0 need not survive parameterization, so these checkers
never fall back to pointwise reasoning.

Every checker reads minimal open neighbourhoods: every member around x
contains ``N(x)``, the smallest one (see ``topology``).  So some member
around x does not strongly contain y iff ``N(x) ⊉ row y``, one misses y's
row iff ``N(x)`` does, disjoint members around x and y exist iff
``N1(x) ∩ N2(y) = ∅``, and, closure being monotone, ``cl2(N1(x))`` is the
best witness for the closure characterization.  A topology's soft axioms
are its pairwise axioms with itself.  Each pairwise checker finds the
first failing pair, which ``axiom_report`` keeps as a witness.

Quantification conventions: soft/pairwise T0 ranges over unordered pairs
and accepts a separating member from either topology in either direction
(a strict fixed-orientation variant is available for comparison); T1 and
T2 range over ordered pairs.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, NamedTuple, Optional

from .errors import UnknownElementError
from .softset import SoftSet, _Value
from .space import BiSoftSpace, slice_space, sup_topology
from .topology import SoftTopology, _strongly_apart, _weakly_apart, soft_closure

_Pair = Optional[tuple[str, str]]  # the first failing pair, or None


def _neighbourhoods(s: BiSoftSpace):
    """``N1`` and ``N2`` per element, and the elements' rows."""
    return s.t1.element_neighbourhoods(), s.t2.element_neighbourhoods(), s.context.rows


def _first_failure(s: BiSoftSpace, pairs, separated: Callable) -> _Pair:
    """First pair of elements, in ``pairs`` order, that ``separated``
    rejects; ``separated`` takes element indices."""
    names = s.context.universe.elements
    for x, y in pairs(range(len(names)), 2):
        if not separated(x, y):
            return names[x], names[y]
    return None


def _t0_failure(s: BiSoftSpace, apart, strict_orientation: bool = False) -> _Pair:
    n1, n2, r = _neighbourhoods(s)
    if strict_orientation:
        return _first_failure(
            s, permutations, lambda x, y: apart(n1[x], r[y]) or apart(n2[y], r[x])
        )
    return _first_failure(
        s,
        combinations,
        lambda x, y: apart(n1[x], r[y])
        or apart(n1[y], r[x])
        or apart(n2[x], r[y])
        or apart(n2[y], r[x]),
    )


def _t1_failure(s: BiSoftSpace, apart) -> _Pair:
    n1, n2, r = _neighbourhoods(s)
    return _first_failure(
        s, permutations, lambda x, y: apart(n1[x], r[y]) and apart(n2[y], r[x])
    )


def _t2_failure(s: BiSoftSpace) -> _Pair:
    n1, n2, _ = _neighbourhoods(s)
    return _first_failure(s, permutations, lambda x, y: not n1[x] & n2[y])


def soft_t0(t: SoftTopology) -> bool:
    return pairwise_soft_t0(BiSoftSpace(t, t))


def soft_t1(t: SoftTopology) -> bool:
    return pairwise_soft_t1(BiSoftSpace(t, t))


def soft_t2(t: SoftTopology) -> bool:
    return pairwise_soft_t2(BiSoftSpace(t, t))


def pairwise_soft_t0(s: BiSoftSpace, strict_orientation: bool = False) -> bool:
    """Every distinct pair is separated by a member of either topology.

    The default symmetric reading lets either topology separate in either
    direction.  The strict variant fixes the roles: for each ordered pair
    (x, y), either a first-topology member around x avoiding y, or a
    second-topology member around y avoiding x.
    """
    return _t0_failure(s, _weakly_apart, strict_orientation) is None


def pairwise_soft_t1(s: BiSoftSpace) -> bool:
    return _t1_failure(s, _weakly_apart) is None


def pairwise_soft_t2(s: BiSoftSpace) -> bool:
    return _t2_failure(s) is None


def strong_t0(s: BiSoftSpace) -> bool:
    """Pairwise T0 with non-membership strengthened to complement membership."""
    return _t0_failure(s, _strongly_apart) is None


def strong_t1(s: BiSoftSpace) -> bool:
    return _t1_failure(s, _strongly_apart) is None


def hausdorff_char(s: BiSoftSpace) -> bool:
    """Closure characterization of the pairwise Hausdorff property.

    For each ordered pair (x, y): some first-topology member contains x
    while y strongly avoids its closure taken in the second topology.
    """
    n1, _, r = _neighbourhoods(s)
    closures = [soft_closure(s.t2, SoftSet(s.context, n)).mask for n in n1]
    return _first_failure(s, permutations, lambda x, y: not closures[x] & r[y]) is None


class PointClosure(NamedTuple):
    """Result of the point closure intersection; ``vacuous`` flags an
    empty member family, in which case the value is the absolute set."""

    value: SoftSet
    vacuous: bool


def point_closure_intersection(s: BiSoftSpace, element: str) -> PointClosure:
    """Intersect second-topology closures of first-topology members around x.

    On a topology that is the closure of ``N1(x)``.  The empty intersection
    convention returns the absolute soft set with a diagnostic flag; with
    a well-formed first topology the absolute member always contains x,
    so the flag only fires on raw families.  It is the one test here that
    reads members: ``U`` cannot tell "no member contains x" from "only the
    absolute set does".
    """
    ctx = s.context
    if element not in ctx.universe.elements:
        raise UnknownElementError(element)
    rx = ctx.row(element)
    if not any(m & rx == rx for m in s.t1.masks()):
        return PointClosure(SoftSet(ctx, ctx.full_mask), True)
    n1 = s.t1.element_neighbourhoods()[ctx.element_index(element)]
    return PointClosure(soft_closure(s.t2, SoftSet(ctx, n1)), False)


class AxiomReport(_Value):
    """All axiom verdicts for one bi-soft space.

    Witnesses map each false pairwise axiom (``pairwise_t0``,
    ``pairwise_t1``, ``pairwise_t2``) to the first pair of points its
    checker found unseparated; re-running the matching checker on that
    pair reproduces the failure.
    """

    __match_args__ = (
        "soft1", "soft2", "pairwise", "strong", "hausdorff", "sup", "slices",
        "strict_pairwise_t0", "witnesses",
    )

    def __init__(
        self,
        soft1: dict[str, bool],
        soft2: dict[str, bool],
        pairwise: dict[str, bool],
        strong: dict[str, bool],
        hausdorff: bool,
        sup: dict[str, bool],
        slices: dict[str, dict[str, bool]],
        strict_pairwise_t0: Optional[bool] = None,
        witnesses: Optional[dict] = None,
    ):
        witnesses = {} if witnesses is None else witnesses
        self._set(
            soft1, soft2, pairwise, strong, hausdorff, sup, slices,
            strict_pairwise_t0, witnesses,
        )


def pairwise_verdicts(s: BiSoftSpace) -> dict[str, bool]:
    """Pairwise soft T0, T1 and T2, keyed ``t0``, ``t1`` and ``t2``."""
    return {
        "t0": pairwise_soft_t0(s),
        "t1": pairwise_soft_t1(s),
        "t2": pairwise_soft_t2(s),
    }


def axiom_report(s: BiSoftSpace, strict_orientation: bool = False) -> AxiomReport:
    """Evaluate every axiom this package knows about on one space."""
    sup = sup_topology(s)
    failures = {
        "t0": _t0_failure(s, _weakly_apart),
        "t1": _t1_failure(s, _weakly_apart),
        "t2": _t2_failure(s),
    }
    return AxiomReport(
        soft1=pairwise_verdicts(BiSoftSpace(s.t1, s.t1)),
        soft2=pairwise_verdicts(BiSoftSpace(s.t2, s.t2)),
        pairwise={k: pair is None for k, pair in failures.items()},
        strong={"t0": strong_t0(s), "t1": strong_t1(s)},
        hausdorff=hausdorff_char(s),
        sup=pairwise_verdicts(BiSoftSpace(sup, sup)),
        slices={
            e: pairwise_verdicts(slice_space(s, e))
            for e in s.context.parameters.parameters
        },
        strict_pairwise_t0=(
            pairwise_soft_t0(s, strict_orientation=True)
            if strict_orientation
            else None
        ),
        witnesses={
            f"pairwise_{k}": pair for k, pair in failures.items() if pair is not None
        },
    )
