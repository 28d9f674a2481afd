"""Decision procedures for soft and pairwise soft separation axioms.

Membership throughout is the strong soft membership: a point belongs to a
soft set only when it lies in the subset at every parameter, and fails to
belong as soon as one parameter leaves it out.  That asymmetry is exactly
why pairwise soft T0 need not survive parameterization, so these checkers
never fall back to pointwise reasoning.

Every verdict is read off the fact key of ``scan``: ``space_verdicts``
profiles the space's two ``U`` vectors once and decodes the key, and
reads each parameter's slice off the same profiles, so no supremum,
slice or subspace is built and no member is listed.  A topology's soft
axioms are its pairwise axioms with itself, and ``hausdorff_char`` is
the key's closure test, which agrees with pairwise soft T2 on every
space (Theorem 1), as every ``SoftTopology`` is a topology.  The point
closure intersection is ``cl2(N1(x))``, read off ``U`` as well.
``scan`` is imported on the first verdict, not by ``import bisoft``.

The one loop over pairs is ``_witness``: it finds the first pair a false
pairwise axiom leaves unseparated, which ``axiom_report`` keeps, and
decides the strict orientation of pairwise T0, which has no key bit.

Quantification conventions: soft/pairwise T0 ranges over unordered pairs
and accepts a separating member from either topology in either direction
(a strict fixed-orientation variant is available for comparison); T1 and
T2 range over ordered pairs.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import UnknownElementError
from .softset import SoftSet, _Value
from .space import BiSoftSpace
from .topology import SoftTopology, soft_closure


def _verdicts(s: BiSoftSpace):
    """The facts of a space and its slices' pairwise verdicts."""
    from .scan import space_verdicts

    return space_verdicts(s)


def _witness(s: BiSoftSpace, axiom: str) -> Optional[tuple[str, str]]:
    """The first pair of elements that the pairwise ``axiom`` (``t0``,
    ``t0_strict``, ``t1`` or ``t2``) leaves unseparated, in the order it
    quantifies (unordered pairs for ``t0``), or None when it holds.

    Some member around x fails to strongly contain y iff ``N(x) ⊉ row y``
    (``out``), and disjoint members around x and y exist iff
    ``N1(x) ∩ N2(y) = ∅``.
    """
    n1, n2 = s.t1.element_neighbourhoods(), s.t2.element_neighbourhoods()
    r = s.context.rows

    def out(n, x, y):
        return n[x] & r[y] != r[y]

    separated = {
        "t0": lambda x, y: (
            out(n1, x, y) or out(n1, y, x) or out(n2, x, y) or out(n2, y, x)
        ),
        "t0_strict": lambda x, y: out(n1, x, y) or out(n2, y, x),
        "t1": lambda x, y: out(n1, x, y) and out(n2, y, x),
        "t2": lambda x, y: not n1[x] & n2[y],
    }[axiom]
    pairs = combinations if axiom == "t0" else permutations
    names = s.context.universe.elements
    for x, y in pairs(range(len(names)), 2):
        if not separated(x, y):
            return names[x], names[y]
    return None


def _three(facts, prefix: str) -> dict[str, bool]:
    """The fields ``prefix`` + t0, t1 and t2 of the facts, keyed t0, t1, t2."""
    return {k: getattr(facts, prefix + k) for k in ("t0", "t1", "t2")}


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
    if strict_orientation:
        return _witness(s, "t0_strict") is None
    return _verdicts(s)[0].pairwise_t0


def pairwise_soft_t1(s: BiSoftSpace) -> bool:
    return _verdicts(s)[0].pairwise_t1


def pairwise_soft_t2(s: BiSoftSpace) -> bool:
    return _verdicts(s)[0].pairwise_t2


def strong_t0(s: BiSoftSpace) -> bool:
    """Pairwise T0 with non-membership strengthened to complement membership."""
    return _verdicts(s)[0].strong_t0


def strong_t1(s: BiSoftSpace) -> bool:
    return _verdicts(s)[0].strong_t1


def hausdorff_char(s: BiSoftSpace) -> bool:
    """Closure characterization of the pairwise Hausdorff property.

    For each ordered pair (x, y): some first-topology member contains x
    while y strongly avoids its closure taken in the second topology.
    This equals ``pairwise_soft_t2`` on every space (Theorem 1).
    """
    return _verdicts(s)[0].cor1_ok


class PointClosure(NamedTuple):
    """Result of the point closure intersection.  ``vacuous`` would flag
    an empty member family; the absolute set of a topology contains
    every element, so it is always False."""

    value: SoftSet
    vacuous: bool


def point_closure_intersection(s: BiSoftSpace, element: str) -> PointClosure:
    """Intersect second-topology closures of first-topology members around x.

    Closure is monotone and ``N1(x)`` is the smallest of those members,
    so the intersection is the closure of ``N1(x)``.
    """
    ctx = s.context
    if element not in ctx.universe.elements:
        raise UnknownElementError(element)
    n1 = s.t1.element_neighbourhoods()[ctx.element_index(element)]
    return PointClosure(soft_closure(s.t2, SoftSet(ctx, n1)), False)


class AxiomReport(_Value):
    """All axiom verdicts for one bi-soft space.

    Witnesses map each false pairwise axiom (``pairwise_t0``,
    ``pairwise_t1``, ``pairwise_t2``) to the first pair of points it
    leaves unseparated, in the order it quantifies; testing that pair by
    the axiom's definition reproduces the failure.
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
    return _three(_verdicts(s)[0], "pairwise_")


def axiom_report(s: BiSoftSpace, strict_orientation: bool = False) -> AxiomReport:
    """Evaluate every axiom this package knows about on one space."""
    facts, slices = _verdicts(s)
    pairwise = _three(facts, "pairwise_")
    return AxiomReport(
        soft1=_three(facts, "t1_soft_"),
        soft2=_three(facts, "t2_soft_"),
        pairwise=pairwise,
        strong={"t0": facts.strong_t0, "t1": facts.strong_t1},
        hausdorff=facts.cor1_ok,
        sup=_three(facts, "sup_soft_"),
        slices=slices,
        strict_pairwise_t0=(
            pairwise_soft_t0(s, strict_orientation=True)
            if strict_orientation
            else None
        ),
        witnesses={
            f"pairwise_{k}": _witness(s, k)
            for k, holds in pairwise.items()
            if not holds
        },
    )
