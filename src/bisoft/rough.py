"""Rough approximation of a soft set inside a bi-soft topological space.

Approximations are defined slice-wise: at each parameter the target's
subset is approximated in the two classical slice topologies, taking the
intersection of interiors below and the union of closures above.  The
smallest slice open around x at parameter e is ``U_(x,e)`` cut to e's
block, so a point p of block ``blk(p)`` is in a slice interior of A when
``U_p ∩ blk(p) ⊆ A``, and in a slice closure when ``U_p`` meets
``A ∩ blk(p)``.  Both read a space only through its reach vector, the
``(U1_p ∪ U2_p) ∩ blk(p)`` of each point p (Pawlak 1982; Yao 1998):
``_reach`` computes it from the two ``U`` vectors, and ``_lower`` and
``_upper`` approximate a target mask from it, so the rough claims of
``search`` and its hunts read pairs of ``U`` without building a space.
"""

from __future__ import annotations

from .errors import ContextMismatchError
from .softset import Context, SoftSet, _Value
from .space import BiSoftSpace


class RoughResult(_Value):
    __match_args__ = ("lower", "upper", "pos", "neg", "bnd", "definable")

    def __init__(
        self,
        lower: SoftSet,
        upper: SoftSet,
        pos: SoftSet,
        neg: SoftSet,
        bnd: SoftSet,
        definable: bool,
    ):
        self._set(lower, upper, pos, neg, bnd, definable)


def _check(s: BiSoftSpace, a: SoftSet) -> None:
    if a.context != s.context:
        raise ContextMismatchError("target lives over a different context")


def _reach(ctx: Context, u1: tuple[int, ...], u2: tuple[int, ...]) -> tuple[int, ...]:
    """Per point p: ``(U1_p ∪ U2_p) ∩ blk(p)``, what both slice
    neighbourhoods of p cover at p's parameter, for the topologies whose
    ``U`` are ``u1`` and ``u2``."""
    return tuple([(a | b) & blk for a, b, blk in zip(u1, u2, ctx.blocks)])


def _reaches(s: BiSoftSpace) -> tuple[int, ...]:
    """The reach vector of a space."""
    return _reach(s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods())


def _lower(reach: tuple[int, ...], mask: int) -> int:
    """The points whose reach lies inside ``mask``."""
    return sum(1 << p for p, r in enumerate(reach) if not r & ~mask)


def _upper(reach: tuple[int, ...], mask: int) -> int:
    """The points whose reach meets ``mask``."""
    return sum(1 << p for p, r in enumerate(reach) if r & mask)


def lower_approx(s: BiSoftSpace, a: SoftSet) -> SoftSet:
    """Per parameter: intersection of the two slice interiors."""
    _check(s, a)
    return SoftSet(s.context, _lower(_reaches(s), a.mask))


def upper_approx(s: BiSoftSpace, a: SoftSet) -> SoftSet:
    """Per parameter: union of the two slice closures."""
    _check(s, a)
    return SoftSet(s.context, _upper(_reaches(s), a.mask))


def rough_regions(s: BiSoftSpace, a: SoftSet) -> RoughResult:
    """Lower/upper approximations with the derived regions.

    The positive region is the lower approximation, the negative region
    the complement of the upper one, the boundary their difference; the
    target is definable exactly when lower and upper coincide.
    """
    lower = lower_approx(s, a)
    upper = upper_approx(s, a)
    ctx = s.context
    return RoughResult(
        lower=lower,
        upper=upper,
        pos=lower,
        neg=SoftSet(ctx, ctx.full_mask & ~upper.mask),
        bnd=SoftSet(ctx, upper.mask & ~lower.mask),
        definable=lower.mask == upper.mask,
    )
