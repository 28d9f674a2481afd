"""Rough approximation of a soft set inside a bi-soft topological space.

Approximations are defined slice-wise: at each parameter the target's
subset is approximated in the two classical slice topologies, taking the
intersection of interiors below and the union of closures above.  The
smallest slice open around x at parameter e is ``U_(x,e)`` cut to e's
block, so a point p of block ``blk(p)`` is in a slice interior of A when
``U_p ∩ blk(p) ⊆ A``, and in a slice closure when ``U_p`` meets
``A ∩ blk(p)``.
"""

from __future__ import annotations

from .errors import ContextMismatchError
from .softset import SoftSet, _Value
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


def _reaches(s: BiSoftSpace) -> list[int]:
    """Per point p: ``(U1_p ∪ U2_p) ∩ blk(p)``, what both slice
    neighbourhoods of p cover at p's parameter."""
    ctx = s.context
    u1, u2 = s.t1.neighbourhoods(), s.t2.neighbourhoods()
    return [
        (u1[p] | u2[p]) & ctx.block_mask << (p // ctx.nx * ctx.nx)
        for p in range(ctx.nx * ctx.ne)
    ]


def lower_approx(s: BiSoftSpace, a: SoftSet) -> SoftSet:
    """Per parameter: intersection of the two slice interiors."""
    _check(s, a)
    reaches = enumerate(_reaches(s))
    return SoftSet(s.context, sum(1 << p for p, r in reaches if not r & ~a.mask))


def upper_approx(s: BiSoftSpace, a: SoftSet) -> SoftSet:
    """Per parameter: union of the two slice closures."""
    _check(s, a)
    reaches = enumerate(_reaches(s))
    return SoftSet(s.context, sum(1 << p for p, r in reaches if r & a.mask))


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
