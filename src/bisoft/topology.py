"""Soft topologies and their minimal open neighbourhoods.

A soft topology is a family of soft sets over one context that contains
the null and absolute soft sets and is closed under pairwise union and
pairwise intersection; on a finite context that pairwise closure already
gives closure under arbitrary unions.

A finite topology is fixed by the smallest open set ``U_p`` around each
point p of ``X x E`` (Alexandroff 1937; Stong 1966), so a topology
stores its ``U``; the smallest member strongly containing an element x
is ``N(x)``, the union of ``U_p`` over x's row.  A ``SoftTopology`` is
always a topology: built from members, it checks them in O(members *
points) and raises ``InvalidTopologyError`` with every violation when
they are not closed.  It is its ``U``: equality, hashing, membership,
closure, the checkers, the search scan and the rough approximations read
``U`` instead of scanning members, and a slice, a trace and the
supremum of two topologies are built from ``U`` too.  The members are
derived on demand, as every union of the ``U_p`` sorted by packed
bitmask, so a generated or enumerated topology that nothing lists never
builds them.  Listing them stops at ``MEMBER_CAP``: a topology with more
raises ``TooManyMembersError`` rather than exhausting memory.
"""

from __future__ import annotations

from itertools import compress, count
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ContextMismatchError, InvalidTopologyError, TooManyMembersError
from .softset import Context, ParameterSet, SoftSet, _Value

# Most members a topology lists: every topology on up to 16 points fits.
MEMBER_CAP = 1 << 16


class Violation(_Value):
    """One failed topology axiom, with the members that witness it."""

    __match_args__ = ("kind", "witnesses", "missing")

    def __init__(
        self,
        kind: str,  # "missing-null" | "missing-absolute" | "union" | "intersection"
        witnesses: tuple[SoftSet, ...],
        missing: Optional[SoftSet] = None,
    ):
        self._set(kind, witnesses, missing)

    def __str__(self) -> str:
        if self.kind == "missing-null":
            return "null soft set is not a member"
        if self.kind == "missing-absolute":
            return "absolute soft set is not a member"
        a, b = self.witnesses
        op = "union" if self.kind == "union" else "intersection"
        return f"{op} of {a!r} and {b!r} escapes the family ({self.missing!r})"


# each binary digit as a byte 0 or 1, a selector for ``compress``
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(m: int) -> Iterator[int]:
    """The places of the set bits of ``m >= 0``, lowest first, read off
    its binary digits in one pass of C code."""
    return compress(count(), bin(m)[:1:-1].encode().translate(_DIGIT_BYTES))


def minimal_neighbourhoods(masks: Iterable[int], n_points: int) -> tuple[int, ...]:
    """``U_p`` for each point p < n_points: the AND of the masks containing
    p, or the full mask when none does; in a topology, the smallest open.
    Each mask is ANDed into the ``U_p`` of its own points."""
    full = (1 << n_points) - 1
    out = [full] * n_points
    for m in masks:
        for p in _set_bits(m):
            out[p] &= m
    return tuple(out)


def _row_neighbourhoods(u: Sequence[int], nx: int) -> tuple[int, ...]:
    """``N(x)`` for each element x: the OR of ``U_p`` over x's row, ORed
    in one parameter block at a time."""
    nbhd = tuple(u[:nx])
    for s in range(nx, len(u), nx):
        nbhd = tuple(map(or_, nbhd, u[s : s + nx]))
    return nbhd


class SoftTopology(_Value):
    """A soft topology over a context, stored as its ``U``.

    ``SoftTopology(ctx, members)`` checks that the members live over
    ``ctx`` and form a topology, in any order and with repeats, and keeps
    their ``U``; ``_from_neighbourhoods`` keeps a ``U`` alone.  The
    masks, the members and ``N`` are derived from ``U`` on first use and
    kept; the members are then the sorted unions of the ``U_p``.
    Equality, hashing and the repr read the context and ``U``, and ``in``
    tests a mask against ``U``, so none of them lists a member; ``len``
    does, and raises ``TooManyMembersError`` past ``MEMBER_CAP``.
    Immutable, like every value of the package.
    """

    __match_args__ = ("context", "members")
    _n = _masks = _members = None  # derived on first use

    def __init__(self, context: Context, members: Iterable[SoftSet]):
        members = tuple(members)
        _shared_context(members, context)
        masks = {m.mask for m in members}
        u = minimal_neighbourhoods(masks, context.nx * context.ne)
        if not _closed(masks, u):
            raise InvalidTopologyError(topology_violations(members, context))
        self.__dict__.update(context=context, _u=u, _masks=tuple(sorted(masks)))

    @classmethod
    def _from_neighbourhoods(cls, context: Context, u: Sequence[int]):
        """The topology whose ``U_p`` is ``u[p]``; ``u`` must be a ``U``."""
        t = cls.__new__(cls)
        t.__dict__.update(context=context, _u=tuple(u))
        return t

    def _key(self) -> tuple:
        return self.context, self._u

    def __repr__(self) -> str:
        return f"SoftTopology(context={self.context!r}, neighbourhoods={self._u!r})"

    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self.__dict__["_masks"] = tuple(sorted(_union_closure(self._u)))
        return self._masks

    @property
    def members(self) -> tuple[SoftSet, ...]:
        if self._members is None:
            ctx = self.context
            self.__dict__["_members"] = tuple(SoftSet(ctx, m) for m in self.masks())
        return self._members

    def neighbourhoods(self) -> tuple[int, ...]:
        """``U_p`` per point p of ``X x E``, in packed bit order."""
        return self._u

    def element_neighbourhoods(self) -> tuple[int, ...]:
        """``N(x)`` per element x, in universe order."""
        if self._n is None:
            self.__dict__["_n"] = _row_neighbourhoods(self._u, self.context.nx)
        return self._n

    def __len__(self) -> int:
        return len(self.masks())

    def __contains__(self, item: SoftSet) -> bool:
        """A soft set is open iff it holds ``U_p`` for each of its points."""
        m = item.mask
        return item.context == self.context and all(
            u & ~m == 0 for p, u in enumerate(self._u) if m >> p & 1
        )


def _closed(masks: set[int], u: Sequence[int]) -> bool:
    """Whether the masks, whose ``U`` is ``u``, are a topology.

    They are when they hold the null set and ``m | U_p`` for every member
    m and point p.  Each member is the union of the ``U_p`` of its
    points, so the masks are then exactly the unions of the ``U_p``, the
    full set among them, and those are closed under intersection (see
    ``generate_topology``); a topology passes, as ``U_p`` is a member.
    """
    ups = set(u)
    return 0 in masks and all(m | up in masks for m in masks for up in ups)


def _shared_context(members: Sequence[SoftSet], ctx: Optional[Context]) -> Context:
    if ctx is None:
        if not members:
            raise ValueError("cannot infer context from an empty family")
        ctx = members[0].context
    for m in members:
        if m.context != ctx:
            raise ContextMismatchError("family mixes contexts")
    return ctx


def topology_violations(
    members: Sequence[SoftSet], ctx: Optional[Context] = None
) -> list[Violation]:
    """Definitional axiom check; returns every violation found."""
    ctx = _shared_context(members, ctx)
    masks = sorted(set(m.mask for m in members))
    present = set(masks)
    out = []
    if 0 not in present:
        out.append(Violation("missing-null", ()))
    if ctx.full_mask not in present:
        out.append(Violation("missing-absolute", ()))
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            u = a | b
            if u not in present:
                out.append(
                    Violation(
                        "union", (SoftSet(ctx, a), SoftSet(ctx, b)), SoftSet(ctx, u)
                    )
                )
            v = a & b
            if v not in present:
                out.append(
                    Violation(
                        "intersection",
                        (SoftSet(ctx, a), SoftSet(ctx, b)),
                        SoftSet(ctx, v),
                    )
                )
    return out


def validate_topology(
    members: Sequence[SoftSet], ctx: Optional[Context] = None
) -> SoftTopology:
    """The topology the members form, over ``ctx`` or else the context of
    the first; raises ``InvalidTopologyError`` with every violation."""
    return SoftTopology(_shared_context(members, ctx), members)


def generate_topology(
    ctx: Context, subbasis: Sequence[SoftSet] = ()
) -> SoftTopology:
    """Smallest soft topology containing the subbasis.

    Built from the ``minimal_neighbourhoods`` ``U_p`` of the subbasis.  Every
    soft topology containing the subbasis contains each ``U_p``, a finite
    intersection of its members, and each of its members ``O`` equals the
    union of ``U_p`` over ``p`` in ``O``.  The union-closure of the
    ``U_p`` (with the null set as the empty union) is closed under
    intersection as well, because ``U_q`` lies inside ``U_p`` whenever
    ``q`` lies in ``U_p``.  So it is exactly the generated topology, for
    any subbasis, and the result keeps the ``U_p`` alone, in
    O(points * subbasis); its members are that closure, derived on first
    use.
    """
    _shared_context(subbasis, ctx)
    masks = {s.mask for s in subbasis}
    return SoftTopology._from_neighbourhoods(
        ctx, minimal_neighbourhoods(masks, ctx.nx * ctx.ne)
    )


def _union_closure(u: Iterable[int]) -> set[int]:
    """Every union of the masks ``u``, the null set (the empty union)
    included; when ``u`` is a topology's ``U``, its members.  Raises
    ``TooManyMembersError`` as soon as there are more than ``MEMBER_CAP``."""
    opens = {0}
    for m in set(u):
        opens |= {o | m for o in opens}
        if len(opens) > MEMBER_CAP:
            raise TooManyMembersError(
                f"a topology with more than {MEMBER_CAP} members cannot be listed"
            )
    return opens


def closed_sets(t: SoftTopology) -> tuple[SoftSet, ...]:
    """Complements of the open members, in canonical order."""
    full = t.context.full_mask
    return tuple(
        SoftSet(t.context, m) for m in sorted(full & ~x for x in t.masks())
    )


def soft_closure(t: SoftTopology, a: SoftSet) -> SoftSet:
    """Intersection of every soft closed superset of ``a`` in ``t``.

    A closed set ``full & ~o`` contains ``a`` exactly when the open ``o``
    misses ``a``, so a point p lies outside the intersection exactly when
    some open around it, and so ``U_p``, misses ``a``: the closure is the
    points whose ``U_p`` meets ``a``.
    """
    if a.context != t.context:
        raise ContextMismatchError("soft set and topology contexts differ")
    m = a.mask
    return SoftSet(
        t.context, sum(1 << p for p, u in enumerate(t.neighbourhoods()) if u & m)
    )


def relative_topology(t: SoftTopology, keep: Iterable[str]) -> SoftTopology:
    """Trace of the topology on a nonempty sub-universe.

    Members are intersected with the kept elements and re-homed to a
    context whose universe is exactly those elements (declaration order
    preserved); the restricted absolute set plays the top role there.
    The trace's smallest open around a kept point is ``U_p`` cut to the
    kept rows, as ``parameterize`` reads its slice, so no member is
    listed.  Re-homing reads only the kept bits, and each distinct block
    value is re-indexed once.
    """
    ctx = t.context
    keep = set(keep)
    unknown = keep - set(ctx.universe.elements)
    if unknown:
        raise ValueError(f"elements not in universe: {sorted(unknown)}")
    kept = [e for e in ctx.universe.elements if e in keep]
    if not kept:
        raise ValueError("sub-universe must not be empty")
    sub = Context.of(kept, ctx.parameters.parameters)
    old_idx = [ctx.element_index(e) for e in kept]
    rehomed: dict = {}  # old block value -> block value over the kept elements

    def rehome(m: int) -> int:
        new_mask = 0
        for e in range(ctx.ne):
            block = (m >> (e * ctx.nx)) & ctx.block_mask
            nb = rehomed.get(block)
            if nb is None:
                nb = rehomed[block] = sum(
                    1 << j for j, i in enumerate(old_idx) if block >> i & 1
                )
            new_mask |= nb << (e * sub.nx)
        return new_mask

    u = t.neighbourhoods()
    return SoftTopology._from_neighbourhoods(
        sub, [rehome(u[e * ctx.nx + i]) for e in range(ctx.ne) for i in old_idx]
    )


def parameterize(t: SoftTopology, parameter: str) -> SoftTopology:
    """Slice at one parameter: the members' subsets there, as a soft
    topology over the same universe and that parameter alone.

    Every member containing the point ``(x, e)`` contains ``U_(x,e)``, so
    the slice's smallest open around x is ``U_(x,e)``'s block at e.
    """
    ctx = t.context
    shift = ctx.parameter_index(parameter) * ctx.nx
    block = t.neighbourhoods()[shift : shift + ctx.nx]
    return SoftTopology._from_neighbourhoods(
        Context(ctx.universe, ParameterSet((parameter,))),
        [(u >> shift) & ctx.block_mask for u in block],
    )
