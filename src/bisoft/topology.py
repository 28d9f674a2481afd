"""Soft topologies and per-parameter point topologies.

A soft topology is a family of soft sets over one context that contains
the null and absolute soft sets and is closed under pairwise union and
pairwise intersection; on a finite context that pairwise closure already
gives closure under arbitrary unions.  Members are kept deduplicated and
sorted by their packed bitmask, so equality of topologies is plain value
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import ContextMismatchError, InvalidTopologyError
from .softset import Context, SoftSet


@dataclass(frozen=True)
class Violation:
    """One failed topology axiom, with the members that witness it."""

    kind: str  # "missing-null" | "missing-absolute" | "union" | "intersection"
    witnesses: tuple[SoftSet, ...]
    missing: Optional[SoftSet] = None

    def __str__(self) -> str:
        if self.kind == "missing-null":
            return "null soft set is not a member"
        if self.kind == "missing-absolute":
            return "absolute soft set is not a member"
        a, b = self.witnesses
        op = "union" if self.kind == "union" else "intersection"
        return f"{op} of {a!r} and {b!r} escapes the family ({self.missing!r})"


@dataclass(frozen=True)
class SoftTopology:
    """Canonically ordered, duplicate-free family of soft open sets."""

    context: Context
    members: tuple[SoftSet, ...]
    _masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_masks", tuple(m.mask for m in self.members))

    def masks(self) -> tuple[int, ...]:
        return self._masks

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: SoftSet) -> bool:
        return item.context == self.context and item.mask in set(self.masks())


def _canonical(ctx: Context, masks: Iterable[int]) -> SoftTopology:
    return SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in sorted(set(masks))))


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
    """Return the canonical topology, or raise with the violation report."""
    ctx = _shared_context(members, ctx)
    violations = topology_violations(members, ctx)
    if violations:
        raise InvalidTopologyError(violations)
    return _canonical(ctx, (m.mask for m in members))


def generate_topology(
    ctx: Context, subbasis: Sequence[SoftSet] = ()
) -> SoftTopology:
    """Smallest soft topology containing the subbasis.

    Built from minimal open neighbourhoods (Alexandrov 1937): for each
    point ``p`` of ``X x E``, ``U_p`` is the intersection of the subbasis
    members containing ``p``, or the absolute set if none does.  Every
    soft topology containing the subbasis contains each ``U_p``, a finite
    intersection of its members, and each of its members ``O`` equals the
    union of ``U_p`` over ``p`` in ``O``.  The union-closure of the
    ``U_p`` (with the null set as the empty union) is closed under
    intersection as well, because ``U_q`` lies inside ``U_p`` whenever
    ``q`` lies in ``U_p``.  So it is exactly the generated topology, for
    any subbasis, in O(points * members) plus the size of the output.
    """
    _shared_context(list(subbasis) or [SoftSet(ctx, 0)], ctx)
    masks = {s.mask for s in subbasis}
    neighbourhoods = set()
    for p in range(ctx.nx * ctx.ne):
        u = ctx.full_mask
        for m in masks:
            if m >> p & 1:
                u &= m
        neighbourhoods.add(u)
    opens = {0}
    for u in neighbourhoods:
        opens |= {o | u for o in opens}
    return _canonical(ctx, opens)


def closed_sets(t: SoftTopology) -> tuple[SoftSet, ...]:
    """Complements of the open members, in canonical order."""
    full = t.context.full_mask
    return tuple(
        SoftSet(t.context, m) for m in sorted(full & ~x for x in t.masks())
    )


def soft_closure(t: SoftTopology, a: SoftSet) -> SoftSet:
    """Intersection of every soft closed superset of ``a`` in ``t``.

    A closed set ``full & ~o`` contains ``a`` exactly when the open ``o``
    misses ``a``, so the intersection is the complement of the union of
    the members disjoint from ``a``.
    """
    if a.context != t.context:
        raise ContextMismatchError("soft set and topology contexts differ")
    outside = 0
    for o in t.masks():
        if o & a.mask == 0:
            outside |= o
    return SoftSet(t.context, t.context.full_mask & ~outside)


def relative_topology(t: SoftTopology, keep: Iterable[str]) -> SoftTopology:
    """Trace of the topology on a nonempty sub-universe.

    Members are intersected with the kept elements and re-homed to a
    context whose universe is exactly those elements (declaration order
    preserved); the restricted absolute set plays the top role there.
    Re-homing reads only the kept bits, so members are first intersected
    with the kept rows and deduplicated, and each distinct block value is
    re-indexed once; the result is the same set of traces as re-homing
    every member.
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
    kept_rows = 0
    for e in kept:
        kept_rows |= ctx.row(e)
    rehomed = {}  # old block value -> block value over the kept elements
    out = set()
    for m in {m & kept_rows for m in t.masks()}:
        new_mask = 0
        for e in range(ctx.ne):
            block = (m >> (e * ctx.nx)) & ctx.block_mask
            nb = rehomed.get(block)
            if nb is None:
                nb = 0
                for j, i in enumerate(old_idx):
                    if block >> i & 1:
                        nb |= 1 << j
                rehomed[block] = nb
            new_mask |= nb << (e * sub.nx)
        out.add(new_mask)
    return _canonical(sub, out)


@dataclass(frozen=True)
class PointTopology:
    """Classical topology on a finite indexed point set, opens as bitmasks."""

    points: tuple[str, ...]
    opens: tuple[int, ...]

    @property
    def full(self) -> int:
        return (1 << len(self.points)) - 1

    def subset_mask(self, names: Iterable[str]) -> int:
        idx = {p: i for i, p in enumerate(self.points)}
        mask = 0
        for n in names:
            mask |= 1 << idx[n]
        return mask

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)


def point_topology(points: Sequence[str], opens: Iterable[int]) -> PointTopology:
    return PointTopology(tuple(points), tuple(sorted(set(opens))))


def parameterize(t: SoftTopology, parameter: str) -> PointTopology:
    """Classical topology of the members' subsets at one parameter."""
    ctx = t.context
    shift = ctx.parameter_index(parameter) * ctx.nx
    return point_topology(
        ctx.universe.elements, ((m >> shift) & ctx.block_mask for m in t.masks())
    )


def pt_interior(p: PointTopology, subset: int) -> int:
    """Union of the opens contained in the subset."""
    acc = 0
    for o in p.opens:
        if o & ~subset == 0:
            acc |= o
    return acc


def pt_closure(p: PointTopology, subset: int) -> int:
    """Smallest closed superset, via the complement of the interior."""
    full = p.full
    return full & ~pt_interior(p, full & ~subset)
