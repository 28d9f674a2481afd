"""Finite soft sets over a fixed universe and parameter set.

A soft set assigns one subset of the universe to every parameter.  The
whole table is packed into a single integer: one block of ``|universe|``
bits per parameter, element order inside a block following the declared
universe order.  All algebra is then plain integer arithmetic, and a soft
set is literally a subset of ``universe x parameters`` in disguise.

Membership of a point is deliberately *not* the pointwise reading: an
element belongs to a soft set only when it belongs to the subset at every
parameter, and fails to belong as soon as one parameter leaves it out.

Everything here is an immutable value; operations are pure and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    ContextMismatchError,
    UnknownElementError,
    UnknownParameterError,
)


def _distinct_names(kind: str, names: Iterable[str]) -> tuple[str, ...]:
    out = tuple(names)
    if not out:
        raise ValueError(f"{kind} must not be empty")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate name in {kind}")
    return out


@dataclass(frozen=True)
class Universe:
    """Ordered list of distinct element names; order fixes bit positions."""

    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", _distinct_names("universe", self.elements))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ParameterSet:
    """Ordered list of distinct parameter names."""

    parameters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "parameters", _distinct_names("parameter set", self.parameters)
        )

    def __len__(self) -> int:
        return len(self.parameters)


@dataclass(frozen=True)
class Context:
    """A (universe, parameter set) pair; every soft value carries one.

    Sizes, masks, element rows and the name-to-index maps are derived once
    at construction.  They are excluded from equality, hashing and repr, so
    a context compares and prints by its two name lists alone.
    """

    universe: Universe
    parameters: ParameterSet
    nx: int = field(init=False, compare=False, repr=False)
    ne: int = field(init=False, compare=False, repr=False)
    full_mask: int = field(init=False, compare=False, repr=False)
    block_mask: int = field(init=False, compare=False, repr=False)
    rows: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _element_ids: dict[str, int] = field(init=False, compare=False, repr=False)
    _parameter_ids: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elements = self.universe.elements
        parameters = self.parameters.parameters
        nx, ne = len(elements), len(parameters)
        derived = {
            "nx": nx,
            "ne": ne,
            "full_mask": (1 << (nx * ne)) - 1,
            "block_mask": (1 << nx) - 1,
            "rows": tuple(
                sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)
            ),
            "_element_ids": {name: i for i, name in enumerate(elements)},
            "_parameter_ids": {name: i for i, name in enumerate(parameters)},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, elements: Iterable[str], parameters: Iterable[str]) -> "Context":
        return cls(Universe(tuple(elements)), ParameterSet(tuple(parameters)))

    def element_index(self, name: str) -> int:
        try:
            return self._element_ids[name]
        except KeyError:
            raise UnknownElementError(name) from None

    def parameter_index(self, name: str) -> int:
        try:
            return self._parameter_ids[name]
        except KeyError:
            raise UnknownParameterError(name) from None

    def row(self, element: str) -> int:
        """Bits of one element across every parameter block."""
        return self.rows[self.element_index(element)]

    def subset_mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.element_index(name)
        return mask

    def subset_names(self, mask: int) -> tuple[str, ...]:
        elems = self.universe.elements
        return tuple(elems[i] for i in range(self.nx) if mask >> i & 1)


@dataclass(frozen=True)
class SoftSet:
    """One subset of the universe per parameter, packed into ``mask``."""

    context: Context
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.context.full_mask:
            raise ValueError("mask out of range for context")

    def block(self, parameter: str) -> int:
        """Subset mask assigned to one parameter."""
        e = self.context.parameter_index(parameter)
        return (self.mask >> (e * self.context.nx)) & self.context.block_mask

    def table(self) -> dict[str, tuple[str, ...]]:
        ctx = self.context
        return {
            p: ctx.subset_names(self.block(p)) for p in ctx.parameters.parameters
        }

    @property
    def is_null(self) -> bool:
        return self.mask == 0

    @property
    def is_absolute(self) -> bool:
        return self.mask == self.context.full_mask

    def __or__(self, other: "SoftSet") -> "SoftSet":
        return soft_union(self, other)

    def __and__(self, other: "SoftSet") -> "SoftSet":
        return soft_intersect(self, other)

    def __sub__(self, other: "SoftSet") -> "SoftSet":
        return soft_difference(self, other)

    def __invert__(self) -> "SoftSet":
        return soft_complement(self)

    def __repr__(self) -> str:
        parts = ", ".join(
            "%s={%s}" % (p, ",".join(v)) for p, v in self.table().items()
        )
        return f"SoftSet({parts})"


def _same_context(a: SoftSet, b: SoftSet) -> Context:
    if a.context != b.context:
        raise ContextMismatchError("soft sets live over different contexts")
    return a.context


def null_soft_set(ctx: Context) -> SoftSet:
    return SoftSet(ctx, 0)


def absolute_soft_set(ctx: Context) -> SoftSet:
    return SoftSet(ctx, ctx.full_mask)


def soft_union(a: SoftSet, b: SoftSet) -> SoftSet:
    return SoftSet(_same_context(a, b), a.mask | b.mask)


def soft_intersect(a: SoftSet, b: SoftSet) -> SoftSet:
    return SoftSet(_same_context(a, b), a.mask & b.mask)


def soft_difference(a: SoftSet, b: SoftSet) -> SoftSet:
    return SoftSet(_same_context(a, b), a.mask & ~b.mask)


def soft_complement(a: SoftSet) -> SoftSet:
    return SoftSet(a.context, a.context.full_mask & ~a.mask)


def soft_subset(a: SoftSet, b: SoftSet) -> bool:
    _same_context(a, b)
    return a.mask & ~b.mask == 0


def member(element: str, a: SoftSet) -> bool:
    """Strong membership: the element sits in the subset at every parameter."""
    row = a.context.row(element)
    return a.mask & row == row


def point_soft_set(element: str, ctx: Context) -> SoftSet:
    """Constant table {element} at every parameter."""
    return SoftSet(ctx, ctx.row(element))


def constant_soft_set(elements: Iterable[str], ctx: Context) -> SoftSet:
    """Constant table with the same subset at every parameter."""
    block = ctx.subset_mask(elements)
    mask = 0
    for e in range(ctx.ne):
        mask |= block << (e * ctx.nx)
    return SoftSet(ctx, mask)


def extend_parameters(
    partial: Mapping[str, Iterable[str]], ctx: Context
) -> SoftSet:
    """Total soft set from a table over a subset of the parameters.

    Parameters missing from the table get the empty subset.
    """
    mask = 0
    for pname, elems in partial.items():
        e = ctx.parameter_index(pname)
        mask |= ctx.subset_mask(elems) << (e * ctx.nx)
    return SoftSet(ctx, mask)


def restrict(a: SoftSet, keep: Iterable[str]) -> SoftSet:
    """Intersect every parameter's subset with ``keep``; context unchanged."""
    ctx = a.context
    block = ctx.subset_mask(keep)
    ymask = 0
    for e in range(ctx.ne):
        ymask |= block << (e * ctx.nx)
    return SoftSet(ctx, a.mask & ymask)
