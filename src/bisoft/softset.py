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
concurrent use.  The package's value classes are plain classes on one
private base, ``_Value``: equality, hashing and repr come from each
class's tuple of fields, with the semantics ``dataclasses`` would give
them, without importing ``dataclasses`` or generating code at import.
"""

from __future__ import annotations

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


class _Value:
    """Value semantics read off one tuple of field names, ``__match_args__``.

    Equality (between instances of one class only), hashing and repr read
    the fields in that order, as ``@dataclass(frozen=True)`` generates
    them, and assignment and deletion raise
    ``dataclasses.FrozenInstanceError``, imported on that error path alone.
    A subclass declared with ``frozen=False`` is a mutable, unhashable
    record instead.  Each subclass's own ``__init__`` checks its arguments
    and writes the fields once with ``object.__setattr__``, which, unlike
    writing into ``__dict__``, keeps CPython's shared-key instance layout
    and its faster attribute reads.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True):
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def _set(self, *values) -> None:
        """Write the fields, in ``__match_args__`` order."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Universe(_Value):
    """Ordered list of distinct element names; order fixes bit positions."""

    __match_args__ = ("elements",)

    def __init__(self, elements: tuple[str, ...]):
        self._set(_distinct_names("universe", elements))

    def __len__(self) -> int:
        return len(self.elements)


class ParameterSet(_Value):
    """Ordered list of distinct parameter names."""

    __match_args__ = ("parameters",)

    def __init__(self, parameters: tuple[str, ...]):
        self._set(_distinct_names("parameter set", parameters))

    def __len__(self) -> int:
        return len(self.parameters)


class Context(_Value):
    """A (universe, parameter set) pair; every soft value carries one.

    Sizes, masks, element rows, each point's block mask and the
    name-to-index maps are derived once at construction.  They are
    excluded from equality, hashing and repr, so a context compares and
    prints by its two name lists alone.
    """

    __match_args__ = ("universe", "parameters")

    def __init__(self, universe: Universe, parameters: ParameterSet):
        elements, names = universe.elements, parameters.parameters
        nx, ne = len(elements), len(names)
        block = (1 << nx) - 1
        fields = dict(
            universe=universe,
            parameters=parameters,
            nx=nx,
            ne=ne,
            full_mask=(1 << (nx * ne)) - 1,
            block_mask=block,
            rows=tuple(sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)),
            # each point's parameter block; a block's nx points share one int
            blocks=tuple([b for s in range(0, nx * ne, nx) for b in [block << s] * nx]),
            _element_ids={name: i for i, name in enumerate(elements)},
            _parameter_ids={name: i for i, name in enumerate(names)},
        )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    # equality and hashing are hot, so they skip the generic field tuple
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.universe.elements == other.universe.elements
            and self.parameters.parameters == other.parameters.parameters
        )

    def __hash__(self) -> int:
        # hash((universe, parameters)), a Universe hashing as (elements,)
        return hash(((self.universe.elements,), (self.parameters.parameters,)))

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


class SoftSet(_Value):
    """One subset of the universe per parameter, packed into ``mask``."""

    __match_args__ = ("context", "mask")

    def __init__(self, context: Context, mask: int):
        if not 0 <= mask <= context.full_mask:
            raise ValueError("mask out of range for context")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):  # hot, so spelled out like Context's
        if other.__class__ is self.__class__:
            return (self.context, self.mask) == (other.context, other.mask)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.context, self.mask))

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
