"""Bi-soft topological spaces: two soft topologies over one context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContextMismatchError
from .softset import Context
from .topology import (
    SoftTopology,
    generate_topology,
    parameterize,
    relative_topology,
)


@dataclass(frozen=True)
class BiSoftSpace:
    t1: SoftTopology
    t2: SoftTopology

    def __post_init__(self):
        if self.t1.context != self.t2.context:
            raise ContextMismatchError("topologies live over different contexts")

    @property
    def context(self) -> Context:
        return self.t1.context


def sup_topology(s: BiSoftSpace) -> SoftTopology:
    """Smallest soft topology containing both topologies.

    ``generate_topology`` over the members of both: each point's minimal
    open neighbourhood is the intersection of the members of either
    family that contain it, and the opens are the unions of those
    neighbourhoods.  Exact for any two member families, topologies or
    not.  Computed on demand rather than stored, because the number of
    opens can be exponential in the context size; callers may memoize the
    result themselves.
    """
    return generate_topology(s.context, s.t1.members + s.t2.members)


def slice_space(s: BiSoftSpace, parameter: str) -> BiSoftSpace:
    """The classical bitopological slice at one parameter, as a bi-soft
    space over that parameter alone (where strong membership is plain
    membership, so the pairwise soft checkers decide its axioms)."""
    return BiSoftSpace(parameterize(s.t1, parameter), parameterize(s.t2, parameter))


def subspace(s: BiSoftSpace, keep: Iterable[str]) -> BiSoftSpace:
    """Bi-soft subspace on a nonempty subset of the universe."""
    keep = tuple(keep)
    return BiSoftSpace(
        relative_topology(s.t1, keep), relative_topology(s.t2, keep)
    )
