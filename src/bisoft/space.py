"""Bi-soft topological spaces: two soft topologies over one context."""

from __future__ import annotations

from typing import Iterable

from .errors import ContextMismatchError
from .softset import Context, _Value
from .topology import SoftTopology, parameterize, relative_topology


class BiSoftSpace(_Value):
    __match_args__ = ("t1", "t2")

    def __init__(self, t1: SoftTopology, t2: SoftTopology):
        if t1.context != t2.context:
            raise ContextMismatchError("topologies live over different contexts")
        self._set(t1, t2)

    @property
    def context(self) -> Context:
        return self.t1.context


def sup_topology(s: BiSoftSpace) -> SoftTopology:
    """Smallest soft topology containing both topologies.

    Its ``U_p`` is ``U1_p & U2_p``: a point's minimal open neighbourhood
    is the intersection of the members of either family that contain it,
    which is exact for any two member families, topologies or not.  Its
    members, the unions of those neighbourhoods, are derived only when
    listed, since their number can be exponential in the context size.
    """
    u1, u2 = s.t1.neighbourhoods(), s.t2.neighbourhoods()
    return SoftTopology._from_neighbourhoods(s.context, [a & b for a, b in zip(u1, u2)])


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
