"""Member-scanning oracle for counterexample records.

Works on the packed masks a record carries and nothing else: a soft set
over (X, E) is one bit per (element, parameter), bit ``e * |X| + x``.
It never imports the package's checkers, so a wrong checker and a wrong
oracle would have to agree by accident for a bad record to pass.
"""

from __future__ import annotations


def _rows(nx, ne):
    """Bits of each element across every parameter block."""
    return [sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)]


def is_topology(masks, full):
    present = set(masks)
    if 0 not in present or full not in present:
        return False
    return all(a | b in present and a & b in present for a in present for b in present)


def _contains(m, row):
    """Strong membership: the element lies in the subset at every parameter."""
    return m & row == row


def pairwise_t1(t1, t2, rows):
    for x, rx in enumerate(rows):
        for y, ry in enumerate(rows):
            if x == y:
                continue
            if not any(_contains(f, rx) and not _contains(f, ry) for f in t1):
                return False
            if not any(_contains(g, ry) and not _contains(g, rx) for g in t2):
                return False
    return True


def pairwise_t2(t1, t2, rows):
    for x, rx in enumerate(rows):
        for y, ry in enumerate(rows):
            if x == y:
                continue
            if not any(
                _contains(f, rx) and _contains(g, ry) and f & g == 0
                for f in t1
                for g in t2
            ):
                return False
    return True


def _slice_closure(opens, subset, block):
    """Intersection of the slice's closed supersets of ``subset``."""
    acc = block
    for o in opens:
        closed = block & ~o
        if subset & ~closed == 0:
            acc &= closed
    return acc


def upper(t1, t2, nx, ne, target):
    """Per parameter, the union of the two slice closures of the target."""
    block = (1 << nx) - 1
    out = 0
    for e in range(ne):
        shift = e * nx
        s1 = {(m >> shift) & block for m in t1}
        s2 = {(m >> shift) & block for m in t2}
        a = (target >> shift) & block
        out |= (_slice_closure(s1, a, block) | _slice_closure(s2, a, block)) << shift
    return out


def refutes(record):
    """True iff the record is a valid space whose premise holds and conclusion fails."""
    nx, ne = len(record["universe"]), len(record["parameters"])
    full = (1 << (nx * ne)) - 1
    t1, t2 = tuple(record["t1"]), tuple(record["t2"])
    if not (is_topology(t1, full) and is_topology(t2, full)):
        return False
    claim = record["claim"]
    if claim == "pairwise-t1-implies-pairwise-t2":
        rows = _rows(nx, ne)
        return pairwise_t1(t1, t2, rows) and not pairwise_t2(t1, t2, rows)
    if claim == "upper-idempotence-equality":
        a = record["target"]
        if not isinstance(a, int) or not 0 <= a <= full:
            return False
        once = upper(t1, t2, nx, ne, a)
        return upper(t1, t2, nx, ne, once) != once
    raise ValueError(f"no oracle for claim {claim!r}")
