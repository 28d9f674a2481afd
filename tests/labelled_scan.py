"""Unreduced labelled scan: the reference for the orbit scan in
``bisoft.scan``.

It walks every ordered topology pair of every factorization, counts the
pairs per fact vector and keeps each vector's first three positions, the
way the exhaustive scan did before it walked one pair per symmetry orbit.
Each pair's supremum is found here, as the topology whose ``U`` is the
pointwise intersection of the pair's, and its facts come from the same
profiles and fact key as the scan's; the dual-route tests check those
against the member oracle.

It also keeps the member views of the enumeration that only the tests
read: ``_point_topologies``, each topology as its sorted members, and
``as_soft_topology``, the soft topology those members form.
"""

from functools import lru_cache

from bisoft.scan import (
    _SUP,
    _decode,
    _members,
    _pair_key,
    _point_neighbourhoods,
    _profiles,
)
from bisoft.search import (
    Claim,
    ClaimResult,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    get_claim,
    standard_context,
)
from bisoft.softset import SoftSet
from bisoft.topology import SoftTopology

MAX_RECORDS = 3


@lru_cache(maxsize=None)
def _point_topologies(n):
    """All topologies on n points as sorted member tuples, in canonical
    order."""
    return tuple(_members(u) for u in _point_neighbourhoods(n))


def as_soft_topology(opens, ctx):
    """Reinterpret a topology on |X|*|E| points as the soft topology its
    members form."""
    return SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in sorted(set(opens))))


@lru_cache(maxsize=None)
def _index(n):
    return {u: k for k, u in enumerate(_point_neighbourhoods(n))}


def pair_key(nx, ne, i, j):
    """The fact key of the pair (i, j) of topologies over (nx, ne)."""
    us = _point_neighbourhoods(nx * ne)
    sup = _index(nx * ne)[tuple(a & b for a, b in zip(us[i], us[j]))]
    profiles = _profiles(nx, ne)
    return _pair_key(profiles[i], profiles[j], profiles[sup].soft << _SUP)


@lru_cache(maxsize=None)
def labelled_counts(nx, ne):
    """Pairs per fact vector over (nx, ne), and each vector's first
    ``MAX_RECORDS`` positions (i, j)."""
    k = len(_point_neighbourhoods(nx * ne))
    counts, firsts = {}, {}
    for i in range(k):
        for j in range(k):
            key = pair_key(nx, ne, i, j)
            count = counts[key] = counts.get(key, 0) + 1
            if count <= MAX_RECORDS:
                firsts.setdefault(key, []).append((i, j))
    return (
        {_decode(key): n for key, n in counts.items()},
        {_decode(key): pos for key, pos in firsts.items()},
    )


def labelled_report(config: SearchConfig, claim_ids) -> ImplicationReport:
    """The implication report of an exhaustive config, from labelled counts;
    ``claim_ids`` may name registered claims or hold ``Claim`` objects."""
    sizes = config.factorizations()
    table = []
    total = 0
    for k, (nx, ne) in enumerate(sizes):
        counts, firsts = labelled_counts(nx, ne)
        total += len(_profiles(nx, ne)) ** 2
        for vec, n in counts.items():
            table.append((vec, n, [(k, i, j) for i, j in firsts[vec]]))
    results = {}
    for cid in claim_ids:
        c = cid if isinstance(cid, Claim) else get_claim(cid)
        res = results[c.id] = ClaimResult(c.id, tested=total)
        violating = []
        for facts, count, positions in table:
            if c.premise(facts):
                res.premise_hits += count
                if not c.conclusion(facts):
                    res.violation_count += count
                    violating += positions
        for k, i, j in sorted(violating)[:MAX_RECORDS]:
            nx, ne = sizes[k]
            ctx, opens = standard_context(nx, ne), _point_topologies(nx * ne)
            names = (ctx.universe.elements, ctx.parameters.parameters)
            res.records.append(CounterexampleRecord(c.id, *names, opens[i], opens[j]))
    return ImplicationReport(config.describe(), results)
