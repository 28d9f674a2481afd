"""Unreduced labelled scan: the reference for the orbit scan in
``bisoft.search``.

It walks every ordered topology pair of every factorization, counts the
pairs per fact vector and keeps each vector's first three positions, the
way the exhaustive scan did before it walked one pair per symmetry orbit.
Each pair's facts come from the same profiles and fact key as the one
space keyed alone, whose supremum has the pointwise intersection of the
pair's ``U``; the dual-route tests check those against the member
oracle.

It also keeps ``group_action``, the full action of the relabellings of
universe and parameters on every topology, the reference for the orbit
walk in ``bisoft.search``, and the member views of the enumeration that only the tests
read: ``_point_topologies``, each topology as its sorted members, and
``as_soft_topology``, the soft topology those members form;
``iter_spaces``, every space of a config in canonical or seed order; and
``plain_rough_hunt``, the rough hunt that walks those spaces and tries
every target of each (one seeded target in random mode), the reference
for the hunt that reads reach vectors straight from pairs of ``U``.
"""

import random
from functools import lru_cache
from itertools import permutations

from bisoft.scan import _decode, _pair_key, profile
from bisoft.search import (
    Claim,
    ClaimResult,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    _point_neighbourhoods,
    get_claim,
    random_spaces,
    record_for,
    standard_context,
)
from bisoft.rough import _reaches
from bisoft.space import BiSoftSpace
from bisoft.softset import SoftSet
from bisoft.topology import SoftTopology, _union_closure

MAX_RECORDS = 3


@lru_cache(maxsize=None)
def _point_topologies(n):
    """All topologies on n points as sorted member tuples, in canonical
    order."""
    return tuple(tuple(sorted(_union_closure(u))) for u in _point_neighbourhoods(n))


def as_soft_topology(opens, ctx):
    """Reinterpret a topology on |X|*|E| points as the soft topology its
    members form."""
    return SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in sorted(set(opens))))


def iter_spaces(config: SearchConfig):
    """Every space of a config, in canonical or seed order."""
    if config.mode == "random":
        ctx = standard_context(config.max_universe, config.n_params)
        yield from random_spaces(ctx, config.samples, config.seed)
        return
    for nx, ne in config.factorizations():
        ctx = standard_context(nx, ne)
        topos = [
            SoftTopology._from_neighbourhoods(ctx, u)
            for u in _point_neighbourhoods(nx * ne)
        ]
        for t1 in topos:
            for t2 in topos:
                yield BiSoftSpace(t1, t2)


@lru_cache(maxsize=None)
def group_action(nx, ne):
    """The group S_nx x S_ne as one row per element, the index of the image
    of every topology of (nx, ne): the relabelling sends point e * nx + x
    to tau(e) * nx + sigma(x), and a topology's image has U'_g(p) = g(U_p).
    """
    n = nx * ne
    us = _point_neighbourhoods(n)
    action = []
    for sigma in permutations(range(nx)):
        for tau in permutations(range(ne)):
            image = [tau[p // nx] * nx + sigma[p % nx] for p in range(n)]
            relabel = [
                sum(1 << image[p] for p in range(n) if m >> p & 1)
                for m in range(1 << n)
            ]
            source = sorted(range(n), key=image.__getitem__)  # g(source[q]) = q
            action.append(
                [_index(n)[tuple([relabel[u[p]] for p in source])] for u in us]
            )
    return action


@lru_cache(maxsize=None)
def _index(n):
    return {u: k for k, u in enumerate(_point_neighbourhoods(n))}


def pair_key(nx, ne, i, j):
    """The fact key of the pair (i, j) of topologies over (nx, ne)."""
    ctx, profiles = _profiles(nx, ne)
    return _pair_key(ctx, profiles[i], profiles[j])


@lru_cache(maxsize=None)
def _profiles(nx, ne):
    """The context of (nx, ne) and the profile of each of its topologies,
    in canonical order."""
    ctx = standard_context(nx, ne)
    return ctx, [profile(ctx, u) for u in _point_neighbourhoods(nx * ne)]


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
        total += len(_point_neighbourhoods(nx * ne)) ** 2
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


def plain_rough_hunt(claim_id, config: SearchConfig):
    """The first (space, target) of a config, in canonical or seed order,
    that refutes a rough claim: every target of every space of an
    exhaustive config, and of a random one the target that
    ``Random(seed + 7919)`` draws for each space in turn."""
    claim = get_claim(claim_id)
    rng = random.Random(config.seed + 7919)
    for s in iter_spaces(config):
        top = s.context.full_mask + 1
        masks = [rng.randrange(top)] if config.mode == "random" else range(top)
        reach = _reaches(s)
        for mask in masks:
            if claim.premise(reach, mask) and not claim.conclusion(reach, mask):
                return record_for(claim.id, s, target=SoftSet(s.context, mask))
    return None
