"""The exhaustive scan: neighbourhood profiles and symmetry orbits.

Every enumerated topology is summarised once per factorization (|X|, |E|)
in a profile of integers read off its minimal open neighbourhoods, and
the scan reads the facts of a topology pair off two profiles and the
profile of their supremum.  It visits one pair per orbit of the
relabellings of universe and parameters and weights it by the orbit's
size; ``search`` describes what that guarantees for counts, records and
hunts.  ``search`` imports this module on the first exhaustive call, so
``import bisoft`` and the commands that never scan do not load it.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, reduce
from itertools import permutations
from operator import or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .search import (
    _MAX_RECORDS_PER_CLAIM,
    Claim,
    ClaimResult,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    _point_topologies,
    standard_context,
)
from .topology import (
    _row_neighbourhoods,
    _strongly_apart,
    _weakly_apart,
    minimal_neighbourhoods,
)


class _Separation(NamedTuple):
    """Separation bitsets of one topology over groups of points.

    A group lists the points of one space with their smallest open
    neighbourhoods and their rows.  Bit k is the k-th ordered pair (x, y)
    of distinct points of a group: ``t0`` sets it when neither point is
    apart from the other, ``fwd`` when x is not apart from y, and ``bwd``
    when y is not apart from x.  Each slot of ``near`` holds one point's
    neighbourhood, and the same slot of ``far`` the union of the
    neighbourhoods of the other points of its group.

    For two topologies over the same groups, pairwise T0 fails where both
    ``t0`` have a bit, T1 where the first ``fwd`` or the second ``bwd`` has
    one, and T2 (N1(x) and N2(y) disjoint for every ordered pair) where
    the first ``far`` meets the second ``near``.  A topology's soft axioms
    are its pairwise axioms with itself.
    """

    t0: int
    fwd: int
    bwd: int
    near: int
    far: int


def _separation(groups, width: int, apart: Callable[[int, int], bool]) -> _Separation:
    """``apart(nbhd_x, row_y)`` decides whether x is separated from y."""
    t0 = fwd = bwd = near = far = bit = shift = 0
    for nbhds, rows in groups:
        for y, nbhd_y in enumerate(nbhds):
            others = 0
            for x, nbhd_x in enumerate(nbhds):
                if x != y:
                    others |= nbhd_x
                    xy, yx = apart(nbhd_x, rows[y]), apart(nbhd_y, rows[x])
                    t0 |= (not (xy or yx)) << bit
                    fwd |= (not xy) << bit
                    bwd |= (not yx) << bit
                    bit += 1
            near |= nbhd_y << shift
            far |= others << shift
            shift += width
    return _Separation(t0, fwd, bwd, near, far)


class _Profile(NamedTuple):
    """One enumerated topology read over a factorization (|X|, |E|).

    Closures are read off U: cl(A) = {p : U_p meets A}.  They enter as
    two tables with one bit per element x and mask A, at x * 2^n + A:
    ``closure_escapes`` when cl(A) meets a row other than x's, and
    ``closure_not_row`` when cl(A) is not x's row.  ``nbhd_index`` sets
    the bit of (x, N(x)) for every element, so ANDing it with another
    topology's table tests cl2(N1(x)) for every x at once.
    """

    soft: tuple[bool, bool, bool]  # soft T0, T1, T2
    cor2: bool  # every row's complement is open
    whole: _Separation  # neighbourhoods N(x), weakly apart
    strong: _Separation  # neighbourhoods N(x), strongly apart
    slices: _Separation  # a group per parameter e, neighbourhoods block_e(U_(x,e))
    subspaces: _Separation  # a group per nonempty sub-universe Y, N(x) & Y's rows
    nbhd_index: int
    closure_escapes: int
    closure_not_row: int


@lru_cache(maxsize=None)
def _profiles(nx: int, ne: int) -> tuple[_Profile, ...]:
    """Profiles of every topology on nx*ne points, in enumeration order.

    ``_point_topologies`` rejects nx*ne > EXHAUSTIVE_POINT_BOUND, so at
    most eight factorizations are ever cached.
    """
    n = nx * ne
    span = 1 << n  # masks per element in the closure tables
    ctx = standard_context(nx, ne)
    rows = ctx.rows
    points = [1 << x for x in range(nx)]
    subuniverses = []
    for ym in range(1, 1 << nx):
        keep = [x for x in range(nx) if ym >> x & 1]
        subuniverses.append((keep, reduce(or_, [rows[x] for x in keep])))
    out = []
    for opens in _point_topologies(n):
        u = minimal_neighbourhoods(opens, n)
        nbhd = _row_neighbourhoods(u, nx)
        whole = _separation([(nbhd, rows)], n, _weakly_apart)
        slices = [
            ([u[e * nx + x] >> (e * nx) & ctx.block_mask for x in range(nx)], points)
            for e in range(ne)
        ]
        subspaces = [
            ([nbhd[x] & kept for x in keep], [rows[x] for x in keep])
            for keep, kept in subuniverses
        ]
        closure = [sum(1 << p for p in range(n) if u[p] & a) for a in range(span)]
        nbhd_index = escapes = not_row = 0
        for x, r in enumerate(rows):
            nbhd_index |= 1 << (x * span + nbhd[x])
            for a, c in enumerate(closure):
                escapes |= bool(c & ~r) << (x * span + a)
                not_row |= (c != r) << (x * span + a)
        out.append(
            _Profile(
                soft=(not whole.t0, not whole.fwd, not whole.far & whole.near),
                cor2=all(ctx.full_mask ^ r in opens for r in rows),
                whole=whole,
                strong=_separation([(nbhd, rows)], n, _strongly_apart),
                slices=_separation(slices, n, _weakly_apart),
                subspaces=_separation(subspaces, n, _weakly_apart),
                nbhd_index=nbhd_index,
                closure_escapes=escapes,
                closure_not_row=not_row,
            )
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _sup_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Index of the supremum of every ordered pair of topologies on n points.

    The supremum's U_p is U1_p & U2_p.  With each topology's U packed into
    one integer, n bits per point, that is one AND, and the packed U
    identifies the topology.  Shared by every factorization of n.
    """
    packed = [
        sum(u << (p * n) for p, u in enumerate(minimal_neighbourhoods(opens, n)))
        for opens in _point_topologies(n)
    ]
    index = {key: k for k, key in enumerate(packed)}
    return tuple(tuple(index[a & b] for b in packed) for a in packed)


# The attributes of ``SpaceFacts`` that the space claims read, in the order
# ``_pair_facts`` returns them.
_PairFacts = NamedTuple(
    "_PairFacts",
    [
        (name, bool)
        for name in "t1_soft_t0 t1_soft_t1 t1_soft_t2 t2_soft_t0 t2_soft_t1 "
        "t2_soft_t2 sup_soft_t0 sup_soft_t1 sup_soft_t2 pairwise_t0 pairwise_t1 "
        "pairwise_t2 strong_t0 strong_t1 slices_pw_t0 slices_pw_t1 slices_pw_t2 "
        "hereditary_t0 hereditary_t1 hereditary_t2 thm1_agrees cor1_ok cor2_ok".split()
    ],
)


def _pair_facts(p: _Profile, q: _Profile, sup: _Profile) -> tuple[bool, ...]:
    """Facts of the space (p, q) whose supremum is ``sup``, in ``_PairFacts`` order.

    N1(x) is the smallest first-topology member around x and closure is
    monotone, so cl2(N1(x)) is both the best witness for the closure
    characterization, which needs it to miss every other row, and the
    point closure intersection of Corollary 1, which must equal x's row.
    """
    w1, w2 = p.whole, q.whole
    s1, s2 = p.strong, q.strong
    l1, l2 = p.slices, q.slices
    h1, h2 = p.subspaces, q.subspaces
    pairwise_t2 = not w1.far & w2.near
    return p.soft + q.soft + sup.soft + (
        not w1.t0 & w2.t0,
        not (w1.fwd | w2.bwd),
        pairwise_t2,
        not s1.t0 & s2.t0,
        not (s1.fwd | s2.bwd),
        not l1.t0 & l2.t0,
        not (l1.fwd | l2.bwd),
        not l1.far & l2.near,
        not h1.t0 & h2.t0,
        not (h1.fwd | h2.bwd),
        not h1.far & h2.near,
        (not p.nbhd_index & q.closure_escapes) == pairwise_t2,
        not p.nbhd_index & q.closure_not_row,
        p.cor2 and q.cor2,
    )


def _orbit_minima(perms: Sequence[array], k: int) -> Iterable[tuple[int, int]]:
    """(minimum, size) of each orbit of ``perms`` on range(k), in order;
    ``perms`` must be a group, so its orbit of j is {g[j] for g in perms}."""
    if len(perms) == 1:  # the trivial group: most stabilizers on 2x2
        yield from zip(range(k), [1] * k)
        return
    seen = bytearray(k)
    for j in range(k):
        if not seen[j]:
            orbit = {g[j] for g in perms}
            for t in orbit:
                seen[t] = 1
            yield j, len(orbit)


@lru_cache(maxsize=None)
def _orbits(nx: int, ne: int) -> tuple[tuple[array, ...], tuple]:
    """The group G = S_nx x S_ne on the topologies of (nx, ne), relabelling
    point e * nx + x as tau(e) * nx + sigma(x), and the orbit
    representatives of the ordered topology pairs.

    The facts of a space do not change under G, so the scan evaluates one
    pair per orbit and weights it by the orbit's size.  Returns
    ``(action, reps)``: ``action`` has one row per element of G, the index
    of the image of every topology; ``reps`` has one ``(i, js, weights)``
    per orbit minimum i of G on topologies, with the minima j of the
    orbits of Stab(i) on topologies and the size |G.i| * |Stab(i).j| of
    the orbit of (i, j).  Each such pair is the lexicographic minimum of
    its orbit, and every orbit has exactly one.  Kept in arrays: the
    44,060 representatives of the 4x4 corpus take well under a megabyte.
    At most eight factorizations are ever cached, as for ``_profiles``.
    """
    n = nx * ne
    opens = _point_topologies(n)
    index = {t: k for k, t in enumerate(opens)}
    action = []
    for sigma in permutations(range(nx)):
        for tau in permutations(range(ne)):
            image = [tau[p // nx] * nx + sigma[p % nx] for p in range(n)]
            relabel = [
                sum(1 << image[p] for p in range(n) if m >> p & 1)
                for m in range(1 << n)
            ]
            action.append(
                array("H", (index[tuple(sorted(relabel[m] for m in t))] for t in opens))
            )
    reps = []
    for i, size in _orbit_minima(action, len(opens)):
        stabilizer = [g for g in action if g[i] == i]
        js, weights = array("H"), array("H")
        for j, j_size in _orbit_minima(stabilizer, len(opens)):
            js.append(j)
            weights.append(size * j_size)
        reps.append((i, js, weights))
    return tuple(action), tuple(reps)


def _representatives(config: SearchConfig):
    """(factorization index, i, j, orbit size, fact vector) for each orbit
    representative of an exhaustive corpus, in canonical order."""
    for k, (nx, ne) in enumerate(config.factorizations()):
        profiles = _profiles(nx, ne)
        sups = _sup_table(nx * ne)
        for i, js, weights in _orbits(nx, ne)[1]:
            p, row = profiles[i], sups[i]
            for j, w in zip(js, weights):
                yield k, i, j, w, _pair_facts(p, profiles[j], profiles[row[j]])


def _scan(config: SearchConfig) -> tuple[int, dict, dict]:
    """Count the spaces of an exhaustive corpus per distinct fact vector.

    Returns the number of spaces, the count per vector, and per vector its
    first ``_MAX_RECORDS_PER_CLAIM`` orbit representatives (factorization
    index, i, j).  Each representative adds its orbit's size, so the
    counts are exact labelled counts.
    """
    counts: dict = {}
    firsts: dict = {}
    for k, i, j, w, vec in _representatives(config):
        counts[vec] = counts.get(vec, 0) + w
        reps = firsts.setdefault(vec, [])
        if len(reps) < _MAX_RECORDS_PER_CLAIM:
            reps.append((k, i, j))
    total = sum(
        len(_point_topologies(nx * ne)) ** 2 for nx, ne in config.factorizations()
    )
    return total, counts, firsts


def _pair_record(
    claim_id: str, nx: int, ne: int, i: int, j: int
) -> CounterexampleRecord:
    ctx, opens = standard_context(nx, ne), _point_topologies(nx * ne)
    names = (ctx.universe.elements, ctx.parameters.parameters)
    return CounterexampleRecord(claim_id, *names, opens[i], opens[j])


def _first_violation(
    config: SearchConfig, claim: Claim
) -> Optional[CounterexampleRecord]:
    """The first violating representative, which is the first violating
    space in canonical order: every earlier space lies in the orbit of an
    earlier representative, and that representative did not violate."""
    verdicts: dict = {}
    sizes = config.factorizations()
    for k, i, j, _, vec in _representatives(config):
        bad = verdicts.get(vec)
        if bad is None:
            facts = _PairFacts(*vec)
            bad = verdicts[vec] = claim.premise(facts) and not claim.conclusion(facts)
        if bad:
            return _pair_record(claim.id, *sizes[k], i, j)
    return None


def _verify_exhaustive(
    config: SearchConfig, claims: Sequence[Claim]
) -> ImplicationReport:
    """Run each claim once per distinct fact vector, weighted by its count.

    A claim's first three violating spaces lie in the orbits of its first
    three violating representatives (each representative is its orbit's
    minimum), so those orbits are expanded, sorted and cut to three.
    """
    total, counts, firsts = _scan(config)
    sizes = config.factorizations()
    table = [(_PairFacts(*vec), n, firsts[vec]) for vec, n in counts.items()]
    results = {}
    for c in claims:
        res = results[c.id] = ClaimResult(c.id, tested=total)
        violating = []
        for facts, count, reps in table:
            if c.premise(facts):
                res.premise_hits += count
                if not c.conclusion(facts):
                    res.violation_count += count
                    violating += reps
        spaces = {
            (k, g[i], g[j])
            for k, i, j in sorted(violating)[:_MAX_RECORDS_PER_CLAIM]
            for g in _orbits(*sizes[k])[0]
        }
        for k, i, j in sorted(spaces)[:_MAX_RECORDS_PER_CLAIM]:
            res.records.append(_pair_record(c.id, *sizes[k], i, j))
    return ImplicationReport(config.describe(), results)
