"""The one fact function: neighbourhood profiles, read per space or per orbit.

``profile`` summarises a soft topology over any context in integers read
off its minimal open neighbourhoods ``U``, and ``_pair_facts`` reads every
fact of a space off the profiles of its two topologies and the soft axioms
of their supremum, whose ``U_p`` is ``U1_p & U2_p``.  Every corpus goes
through that pair:

* ``space_facts`` profiles one space at a time, for explicit and random
  corpora, random-mode hunts and ``replay``;
* the exhaustive scan enumerates the topologies on |X|*|E| points as
  their ``U`` vectors, profiles each once per factorization (|X|, |E|),
  visits one pair per orbit of the relabellings of universe and
  parameters and weights it by the orbit's size; with |X| = 1 every fact
  holds on every pair, so those factorizations are one all-true item
  each; ``search`` describes what that guarantees for counts, records and
  hunts.

``search`` imports this module on the first verification, hunt or replay,
so ``import bisoft`` and the commands that check no claim do not load it.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .search import (
    EXHAUSTIVE_POINT_BOUND,
    Claim,
    ClaimResult,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    iter_spaces,
    record_for,
    standard_context,
)
from .softset import Context
from .space import BiSoftSpace
from .topology import (
    _row_neighbourhoods,
    _strongly_apart,
    _union_closure,
    _weakly_apart,
)

_MAX_RECORDS_PER_CLAIM = 3


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


def _pairwise(a: _Separation, b: _Separation) -> tuple[bool, bool, bool]:
    """Pairwise T0, T1 and T2 of two topologies over the same groups."""
    return not a.t0 & b.t0, not (a.fwd | b.bwd), not a.far & b.near


class _Profile(NamedTuple):
    """One soft topology over a context, read off its ``U``."""

    soft: tuple[bool, bool, bool]  # soft T0, T1, T2
    cor2: bool  # every row's complement is open
    whole: _Separation  # neighbourhoods N(x), weakly apart
    strong: _Separation  # neighbourhoods N(x), strongly apart
    slices: _Separation  # a group per parameter e, neighbourhoods block_e(U_(x,e))


def _whole(ctx: Context, nbhd: Sequence[int], apart=_weakly_apart) -> _Separation:
    """One group of every element, neighbourhoods N(x)."""
    return _separation([(nbhd, ctx.rows)], ctx.nx * ctx.ne, apart)


def profile(ctx: Context, u: Sequence[int]) -> _Profile:
    """The profile of the topology over ``ctx`` whose ``U_p`` is ``u[p]``.

    A row's complement is open when no ``U_p`` outside the row meets it,
    that is when the row misses ``far`` in its own slot.
    """
    nx, n, rows = ctx.nx, ctx.nx * ctx.ne, ctx.rows
    nbhd = _row_neighbourhoods(u, nx)
    whole = _whole(ctx, nbhd)
    points = [1 << x for x in range(nx)]
    slices = [
        ([u[e * nx + x] >> (e * nx) & ctx.block_mask for x in range(nx)], points)
        for e in range(ctx.ne)
    ]
    return _Profile(
        soft=_pairwise(whole, whole),
        cor2=not whole.far & sum(r << (x * n) for x, r in enumerate(rows)),
        whole=whole,
        strong=_whole(ctx, nbhd, _strongly_apart),
        slices=_separation(slices, n, _weakly_apart),
    )


# The facts the space claims read, in the order ``_pair_facts`` returns them.
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


def _pair_facts(p: _Profile, q: _Profile, sup_soft: tuple) -> tuple[bool, ...]:
    """Facts of the space (p, q) whose supremum has the soft axioms
    ``sup_soft``, in ``_PairFacts`` order.

    N1(x) is the smallest first-topology member around x and closure is
    monotone, so cl2(N1(x)) is both the best witness for the closure
    characterization, which needs it to miss every other row, and the
    point closure intersection of Corollary 1, which must equal x's row
    and always contains it.  cl2(A) = {p : U2_p meets A} meets y's row
    exactly when N2(y) meets A, so cl2(N1(x)) misses the other rows when
    N1(x) misses the second topology's ``far`` in x's slot.

    The subspace on Y has the neighbourhoods N(x) & Y's rows, so a test of
    x, y in Y that passes on X passes on Y: the T0 and T1 tests read only
    y's row, which lies in Y, and N1(x) & N2(y) & Y is empty when
    N1(x) & N2(y) is.  X is a subspace of itself, so the space is pairwise
    T0, T1 or T2 on every subspace exactly when it is on X.
    """
    w1, w2 = p.whole, q.whole
    s1, s2 = p.strong, q.strong
    l1, l2 = p.slices, q.slices
    pairwise = _pairwise(w1, w2)
    closure_t2 = not w1.near & w2.far
    return (
        *p.soft,
        *q.soft,
        *sup_soft,
        *pairwise,
        not s1.t0 & s2.t0,
        not (s1.fwd | s2.bwd),
        not l1.t0 & l2.t0,
        not (l1.fwd | l2.bwd),
        not l1.far & l2.near,
        *pairwise,
        closure_t2 == pairwise[2],
        closure_t2,
        p.cor2 and q.cor2,
    )


def space_facts(s: BiSoftSpace) -> _PairFacts:
    """The facts of one space, read off the ``U`` of its two topologies."""
    ctx, u1, u2 = s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods()
    sup = _whole(ctx, _row_neighbourhoods([a & b for a, b in zip(u1, u2)], ctx.nx))
    return _PairFacts(
        *_pair_facts(profile(ctx, u1), profile(ctx, u2), _pairwise(sup, sup))
    )


@lru_cache(maxsize=None)
def _point_neighbourhoods(n: int) -> tuple[tuple[int, ...], ...]:
    """Every topology on n points as its ``U``, in canonical order.

    A vector is the ``U`` of a topology exactly when p lies in U_p and q in
    U_p forces U_q inside U_p, that is when "q lies in U_p" is a preorder
    (Evans, Harary and Lynn, CACM 1967); the members are the unions of the
    U_p.  The vectors are built point by point, each U_p checked against
    the points before it, and sorted by their member family read as a
    bitset: listing the members in decreasing order compares families the
    way their bitsets do.
    """
    if not 1 <= n <= EXHAUSTIVE_POINT_BOUND:
        raise ValueError(
            f"exhaustive enumeration supports 1..{EXHAUSTIVE_POINT_BOUND} points"
        )
    vectors = [()]
    for p in range(n):
        vectors = [
            u + (up,)
            for u in vectors
            for up in range(1 << n)
            if up >> p & 1
            and all(
                (not up >> q & 1 or uq | up == up)
                and (not uq >> p & 1 or up | uq == uq)
                for q, uq in enumerate(u)
            )
        ]
    return tuple(
        sorted(vectors, key=lambda u: sorted(_union_closure(u), reverse=True))
    )


def _members(u: Sequence[int]) -> tuple[int, ...]:
    """The sorted members of the topology whose ``U`` is ``u``."""
    return tuple(sorted(_union_closure(u)))


@lru_cache(maxsize=None)
def _point_topologies(n: int) -> tuple[tuple[int, ...], ...]:
    """All topologies on n points as sorted member tuples, in canonical
    order; for ``iter_spaces`` and ``enumerate_topologies``."""
    return tuple(_members(u) for u in _point_neighbourhoods(n))


@lru_cache(maxsize=None)
def _profiles(nx: int, ne: int) -> tuple[_Profile, ...]:
    """Profiles of every topology on nx*ne points, in enumeration order.

    ``_point_neighbourhoods`` rejects nx*ne > EXHAUSTIVE_POINT_BOUND, so
    at most eight factorizations are ever cached.
    """
    ctx = standard_context(nx, ne)
    return tuple(profile(ctx, u) for u in _point_neighbourhoods(nx * ne))


@lru_cache(maxsize=None)
def _sup_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Index of the supremum of every ordered pair of topologies on n points.

    The supremum's U_p is U1_p & U2_p.  With each topology's U packed into
    one integer, n bits per point, that is one AND, and the packed U
    identifies the topology.  Shared by every factorization of n.
    """
    packed = [
        sum(up << (p * n) for p, up in enumerate(u)) for u in _point_neighbourhoods(n)
    ]
    index = {key: k for k, key in enumerate(packed)}
    return tuple(tuple([index[a & b] for b in packed]) for a in packed)


def _orbit_minima(
    perms: Sequence[array], k: int, scale: int = 1
) -> tuple[array, array]:
    """The minimum of each orbit of ``perms`` on range(k), in order, and
    the orbit's size times ``scale``; ``perms`` must be a group, so its
    orbit of j is {g[j] for g in perms}."""
    if len(perms) == 1:  # the trivial group: most stabilizers on 2x2
        return array("H", range(k)), array("H", [scale]) * k
    minima, sizes = array("H"), array("H")
    seen = bytearray(k)
    for j in range(k):
        if not seen[j]:
            orbit = {g[j] for g in perms}
            for t in orbit:
                seen[t] = 1
            minima.append(j)
            sizes.append(scale * len(orbit))
    return minima, sizes


@lru_cache(maxsize=None)
def _orbits(nx: int, ne: int) -> tuple[tuple[array, ...], tuple]:
    """The group G = S_nx x S_ne on the topologies of (nx, ne), relabelling
    point e * nx + x as tau(e) * nx + sigma(x), and the orbit
    representatives of the ordered topology pairs.  The image of a
    topology under g has the ``U`` with U'_g(p) = g(U_p).

    The facts of a space do not change under G, so the scan evaluates one
    pair per orbit and weights it by the orbit's size.  Returns
    ``(action, reps)``: ``action`` has one row per element of G, the index
    of the image of every topology; ``reps`` has one ``(i, js, weights)``
    per orbit minimum i of G on topologies, with the minima j of the
    orbits of Stab(i) on topologies and the size |G.i| * |Stab(i).j| of
    the orbit of (i, j).  Each such pair is the lexicographic minimum of
    its orbit, and every orbit has exactly one.  Kept in arrays: the
    37,918 representatives the 4x4 corpus scans take well under a megabyte.
    At most eight factorizations are ever cached, as for ``_profiles``.
    """
    n = nx * ne
    us = _point_neighbourhoods(n)
    index = {u: k for k, u in enumerate(us)}
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
                array("H", [index[tuple([relabel[u[p]] for p in source])] for u in us])
            )
    reps = tuple(
        (i, *_orbit_minima([g for g in action if g[i] == i], len(us), size))
        for i, size in zip(*_orbit_minima(action, len(us)))
    )
    return tuple(action), reps


_ALL_TRUE = (True,) * len(_PairFacts._fields)


def _representatives(config: SearchConfig):
    """((factorization index, i, j), orbit size, fact vector) for each orbit
    representative of an exhaustive corpus, in canonical order.

    With |X| = 1 there is no pair of distinct elements and the row's
    complement is empty, so every fact holds on every pair: such a
    factorization is one item, (k, 0, 0) with weight K^2 for its K
    topologies, and builds no profiles and no orbits.
    """
    for k, (nx, ne) in enumerate(config.factorizations()):
        if nx == 1:
            yield (k, 0, 0), len(_point_neighbourhoods(ne)) ** 2, _ALL_TRUE
            continue
        profiles = _profiles(nx, ne)
        softs = [q.soft for q in profiles]
        sups = _sup_table(nx * ne)
        for i, js, weights in _orbits(nx, ne)[1]:
            p, row = profiles[i], sups[i]
            for j, w in zip(js, weights):
                yield (k, i, j), w, _pair_facts(p, profiles[j], softs[row[j]])


def _pair_record(
    claim_id: str, config: SearchConfig, k: int, i: int, j: int
) -> CounterexampleRecord:
    nx, ne = config.factorizations()[k]
    ctx, us = standard_context(nx, ne), _point_neighbourhoods(nx * ne)
    names = (ctx.universe.elements, ctx.parameters.parameters)
    return CounterexampleRecord(claim_id, *names, _members(us[i]), _members(us[j]))


def _first_violation(
    config: SearchConfig, claim: Claim
) -> Optional[CounterexampleRecord]:
    """The first violating space of a corpus, in canonical or seed order.

    On exhaustive configs that is the first violating representative:
    every earlier space lies in the orbit of an earlier representative,
    and that representative did not violate.
    """
    if config.mode == "exhaustive":
        items = ((pos, vec) for pos, _, vec in _representatives(config))
    else:
        items = ((s, space_facts(s)) for s in iter_spaces(config))
    verdicts: dict = {}
    for pos, vec in items:
        bad = verdicts.get(vec)
        if bad is None:
            facts = _PairFacts(*vec)
            bad = verdicts[vec] = claim.premise(facts) and not claim.conclusion(facts)
        if bad:
            if config.mode == "exhaustive":
                return _pair_record(claim.id, config, *pos)
            return record_for(claim.id, pos)
    return None


def _report(
    corpus: str, claims: Sequence[Claim], items: Iterable, records: Callable
) -> ImplicationReport:
    """Run each claim once per distinct fact vector, weighted by its count.

    ``items`` yields (position, weight, fact vector), positions in corpus
    order; ``records(claim_id, positions)`` turns the first violating
    positions, at most ``_MAX_RECORDS_PER_CLAIM``, into records.
    """
    counts, firsts = {}, {}
    for pos, w, vec in items:
        counts[vec] = counts.get(vec, 0) + w
        reps = firsts.setdefault(vec, [])
        if len(reps) < _MAX_RECORDS_PER_CLAIM:
            reps.append(pos)
    total = sum(counts.values())
    table = [(_PairFacts(*vec), n, firsts[vec]) for vec, n in counts.items()]
    results = {}
    for c in claims:
        res = results[c.id] = ClaimResult(c.id, tested=total)
        violating = []
        for facts, count, positions in table:
            if c.premise(facts):
                res.premise_hits += count
                if not c.conclusion(facts):
                    res.violation_count += count
                    violating += positions
        res.records = records(c.id, sorted(violating)[:_MAX_RECORDS_PER_CLAIM])
    return ImplicationReport(corpus, results)


def _verify_over_spaces(
    spaces: Iterable[BiSoftSpace], claims: Sequence[Claim], corpus: str
) -> ImplicationReport:
    """The report of a corpus of explicit spaces; a position is (index,
    space), so the first violating positions give the records."""
    return _report(
        corpus,
        claims,
        (((k, s), 1, space_facts(s)) for k, s in enumerate(spaces)),
        lambda cid, positions: [record_for(cid, s) for _, s in positions],
    )


def _verify_exhaustive(
    config: SearchConfig, claims: Sequence[Claim]
) -> ImplicationReport:
    """The report of an exhaustive corpus.

    A claim's first three violating spaces lie in the orbits of its first
    three violating representatives (each representative is its orbit's
    minimum), so those orbits are expanded, sorted and cut to three.  An
    |X| = 1 item stands for every pair of its factorization, of which only
    the first three in canonical order can be records.
    """
    sizes = config.factorizations()

    def labelled(k, i, j):
        nx, ne = sizes[k]
        if nx == 1:
            n = len(_point_neighbourhoods(ne))
            first = range(min(n * n, _MAX_RECORDS_PER_CLAIM))
            return [(k, *divmod(t, n)) for t in first]
        return [(k, g[i], g[j]) for g in _orbits(nx, ne)[0]]

    def records(claim_id, positions):
        spaces = {space for pos in positions for space in labelled(*pos)}
        return [
            _pair_record(claim_id, config, *pos)
            for pos in sorted(spaces)[:_MAX_RECORDS_PER_CLAIM]
        ]

    return _report(config.describe(), claims, _representatives(config), records)
