"""Exhaustive and randomized search over small bi-soft topological spaces.

The workhorse is a reinterpretation: a soft set over (X, E) is one subset
of the product X x E, so a soft topology over (X, E) is exactly a
classical topology on |X|*|E| points.  Enumerating the topologies on up
to four points (1, 4, 29, 355 of them) therefore enumerates every soft
topology over every context with |X|*|E| <= 4, and because the packed
bitmask layout is shared by both readings the reinterpretation is the
identity on masks.  ``_point_neighbourhoods`` enumerates them as
preorders, their vectors of minimal open neighbourhoods ``U``.

A space claim in ``CLAIMS`` is a premise and a conclusion over named
facts of one space, and the registry is the only place a claim's logic
lives.  The fact kernel in ``scan`` produces the facts, off a profile of
integers read from each topology's minimal open neighbourhoods, as one
int per space with a bit per fact, the fact key: ``_pair_key`` keys one
space, and ``lane_keys`` many at once.  Each claim runs once per
distinct key, weighted by its count.  A
report reads a census, a dict from each distinct key to its count; a
violated claim's records and a hunt's counterexample both come from one
walk, ``_corpus``'s stream of the violating spaces in corpus order:

* explicit corpora and ``replay`` profile one space at a time;
* random corpora and random-mode hunts draw each space's two subbases
  from its seeds, in seed order, from the one seed stream of
  ``_random_pairs`` that ``random_space`` and ``random_spaces`` read too,
  and build a ``BiSoftSpace`` only for the records.  A corpus of few
  elements and many spaces is keyed in blocks of up to ``_BLOCK``
  spaces, in lanes: each subbasis slot's masks are transposed
  (``topology._columns``) into one bitset over the block per point, the
  ``U`` of every topology of the block follow in |X x E|^2 operations,
  and ``scan.lane_keys`` gives each key with the bitset of the block's
  spaces that have it.  Any other corpus keys each space alone, from the
  profiles of its two ``U`` through ``_pair_key``.  A lane profile keeps
  per-topology pair data, since one partner profile serves every row of
  an exhaustive factorization; a single profile keeps none, since it
  serves one space, whose T0 family ``_pair_key`` tests on the pair,
  and strong T0 only where it can hold.  ``_in_lanes`` chooses from the
  sizes alone.  A census counts the keys, and a claim's walk draws the
  corpus again up to the violations it is asked for, so a hunt stops at
  most one block past its first.  Nothing is
  kept between calls: a repeated call draws and keys every space again;
* the exhaustive scan keys each factorization (|X|, |E|) once.  Every
  fact is unchanged when the universe and the parameters are relabelled
  together, so the scan keys the pairs (i, j) of each orbit minimum i of
  S_|X| x S_|E| on the topologies against every j and weights them by
  the size of i's orbit, so counts stay exact labelled counts (Brinkmann
  and McKay, J. Integer Sequences, 2005); the orbits are walked once
  each, from their minima.  A row keys every partner j at once through
  ``scan.lane_keys``: the partners' lanes are the enumerated ``U``
  transposed (``_lanes``), profiled once per factorization, and i's are
  its ``U`` broadcast, every bit set or none, profiled the same way.  A
  claim's walk takes the factorizations in order; the first violating
  space of each is its least violating first position, and only the
  next two expand orbits, so a hunt builds no factorization past the
  first that holds a violation.  Each factorization's census is built
  once and kept, and so is each corpus's census, the factorizations' counts merged, so
  every exhaustive report and hunt after the first computes no lanes,
  and a report runs each claim once per distinct key (95 at 4x4); with
  |X| = 1 every fact holds on every pair, so those factorizations are
  one all-true key each.

A rough claim reads a reach vector and a target mask, and rough hunts
read reach vectors straight from pairs of ``U``.

The test suite compares the facts with a member-quantifying oracle
(``tests/member_oracle.py``) field by field, the scan's reports with the
per-space reports on whole small corpora, and its counts, reports and
hunts with an unreduced labelled scan (``tests/labelled_scan.py``).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import islice, permutations, product, zip_longest
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import UnknownClaimError
from .rough import _lower, _reach, _reaches, _upper
from .scan import (
    _ALL, _decode, _pair_key, _space_key, lane_keys, lane_profile, profile,
    space_facts,
)
from .softset import Context, SoftSet, _Value
from .space import BiSoftSpace
from .topology import (
    SoftTopology, _columns, _set_bits, _union_closure, minimal_neighbourhoods,
)

EXHAUSTIVE_POINT_BOUND = 4  # topologies on <= 4 points are enumerable (355 on 4)
# a random draw keeps a |X|*|E|-bit U_p per point, so its memory grows with
# the square of the points: the seed-0 draw peaks at 134 MB at 16,384 x 1
# and at 151 MB at 8,192 x 2 under CPython 3.11
RANDOM_POINT_BOUND = 1 << 14
_MAX_RECORDS_PER_CLAIM = 3


# ---------------------------------------------------------------------------
# enumeration of point topologies


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


def enumerate_topologies(n_points: int) -> Iterable[SoftTopology]:
    """Stream every topology on an n-point set exactly once, as a soft
    topology over n elements and one parameter."""
    ctx = standard_context(n_points, 1)
    for u in _point_neighbourhoods(n_points):
        yield SoftTopology._from_neighbourhoods(ctx, u)


def standard_context(nx: int, ne: int) -> Context:
    return Context.of(
        [f"x{i + 1}" for i in range(nx)], [f"e{j + 1}" for j in range(ne)]
    )


# ---------------------------------------------------------------------------
# randomized generation


def random_soft_set(ctx: Context, rng: random.Random) -> SoftSet:
    return SoftSet(ctx, rng.randrange(ctx.full_mask + 1))


def _random_subbases(ctx: Context, seeds: Iterable[int]) -> Iterator[tuple]:
    """The subbasis each seed draws: ``randint(0, 4)`` masks, each
    ``randrange(full_mask + 1)``, from one ``Random`` reseeded per seed.

    Both draws are spelled out as CPython's own rule for a value below m:
    ``getrandbits(m.bit_length())`` drawn again until it is below m, so
    the stream is the same.
    """
    rng, top = random.Random(), ctx.full_mask + 1
    bits, width = rng.getrandbits, top.bit_length()
    for seed in seeds:
        rng.seed(seed)
        size = bits(3)
        while size > 4:
            size = bits(3)
        subbasis = []
        for _ in range(size):
            m = bits(width)
            while m >= top:
                m = bits(width)
            subbasis.append(m)
        yield tuple(subbasis)


def _generated(ctx: Context, subbases: Iterable[tuple]) -> list[tuple]:
    """The ``U`` of the topology each subbasis generates: its minimal
    neighbourhoods, every ``U_p`` the full mask for an empty one."""
    n = ctx.nx * ctx.ne
    return [minimal_neighbourhoods(s, n) for s in subbases]


def _random_pairs(ctx: Context, count: int, seed: int) -> Iterator[tuple]:
    """The subbases of the two topologies of the spaces drawn from seeds
    ``seed`` to ``seed + count - 1``, in seed order: space k's topologies
    are drawn from seeds 2k and 2k + 1, so the stream reads seeds
    2 * seed to 2 * (seed + count) - 1.  Every random space and corpus is
    drawn here."""
    subbases = _random_subbases(ctx, range(2 * seed, 2 * (seed + count)))
    return zip(subbases, subbases)


def random_soft_topology(ctx: Context, seed: int) -> SoftTopology:
    """Topology generated by a seed-derived random subbasis.

    The subbasis size is uniform on 0..4 and each member is a uniform
    random soft set; identical (context, seed) always gives an identical
    member list.
    """
    (u,) = _generated(ctx, _random_subbases(ctx, [seed]))
    return SoftTopology._from_neighbourhoods(ctx, u)


def _space(ctx: Context, u: Sequence[tuple]) -> BiSoftSpace:
    """The space whose two topologies have the ``U`` vectors ``u``."""
    return BiSoftSpace(*(SoftTopology._from_neighbourhoods(ctx, ui) for ui in u))


def random_space(ctx: Context, seed: int) -> BiSoftSpace:
    """The space drawn from ``seed``: its topologies are the
    ``random_soft_topology`` of seeds 2 * seed and 2 * seed + 1."""
    return next(random_spaces(ctx, 1, seed))


def random_spaces(ctx: Context, count: int, seed: int) -> Iterator[BiSoftSpace]:
    """The spaces drawn from seeds ``seed`` to ``seed + count - 1``, in
    seed order and lazily (``_random_pairs``)."""
    for pair in _random_pairs(ctx, count, seed):
        yield _space(ctx, _generated(ctx, pair))


# Spaces keyed in lanes at once, at most this many: a hunt draws at most
# one block past its first violation.  _LANE_POINTS is a memory bound, not
# a speed one: a block's lanes hold |X x E|^2 ints of up to _BLOCK bits
# (164 bytes each) per topology, 0.67 MB at 64 points, and a 64-point
# census peaks at about 2.4 MB; a 1 x 1000 block would hold 164 MB.  So
# contexts of more points key each space alone, though at 65-160 points
# lanes are 2-5 times faster (the README's search engine section).
_BLOCK = 1024
_LANE_POINTS = 64


def _in_lanes(nx: int, ne: int, samples: int) -> bool:
    """Whether a random corpus of ``samples`` spaces at nx x ne is keyed in
    lanes, chosen from the sizes alone.  A block's lanes cost about
    |X|^2 + |X x E| times what keying one space alone does (timings in
    the README's search engine section)."""
    n = nx * ne
    return n <= _LANE_POINTS and nx * nx + n < min(samples, _BLOCK)


def _random_blocks(ctx: Context, samples: int, seed: int) -> Iterator[tuple]:
    """The ``samples`` spaces over ``ctx`` from ``seed`` on, in seed order,
    in blocks: each block as the cells of its fact keys, each distinct key
    to the bitset of the block's spaces that have it, and the two
    subbases of each space.

    ``_in_lanes`` chooses from the sizes alone: a block of lanes keys up to
    ``_BLOCK`` spaces at once (``_block_keys``), and otherwise each block is
    one space keyed alone (``_random_draws``).  No soft set, topology or
    space is built, and nothing is kept between calls.
    """
    pairs = _random_pairs(ctx, samples, seed)
    if not _in_lanes(ctx.nx, ctx.ne, samples):
        return _random_draws(ctx, pairs)
    size = min(samples, _BLOCK)
    blocks = iter(lambda: list(islice(pairs, size)), [])
    return ((_block_keys(ctx, block), block) for block in blocks)


def _block_keys(ctx: Context, block: list) -> dict[int, int]:
    """The cells of the spaces whose subbasis pairs are ``block``, keyed in
    lanes, one bit per space (``scan.lane_keys``)."""
    n, every = ctx.nx * ctx.ne, (1 << len(block)) - 1
    a, b = (lane_profile(ctx, _subbasis_lanes(n, s, every), every) for s in zip(*block))
    return lane_keys(ctx, a, b, every)


def _subbasis_lanes(n: int, subbases: Sequence[tuple], every: int) -> list[list[int]]:
    """The topologies on n points generated by ``subbases`` in lanes, int
    bitsets over them: bit j of ``lanes[p][q]`` is set when q lies in
    U_p of topology j; ``every`` holds every j.

    Each subbasis slot's masks are transposed into one lane per point
    (``topology._columns``).  q lies in U_p exactly when every member of
    the subbasis that holds p holds q, so the lane of q in U_p is the AND
    over slots of "the slot's mask misses p or holds q"; a missing slot
    is the empty mask, which constrains nothing.
    """
    lanes = [[every] * n for _ in range(n)]
    for masks in zip_longest(*subbases, fillvalue=0):
        held = _columns(masks, n)
        for hp, row in zip(held, lanes):
            if hp:
                row[:] = [v & (~hp | hq) for v, hq in zip(row, held)]
    return lanes


def _random_draws(ctx: Context, pairs: Iterable[tuple]) -> Iterator[tuple]:
    """Each space of a stream of subbasis pairs as a block of its own, its
    fact key and its pair, keyed alone from the profiles of the ``U`` of
    its two topologies."""
    for pair in pairs:
        p, q = (profile(ctx, u) for u in _generated(ctx, pair))
        yield {_pair_key(ctx, p, q): 1}, [pair]


# ---------------------------------------------------------------------------
# claim registry


class Claim(_Value):
    """An implication over spaces, read through their facts, or, for rough
    claims, over pairs of a reach vector and a target mask (``rough``).

    ``holds`` records whether the implication is expected to be valid;
    a counterexample is any instance where the premise holds and the
    conclusion fails.
    """

    __match_args__ = ("id", "kind", "holds", "description", "premise", "conclusion")

    def __init__(
        self,
        id: str,
        kind: str,  # "space" | "rough"
        holds: bool,
        description: str,
        premise: Callable,
        conclusion: Callable,
    ):
        self._set(id, kind, holds, description, premise, conclusion)


def _space_claim(cid, holds, desc, premise, conclusion):
    return Claim(cid, "space", holds, desc, premise, conclusion)


CLAIMS: dict[str, Claim] = {}

for _c in [
    _space_claim(
        "prop1",
        True,
        "pairwise soft T0 implies the supremum topology is soft T0",
        lambda f: f.pairwise_t0,
        lambda f: f.sup_soft_t0,
    ),
    _space_claim(
        "prop2",
        True,
        "either component soft T0 implies pairwise soft T0",
        lambda f: f.t1_soft_t0 or f.t2_soft_t0,
        lambda f: f.pairwise_t0,
    ),
    _space_claim(
        "prop3",
        True,
        "pairwise soft T1 implies the supremum topology is soft T1",
        lambda f: f.pairwise_t1,
        lambda f: f.sup_soft_t1,
    ),
    _space_claim(
        "prop4-forward",
        True,
        "pairwise soft T1 implies both components are soft T1",
        lambda f: f.pairwise_t1,
        lambda f: f.t1_soft_t1 and f.t2_soft_t1,
    ),
    _space_claim(
        "prop4-backward",
        True,
        "both components soft T1 implies pairwise soft T1",
        lambda f: f.t1_soft_t1 and f.t2_soft_t1,
        lambda f: f.pairwise_t1,
    ),
    _space_claim(
        "prop5-t2-t1",
        True,
        "pairwise soft T2 implies pairwise soft T1",
        lambda f: f.pairwise_t2,
        lambda f: f.pairwise_t1,
    ),
    _space_claim(
        "prop5-t1-t0",
        True,
        "pairwise soft T1 implies pairwise soft T0",
        lambda f: f.pairwise_t1,
        lambda f: f.pairwise_t0,
    ),
    _space_claim(
        "strong-t0-propagation",
        True,
        "complement-strength T0 separation implies pairwise soft T0 and "
        "pairwise T0 in every slice",
        lambda f: f.strong_t0,
        lambda f: f.pairwise_t0 and f.slices_pw_t0,
    ),
    _space_claim(
        "strong-t1-propagation",
        True,
        "complement-strength T1 separation implies pairwise soft T1 and "
        "pairwise T1 in every slice",
        lambda f: f.strong_t1,
        lambda f: f.pairwise_t1 and f.slices_pw_t1,
    ),
    _space_claim(
        "hereditary-t0",
        True,
        "pairwise soft T0 passes to every bi-soft subspace; holds on every "
        "pair of topologies, as a subspace on Y reads N(x) & Y",
        lambda f: f.pairwise_t0,
        lambda f: f.hereditary_t0,
    ),
    _space_claim(
        "hereditary-t1",
        True,
        "pairwise soft T1 passes to every bi-soft subspace; holds on every "
        "pair of topologies, as a subspace on Y reads N(x) & Y",
        lambda f: f.pairwise_t1,
        lambda f: f.hereditary_t1,
    ),
    _space_claim(
        "hereditary-t2",
        True,
        "pairwise soft T2 passes to every bi-soft subspace; holds on every "
        "pair of topologies, as a subspace on Y reads N(x) & Y",
        lambda f: f.pairwise_t2,
        lambda f: f.hereditary_t2,
    ),
    _space_claim(
        "t2-slice-propagation",
        True,
        "pairwise soft T2 implies pairwise T2 in every slice",
        lambda f: f.pairwise_t2,
        lambda f: f.slices_pw_t2,
    ),
    _space_claim(
        "thm1-equivalence",
        True,
        "the closure characterization agrees with pairwise soft T2; holds on "
        "every pair of topologies, as cl2(N1(x)) meets y's row iff N2(y) "
        "meets N1(x)",
        lambda f: True,
        lambda f: f.thm1_agrees,
    ),
    _space_claim(
        "cor1-point-closure",
        True,
        "on pairwise soft T2 spaces the point closure intersection is the "
        "point soft set; holds on every pair of topologies, as that "
        "intersection is cl2(N1(x))",
        lambda f: f.pairwise_t2,
        lambda f: f.cor1_ok,
    ),
    _space_claim(
        "cor2-point-complement-open",
        True,
        "on pairwise soft T2 spaces point soft set complements are open in "
        "both topologies, so both are soft T2: for y != x, N2(y) misses "
        "N1(x), which holds x's row, so the union of those N2(y) is the "
        "complement of x's row, and likewise of the N1(y)",
        lambda f: f.pairwise_t2,
        lambda f: f.cor2_ok,
    ),
    # Known gaps: the converse directions that fail, each witnessed by a
    # shipped fixture or by exhaustive search.
    _space_claim(
        "pairwise-t0-implies-components-soft-t0",
        False,
        "pairwise soft T0 would force a component to be soft T0",
        lambda f: f.pairwise_t0,
        lambda f: f.t1_soft_t0 or f.t2_soft_t0,
    ),
    _space_claim(
        "sup-soft-t0-implies-pairwise-t0",
        False,
        "a soft T0 supremum topology would force pairwise soft T0",
        lambda f: f.sup_soft_t0,
        lambda f: f.pairwise_t0,
    ),
    _space_claim(
        "pairwise-t0-implies-slices-pw-t0",
        False,
        "pairwise soft T0 would force every slice to be pairwise T0",
        lambda f: f.pairwise_t0,
        lambda f: f.slices_pw_t0,
    ),
    _space_claim(
        "sup-soft-t1-implies-pairwise-t1",
        False,
        "a soft T1 supremum topology would force pairwise soft T1",
        lambda f: f.sup_soft_t1,
        lambda f: f.pairwise_t1,
    ),
    _space_claim(
        "pairwise-t1-implies-slices-pw-t1",
        False,
        "pairwise soft T1 would force every slice to be pairwise T1",
        lambda f: f.pairwise_t1,
        lambda f: f.slices_pw_t1,
    ),
    _space_claim(
        "pairwise-t0-implies-pairwise-t1",
        False,
        "pairwise soft T0 would force pairwise soft T1",
        lambda f: f.pairwise_t0,
        lambda f: f.pairwise_t1,
    ),
    _space_claim(
        "pairwise-t1-implies-pairwise-t2",
        False,
        "pairwise soft T1 would force pairwise soft T2",
        lambda f: f.pairwise_t1,
        lambda f: f.pairwise_t2,
    ),
    _space_claim(
        "sup-soft-t2-implies-pairwise-t2",
        False,
        "a soft T2 supremum topology would force pairwise soft T2",
        lambda f: f.sup_soft_t2,
        lambda f: f.pairwise_t2,
    ),
    Claim(
        "lower-idempotence-equality",
        "rough",
        False,
        "the lower approximation would be idempotent (equality)",
        lambda r, a: True,
        lambda r, a: _lower(r, _lower(r, a)) == _lower(r, a),
    ),
    Claim(
        "upper-idempotence-equality",
        "rough",
        False,
        "the upper approximation would be idempotent (equality)",
        lambda r, a: True,
        lambda r, a: _upper(r, _upper(r, a)) == _upper(r, a),
    ),
]:
    CLAIMS[_c.id] = _c

CLAIM_ALIASES = {
    # pairwise soft T2 forcing both components soft T2 is cor2 itself
    "pairwise-t2-implies-components-soft-t2": "cor2-point-complement-open",
    "rough-item-11-equality": "lower-idempotence-equality",
    "rough-item-12-equality": "upper-idempotence-equality",
}

TRUE_CLAIM_IDS = tuple(c.id for c in CLAIMS.values() if c.holds)
GAP_CLAIM_IDS = tuple(c.id for c in CLAIMS.values() if not c.holds)


def get_claim(claim_id: str) -> Claim:
    cid = CLAIM_ALIASES.get(claim_id, claim_id)
    try:
        return CLAIMS[cid]
    except KeyError:
        known = sorted(set(CLAIMS) | set(CLAIM_ALIASES))
        raise UnknownClaimError(claim_id, *known) from None


# ---------------------------------------------------------------------------
# search configuration and corpora


class SearchConfig(_Value):
    """Bounds and mode for a search run.

    Exhaustive mode walks every factorization (|X|, |E|) within the
    bounds whose product stays at or below four points; random mode
    draws seeded spaces at exactly (max_universe, n_params), at most
    ``RANDOM_POINT_BOUND`` points.
    """

    __match_args__ = ("max_universe", "n_params", "mode", "samples", "seed")

    def __init__(
        self,
        max_universe: int,
        n_params: int,
        mode: str = "exhaustive",  # "exhaustive" | "random"
        samples: int = 0,
        seed: int = 0,
    ):
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_universe < 1 or n_params < 1:
            raise ValueError("sizes must be positive")
        if mode == "exhaustive":
            if max_universe > EXHAUSTIVE_POINT_BOUND:
                raise ValueError(
                    "exhaustive mode is limited to universes of at most "
                    f"{EXHAUSTIVE_POINT_BOUND} elements"
                )
        if mode == "random" and samples < 1:
            raise ValueError("random mode needs a positive sample count")
        if mode == "random" and max_universe * n_params > RANDOM_POINT_BOUND:
            raise ValueError(
                f"random mode is limited to {RANDOM_POINT_BOUND} points (|X| * |E|)"
            )
        if seed < 0:
            # random.seed(-k) seeds like k: seed -1 would draw the
            # topologies of seeds 2 and 1 (its own are -2 and -1)
            raise ValueError("the seed must not be negative")
        self._set(max_universe, n_params, mode, samples, seed)

    def factorizations(self) -> list[tuple[int, int]]:
        if self.mode == "random":
            return [(self.max_universe, self.n_params)]
        out = [
            (nx, ne)
            for nx in range(1, self.max_universe + 1)
            for ne in range(1, min(self.n_params, EXHAUSTIVE_POINT_BOUND // nx) + 1)
        ]
        return sorted(out, key=lambda p: (p[0] * p[1], p[0]))

    def describe(self) -> str:
        if self.mode == "random":
            return (
                f"random:{self.samples} spaces at |X|={self.max_universe},"
                f"|E|={self.n_params}, seed={self.seed}"
            )
        sizes = ",".join(f"{nx}x{ne}" for nx, ne in self.factorizations())
        return f"exhaustive:{sizes}"


# ---------------------------------------------------------------------------
# counterexample records


class CounterexampleRecord(_Value):
    """A claim violation, carrying enough of the space to replay it."""

    __match_args__ = (
        "claim_id", "universe", "parameters", "t1_masks", "t2_masks",
        "target_mask", "note",
    )

    def __init__(
        self,
        claim_id: str,
        universe: tuple[str, ...],
        parameters: tuple[str, ...],
        t1_masks: tuple[int, ...],
        t2_masks: tuple[int, ...],
        target_mask: Optional[int] = None,
        note: str = "",
    ):
        self._set(claim_id, universe, parameters, t1_masks, t2_masks, target_mask, note)

    def context(self) -> Context:
        return Context.of(self.universe, self.parameters)

    def space(self) -> BiSoftSpace:
        """The recorded space; raises ``InvalidTopologyError`` when a mask
        family is not a topology."""
        ctx = self.context()
        return BiSoftSpace(
            *(
                SoftTopology(ctx, [SoftSet(ctx, m) for m in masks])
                for masks in (self.t1_masks, self.t2_masks)
            )
        )

    def target(self) -> Optional[SoftSet]:
        if self.target_mask is None:
            return None
        return SoftSet(self.context(), self.target_mask)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "universe": list(self.universe),
            "parameters": list(self.parameters),
            "t1": list(self.t1_masks),
            "t2": list(self.t2_masks),
            "target": self.target_mask,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CounterexampleRecord":
        return cls(
            claim_id=d["claim"],
            universe=tuple(d["universe"]),
            parameters=tuple(d["parameters"]),
            t1_masks=tuple(d["t1"]),
            t2_masks=tuple(d["t2"]),
            target_mask=d.get("target"),
            note=d.get("note", ""),
        )


def record_for(
    claim_id: str, space: BiSoftSpace, target: Optional[SoftSet] = None, note: str = ""
) -> CounterexampleRecord:
    ctx = space.context
    return CounterexampleRecord(
        claim_id=claim_id,
        universe=ctx.universe.elements,
        parameters=ctx.parameters.parameters,
        t1_masks=space.t1.masks(),
        t2_masks=space.t2.masks(),
        target_mask=None if target is None else target.mask,
        note=note,
    )


def replay(record: CounterexampleRecord) -> bool:
    """Re-run the claim's checker on the record; True iff it still refutes.
    A rough claim reads the recorded space's reach vector and the target."""
    claim = get_claim(record.claim_id)
    space = record.space()
    if claim.kind == "rough":
        target = record.target()
        if target is None:
            return False
        reach, a = _reaches(space), target.mask
        return claim.premise(reach, a) and not claim.conclusion(reach, a)
    facts = space_facts(space)
    return claim.premise(facts) and not claim.conclusion(facts)


# ---------------------------------------------------------------------------
# exhaustive censuses


@lru_cache(maxsize=None)
def _relabellings(nx: int, ne: int) -> tuple[tuple[list, list], ...]:
    """The group G = S_nx x S_ne, relabelling point e * nx + x as
    tau(e) * nx + sigma(x): each g as ``(source, image)``, with
    g(source[q]) = q and ``image[m]`` the image of mask m.  The image of
    a topology under g has the ``U`` with U'_g(p) = g(U_p)."""
    n, out = nx * ne, []
    for sigma, tau in product(permutations(range(nx)), permutations(range(ne))):
        g = [tau[p // nx] * nx + sigma[p % nx] for p in range(n)]
        image = [sum(1 << g[p] for p in _set_bits(m)) for m in range(1 << n)]
        out.append((sorted(range(n), key=g.__getitem__), image))
    return tuple(out)


@lru_cache(maxsize=None)
def _index(n: int) -> dict:
    """The place of each topology on n points, by its ``U``."""
    return {u: k for k, u in enumerate(_point_neighbourhoods(n))}


def _images(nx: int, ne: int, i: int) -> list[int]:
    """The image of topology i of (nx, ne) under each g in G, in the order
    of ``_relabellings``, so the images of a pair (i, j) are ``zip`` of
    those of i and of j."""
    u, index = _point_neighbourhoods(nx * ne)[i], _index(nx * ne)
    return [index[tuple([g[u[p]] for p in src])] for src, g in _relabellings(nx, ne)]


@lru_cache(maxsize=None)
def _orbits(nx: int, ne: int) -> tuple[tuple, tuple]:
    """The orbits of G on the topologies of (nx, ne), as ``(minima,
    sizes)``: each orbit's minimum, in order, and its size.

    The topologies are walked in order, and the first of an orbit met is
    its minimum, whose images under G are the whole orbit; so each orbit
    is walked once, from its minimum, and no table of G's action on every
    topology is kept.  The facts of a space do not change under G, so the
    pairs (g(i), j) for all j have the keys of the pairs (i, j) for all j,
    and the census keys the rows of orbit minima alone; a report then
    runs each claim once per distinct key (95 at 4x4).  At most eight
    factorizations are ever cached, as for ``_tally``.
    """
    seen, sizes = set(), {}
    for i in range(len(_point_neighbourhoods(nx * ne))):
        if i not in seen:
            orbit = set(_images(nx, ne, i))
            seen |= orbit
            sizes[i] = len(orbit)
    return tuple(sizes), tuple(sizes.values())


@lru_cache(maxsize=None)
def _lanes(n: int) -> list[list[int]]:
    """The topologies on n points in lanes (``_subbasis_lanes``): a
    topology's ``U`` is a subbasis of it.  At most four point counts are
    ever cached."""
    us = _point_neighbourhoods(n)
    return _subbasis_lanes(n, us, (1 << len(us)) - 1)


@lru_cache(maxsize=None)
def _tally(nx: int, ne: int) -> dict:
    """The census of factorization (nx, ne): each distinct fact key of its
    pairs to ``[count, *positions]``, the labelled number of pairs with
    the key and its first positions (i, j), at most three, in the rows of
    orbit minima.

    The row of orbit minimum i keys every partner j at once, in lanes
    over j (``scan.lane_keys``): the partners' lane profile is computed
    once per factorization from ``_lanes``, and i's from its ``U``
    broadcast as constant lanes, every bit set or none.  Each cell is one
    key of the row, so its count is the cell's bit count and its first
    positions are the cell's lowest bits.  Every row of G.i holds the
    keys of i's row, so a key's count is the sum over rows of its count
    there times the orbit's size.  Every pair lies in the orbit of a pair
    of some minimum's row that comes no later in canonical order, so the
    first k labelled pairs with a key lie in the orbits of its first k
    positions, and its first labelled pair is its first position; only a
    claim's exhaustive walk in ``_corpus`` reads the positions.  With
    |X| = 1 there is no pair of distinct elements and the row's
    complement is empty, so every fact holds on every pair: that census
    is one all-true key at the first three pairs, and builds no orbits or
    lanes.  ``_census`` merges the factorizations' counts, so a report
    runs each claim once per distinct key (95 at 4x4).  At most eight
    factorizations are ever cached, as ``_point_neighbourhoods`` rejects
    more than ``EXHAUSTIVE_POINT_BOUND`` points; a census is never changed
    once built, so two threads that build one at once build equal ones.
    """
    n = nx * ne
    us = _point_neighbourhoods(n)
    if nx == 1:
        k = len(us)
        first = range(k * k)[:_MAX_RECORDS_PER_CLAIM]
        return {_ALL: [k * k, *(divmod(t, k) for t in first)]}
    ctx, every = standard_context(nx, ne), (1 << len(us)) - 1
    partners = lane_profile(ctx, _lanes(n), every)
    census: dict = {}
    for i, size in zip(*_orbits(nx, ne)):
        row = [[every * (up >> q & 1) for q in range(n)] for up in us[i]]
        row = lane_profile(ctx, row, every)
        for key, js in lane_keys(ctx, row, partners, every).items():
            entry = census.setdefault(key, [0])
            entry[0] += js.bit_count() * size
            if len(entry) <= _MAX_RECORDS_PER_CLAIM:
                room = _MAX_RECORDS_PER_CLAIM + 1 - len(entry)
                entry += [(i, j) for j in islice(_set_bits(js), room)]
    return census


@lru_cache(maxsize=None)
def _census(sizes: tuple[tuple[int, int], ...]) -> Counter:
    """The census of the exhaustive corpus of factorizations ``sizes``:
    each distinct key of its pairs to its count, merged from the counts
    of the factorizations' censuses.

    A census is kept per tuple of factorizations, and there are at most
    16: ``max_x`` is at most four, and ``params`` past four adds none.
    """
    census: Counter = Counter()
    for size in sizes:
        for key, (count, *_) in _tally(*size).items():
            census[key] += count
    return census


# ---------------------------------------------------------------------------
# implication verification


class ClaimResult(_Value, frozen=False):
    __match_args__ = (
        "claim_id", "tested", "premise_hits", "violation_count", "records",
    )

    def __init__(
        self,
        claim_id: str,
        tested: int = 0,
        premise_hits: int = 0,
        violation_count: int = 0,
        records: Optional[list] = None,
    ):
        records = [] if records is None else records
        self._set(claim_id, tested, premise_hits, violation_count, records)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "tested": self.tested,
            "premise_hits": self.premise_hits,
            "violations": self.violation_count,
            "records": [r.to_dict() for r in self.records],
        }


class ImplicationReport(_Value, frozen=False):
    __match_args__ = ("corpus", "results")

    def __init__(self, corpus: str, results: dict[str, ClaimResult]):
        self._set(corpus, results)

    @property
    def ok(self) -> bool:
        return all(r.violation_count == 0 for r in self.results.values())

    def to_json(self) -> str:
        payload = {
            "corpus": self.corpus,
            "ok": self.ok,
            "results": {
                cid: self.results[cid].to_dict() for cid in sorted(self.results)
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _report(
    claims: Sequence[Claim], corpus: str, census: Callable, violations: Callable
) -> ImplicationReport:
    """Run each claim once per distinct fact key of a corpus (95 at 4x4),
    weighted by its count, off the triple ``_corpus`` returns; a violated
    claim's records are the first ``_MAX_RECORDS_PER_CLAIM`` spaces of
    its violations stream."""
    table = [(_decode(key), count) for key, count in census().items()]
    total = sum(count for _, count in table)
    results = {}
    for c in claims:
        hits = violated = 0
        for facts, count in table:
            if c.premise(facts):
                hits += count
                if not c.conclusion(facts):
                    violated += count
        records = islice(violations(c), _MAX_RECORDS_PER_CLAIM) if violated else ()
        results[c.id] = ClaimResult(c.id, total, hits, violated, list(records))
    return ImplicationReport(corpus, results)


def _violates(claim: Claim, key: int) -> bool:
    facts = _decode(key)
    return claim.premise(facts) and not claim.conclusion(facts)


def _corpus(corpus: Union[SearchConfig, Iterable[BiSoftSpace]]) -> tuple:
    """A corpus as ``(description, census, violations)``: ``census()`` maps
    each distinct fact key of its spaces to their count, and
    ``violations(claim)`` is a lazy stream of the records of the spaces
    that violate a space claim, in corpus order, so a hunt stops at its
    first.  Each stream tests each distinct key once.

    Explicit corpora key each space once, and random configs walk their
    blocks (``_random_blocks``) for the census and again for each stream:
    a block's cells are counted by their bit counts, and a stream takes
    the violating cells' bits lowest first.  Exhaustive configs read the
    kept census of their factorizations, and each stream walks the
    factorizations in canonical order: a factorization's first violating
    space is its least violating first position in ``_tally``, and its
    second and third lie in the orbits of its first three violating
    positions, which alone are expanded once the first is taken.  The
    stream holds every violating space of a factorization with fewer
    than three, so its first three are the corpus's.
    """
    if isinstance(corpus, SearchConfig) and corpus.mode == "exhaustive":
        sizes = tuple(corpus.factorizations())

        def violations(c):
            violates = lru_cache(maxsize=None)(partial(_violates, c))
            for nx, ne in sizes:
                tally = _tally(nx, ne).items()
                positions = [entry[1:] for key, entry in tally if violates(key)]
                if not positions:
                    continue
                ctx, us = standard_context(nx, ne), _point_neighbourhoods(nx * ne)
                i, j = min(ijs[0] for ijs in positions)
                yield record_for(c.id, _space(ctx, (us[i], us[j])))
                firsts = sorted(ij for ijs in positions for ij in ijs)
                pairs = set()
                for i, j in firsts[:_MAX_RECORDS_PER_CLAIM]:
                    pairs.update(zip(_images(nx, ne, i), _images(nx, ne, j)))
                for i, j in sorted(pairs)[1:_MAX_RECORDS_PER_CLAIM]:
                    yield record_for(c.id, _space(ctx, (us[i], us[j])))

        return corpus.describe(), partial(_census, sizes), violations
    if isinstance(corpus, SearchConfig):
        ctx = standard_context(corpus.max_universe, corpus.n_params)
        description = corpus.describe()
        walk = partial(_random_blocks, ctx, corpus.samples, corpus.seed)

        def space(pair):
            return _space(ctx, _generated(ctx, pair))

    else:
        spaces = list(corpus)
        if not spaces:
            raise ValueError("corpus must not be empty")
        description = f"explicit:{len(spaces)} spaces"
        keyed = [({_space_key(s): 1}, [s]) for s in spaces]
        walk, space = partial(iter, keyed), lambda s: s

    def census():
        counts: Counter = Counter()
        for cells, _ in walk():
            for key, js in cells.items():
                counts[key] += js.bit_count()
        return counts

    def violations(c):
        violates = lru_cache(maxsize=None)(partial(_violates, c))
        for cells, xs in walk():
            bad = reduce(or_, [js for key, js in cells.items() if violates(key)], 0)
            for j in _set_bits(bad):
                yield record_for(c.id, space(xs[j]))

    return description, census, violations


def verify_implications(
    corpus: Union[SearchConfig, Iterable[BiSoftSpace]],
    claim_ids: Optional[Sequence[str]] = None,
) -> ImplicationReport:
    """Check space claims over a corpus; violations are data, not errors.

    ``claim_ids`` defaults to every claim expected to hold; gap claims may
    be named too.  Every corpus is read by the fact kernel in ``scan``,
    off the minimal open neighbourhoods of each topology, and its census
    counts each distinct fact key, so each claim runs once per key; the
    records of a violated claim are the first three of the one ordered
    walk ``find_counterexample`` takes.  Random configs are keyed from
    their seeded subbasis draws, in blocks of lanes or one space at a
    time.  Exhaustive configs key the rows of orbit minima of the
    relabellings of universe and parameters in lanes and weight them by
    orbit size, so ``tested``, ``premise_hits`` and violation counts are
    exact labelled counts.  Rough claims quantify
    over targets as well as spaces and are rejected here;
    ``find_counterexample`` searches them.
    """
    ids = tuple(claim_ids) if claim_ids is not None else TRUE_CLAIM_IDS
    if not ids:
        raise ValueError("no claims to verify")
    claims = [get_claim(cid) for cid in ids]
    rough = [c.id for c in claims if c.kind == "rough"]
    if rough:
        raise ValueError(f"rough claims {rough} need targets; use find_counterexample")
    return _report(claims, *_corpus(corpus))


def find_counterexample(
    claim_id: str, config: SearchConfig
) -> Optional[CounterexampleRecord]:
    """First space (in canonical or seed order) refuting the claim, if any.

    A space claim takes the first record of its violations stream
    (``_corpus``): random configs key their draws up to the first
    violation, exhaustive ones read the census of each factorization in
    turn, and no later factorization is built.  Rough claims try the
    targets of each space (random configs: one seeded target each) in
    ``_find_rough_counterexample``.
    """
    claim = get_claim(claim_id)
    if claim.kind == "rough":
        return _find_rough_counterexample(claim, config)
    _, _, violations = _corpus(config)
    return next(violations(claim), None)


def _find_rough_counterexample(
    claim: Claim, config: SearchConfig
) -> Optional[CounterexampleRecord]:
    """The first (space, target) refuting a rough claim.

    A rough claim reads a space only through its reach vector
    (``rough._reach``), computed here from the two ``U`` vectors, and a
    space is built only for the record.  A random hunt draws the ``U`` of
    each space from its seeds and one target from ``Random(seed + 7919)``.
    An exhaustive hunt walks the pairs of ``U`` of each factorization in
    canonical order and tries every target of a reach vector the first
    time it meets it: every target passed on the earlier pair, and would
    pass again.  Both rough claims' hunts at ``--max-x 4 --params 4`` walk
    907 pairs with 10 reach vectors before their first violation.
    """

    def record(ctx, u, mask):
        return record_for(claim.id, _space(ctx, u), target=SoftSet(ctx, mask))

    if config.mode == "random":
        ctx = standard_context(config.max_universe, config.n_params)
        rng, top = random.Random(config.seed + 7919), ctx.full_mask + 1
        for pair in _random_pairs(ctx, config.samples, config.seed):
            u = _generated(ctx, pair)
            reach, mask = _reach(ctx, *u), rng.randrange(top)
            if claim.premise(reach, mask) and not claim.conclusion(reach, mask):
                return record(ctx, u, mask)
        return None
    for nx, ne in config.factorizations():
        ctx, passed = standard_context(nx, ne), set()
        us = _point_neighbourhoods(nx * ne)
        for u in product(us, repeat=2):
            reach = _reach(ctx, *u)
            if reach in passed:
                continue
            passed.add(reach)
            for mask in range(ctx.full_mask + 1):
                if claim.premise(reach, mask) and not claim.conclusion(reach, mask):
                    return record(ctx, u, mask)
    return None
