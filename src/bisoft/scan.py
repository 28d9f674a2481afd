"""The one fact function: neighbourhood profiles, read per space or per orbit.

``profile`` summarises a soft topology over any context in integers read
off its minimal open neighbourhoods ``U``, and ``_pair_key`` reads every
fact of a space off the profiles of its two topologies and the soft axioms
of their supremum, whose ``U_p`` is ``U1_p & U2_p``, as one int, the fact
key.  Bit k of a key is field k of ``_PairFacts``:

* bits 0-2 and 3-5 are soft T0, T1, T2 of the first and second topology,
  and 6-8 those of the supremum;
* 9-11 pairwise T0, T1, T2; 12-13 strong T0, T1; 14-16 pairwise T0, T1,
  T2 of the slices; 17-19 the hereditary T0, T1, T2, set with 9-11;
* 20 ``thm1_agrees``, 21 ``cor1_ok`` (the closure test) and 22 ``cor2_ok``.

On a finite model only the T0 family needs both topologies at once.  If
a space is pairwise soft T2 and (z, e) lies in N1(x) with z != x, then
N1(x) meets N2(z), which holds z's row; so every N1(x), and likewise
every N2(x), is x's row (Alexandroff 1937; Stong 1966).  So pairwise
and hereditary T2, the closure test of Theorem 1 (cl2(N1(x)) misses the
other rows) and Corollary 1 (it is x's row) hold exactly when both
topologies are soft T2, and ``thm1_agrees`` always holds.  Strong T1
(no N(x) meets another row) and Corollary 2 (every row's complement is
open) ask every N(x) of both topologies to miss the other rows, which is
both being soft T2 too.  One topology is soft T2 when its ``N(x)``, each
holding x's row, have |X x E| bits in all.  A finite T1 topology is
discrete, so a slice is T2 exactly when it is T1.

A topology settles all of these alone, with its soft axioms and its T1
tests, and a profile keeps them in two keys, one for each place in a
space, whose AND is the space's share of them.  The T0 family is tested
on the pair of topologies: a space is pairwise T0 when the pairs
``(N1(x), N2(x))`` are distinct, its slices when the pairs of ``U_p``
cut to p's block are, and strong T0 ANDs one bitset of each topology
(``_Profile``).  A profile is computed in a few passes over the elements
and points, and a space's supremum contributes its three soft bits
alone.  What a profile reads of a context, its block mask and each
point's block, is computed once per context, in a ``_Kernel``.  Every
corpus goes through ``_pair_key``, and each claim reads the
``_PairFacts`` of a distinct key, decoded once.  A report reads a
census, a dict from each distinct key to its count and its first
positions:

* ``space_facts`` profiles one space at a time, for explicit corpora
  and ``replay``;
* random corpora and random-mode hunts key each space from the ``U``
  of its two topologies as its seeds draw them, in seed order, and
  build a ``BiSoftSpace`` only for the records.  One draw in five or so
  is the indiscrete topology (every ``U_p`` the full mask), so a call
  profiles it once and every draw equal to it reuses that profile; with
  an indiscrete component the supremum is the other topology, whose
  soft bits its profile holds.  Nothing is kept between calls: a
  repeated call draws and keys every space again;
* the exhaustive scan enumerates the topologies on |X|*|E| points as
  their ``U`` vectors and profiles each once per factorization (|X|,
  |E|).  The relabellings of universe and parameters change no fact, so
  the scan keys the pairs (i, j) of each orbit minimum i among the
  topologies against every j and weights them by the size of i's orbit.
  Topologies with equal profiles give equal keys, and the supremum's
  bits are ORed in last, so it calls ``_pair_key`` once per pair of
  profile classes met.  Each factorization's census is built once and
  kept; with |X| = 1 every fact holds on every pair, so those
  factorizations are one all-true key each.  ``search`` describes what
  that guarantees for counts, records and hunts; every exhaustive report
  and hunt after the first reads the kept censuses and calls no
  ``_pair_key``.

The public checkers of ``axioms`` read their verdicts off the same key
too, through ``space_verdicts``, which also reads each parameter's slice
off the two profiles.

``search`` imports this module on the first verification, hunt or replay,
and ``axioms`` on the first verdict.  ``import bisoft`` loads no submodule,
and the commands that decide nothing (``validate``, ``sup``, ``subspace``
and ``rough``) load neither this module nor ``search``.  This module
imports the names it needs of ``search`` in the functions that build
reports, records and random draws, so a checker's verdict, and the
``axioms`` and ``slice`` commands, load neither ``search`` nor ``rough``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache
from itertools import permutations
from operator import and_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .softset import Context
from .space import BiSoftSpace
from .topology import _row_neighbourhoods, _union_closure

if TYPE_CHECKING:
    from .search import Claim, CounterexampleRecord, ImplicationReport, SearchConfig

_MAX_RECORDS_PER_CLAIM = 3


# The facts the space claims read; bit k of a fact key is field k.
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


def _bits(*names: str) -> int:
    """The fact key in which exactly the named facts hold."""
    return sum(1 << _PairFacts._fields.index(name) for name in names)


@lru_cache(maxsize=1024)  # the 379,790 spaces on four points have 95 keys
def _decode(key: int) -> _PairFacts:
    """The named facts of a key."""
    return _PairFacts(*[bool(key >> k & 1) for k in range(len(_PairFacts._fields))])


_ALL = (1 << len(_PairFacts._fields)) - 1
_SOFT = 0b111  # soft T0, T1, T2, as ``_soft`` returns them
_T2_SOFT = _PairFacts._fields.index("t2_soft_t0")  # the second topology's soft bits
_SUP = _PairFacts._fields.index("sup_soft_t0")  # and the supremum's start here
_PW_T0 = _bits("pairwise_t0", "hereditary_t0")
_PW_T1 = _bits("pairwise_t1", "hereditary_t1")
# what both topologies being soft T2 settles, and both having T1 slices
_T2 = _bits("pairwise_t2", "hereditary_t2", "strong_t1", "cor1_ok", "cor2_ok")
_SLICES_T1 = _bits("slices_pw_t1", "slices_pw_t2")
_STRONG_T0, _SLICES_T0 = _bits("strong_t0"), _bits("slices_pw_t0")
_THM1 = _bits("thm1_agrees")


class _Profile(NamedTuple):
    """One soft topology over a context, read off its ``U``.

    ``first`` and ``second`` are fact keys holding what the topology
    settles alone as the first or the second topology of a space, with
    every bit the other topology settles set, so that a space's keys AND
    to the facts its topologies settle apart: the soft axioms, pairwise
    T1, which needs both topologies soft T1, and the facts that hold
    exactly when both topologies are soft T2 or both have T1 slices (the
    module docstring).  Every slice is T1 when the ``U_p`` cut to p's
    block, each holding p, have |X x E| bits in all.

    The T0 fields are what ``_pair_key`` reads of the T0 family, from
    the containment masks of each element x: ``cont(x)``, the elements
    whose row ``N(x)`` contains (the AND of ``N(x)``'s parameter blocks),
    and ``meet(x)``, those whose row it meets (their OR).  A topology
    leaves x and y unseparated when each is in the other's mask.  Since y
    is in cont(x) exactly when ``N(y) ⊆ N(x)``, x and y are each in the
    other's ``cont`` exactly when ``N(x) = N(y)``; so a space is pairwise
    T0 exactly when the pairs ``(N1(x), N2(x))`` are distinct, and ``t0``
    is the ``N(x)`` vector.
    Likewise a slice is a topology on X with the neighbourhoods
    ``block_e(U_(x,e))``, and ``slice_t0`` is each ``U_p`` cut to p's
    block; points of two blocks never share a cut ``U_p``.  ``meet`` has
    no such shortcut, so ``strong_t0`` is the bitset of the pairs x < y
    each in the other's ``meet``, bit x * |X| + y, and ``_pair_key`` ANDs
    two of them.  With one parameter, meeting a row is containing it, so
    strong T0 is pairwise T0 and ``strong_t0`` is None.
    """

    soft: int  # soft T0, T1, T2 as bits 0, 1, 2
    first: int
    second: int
    t0: tuple[int, ...]  # N(x) for each element x
    strong_t0: int | None  # pairs x < y each in the other's meet
    slice_t0: tuple[int, ...]  # U_p cut to p's block for each point p


# Split points between the paths below, from timings on CPython 3.11:
# ORing values into place one by one beats pairwise merging up to about
# 200 slots; walking meet masks bit by bit beats transposing them as text
# up to about 24.
_BY_VALUE = 192
_WALKED = 24


def _place(vals: Sequence[int], width: int) -> int:
    """``vals[i]`` in slot i of ``width`` bits.  Past ``_BY_VALUE`` values,
    neighbouring slots are merged pairwise, so each round copies the
    result's bits once and the whole takes about log2(len(vals)) copies
    rather than one per value."""
    if len(vals) <= _BY_VALUE:
        out = 0
        for i, v in enumerate(vals):
            if v:
                out |= v << i * width
        return out
    vals = list(vals)
    while len(vals) > 1:
        pairs = zip(vals[::2], vals[1::2])
        vals = [a | b << width for a, b in pairs] + vals[len(vals) & ~1 :]
        width *= 2
    return vals[0]


def _mutual_pairs(masks: Sequence[int]) -> int:
    """Bit x * len(masks) + y for each pair x < y each in the other's mask,
    placed one row at a time.

    Row x is x's mask above x ANDed with the column of the masks at x.
    Up to ``_WALKED`` masks are walked bit by bit; more are transposed as
    text: the masks written as binary digits one after another, whose
    every k-th digit is a column.
    """
    k = len(masks)
    if k <= _WALKED:
        bits = 0
        for x, m in enumerate(masks):
            row, y, m = 0, x, m >> x + 1
            while m:  # y walks the bits of x's mask above x
                y += 1
                if m & 1 and masks[y] >> x & 1:
                    row |= 1 << y
                m >>= 1
            if row:
                bits |= row << (x * k)
        return bits
    digits = "".join([format(m, f"0{k}b") for m in reversed(masks)])
    columns = [int(digits[k - 1 - x :: k], 2) for x in range(k)]
    rows = [m & c >> x + 1 << x + 1 for x, (m, c) in enumerate(zip(masks, columns))]
    return _place(rows, k)


class _Kernel:
    """``profile`` and the supremum's soft axioms over one context, with
    what they read of the context computed once: a block's mask, the
    parameter blocks' starts and each point's block."""

    __slots__ = "nx", "n", "ne", "block", "starts", "own"

    def __init__(self, ctx: Context):
        nx, n = ctx.nx, ctx.nx * ctx.ne
        self.nx, self.n, self.ne = nx, n, ctx.ne
        self.block = ctx.block_mask
        self.starts = range(nx, n, nx)
        self.own = [ctx.block_mask << (p - p % nx) for p in range(n)]

    def _soft(self, nbhd: Sequence[int]) -> int:
        """Soft T0, T1 and T2, as bits 0, 1 and 2, of the topology whose
        ``N(x)`` are ``nbhd``.

        The topology is T0 when the ``N(x)`` are distinct, T2 when no
        ``N(x)`` meets another and T1 when every cont(x) is {x}.  N(x)
        holds x's row, so the ``N(x)`` are disjoint exactly when each is
        x's row, that is when they have |X x E| bits in all; then each
        cont(x) is {x}, and T2 implies T1.  N(x) = N(y) puts y in cont(x),
        so T1 implies T0, and without T0 there is no soft bit to compute.
        """
        if len(set(nbhd)) < self.nx:
            return 0
        if sum(map(int.bit_count, nbhd)) == self.n:
            return 0b111
        cont = [v & self.block for v in nbhd]
        for s in self.starts:
            cont = [c & v >> s for c, v in zip(cont, nbhd)]
        return 1 | (sum(map(int.bit_count, cont)) == self.nx) << 1

    def soft(self, u: Sequence[int]) -> int:
        """Soft T0, T1 and T2, as bits 0, 1 and 2, of the topology ``u``."""
        return self._soft(_row_neighbourhoods(u, self.nx))

    def profile(self, u: Sequence[int]) -> _Profile:
        """See ``profile``."""
        nbhd = _row_neighbourhoods(u, self.nx)
        soft = self._soft(nbhd)
        strong_t0 = None
        if self.ne > 1:
            meets = [v & self.block for v in nbhd]
            for s in self.starts:
                meets = [m | v >> s & self.block for m, v in zip(meets, nbhd)]
            strong_t0 = _mutual_pairs(meets)
        own = tuple(map(and_, u, self.own))
        alone = (
            (soft >> 1 & 1) * _PW_T1
            | (soft >> 2) * _T2
            | (sum(map(int.bit_count, own)) == self.n) * _SLICES_T1
            | _THM1
        )
        return _Profile(
            soft,
            soft | _SOFT << _T2_SOFT | alone,
            _SOFT | soft << _T2_SOFT | alone,
            nbhd,
            strong_t0,
            own,
        )

    def key(self, u1: Sequence[int], u2: Sequence[int]) -> int:
        """The fact key of the space whose topologies are ``u1`` and ``u2``;
        its supremum's ``U_p`` is ``U1_p & U2_p``."""
        sup = self.soft(list(map(and_, u1, u2)))
        return _pair_key(self.profile(u1), self.profile(u2), sup << _SUP)


@lru_cache(maxsize=8)
def _kernel(ctx: Context) -> _Kernel:
    """The kernel of a context, kept for the last few contexts met: it
    holds constants only, never a profile or a key."""
    return _Kernel(ctx)


def profile(ctx: Context, u: Sequence[int]) -> _Profile:
    """The profile of the topology over ``ctx`` whose ``U_p`` is ``u[p]``.

    With one parameter the slice is the topology itself, so ``slice_t0``
    repeats ``t0``, and strong T0 is pairwise T0.  Otherwise the slices
    sit side by side as the ``U_p`` cut to their own blocks, and the
    slice at e is T1 when each of block e's is {p}.
    """
    return _kernel(ctx).profile(u)


def _pair_key(p: _Profile, q: _Profile, sup_bits: int) -> int:
    """The fact key of the space (p, q) whose supremum's soft axioms are
    ``sup_bits``, already in bits ``_SUP`` to ``_SUP + 2``.

    The facts each topology settles alone, every fact but the T0 family
    (the module docstring), come from ANDing ``p.first`` with
    ``q.second``.  The space is pairwise T0 when either topology is soft
    T0, its ``N(x)`` being distinct, or the pairs ``(N1(x), N2(x))`` are
    distinct; its slices are pairwise T0 when the pairs of cut ``U_p``
    are; and it is strong T0 when the two ``strong_t0`` bitsets share no
    bit, or, with one parameter, when it is pairwise T0 (``_Profile``).

    The subspace on Y has the neighbourhoods N(x) & Y's rows, so a test of
    x, y in Y that passes on X passes on Y: the T0 and T1 tests read only
    y's row, which lies in Y, and N1(x) & N2(y) & Y is empty when
    N1(x) & N2(y) is.  X is a subspace of itself, so the space is pairwise
    T0, T1 or T2 on every subspace exactly when it is on X, and each
    hereditary bit is set with its pairwise bit.
    """
    key = p.first & q.second | sup_bits
    t0 = (p.soft | q.soft) & 1 or _distinct(p.t0, q.t0)
    if t0:
        key |= _PW_T0
    if t0 if p.strong_t0 is None else not p.strong_t0 & q.strong_t0:
        key |= _STRONG_T0
    if _distinct(p.slice_t0, q.slice_t0):
        key |= _SLICES_T0
    return key


def _distinct(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the pairs ``(a[i], b[i])`` are distinct."""
    return len(set(zip(a, b))) == len(a)


def _space_key(s: BiSoftSpace) -> int:
    """The fact key of one space, read off the ``U`` of its two topologies."""
    return _kernel(s.context).key(s.t1.neighbourhoods(), s.t2.neighbourhoods())


def space_facts(s: BiSoftSpace) -> _PairFacts:
    """The facts of one space, decoded from its key."""
    return _decode(_space_key(s))


def space_verdicts(s: BiSoftSpace) -> tuple[_PairFacts, dict[str, dict[str, bool]]]:
    """The facts of one space, and the pairwise T0, T1 and T2 of the
    slice at each parameter, read off one profile of each topology; the
    public checkers of ``axioms`` read every verdict here.

    Block e's points are the places e*nx to (e+1)*nx - 1 of the cut
    vectors ``slice_t0``.  The slice at e is pairwise T0 when the pairs of
    its cut ``U_p`` are distinct, and pairwise T1 when both topologies'
    slices are T1, their cut ``U_p`` having 2*nx bits in all; then it is
    pairwise T2 as well, since a finite T1 topology is discrete.
    """
    kernel = _kernel(s.context)
    u1, u2 = s.t1.neighbourhoods(), s.t2.neighbourhoods()
    p, q = kernel.profile(u1), kernel.profile(u2)
    facts = _decode(_pair_key(p, q, kernel.soft(list(map(and_, u1, u2))) << _SUP))
    nx, slices = kernel.nx, {}
    for e, name in enumerate(s.context.parameters.parameters):
        block = slice(e * nx, e * nx + nx)
        cut1, cut2 = p.slice_t0[block], q.slice_t0[block]
        t1 = sum(map(int.bit_count, cut1 + cut2)) == 2 * nx
        slices[name] = {"t0": _distinct(cut1, cut2), "t1": t1, "t2": t1}
    return facts, slices


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
    from .search import EXHAUSTIVE_POINT_BOUND

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
def _profiles(nx: int, ne: int) -> tuple[_Profile, ...]:
    """Profiles of every topology on nx*ne points, in enumeration order.

    ``_point_neighbourhoods`` rejects nx*ne > EXHAUSTIVE_POINT_BOUND, so
    at most eight factorizations are ever cached.
    """
    from .search import standard_context

    kernel = _kernel(standard_context(nx, ne))
    return tuple(map(kernel.profile, _point_neighbourhoods(nx * ne)))


def _orbit_minima(perms: Sequence[array], k: int) -> tuple[tuple, tuple]:
    """The minimum of each orbit of ``perms`` on range(k), in order, and
    the orbit's size; ``perms`` must be a group, so its orbit of j is
    {g[j] for g in perms}, and j is met before the rest of its orbit
    exactly when it is the orbit's minimum."""
    sizes = {min(o): len(o) for o in ({g[j] for g in perms} for j in range(k))}
    return tuple(sizes), tuple(sizes.values())


@lru_cache(maxsize=None)
def _orbits(nx: int, ne: int) -> tuple[tuple[array, ...], tuple, tuple]:
    """The group G = S_nx x S_ne on the topologies of (nx, ne), relabelling
    point e * nx + x as tau(e) * nx + sigma(x), and its orbits.  The image
    of a topology under g has the ``U`` with U'_g(p) = g(U_p).

    Returns ``(action, minima, sizes)``: ``action`` has one row per
    element of G, the index of the image of every topology, and each
    orbit of G on the topologies has its minimum in ``minima`` and its
    size at the same place in ``sizes``.  The facts of a space do not
    change under G, so the pairs (g(i), j) for all j have the keys of the
    pairs (i, j) for all j, and the census keys the rows of orbit minima
    alone.  At most eight factorizations are ever cached, as for
    ``_profiles``.
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
    return (tuple(action), *_orbit_minima(action, len(us)))


def _packed(u: Sequence[int]) -> int:
    """A topology's ``U`` in one int, n bits per point: the supremum of two
    topologies is then the one whose packed ``U`` is the AND of theirs."""
    return sum(up << (p * len(u)) for p, up in enumerate(u))


@lru_cache(maxsize=None)
def _classes(nx: int, ne: int) -> tuple[tuple, tuple, dict, tuple]:
    """The profile classes of the topologies on nx*ne points.

    ``_pair_key`` reads nothing of a topology but the ``first``,
    ``second`` and T0 fields of its profile, and a space's supremum only
    ORs in its three soft bits, which no cross test touches, so a pair's
    key is the cross key of its two classes ORed with the supremum's soft
    bits.  ``_pair_key`` reads the vectors ``t0`` and ``slice_t0`` only
    through which of their places hold equal values, so a class is the
    profiles that agree on ``first``, ``second``, ``strong_t0`` and the
    first-occurrence labels of the two vectors (``soft`` is part of
    ``first``).  Returns ``(cls, packed, sup, classes)``: each topology's
    class id and packed ``U``, the supremum's soft bits keyed by packed
    ``U``, and one profile per class, its vectors labelled (355
    topologies on four points have 18 classes over 2x2 and 16 over 4x1).
    At most eight factorizations are ever cached, as for ``_profiles``.
    """
    profiles = _profiles(nx, ne)
    labelled = [
        p._replace(t0=_labels(p.t0), slice_t0=_labels(p.slice_t0)) for p in profiles
    ]
    ids: dict = {}
    cls = tuple([ids.setdefault(p, len(ids)) for p in labelled])
    packed = tuple([_packed(u) for u in _point_neighbourhoods(nx * ne)])
    sup = {key: p.soft << _SUP for key, p in zip(packed, profiles)}
    return cls, packed, sup, tuple(ids)


def _labels(vals: tuple[int, ...]) -> tuple[int, ...]:
    """Each value as the place of its first occurrence in ``vals``."""
    return tuple(map(vals.index, vals))


def _rows(nx: int, ne: int):
    """One ``(i, size, keys)`` per orbit minimum i of the topologies of
    (nx, ne), nx > 1, in order: the size of i's orbit and the fact keys
    of the pairs (i, j) for every j.

    A row's keys are the cross keys of i's class, read at the class of
    each j and ORed with the soft bits of the supremum; cross keys are
    computed for the classes that head a row, against every class.
    """
    cls, packed, sup, classes = _classes(nx, ne)
    _, minima, sizes = _orbits(nx, ne)
    heads = {cls[i] for i in minima}
    cross = {c: [_pair_key(classes[c], q, 0) for q in classes] for c in heads}
    for i, size in zip(minima, sizes):
        row, ui = cross[cls[i]], packed[i]
        yield i, size, [row[c] | sup[ui & uj] for c, uj in zip(cls, packed)]


@lru_cache(maxsize=None)
def _tally(nx: int, ne: int) -> dict:
    """The census of factorization (nx, ne): each distinct fact key of its
    pairs to ``[count, *positions]``, the labelled number of pairs with
    the key and its first positions (i, j), at most three, in the rows of
    orbit minima.

    Every row of G.i holds the keys of i's row, so a key's count is the
    sum over rows of its count there times the orbit's size.  Every pair
    lies in the orbit of a pair of some minimum's row that comes no later
    in canonical order, so the first k labelled pairs with a key lie in
    the orbits of its first k positions, and its first labelled pair is
    its first position.  With |X| = 1 there is no pair of distinct
    elements and the row's complement is empty, so every fact holds on
    every pair: that census is one all-true key at the first three pairs,
    and builds no profiles and no orbits.  At most eight factorizations
    are ever cached, as for ``_profiles``; a census is never changed
    once built, so two threads that build one at once build equal ones.
    """
    if nx == 1:
        k = len(_point_neighbourhoods(ne))
        first = range(k * k)[:_MAX_RECORDS_PER_CLAIM]
        return {_ALL: [k * k, *(divmod(t, k) for t in first)]}
    census: dict = {}
    for i, size, keys in _rows(nx, ne):
        for key, count in Counter(keys).items():
            entry = census.setdefault(key, [0])
            entry[0] += count * size
            j = -1
            for _ in range(min(count, _MAX_RECORDS_PER_CLAIM + 1 - len(entry))):
                j = keys.index(key, j + 1)
                entry.append((i, j))
    return census


def _pair_record(
    claim_id: str, config: SearchConfig, k: int, i: int, j: int
) -> CounterexampleRecord:
    from .search import CounterexampleRecord, standard_context

    nx, ne = config.factorizations()[k]
    ctx, us = standard_context(nx, ne), _point_neighbourhoods(nx * ne)
    names = (ctx.universe.elements, ctx.parameters.parameters)
    return CounterexampleRecord(claim_id, *names, _members(us[i]), _members(us[j]))


def _first_violation(
    config: SearchConfig, claim: Claim
) -> CounterexampleRecord | None:
    """The first violating space of a corpus, in canonical or seed order.

    A random corpus is keyed one space at a time, up to the first
    violation.  An exhaustive one reads the census of each factorization
    in turn: the first violating space of the first that has one is the
    earliest first position of its violating keys.
    """

    def bad(key: int) -> bool:
        facts = _decode(key)
        return claim.premise(facts) and not claim.conclusion(facts)

    if config.mode != "exhaustive":
        from .search import _space, record_for

        ctx, draws = _random_draws(config)
        u = next((u for key, u in draws if bad(key)), None)
        return None if u is None else record_for(claim.id, _space(ctx, u))
    for k, (nx, ne) in enumerate(config.factorizations()):
        firsts = [entry[1] for key, entry in _tally(nx, ne).items() if bad(key)]
        if firsts:
            return _pair_record(claim.id, config, k, *min(firsts))
    return None


def _report(
    corpus: str, claims: Sequence[Claim], censuses: Sequence[dict], records: Callable
) -> ImplicationReport:
    """Run each claim once per fact key of each census, weighted by its
    count.

    A census maps each distinct key of a part of the corpus to its count
    followed by its first positions there, in corpus order; position
    ``pos`` of the k-th census is ``(k, *pos)``, and ``records(claim_id,
    positions)`` turns the first violating positions, at most
    ``_MAX_RECORDS_PER_CLAIM``, into records.
    """
    from .search import ClaimResult, ImplicationReport

    table = [
        (_decode(key), count, [(k, *pos) for pos in positions])
        for k, census in enumerate(censuses)
        for key, (count, *positions) in census.items()
    ]
    total = sum(count for _, count, _ in table)
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


def _random_draws(config: SearchConfig) -> tuple[Context, Iterator[tuple]]:
    """The context of a random config and its spaces in seed order, each
    as its fact key and the ``U`` of its two topologies, keyed straight
    from the seeded draws: no soft set, topology or space is built.

    The indiscrete topology is profiled once per call, and a space with
    an indiscrete component takes the other's soft bits for its
    supremum's, since ``U1_p & full`` is ``U1_p``: they are the OR of
    both topologies' bits, as the indiscrete topology has none with two
    or more elements, and with one element every topology has all three.
    """
    from .search import _random_neighbourhoods, standard_context

    ctx = standard_context(config.max_universe, config.n_params)
    kernel, first = _kernel(ctx), 2 * config.seed
    full = (ctx.full_mask,) * (ctx.nx * ctx.ne)
    indiscrete = kernel.profile(full)

    def key(u1, u2):
        p = indiscrete if u1 == full else kernel.profile(u1)
        q = indiscrete if u2 == full else kernel.profile(u2)
        if u1 == full or u2 == full:  # the supremum is the other topology
            sup = p.soft | q.soft
        else:
            sup = kernel.soft(list(map(and_, u1, u2)))
        return _pair_key(p, q, sup << _SUP)

    us = _random_neighbourhoods(ctx, range(first, first + 2 * config.samples))
    return ctx, ((key(u1, u2), (u1, u2)) for u1, u2 in zip(us, us))


def _verify_keyed(
    keyed: Iterable[tuple], space: Callable, claims: Sequence[Claim], corpus: str
) -> ImplicationReport:
    """The report of a corpus given in order as (fact key, item) pairs,
    from one census whose positions are (index, item), so the first
    violating positions give the records of the spaces ``space(item)``."""
    census: dict = {}
    for index, (key, item) in enumerate(keyed):
        entry = census.setdefault(key, [0])
        entry[0] += 1
        if len(entry) <= _MAX_RECORDS_PER_CLAIM:
            entry.append((index, item))

    def records(claim_id, positions):
        from .search import record_for

        return [record_for(claim_id, space(item)) for _, _, item in positions]

    return _report(corpus, claims, [census], records)


def _verify_over_spaces(
    spaces: Iterable[BiSoftSpace], claims: Sequence[Claim], corpus: str
) -> ImplicationReport:
    """The report of a corpus of explicit spaces, each keyed on its own."""
    keyed = ((_space_key(s), s) for s in spaces)
    return _verify_keyed(keyed, lambda s: s, claims, corpus)


def _verify_random(config: SearchConfig, claims: Sequence[Claim]) -> ImplicationReport:
    """The report of a random config, keyed from its draws; only the
    spaces of records are built."""
    from .search import _space

    ctx, draws = _random_draws(config)
    return _verify_keyed(draws, lambda u: _space(ctx, u), claims, config.describe())


def _verify_exhaustive(
    config: SearchConfig, claims: Sequence[Claim]
) -> ImplicationReport:
    """The report of an exhaustive corpus, from the censuses of its
    factorizations in canonical order: position (k, i, j) is the pair
    (i, j) of factorization k.

    A claim's first three violating spaces lie in the orbits of its first
    three violating positions, so those orbits are expanded, sorted and
    cut to three; the positions of an |X| = 1 census are its first three
    pairs already.
    """
    sizes = config.factorizations()

    def labelled(k, i, j):
        nx, ne = sizes[k]
        return [(k, g[i], g[j]) for g in _orbits(nx, ne)[0]] if nx > 1 else [(k, i, j)]

    def records(claim_id, positions):
        spaces = {space for pos in positions for space in labelled(*pos)}
        return [
            _pair_record(claim_id, config, *pos)
            for pos in sorted(spaces)[:_MAX_RECORDS_PER_CLAIM]
        ]

    censuses = [_tally(nx, ne) for nx, ne in sizes]
    return _report(config.describe(), claims, censuses, records)
