"""The one fact function: a space's facts, read off neighbourhood profiles.

``profile`` summarises a soft topology over any context in integers read
off its minimal open neighbourhoods ``U``, and ``_pair_key`` reads every
fact of a space off the profiles of its two topologies, including the
soft axioms of their supremum, whose ``U_p`` is ``U1_p & U2_p``, as one
int, the fact key.  Bit k of a key is field k of ``_PairFacts``:

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

So each of these facts, and pairwise T1, which asks both topologies to
be soft T1, holds exactly when it holds of both topologies alone, by
their soft axioms and whether every slice is T1.  A profile keeps those
bits of one topology, its ``U`` and its ``N(x)`` vector, and
``_pair_key`` alone combines two profiles.  The T0 family is tested on
the pair of topologies: a space is pairwise T0 when the pairs
``(N1(x), N2(x))`` are distinct, its slices when the pairs of ``U_p``
cut to p's block are, and strong T0 when no two elements are each in
the other's meet mask in both topologies (``_pair_key``).  A profile is
computed in a few passes over the elements and points, and a space's
supremum contributes its three soft bits alone, which ``_pair_key``
reads off the two profiles' ``U``.  ``profile`` and ``_pair_key`` are
functions of the context and what they are given: what they read of the
context, its block mask and each point's block (``Context.blocks``), is
derived when the context is built, and nothing is kept after a call.

``lane_profile`` and ``lane_keys`` are the same two steps for many
spaces at once, bit-sliced (Biham, FSE 1997): the ``U`` of many
topologies held in lanes, int bitsets with one bit per topology, and
each test of ``profile`` and ``_pair_key`` made as a few big-int
operations on those lanes.  ``lane_keys`` returns each distinct key
with the bitset of the spaces that have it.  ``search`` keys the
exhaustive rows and the random blocks of few elements there, and every
other space alone through ``_pair_key``; each claim reads the
``_PairFacts`` of a distinct key, decoded once.  ``_space_key`` and
``space_facts`` key one space at a time, for explicit corpora and
``replay``.

The public checkers of ``axioms`` read their verdicts off the same key
too, through ``space_verdicts``, which also reads each parameter's slice
off the two profiles.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_, xor
from typing import NamedTuple, Sequence

from .softset import Context
from .space import BiSoftSpace
from .topology import _columns, _row_neighbourhoods


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
    """One soft topology over a context, read off its ``U``: plain data,
    which ``_pair_key`` alone turns into a fact key.

    ``u`` is the ``U`` itself, which the supremum of two topologies and
    the slices' T0 are read off, and ``t0`` the ``N(x)`` vector, which
    the pairwise and strong T0 are read off.  ``soft`` and ``slices_t1``
    are what the topology settles alone (the module docstring).  A
    profile holds no data on pairs of one topology's elements: it serves
    one space, whose T0 family ``_pair_key`` tests on the pair of
    topologies, and strong T0 only where it can hold.
    """

    u: Sequence[int]  # U_p for each point p
    soft: int  # soft T0, T1, T2 as bits 0, 1, 2
    slices_t1: bool  # every slice is T1
    t0: tuple[int, ...]  # N(x) for each element x


def _mutual_pairs(masks: Sequence[int]) -> tuple[int, ...]:
    """Row x for each mask x: bit y for each y > x such that y is in x's
    mask and x in y's.

    Row x is x's mask above x ANDed with the column of the masks at x,
    read off their transpose (``topology._columns``).
    """
    pairs = enumerate(zip(masks, _columns(masks, len(masks))))
    return tuple([m & c >> x + 1 << x + 1 for x, (m, c) in pairs])


def _soft(ctx: Context, nbhd: Sequence[int]) -> int:
    """Soft T0, T1 and T2, as bits 0, 1 and 2, of the topology over ``ctx``
    whose ``N(x)`` are ``nbhd``.

    The topology is T0 when the ``N(x)`` are distinct, T2 when no ``N(x)``
    meets another and T1 when every cont(x) is {x}.  N(x) holds x's row,
    so the ``N(x)`` are disjoint exactly when each is x's row, that is
    when they have |X x E| bits in all; then each cont(x) is {x}, and T2
    implies T1.  N(x) = N(y) puts y in cont(x), so T1 implies T0, and
    without T0 there is no soft bit to compute.
    """
    nx = ctx.nx
    if len(set(nbhd)) < nx:
        return 0
    n = nx * ctx.ne
    if sum(map(int.bit_count, nbhd)) == n:
        return 0b111
    cont = [v & ctx.block_mask for v in nbhd]
    for s in range(nx, n, nx):
        cont = [c & v >> s for c, v in zip(cont, nbhd)]
    return 1 | (sum(map(int.bit_count, cont)) == nx) << 1


class _Lanes(NamedTuple):
    """A profile of many topologies j at once, in lanes: int bitsets
    over j.  Bit j of ``u[p][q]`` is set when q lies in ``U_p^j``; every
    other field is a bitset, or a list of bitsets, of the j at which the
    named test passes, which ``lane_keys`` alone turns into fact keys.

    Unlike a ``_Profile``, lanes keep per-topology pair data, since one
    partner profile serves every row of an exhaustive factorization:
    ``t0`` holds, per pair x < y of elements, the j at which ``N(x)`` and
    ``N(y)`` differ; ``slice_t0``, per pair of points of one block, those
    at which their cut ``U_p`` differ; and ``strong_t0``, per pair x < y,
    those at which each is in the other's ``meet``, or None with one
    parameter, where strong T0 is pairwise T0 (``_pair_key``).
    """

    u: list[list[int]]  # u[p][q]: the j with q in U_p
    soft: tuple[int, int, int]  # the j that are soft T0, T1, T2
    slices_t1: int  # the j whose every slice is T1
    t0: list[int]  # per pair x < y: the j with N(x) != N(y)
    strong_t0: list[int] | None  # per pair x < y: the j with each in the other's meet
    slice_t0: list[int]  # per pair of points of a block: the j with distinct cut U_p


def _lane_soft(nx: int, u: Sequence[Sequence[int]], every: int) -> tuple:
    """``_soft`` in lanes: ``(t0, meets, soft)`` of the topologies j whose
    ``U_p`` lanes are ``u``.

    One lane of ``N(x)`` per point q, the OR of x's row of ``u``.  The
    definitions are ``_soft``'s: T0 when the ``N(x)`` are distinct, T1
    when no ``N(x)`` holds all of another element's row, T2 when none
    holds a point of another row, that is when each is x's row.  A
    neighbourhood that holds all of a row holds a point of it, and T1 and
    T2 are ANDed with T0, so the three bitsets nest.  ``t0`` is the list
    of ``N(x) != N(y)`` per pair x < y and ``meets[x][y]`` the j at which
    ``N(x)`` meets y's row, which strong T0 reads.
    """
    nbhd = [[reduce(or_, col) for col in zip(*u[x::nx])] for x in range(nx)]
    t0 = [reduce(or_, map(xor, a, b)) for a, b in combinations(nbhd, 2)]
    meets = [[reduce(or_, row[y::nx]) for y in range(nx)] for row in nbhd]
    spill = inside = 0
    for x, row in enumerate(nbhd):
        for y in range(nx):
            if y != x:
                spill |= meets[x][y]
                inside |= reduce(and_, row[y::nx])
    sep = reduce(and_, t0, every)
    return t0, meets, (sep, sep & ~inside, sep & ~spill)


def lane_profile(ctx: Context, u: list[list[int]], every: int) -> _Lanes:
    """The profiles of the topologies j over ``ctx`` whose ``U_p`` lanes
    are ``u``, in lanes; ``every`` holds every j.

    A slice's cut ``U_p`` is p's lanes at the points of p's block: every
    slice is T1 where no point's cut holds another, and the slices of
    two topologies are pairwise T0 where, for each pair of points of a
    block, one topology's cuts differ (``_pair_key``).
    """
    nx, ne = ctx.nx, ctx.ne
    t0, meets, soft_bits = _lane_soft(nx, u, every)
    strong = None
    if ne > 1:
        strong = [meets[x][y] & meets[y][x] for x, y in combinations(range(nx), 2)]
    cuts = [row[p - p % nx : p - p % nx + nx] for p, row in enumerate(u)]
    spill = 0
    for p, cut in enumerate(cuts):
        spill |= reduce(or_, cut[: p % nx], 0) | reduce(or_, cut[p % nx + 1 :], 0)
    slice_t0 = [
        reduce(or_, map(xor, cuts[p], cuts[r]))
        for s in range(0, nx * ne, nx)
        for p, r in combinations(range(s, s + nx), 2)
    ]
    return _Lanes(u, soft_bits, every & ~spill, t0, strong, slice_t0)


def lane_keys(ctx: Context, a: _Lanes, b: _Lanes, every: int) -> dict[int, int]:
    """The fact key of each space (a_j, b_j), as each distinct key to the
    bitset of the j that have it; ``_pair_key`` in lanes.

    Each fact is a bitset over j: the soft bits of both profiles, those
    of the supremum, whose ``U_p`` lanes are ``a.u & b.u``, and the tests
    ``_pair_key`` makes, each read off both profiles' lanes at once.  The
    spaces are then split by one fact after another, so a cell is one key
    and its bit count is the key's count.
    """
    sup_u = [list(map(and_, r, s)) for r, s in zip(a.u, b.u)]
    sup = _lane_soft(ctx.nx, sup_u, every)[2]
    t0 = reduce(and_, map(or_, a.t0, b.t0), every)
    if a.strong_t0 is None:
        strong = t0
    else:
        strong = every & ~reduce(or_, map(and_, a.strong_t0, b.strong_t0), 0)
    facts = [
        *zip((1, 2, 4), a.soft),
        *zip((1 << _T2_SOFT, 2 << _T2_SOFT, 4 << _T2_SOFT), b.soft),
        *zip((1 << _SUP, 2 << _SUP, 4 << _SUP), sup),
        (_PW_T0, t0),
        (_PW_T1, a.soft[1] & b.soft[1]),
        (_T2, a.soft[2] & b.soft[2]),
        (_SLICES_T1, a.slices_t1 & b.slices_t1),
        (_STRONG_T0, strong),
        (_SLICES_T0, reduce(and_, map(or_, a.slice_t0, b.slice_t0), every)),
    ]
    cells = {_THM1: every}
    for bits, holds in facts:
        if holds == every:  # no cell splits
            cells = {key | bits: js for key, js in cells.items()}
        elif holds:
            split = {}
            for key, js in cells.items():
                hit = js & holds
                if hit:
                    split[key | bits] = hit
                if hit != js:
                    split[key] = js ^ hit
            cells = split
    return cells


def profile(ctx: Context, u: Sequence[int]) -> _Profile:
    """The profile of the topology over ``ctx`` whose ``U_p`` is ``u[p]``.

    The slices sit side by side as the ``U_p`` cut to their own blocks,
    ``ctx.blocks``, and every slice is T1 when each cut ``U_p`` is {p},
    tested point by point up to the first that is not.
    """
    nbhd = _row_neighbourhoods(u, ctx.nx)
    slices_t1 = all(map((1).__eq__, map(int.bit_count, map(and_, u, ctx.blocks))))
    return _Profile(u, _soft(ctx, nbhd), slices_t1, nbhd)


def _cut(ctx: Context, u: Sequence[int]) -> tuple[int, ...]:
    """Each ``U_p`` cut to p's block: the slices' neighbourhoods side by
    side; points of two blocks never share a cut ``U_p``."""
    return tuple(map(and_, u, ctx.blocks))


def _meets(ctx: Context, nbhd: Sequence[int]) -> list[int]:
    """``meet(x)`` for each element x: the elements whose row ``N(x)``
    meets, the OR of ``N(x)``'s parameter blocks.  The blocks are folded
    in halves, the upper ones ORed onto the lower, so |E| blocks take
    about log2 |E| passes."""
    meets, blocks = list(nbhd), ctx.ne
    while blocks > 1:
        blocks = blocks + 1 >> 1
        s = blocks * ctx.nx
        low = (1 << s) - 1
        meets = [v & low | v >> s for v in meets]
    return meets


def _pair_key(ctx: Context, p: _Profile, q: _Profile) -> int:
    """The fact key of the space (p, q) over ``ctx``.

    The supremum's soft axioms are read off its ``U``, ``p.u & q.u``, as
    ``lane_keys`` reads them off ``a.u & b.u``.  Every fact outside the
    supremum's and the T0 family holds exactly when it holds of both
    topologies alone (the module docstring): pairwise T1 when both are
    soft T1, the facts of ``_T2`` when both are soft T2, and the slices'
    T1 and T2 when both have T1 slices; ``thm1_agrees`` always holds.

    The T0 family is read off the pair, from the containment masks of
    each element x: ``cont(x)``, the elements whose row ``N(x)``
    contains (the AND of ``N(x)``'s parameter blocks), and ``meet(x)``,
    those whose row it meets (their OR).  A topology leaves x and y
    unseparated when each is in the other's mask.  Since y is in cont(x)
    exactly when ``N(y) ⊆ N(x)``, x and y are each in the other's
    ``cont`` exactly when ``N(x) = N(y)``: so the space is pairwise T0
    when either topology is soft T0, its ``N(x)`` being distinct, or the
    pairs ``(N1(x), N2(x))`` are distinct.  A slice is a topology on X
    with the neighbourhoods ``block_e(U_(x,e))``, so the slices are
    pairwise T0 when the pairs of cut ``U_p`` are distinct.  ``meet`` has
    no such shortcut: the space is strong T0 when no x < y are each in
    the other's ``meet`` in both topologies, the mutual pairs of the AND
    of the two meet vectors.  Equal ``(N1(x), N2(x))`` hold both rows, so
    they meet each other's rows in both topologies, and strong T0 implies
    pairwise T0; with one parameter, meeting a row is containing it, so
    strong T0 is pairwise T0.  So the meet masks are built only for a
    pairwise T0 space with more than one parameter.

    The subspace on Y has the neighbourhoods N(x) & Y's rows, so a test of
    x, y in Y that passes on X passes on Y: the T0 and T1 tests read only
    y's row, which lies in Y, and N1(x) & N2(y) & Y is empty when
    N1(x) & N2(y) is.  X is a subspace of itself, so the space is pairwise
    T0, T1 or T2 on every subspace exactly when it is on X, and each
    hereditary bit is set with its pairwise bit.
    """
    sup = _soft(ctx, _row_neighbourhoods(tuple(map(and_, p.u, q.u)), ctx.nx))
    both = p.soft & q.soft
    key = p.soft | q.soft << _T2_SOFT | sup << _SUP | _THM1
    key |= (both >> 1 & 1) * _PW_T1 | (both >> 2) * _T2
    if p.slices_t1 and q.slices_t1:
        key |= _SLICES_T1
    if (p.soft | q.soft) & 1 or _distinct(p.t0, q.t0):
        key |= _PW_T0
        if ctx.ne == 1 or not any(
            _mutual_pairs(list(map(and_, _meets(ctx, p.t0), _meets(ctx, q.t0))))
        ):
            key |= _STRONG_T0
    if _distinct(_cut(ctx, p.u), _cut(ctx, q.u)):
        key |= _SLICES_T0
    return key


def _distinct(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the pairs ``(a[i], b[i])`` are distinct."""
    return len(set(zip(a, b))) == len(a)


def _space_key(s: BiSoftSpace) -> int:
    """The fact key of one space, read off the ``U`` of its two topologies."""
    ctx, u1, u2 = s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods()
    return _pair_key(ctx, profile(ctx, u1), profile(ctx, u2))


def space_facts(s: BiSoftSpace) -> _PairFacts:
    """The facts of one space, decoded from its key."""
    return _decode(_space_key(s))


def space_verdicts(s: BiSoftSpace) -> tuple[_PairFacts, dict[str, dict[str, bool]]]:
    """The facts of one space, and the pairwise T0, T1 and T2 of the
    slice at each parameter, read off one profile of each topology; the
    public checkers of ``axioms`` read every verdict here.

    Block e's points are the places e*nx to (e+1)*nx - 1 of the cut
    vectors (``_cut``).  The slice at e is pairwise T0 when the pairs of
    its cut ``U_p`` are distinct, and pairwise T1 when both topologies'
    slices are T1, their cut ``U_p`` having 2*nx bits in all; then it is
    pairwise T2 as well, since a finite T1 topology is discrete.
    """
    ctx, u1, u2 = s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods()
    facts = _decode(_pair_key(ctx, profile(ctx, u1), profile(ctx, u2)))
    nx, cuts1, cuts2, slices = ctx.nx, _cut(ctx, u1), _cut(ctx, u2), {}
    for e, name in enumerate(ctx.parameters.parameters):
        block = slice(e * nx, e * nx + nx)
        cut1, cut2 = cuts1[block], cuts2[block]
        t1 = sum(map(int.bit_count, cut1 + cut2)) == 2 * nx
        slices[name] = {"t0": _distinct(cut1, cut2), "t1": t1, "t2": t1}
    return facts, slices
