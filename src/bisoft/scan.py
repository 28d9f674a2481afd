"""The one fact function: a space's facts, read off neighbourhood profiles.

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

So each of these facts, and pairwise T1, which asks both topologies to
be soft T1, holds exactly when it holds of both topologies alone, by
their soft axioms and whether every slice is T1.  A profile keeps those
bits of one topology, and ``_pair_key`` alone combines two profiles.
The T0 family is tested on the pair of topologies: a space is pairwise
T0 when the pairs ``(N1(x), N2(x))`` are distinct, its slices when the
pairs of ``U_p`` cut to p's block are, and strong T0 when no row of one
topology's unseparated pairs meets the same row of the other's
(``_Profile``).  A profile is computed in a few passes over the elements
and points, and a space's supremum contributes its three soft bits
alone.  ``profile``, ``soft`` and ``meet_soft`` are functions of the
context and the ``U`` vectors they are given: what they read of the
context, its block mask and each point's block (``Context.blocks``),
is derived when the context is built, and nothing is kept after a
call.  Every corpus of ``search`` goes through ``_pair_key``, and each
claim reads the ``_PairFacts`` of a distinct key, decoded once;
``_space_key`` and ``space_facts`` key one space at a time, for explicit
corpora and ``replay``.

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
from .topology import _row_neighbourhoods, _set_bits


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

    ``soft`` and ``slices_t1`` are what the topology settles alone (the
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
    no such shortcut, so row x of ``strong_t0`` holds the y > x each in
    x's ``meet`` and x in theirs, and ``_pair_key`` ANDs the rows of two
    profiles.  With one parameter, meeting a row is containing it, so
    strong T0 is pairwise T0 and ``strong_t0`` is None.
    """

    soft: int  # soft T0, T1, T2 as bits 0, 1, 2
    slices_t1: bool  # every slice is T1
    t0: tuple[int, ...]  # N(x) for each element x
    strong_t0: tuple[int, ...] | None  # row x: the y > x each in the other's meet
    slice_t0: tuple[int, ...]  # U_p cut to p's block for each point p


# Walking meet masks bit by bit beats transposing them as text up to
# about 24 masks, from timings on CPython 3.11.
_WALKED = 24


def _mutual_pairs(masks: Sequence[int]) -> tuple[int, ...]:
    """Row x for each mask x: bit y for each y > x such that y is in x's
    mask and x in y's.

    Row x is x's mask above x ANDed with the column of the masks at x.
    Up to ``_WALKED`` masks are walked bit by bit; more are transposed as
    text: the masks written as binary digits one after another, whose
    every k-th digit is a column.
    """
    k = len(masks)
    if k <= _WALKED:
        rows = []
        for x, m in enumerate(masks):
            row, y, m = 0, x, m >> x + 1
            while m:  # y walks the bits of x's mask above x
                y += 1
                if m & 1 and masks[y] >> x & 1:
                    row |= 1 << y
                m >>= 1
            rows.append(row)
        return tuple(rows)
    digits = "".join([format(m, f"0{k}b") for m in reversed(masks)])
    columns = [int(digits[k - 1 - x :: k], 2) for x in range(k)]
    pairs = enumerate(zip(masks, columns))
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


def soft(ctx: Context, u: Sequence[int]) -> int:
    """Soft T0, T1 and T2, as bits 0, 1 and 2, of the topology over ``ctx``
    whose ``U_p`` is ``u[p]``."""
    return _soft(ctx, _row_neighbourhoods(u, ctx.nx))


def meet_soft(ctx: Context, u: Sequence[int], lanes: Sequence, every: int) -> tuple:
    """``soft`` of the meet of ``u`` with many topologies j at once, the
    topology whose ``U_p`` is ``u[p] & U_p^j``, as three bitsets over j:
    those where it is soft T0, T1 and T2.

    Bit j of lane ``lanes[p][q]`` is set when q lies in ``U_p^j``, and
    ``every`` holds every j.  The definitions are ``_soft``'s, one lane of
    ``N(x)`` per point q: T0 when the ``N(x)`` are distinct, T1 when no
    ``N(x)`` holds all of another element's row, T2 when none holds a
    point of another row, that is when each is x's row.  A meet that holds
    all of a row holds a point of it, and T1 and T2 are ANDed with T0, so
    the three bitsets nest.
    """
    nx = ctx.nx
    nbhd = [[0] * len(u) for _ in range(nx)]  # lanes of N(x) per point q
    for p, (up, row) in enumerate(zip(u, lanes)):
        for q in _set_bits(up):  # the meet's U_p keeps the lanes of u[p]
            nbhd[p % nx][q] |= row[q]
    t0 = every
    for a, b in combinations(nbhd, 2):
        t0 &= reduce(or_, map(xor, a, b))
    spill = inside = 0
    for x, row in enumerate(nbhd):
        for y in range(nx):
            if y != x:
                spill |= reduce(or_, row[y::nx])
                inside |= reduce(and_, row[y::nx])
    return t0, t0 & ~inside, t0 & ~spill


def profile(ctx: Context, u: Sequence[int]) -> _Profile:
    """The profile of the topology over ``ctx`` whose ``U_p`` is ``u[p]``.

    With one parameter the slice is the topology itself, so ``slice_t0``
    repeats ``t0``, and strong T0 is pairwise T0.  Otherwise the slices
    sit side by side as the ``U_p`` cut to their own blocks,
    ``ctx.blocks``, and the slice at e is T1 when each of block e's is
    {p}.
    """
    nx, block = ctx.nx, ctx.block_mask
    nbhd = _row_neighbourhoods(u, nx)
    strong_t0 = None
    if ctx.ne > 1:
        meets = [v & block for v in nbhd]
        for s in range(nx, len(u), nx):
            meets = [m | v >> s & block for m, v in zip(meets, nbhd)]
        strong_t0 = _mutual_pairs(meets)
    cut = tuple(map(and_, u, ctx.blocks))
    slices_t1 = sum(map(int.bit_count, cut)) == len(u)
    return _Profile(_soft(ctx, nbhd), slices_t1, nbhd, strong_t0, cut)


def _pair_key(p: _Profile, q: _Profile, sup_bits: int) -> int:
    """The fact key of the space (p, q) whose supremum's soft axioms are
    ``sup_bits``, already in bits ``_SUP`` to ``_SUP + 2``.

    Every fact but the T0 family holds exactly when it holds of both
    topologies alone (the module docstring): pairwise T1 when both are
    soft T1, the facts of ``_T2`` when both are soft T2, and the slices'
    T1 and T2 when both have T1 slices; ``thm1_agrees`` always holds.
    The space is pairwise T0 when either topology is soft T0, its
    ``N(x)`` being distinct, or the pairs ``(N1(x), N2(x))`` are
    distinct; its slices are pairwise T0 when the pairs of cut ``U_p``
    are; and it is strong T0 when no row of ``p.strong_t0`` meets the
    same row of ``q.strong_t0``, or, with one parameter, when it is
    pairwise T0 (``_Profile``).

    The subspace on Y has the neighbourhoods N(x) & Y's rows, so a test of
    x, y in Y that passes on X passes on Y: the T0 and T1 tests read only
    y's row, which lies in Y, and N1(x) & N2(y) & Y is empty when
    N1(x) & N2(y) is.  X is a subspace of itself, so the space is pairwise
    T0, T1 or T2 on every subspace exactly when it is on X, and each
    hereditary bit is set with its pairwise bit.
    """
    both = p.soft & q.soft
    key = p.soft | q.soft << _T2_SOFT | sup_bits | _THM1
    key |= (both >> 1 & 1) * _PW_T1 | (both >> 2) * _T2
    if p.slices_t1 and q.slices_t1:
        key |= _SLICES_T1
    t0 = (p.soft | q.soft) & 1 or _distinct(p.t0, q.t0)
    if t0:
        key |= _PW_T0
    if t0 if p.strong_t0 is None else not any(map(and_, p.strong_t0, q.strong_t0)):
        key |= _STRONG_T0
    if _distinct(p.slice_t0, q.slice_t0):
        key |= _SLICES_T0
    return key


def _distinct(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the pairs ``(a[i], b[i])`` are distinct."""
    return len(set(zip(a, b))) == len(a)


def _space_key(s: BiSoftSpace) -> int:
    """The fact key of one space, read off the ``U`` of its two topologies;
    its supremum's ``U_p`` is ``U1_p & U2_p``."""
    ctx, u1, u2 = s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods()
    sup = soft(ctx, list(map(and_, u1, u2)))
    return _pair_key(profile(ctx, u1), profile(ctx, u2), sup << _SUP)


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
    ctx, u1, u2 = s.context, s.t1.neighbourhoods(), s.t2.neighbourhoods()
    p, q = profile(ctx, u1), profile(ctx, u2)
    facts = _decode(_pair_key(p, q, soft(ctx, list(map(and_, u1, u2))) << _SUP))
    nx, slices = ctx.nx, {}
    for e, name in enumerate(ctx.parameters.parameters):
        block = slice(e * nx, e * nx + nx)
        cut1, cut2 = p.slice_t0[block], q.slice_t0[block]
        t1 = sum(map(int.bit_count, cut1 + cut2)) == 2 * nx
        slices[name] = {"t0": _distinct(cut1, cut2), "t1": t1, "t2": t1}
    return facts, slices
