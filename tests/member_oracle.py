"""Definitional oracle: the topologies on n points, separation axioms,
slices and rough approximations stated by quantifying over members, as
the paper defines them.

The package reads all of these off minimal open neighbourhoods.  This
module keeps the member scans for the tests to compare against; it reads
only the packed masks of the values it is given, and imports from the
package only ``sup_topology``, whose members the topology tests check
against a worklist closure, to list the supremum for ``facts``.

Rows are element masks over every parameter block; ``m1``/``m2`` are the
mask lists of the first and second topology.
"""

from itertools import combinations, permutations


def sep(masks, rx, ry):
    """Some member strongly contains x while not strongly containing y."""
    return any(m & rx == rx and m & ry != ry for m in masks)


def strong_sep(masks, rx, ry):
    """Some member strongly contains x with y in its complement everywhere."""
    return any(m & rx == rx and m & ry == 0 for m in masks)


def disjoint_around(m1, m2, rx, ry):
    """Disjoint members, one of ``m1`` strongly containing x and one of
    ``m2`` strongly containing y."""
    around_x = [f for f in m1 if f & rx == rx]
    around_y = [g for g in m2 if g & ry == ry]
    return any(f & g == 0 for f in around_x for g in around_y)


def closure(masks, full, a):
    """Intersection of every closed set (complement of a member) containing a."""
    acc = full
    for o in masks:
        c = full & ~o
        if a & ~c == 0:
            acc &= c
    return acc


# -- per-pair tests; each returns True when the pair is separated -----------


def t0_pair(m1, m2, rx, ry, apart=sep):
    return apart(m1, rx, ry) or apart(m1, ry, rx) or apart(m2, rx, ry) or apart(m2, ry, rx)


def t0_strict_pair(m1, m2, rx, ry):
    return sep(m1, rx, ry) or sep(m2, ry, rx)


def t1_pair(m1, m2, rx, ry, apart=sep):
    return apart(m1, rx, ry) and apart(m2, ry, rx)


def t2_pair(m1, m2, rx, ry):
    return disjoint_around(m1, m2, rx, ry)


def _rows(ctx):
    return [(x, ctx.row(x)) for x in ctx.universe.elements]


def first_failure(ctx, pairs, ok):
    """First pair of element names, in ``pairs`` order over the declared
    elements, for which ``ok(rx, ry)`` is false."""
    for (x, rx), (y, ry) in pairs(_rows(ctx), 2):
        if not ok(rx, ry):
            return (x, y)
    return None


def _holds(ctx, pairs, ok):
    return first_failure(ctx, pairs, ok) is None


# -- enumeration -------------------------------------------------------------


def point_topologies(n):
    """Every topology on n points as a sorted member tuple, by filtering
    every family of subsets: each family bitset over the nontrivial masks,
    in increasing order, is kept when its members are closed under
    pairwise union and intersection."""
    full = (1 << n) - 1
    base = 1 | (1 << full)
    out = []
    for family in range(1 << max(full - 1, 0)):
        present = base | (family << 1)
        masks = [m for m in range(full + 1) if present >> m & 1]
        if all(
            present >> (a | b) & 1 and present >> (a & b) & 1
            for i, a in enumerate(masks)
            for b in masks[i + 1 :]
        ):
            out.append(tuple(masks))
    return out


# -- checkers -----------------------------------------------------------------


def soft_t0(t):
    m = t.masks()
    return _holds(t.context, combinations, lambda rx, ry: sep(m, rx, ry) or sep(m, ry, rx))


def soft_t1(t):
    m = t.masks()
    return _holds(t.context, permutations, lambda rx, ry: sep(m, rx, ry))


def soft_t2(t):
    m = t.masks()
    return _holds(t.context, combinations, lambda rx, ry: disjoint_around(m, m, rx, ry))


def pairwise_failures(s):
    """First failing pair of pairwise soft T0, T1 and T2, or None each."""
    m1, m2 = s.t1.masks(), s.t2.masks()
    ctx = s.context
    return {
        "t0": first_failure(ctx, combinations, lambda rx, ry: t0_pair(m1, m2, rx, ry)),
        "t1": first_failure(ctx, permutations, lambda rx, ry: t1_pair(m1, m2, rx, ry)),
        "t2": first_failure(ctx, permutations, lambda rx, ry: t2_pair(m1, m2, rx, ry)),
    }


def pairwise_soft_t0_strict(s):
    m1, m2 = s.t1.masks(), s.t2.masks()
    return _holds(
        s.context, permutations, lambda rx, ry: t0_strict_pair(m1, m2, rx, ry)
    )


def strong_t0(s):
    m1, m2 = s.t1.masks(), s.t2.masks()
    return _holds(
        s.context, combinations, lambda rx, ry: t0_pair(m1, m2, rx, ry, strong_sep)
    )


def strong_t1(s):
    m1, m2 = s.t1.masks(), s.t2.masks()
    return _holds(
        s.context, permutations, lambda rx, ry: t1_pair(m1, m2, rx, ry, strong_sep)
    )


def hausdorff_char(s):
    full = s.context.full_mask
    closures = [(m, closure(s.t2.masks(), full, m)) for m in s.t1.masks()]
    return _holds(
        s.context,
        permutations,
        lambda rx, ry: any(m & rx == rx and cl & ry == 0 for m, cl in closures),
    )


def point_closure_intersection(s, element):
    """(mask, vacuous): the intersection of the second-topology closures of
    the first-topology members around the element."""
    ctx = s.context
    rx = ctx.row(element)
    acc = ctx.full_mask
    found = False
    for m in s.t1.masks():
        if m & rx == rx:
            found = True
            acc &= closure(s.t2.masks(), ctx.full_mask, m)
    return (acc if found else ctx.full_mask), not found


def facts(s):
    """The facts the space claims read, keyed by the field names of the
    package's fact vector, each by a member scan.  A subspace on Y traces
    every member on Y's rows and quantifies over Y's elements."""
    from bisoft.space import sup_topology

    ctx = s.context
    m1, m2 = s.t1.masks(), s.t2.masks()
    out = {}
    for name, t in (("t1", s.t1), ("t2", s.t2), ("sup", sup_topology(s))):
        for k, soft in enumerate((soft_t0, soft_t1, soft_t2)):
            out[f"{name}_soft_t{k}"] = soft(t)
    failures = pairwise_failures(s)
    out.update({f"pairwise_{k}": pair is None for k, pair in failures.items()})
    out.update(strong_t0=strong_t0(s), strong_t1=strong_t1(s))
    slices = [(slice_opens(s.t1, e), slice_opens(s.t2, e)) for e in range(ctx.ne)]
    for k, pw in enumerate((pw_t0, pw_t1, pw_t2)):
        out[f"slices_pw_t{k}"] = all(pw(p, q, ctx.nx) for p, q in slices)
    subspaces = []
    for size in range(1, ctx.nx + 1):
        for rows in combinations(ctx.rows, size):
            kept = sum(rows)
            subspaces.append(
                (rows, {m & kept for m in m1}, {m & kept for m in m2})
            )
    for k, (pairs, ok) in enumerate(
        [(combinations, t0_pair), (permutations, t1_pair), (permutations, t2_pair)]
    ):
        out[f"hereditary_t{k}"] = all(
            ok(p, q, rx, ry) for rows, p, q in subspaces for rx, ry in pairs(rows, 2)
        )
    out["thm1_agrees"] = hausdorff_char(s) == out["pairwise_t2"]
    out["cor1_ok"] = all(
        point_closure_intersection(s, x) == (ctx.row(x), False)
        for x in ctx.universe.elements
    )
    out["cor2_ok"] = all(
        ctx.full_mask & ~r in m for r in ctx.rows for m in (set(m1), set(m2))
    )
    return out


# -- classical slices -----------------------------------------------------------


def slice_opens(t, e):
    """Classical topology at the parameter index e, opens as element masks."""
    ctx = t.context
    return tuple(sorted({(m >> (e * ctx.nx)) & ctx.block_mask for m in t.masks()}))


def pw_t0(p, q, n):
    """Some open of either topology contains exactly one of each pair."""
    opens = p + q
    for i, j in combinations(range(n), 2):
        x, y = 1 << i, 1 << j
        if not any(bool(o & x) != bool(o & y) for o in opens):
            return False
    return True


def pw_t1(p, q, n):
    for i, j in permutations(range(n), 2):
        x, y = 1 << i, 1 << j
        if not any(o & x and not o & y for o in p):
            return False
        if not any(o & y and not o & x for o in q):
            return False
    return True


def pw_t2(p, q, n):
    for i, j in permutations(range(n), 2):
        x, y = 1 << i, 1 << j
        if not any(u & x and v & y and not u & v for u in p for v in q):
            return False
    return True


def pt_interior(opens, subset):
    """Union of the opens contained in the subset."""
    acc = 0
    for o in opens:
        if o & ~subset == 0:
            acc |= o
    return acc


def pt_closure(opens, full, subset):
    """Smallest closed superset, via the complement of the interior."""
    return full & ~pt_interior(opens, full & ~subset)


def lower_approx(s, a):
    """Per parameter: intersection of the two slice interiors (a mask)."""
    ctx = s.context
    mask = 0
    for e in range(ctx.ne):
        block = (a >> (e * ctx.nx)) & ctx.block_mask
        i1 = pt_interior(slice_opens(s.t1, e), block)
        i2 = pt_interior(slice_opens(s.t2, e), block)
        mask |= (i1 & i2) << (e * ctx.nx)
    return mask


def upper_approx(s, a):
    """Per parameter: union of the two slice closures (a mask)."""
    ctx = s.context
    mask = 0
    for e in range(ctx.ne):
        block = (a >> (e * ctx.nx)) & ctx.block_mask
        c1 = pt_closure(slice_opens(s.t1, e), ctx.block_mask, block)
        c2 = pt_closure(slice_opens(s.t2, e), ctx.block_mask, block)
        mask |= (c1 | c2) << (e * ctx.nx)
    return mask
