"""Exhaustive and randomized search over small bi-soft topological spaces.

The workhorse is a reinterpretation: a soft set over (X, E) is one subset
of the product X x E, so a soft topology over (X, E) is exactly a
classical topology on |X|*|E| points.  Enumerating the topologies on up
to four points (1, 4, 29, 355 of them) therefore enumerates every soft
topology over every context with |X|*|E| <= 4, and because the packed
bitmask layout is shared by both readings the reinterpretation is the
identity on masks.

Two evaluation routes cover every registered claim:

* a plain route through the public checkers in ``axioms``/``rough``,
  used for fixtures, random corpora and counterexample replay;
* a table-driven route used for exhaustive Cartesian-square scans, which
  precomputes per-topology separation bitsets so that the inner pair
  loop is a handful of integer operations.

The two routes are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, Union

from .axioms import (
    hausdorff_char,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    point_closure_intersection,
    soft_t0,
    soft_t1,
    soft_t2,
    strong_t0,
    strong_t1,
)
from .bitopology import pw_t0, pw_t1, pw_t2
from .errors import UnknownClaimError
from .rough import lower_approx, upper_approx
from .softset import Context, SoftSet, point_soft_set
from .space import BiSoftSpace, slice_space, sup_topology, subspace
from .topology import PointTopology, SoftTopology, generate_topology

EXHAUSTIVE_POINT_BOUND = 4  # topologies on <= 4 points are enumerable (355 on 4)


# ---------------------------------------------------------------------------
# enumeration of point topologies


def _family_closed(present: int, masks: Sequence[int]) -> bool:
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if not present >> (a | b) & 1:
                return False
            if not present >> (a & b) & 1:
                return False
    return True


@lru_cache(maxsize=None)
def _point_topologies(n: int) -> tuple[tuple[int, ...], ...]:
    """All topologies on an n-point set, as sorted open-mask tuples.

    Iterates every family bitset over the nontrivial masks in increasing
    numeric order, so the output order is canonical and reproducible.
    """
    if not 1 <= n <= EXHAUSTIVE_POINT_BOUND:
        raise ValueError(
            f"exhaustive enumeration supports 1..{EXHAUSTIVE_POINT_BOUND} points"
        )
    full = (1 << n) - 1
    base = 1 | (1 << full)
    out = []
    for famb in range(1 << max(full - 1, 0)):
        present = base | (famb << 1)
        masks = [m for m in range(full + 1) if present >> m & 1]
        if _family_closed(present, masks):
            out.append(tuple(masks))
    return tuple(out)


def enumerate_topologies(n_points: int) -> Iterable[PointTopology]:
    """Stream every topology on an n-point set exactly once."""
    points = tuple(f"p{i + 1}" for i in range(n_points))
    for opens in _point_topologies(n_points):
        yield PointTopology(points, opens)


def standard_context(nx: int, ne: int) -> Context:
    return Context.of(
        [f"x{i + 1}" for i in range(nx)], [f"e{j + 1}" for j in range(ne)]
    )


def as_soft_topology(opens: Iterable[int], ctx: Context) -> SoftTopology:
    """Reinterpret a topology on |X|*|E| points as a soft topology."""
    return SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in sorted(set(opens))))


# ---------------------------------------------------------------------------
# randomized generation


def random_soft_set(ctx: Context, rng: random.Random) -> SoftSet:
    return SoftSet(ctx, rng.randrange(ctx.full_mask + 1))


def random_soft_topology(ctx: Context, seed: int) -> SoftTopology:
    """Topology generated by a seed-derived random subbasis.

    The subbasis size is uniform on 0..4 and each member is a uniform
    random soft set; identical (context, seed) always gives an identical
    member list.
    """
    rng = random.Random(seed)
    subbasis = [random_soft_set(ctx, rng) for _ in range(rng.randint(0, 4))]
    return generate_topology(ctx, subbasis)


def random_space(ctx: Context, seed: int) -> BiSoftSpace:
    return BiSoftSpace(
        random_soft_topology(ctx, 2 * seed),
        random_soft_topology(ctx, 2 * seed + 1),
    )


def random_spaces(ctx: Context, count: int, seed: int) -> Iterable[BiSoftSpace]:
    for k in range(count):
        yield random_space(ctx, seed + k)


# ---------------------------------------------------------------------------
# claim registry


class SpaceFacts:
    """Lazily evaluated axiom facts for one space, shared across claims."""

    def __init__(self, space: BiSoftSpace):
        self.space = space

    @cached_property
    def t1_soft_t0(self):
        return soft_t0(self.space.t1)

    @cached_property
    def t2_soft_t0(self):
        return soft_t0(self.space.t2)

    @cached_property
    def t1_soft_t1(self):
        return soft_t1(self.space.t1)

    @cached_property
    def t2_soft_t1(self):
        return soft_t1(self.space.t2)

    @cached_property
    def t1_soft_t2(self):
        return soft_t2(self.space.t1)

    @cached_property
    def t2_soft_t2(self):
        return soft_t2(self.space.t2)

    @cached_property
    def sup(self):
        return sup_topology(self.space)

    @cached_property
    def sup_soft_t0(self):
        return soft_t0(self.sup)

    @cached_property
    def sup_soft_t1(self):
        return soft_t1(self.sup)

    @cached_property
    def sup_soft_t2(self):
        return soft_t2(self.sup)

    @cached_property
    def pairwise_t0(self):
        return pairwise_soft_t0(self.space)

    @cached_property
    def pairwise_t1(self):
        return pairwise_soft_t1(self.space)

    @cached_property
    def pairwise_t2(self):
        return pairwise_soft_t2(self.space)

    @cached_property
    def strong_t0(self):
        return strong_t0(self.space)

    @cached_property
    def strong_t1(self):
        return strong_t1(self.space)

    def _slices(self):
        return [
            slice_space(self.space, e)
            for e in self.space.context.parameters.parameters
        ]

    @cached_property
    def slices_pw_t0(self):
        return all(pw_t0(b) for b in self._slices())

    @cached_property
    def slices_pw_t1(self):
        return all(pw_t1(b) for b in self._slices())

    @cached_property
    def slices_pw_t2(self):
        return all(pw_t2(b) for b in self._slices())

    def _subspaces(self):
        elems = self.space.context.universe.elements
        for r in range(1, len(elems) + 1):
            for names in combinations(elems, r):
                yield subspace(self.space, names)

    @cached_property
    def hereditary_t0(self):
        return all(pairwise_soft_t0(s) for s in self._subspaces())

    @cached_property
    def hereditary_t1(self):
        return all(pairwise_soft_t1(s) for s in self._subspaces())

    @cached_property
    def hereditary_t2(self):
        return all(pairwise_soft_t2(s) for s in self._subspaces())

    @cached_property
    def thm1_agrees(self):
        return hausdorff_char(self.space) == self.pairwise_t2

    @cached_property
    def cor1_ok(self):
        ctx = self.space.context
        for x in ctx.universe.elements:
            pc = point_closure_intersection(self.space, x)
            if pc.vacuous or pc.value != point_soft_set(x, ctx):
                return False
        return True

    @cached_property
    def cor2_ok(self):
        ctx = self.space.context
        m1, m2 = set(self.space.t1.masks()), set(self.space.t2.masks())
        for x in ctx.universe.elements:
            comp = ctx.full_mask & ~ctx.row(x)
            if comp not in m1 or comp not in m2:
                return False
        return True


@dataclass(frozen=True)
class Claim:
    """An implication over spaces (or space/target pairs for rough claims).

    ``holds`` records whether the implication is expected to be valid;
    a counterexample is any instance where the premise holds and the
    conclusion fails.
    """

    id: str
    kind: str  # "space" | "rough"
    holds: bool
    description: str
    premise: Callable
    conclusion: Callable


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
        "pairwise soft T0 passes to every bi-soft subspace",
        lambda f: f.pairwise_t0,
        lambda f: f.hereditary_t0,
    ),
    _space_claim(
        "hereditary-t1",
        True,
        "pairwise soft T1 passes to every bi-soft subspace",
        lambda f: f.pairwise_t1,
        lambda f: f.hereditary_t1,
    ),
    _space_claim(
        "hereditary-t2",
        True,
        "pairwise soft T2 passes to every bi-soft subspace",
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
        "the closure characterization agrees with pairwise soft T2",
        lambda f: True,
        lambda f: f.thm1_agrees,
    ),
    _space_claim(
        "cor1-point-closure",
        True,
        "on pairwise soft T2 spaces the point closure intersection is the "
        "point soft set",
        lambda f: f.pairwise_t2,
        lambda f: f.cor1_ok,
    ),
    _space_claim(
        "cor2-point-complement-open",
        True,
        "on pairwise soft T2 spaces point soft set complements are open in "
        "both topologies",
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
    _space_claim(
        "pairwise-t2-implies-components-soft-t2",
        False,
        "pairwise soft T2 would force both components to be soft T2",
        lambda f: f.pairwise_t2,
        lambda f: f.t1_soft_t2 and f.t2_soft_t2,
    ),
    Claim(
        "lower-idempotence-equality",
        "rough",
        False,
        "the lower approximation would be idempotent (equality)",
        lambda s, a: True,
        lambda s, a: lower_approx(s, lower_approx(s, a)) == lower_approx(s, a),
    ),
    Claim(
        "upper-idempotence-equality",
        "rough",
        False,
        "the upper approximation would be idempotent (equality)",
        lambda s, a: True,
        lambda s, a: upper_approx(s, upper_approx(s, a)) == upper_approx(s, a),
    ),
]:
    CLAIMS[_c.id] = _c

CLAIM_ALIASES = {
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
        raise UnknownClaimError(claim_id) from None


# ---------------------------------------------------------------------------
# search configuration and corpora


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and mode for a search run.

    Exhaustive mode walks every factorization (|X|, |E|) within the
    bounds whose product stays at or below four points; random mode
    draws seeded spaces at exactly (max_universe, n_params).
    """

    max_universe: int
    n_params: int
    mode: str = "exhaustive"  # "exhaustive" | "random"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_universe < 1 or self.n_params < 1:
            raise ValueError("sizes must be positive")
        if self.mode == "exhaustive":
            if self.max_universe > EXHAUSTIVE_POINT_BOUND:
                raise ValueError(
                    "exhaustive mode is limited to universes of at most "
                    f"{EXHAUSTIVE_POINT_BOUND} elements"
                )
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random mode needs a positive sample count")

    def factorizations(self) -> list[tuple[int, int]]:
        if self.mode == "random":
            return [(self.max_universe, self.n_params)]
        out = [
            (nx, ne)
            for nx in range(1, self.max_universe + 1)
            for ne in range(1, self.n_params + 1)
            if nx * ne <= EXHAUSTIVE_POINT_BOUND
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


def iter_spaces(config: SearchConfig) -> Iterable[BiSoftSpace]:
    """Materialize the corpus a config describes, in canonical order."""
    if config.mode == "random":
        ctx = standard_context(config.max_universe, config.n_params)
        yield from random_spaces(ctx, config.samples, config.seed)
        return
    for nx, ne in config.factorizations():
        ctx = standard_context(nx, ne)
        topos = [
            as_soft_topology(opens, ctx) for opens in _point_topologies(nx * ne)
        ]
        for t1 in topos:
            for t2 in topos:
                yield BiSoftSpace(t1, t2)


# ---------------------------------------------------------------------------
# counterexample records


@dataclass(frozen=True)
class CounterexampleRecord:
    """A claim violation, carrying enough of the space to replay it."""

    claim_id: str
    universe: tuple[str, ...]
    parameters: tuple[str, ...]
    t1_masks: tuple[int, ...]
    t2_masks: tuple[int, ...]
    target_mask: Optional[int] = None
    note: str = ""

    def context(self) -> Context:
        return Context.of(self.universe, self.parameters)

    def space(self) -> BiSoftSpace:
        ctx = self.context()
        return BiSoftSpace(
            as_soft_topology(self.t1_masks, ctx),
            as_soft_topology(self.t2_masks, ctx),
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
    """Re-run the claim's checker on the record; True iff it still refutes."""
    claim = get_claim(record.claim_id)
    space = record.space()
    if claim.kind == "rough":
        target = record.target()
        if target is None:
            return False
        return claim.premise(space, target) and not claim.conclusion(space, target)
    facts = SpaceFacts(space)
    return claim.premise(facts) and not claim.conclusion(facts)


# ---------------------------------------------------------------------------
# implication verification


@dataclass
class ClaimResult:
    claim_id: str
    tested: int = 0
    premise_hits: int = 0
    violation_count: int = 0
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "tested": self.tested,
            "premise_hits": self.premise_hits,
            "violations": self.violation_count,
            "records": [r.to_dict() for r in self.records],
        }


@dataclass
class ImplicationReport:
    corpus: str
    results: dict[str, ClaimResult]

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


_MAX_RECORDS_PER_CLAIM = 3


def _verify_over_spaces(
    spaces: Iterable[BiSoftSpace], claim_ids: Sequence[str], corpus: str
) -> ImplicationReport:
    claims = [get_claim(c) for c in claim_ids]
    results = {c.id: ClaimResult(c.id) for c in claims}
    for s in spaces:
        facts = SpaceFacts(s)
        for c in claims:
            res = results[c.id]
            res.tested += 1
            if not c.premise(facts):
                continue
            res.premise_hits += 1
            if not c.conclusion(facts):
                res.violation_count += 1
                if len(res.records) < _MAX_RECORDS_PER_CLAIM:
                    res.records.append(record_for(c.id, s))
    return ImplicationReport(corpus, results)


def verify_implications(
    corpus: Union[SearchConfig, Iterable[BiSoftSpace]],
    claim_ids: Optional[Sequence[str]] = None,
) -> ImplicationReport:
    """Check the expected implications over a corpus; violations are data.

    Exhaustive configs run through the table-driven engine; anything else
    goes through the public checkers space by space.
    """
    ids = tuple(claim_ids) if claim_ids is not None else TRUE_CLAIM_IDS
    for cid in ids:
        get_claim(cid)
    if isinstance(corpus, SearchConfig):
        if corpus.mode == "exhaustive":
            return _engine_verify(corpus, ids)
        return _verify_over_spaces(iter_spaces(corpus), ids, corpus.describe())
    spaces = list(corpus)
    if not spaces:
        raise ValueError("corpus must not be empty")
    return _verify_over_spaces(spaces, ids, f"explicit:{len(spaces)} spaces")


def find_counterexample(
    claim_id: str, config: SearchConfig
) -> Optional[CounterexampleRecord]:
    """First space (in canonical or seed order) refuting the claim, if any."""
    claim = get_claim(claim_id)
    if claim.kind == "rough":
        return _find_rough_counterexample(claim, config)
    if claim.holds and config.mode == "exhaustive":
        # expected theorems usually have no counterexample, so the full
        # table-driven sweep is the fast way to conclude "not found"
        res = _engine_verify(config, (claim.id,)).results[claim.id]
        return res.records[0] if res.records else None
    for s in iter_spaces(config):
        facts = SpaceFacts(s)
        if claim.premise(facts) and not claim.conclusion(facts):
            return record_for(claim.id, s)
    return None


def _find_rough_counterexample(
    claim: Claim, config: SearchConfig
) -> Optional[CounterexampleRecord]:
    if config.mode == "random":
        ctx = standard_context(config.max_universe, config.n_params)
        rng = random.Random(config.seed + 7919)
        for s in random_spaces(ctx, config.samples, config.seed):
            a = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            if claim.premise(s, a) and not claim.conclusion(s, a):
                return record_for(claim.id, s, target=a)
        return None
    for s in iter_spaces(config):
        ctx = s.context
        for mask in range(ctx.full_mask + 1):
            a = SoftSet(ctx, mask)
            if claim.premise(s, a) and not claim.conclusion(s, a):
                return record_for(claim.id, s, target=a)
    return None


# ---------------------------------------------------------------------------
# table-driven exhaustive engine
#
# Everything below trades generality for speed on the Cartesian square of
# enumerated topologies.  Per-topology data is packed into integers:
#
# * separation facts are bitsets indexed by ordered/unordered point-pair
#   ids, so a pairwise axiom for a topology pair is one AND/OR and one
#   comparison;
# * existential facts over the 2^n mask space ("some member around x
#   fits inside c") are bitsets indexed by the mask value, so a disjoint
#   witness search is a single AND of two precomputed integers.


class _FactorTables:
    def __init__(self, nx: int, ne: int):
        self.nx, self.ne = nx, ne
        n = nx * ne
        self.n = n
        full = (1 << n) - 1
        self.full = full
        bm = (1 << nx) - 1
        rows = [sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)]
        self.rows = rows
        self.opairs = [(x, y) for x in range(nx) for y in range(nx) if x != y]
        self.upairs = list(combinations(range(nx), 2))
        oid = {p: k for k, p in enumerate(self.opairs)}
        self.full_o = (1 << len(self.opairs)) - 1
        self.full_u = (1 << len(self.upairs)) - 1
        self.swap = [oid[(y, x)] for (x, y) in self.opairs]
        # unordered-pair bit masks restricted to each sub-universe
        self.pairs_u_by_y = {}
        self.pairs_o_by_y = {}
        for ymask in range(1, 1 << nx):
            ub = ob = 0
            for k, (x, y) in enumerate(self.upairs):
                if ymask >> x & 1 and ymask >> y & 1:
                    ub |= 1 << k
            for k, (x, y) in enumerate(self.opairs):
                if ymask >> x & 1 and ymask >> y & 1:
                    ob |= 1 << k
            self.pairs_u_by_y[ymask] = ub
            self.pairs_o_by_y[ymask] = ob
        self.ybits = {
            ymask: sum(ymask << (e * nx) for e in range(ne))
            for ymask in range(1, 1 << nx)
        }

        topos = _point_topologies(n)
        self.topos = topos
        self.K = len(topos)
        self.famb = [sum(1 << m for m in op) for op in topos]
        self.idx_of_famb = {fb: i for i, fb in enumerate(self.famb)}

        K = self.K
        self.memx = []  # [i][x] -> tuple of member masks strongly containing x
        self.sep = []  # ordered-pair bitset: some member around x misses y
        self.sepsw = []
        self.sym0 = []  # unordered coverage of sep in either direction
        self.ssep = []  # strong variant: y inside the member's complement
        self.ssepsw = []
        self.ssym0 = []
        self.soft_t0 = []
        self.soft_t1 = []
        self.membits = []  # [i][x] bitset over member masks around x
        self.compbits = []  # [i][x] bitset of complements of members around x
        self.avail = []  # [i][x] bitset over c: some member around x fits in c
        self.cl = []  # [i][m] closure of m in topology i
        self.clfree = []  # [i][y] bitset over m: closure(m) misses y's row
        self.csep = []  # [i][e] classical slice sep bitsets
        self.csepsw = []
        self.csym0 = []
        self.ccomp = []  # [i][e][x] complements of slice opens around x
        self.cavail = []  # [i][e][x] slice opens around x fitting in c
        self._yavail_cache: dict = {}
        self._ycomp_cache: dict = {}

        nmask = full + 1
        cbm = bm + 1
        for opens in topos:
            memx = tuple(
                tuple(m for m in opens if m & r == r) for r in rows
            )
            self.memx.append(memx)
            sep = ssep = 0
            for k, (x, y) in enumerate(self.opairs):
                ry = rows[y]
                mx = memx[x]
                if any(m & ry != ry for m in mx):
                    sep |= 1 << k
                if any(m & ry == 0 for m in mx):
                    ssep |= 1 << k
            sepsw = ssepsw = 0
            for k in range(len(self.opairs)):
                if sep >> self.swap[k] & 1:
                    sepsw |= 1 << k
                if ssep >> self.swap[k] & 1:
                    ssepsw |= 1 << k
            sym0 = ssym0 = 0
            for k, (x, y) in enumerate(self.upairs):
                a, b = oid[(x, y)], oid[(y, x)]
                if sep >> a & 1 or sep >> b & 1:
                    sym0 |= 1 << k
                if ssep >> a & 1 or ssep >> b & 1:
                    ssym0 |= 1 << k
            self.sep.append(sep)
            self.sepsw.append(sepsw)
            self.sym0.append(sym0)
            self.ssep.append(ssep)
            self.ssepsw.append(ssepsw)
            self.ssym0.append(ssym0)
            self.soft_t0.append(sym0 == self.full_u)
            self.soft_t1.append(sep == self.full_o)

            self.membits.append(
                tuple(sum(1 << m for m in mx) for mx in memx)
            )
            self.compbits.append(
                tuple(sum(1 << (full ^ m) for m in mx) for mx in memx)
            )
            avail = []
            for mx in memx:
                bits = 0
                for c in range(nmask):
                    if any(m & ~c == 0 for m in mx):
                        bits |= 1 << c
                avail.append(bits)
            self.avail.append(tuple(avail))

            closed = [full ^ o for o in opens]
            cl = []
            for m in range(nmask):
                acc = full
                for c in closed:
                    if m & ~c == 0:
                        acc &= c
                cl.append(acc)
            self.cl.append(tuple(cl))
            clfree = []
            for r in rows:
                bits = 0
                for m in range(nmask):
                    if cl[m] & r == 0:
                        bits |= 1 << m
                clfree.append(bits)
            self.clfree.append(tuple(clfree))

            csep_l, csepsw_l, csym0_l, ccomp_l, cavail_l = [], [], [], [], []
            for e in range(ne):
                sop = sorted({(o >> (e * nx)) & bm for o in opens})
                cs = 0
                for k, (x, y) in enumerate(self.opairs):
                    if any(o >> x & 1 and not o >> y & 1 for o in sop):
                        cs |= 1 << k
                csw = 0
                for k in range(len(self.opairs)):
                    if cs >> self.swap[k] & 1:
                        csw |= 1 << k
                cy0 = 0
                for k, (x, y) in enumerate(self.upairs):
                    a, b = oid[(x, y)], oid[(y, x)]
                    if cs >> a & 1 or cs >> b & 1:
                        cy0 |= 1 << k
                ccomp = []
                cavail = []
                for x in range(nx):
                    around = [o for o in sop if o >> x & 1]
                    ccomp.append(sum(1 << (bm ^ o) for o in set(around)))
                    bits = 0
                    for c in range(cbm):
                        if any(o & ~c == 0 for o in around):
                            bits |= 1 << c
                    cavail.append(bits)
                csep_l.append(cs)
                csepsw_l.append(csw)
                csym0_l.append(cy0)
                ccomp_l.append(tuple(ccomp))
                cavail_l.append(tuple(cavail))
            self.csep.append(tuple(csep_l))
            self.csepsw.append(tuple(csepsw_l))
            self.csym0.append(tuple(csym0_l))
            self.ccomp.append(tuple(ccomp_l))
            self.cavail.append(tuple(cavail_l))

    # subspace witness tables are built lazily: they are only consulted
    # when a pair is pairwise soft T2, which is rare in the square.
    def ycomp(self, i: int, ymask: int):
        key = (i, ymask)
        got = self._ycomp_cache.get(key)
        if got is None:
            yb = self.ybits[ymask]
            full = self.full
            got = tuple(
                sum(1 << (full ^ (m & yb)) for m in set(mx)) for mx in self.memx[i]
            )
            self._ycomp_cache[key] = got
        return got

    def yavail(self, i: int, ymask: int):
        key = (i, ymask)
        got = self._yavail_cache.get(key)
        if got is None:
            yb = self.ybits[ymask]
            out = []
            for mx in self.memx[i]:
                restricted = {m & yb for m in mx}
                bits = 0
                for c in range(self.full + 1):
                    if any(m & ~c == 0 for m in restricted):
                        bits |= 1 << c
                out.append(bits)
            got = tuple(out)
            self._yavail_cache[key] = got
        return got


@lru_cache(maxsize=None)
def _factor_tables(nx: int, ne: int) -> _FactorTables:
    return _FactorTables(nx, ne)


def _close_family_bits(famb: int, nmask: int) -> int:
    while True:
        masks = [m for m in range(nmask) if famb >> m & 1]
        out = famb
        for i, a in enumerate(masks):
            for b in masks[i:]:
                out |= (1 << (a | b)) | (1 << (a & b))
        if out == famb:
            return famb
        famb = out


@lru_cache(maxsize=None)
def _join_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Index table of the join (smallest common refinement) of topology pairs.

    The join of two topologies on the same point set is again one of the
    enumerated topologies, so the table maps index pairs to an index.
    """
    topos = _point_topologies(n)
    K = len(topos)
    famb = [sum(1 << m for m in op) for op in topos]
    idx = {fb: i for i, fb in enumerate(famb)}
    nmask = 1 << n
    memo: dict[int, int] = {}
    join = [[0] * K for _ in range(K)]
    for i in range(K):
        fi = famb[i]
        row = join[i]
        for j in range(i, K):
            u = fi | famb[j]
            v = idx.get(u)
            if v is None:
                v = memo.get(u)
                if v is None:
                    v = idx[_close_family_bits(u, nmask)]
                    memo[u] = v
            row[j] = v
            join[j][i] = v
    return tuple(tuple(r) for r in join)


def _engine_record(
    t: _FactorTables, claim_id: str, i: int, j: int, note: str = ""
) -> CounterexampleRecord:
    return CounterexampleRecord(
        claim_id=claim_id,
        universe=tuple(f"x{k + 1}" for k in range(t.nx)),
        parameters=tuple(f"e{k + 1}" for k in range(t.ne)),
        t1_masks=t.topos[i],
        t2_masks=t.topos[j],
        note=note,
    )


def _engine_pair_facts(nx: int, ne: int, i: int, j: int) -> dict:
    """Axiom facts for one enumerated pair via the table route.

    Test support: lets the suite compare the fast engine against the
    public checkers space by space.
    """
    t = _factor_tables(nx, ne)
    cov0 = t.sym0[i] | t.sym0[j]
    cov1 = t.sep[i] & t.sepsw[j]
    comp1, memb1 = t.compbits[i], t.membits[i]
    avail2, clfree2 = t.avail[j], t.clfree[j]
    t2cov = chcov = 0
    for k, (x, y) in enumerate(t.opairs):
        if comp1[x] & avail2[y]:
            t2cov |= 1 << k
        if memb1[x] & clfree2[y]:
            chcov |= 1 << k
    pw2 = t2cov == t.full_o
    slices_t0 = all(
        (t.csym0[i][e] | t.csym0[j][e]) == t.full_u for e in range(ne)
    )
    slices_t1 = all(
        (t.csep[i][e] & t.csepsw[j][e]) == t.full_o for e in range(ne)
    )
    slices_t2 = all(
        all(t.ccomp[i][e][x] & t.cavail[j][e][y] for x, y in t.opairs)
        for e in range(ne)
    )
    hered_t2 = True
    for ym, po in t.pairs_o_by_y.items():
        if not po:
            continue
        yc, ya = t.ycomp(i, ym), t.yavail(j, ym)
        for k, (x, y) in enumerate(t.opairs):
            if po >> k & 1 and not yc[x] & ya[y]:
                hered_t2 = False
                break
        if not hered_t2:
            break
    cor1 = True
    for x, row in enumerate(t.rows):
        acc = t.full
        for m in t.memx[i][x]:
            acc &= t.cl[j][m]
        if acc != row:
            cor1 = False
            break
    cor2 = all(
        t.famb[i] >> (t.full ^ row) & 1 and t.famb[j] >> (t.full ^ row) & 1
        for row in t.rows
    )
    sup_idx = _join_table(t.n)[i][j]
    return {
        "pairwise_t0": cov0 == t.full_u,
        "pairwise_t1": cov1 == t.full_o,
        "pairwise_t2": pw2,
        "strong_t0": (t.ssym0[i] | t.ssym0[j]) == t.full_u,
        "strong_t1": (t.ssep[i] & t.ssepsw[j]) == t.full_o,
        "thm1_agrees": t2cov == chcov,
        "slices_pw_t0": slices_t0,
        "slices_pw_t1": slices_t1,
        "slices_pw_t2": slices_t2,
        "hereditary_t2": hered_t2,
        "cor1_ok": cor1,
        "cor2_ok": cor2,
        "t1_soft_t0": t.soft_t0[i],
        "t2_soft_t0": t.soft_t0[j],
        "t1_soft_t1": t.soft_t1[i],
        "t2_soft_t1": t.soft_t1[j],
        "sup_soft_t0": t.soft_t0[sup_idx],
        "sup_soft_t1": t.soft_t1[sup_idx],
    }


def _engine_verify(config: SearchConfig, claim_ids: Sequence[str]) -> ImplicationReport:
    results = {cid: ClaimResult(cid) for cid in claim_ids}
    want = set(claim_ids)
    for nx, ne in config.factorizations():
        _engine_scan(nx, ne, want, results)
    return ImplicationReport(config.describe(), results)


def _engine_scan(nx: int, ne: int, want: set, results: dict) -> None:
    """One Cartesian-square pass; appends into the per-claim results."""
    t = _factor_tables(nx, ne)
    K = t.K
    n_spaces = K * K
    for cid in want:
        results[cid].tested += n_spaces

    need_join = bool({"prop1", "prop3"} & want)
    join = _join_table(t.n) if need_join else None

    opairs = t.opairs
    pairbits = [1 << k for k in range(len(opairs))]
    full_o, full_u = t.full_o, t.full_u
    ne_range = range(ne)
    ymasks = [ym for ym in t.pairs_u_by_y if t.pairs_u_by_y[ym]]
    rows = t.rows
    full = t.full

    sep_l, sepsw_l, sym0_l = t.sep, t.sepsw, t.sym0
    ssep_l, ssepsw_l, ssym0_l = t.ssep, t.ssepsw, t.ssym0
    soft_t0_l, soft_t1_l = t.soft_t0, t.soft_t1
    membits_l, compbits_l = t.membits, t.compbits
    avail_l, clfree_l, cl_l = t.avail, t.clfree, t.cl
    csep_l, csepsw_l, csym0_l = t.csep, t.csepsw, t.csym0
    ccomp_l, cavail_l = t.ccomp, t.cavail
    famb_l, memx_l = t.famb, t.memx
    pairs_u_by_y, pairs_o_by_y = t.pairs_u_by_y, t.pairs_o_by_y

    def violate(cid, i, j, note=""):
        res = results[cid]
        res.violation_count += 1
        if len(res.records) < _MAX_RECORDS_PER_CLAIM:
            res.records.append(_engine_record(t, cid, i, j, note))

    w = want.__contains__
    do_prop1, do_prop2, do_prop3 = w("prop1"), w("prop2"), w("prop3")
    do_p4f, do_p4b = w("prop4-forward"), w("prop4-backward")
    do_p521, do_p510 = w("prop5-t2-t1"), w("prop5-t1-t0")
    do_s0, do_s1 = w("strong-t0-propagation"), w("strong-t1-propagation")
    do_h0, do_h1, do_h2 = (
        w("hereditary-t0"),
        w("hereditary-t1"),
        w("hereditary-t2"),
    )
    do_t2slice = w("t2-slice-propagation")
    do_thm1 = w("thm1-equivalence")
    do_cor1, do_cor2 = w("cor1-point-closure"), w("cor2-point-complement-open")
    need_t2 = do_p521 or do_h2 or do_t2slice or do_thm1 or do_cor1 or do_cor2

    for i in range(K):
        sep1, sym01 = sep_l[i], sym0_l[i]
        ssep1, ssym01 = ssep_l[i], ssym0_l[i]
        soft0_1, soft1_1 = soft_t0_l[i], soft_t1_l[i]
        comp1, memb1, memx1 = compbits_l[i], membits_l[i], memx_l[i]
        csep1, csym01, ccomp1 = csep_l[i], csym0_l[i], ccomp_l[i]
        famb1 = famb_l[i]
        join_row = join[i] if join is not None else None
        for j in range(K):
            # pairwise axioms from precomputed per-topology bitsets
            cov0 = sym01 | sym0_l[j]
            pw0 = cov0 == full_u
            cov1 = sep1 & sepsw_l[j]
            pw1 = cov1 == full_o
            pw2 = True
            if need_t2:
                avail2 = avail_l[j]
                clfree2 = clfree_l[j]
                t2cov = 0
                chcov = 0
                for k, (x, y) in enumerate(opairs):
                    if comp1[x] & avail2[y]:
                        t2cov |= pairbits[k]
                    if memb1[x] & clfree2[y]:
                        chcov |= pairbits[k]
                pw2 = t2cov == full_o
                if do_thm1 and t2cov != chcov:
                    violate(
                        "thm1-equivalence",
                        i,
                        j,
                        note=f"pair bitsets differ: t2={t2cov:x} char={chcov:x}",
                    )
            if do_prop2:
                results["prop2"].premise_hits += soft0_1 or soft_t0_l[j]
                if (soft0_1 or soft_t0_l[j]) and not pw0:
                    violate("prop2", i, j)
            if do_p4f:
                results["prop4-forward"].premise_hits += pw1
                if pw1 and not (soft1_1 and soft_t1_l[j]):
                    violate("prop4-forward", i, j)
            if do_p4b:
                both = soft1_1 and soft_t1_l[j]
                results["prop4-backward"].premise_hits += both
                if both and not pw1:
                    violate("prop4-backward", i, j)
            if do_prop1 and pw0:
                results["prop1"].premise_hits += 1
                if not soft_t0_l[join_row[j]]:
                    violate("prop1", i, j)
            if do_prop3 and pw1:
                results["prop3"].premise_hits += 1
                if not soft_t1_l[join_row[j]]:
                    violate("prop3", i, j)
            if do_p521 and pw2:
                results["prop5-t2-t1"].premise_hits += 1
                if not pw1:
                    violate("prop5-t2-t1", i, j)
            if do_p510 and pw1:
                results["prop5-t1-t0"].premise_hits += 1
                if not pw0:
                    violate("prop5-t1-t0", i, j)
            if do_s0:
                s0 = (ssym01 | ssym0_l[j]) == full_u
                if s0:
                    results["strong-t0-propagation"].premise_hits += 1
                    ok = pw0
                    if ok:
                        csym02 = csym0_l[j]
                        for e in ne_range:
                            if (csym01[e] | csym02[e]) != full_u:
                                ok = False
                                break
                    if not ok:
                        violate("strong-t0-propagation", i, j)
            if do_s1:
                s1 = (ssep1 & ssepsw_l[j]) == full_o
                if s1:
                    results["strong-t1-propagation"].premise_hits += 1
                    ok = pw1
                    if ok:
                        csepsw2 = csepsw_l[j]
                        for e in ne_range:
                            if (csep1[e] & csepsw2[e]) != full_o:
                                ok = False
                                break
                    if not ok:
                        violate("strong-t1-propagation", i, j)
            if do_h0 and pw0:
                results["hereditary-t0"].premise_hits += 1
                for ym in ymasks:
                    pu = pairs_u_by_y[ym]
                    if cov0 & pu != pu:
                        violate("hereditary-t0", i, j, note=f"sub-universe {ym:x}")
                        break
            if do_h1 and pw1:
                results["hereditary-t1"].premise_hits += 1
                for ym in ymasks:
                    po = pairs_o_by_y[ym]
                    if cov1 & po != po:
                        violate("hereditary-t1", i, j, note=f"sub-universe {ym:x}")
                        break
            if pw2 and (do_h2 or do_t2slice or do_cor1 or do_cor2):
                if do_h2:
                    results["hereditary-t2"].premise_hits += 1
                    bad_y = None
                    for ym in ymasks:
                        yc = t.ycomp(i, ym)
                        ya = t.yavail(j, ym)
                        po = pairs_o_by_y[ym]
                        for k, (x, y) in enumerate(opairs):
                            if po >> k & 1 and not yc[x] & ya[y]:
                                bad_y = ym
                                break
                        if bad_y is not None:
                            break
                    if bad_y is not None:
                        violate(
                            "hereditary-t2", i, j, note=f"sub-universe {bad_y:x}"
                        )
                if do_t2slice:
                    results["t2-slice-propagation"].premise_hits += 1
                    cavail2 = cavail_l[j]
                    ok = True
                    for e in ne_range:
                        cc1 = ccomp1[e]
                        ca2 = cavail2[e]
                        for x, y in opairs:
                            if not cc1[x] & ca2[y]:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        violate("t2-slice-propagation", i, j, note="slice not T2")
                if do_cor1:
                    results["cor1-point-closure"].premise_hits += 1
                    cl2 = cl_l[j]
                    for x, row in enumerate(rows):
                        acc = full
                        for m in memx1[x]:
                            acc &= cl2[m]
                        if acc != row:
                            violate("cor1-point-closure", i, j, note=f"x{x + 1}")
                            break
                if do_cor2:
                    results["cor2-point-complement-open"].premise_hits += 1
                    famb2 = famb_l[j]
                    for row in rows:
                        comp = full ^ row
                        if not (famb1 >> comp & 1 and famb2 >> comp & 1):
                            violate("cor2-point-complement-open", i, j)
                            break
            if do_thm1:
                results["thm1-equivalence"].premise_hits += 1
