"""Exhaustive and randomized search over small bi-soft topological spaces.

The workhorse is a reinterpretation: a soft set over (X, E) is one subset
of the product X x E, so a soft topology over (X, E) is exactly a
classical topology on |X|*|E| points.  Enumerating the topologies on up
to four points (1, 4, 29, 355 of them) therefore enumerates every soft
topology over every context with |X|*|E| <= 4, and because the packed
bitmask layout is shared by both readings the reinterpretation is the
identity on masks.

A space claim in ``CLAIMS`` is a premise and a conclusion over named
facts of one space, and the registry is the only place a claim's logic
lives.  Two routes produce the facts:

* ``SpaceFacts`` runs the public checkers in ``axioms`` on one space at a
  time (on its one-parameter slices too); fixtures, random corpora,
  counterexample hunts and ``replay`` use it;
* the exhaustive scan summarises each enumerated topology once, in a
  profile of integers read off the same minimal open neighbourhoods the
  checkers read, and counts the topology pairs per distinct fact vector;
  each claim then runs once per vector, weighted by its count.

The test suite compares the scan's facts with ``SpaceFacts`` field by
field and its reports with the public route on whole small corpora.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

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
from .errors import UnknownClaimError
from .rough import lower_approx, upper_approx
from .softset import Context, SoftSet, point_soft_set
from .space import BiSoftSpace, slice_space, sup_topology, subspace
from .topology import (
    SoftTopology,
    _row_neighbourhoods,
    _strongly_apart,
    _weakly_apart,
    generate_topology,
    minimal_neighbourhoods,
)

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


def enumerate_topologies(n_points: int) -> Iterable[SoftTopology]:
    """Stream every topology on an n-point set exactly once, as a soft
    topology over n elements and one parameter."""
    ctx = standard_context(n_points, 1)
    for opens in _point_topologies(n_points):
        yield as_soft_topology(opens, ctx)


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

    @cached_property
    def _slices(self):
        return [
            slice_space(self.space, e)
            for e in self.space.context.parameters.parameters
        ]

    @cached_property
    def slices_pw_t0(self):
        return all(pairwise_soft_t0(b) for b in self._slices)

    @cached_property
    def slices_pw_t1(self):
        return all(pairwise_soft_t1(b) for b in self._slices)

    @cached_property
    def slices_pw_t2(self):
        return all(pairwise_soft_t2(b) for b in self._slices)

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
    """Check space claims over a corpus; violations are data, not errors.

    ``claim_ids`` defaults to every claim expected to hold; gap claims may
    be named too.  Exhaustive configs are counted by the profile scan,
    which reads every fact off minimal open neighbourhoods; a subspace on
    Y reads ``N(x)`` intersected with Y's rows, so ``relative_topology``
    runs only on the other route.  Random configs and explicit corpora go
    space by space through ``SpaceFacts`` and the public checkers.  Rough
    claims quantify over targets as well as spaces and are rejected here;
    ``find_counterexample`` searches them.
    """
    ids = tuple(claim_ids) if claim_ids is not None else TRUE_CLAIM_IDS
    if not ids:
        raise ValueError("no claims to verify")
    claims = [get_claim(cid) for cid in ids]
    rough = [c.id for c in claims if c.kind == "rough"]
    if rough:
        raise ValueError(f"rough claims {rough} need targets; use find_counterexample")
    if isinstance(corpus, SearchConfig):
        if corpus.mode == "exhaustive":
            return _verify_exhaustive(corpus, claims)
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
        # profile scan is the fast way to conclude "not found"
        res = _verify_exhaustive(config, [claim]).results[claim.id]
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
# exhaustive scan over neighbourhood profiles, read off U_p and N(x) (see
# ``topology``)


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

    opens: tuple[int, ...]  # the topology itself, for records
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
                opens=opens,
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


def _scan(config: SearchConfig) -> tuple[int, dict, dict]:
    """Count the spaces of an exhaustive corpus per distinct fact vector.

    Returns the number of spaces, the count per vector, and per vector its
    first ``_MAX_RECORDS_PER_CLAIM`` positions (factorization index, i, j).
    """
    counts: dict = {}
    firsts: dict = {}
    total = 0
    for k, (nx, ne) in enumerate(config.factorizations()):
        profiles = _profiles(nx, ne)
        sups = _sup_table(nx * ne)
        total += len(profiles) ** 2
        for i, p in enumerate(profiles):
            for j, s in enumerate(sups[i]):
                vec = _pair_facts(p, profiles[j], profiles[s])
                count = counts[vec] = counts.get(vec, 0) + 1
                if count <= _MAX_RECORDS_PER_CLAIM:
                    firsts.setdefault(vec, []).append((k, i, j))
    return total, counts, firsts


def _verify_exhaustive(
    config: SearchConfig, claims: Sequence[Claim]
) -> ImplicationReport:
    """Run each claim once per distinct fact vector, weighted by its count."""
    total, counts, firsts = _scan(config)
    sizes = config.factorizations()
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
        for k, i, j in sorted(violating)[:_MAX_RECORDS_PER_CLAIM]:
            ctx, profiles = standard_context(*sizes[k]), _profiles(*sizes[k])
            names = (ctx.universe.elements, ctx.parameters.parameters)
            res.records.append(
                CounterexampleRecord(c.id, *names, profiles[i].opens, profiles[j].opens)
            )
    return ImplicationReport(config.describe(), results)
