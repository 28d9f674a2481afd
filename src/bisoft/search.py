"""Exhaustive and randomized search over small bi-soft topological spaces.

The workhorse is a reinterpretation: a soft set over (X, E) is one subset
of the product X x E, so a soft topology over (X, E) is exactly a
classical topology on |X|*|E| points.  Enumerating the topologies on up
to four points (1, 4, 29, 355 of them) therefore enumerates every soft
topology over every context with |X|*|E| <= 4, and because the packed
bitmask layout is shared by both readings the reinterpretation is the
identity on masks.  ``scan`` enumerates them as preorders, their
vectors of minimal open neighbourhoods ``U``.

A space claim in ``CLAIMS`` is a premise and a conclusion over named
facts of one space, and the registry is the only place a claim's logic
lives.  One fact function in ``scan`` produces the facts, off a profile
of integers read from each topology's minimal open neighbourhoods, as
one int per space with a bit per fact, and each claim runs once per
distinct key, weighted by its count.  Explicit corpora and ``replay``
profile one space at a time.  Random corpora and random-mode hunts key
each space straight from the ``U`` its two seeds draw, and build a space
only for a record.

Every fact is unchanged when the universe and the parameters are
relabelled together, so the exhaustive scan keys the pairs (i, j) of
each orbit minimum i of S_|X| x S_|E| on the topologies against every j
and weights them by the size of i's orbit, so counts stay exact labelled
counts (Brinkmann and McKay, J. Integer Sequences, 2005).  The first
violating position is then the first violating space, and a report's
records come from expanding the orbits of its first three.  Pairs whose
topologies have equal profiles share a key up to the supremum's soft
bits, so one cross key per pair of profile classes builds each row, and
every report and hunt reads one census of keys per factorization.

The test suite compares the facts with a member-quantifying oracle
(``tests/member_oracle.py``) field by field, the scan's reports with the
per-space reports on whole small corpora, and its counts, reports and
hunts with an unreduced labelled scan (``tests/labelled_scan.py``).
"""

from __future__ import annotations

import json
import random
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import UnknownClaimError
from .rough import lower_approx, upper_approx
from .softset import Context, SoftSet, _Value
from .space import BiSoftSpace
from .topology import SoftTopology, minimal_neighbourhoods

EXHAUSTIVE_POINT_BOUND = 4  # topologies on <= 4 points are enumerable (355 on 4)


# ---------------------------------------------------------------------------
# enumeration of point topologies


def enumerate_topologies(n_points: int) -> Iterable[SoftTopology]:
    """Stream every topology on an n-point set exactly once, as a soft
    topology over n elements and one parameter."""
    from .scan import _point_neighbourhoods

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


def _random_neighbourhoods(ctx: Context, seeds: Iterable[int]) -> Iterator[tuple]:
    """The ``U`` each seed draws: ``randint(0, 4)`` subbasis masks, each
    ``randrange(full_mask + 1)``, from one ``Random`` reseeded per seed."""
    rng, n, top = random.Random(), ctx.nx * ctx.ne, ctx.full_mask + 1
    for seed in seeds:
        rng.seed(seed)
        subbasis = [rng.randrange(top) for _ in range(rng.randint(0, 4))]
        yield minimal_neighbourhoods(subbasis, n)


def random_soft_topology(ctx: Context, seed: int) -> SoftTopology:
    """Topology generated by a seed-derived random subbasis.

    The subbasis size is uniform on 0..4 and each member is a uniform
    random soft set; identical (context, seed) always gives an identical
    member list.
    """
    (u,) = _random_neighbourhoods(ctx, [seed])
    return SoftTopology._from_neighbourhoods(ctx, u)


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


class Claim(_Value):
    """An implication over spaces (or space/target pairs for rough claims).

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
        raise UnknownClaimError(claim_id) from None


# ---------------------------------------------------------------------------
# search configuration and corpora


class SearchConfig(_Value):
    """Bounds and mode for a search run.

    Exhaustive mode walks every factorization (|X|, |E|) within the
    bounds whose product stays at or below four points; random mode
    draws seeded spaces at exactly (max_universe, n_params).
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
    from .scan import _point_neighbourhoods

    for nx, ne in config.factorizations():
        ctx = standard_context(nx, ne)
        topos = [
            SoftTopology._from_neighbourhoods(ctx, u)
            for u in _point_neighbourhoods(nx * ne)
        ]
        for t1 in topos:
            for t2 in topos:
                yield BiSoftSpace(t1, t2)


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
    """Re-run the claim's checker on the record; True iff it still refutes."""
    claim = get_claim(record.claim_id)
    space = record.space()
    if claim.kind == "rough":
        target = record.target()
        if target is None:
            return False
        return claim.premise(space, target) and not claim.conclusion(space, target)
    from .scan import space_facts

    facts = space_facts(space)
    return claim.premise(facts) and not claim.conclusion(facts)


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


def verify_implications(
    corpus: Union[SearchConfig, Iterable[BiSoftSpace]],
    claim_ids: Optional[Sequence[str]] = None,
) -> ImplicationReport:
    """Check space claims over a corpus; violations are data, not errors.

    ``claim_ids`` defaults to every claim expected to hold; gap claims may
    be named too.  Every corpus is read by the one fact function in
    ``scan``, off the minimal open neighbourhoods of each topology, and
    each claim runs once per distinct fact key; the records are the first
    three violating spaces in corpus order.  Random configs are keyed from
    their seeded ``U`` draws.  Exhaustive configs key the pairs of orbit
    minima of the relabellings of universe and parameters and weight them
    by orbit size, so ``tested``, ``premise_hits`` and violation counts
    are exact labelled counts.  Rough claims quantify over targets as well
    as spaces and are rejected here; ``find_counterexample`` searches them.
    """
    ids = tuple(claim_ids) if claim_ids is not None else TRUE_CLAIM_IDS
    if not ids:
        raise ValueError("no claims to verify")
    claims = [get_claim(cid) for cid in ids]
    rough = [c.id for c in claims if c.kind == "rough"]
    if rough:
        raise ValueError(f"rough claims {rough} need targets; use find_counterexample")
    from .scan import _verify_exhaustive, _verify_over_spaces, _verify_random

    if isinstance(corpus, SearchConfig):
        if corpus.mode == "exhaustive":
            return _verify_exhaustive(corpus, claims)
        return _verify_random(corpus, claims)
    spaces = list(corpus)
    if not spaces:
        raise ValueError("corpus must not be empty")
    return _verify_over_spaces(spaces, claims, f"explicit:{len(spaces)} spaces")


def find_counterexample(
    claim_id: str, config: SearchConfig
) -> Optional[CounterexampleRecord]:
    """First space (in canonical or seed order) refuting the claim, if any.

    A space claim reads each space's facts through the fact function in
    ``scan``: exhaustive configs read the census of each factorization,
    random ones key their draws up to the first violation.  Rough claims
    try every target of every space (random configs: one seeded target
    each).
    """
    claim = get_claim(claim_id)
    if claim.kind == "rough":
        return _find_rough_counterexample(claim, config)
    from .scan import _first_violation

    return _first_violation(config, claim)


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
