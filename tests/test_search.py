"""Model search: enumeration, random generation, claims, dual routes."""

import random
import sys
import threading
from functools import reduce
from itertools import chain, combinations, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from bisoft.errors import InvalidTopologyError, UnknownClaimError
import bisoft.scan as scan
from bisoft.scan import (
    _BY_VALUE,
    _SUP,
    _WALKED,
    _PairFacts,
    _bits,
    _decode,
    _every_slot,
    _first_violation,
    _mutual_pairs,
    _near_far,
    _orbits,
    _pair_key,
    _place,
    _point_neighbourhoods,
    _rows,
    _space_key,
    _tally,
    _verify_exhaustive,
    _verify_over_spaces,
    profile,
    space_facts,
)
from bisoft.search import (
    CLAIMS,
    Claim,
    EXHAUSTIVE_POINT_BOUND,
    CounterexampleRecord,
    SearchConfig,
    TRUE_CLAIM_IDS,
    _random_neighbourhoods,
    enumerate_topologies,
    find_counterexample,
    get_claim,
    iter_spaces,
    random_soft_set,
    random_soft_topology,
    random_spaces,
    record_for,
    replay,
    standard_context,
    verify_implications,
)
from bisoft.space import BiSoftSpace
from bisoft.softset import SoftSet
from bisoft.topology import (
    SoftTopology,
    generate_topology,
    minimal_neighbourhoods,
    topology_violations,
)
from labelled_scan import (
    _point_topologies,
    as_soft_topology,
    labelled_counts,
    labelled_report,
    pair_key,
)
import member_oracle as oracle

SPACE_CLAIM_IDS = tuple(c.id for c in CLAIMS.values() if c.kind == "space")
GAP_SPACE_CLAIM_IDS = tuple(
    c.id for c in CLAIMS.values() if c.kind == "space" and not c.holds
)
# every gap, and the former gap id that is now an alias of the true claim
# cor2-point-complement-open; the hunt under that id stays run
HUNTED_CLAIM_IDS = GAP_SPACE_CLAIM_IDS + ("pairwise-t2-implies-components-soft-t2",)


def brute_force_topology_count(n):
    """Independent oracle: filter every subset family over an n-point set."""
    full = frozenset(range(n))
    subsets = [
        frozenset(s)
        for s in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        )
    ]
    nontrivial = [s for s in subsets if s and s != full]
    count = 0
    for r in range(len(nontrivial) + 1):
        for chosen in combinations(nontrivial, r):
            fam = set(chosen) | {frozenset(), full}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                count += 1
    return count


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29)])
    def test_counts_match_brute_force_oracle(self, n, count):
        assert brute_force_topology_count(n) == count
        assert len(list(enumerate_topologies(n))) == count

    def test_four_point_count(self):
        assert len(_point_topologies(4)) == 355

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_family_filter_and_round_trips(self, n):
        # the U-vectors, in order, are those of the filtered families
        opens = _point_topologies(n)
        assert list(opens) == oracle.point_topologies(n)
        us = _point_neighbourhoods(n)
        assert [minimal_neighbourhoods(o, n) for o in opens] == list(us)

    def test_each_enumerated_family_is_a_topology(self):
        for p in enumerate_topologies(3):
            opens = set(p.masks())
            assert 0 in opens and p.context.full_mask in opens
            assert all(a | b in opens and a & b in opens for a in opens for b in opens)

    def test_no_duplicates_and_stable_order(self):
        once = [p.masks() for p in enumerate_topologies(3)]
        twice = [p.masks() for p in enumerate_topologies(3)]
        assert once == twice
        assert len(set(once)) == len(once)

    def test_size_over_bound_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_topologies(5))


class TestRandomGeneration:
    def test_determinism(self):
        ctx = standard_context(3, 2)
        a = random_soft_topology(ctx, 42)
        b = random_soft_topology(ctx, 42)
        assert a.masks() == b.masks()

    def test_different_seeds_vary(self):
        ctx = standard_context(3, 2)
        seen = {random_soft_topology(ctx, s).masks() for s in range(30)}
        assert len(seen) > 1

    def test_random_draws_are_valid_topologies(self):
        ctx = standard_context(3, 2)
        for seed in range(1000):
            t = random_soft_topology(ctx, seed)
            assert not topology_violations(list(t.members))

    def test_empty_subbasis_draw_is_indiscrete(self):
        # seeds whose subbasis size draw is zero must yield the two-member family
        ctx = standard_context(3, 2)
        found = False
        for seed in range(200):
            rng = random.Random(seed)
            if rng.randint(0, 4) == 0:
                assert random_soft_topology(ctx, seed).masks() == (0, ctx.full_mask)
                found = True
        assert found

    @pytest.mark.parametrize(
        "nx,ne", [(1, 1), (2, 2), (4, 2), (3, 3), (5, 3), (12, 1)]
    )
    def test_u_draws_match_generated_topologies(self, nx, ne):
        # one reseeded Random draws what a fresh Random per seed draws: the
        # subbasis that random_soft_set gives, and the topology it generates
        ctx = standard_context(nx, ne)
        drawn = list(_random_neighbourhoods(ctx, range(200)))
        for seed, u in enumerate(drawn):
            rng = random.Random(seed)
            subbasis = [random_soft_set(ctx, rng) for _ in range(rng.randint(0, 4))]
            assert u == generate_topology(ctx, subbasis).neighbourhoods(), seed
            assert u == random_soft_topology(ctx, seed).neighbourhoods(), seed

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_negative_seed_rejected(self, mode):
        # random.seed(-k) seeds like k, so a seed of -1 would draw the
        # topologies of seeds 2 and 1, another corpus under another name
        ctx = standard_context(3, 2)
        assert random_soft_topology(ctx, -1) == random_soft_topology(ctx, 1)
        with pytest.raises(ValueError, match="seed must not be negative"):
            SearchConfig(max_universe=3, n_params=2, mode=mode, samples=5, seed=-1)
        assert SearchConfig(3, 2, mode, samples=5, seed=0).seed == 0


class TestClaims:
    def test_alias_resolution(self):
        assert get_claim("rough-item-11-equality").id == "lower-idempotence-equality"
        assert get_claim("rough-item-12-equality").id == "upper-idempotence-equality"

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaimError):
            get_claim("no-such-claim")

    def test_gap_claims_witnessed_by_fixtures(self, fx):
        witnesses = {
            "pairwise-t0-implies-components-soft-t0": "t0a",
            "sup-soft-t0-implies-pairwise-t0": "t0b",
            "pairwise-t0-implies-slices-pw-t0": "t0a",
            "sup-soft-t1-implies-pairwise-t1": "t1b",
            "pairwise-t1-implies-slices-pw-t1": "t1c",
            "pairwise-t0-implies-pairwise-t1": "t0d",
            "pairwise-t1-implies-pairwise-t2": "t1a",
            "sup-soft-t2-implies-pairwise-t2": "t2a",
        }
        for claim_id, fixture in witnesses.items():
            claim = get_claim(claim_id)
            facts = space_facts(fx(fixture).space("S"))
            assert claim.premise(facts), (claim_id, fixture)
            assert not claim.conclusion(facts), (claim_id, fixture)


class TestFindCounterexample:
    def test_idempotence_counterexample_found_and_replays(self):
        cfg = SearchConfig(max_universe=3, n_params=1)
        record = find_counterexample("lower-idempotence-equality", cfg)
        assert record is not None
        assert record.target_mask is not None
        assert replay(record)

    def test_no_counterexample_below_three_points(self):
        cfg = SearchConfig(max_universe=2, n_params=1)
        assert find_counterexample("lower-idempotence-equality", cfg) is None

    def test_true_implication_has_no_counterexample(self):
        cfg = SearchConfig(max_universe=3, n_params=1)
        assert find_counterexample("prop5-t2-t1", cfg) is None

    def test_true_implications_clean_on_full_exhaustive_corpus(self):
        cfg = SearchConfig(max_universe=4, n_params=2)
        assert find_counterexample("prop1", cfg) is None
        assert find_counterexample("thm1-equivalence", cfg) is None

    def test_components_gap_record_shape(self):
        cfg = SearchConfig(max_universe=4, n_params=2)
        record = find_counterexample(
            "pairwise-t0-implies-components-soft-t0", cfg
        )
        assert record is not None
        facts = space_facts(record.space())
        assert facts.pairwise_t0
        assert not facts.t1_soft_t0 and not facts.t2_soft_t0
        assert replay(record)

    def test_gap_claim_counterexample_found_and_replays(self):
        cfg = SearchConfig(max_universe=2, n_params=2)
        record = find_counterexample("pairwise-t0-implies-pairwise-t1", cfg)
        assert record is not None
        assert replay(record)

    def test_pinned_pairwise_t1_gap_record(self):
        cfg = SearchConfig(max_universe=4, n_params=3)
        record = find_counterexample("pairwise-t1-implies-pairwise-t2", cfg)
        assert (record.universe, record.parameters) == (
            ("x1", "x2"),
            ("e1", "e2"),
        )
        assert record.t1_masks == (0, 5, 10, 15)
        assert record.t2_masks == (0, 2, 7, 10, 15)
        assert record.target_mask is None

    def test_pinned_upper_idempotence_record(self):
        cfg = SearchConfig(max_universe=4, n_params=2)
        record = find_counterexample("upper-idempotence-equality", cfg)
        assert (record.universe, record.parameters) == (
            ("x1", "x2", "x3"),
            ("e1",),
        )
        assert record.t1_masks == (0, 1, 7)
        assert record.t2_masks == (0, 3, 7)
        assert record.target_mask == 4

    def test_random_mode_is_deterministic(self):
        cfg = SearchConfig(
            max_universe=3, n_params=1, mode="random", samples=60, seed=9
        )
        a = find_counterexample("pairwise-t0-implies-pairwise-t1", cfg)
        b = find_counterexample("pairwise-t0-implies-pairwise-t1", cfg)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


class TestVerifyImplications:
    def test_per_space_route_reads_neighbourhoods_only(self, monkeypatch):
        # explicit and random corpora, random hunts and replay read every
        # subspace, slice and supremum off U, never through these builders
        def refuse(*args, **kwargs):
            raise AssertionError("built a topology the facts should read off U")

        for name, module in list(sys.modules.items()):
            if name == "bisoft" or name.startswith("bisoft."):
                for attr in ("relative_topology", "parameterize", "sup_topology"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        cfg = SearchConfig(max_universe=4, n_params=2, mode="random", samples=50)
        assert verify_implications(cfg).ok
        hunt = SearchConfig(max_universe=3, n_params=2, mode="random", samples=300)
        record = find_counterexample("pairwise-t0-implies-pairwise-t1", hunt)
        assert record is not None and replay(record)

    def test_random_claims_build_no_member_list(self, monkeypatch):
        # a generated topology keeps its U, and the claims read nothing
        # else; records and replay may list members, these runs make none
        def refuse(*args, **kwargs):
            raise AssertionError("built a member list no claim reads")

        for name, module in list(sys.modules.items()):
            if name == "bisoft" or name.startswith("bisoft."):
                if hasattr(module, "_union_closure"):
                    monkeypatch.setattr(module, "_union_closure", refuse)
        cfg = SearchConfig(max_universe=4, n_params=2, mode="random", samples=50)
        assert verify_implications(cfg).ok
        hunt = SearchConfig(max_universe=4, n_params=2, mode="random", samples=200)
        assert find_counterexample("prop3", hunt) is None

    def test_fixture_corpus_is_clean(self, fx):
        spaces = [
            fx(name).space("S")
            for name in ("bisoft1", "param", "t0a", "t0b", "t0d", "t1a", "t1b", "t1c", "t2a", "rough")
        ]
        report = verify_implications(spaces)
        assert report.ok
        assert all(r.tested == len(spaces) for r in report.results.values())

    def test_random_corpus_is_clean(self):
        cfg = SearchConfig(
            max_universe=3, n_params=2, mode="random", samples=100, seed=17
        )
        report = verify_implications(cfg)
        assert report.ok
        # exact premise counts: a generator that builds different
        # topologies changes them even when every claim still holds
        pinned = {
            "hereditary-t0": 73,
            "prop1": 73,
            "prop2": 68,
            "strong-t0-propagation": 15,
            "thm1-equivalence": 100,
        }
        assert {
            cid: res.premise_hits for cid, res in report.results.items()
        } == {cid: pinned.get(cid, 0) for cid in TRUE_CLAIM_IDS}

    def test_reports_are_byte_identical_across_runs(self):
        cfg = SearchConfig(
            max_universe=2, n_params=2, mode="random", samples=40, seed=3
        )
        assert verify_implications(cfg).to_json() == verify_implications(cfg).to_json()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            verify_implications([])

    @pytest.mark.parametrize(
        "cfg",
        [
            SearchConfig(max_universe=1, n_params=1),
            SearchConfig(max_universe=2, n_params=1, mode="random", samples=3),
        ],
    )
    def test_empty_claim_list_rejected(self, cfg):
        # an empty claim list checks nothing, so it cannot report "ok"
        with pytest.raises(ValueError, match="no claims"):
            verify_implications(cfg, claim_ids=[])

    def test_gap_claims_are_evaluated_on_exhaustive_configs(self):
        cfg = SearchConfig(max_universe=2, n_params=1)
        # two pairwise T1 spaces, both pairwise T2: evaluated, not vacuous
        held = verify_implications(cfg, ["pairwise-t1-implies-pairwise-t2"])
        public = _verify_over_spaces(
            iter_spaces(cfg), [CLAIMS["pairwise-t1-implies-pairwise-t2"]], cfg.describe()
        )
        assert held.to_json() == public.to_json()
        assert held.results["pairwise-t1-implies-pairwise-t2"].premise_hits == 2
        refuted = verify_implications(cfg, ["pairwise-t0-implies-pairwise-t1"])
        assert not refuted.ok
        (res,) = refuted.results.values()
        assert res.records and all(replay(r) for r in res.records)

    @pytest.mark.parametrize(
        "corpus",
        [
            SearchConfig(max_universe=2, n_params=1),
            SearchConfig(max_universe=2, n_params=1, mode="random", samples=3),
            "fixture",
        ],
    )
    def test_rough_claims_are_rejected(self, fx, corpus):
        if corpus == "fixture":
            corpus = [fx("rough").space("S")]
        with pytest.raises(ValueError, match="find_counterexample"):
            verify_implications(corpus, ["rough-item-11-equality"])

    def test_violation_is_reported_as_data(self, fx):
        # feed a false claim through the generic corpus path
        report = verify_implications(
            [fx("t0a").space("S")],
            claim_ids=["pairwise-t0-implies-components-soft-t0"],
        )
        assert not report.ok
        (res,) = report.results.values()
        assert res.violation_count == 1
        assert replay(res.records[0])


class TestRandomCorpora:
    """Random configs are keyed from their seeded ``U`` draws; the same
    spaces given as an explicit corpus go through ``space_facts``."""

    CONFIGS = [
        *(SearchConfig(4, 2, mode="random", samples=150, seed=s) for s in range(4)),
        SearchConfig(5, 3, mode="random", samples=12),
        SearchConfig(3, 3, mode="random", samples=200, seed=7),
        # each topology's <= 4 masks split 40 points into <= 16 classes of
        # equal N(x), so no topology here is soft T0 and no space pairwise
        # T0, and no gap claim is refuted; it places large bitsets
        SearchConfig(40, 1, mode="random", samples=20, seed=2),
    ]

    @staticmethod
    def spaces(cfg):
        ctx = standard_context(cfg.max_universe, cfg.n_params)
        return random_spaces(ctx, cfg.samples, cfg.seed)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=SearchConfig.describe)
    def test_reports_match_explicit_corpus_of_the_same_spaces(self, cfg):
        claims = [CLAIMS[c] for c in SPACE_CLAIM_IDS]
        keyed = verify_implications(cfg, SPACE_CLAIM_IDS)
        explicit = _verify_over_spaces(self.spaces(cfg), claims, cfg.describe())
        assert keyed.to_json() == explicit.to_json()
        # gap claims are refuted on the small contexts, so records are
        # compared too
        refuted = any(keyed.results[c].records for c in GAP_SPACE_CLAIM_IDS)
        assert refuted == (cfg.max_universe < 40)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=SearchConfig.describe)
    def test_hunts_return_the_first_violating_space(self, cfg):
        for claim_id in SPACE_CLAIM_IDS:
            claim = CLAIMS[claim_id]
            expected = None
            for s in self.spaces(cfg):
                facts = space_facts(s)
                if claim.premise(facts) and not claim.conclusion(facts):
                    expected = record_for(claim_id, s)
                    break
            assert find_counterexample(claim_id, cfg) == expected, claim_id

    def test_repeat_calls_profile_every_draw_again(self, monkeypatch):
        # nothing is kept between calls: each profiles both topologies of
        # every space it keys
        calls = []
        kernel_profile = scan._Kernel.profile

        def counted(kernel, u):
            calls.append(1)
            return kernel_profile(kernel, u)

        monkeypatch.setattr(scan._Kernel, "profile", counted)
        cfg = SearchConfig(4, 2, mode="random", samples=100, seed=1)
        counts, reports = [], []
        for _ in range(2):
            calls.clear()
            reports.append(verify_implications(cfg).to_json())
            counts.append(len(calls))
        assert counts == [2 * cfg.samples] * 2
        assert reports[0] == reports[1]
        hunts = []
        for _ in range(2):
            calls.clear()
            record = find_counterexample("pairwise-t0-implies-pairwise-t1", cfg)
            hunts.append((record, len(calls)))
        assert hunts[0] == hunts[1] and hunts[0][0] is not None
        assert 0 < hunts[0][1] < 2 * cfg.samples


class TestDualRoute:
    def test_engine_agrees_with_public_route_exhaustively_small(self):
        refuted_by_size = {
            (3, 1): {
                "pairwise-t0-implies-components-soft-t0",
                "pairwise-t0-implies-pairwise-t1",
                "sup-soft-t1-implies-pairwise-t1",
                "sup-soft-t2-implies-pairwise-t2",
            },
            (1, 3): set(),
            (2, 1): {
                "pairwise-t0-implies-pairwise-t1",
                "sup-soft-t1-implies-pairwise-t1",
                "sup-soft-t2-implies-pairwise-t2",
            },
        }
        for (max_x, params), refuted in refuted_by_size.items():
            cfg = SearchConfig(max_universe=max_x, n_params=params)
            scan = verify_implications(cfg, SPACE_CLAIM_IDS)
            public = _verify_over_spaces(
                iter_spaces(cfg), [CLAIMS[c] for c in SPACE_CLAIM_IDS], cfg.describe()
            )
            assert scan.to_json() == public.to_json(), cfg
            assert {
                cid for cid, r in scan.results.items() if r.violation_count
            } == refuted, cfg

    @pytest.mark.parametrize(
        "nx,ne", [(2, 2), (4, 1), (1, 4), (1, 3), (3, 2), (4, 2), (2, 3), (5, 3)]
    )
    def test_engine_pair_facts_agree_with_public_checkers(self, nx, ne):
        # enumerated pairs through the scan's profiles, random spaces
        # through the per-space profiles, each against member scans
        rng = random.Random(nx * 100 + ne)
        ctx = standard_context(nx, ne)
        if nx * ne <= EXHAUSTIVE_POINT_BOUND:
            opens = _point_topologies(nx * ne)
            k = len(opens)
            # the indiscrete (first) and discrete (last) topologies make every
            # fact but thm1_agrees false and true respectively once nx > 1
            pairs = [(0, 0), (k - 1, k - 1), (0, k - 1), (k - 1, 0)]
            pairs += [(rng.randrange(k), rng.randrange(k)) for _ in range(60)]
            cases = [
                (
                    _decode(pair_key(nx, ne, i, j)),
                    BiSoftSpace(
                        as_soft_topology(opens[i], ctx), as_soft_topology(opens[j], ctx)
                    ),
                )
                for i, j in pairs
            ]
        else:
            # so do the indiscrete topology and the one whose members are
            # the unions of rows, which has 2^nx members where the discrete
            # one has 2^(nx*ne)
            rows = [SoftSet(ctx, r) for r in ctx.rows]
            extremes = [generate_topology(ctx), generate_topology(ctx, rows)]
            spaces = [BiSoftSpace(p, q) for p in extremes for q in extremes]
            spaces += random_spaces(ctx, 12 if nx * ne > 8 else 80, seed=nx * ne)
            cases = [(space_facts(s), s) for s in spaces]
        seen = {name: set() for name in _PairFacts._fields}
        for fast, s in cases:
            assert fast._asdict() == oracle.facts(s), (nx, ne, s)
            for name in _PairFacts._fields:
                seen[name].add(getattr(fast, name))
        if nx > 1:
            assert all(
                values == {True, False}
                for name, values in seen.items()
                if name != "thm1_agrees"
            ), seen


class TestFactKey:
    def test_every_field_round_trips(self):
        fields = _PairFacts._fields
        assert _decode(0) == (False,) * len(fields)
        for k, name in enumerate(fields):
            assert _bits(name) == 1 << k
            facts = _decode(1 << k)
            assert [f for f in fields if getattr(facts, f)] == [name]
        rng = random.Random(5)
        for _ in range(200):
            key = rng.getrandbits(len(fields))
            facts = _decode(key)
            assert _bits(*(f for f in fields if getattr(facts, f))) == key

    def test_every_bit_is_seen_set_and_unset_on_2x2(self):
        # thm1_agrees is the one identity among the facts: the closure
        # test and pairwise T2 agree on every pair of topologies
        factorizations = SearchConfig(2, 2).factorizations()
        keys = [key for nx, ne in factorizations for key in _tally(nx, ne)]
        union = intersection = keys[0]
        for key in keys:
            union, intersection = union | key, intersection & key
        assert union == (1 << len(_PairFacts._fields)) - 1
        assert intersection == _bits("thm1_agrees")


# contexts of six points, one per shape: several parameters, several
# elements, and one parameter, where the slice is the topology itself
KERNEL_CONTEXTS = [standard_context(nx, ne) for nx, ne in [(2, 3), (3, 2), (6, 1)]]


def _preorder(steps):
    """The ``U`` of the topology generated by ``p -> q`` for q in
    ``steps[p]``: p's reflexive-transitive reach, so p lies in ``U_p`` and
    q in ``U_p`` puts ``U_q`` inside ``U_p``."""
    n = len(steps)
    u = [1 << p | sum(1 << q for q in qs - {p}) for p, qs in enumerate(steps)]
    while True:
        wider = list(u)
        for p in range(n):
            for q in range(n):
                if wider[p] >> q & 1:
                    wider[p] |= u[q]
        if wider == u:
            return u
        u = wider


@st.composite
def preorder_spaces(draw):
    ctx = draw(st.sampled_from(KERNEL_CONTEXTS))
    n = ctx.nx * ctx.ne
    steps = st.lists(st.sets(st.integers(0, n - 1), max_size=2), min_size=n, max_size=n)
    return ctx, _preorder(draw(steps)), _preorder(draw(steps))


def _opens(u):
    """Every open set of ``U``, by definition: each of its points' ``U_p``
    lies inside it."""
    n = len(u)
    return [
        m
        for m in range(1 << n)
        if all(u[p] & ~m == 0 for p in range(n) if m >> p & 1)
    ]


class TestProfileKernel:
    @settings(max_examples=200)
    @given(preorder_spaces())
    def test_space_key_matches_member_oracle(self, drawn):
        ctx, u1, u2 = drawn
        from_u = BiSoftSpace(
            SoftTopology._from_neighbourhoods(ctx, u1),
            SoftTopology._from_neighbourhoods(ctx, u2),
        )
        listed = BiSoftSpace(
            *(
                SoftTopology(ctx, [SoftSet(ctx, m) for m in _opens(u)])
                for u in (u1, u2)
            )
        )
        assert _decode(_space_key(from_u))._asdict() == oracle.facts(listed)
        assert _space_key(listed) == _space_key(from_u)

    @settings(max_examples=100)
    @given(preorder_spaces())
    def test_supremum_bits_are_ored_in_last(self, drawn):
        # what lets a row share one cross key per class pair
        ctx, u1, u2 = drawn
        p, q = profile(ctx, u1), profile(ctx, u2)
        cross = _pair_key(p, q, 0)
        for sup in range(8):
            assert _pair_key(p, q, sup << _SUP) == cross | sup << _SUP

    def test_t0_bitsets_match_a_pair_loop_on_large_preorders(self):
        # the profile places its T0 bitsets a row at a time; here every
        # bit is set pair by pair, from N(x), rows and slices
        rng = random.Random(41)
        seen = {"t0": 0, "strong_t0": 0, "slice_t0": 0}
        for _ in range(60):
            nx, ne = rng.randint(2, 40), rng.randint(1, 3)
            n = nx * ne
            steps = [set(rng.sample(range(n), rng.randint(0, 2))) for _ in range(n)]
            u = _preorder(steps)
            nbhd = [0] * nx
            for q, uq in enumerate(u):
                nbhd[q % nx] |= uq
            rows = [sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)]
            own = [uq & ((1 << nx) - 1) << (q - q % nx) for q, uq in enumerate(u)]
            expected = {"t0": 0, "strong_t0": 0, "slice_t0": 0}
            for x, y in combinations(range(nx), 2):
                if nbhd[x] == nbhd[y]:
                    expected["t0"] |= 1 << (x * nx + y)
                if nbhd[x] & rows[y] and nbhd[y] & rows[x]:
                    expected["strong_t0"] |= 1 << (x * nx + y)
            for q, r in combinations(range(n), 2):
                if own[q] == own[r]:
                    expected["slice_t0"] |= 1 << (q * n + r)
            got = profile(standard_context(nx, ne), u)
            for name, bits in expected.items():
                assert getattr(got, name) == bits, (nx, ne, name)
                seen[name] += bits.bit_count()
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "k", [0, 1, 2, _WALKED, _WALKED + 1, 101, _BY_VALUE, _BY_VALUE + 1]
    )
    def test_placing_and_transposing_agree_with_bit_loops(self, k):
        # past the split points the bitsets are merged pairwise and the
        # masks transposed as text; both must give the bit-by-bit result
        rng = random.Random(k)
        for width, dense in product((1, 7, 8, 13, k + 3), (True, False)):
            # one-bit values leave bits that a single value holds
            vals = [
                rng.getrandbits(width) if dense else 1 << rng.randrange(width)
                for _ in range(k)
            ]
            near = sum(v << i * width for i, v in enumerate(vals))
            far = sum(
                reduce(or_, vals[:i] + vals[i + 1 :], 0) << i * width
                for i in range(k)
            )
            assert _place(vals, width) == near
            assert _near_far(vals, width, _every_slot(k, width)) == (near, far)
        for density in (0.1, 0.5, 0.9):
            masks = [
                sum(1 << y for y in range(k) if y == x or rng.random() < density)
                for x in range(k)
            ]
            expected = sum(
                1 << (x * k + y)
                for x, y in combinations(range(k), 2)
                if masks[x] >> y & 1 and masks[y] >> x & 1
            )
            assert _mutual_pairs(masks) == expected

    @settings(max_examples=80)
    @given(preorder_spaces())
    def test_topology_from_u_matches_member_list(self, drawn):
        ctx, u, _ = drawn
        listed = SoftTopology(ctx, [SoftSet(ctx, m) for m in _opens(u)])
        from_u = SoftTopology._from_neighbourhoods(ctx, u)
        assert listed.neighbourhoods() == from_u.neighbourhoods() == tuple(u)
        assert from_u == listed and listed == from_u
        assert hash(from_u) == hash(listed)
        assert len(from_u) == len(listed)
        # membership before the member list exists
        fresh = SoftTopology._from_neighbourhoods(ctx, u)
        assert all(SoftSet(ctx, m) in fresh for m in _opens(u))
        assert repr(from_u) == repr(listed)
        assert from_u.masks() == listed.masks()
        assert from_u.members == listed.members
        assert from_u.element_neighbourhoods() == listed.element_neighbourhoods()


class TestRecords:
    def test_non_topology_record_is_rejected(self):
        # {x1,x2} & {x1,x3} = {x1} is missing, and the topology this family
        # generates is discrete, so a U-reading checker would call it T2
        family = [0, 3, 5, 6, 7]
        record = CounterexampleRecord.from_dict(
            {
                "claim": "pairwise-t1-implies-pairwise-t2",
                "universe": ["x1", "x2", "x3"],
                "parameters": ["e1"],
                "t1": family,
                "t2": family,
            }
        )
        with pytest.raises(InvalidTopologyError, match="intersection"):
            record.space()
        with pytest.raises(InvalidTopologyError):
            replay(record)

    def test_non_topology_in_explicit_corpus_is_rejected(self):
        # {x1} | {x2} is missing; the family's U would read it as the
        # topology that also has {x1, x2}
        ctx = standard_context(3, 1)
        with pytest.raises(InvalidTopologyError, match="union"):
            family = SoftTopology(ctx, tuple(SoftSet(ctx, m) for m in (0, 1, 2, 7)))
            verify_implications([BiSoftSpace(family, family)])


SMALL_TRUE_CLAIM_IDS = (
    "prop1",
    "prop4-backward",
    "hereditary-t2",
    "thm1-equivalence",
    "cor1-point-closure",
)


class TestOrbitScan:
    """The orbit scan against the unreduced labelled scan in ``labelled_scan``."""

    @pytest.mark.parametrize("nx,ne", SearchConfig(4, 4).factorizations())
    def test_representatives_are_orbit_minima_weighted_by_orbit_size(self, nx, ne):
        action, minima, sizes = _orbits(nx, ne)
        k = len(_point_topologies(nx * ne))
        assert len(set(map(tuple, action))) == len(action)
        assert all(sorted(g) == list(range(k)) for g in action)
        assert list(minima) == sorted(minima)
        for i, size in zip(minima, sizes):
            orbit = {g[i] for g in action}
            assert min(orbit) == i
            assert len(orbit) == size
        # the orbits partition the topologies, so the rows of the minima
        # weighted by orbit size cover every pair
        assert sum(sizes) == k
        assert sum(size * k for size in sizes) == k * k

    def test_row_keys_match_labelled_pair_keys(self):
        seen = set()
        for nx, ne in SearchConfig(4, 4).factorizations():
            if nx > 1:
                seen.add((nx, ne))
                k = len(_point_topologies(nx * ne))
                rows = list(_rows(nx, ne))
                assert [(i, size) for i, size, _ in rows] == list(
                    zip(*_orbits(nx, ne)[1:])
                )
                for i, _, keys in rows:
                    expected = [pair_key(nx, ne, i, j) for j in range(k)]
                    assert keys == expected, (nx, ne, i)
        assert seen == {(2, 1), (3, 1), (4, 1), (2, 2)}

    def test_first_census_positions_are_labelled_first_positions(self):
        # what an exhaustive hunt returns: the earliest first position of
        # the violating keys
        for nx, ne in SearchConfig(4, 4).factorizations():
            counts, firsts = labelled_counts(nx, ne)
            census = _tally(nx, ne)
            assert len(census) == len(counts)
            for key, (_, *positions) in census.items():
                assert positions[0] == firsts[_decode(key)][0], (nx, ne, key)
                assert 1 <= len(positions) <= 3
                assert positions == sorted(positions)
                for i, j in positions:
                    assert pair_key(nx, ne, i, j) == key

    def test_repeat_scans_and_hunts_compute_no_pair_key(self, monkeypatch):
        calls = []

        def counted(p, q, sup_bits):
            calls.append(1)
            return _pair_key(p, q, sup_bits)

        monkeypatch.setattr(scan, "_pair_key", counted)
        cfg = SearchConfig(4, 4)
        report = verify_implications(cfg)
        calls.clear()
        assert verify_implications(cfg) == report
        for claim_id in GAP_SPACE_CLAIM_IDS:
            find_counterexample(claim_id, cfg)
        assert len(calls) == 0
        # cold: one cross key per class heading a row and class of a partner,
        # and one orbit pass per factorization with |X| > 1
        passes = []
        orbit_minima = scan._orbit_minima

        def counted_minima(perms, k):
            passes.append(len(perms))
            return orbit_minima(perms, k)

        monkeypatch.setattr(scan, "_orbit_minima", counted_minima)
        scan._tally.cache_clear()
        scan._orbits.cache_clear()
        assert verify_implications(cfg) == report
        heads = pairs = 0
        group_orders = []
        for nx, ne in cfg.factorizations():
            if nx > 1:
                cls, *_, classes = scan._classes(nx, ne)
                action, minima, _ = _orbits(nx, ne)
                heads += len({cls[i] for i in minima}) * len(classes)
                pairs += len(minima) * len(cls)
                group_orders.append(len(action))
        assert len(calls) == heads == 13905 < pairs
        assert passes == group_orders

    def test_threads_filling_cross_keys_agree(self):
        # threads that build one census at once each fill their own cross
        # keys and build equal censuses, so no interleaving changes a report
        cfg = SearchConfig(4, 4)
        expected = verify_implications(cfg).to_json()
        scan._tally.cache_clear()
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: reports.append(verify_implications(cfg).to_json())
                )
                for _ in range(4)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert reports == [expected] * 4

    @pytest.mark.parametrize("nx,ne", [(2, 2), (1, 3), (3, 1)])
    def test_relabelling_preserves_every_fact(self, nx, ne):
        rng = random.Random(nx * 10 + ne)
        action = _orbits(nx, ne)[0]
        k = len(_point_topologies(nx * ne))
        for _ in range(40):
            i, j = rng.randrange(k), rng.randrange(k)
            keys = {pair_key(nx, ne, g[i], g[j]) for g in action}
            assert keys == {pair_key(nx, ne, i, j)}

    @pytest.mark.parametrize(
        "ne", [ne for nx, ne in SearchConfig(4, 4).factorizations() if nx == 1]
    )
    def test_single_element_factorizations_have_one_all_true_vector(self, ne):
        # what the scan counts in closed form instead of scanning
        k = len(_point_topologies(ne))
        all_true = (True,) * len(_PairFacts._fields)
        assert labelled_counts(1, ne)[0] == {all_true: k * k}

    @pytest.mark.parametrize("max_x,params", [(4, 4), (1, 4), (4, 1)])
    def test_closed_form_records_match_labelled_scan(self, max_x, params):
        # fails exactly on the all-true vector and its like, so its records
        # start in the closed-form factorizations
        claim = Claim(
            "not-pairwise-t0",
            "space",
            False,
            "",
            lambda f: True,
            lambda f: not f.pairwise_t0,
        )
        cfg = SearchConfig(max_x, params)
        labelled = labelled_report(cfg, [claim])
        assert _verify_exhaustive(cfg, [claim]).to_json() == labelled.to_json()
        assert _first_violation(cfg, claim) == labelled.results[claim.id].records[0]

    def test_vector_counts_match_labelled_scan(self):
        for nx, ne in SearchConfig(4, 4).factorizations():
            census = _tally(nx, ne)
            counts = {_decode(key): entry[0] for key, entry in census.items()}
            assert counts == labelled_counts(nx, ne)[0], (nx, ne)
            assert sum(counts.values()) == len(_point_topologies(nx * ne)) ** 2

    @pytest.mark.parametrize("max_x,params", [(4, 4), (4, 2), (3, 3)])
    def test_reports_match_labelled_scan(self, max_x, params):
        cfg = SearchConfig(max_x, params)
        assert (
            verify_implications(cfg, SPACE_CLAIM_IDS).to_json()
            == labelled_report(cfg, SPACE_CLAIM_IDS).to_json()
        )

    @pytest.mark.parametrize("claim_id", HUNTED_CLAIM_IDS + SMALL_TRUE_CLAIM_IDS)
    def test_hunt_is_labelled_first_violation(self, claim_id):
        cfg = SearchConfig(4, 4)
        claim = get_claim(claim_id)
        records = labelled_report(cfg, [claim]).results[claim.id].records
        # every gap is refuted on four points
        assert bool(records) != claim.holds
        assert find_counterexample(claim_id, cfg) == (records[0] if records else None)

    @pytest.mark.parametrize("claim_id", HUNTED_CLAIM_IDS)
    def test_hunt_is_public_route_first_record(self, claim_id):
        cfg = SearchConfig(2, 2)
        claim = get_claim(claim_id)
        record = find_counterexample(claim_id, cfg)

        def spaces_through_record():
            # every space before the record and the record's own space
            for s in iter_spaces(cfg):
                yield s
                if record is not None and record_for(claim.id, s) == record:
                    return

        public = _verify_over_spaces(spaces_through_record(), [claim], "")
        assert public.results[claim.id].records[:1] == ([record] if record else [])
