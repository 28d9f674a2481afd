"""Model search: enumeration, random generation, claims, dual routes."""

import gc
import random
import sys
import threading
import tracemalloc
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from bisoft.errors import InvalidTopologyError, UnknownClaimError
import bisoft.scan as scan
import bisoft.search as search
from bisoft.scan import (
    _ALL,
    _SUP,
    _WALKED,
    _PairFacts,
    _bits,
    _decode,
    _mutual_pairs,
    _pair_key,
    _space_key,
    profile,
    space_facts,
)
from bisoft.search import (
    CLAIMS,
    Claim,
    EXHAUSTIVE_POINT_BOUND,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    TRUE_CLAIM_IDS,
    _corpus,
    _images,
    _lanes,
    _orbits,
    _point_neighbourhoods,
    _random_neighbourhoods,
    _report,
    _tally,
    enumerate_topologies,
    find_counterexample,
    get_claim,
    random_soft_set,
    random_soft_topology,
    random_spaces,
    record_for,
    replay,
    standard_context,
    verify_implications,
)
from bisoft.rough import _reaches, lower_approx, upper_approx
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
    group_action,
    iter_spaces,
    labelled_counts,
    labelled_report,
    pair_key,
    plain_rough_hunt,
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
        "nx,ne", [(1, 1), (2, 2), (4, 2), (3, 3), (5, 3), (12, 1), (40, 2), (1000, 1)]
    )
    def test_u_draws_match_generated_topologies(self, nx, ne):
        # one reseeded Random draws what a fresh Random per seed draws: the
        # subbasis that random_soft_set gives, and the topology it generates;
        # past 32 points a subbasis mask takes several getrandbits words
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

    def test_unknown_claim_message_lists_known_claims(self):
        # the registry words the message, so the CLI prints it as it
        # prints any other BisoftError
        with pytest.raises(UnknownClaimError) as info:
            get_claim("nope")
        known = sorted(set(CLAIMS) | set(search.CLAIM_ALIASES))
        assert info.value.args[0] == "nope"
        assert str(info.value) == "unknown claim 'nope'; known claims: " + ", ".join(
            known
        )

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

    def test_exhaustive_params_past_the_point_bound_add_nothing(self):
        # no factorization of at most four points has more than four
        # parameters, so the parameter bound past four adds nothing
        big, small = SearchConfig(4, 10**12), SearchConfig(4, 4)
        assert big.factorizations() == small.factorizations()
        assert big.describe() == small.describe()
        reports = [verify_implications(c).to_json() for c in (big, small)]
        assert reports[0] == reports[1]

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
        explicit = verify_implications(
            iter_spaces(cfg), ["pairwise-t1-implies-pairwise-t2"]
        )
        public = ImplicationReport(cfg.describe(), explicit.results)
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
        keyed = verify_implications(cfg, SPACE_CLAIM_IDS)
        spaces = verify_implications(self.spaces(cfg), SPACE_CLAIM_IDS)
        explicit = ImplicationReport(cfg.describe(), spaces.results)
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

    @pytest.mark.parametrize(
        "cfg", [c for c in CONFIGS if c.max_universe == 4], ids=SearchConfig.describe
    )
    def test_corpus_meets_both_indiscrete_branches(self, cfg):
        # the keyed route reuses one profile of the indiscrete topology and
        # takes the other component's soft bits for the supremum's; the
        # parity tests above cover that only where both cases are drawn
        ctx = standard_context(cfg.max_universe, cfg.n_params)
        full = (ctx.full_mask,) * (cfg.max_universe * cfg.n_params)
        first = 2 * cfg.seed
        us = list(_random_neighbourhoods(ctx, range(first, first + 2 * cfg.samples)))
        pairs = list(zip(us[::2], us[1::2]))
        # each implies that the corpus draws the indiscrete topology
        assert any(u1 == full and u2 != full for u1, u2 in pairs)
        assert any(u2 == full and u1 != full for u1, u2 in pairs)

    def test_repeat_calls_profile_every_draw_again(self, monkeypatch):
        # nothing is kept between calls: each profiles the indiscrete
        # topology once and every other topology of every space it keys
        calls = []
        plain_profile = search.profile

        def counted(ctx, u):
            calls.append(1)
            return plain_profile(ctx, u)

        monkeypatch.setattr(search, "profile", counted)
        cfg = SearchConfig(4, 2, mode="random", samples=100, seed=1)
        ctx = standard_context(4, 2)
        full = (ctx.full_mask,) * 8
        drawn = list(_random_neighbourhoods(ctx, range(2, 2 + 2 * cfg.samples)))
        counts, reports = [], []
        for _ in range(2):
            calls.clear()
            reports.append(verify_implications(cfg).to_json())
            counts.append(len(calls))
        assert counts == [1 + sum(u != full for u in drawn)] * 2 == [157] * 2
        assert reports[0] == reports[1]
        hunts = []
        for _ in range(2):
            calls.clear()
            record = find_counterexample("pairwise-t0-implies-pairwise-t1", cfg)
            hunts.append((record, len(calls)))
        assert hunts[0] == hunts[1] and hunts[0][0] is not None
        assert 0 < hunts[0][1] < 2 * cfg.samples

    def test_random_hunts_stop_at_their_first_violation(self, monkeypatch):
        # a hunt draws its corpus lazily: of 10**8 spaces it keys those up
        # to the first violating one, at most two profiles each
        claim = get_claim("pairwise-t0-implies-pairwise-t1")
        spaces = random_spaces(standard_context(4, 2), 10**8, 0)
        for drawn, s in enumerate(spaces, 1):
            facts = space_facts(s)
            if claim.premise(facts) and not claim.conclusion(facts):
                break
        calls = []
        plain_profile = search.profile

        def counted(ctx, u):
            calls.append(1)
            return plain_profile(ctx, u)

        monkeypatch.setattr(search, "profile", counted)
        cfg = SearchConfig(4, 2, "random", 10**8, 0)
        assert find_counterexample(claim.id, cfg) == record_for(claim.id, s)
        assert 0 < len(calls) <= 2 * drawn

    def test_random_search_leaves_nothing_behind(self):
        # a profile reads of its context only fields the context derives
        # when built, so no per-context state outlives a call; the blocks
        # are each point's parameter block
        cfg = SearchConfig(4096, 2, mode="random", samples=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify_implications(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        for nx, ne in ((1, 4), (4, 1), (3, 2), (300, 2)):
            ctx = standard_context(nx, ne)
            assert len(ctx.blocks) == nx * ne
            for p, block in enumerate(ctx.blocks):
                assert block == ctx.block_mask << (p - p % ctx.nx)


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
            spaces = verify_implications(iter_spaces(cfg), SPACE_CLAIM_IDS)
            public = ImplicationReport(cfg.describe(), spaces.results)
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

    @pytest.mark.parametrize("nx,ne", SearchConfig(4, 4).factorizations())
    def test_every_census_key_agrees_with_member_oracle(self, nx, ne):
        # every key of every factorization on four points, built at each
        # of its first positions: this reaches 2x2 and 4x1, which the
        # random pairs above sample
        ctx = standard_context(nx, ne)
        opens = _point_topologies(nx * ne)
        checked = 0
        for key, (_, *positions) in _tally(nx, ne).items():
            for i, j in positions:
                s = BiSoftSpace(
                    as_soft_topology(opens[i], ctx), as_soft_topology(opens[j], ctx)
                )
                assert _decode(key)._asdict() == oracle.facts(s), (nx, ne, i, j)
                checked += 1
        assert checked >= len(_tally(nx, ne))


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

    def test_census_facts_fall_into_fifteen_classes(self):
        # theorems of finite models: pairwise T2 forces both topologies'
        # N(x) to be x's row, and a finite T1 slice is discrete; a kernel
        # change that merges or splits a class shows here
        keys = set()
        for nx, ne in SearchConfig(4, 4).factorizations():
            keys |= set(_tally(nx, ne))
        assert len(keys) == 95
        fields = _PairFacts._fields
        classes = {}
        for k, name in enumerate(fields):
            column = tuple(key >> k & 1 for key in sorted(keys))
            classes.setdefault(column, []).append(name)
        merged = [
            ["pairwise_t0", "hereditary_t0"],
            ["pairwise_t1", "hereditary_t1"],
            ["pairwise_t2", "strong_t1", "hereditary_t2", "cor1_ok", "cor2_ok"],
            ["slices_pw_t1", "slices_pw_t2"],
        ]
        alone = [[name] for name in fields if all(name not in m for m in merged)]
        assert sorted(classes.values()) == sorted(merged + alone)
        # thm1_agrees is the one constant class; the other 15 vary
        constant = [c for column, c in classes.items() if len(set(column)) == 1]
        assert constant == [["thm1_agrees"]]
        assert len(classes) - len(constant) == 15
        pairwise_t2 = fields.index("pairwise_t2")
        assert [key for key in keys if key >> pairwise_t2 & 1] == [_ALL]


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

    def test_t0_verdicts_match_a_pair_loop_on_large_preorders(self):
        # the key compares the pairs of the two topologies' N(x) and cut
        # U_p, and ANDs their meet bitsets; here every verdict is found
        # pair by pair, from N(x), rows and slices, on spaces past the
        # kernel's split points, and each comes out both ways
        rng = random.Random(41)
        seen = set()
        for _ in range(60):
            nx, ne = rng.randint(2, 40), rng.randint(1, 3)
            n = nx * ne
            dense = rng.choice((0, 1, 2, 4))

            def draw():
                steps = [rng.sample(range(n), rng.randint(0, dense)) for _ in range(n)]
                return _preorder(list(map(set, steps)))

            u1 = draw()
            us = (u1, u1 if rng.random() < 0.4 else draw())
            nbhd = [[0] * nx for _ in us]
            for t, u in enumerate(us):
                for q, uq in enumerate(u):
                    nbhd[t][q % nx] |= uq
            rows = [sum(1 << (e * nx + x) for e in range(ne)) for x in range(nx)]
            blk = [((1 << nx) - 1) << (q - q % nx) for q in range(n)]
            own = [[uq & b for uq, b in zip(u, blk)] for u in us]
            pairs = list(combinations(range(nx), 2))
            expected = {
                "pairwise_t0": not any(
                    all(nb[x] == nb[y] for nb in nbhd) for x, y in pairs
                ),
                "strong_t0": not any(
                    all(nb[x] & rows[y] and nb[y] & rows[x] for nb in nbhd)
                    for x, y in pairs
                ),
            }
            slices = {}
            for e in range(ne):
                block = list(combinations(range(e * nx, e * nx + nx), 2))
                t0 = not any(all(o[q] == o[r] for o in own) for q, r in block)
                t1 = not any(
                    o[q] >> r & 1 or o[r] >> q & 1 for o in own for q, r in block
                )
                slices[f"e{e + 1}"] = {"t0": t0, "t1": t1, "t2": t1}
            expected["slices_pw_t0"] = all(v["t0"] for v in slices.values())
            expected["slices_pw_t1"] = all(v["t1"] for v in slices.values())
            ctx = standard_context(nx, ne)
            space = BiSoftSpace(
                *(SoftTopology._from_neighbourhoods(ctx, u) for u in us)
            )
            facts, got = scan.space_verdicts(space)
            assert _decode(_space_key(space)) == facts
            assert {name: getattr(facts, name) for name in expected} == expected
            assert got == slices, (nx, ne)
            seen |= set(expected.items())
            seen |= {(f"slice {k}", v) for vs in slices.values() for k, v in vs.items()}
        names = [*expected, "slice t0", "slice t1"]
        assert seen >= {(name, value) for name in names for value in (False, True)}

    @pytest.mark.parametrize("k", [0, 1, 2, _WALKED, _WALKED + 1, 101])
    def test_placing_and_transposing_agree_with_bit_loops(self, k):
        # past the split point the masks are transposed as text; both
        # paths must give the rows of a pair loop
        rng = random.Random(k)
        for density in (0.1, 0.5, 0.9):
            masks = [
                sum(1 << y for y in range(k) if y == x or rng.random() < density)
                for x in range(k)
            ]
            expected = [0] * k
            for x, y in combinations(range(k), 2):
                if masks[x] >> y & 1 and masks[y] >> x & 1:
                    expected[x] |= 1 << y
            assert _mutual_pairs(masks) == tuple(expected)

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


ROUGH_CLAIM_IDS = (
    "lower-idempotence-equality",
    "upper-idempotence-equality",
    "rough-item-11-equality",
    "rough-item-12-equality",
)


class TestRoughHunt:
    @pytest.mark.parametrize("claim_id", ROUGH_CLAIM_IDS)
    def test_exhaustive_hunt_matches_a_plain_walk(self, claim_id):
        # the hunt tries each (context, reach vector) once; the plain walk
        # tries every target of every space
        for max_x, params in [(2, 1), *((4, params) for params in range(1, 5))]:
            cfg = SearchConfig(max_universe=max_x, n_params=params)
            found = find_counterexample(claim_id, cfg)
            assert found == plain_rough_hunt(claim_id, cfg), (max_x, params)
            assert (found is None) == (max_x == 2)

    @pytest.mark.parametrize("claim_id", ROUGH_CLAIM_IDS)
    def test_random_hunt_matches_a_plain_walk(self, claim_id):
        # the hunt reads reach vectors from the seeded U draws; the plain
        # walk builds every space of random_spaces, with the same targets
        found = []
        for (nx, ne, samples), seed in product([(3, 2, 50), (4, 4, 20)], range(4)):
            cfg = SearchConfig(nx, ne, mode="random", samples=samples, seed=seed)
            record = find_counterexample(claim_id, cfg)
            assert record == plain_rough_hunt(claim_id, cfg), cfg.describe()
            if record is not None:
                assert replay(record)
                found.append(cfg)
        assert found

    @settings(max_examples=100)
    @given(preorder_spaces())
    def test_equal_reach_vectors_give_equal_approximations(self, drawn):
        # cutting each U_p to p's block, or swapping the topologies, keeps
        # every (U1_p | U2_p) & blk(p)
        ctx, u1, u2 = drawn
        blk = [ctx.block_mask << (p - p % ctx.nx) for p in range(len(u1))]
        cut1, cut2 = ([up & b for up, b in zip(u, blk)] for u in (u1, u2))

        def space(*us):
            return BiSoftSpace(*(SoftTopology._from_neighbourhoods(ctx, u) for u in us))

        spaces = [space(u1, u2), space(u2, u1), space(cut1, cut2), space(cut2, u1)]
        assert len({tuple(_reaches(s)) for s in spaces}) == 1
        for mask in range(ctx.full_mask + 1):
            a = SoftSet(ctx, mask)
            assert len({lower_approx(s, a) for s in spaces}) == 1
            assert len({upper_approx(s, a) for s in spaces}) == 1


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
        action = group_action(nx, ne)
        k = len(_point_topologies(nx * ne))
        assert len(set(map(tuple, action))) == len(action)
        assert all(sorted(g) == list(range(k)) for g in action)
        orbits = {}
        for j in range(k):
            orbit = frozenset(g[j] for g in action)
            orbits.setdefault(min(orbit), len(orbit))
        minima, sizes = _orbits(nx, ne)
        assert list(minima) == sorted(orbits)
        assert list(sizes) == [orbits[i] for i in minima]
        # the orbits partition the topologies, so the rows of the minima
        # weighted by orbit size cover every pair
        assert sum(sizes) == k
        assert sum(size * k for size in sizes) == k * k

    @pytest.mark.parametrize("nx,ne", [(2, 1), (3, 1), (2, 2), (1, 3)])
    def test_images_expand_pairs_as_the_group_action(self, nx, ne):
        # what a report's records expand: the orbit of each first position
        action = group_action(nx, ne)
        k = len(_point_topologies(nx * ne))
        rng = random.Random(nx * 10 + ne)
        for _ in range(30):
            i, j = rng.randrange(k), rng.randrange(k)
            expected = {(g[i], g[j]) for g in action}
            assert set(zip(_images(nx, ne, i), _images(nx, ne, j))) == expected

    def test_lanes_hold_every_neighbourhood(self):
        for n in range(1, EXHAUSTIVE_POINT_BOUND + 1):
            lanes = _lanes(n)
            for j, u in enumerate(_point_neighbourhoods(n)):
                for p in range(n):
                    column = sum((lanes[p][q] >> j & 1) << q for q in range(n))
                    assert column == u[p], (n, j, p)

    def test_lane_supremum_bits_match_kernel_soft_on_every_pair(self):
        seen = set()
        for nx, ne in SearchConfig(4, 4).factorizations():
            if nx == 1:
                continue
            seen.add((nx, ne))
            ctx = standard_context(nx, ne)
            us = _point_neighbourhoods(nx * ne)
            every = (1 << len(us)) - 1
            for ui in us:
                t0, t1, t2 = scan.meet_soft(ctx, ui, _lanes(nx * ne), every)
                for j, uj in enumerate(us):
                    bits = (t0 >> j & 1) | (t1 >> j & 1) << 1 | (t2 >> j & 1) << 2
                    assert bits == scan.soft(ctx, [a & b for a, b in zip(ui, uj)])
        assert seen == {(2, 1), (3, 1), (4, 1), (2, 2)}

    def test_five_point_orbits_count_unlabelled_topologies(self, monkeypatch):
        # 139 topologies on five points up to homeomorphism (OEIS A001930),
        # 6,942 labelled (A000798); the bound is raised for this test only
        caches = (search._point_neighbourhoods, search._relabellings,
                  search._index, search._orbits)
        monkeypatch.setattr(search, "EXHAUSTIVE_POINT_BOUND", 5)
        try:
            minima, sizes = _orbits(5, 1)
            assert len(minima) == 139
            assert sum(sizes) == len(_point_neighbourhoods(5)) == 6942
        finally:
            for cached in caches:
                cached.cache_clear()

    def test_corpus_censuses_stay_bounded(self):
        search._census.cache_clear()
        for max_x in range(1, EXHAUSTIVE_POINT_BOUND + 1):
            for params in range(1, 9):
                verify_implications(SearchConfig(max_x, params))
        assert search._census.cache_info().currsize <= 16

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
        calls, meets = [], []

        def counted(p, q, sup_bits):
            calls.append(1)
            return _pair_key(p, q, sup_bits)

        meet_soft = search.meet_soft

        def counted_meets(ctx, u, lanes, every):
            meets.append(1)
            return meet_soft(ctx, u, lanes, every)

        monkeypatch.setattr(search, "_pair_key", counted)
        monkeypatch.setattr(search, "meet_soft", counted_meets)
        cfg = SearchConfig(4, 4)
        report = verify_implications(cfg)
        calls.clear()
        meets.clear()
        assert verify_implications(cfg) == report
        for claim_id in GAP_SPACE_CLAIM_IDS:
            find_counterexample(claim_id, cfg)
        assert len(calls) == len(meets) == 0
        # cold: one cross key per class heading a row and class of a
        # partner, and one set of supremum lanes per orbit minimum
        search._tally.cache_clear()
        search._census.cache_clear()
        assert verify_implications(cfg) == report
        heads = pairs = rows = 0
        for nx, ne in cfg.factorizations():
            if nx > 1:
                labelled, members = search._classes(nx, ne)
                minima, _ = _orbits(nx, ne)
                heads += len({labelled[i] for i in minima}) * len(members)
                pairs += len(minima) * len(labelled)
                rows += len(minima)
        assert len(calls) == heads == 469 < pairs
        assert len(meets) == rows == 148

    def test_threads_filling_cross_keys_agree(self):
        # threads that build one census at once each fill their own cross
        # keys and build equal censuses, so no interleaving changes a report
        cfg = SearchConfig(4, 4)
        expected = verify_implications(cfg).to_json()
        search._tally.cache_clear()
        search._census.cache_clear()
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
        action = group_action(nx, ne)
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
        description, census, violations = _corpus(cfg)
        report = _report([claim], description, census, violations)
        assert report.to_json() == labelled.to_json()
        assert next(violations(claim)) == labelled.results[claim.id].records[0]

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

        public = verify_implications(spaces_through_record(), [claim_id])
        assert public.results[claim.id].records[:1] == ([record] if record else [])
