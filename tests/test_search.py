"""Model search: enumeration, random generation, claims, dual routes."""

import random
from itertools import chain, combinations

import pytest

from bisoft.errors import UnknownClaimError
from bisoft.search import (
    SearchConfig,
    SpaceFacts,
    _engine_pair_facts,
    _point_topologies,
    _verify_over_spaces,
    TRUE_CLAIM_IDS,
    enumerate_topologies,
    find_counterexample,
    get_claim,
    iter_spaces,
    random_soft_topology,
    replay,
    standard_context,
    verify_implications,
)
from bisoft.topology import topology_violations


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

    def test_each_enumerated_family_is_a_topology(self):
        for p in enumerate_topologies(3):
            opens = set(p.opens)
            assert 0 in opens and p.full in opens
            assert all(a | b in opens and a & b in opens for a in opens for b in opens)

    def test_no_duplicates_and_stable_order(self):
        once = [p.opens for p in enumerate_topologies(3)]
        twice = [p.opens for p in enumerate_topologies(3)]
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
            facts = SpaceFacts(fx(fixture).space("S"))
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
        facts = SpaceFacts(record.space())
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


class TestDualRoute:
    def test_engine_agrees_with_public_route_exhaustively_small(self):
        cfg = SearchConfig(max_universe=3, n_params=1)
        engine = verify_implications(cfg)
        public = _verify_over_spaces(
            iter_spaces(cfg), TRUE_CLAIM_IDS, cfg.describe()
        )
        for cid in TRUE_CLAIM_IDS:
            a, b = engine.results[cid], public.results[cid]
            assert (a.tested, a.premise_hits, a.violation_count) == (
                b.tested,
                b.premise_hits,
                b.violation_count,
            ), cid

    @pytest.mark.parametrize("nx,ne", [(2, 2), (4, 1), (1, 3)])
    def test_engine_pair_facts_agree_with_public_checkers(self, nx, ne):
        rng = random.Random(nx * 100 + ne)
        topos = _point_topologies(nx * ne)
        ctx = standard_context(nx, ne)
        from bisoft.search import as_soft_topology
        from bisoft.space import BiSoftSpace

        keys = [
            "pairwise_t0",
            "pairwise_t1",
            "pairwise_t2",
            "strong_t0",
            "strong_t1",
            "thm1_agrees",
            "slices_pw_t0",
            "slices_pw_t1",
            "slices_pw_t2",
            "hereditary_t2",
            "cor1_ok",
            "cor2_ok",
            "t1_soft_t0",
            "t2_soft_t0",
            "t1_soft_t1",
            "t2_soft_t1",
            "sup_soft_t0",
            "sup_soft_t1",
        ]
        for _ in range(60):
            i = rng.randrange(len(topos))
            j = rng.randrange(len(topos))
            fast = _engine_pair_facts(nx, ne, i, j)
            facts = SpaceFacts(
                BiSoftSpace(
                    as_soft_topology(topos[i], ctx),
                    as_soft_topology(topos[j], ctx),
                )
            )
            for key in keys:
                assert fast[key] == getattr(facts, key), (nx, ne, i, j, key)
