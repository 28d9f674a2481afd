"""Acceptance suite: one test per release criterion, with timing budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
from contextlib import contextmanager
from itertools import chain, combinations
from time import perf_counter

from bisoft.axioms import (
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    soft_t0,
    soft_t1,
    soft_t2,
)
from bisoft.fixtures import builtin_fixture_names, load_fixture
from bisoft.rough import lower_approx, rough_regions, upper_approx
from bisoft.scan import space_facts
from bisoft.search import (
    SearchConfig,
    find_counterexample,
    get_claim,
    random_space,
    replay,
    standard_context,
    verify_implications,
)
from bisoft.softset import (
    SoftSet,
    absolute_soft_set,
    null_soft_set,
    soft_complement,
    soft_intersect,
    soft_subset,
    soft_union,
)
from bisoft.space import slice_space, sup_topology
from bisoft.topology import parameterize

from conftest import make_soft
from labelled_scan import _point_topologies


@contextmanager
def criterion(num, desc, budget=None):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {desc}")
        raise
    elapsed = perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"criterion {num:2d} FAIL ({elapsed:.2f}s over {budget}s budget): {desc}"
        )
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {budget}s budget")
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s): {desc}")


def names_of(one_parameter_topology):
    (e,) = one_parameter_topology.context.parameters.parameters
    return {m.table()[e] for m in one_parameter_topology.members}


def test_criterion_1_fixture_validity():
    with criterion(1, "every shipped topology validates", budget=1.0):
        for name in builtin_fixture_names():
            doc = load_fixture(name)
            for tname in doc.topology_members:
                doc.topology(tname)


def test_criterion_2_supremum_exactness():
    with criterion(2, "supremum topologies match the printed listings exactly"):
        doc = load_fixture("bisoft1")
        ctx = doc.context
        sup = sup_topology(doc.space("S"))
        h1 = make_soft(ctx, e1="h1 h2", e2="h1 h2")
        expected = sorted(
            {0, ctx.full_mask, h1.mask}
            | {doc.resolve(n).mask for n in ("F1", "F2", "G1", "G2", "G3", "G4")}
        )
        assert list(sup.masks()) == expected
        assert h1 in sup

        doc = load_fixture("t2a")
        ctx = doc.context
        sup = sup_topology(doc.space("S"))
        h3 = make_soft(ctx, e1="h3", e2="h1 h3")
        expected = sorted(
            {
                0,
                ctx.full_mask,
                make_soft(ctx, e1="h1 h3", e2="h1 h3").mask,
                make_soft(ctx, e1="h2 h3", e2="h1 h2 h3").mask,
                h3.mask,
            }
            | {doc.resolve(n).mask for n in doc.soft_sets}
        )
        assert list(sup.masks()) == expected
        assert len(sup) == 12
        assert h3 in sup


def test_criterion_3_parameterization_exactness():
    with criterion(3, "parameterized slices match the printed topologies exactly"):
        doc = load_fixture("param")
        t1, t2 = doc.topology("T1"), doc.topology("T2")
        x = ("h1", "h2", "h3")
        assert names_of(parameterize(t1, "e1")) == {
            (), x, ("h2",), ("h1", "h2"), ("h2", "h3")
        }
        assert names_of(parameterize(t2, "e1")) == {
            (), x, ("h1",), ("h2",), ("h1", "h2")
        }
        assert names_of(parameterize(t1, "e2")) == {
            (), x, ("h1",), ("h1", "h3"), ("h1", "h2")
        }
        assert names_of(parameterize(t2, "e2")) == {(), x, ("h2",)}

        doc = load_fixture("rough")
        t1, t2 = doc.topology("T1"), doc.topology("T2")
        x = ("x1", "x2", "x3", "x4", "x5")
        assert names_of(parameterize(t1, "Red")) == {
            (), x, ("x2",), ("x2", "x4"), ("x1", "x2", "x4")
        }
        assert names_of(parameterize(t2, "Red")) == {
            (), x, ("x1",), ("x2", "x4"), ("x1", "x2", "x4")
        }
        assert names_of(parameterize(t1, "Green")) == {
            (), x, ("x2",), ("x1", "x5"), ("x1", "x2", "x5")
        }
        assert names_of(parameterize(t2, "Green")) == {
            (), x, ("x4",), ("x2", "x5"), ("x2", "x4", "x5")
        }
        assert names_of(parameterize(t1, "Blue")) == {
            (),
            x,
            ("x1",),
            ("x2",),
            ("x1", "x3"),
            ("x1", "x2"),
            ("x1", "x2", "x3"),
        }
        assert names_of(parameterize(t2, "Blue")) == {
            (), x, ("x2",), ("x1", "x3"), ("x1", "x2", "x3")
        }


def test_criterion_4_axiom_matrix():
    with criterion(4, "axiom verdicts on every fixture match the documented matrix"):
        s = load_fixture("t0a").space("S")
        assert pairwise_soft_t0(s) is True
        assert soft_t0(s.t1) is False
        assert soft_t0(s.t2) is False
        assert pairwise_soft_t0(slice_space(s, "e1")) is False

        s = load_fixture("t0b").space("S")
        assert pairwise_soft_t0(s) is False
        assert soft_t0(sup_topology(s)) is True

        s = load_fixture("t0d").space("S")
        assert pairwise_soft_t0(s) is True
        assert pairwise_soft_t1(s) is False

        s = load_fixture("t1a").space("S")
        assert pairwise_soft_t1(s) is True
        assert pairwise_soft_t2(s) is False

        s = load_fixture("t1b").space("S")
        assert pairwise_soft_t1(s) is False
        assert soft_t1(sup_topology(s)) is True

        s = load_fixture("t1c").space("S")
        assert pairwise_soft_t1(s) is True
        assert pairwise_soft_t1(slice_space(s, "e1")) is False
        assert pairwise_soft_t1(slice_space(s, "e2")) is False

        s = load_fixture("t2a").space("S")
        assert pairwise_soft_t2(s) is False
        assert soft_t2(sup_topology(s)) is True


def test_criterion_5_rough_exactness():
    doc = load_fixture("rough")
    s = doc.space("S")
    target = doc.resolve("F")
    with criterion(5, "rough regions reproduce the worked example bit-exactly", budget=0.1):
        rr = rough_regions(s, target)
        assert rr.lower.table() == {
            "Red": ("x2", "x4"),
            "Green": (),
            "Blue": ("x1", "x3"),
        }
        assert rr.upper.table() == {
            "Red": ("x1", "x2", "x3", "x4", "x5"),
            "Green": (),
            "Blue": ("x1", "x3", "x4", "x5"),
        }
        assert rr.neg.table() == {
            "Red": (),
            "Green": ("x1", "x2", "x3", "x4", "x5"),
            "Blue": ("x2",),
        }
        assert rr.bnd.table() == {
            "Red": ("x1", "x3", "x5"),
            "Green": (),
            "Blue": ("x4", "x5"),
        }
        assert rr.pos == rr.lower
        assert not rr.definable


HAUSDORFF_CLAIMS = (
    "thm1-equivalence",
    "cor1-point-closure",
    "cor2-point-complement-open",
)


def test_criterion_6_hausdorff_equivalence_and_corollaries():
    with criterion(
        6,
        "closure characterization and point-closure corollaries hold on the "
        "exhaustive corpus and 1000 random spaces",
        budget=60.0,
    ):
        exhaustive = verify_implications(
            SearchConfig(max_universe=4, n_params=4), claim_ids=HAUSDORFF_CLAIMS
        )
        assert exhaustive.ok, exhaustive.to_json()
        assert all(
            r.tested == 379790 for r in exhaustive.results.values()
        )
        randomized = verify_implications(
            SearchConfig(
                max_universe=3, n_params=2, mode="random", samples=1000, seed=2024
            ),
            claim_ids=HAUSDORFF_CLAIMS,
        )
        assert randomized.ok, randomized.to_json()
        assert all(r.tested == 1000 for r in randomized.results.values())


def test_criterion_7_implication_matrix():
    with criterion(
        7,
        "zero violations across the implication matrix; every documented "
        "non-implication witnessed by its fixture",
    ):
        exhaustive = verify_implications(SearchConfig(max_universe=4, n_params=4))
        assert exhaustive.ok, exhaustive.to_json()
        # exact premise counts over all 379,790 spaces: a scan that reads a
        # fact wrongly changes them even when every claim still holds
        premise_hits = {
            **dict.fromkeys(
                (
                    "cor1-point-closure",
                    "cor2-point-complement-open",
                    "hereditary-t2",
                    "prop5-t2-t1",
                    "strong-t1-propagation",
                    "t2-slice-propagation",
                ),
                127142,
            ),
            **dict.fromkeys(
                (
                    "hereditary-t1",
                    "prop3",
                    "prop4-backward",
                    "prop4-forward",
                    "prop5-t1-t0",
                ),
                145382,
            ),
            "hereditary-t0": 374338,
            "prop1": 374338,
            "prop2": 360664,
            "strong-t0-propagation": 344242,
            "thm1-equivalence": 379790,
        }
        assert {
            cid: (r.tested, r.premise_hits, r.violation_count, r.records)
            for cid, r in exhaustive.results.items()
        } == {cid: (379790, hits, 0, []) for cid, hits in premise_hits.items()}
        randomized = verify_implications(
            SearchConfig(
                max_universe=3, n_params=2, mode="random", samples=1000, seed=2024
            )
        )
        assert randomized.ok, randomized.to_json()
        fixture_corpus = [
            load_fixture(name).space("S")
            for name in builtin_fixture_names()
            if load_fixture(name).space_pairs
        ]
        assert verify_implications(fixture_corpus).ok

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
        assert len(witnesses) == 8
        for claim_id, fixture in witnesses.items():
            claim = get_claim(claim_id)
            facts = space_facts(load_fixture(fixture).space("S"))
            assert claim.premise(facts) and not claim.conclusion(facts), claim_id


def test_criterion_8_rough_property_suite():
    with criterion(
        8, "rough approximation laws hold on 500 seeded random space/target pairs"
    ):
        rng = random.Random(813)
        violations = 0
        for k in range(500):
            nx, ne = rng.randint(1, 4), rng.randint(1, 2)
            ctx = standard_context(nx, ne)
            s = random_space(ctx, 9000 + k)
            a = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            b = SoftSet(ctx, rng.randrange(ctx.full_mask + 1))
            phi, top = null_soft_set(ctx), absolute_soft_set(ctx)
            la, lb = lower_approx(s, a), lower_approx(s, b)
            ua, ub = upper_approx(s, a), upper_approx(s, b)
            union, inter = soft_union(a, b), soft_intersect(a, b)
            checks = [
                soft_subset(la, a) and soft_subset(a, ua),  # item 1
                lower_approx(s, phi) == phi and upper_approx(s, phi) == phi,
                lower_approx(s, top) == top and upper_approx(s, top) == top,
                soft_subset(
                    upper_approx(s, inter), soft_intersect(ua, ub)
                ),  # item 5
                upper_approx(s, union) == soft_union(ua, ub),  # item 7
                soft_subset(la, lower_approx(s, union))
                and soft_subset(ua, upper_approx(s, union)),  # item 8
                lower_approx(s, inter) == soft_intersect(la, lb),  # meet law
                soft_subset(soft_union(la, lb), lower_approx(s, union)),
                ua == soft_complement(lower_approx(s, soft_complement(a))),
                soft_subset(lower_approx(s, la), la),
                soft_subset(ua, upper_approx(s, ua)),
            ]
            if not all(checks):
                violations += 1
        assert violations == 0


def test_criterion_9_idempotence_refutation():
    with criterion(
        9,
        "lower-approximation idempotence refuted by search and confirmed "
        "by the standalone interior scan",
        budget=10.0,
    ):
        # standalone oracle for the known instance: slice families
        # {0, X, {a,b}} and {0, X, {b}} over one parameter, target {a,b}
        def interior(opens, subset):
            acc = 0
            for o in opens:
                if o & ~subset == 0:
                    acc |= o
            return acc

        t1_opens, t2_opens, target = [0b000, 0b111, 0b011], [0b000, 0b111, 0b010], 0b011
        once = interior(t1_opens, target) & interior(t2_opens, target)
        twice = interior(t1_opens, once) & interior(t2_opens, once)
        assert once == 0b010 and twice == 0b000 and twice != once

        record = find_counterexample(
            "lower-idempotence-equality",
            SearchConfig(max_universe=3, n_params=1),
        )
        assert record is not None
        assert replay(record)


def test_criterion_10_enumeration_cross_check():
    with criterion(10, "topology enumeration counts match the brute-force oracle"):

        def oracle(n):
            full = frozenset(range(n))
            subsets = [
                frozenset(c)
                for c in chain.from_iterable(
                    combinations(range(n), r) for r in range(n + 1)
                )
            ]
            nontrivial = [s for s in subsets if s and s != full]
            count = 0
            for r in range(len(nontrivial) + 1):
                for chosen in combinations(nontrivial, r):
                    fam = set(chosen) | {frozenset(), full}
                    if all(
                        x | y in fam and x & y in fam for x in fam for y in fam
                    ):
                        count += 1
            return count

        for n, expected in ((1, 1), (2, 4), (3, 29)):
            assert oracle(n) == expected
            assert len(_point_topologies(n)) == expected
