"""Fixture documents: parsing, round-trips, manifest agreement."""

import json

import pytest

from bisoft.axioms import axiom_report
from bisoft.errors import FixtureError
from bisoft.fixtures import (
    builtin_fixture_names,
    load_fixture,
    load_manifest,
    loads_fixture,
    parse_fixture,
    serialize_fixture,
)
from bisoft.space import sup_topology


def test_builtin_names_are_available():
    names = builtin_fixture_names()
    assert set(names) >= {
        "basic",
        "bisoft1",
        "param",
        "sup",
        "t0a",
        "t0b",
        "t0d",
        "t1a",
        "t1b",
        "t1c",
        "t2a",
        "rough",
    }


def test_all_builtin_fixtures_parse_and_validate(fx):
    for name in builtin_fixture_names():
        doc = fx(name)
        for tname in doc.topology_members:
            doc.topology(tname)  # raises on violation
        for sname in doc.space_pairs:
            doc.space(sname)


def test_round_trip(fx):
    for name in builtin_fixture_names():
        doc = fx(name)
        again = parse_fixture(serialize_fixture(doc))
        assert again == doc
        # and a second serialization is byte-identical
        a = json.dumps(serialize_fixture(doc), sort_keys=True)
        b = json.dumps(serialize_fixture(again), sort_keys=True)
        assert a == b


def test_manifest_matches_checkers(fx):
    manifest = load_manifest()
    assert set(manifest) == set(builtin_fixture_names())
    for name, entry in manifest.items():
        doc = fx(name)
        for tname, valid in entry["topologies"].items():
            if valid:
                doc.topology(tname)
        for sname, expected in entry.get("spaces", {}).items():
            s = doc.space(sname)
            rep = axiom_report(s, strict_orientation=True)
            t1n, t2n = doc.space_pairs[sname]
            assert rep.soft1["t0"] == expected["soft_t0"][t1n], (name, "soft_t0")
            assert rep.soft2["t0"] == expected["soft_t0"][t2n], (name, "soft_t0")
            assert rep.soft1["t1"] == expected["soft_t1"][t1n]
            assert rep.soft2["t1"] == expected["soft_t1"][t2n]
            assert rep.soft1["t2"] == expected["soft_t2"][t1n]
            assert rep.soft2["t2"] == expected["soft_t2"][t2n]
            assert rep.pairwise["t0"] == expected["pairwise_t0"]
            assert rep.strict_pairwise_t0 == expected["pairwise_t0_strict"]
            assert rep.pairwise["t1"] == expected["pairwise_t1"]
            assert rep.pairwise["t2"] == expected["pairwise_t2"]
            assert rep.strong["t0"] == expected["strong_t0"]
            assert rep.strong["t1"] == expected["strong_t1"]
            assert rep.hausdorff == expected["hausdorff_char"]
            assert len(sup_topology(s)) == expected["sup_size"]
            assert rep.sup["t0"] == expected["sup_soft_t0"]
            assert rep.sup["t1"] == expected["sup_soft_t1"]
            assert rep.sup["t2"] == expected["sup_soft_t2"]
            assert rep.slices == expected["slices"]


def test_reserved_names_cannot_be_redefined():
    with pytest.raises(FixtureError):
        parse_fixture(
            {
                "universe": ["a"],
                "parameters": ["p"],
                "soft_sets": {"Phi": {"p": []}},
            }
        )


def test_unresolved_member_rejected():
    with pytest.raises(FixtureError):
        parse_fixture(
            {
                "universe": ["a"],
                "parameters": ["p"],
                "soft_sets": {},
                "topologies": {"T": ["Phi", "X", "missing"]},
            }
        )


def test_unknown_space_topology_rejected():
    with pytest.raises(FixtureError):
        parse_fixture(
            {
                "universe": ["a"],
                "parameters": ["p"],
                "topologies": {"T": ["Phi", "X"]},
                "spaces": {"S": ["T", "nope"]},
            }
        )


def test_unknown_topology_name_rejected(fx):
    with pytest.raises(FixtureError, match="^unknown topology name 'Q'$"):
        fx("t0a").members_of("Q")


def test_bad_json_rejected():
    with pytest.raises(FixtureError):
        loads_fixture("{not json")
    # nested past the recursion limit, which json.loads documents
    with pytest.raises(FixtureError):
        loads_fixture("[" * 100_000)


def test_unknown_path_mentions_builtins():
    with pytest.raises(FixtureError) as err:
        load_fixture("definitely-not-a-fixture")
    assert "builtins" in str(err.value)


def test_partial_tables_fill_with_empty(fx):
    target = fx("rough").resolve("F")
    assert target.table()["Green"] == ()


@pytest.mark.parametrize(
    "patch,path",
    [
        ({"universe": "abc"}, "$.universe"),
        ({"universe": [1, 2]}, "$.universe"),
        ({"parameters": "p"}, "$.parameters"),
        ({"soft_sets": []}, "$.soft_sets"),
        ({"soft_sets": {"A": "a"}}, "$.soft_sets['A']"),
        ({"soft_sets": {"A": {"p": "a"}}}, "$.soft_sets['A']['p']"),
        ({"topologies": {"T": "PhiX"}}, "$.topologies['T']"),
        ({"topologies": []}, "$.topologies"),
        ({"spaces": {"S": "TT"}}, "$.spaces['S']"),
        ({"spaces": {"S": [1, 2]}}, "$.spaces['S']"),
        ({"target": ["A"]}, "$.target"),
    ],
)
def test_schema_types_are_checked(patch, path):
    # a wrong type is a FixtureError naming where it sits, never a
    # traceback and never a different model
    doc = {
        "universe": ["a", "b"],
        "parameters": ["p"],
        "soft_sets": {"A": {"p": ["a"]}},
        "topologies": {"T": ["Phi", "X", "A"]},
        "spaces": {"S": ["T", "T"]},
        "target": "A",
    }
    with pytest.raises(FixtureError) as err:
        parse_fixture({**doc, **patch})
    assert path in str(err.value)
