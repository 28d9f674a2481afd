"""Command line behavior: outputs, exit codes, JSON stability."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bisoft.cli import EXIT_CLOSED_STDOUT, build_parser, main
from bisoft.fixtures import load_fixture, loads_fixture, serialize_fixture
from bisoft.search import SearchConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_all_shipped_fixtures_validate(self, capsys):
        code, out, _ = run(capsys, "validate", "bisoft1")
        assert code == 0
        assert "T1: valid" in out and "T2: valid" in out

    def test_broken_family_exits_2(self, capsys, tmp_path):
        doc = serialize_fixture(load_fixture("bisoft1"))
        doc["topologies"]["T2"] = ["Phi", "X", "G1", "G3", "G4"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "INVALID" in out
        assert "union" in out

    def test_unreadable_path_exits_1(self, capsys, tmp_path):
        # a directory, a file whose bytes are not text and a name too long
        # to look up each end in one error line naming the path, not in a
        # traceback
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b"\xff\xfe\x7b")
        for path in (str(tmp_path), str(undecodable), "a" * 300):
            code, out, err = run(capsys, "validate", path)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: cannot read {path!r}: ")
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "patch",
        [
            {"universe": "abc"},
            {"universe": [1, 2]},
            {"soft_sets": []},
            {"soft_sets": {"A": "a"}},
            {"topologies": {"T": "PhiX"}},
        ],
    )
    def test_schema_type_error_exits_1(self, capsys, tmp_path, patch):
        doc = serialize_fixture(load_fixture("bisoft1"))
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**doc, **patch}))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "$." in err and "Traceback" not in err

    def test_parse_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", "nope.json")
        assert code == 1


class TestAxioms:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "axioms", "t0a", "--space", "S")
        assert code == 0
        assert "pairwise soft T0  True" in out
        assert "soft T0          False    False" in out

    def test_json_report_is_stable(self, capsys):
        code, out1, _ = run(capsys, "axioms", "t0a", "--space", "S", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "axioms", "t0a", "--space", "S", "--json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["pairwise"] == {"t0": True, "t1": False, "t2": False}
        assert payload["soft"]["T1"]["t0"] is False
        assert payload["soft"]["T2"]["t0"] is False
        assert payload["slices"]["e1"]["t0"] is False

    def test_strict_orientation_flag(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "t0a", "--space", "S", "--strict-orientation", "--json"
        )
        assert json.loads(out)["pairwise"]["t0_strict"] is False

    def test_unknown_space_exits_1(self, capsys):
        code, _, err = run(capsys, "axioms", "t0a", "--space", "Q")
        assert code == 1
        assert "unknown space" in err


class TestSup:
    def test_nine_members_generated_last(self, capsys):
        code, out, _ = run(capsys, "sup", "bisoft1", "--space", "S")
        assert code == 0
        lines = [l.strip() for l in out.strip().splitlines()]
        assert "9 members" in lines[0]
        assert lines[-1] == "e1={h1,h2}, e2={h1,h2}"

    def test_twelve_members_json(self, capsys):
        code, out, _ = run(capsys, "sup", "t2a", "--space", "S", "--json")
        payload = json.loads(out)
        assert payload["size"] == 12
        assert {"e1": ["h3"], "e2": ["h1", "h3"]} in payload["members"]


class TestSlice:
    def test_green_slice(self, capsys):
        code, out, _ = run(
            capsys, "slice", "rough", "--space", "S", "--param", "Green", "--json"
        )
        payload = json.loads(out)
        assert payload["pairwise"] == {"t0": True, "t1": False, "t2": False}
        assert ["x1", "x5"] in payload["T1"]

    def test_unknown_parameter_exits_1(self, capsys):
        code, _, err = run(capsys, "slice", "rough", "--space", "S", "--param", "Cyan")
        assert code == 1


class TestSubspace:
    def test_emits_a_reparseable_document(self, capsys):
        code, out, _ = run(
            capsys, "subspace", "t0a", "--space", "S", "--keep", "h1,h2"
        )
        assert code == 0
        doc = loads_fixture(out)
        assert doc.context.universe.elements == ("h1", "h2")
        t1 = doc.topology("T1")
        t2 = doc.topology("T2")
        assert len(t1) >= 2 and len(t2) >= 2
        s = doc.space("S")
        from bisoft.axioms import pairwise_soft_t0

        assert pairwise_soft_t0(s)

    @pytest.mark.parametrize("name", ["t0a", "t1a", "rough"])
    def test_soft_sets_are_the_nontrivial_members_in_mask_order(
        self, capsys, fx, name
    ):
        from bisoft.space import subspace

        keep = fx(name).context.universe.elements[:3]
        code, out, _ = run(
            capsys, "subspace", name, "--space", "S", "--keep", ",".join(keep)
        )
        sub = subspace(fx(name).space("S"), keep)
        masks = sorted({*sub.t1.masks(), *sub.t2.masks()} - {0, sub.context.full_mask})
        doc = loads_fixture(out)
        assert code == 0 and doc.context == sub.context and len(masks) >= 2
        assert {n: s.mask for n, s in doc.soft_sets.items()} == {
            f"S{i}": m for i, m in enumerate(masks, 1)
        }
        assert doc.topology("T1").masks() == sub.t1.masks()
        assert doc.topology("T2").masks() == sub.t2.masks()

    def test_unknown_or_empty_keep_exits_1(self, capsys):
        for keep, message in (("zz", "'zz'"), (",", "must not be empty")):
            code, out, err = run(
                capsys, "subspace", "t0a", "--space", "S", "--keep", keep
            )
            assert code == 1, keep
            assert out == ""
            assert err.startswith("error: ") and message in err, err


def _sweep(name):
    """Every fixture command on a builtin fixture, as text and ``--json``,
    ``subspace`` on every prefix and suffix of the universe, and the error
    cases: an unknown space, parameter and target, and an unknown or empty
    ``--keep``."""
    doc = load_fixture(name)
    elements = doc.context.universe.elements
    runs = [["validate", name], ["axioms", name, "--space", "Q"]]
    for space in doc.space_pairs:
        at = [name, "--space", space]
        runs += [
            ["axioms", *at],
            ["axioms", *at, "--strict-orientation"],
            ["sup", *at],
            ["rough", *at],
            ["rough", *at, "--target", [*doc.soft_sets][0]],
            *(["slice", *at, "--param", p] for p in doc.context.parameters.parameters),
        ]
        keeps = {
            ",".join(part)
            for k in range(1, len(elements) + 1)
            for part in (elements[:k], elements[-k:])
        }
        errors = [
            ["slice", *at, "--param", "Q"],
            ["rough", *at, "--target", "Q"],
            ["subspace", *at, "--keep", "zz"],
            ["subspace", *at, "--keep", ","],
        ]
        runs += [["subspace", *at, "--keep", k] for k in sorted(keeps)] + errors
    return runs + [[*argv, "--json"] for argv in runs if argv[0] != "subspace"]


def _sweep_digest(name):
    """The sha256 of the argv, exit code, stdout and stderr of each run."""
    digest = hashlib.sha256()
    for argv in _sweep(name):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


FIXTURE_DIGESTS = {
    "basic": "62f4af2643f44e6117ffb3770b4bc3680a46d832b9998c14b2c014d6999126d5",
    "bisoft1": "6fd35b7f54e1e028caae27c6745844d3c4b21da404ad506ec9842f778cc318d0",
    "param": "ae9744e51cc5ded0cb6c5323f942287d32dded0d4a7b9b5a6f363fde5ba5937d",
    "rough": "00e1920952aa912ff5ca9b222fd99e1ba4e6ae28a03722b6b4932d6d7ed05829",
    "sup": "bceaa99de67132a7e6b7c6811214eb09fd288f25a8fbdd0f2f3fc8ce116d255e",
    "t0a": "5dad10f1559daf8fd8994178bfc13e535fca363ec891e565c139fc0eca355769",
    "t0b": "792865fcbc162a2822ac0b57cda637825b1a178bdf02ef9e407065b1ff2bf49b",
    "t0d": "656e95dfa476eb9877fdaad67802c6c3429d8345e0d3e67c9e95dc5b41354d35",
    "t1a": "3d9628b3dc8dc646d192914cc201e43ae961d8967edee4768026ba72d66b0f8f",
    "t1b": "1878a0c1a69537d98b97ce860177ca3eb42d8dc8bdd8da336ec95f27a56b2fcc",
    "t1c": "5a280d20c0303d1a2c0e633d756beae62307f9bbbdc2d0778fb9684ce47889a6",
    "t2a": "db303a4e8c1c2834a6840c6b72b0a77f52a0f19390d72f6575b3604b3bdf072c",
}


@pytest.mark.parametrize("name", FIXTURE_DIGESTS)
def test_fixture_commands_are_pinned(name):
    # the bytes every fixture command prints, and its exit code, fixed
    # across versions: the CLI renders what the library computes, and a
    # simpler renderer must print the same
    assert _sweep_digest(name) == FIXTURE_DIGESTS[name]


class TestRough:
    def test_reports_regions(self, capsys):
        code, out, _ = run(capsys, "rough", "rough", "--space", "S", "--target", "F", "--json")
        payload = json.loads(out)
        assert payload["lower"] == {
            "Red": ["x2", "x4"],
            "Green": [],
            "Blue": ["x1", "x3"],
        }
        assert payload["upper"]["Red"] == ["x1", "x2", "x3", "x4", "x5"]
        assert payload["neg"]["Blue"] == ["x2"]
        assert payload["bnd"]["Red"] == ["x1", "x3", "x5"]
        assert payload["definable"] is False

    def test_fixture_default_target(self, capsys):
        code, out, _ = run(capsys, "rough", "rough", "--space", "S")
        assert code == 0
        assert "definable: False" in out

    def test_no_target_anywhere_exits_1(self, capsys):
        code, _, err = run(capsys, "rough", "bisoft1", "--space", "S")
        assert code == 1


class TestSearch:
    def test_counterexample_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--claim",
            "lower-idempotence-equality",
            "--max-x",
            "3",
            "--params",
            "1",
        )
        assert code == 3
        assert "counterexample found" in out

    def test_not_found_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--claim",
            "prop5-t2-t1",
            "--max-x",
            "2",
            "--params",
            "1",
        )
        assert code == 0
        assert "no counterexample" in out

    def test_not_found_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "search", "--claim", "upper-idempotence-equality",
            "--max-x", "2", "--params", "1", "--random", "20", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "claim": "upper-idempotence-equality",
            "corpus": "random:20 spaces at |X|=2,|E|=1, seed=0",
            "found": False,
        }

    def test_matrix_run_ok(self, capsys):
        code, out, _ = run(capsys, "search", "--max-x", "2", "--params", "2")
        assert code == 0
        assert "thm1-equivalence" in out

    def test_matrix_json_stable(self, capsys):
        code, out1, _ = run(
            capsys, "search", "--max-x", "2", "--params", "1", "--json"
        )
        code, out2, _ = run(
            capsys, "search", "--max-x", "2", "--params", "1", "--json"
        )
        assert out1 == out2
        assert json.loads(out1)["ok"] is True

    @pytest.mark.parametrize(
        "argv,code,digest",
        [
            (
                "--max-x 4 --params 4",
                0,
                "a7a6a89189bfb89faafd26541e3fab23a88e6a8775fcfe4247bd6cf7b92add81",
            ),
            (
                "--claim pairwise-t1-implies-pairwise-t2 --max-x 4 --params 3",
                3,
                "da6c9deb71e315c82b8dcf86c03178331ccbe91beb08dd71722aee6e23f41602",
            ),
            (
                "--claim upper-idempotence-equality --max-x 4 --params 2",
                3,
                "6f2eb31ee4e2110bee17af6b05743c9287853e6e7ecc5ee012fa09724e61d59a",
            ),
            (
                "--max-x 4 --params 2 --random 500 --seed 1",
                0,
                "ea125aef65c0cc87f62198fdca391cd16a29095ff9a7e0b1e82e40bdce4b7819",
            ),
            (
                "--max-x 5 --params 3 --random 12 --seed 0",
                0,
                "aabcbd773aea7d21579ee96cecb8b448e33f9cddff2e63511e5a8b61a44b2fa7",
            ),
            (
                "--claim pairwise-t0-implies-pairwise-t1 --max-x 3 --params 2 "
                "--random 300 --seed 0",
                3,
                "64438b0b6478fb59fe77ded554fb668317d78e724fdf313d84c38aec90d31fd5",
            ),
        ],
    )
    def test_json_output_is_pinned(self, capsys, argv, code, digest):
        # the bytes of the exhaustive matrix, of the two benchmark hunts and
        # of the random corpora and hunt, fixed across versions: a faster
        # fact function must print the same document
        rc, out, _ = run(capsys, "search", *argv.split(), "--json")
        assert rc == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_claim_lists_known_ones(self, capsys):
        code, _, err = run(
            capsys, "search", "--claim", "bogus", "--max-x", "2", "--params", "1"
        )
        assert code == 1
        assert "prop4-forward" in err

    def test_exhaustive_bound_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--max-x", "9", "--params", "1")
        assert code == 1

    @pytest.mark.parametrize("mode", [[], ["--random", "5"]])
    def test_negative_seed_usage_error(self, capsys, mode):
        # random.seed(-k) seeds like k, so a negative seed would silently
        # draw the spaces of another seed
        argv = "search --max-x 2 --params 1 --json --seed -1".split() + mode
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: the seed must not be negative\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_random_count_usage_error(self, capsys, count):
        # a zero count asks for random mode too; it must not fall back to
        # the exhaustive corpus
        argv = "search --max-x 2 --params 1 --json --random".split() + [count]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "positive sample count" in err

    @pytest.mark.parametrize("size", ["16385 --params 1", "8193 --params 2"])
    def test_random_point_bound_usage_error(self, capsys, size):
        # past 2^14 points a single draw would take gigabytes; the bound is
        # checked before anything is drawn
        argv = f"search --max-x {size} --random 1 --json".split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: random mode is limited to 16384 points (|X| * |E|)\n"
        SearchConfig(16384, 1, "random", 1)  # at the bound: accepted
        SearchConfig(8192, 2, "random", 1)

    def test_alias_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--claim",
            "rough-item-11-equality",
            "--max-x",
            "3",
            "--params",
            "1",
            "--json",
        )
        assert code == 3
        assert json.loads(out)["found"] is True


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_without_traceback(unbuffered):
    # the read end is closed before the child starts, so its first write
    # (unbuffered) or its flush (buffered) fails with EPIPE every time
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bisoft", "validate", "rough", "--json"],
            stdout=w,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_STDOUT, b"")
    assert EXIT_CLOSED_STDOUT == 141


def test_import_leaves_the_fact_kernel_unloaded():
    # the commands that decide nothing never compile bisoft.scan; the
    # checkers and the search import it on first use
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, bisoft, bisoft.cli; print('bisoft.scan' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


def _imported(*args):
    """The exit code of a fresh ``python -X importtime ARGS``, and the
    ``bisoft`` submodules it imported, as its import-time log names them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, {n for n in names if n.startswith("bisoft.")}


CLI = {"cli", "errors"}
FIXTURE_READING = CLI | {"fixtures", "softset", "space", "topology"}
DECIDING = FIXTURE_READING | {"axioms", "scan"}
KERNEL = {"errors", "scan", "softset", "space", "topology"}
# the bisoft submodules each entry point loads: import bisoft none, the
# fact kernel and the checkers neither search nor rough, search neither
# axioms nor fixtures, the fixture commands none of search, scan and
# axioms, and the deciding commands neither search nor rough
ENTRY_POINTS = {
    "import": (["-c", "import bisoft"], set()),
    "kernel": (["-c", "import bisoft.scan"], KERNEL),
    "checkers": (["-c", "import bisoft.axioms"], KERNEL | {"axioms"}),
    "search": (
        ["-m", "bisoft", "search", "--max-x", "2", "--params", "1", "--json"],
        CLI | {"rough", "scan", "search", "softset", "space", "topology"},
    ),
    "validate": (["-m", "bisoft", "validate", "rough"], FIXTURE_READING),
    "sup": (["-m", "bisoft", "sup", "bisoft1", "--space", "S"], FIXTURE_READING),
    "subspace": (
        ["-m", "bisoft", "subspace", "bisoft1", "--space", "S", "--keep", "h1,h2"],
        FIXTURE_READING,
    ),
    "rough": (
        ["-m", "bisoft", "rough", "rough", "--space", "S"],
        FIXTURE_READING | {"rough"},
    ),
    "axioms": (["-m", "bisoft", "axioms", "bisoft1", "--space", "S"], DECIDING),
    "slice": (
        ["-m", "bisoft", "slice", "bisoft1", "--space", "S", "--param", "e1"],
        DECIDING,
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_loads_only_its_modules(entry):
    args, loaded = ENTRY_POINTS[entry]
    assert _imported(*args) == (0, {f"bisoft.{m}" for m in loaded})


def _imports_sibling(node):
    """Whether an import statement names a module of the package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "bisoft"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "bisoft" for a in node.names)
    return False


def test_only_the_cli_imports_sibling_modules_in_functions():
    # the modules import each other at their tops, so the imports between
    # them go one way; each command of cli imports what it runs when it runs
    src = Path(__file__).resolve().parent.parent / "src" / "bisoft"
    late = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if _imports_sibling(inner)
                }
    assert late == set()


def test_help_lists_the_builtin_fixtures(capsys, monkeypatch):
    # the epilog is built only when help is formatted, and reads as it
    # would had it been given to the parser up front
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    parser.epilog = (
        "FILE arguments accept a path or a builtin fixture name (basic, bisoft1, "
        "param, rough, sup, t0a, t0b, t0d, t1a, t1b, t1c, t2a)."
    )
    assert exc.value.code == 0
    assert out == argparse.ArgumentParser.format_help(parser) == parser.format_help()
    commands = ("validate", "axioms", "sup", "slice", "subspace", "rough", "search")
    for command in commands:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert out.startswith(f"usage: bisoft {command} ") and "FILE" not in out


def test_unlistable_supremum_exits_1(capsys, tmp_path):
    # 17 elements: T1 splits them by i % 5, T2 by i // 5, so each block of
    # the supremum is one element and it has 2^17 members, past the cap
    names = [f"x{i}" for i in range(17)]
    soft_sets, topologies = {}, {}
    splits = (("T1", lambda i: i % 5, 5), ("T2", lambda i: i // 5, 4))
    for tname, block, n_blocks in splits:
        topologies[tname] = ["Phi", "X"]
        for pick in range(1, 2**n_blocks - 1):
            name = f"{tname}_{pick}"
            picked = [x for i, x in enumerate(names) if pick >> block(i) & 1]
            soft_sets[name] = {"e": picked}
            topologies[tname].append(name)
    doc = {
        "universe": names,
        "parameters": ["e"],
        "soft_sets": soft_sets,
        "topologies": topologies,
        "spaces": {"S": ["T1", "T2"]},
    }
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sup", str(path), "--space", "S")
    assert (code, out) == (1, "")
    assert err == "error: a topology with more than 65536 members cannot be listed\n"
    # the axioms read the supremum's U alone
    code, out, _ = run(capsys, "axioms", str(path), "--space", "S", "--json")
    assert code == 0 and json.loads(out)["sup"] == {"t0": True, "t1": True, "t2": True}


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "axioms", "t0a")  # missing --space
    assert code == 1


# -- generated fixture documents ------------------------------------------------

NAMES = st.text(alphabet="abxyz1", min_size=1, max_size=2)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def fixture_documents(draw):
    """A document shaped like a fixture, and a space name to ask for.
    Each way a document can be wrong turns up now and then: undeclared,
    reserved or repeated names, empty lists, spaces of other than two
    topologies, and missing or junk keys."""

    def rarely():
        return draw(st.sampled_from([False] * 9 + [True]))

    def known(pool):
        return st.sampled_from(list(pool) * 9 + ["zz"])  # "zz" is never declared

    def names(max_size):
        return draw(
            st.lists(NAMES, min_size=not rarely(), max_size=max_size, unique=not rarely())
        )

    elements, params = names(4), names(3)
    set_names = st.sampled_from(["Phi", "X"]) if rarely() else NAMES
    soft_sets = draw(
        st.dictionaries(
            set_names,
            st.dictionaries(
                known(params), st.lists(known(elements), max_size=4), max_size=3
            ),
            max_size=4,
        )
    )
    members = known([*soft_sets, "Phi", "X"])
    topologies = draw(
        st.dictionaries(NAMES, st.lists(members, max_size=6), max_size=3)
    )
    pair_size = draw(st.integers(0, 3)) if rarely() else 2
    spaces = draw(
        st.dictionaries(
            NAMES,
            st.lists(known(topologies), min_size=pair_size, max_size=pair_size),
            max_size=2,
        )
    )
    doc = {
        "universe": elements,
        "parameters": params,
        "soft_sets": soft_sets,
        "topologies": topologies,
        "spaces": spaces,
    }
    if draw(st.booleans()):
        doc["target"] = draw(known(soft_sets))
    for key in list(doc):
        if rarely():
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(JUNK)
    return doc, draw(known(spaces))


@settings(max_examples=150)
@given(drawn=st.one_of(fixture_documents(), st.tuples(JUNK, st.just("S"))))
def test_fixture_commands_never_raise(tmp_path_factory, drawn):
    # validate and axioms exit 0, 1 or 2 on any JSON document: every
    # problem is reported, none escapes as a traceback
    doc, space = drawn
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["validate", str(path)],
        ["validate", str(path), "--json"],
        ["axioms", str(path), "--space", space],
        ["axioms", str(path), "--space", space, "--json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
        assert code in (0, 1, 2), (argv, doc)
