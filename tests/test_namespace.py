"""The package namespace: each public name and submodule resolves on first
access, to the object its submodule defines."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bisoft

# The names ``bisoft`` exports, grouped by the submodule that defines them.
EXPORTS = {
    "axioms": """AxiomReport PointClosure axiom_report hausdorff_char
        pairwise_soft_t0 pairwise_soft_t1 pairwise_soft_t2 pairwise_verdicts
        point_closure_intersection soft_t0 soft_t1 soft_t2 strong_t0
        strong_t1""",
    "errors": """BisoftError ContextMismatchError FixtureError
        InvalidTopologyError TooManyMembersError UnknownClaimError
        UnknownElementError UnknownParameterError""",
    "fixtures": "FixtureDocument load_fixture loads_fixture serialize_fixture",
    "rough": "RoughResult lower_approx rough_regions upper_approx",
    "search": """CLAIMS Claim CounterexampleRecord ImplicationReport SearchConfig
        enumerate_topologies find_counterexample random_soft_set
        random_soft_topology random_space replay standard_context
        verify_implications""",
    "softset": """Context ParameterSet SoftSet Universe absolute_soft_set
        constant_soft_set extend_parameters member null_soft_set
        point_soft_set restrict soft_complement soft_difference soft_intersect
        soft_subset soft_union""",
    "space": "BiSoftSpace slice_space subspace sup_topology",
    "topology": """SoftTopology Violation closed_sets generate_topology
        minimal_neighbourhoods parameterize relative_topology soft_closure
        topology_violations validate_topology""",
}
# ``from bisoft import *`` binds the submodule names too
PUBLIC = set(EXPORTS).union(*(names.split() for names in EXPORTS.values()))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_its_submodules_attribute(module):
    sub = import_module(f"bisoft.{module}")
    assert getattr(bisoft, module) is sub
    for name in EXPORTS[module].split():
        assert getattr(bisoft, name) is getattr(sub, name), name


def test_dir_and_star_import_list_every_name():
    assert PUBLIC <= set(dir(bisoft))
    assert len(PUBLIC) == 81
    namespace = {}
    exec("from bisoft import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


def test_submodule_names_resolve_on_a_fresh_import():
    # import bisoft loads no submodule, so each name resolves before
    # anything has imported it, as perfbench/warm.py reads bisoft.search
    # right after importing bisoft and bisoft.cli
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, bisoft\n"
        "for m in sys.argv[1:]:\n"
        "    assert getattr(bisoft, m) is sys.modules['bisoft.' + m], m\n"
        "print(bisoft.search.SearchConfig(2, 1).describe())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *sorted(EXPORTS)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"exhaustive")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bisoft.no_such_name
    assert not hasattr(bisoft, "CLAIM_ALIASES")  # search's, but not exported
    with pytest.raises(ImportError):
        from bisoft import no_such_name  # noqa: F401
