"""Finite workbench for soft sets, bi-soft topologies and rough approximation.

``import bisoft`` loads no submodule.  Each public name below, and each
submodule name, is imported from its module on first access (PEP 562), so
``bisoft.axiom_report`` loads ``axioms`` and what it imports, and
``bisoft.search`` loads neither ``axioms`` nor ``fixtures``.  A command of
the CLI imports its own modules in the same way when it runs.
"""

from importlib import import_module

# Every name the namespace resolves, to the submodule that defines it; a
# submodule's own name resolves to the submodule.
_SOURCE = {
    name: module
    for module, names in {
        "axioms": """AxiomReport PointClosure axiom_report hausdorff_char
            pairwise_soft_t0 pairwise_soft_t1 pairwise_soft_t2
            pairwise_verdicts point_closure_intersection soft_t0 soft_t1
            soft_t2 strong_t0 strong_t1""",
        "errors": """BisoftError ContextMismatchError FixtureError
            InvalidTopologyError TooManyMembersError UnknownClaimError
            UnknownElementError UnknownParameterError""",
        "fixtures": "FixtureDocument load_fixture loads_fixture serialize_fixture",
        "rough": "RoughResult lower_approx rough_regions upper_approx",
        "search": """CLAIMS Claim CounterexampleRecord ImplicationReport
            SearchConfig enumerate_topologies find_counterexample
            random_soft_set random_soft_topology random_space replay
            standard_context verify_implications""",
        "softset": """Context ParameterSet SoftSet Universe absolute_soft_set
            constant_soft_set extend_parameters member null_soft_set
            point_soft_set restrict soft_complement soft_difference
            soft_intersect soft_subset soft_union""",
        "space": "BiSoftSpace slice_space subspace sup_topology",
        "topology": """SoftTopology Violation closed_sets generate_topology
            minimal_neighbourhoods parameterize relative_topology
            soft_closure topology_violations validate_topology""",
    }.items()
    for name in (module, *names.split())
}
__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:  # importing a submodule binds its name already
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
