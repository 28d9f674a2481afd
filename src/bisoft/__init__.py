"""Finite workbench for soft sets, bi-soft topologies and rough approximation."""

from .axioms import (
    AxiomReport,
    PointClosure,
    axiom_report,
    hausdorff_char,
    pairwise_soft_t0,
    pairwise_soft_t1,
    pairwise_soft_t2,
    pairwise_verdicts,
    point_closure_intersection,
    soft_t0,
    soft_t1,
    soft_t2,
    strong_t0,
    strong_t1,
)
from .errors import (
    BisoftError,
    ContextMismatchError,
    FixtureError,
    InvalidTopologyError,
    TooManyMembersError,
    UnknownClaimError,
    UnknownElementError,
    UnknownParameterError,
)
from .fixtures import FixtureDocument, load_fixture, loads_fixture, serialize_fixture
from .rough import RoughResult, lower_approx, rough_regions, upper_approx
from .search import (
    CLAIMS,
    Claim,
    CounterexampleRecord,
    ImplicationReport,
    SearchConfig,
    enumerate_topologies,
    find_counterexample,
    random_soft_set,
    random_soft_topology,
    random_space,
    replay,
    standard_context,
    verify_implications,
)
from .softset import (
    Context,
    ParameterSet,
    SoftSet,
    Universe,
    absolute_soft_set,
    constant_soft_set,
    extend_parameters,
    member,
    null_soft_set,
    point_soft_set,
    restrict,
    soft_complement,
    soft_difference,
    soft_intersect,
    soft_subset,
    soft_union,
)
from .space import BiSoftSpace, slice_space, subspace, sup_topology
from .topology import (
    SoftTopology,
    Violation,
    closed_sets,
    generate_topology,
    minimal_neighbourhoods,
    parameterize,
    relative_topology,
    soft_closure,
    topology_violations,
    validate_topology,
)

__version__ = "0.1.0"
