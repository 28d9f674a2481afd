"""The package's value classes against the ``@dataclass`` definitions they replace.

Each reference below repeats a class's former declaration: the same name,
fields, defaults and flags, and the same validation.  Every sample
instance is converted field by field into its reference and the two must
agree on repr, equality, hashing, assignment and deletion, defaults,
signatures, pickling and copying.
"""

import copy
import inspect
import pickle
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import pytest

from bisoft import axioms, fixtures, rough, search, softset, space, topology
from bisoft.errors import ContextMismatchError

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# the reference declarations


@dataclass(frozen=True)
class Universe:
    elements: tuple

    def __post_init__(self):
        names = softset._distinct_names("universe", self.elements)
        object.__setattr__(self, "elements", names)


@dataclass(frozen=True)
class ParameterSet:
    parameters: tuple

    def __post_init__(self):
        names = softset._distinct_names("parameter set", self.parameters)
        object.__setattr__(self, "parameters", names)


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Context:
    universe: Universe
    parameters: ParameterSet
    nx: int = _derived()
    ne: int = _derived()
    full_mask: int = _derived()
    block_mask: int = _derived()
    rows: tuple = _derived()
    _element_ids: dict = _derived()
    _parameter_ids: dict = _derived()

    def __post_init__(self):
        built = softset.Context(self.universe, self.parameters)
        for name in ("nx", "ne", "full_mask", "block_mask", "rows"):
            object.__setattr__(self, name, getattr(built, name))
        object.__setattr__(self, "_element_ids", built._element_ids)
        object.__setattr__(self, "_parameter_ids", built._parameter_ids)

    parameter_index = softset.Context.parameter_index
    subset_names = softset.Context.subset_names


@dataclass(frozen=True)
class SoftSet:
    context: Context
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.context.full_mask:
            raise ValueError("mask out of range for context")

    block = softset.SoftSet.block
    table = softset.SoftSet.table
    __repr__ = softset.SoftSet.__repr__


@dataclass(frozen=True)
class Violation:
    kind: str
    witnesses: tuple
    missing: Optional[SoftSet] = None


@dataclass(frozen=True)
class BiSoftSpace:
    t1: topology.SoftTopology
    t2: topology.SoftTopology

    def __post_init__(self):
        if self.t1.context != self.t2.context:
            raise ContextMismatchError("topologies live over different contexts")


@dataclass(frozen=True)
class AxiomReport:
    soft1: dict
    soft2: dict
    pairwise: dict
    strong: dict
    hausdorff: bool
    sup: dict
    slices: dict
    strict_pairwise_t0: Optional[bool] = None
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RoughResult:
    lower: SoftSet
    upper: SoftSet
    pos: SoftSet
    neg: SoftSet
    bnd: SoftSet
    definable: bool


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    holds: bool
    description: str
    premise: Callable
    conclusion: Callable


@dataclass(frozen=True)
class SearchConfig:
    max_universe: int
    n_params: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_universe < 1 or self.n_params < 1:
            raise ValueError("sizes must be positive")
        if self.mode == "exhaustive":
            if self.max_universe > search.EXHAUSTIVE_POINT_BOUND:
                raise ValueError(
                    "exhaustive mode is limited to universes of at most "
                    f"{search.EXHAUSTIVE_POINT_BOUND} elements"
                )
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random mode needs a positive sample count")


@dataclass(frozen=True)
class CounterexampleRecord:
    claim_id: str
    universe: tuple
    parameters: tuple
    t1_masks: tuple
    t2_masks: tuple
    target_mask: Optional[int] = None
    note: str = ""


@dataclass
class ClaimResult:
    claim_id: str
    tested: int = 0
    premise_hits: int = 0
    violation_count: int = 0
    records: list = field(default_factory=list)


@dataclass
class ImplicationReport:
    corpus: str
    results: dict


@dataclass
class FixtureDocument:
    context: Context
    soft_sets: dict
    topology_members: dict
    space_pairs: dict = field(default_factory=dict)
    target: Optional[str] = None


REFERENCES = {
    softset.Universe: Universe,
    softset.ParameterSet: ParameterSet,
    softset.Context: Context,
    softset.SoftSet: SoftSet,
    topology.Violation: Violation,
    space.BiSoftSpace: BiSoftSpace,
    axioms.AxiomReport: AxiomReport,
    rough.RoughResult: RoughResult,
    search.Claim: Claim,
    search.SearchConfig: SearchConfig,
    search.CounterexampleRecord: CounterexampleRecord,
    search.ClaimResult: ClaimResult,
    search.ImplicationReport: ImplicationReport,
    fixtures.FixtureDocument: FixtureDocument,
}
MUTABLE = {search.ClaimResult, search.ImplicationReport, fixtures.FixtureDocument}


def init_fields(ref):
    return [f.name for f in fields(ref) if f.init]


def to_ref(x):
    """The reference value with the same fields, converted recursively."""
    if isinstance(x, (tuple, list)):
        return type(x)(to_ref(v) for v in x)
    if isinstance(x, dict):
        return {k: to_ref(v) for k, v in x.items()}
    ref = REFERENCES.get(type(x))
    if ref is None:
        return x
    return ref(**{f: to_ref(getattr(x, f)) for f in init_fields(ref)})


def outcome(fn):
    """What a call did: its value's repr, or the type and text of its error."""
    try:
        return "value", repr(fn())
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# samples: two distinct values of every class, built the way the package builds them


def _samples():
    ctx = softset.Context.of(["a", "b"], ["e1", "e2"])
    doc = fixtures.load_fixture("t0d")
    s = doc.space("S")
    other = space.BiSoftSpace(s.t2, s.t1)
    record = search.CounterexampleRecord("prop1", ("a",), ("e",), (0, 1), (0, 1))
    hit = search.CounterexampleRecord(
        "prop2", ("a", "b"), ("e",), (0, 3), (0, 1, 3), 2, "n"
    )
    a, b = softset.SoftSet(ctx, 1), softset.SoftSet(ctx, 2)
    results = {"prop1": search.ClaimResult("prop1", 1)}
    return [
        ctx.universe,
        softset.Universe(("b", "a")),
        ctx.parameters,
        softset.ParameterSet(["e2"]),
        ctx,
        softset.Context.of(["a", "b"], ["e1", "e2"]),  # equal, not identical
        softset.Context.of(["a"], ["e1", "e2"]),
        softset.SoftSet(ctx, 5),
        softset.SoftSet(ctx, 6),
        topology.Violation("missing-null", ()),
        topology.Violation("union", (a, b), softset.SoftSet(ctx, 3)),
        s,
        other,
        axioms.axiom_report(s),
        axioms.axiom_report(other, strict_orientation=True),
        rough.rough_regions(s, doc.resolve(sorted(doc.soft_sets)[0])),
        rough.rough_regions(s, softset.SoftSet(s.context, 0)),
        search.get_claim("prop1"),
        search.get_claim("prop2"),
        search.SearchConfig(2, 2),
        search.SearchConfig(4, 2, "random", 10, 3),
        record,
        hit,
        search.ClaimResult("prop1"),
        search.ClaimResult("prop2", 4, 3, 1, [hit]),
        search.ImplicationReport("explicit:1 spaces", results),
        search.ImplicationReport("exhaustive:1x1", {}),
        doc,
        fixtures.load_fixture("basic"),
    ]


SAMPLES = _samples()
IDS = [f"{type(x).__name__}-{i}" for i, x in enumerate(SAMPLES)]


def test_samples_cover_every_class_twice():
    counts = {cls: sum(type(x) is cls for x in SAMPLES) for cls in REFERENCES}
    assert min(counts.values()) >= 2, counts


@pytest.mark.parametrize("x", SAMPLES, ids=IDS)
class TestParity:
    def test_repr(self, x):
        assert repr(x) == repr(to_ref(x))

    def test_hash(self, x):
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(to_ref(x)))
        if type(x) in MUTABLE:
            assert type(x).__hash__ is None

    def test_equality(self, x):
        ref = to_ref(x)
        for y in SAMPLES:
            assert (x == y) == (ref == to_ref(y)), y
            assert (x != y) == (ref != to_ref(y)), y
        # between classes: NotImplemented both ways, so == falls back to identity
        assert x.__eq__(ref) is NotImplemented and ref.__eq__(x) is NotImplemented
        assert x != ref and x.__eq__(object()) is NotImplemented

    def test_rebuilt_from_fields_is_equal(self, x):
        cls = type(x)
        rebuilt = cls(**{f: getattr(x, f) for f in init_fields(REFERENCES[cls])})
        assert rebuilt == x and rebuilt is not x and repr(rebuilt) == repr(x)

    def test_match_args(self, x):
        assert type(x).__match_args__ == REFERENCES[type(x)].__match_args__

    def test_assignment_and_deletion(self, x):
        name = type(x).__match_args__[0]
        for attr in (name, "not_a_field"):
            for obj in (x, to_ref(x)):
                if type(x) in MUTABLE:
                    obj = copy.copy(obj)
                    setattr(obj, attr, 1)
                    assert getattr(obj, attr) == 1
                    delattr(obj, attr)
                    continue
                with pytest.raises(FrozenInstanceError) as assign:
                    setattr(obj, attr, 1)
                with pytest.raises(FrozenInstanceError) as delete:
                    delattr(obj, attr)
                assert str(assign.value) == f"cannot assign to field {attr!r}"
                assert str(delete.value) == f"cannot delete field {attr!r}"

    def test_pickle(self, x):
        ours = outcome(lambda: pickle.loads(pickle.dumps(x)))
        theirs = outcome(lambda: pickle.loads(pickle.dumps(to_ref(x))))
        assert ours[0] == theirs[0]
        if ours[0] == "value":
            assert pickle.loads(pickle.dumps(x)) == x and ours[1] == repr(x)

    def test_copies(self, x):
        for duplicate in (copy.copy, copy.deepcopy):
            y = duplicate(x)
            assert y == x and repr(y) == repr(x) == repr(duplicate(to_ref(x)))


@pytest.mark.parametrize("cls", list(REFERENCES), ids=lambda c: c.__name__)
def test_signature_matches(cls):
    ours = inspect.signature(cls).parameters
    ref = inspect.signature(REFERENCES[cls]).parameters
    assert [(p.name, p.kind) for p in ours.values()] == [
        (p.name, p.kind) for p in ref.values()
    ]
    for f in fields(REFERENCES[cls]):
        if f.init and f.default_factory is MISSING:
            assert ours[f.name].default == ref[f.name].default, f.name


@pytest.mark.parametrize(
    "cls, args, name",
    [
        (axioms.AxiomReport, ({}, {}, {}, {}, True, {}, {}), "witnesses"),
        (search.ClaimResult, ("prop1",), "records"),
        (fixtures.FixtureDocument, (None, {}, {}), "space_pairs"),
    ],
)
def test_default_factories_are_fresh(cls, args, name):
    a, b = cls(*args), cls(*args)
    assert getattr(a, name) == getattr(REFERENCES[cls](*args), name)
    assert getattr(a, name) is not getattr(b, name)
    assert repr(a) == repr(REFERENCES[cls](*args))


def test_keyword_construction_as_the_benchmark_does():
    kwargs = dict(max_universe=4, n_params=2, mode="random", samples=500, seed=7)
    config = search.SearchConfig(**kwargs)
    assert config == search.SearchConfig(4, 2, "random", 500, 7)
    assert repr(config) == repr(SearchConfig(**kwargs))


OURS = SimpleNamespace(
    Universe=softset.Universe,
    ParameterSet=softset.ParameterSet,
    SoftSet=softset.SoftSet,
    SearchConfig=search.SearchConfig,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: m.Universe(()),
        lambda m: m.Universe(("a", "a")),
        lambda m: m.ParameterSet([]),
        lambda m: m.SoftSet(softset.Context.of("a", "e"), 2),
        lambda m: m.SoftSet(softset.Context.of("a", "e"), -1),
        lambda m: m.SearchConfig(2, 2, "sideways"),
        lambda m: m.SearchConfig(0, 2),
        lambda m: m.SearchConfig(5, 1),
        lambda m: m.SearchConfig(2, 2, "random"),
    ],
)
def test_validation_errors_match(build):
    ours = outcome(lambda: build(OURS))
    assert ours[0] is ValueError
    assert ours == outcome(lambda: build(sys.modules[__name__]))


def test_space_rejects_mixed_contexts():
    a = topology.generate_topology(softset.Context.of("a", "e"))
    b = topology.generate_topology(softset.Context.of("b", "e"))
    with pytest.raises(ContextMismatchError):
        space.BiSoftSpace(a, b)
    with pytest.raises(ContextMismatchError):
        BiSoftSpace(a, b)


def test_soft_topology_keeps_its_value_semantics():
    t = fixtures.load_fixture("bisoft1").topology("T1")
    u = t.neighbourhoods()
    assert repr(t) == f"SoftTopology(context={t.context!r}, neighbourhoods={u!r})"
    assert hash(t) == hash((t.context, t.neighbourhoods()))
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'context'"):
        t.context = None
    assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import bisoft, bisoft.cli, bisoft.scan; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
