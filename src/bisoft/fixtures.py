"""Fixture documents: the JSON surface for spaces, topologies and targets.

A fixture declares a universe and parameter set (declaration order is the
canonical order), named soft sets as parameter-to-element tables, named
topologies as lists of soft set names, named bi-soft spaces as topology
name pairs, and optionally a default target for rough queries.  The names
``Phi`` and ``X`` are reserved inside topology member lists for the null
and absolute soft sets and cannot be redefined.

A bundle of ready-made fixtures ships with the package; they double as
the regression corpus for the checker suite.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import FixtureError
from .softset import Context, SoftSet, _Value, extend_parameters
from .space import BiSoftSpace
from .topology import SoftTopology, validate_topology

RESERVED_NAMES = ("Phi", "X")


class FixtureDocument(_Value, frozen=False):
    __match_args__ = (
        "context", "soft_sets", "topology_members", "space_pairs", "target",
    )

    def __init__(
        self,
        context: Context,
        soft_sets: dict[str, SoftSet],
        topology_members: dict[str, tuple[str, ...]],
        space_pairs: Optional[dict[str, tuple[str, str]]] = None,
        target: Optional[str] = None,
    ):
        space_pairs = {} if space_pairs is None else space_pairs
        self._set(context, soft_sets, topology_members, space_pairs, target)

    def resolve(self, name: str) -> SoftSet:
        """Soft set for a member name, honoring the reserved names."""
        if name == "Phi":
            return SoftSet(self.context, 0)
        if name == "X":
            return SoftSet(self.context, self.context.full_mask)
        try:
            return self.soft_sets[name]
        except KeyError:
            raise FixtureError(f"unknown soft set name {name!r}") from None

    def members_of(self, topology_name: str) -> list[SoftSet]:
        try:
            names = self.topology_members[topology_name]
        except KeyError:
            raise FixtureError(f"unknown topology name {topology_name!r}") from None
        return [self.resolve(n) for n in names]

    def topology(self, name: str) -> SoftTopology:
        """Validated topology; raises InvalidTopologyError with witnesses."""
        return validate_topology(self.members_of(name), self.context)

    def space(self, name: str) -> BiSoftSpace:
        """Validated space; an undeclared name raises FixtureError listing
        the declared ones, as ``unknown space 'Q' (spaces: S)``."""
        try:
            t1_name, t2_name = self.space_pairs[name]
        except KeyError:
            known = ", ".join(self.space_pairs) or "none declared"
            raise FixtureError(f"unknown space {name!r} (spaces: {known})") from None
        return BiSoftSpace(self.topology(t1_name), self.topology(t2_name))

    def name_of(self, s: SoftSet) -> Optional[str]:
        """Declared (or reserved) name whose table matches, if any."""
        if s.mask == 0:
            return "Phi"
        if s.mask == self.context.full_mask:
            return "X"
        for name, val in self.soft_sets.items():
            if val.mask == s.mask:
                return name
        return None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise FixtureError(f"{path} must be an object")
    return value


def _strings(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FixtureError(f"{path} must be a list of strings")
    return value


def parse_fixture(data: dict) -> FixtureDocument:
    """Check the document's shape, then build and resolve it; every
    problem raises ``FixtureError`` naming its JSON path."""
    for key in ("universe", "parameters"):
        if key not in data:
            raise FixtureError(f"missing top-level key: {key!r}")
    try:
        ctx = Context.of(
            _strings(data["universe"], "$.universe"),
            _strings(data["parameters"], "$.parameters"),
        )
    except ValueError as exc:
        raise FixtureError(str(exc)) from None

    soft_sets: dict[str, SoftSet] = {}
    for name, table in _object(data.get("soft_sets", {}), "$.soft_sets").items():
        path = f"$.soft_sets[{name!r}]"
        if name in RESERVED_NAMES:
            raise FixtureError(f"soft set name {name!r} is reserved")
        for pname, elems in _object(table, path).items():
            _strings(elems, f"{path}[{pname!r}]")
        try:
            soft_sets[name] = extend_parameters(table, ctx)
        except KeyError as exc:
            msg = f"soft set {name!r}: unknown name {exc.args[0]!r}"
            raise FixtureError(msg) from None

    topologies = _object(data.get("topologies", {}), "$.topologies")
    target = data.get("target")
    if target is not None and not isinstance(target, str):
        raise FixtureError("$.target must be a string")
    doc = FixtureDocument(
        context=ctx,
        soft_sets=soft_sets,
        topology_members={
            name: tuple(_strings(members, f"$.topologies[{name!r}]"))
            for name, members in topologies.items()
        },
        space_pairs={},
        target=target,
    )
    # resolve every reference now so later commands can trust the document
    for name, members in doc.topology_members.items():
        for m in members:
            doc.resolve(m)
    for name, pair in _object(data.get("spaces", {}), "$.spaces").items():
        if len(_strings(pair, f"$.spaces[{name!r}]")) != 2:
            raise FixtureError(f"space {name!r} must name exactly two topologies")
        for t in pair:
            if t not in doc.topology_members:
                raise FixtureError(f"space {name!r}: unknown topology {t!r}")
        doc.space_pairs[name] = (pair[0], pair[1])
    if doc.target is not None and doc.target not in doc.soft_sets:
        raise FixtureError(f"target {doc.target!r} is not a declared soft set")
    return doc


def serialize_fixture(doc: FixtureDocument) -> dict:
    ctx = doc.context
    out: dict = {
        "universe": list(ctx.universe.elements),
        "parameters": list(ctx.parameters.parameters),
        "soft_sets": {
            name: {p: list(v) for p, v in s.table().items()}
            for name, s in doc.soft_sets.items()
        },
        "topologies": {
            name: list(members) for name, members in doc.topology_members.items()
        },
    }
    if doc.space_pairs:
        out["spaces"] = {name: list(pair) for name, pair in doc.space_pairs.items()}
    if doc.target is not None:
        out["target"] = doc.target
    return out


def loads_fixture(text: str) -> FixtureDocument:
    """The fixture document of a JSON text; JSON nested too deeply for
    ``json.loads`` raises ``FixtureError``, as other invalid JSON does."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FixtureError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FixtureError("fixture document must be a JSON object")
    return parse_fixture(data)


def builtin_fixture_names() -> tuple[str, ...]:
    root = resources.files("bisoft") / "fixtures"
    return tuple(
        sorted(
            p.name[: -len(".json")]
            for p in root.iterdir()
            if p.name.endswith(".json") and p.name != "manifest.json"
        )
    )


def load_fixture(path_or_name: str) -> FixtureDocument:
    """Load a fixture from a file path or a builtin fixture name.  A path
    that cannot be read or decoded raises ``FixtureError`` naming it."""
    p = Path(path_or_name)
    try:
        if p.exists():
            return loads_fixture(p.read_text())
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not text
        # the last argument of either is its reason, without the path
        raise FixtureError(f"cannot read {path_or_name!r}: {exc.args[-1]}") from None
    name = path_or_name.removesuffix(".json")
    if name in builtin_fixture_names():
        text = (resources.files("bisoft") / "fixtures" / f"{name}.json").read_text()
        return loads_fixture(text)
    raise FixtureError(
        f"no such fixture file or builtin name: {path_or_name!r} "
        f"(builtins: {', '.join(builtin_fixture_names())})"
    )


def load_manifest() -> dict:
    text = (resources.files("bisoft") / "fixtures" / "manifest.json").read_text()
    return json.loads(text)
