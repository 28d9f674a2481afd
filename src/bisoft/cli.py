"""Command line surface: fixture I/O, axiom reports, and search runs.

The commands render what the library computes.  ``fixtures`` owns the
fixture document format, which ``subspace`` writes through
``serialize_fixture``, and ``--json`` writes the library's tables as they
are: ``json`` writes their tuples as arrays.

Exit codes: 0 success, 1 usage or parse problem (any ``BisoftError``
but an invalid topology), 2 a topology failed validation, 3 a
counterexample or implication violation was found, 141 (128 + SIGPIPE,
as a shell reports a writer killed by it) stdout was closed before the
output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BisoftError, InvalidTopologyError

# Each command imports the modules it uses when it runs, so that a command
# loads only those.  The annotations name their types without importing
# them; they are never evaluated.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_CLOSED_STDOUT = 141


class _UsageError(BisoftError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _fmt_member(doc: FixtureDocument, s: SoftSet) -> str:
    name = doc.name_of(s)
    return f"{name}: {s}" if name else str(s)


def _dump(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_validate(args) -> int:
    from .fixtures import load_fixture
    from .topology import topology_violations

    doc = load_fixture(args.file)
    report = {}
    all_valid = True
    for name in doc.topology_members:
        violations = topology_violations(doc.members_of(name), doc.context)
        report[name] = [str(v) for v in violations]
        all_valid = all_valid and not violations
    if args.json:
        _dump(
            {
                "file": args.file,
                "valid": all_valid,
                "topologies": {
                    n: {"valid": not v, "violations": v} for n, v in report.items()
                },
            }
        )
    else:
        for name, violations in report.items():
            if violations:
                print(f"topology {name}: INVALID")
                for v in violations:
                    print(f"  {v}")
            else:
                print(f"topology {name}: valid")
    return EXIT_OK if all_valid else EXIT_INVALID


def _cmd_axioms(args) -> int:
    from .axioms import axiom_report
    from .fixtures import load_fixture

    doc = load_fixture(args.file)
    s = doc.space(args.space)
    rep = axiom_report(s, strict_orientation=args.strict_orientation)
    t1n, t2n = doc.space_pairs[args.space]
    if args.json:
        pairwise = dict(rep.pairwise)
        if rep.strict_pairwise_t0 is not None:
            pairwise["t0_strict"] = rep.strict_pairwise_t0
        _dump(
            {
                "space": args.space,
                "soft": {t1n: rep.soft1, t2n: rep.soft2},
                "pairwise": pairwise,
                "strong": rep.strong,
                "hausdorff_char": rep.hausdorff,
                "sup": rep.sup,
                "slices": rep.slices,
                "witnesses": rep.witnesses,
            }
        )
        return EXIT_OK
    ctx = s.context
    print(
        f"space {args.space}: universe {{{', '.join(ctx.universe.elements)}}}, "
        f"parameters ({', '.join(ctx.parameters.parameters)})"
    )
    print(f"{'':18}{t1n:<9}{t2n:<9}sup")
    for ax in ("t0", "t1", "t2"):
        print(
            f"  soft {ax.upper():<12}{rep.soft1[ax]!s:<9}{rep.soft2[ax]!s:<9}"
            f"{rep.sup[ax]!s}"
        )
    for ax in ("t0", "t1", "t2"):
        line = f"pairwise soft {ax.upper():<4}{rep.pairwise[ax]!s}"
        if ax == "t0" and rep.strict_pairwise_t0 is not None:
            line += f"   (strict orientation: {rep.strict_pairwise_t0})"
        print(line)
    print(f"strong T0         {rep.strong['t0']}")
    print(f"strong T1         {rep.strong['t1']}")
    agrees = rep.hausdorff == rep.pairwise["t2"]
    print(
        f"hausdorff char    {rep.hausdorff}   "
        f"({'agrees' if agrees else 'DISAGREES'} with pairwise soft T2)"
    )
    for e, verdicts in rep.slices.items():
        print(
            f"slice {e:<12}pw T0={verdicts['t0']}  pw T1={verdicts['t1']}  "
            f"pw T2={verdicts['t2']}"
        )
    for axiom, pair in rep.witnesses.items():
        print(f"witness {axiom}: unseparated pair {pair[0]}, {pair[1]}")
    return EXIT_OK


def _sup_display_order(s: BiSoftSpace, sup) -> list[SoftSet]:
    """Null and absolute first, then both families, generated members last."""
    from .softset import SoftSet

    t1 = set(s.t1.masks())
    t2 = set(s.t2.masks())
    trivial = {0, s.context.full_mask}
    out = [SoftSet(s.context, 0), SoftSet(s.context, s.context.full_mask)]
    out += [m for m in sup.members if m.mask in t1 - trivial]
    out += [m for m in sup.members if m.mask in t2 - t1 - trivial]
    out += [m for m in sup.members if m.mask not in t1 | t2 | trivial]
    return out


def _cmd_sup(args) -> int:
    from .fixtures import load_fixture
    from .space import sup_topology

    doc = load_fixture(args.file)
    s = doc.space(args.space)
    sup = sup_topology(s)
    ordered = _sup_display_order(s, sup)
    if args.json:
        _dump(
            {
                "space": args.space,
                "size": len(sup),
                "members": [m.table() for m in ordered],
            }
        )
        return EXIT_OK
    print(f"supremum topology of {args.space}: {len(sup)} members")
    for m in ordered:
        print(f"  {_fmt_member(doc, m)}")
    return EXIT_OK


def _cmd_slice(args) -> int:
    from .axioms import pairwise_verdicts
    from .fixtures import load_fixture
    from .space import slice_space

    doc = load_fixture(args.file)
    b = slice_space(doc.space(args.space), args.param)
    t1n, t2n = doc.space_pairs[args.space]
    opens1 = [sorted(m.table()[args.param]) for m in b.t1.members]
    opens2 = [sorted(m.table()[args.param]) for m in b.t2.members]
    verdicts = pairwise_verdicts(b)
    if args.json:
        _dump(
            {
                "space": args.space,
                "parameter": args.param,
                t1n: opens1,
                t2n: opens2,
                "pairwise": verdicts,
            }
        )
        return EXIT_OK
    print(f"slice of {args.space} at {args.param}:")
    print(f"  {t1n}: " + ", ".join("{%s}" % ",".join(o) for o in opens1))
    print(f"  {t2n}: " + ", ".join("{%s}" % ",".join(o) for o in opens2))
    print(
        f"  pairwise T0={verdicts['t0']}  T1={verdicts['t1']}  "
        f"T2={verdicts['t2']}"
    )
    return EXIT_OK


def _cmd_subspace(args) -> int:
    from .fixtures import FixtureDocument, load_fixture, serialize_fixture
    from .softset import SoftSet
    from .space import subspace

    doc = load_fixture(args.file)
    s = doc.space(args.space)
    keep = [e.strip() for e in args.keep.split(",") if e.strip()]
    try:
        sub = subspace(s, keep)
    except ValueError as exc:  # an unknown element, or nothing kept
        raise _UsageError(f"--keep: {exc}") from None
    ctx = sub.context
    # the members of either topology but Phi and X, named S1.. in mask order
    masks = sorted((set(sub.t1.masks()) | set(sub.t2.masks())) - {0, ctx.full_mask})
    named = {m: f"S{i}" for i, m in enumerate(masks, 1)}
    pair = doc.space_pairs[args.space]
    topologies = {
        tn: ("Phi", "X", *(named[m] for m in t.masks() if m in named))
        for tn, t in zip(pair, (sub.t1, sub.t2))
    }
    soft_sets = {name: SoftSet(ctx, m) for m, name in named.items()}
    spaces = {args.space: pair}
    _dump(serialize_fixture(FixtureDocument(ctx, soft_sets, topologies, spaces)))
    return EXIT_OK


def _cmd_rough(args) -> int:
    from .fixtures import load_fixture
    from .rough import rough_regions

    doc = load_fixture(args.file)
    s = doc.space(args.space)
    target_name = args.target or doc.target
    if target_name is None:
        raise _UsageError("no --target given and the fixture declares none")
    target = doc.resolve(target_name)
    result = rough_regions(s, target)
    regions = {
        "lower": result.lower,
        "upper": result.upper,
        "pos": result.pos,
        "neg": result.neg,
        "bnd": result.bnd,
    }
    if args.json:
        _dump(
            {
                "space": args.space,
                "target": target_name,
                **{label: value.table() for label, value in regions.items()},
                "definable": result.definable,
            }
        )
        return EXIT_OK
    print(f"rough approximation of {target_name} in {args.space}:")
    print(f"  target: {target}")
    for label, value in regions.items():
        print(f"  {label:5}: {value}")
    print(f"  definable: {result.definable}")
    return EXIT_OK


def _cmd_search(args) -> int:
    from .search import SearchConfig, find_counterexample, verify_implications

    mode = "random" if args.random is not None else "exhaustive"
    try:
        config = SearchConfig(
            max_universe=args.max_x,
            n_params=args.params,
            mode=mode,
            samples=args.random or 0,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.claim:
        record = find_counterexample(args.claim, config)
        if record is None:
            if args.json:
                _dump({"claim": args.claim, "found": False, "corpus": config.describe()})
            else:
                print(
                    f"claim {args.claim}: no counterexample found "
                    f"({config.describe()})"
                )
            return EXIT_OK
        if args.json:
            _dump({"claim": args.claim, "found": True, "record": record.to_dict()})
        else:
            print(f"claim {args.claim}: counterexample found")
            space = record.space()
            print(f"  universe: {', '.join(record.universe)}")
            print(f"  T1 members: {[str(m) for m in space.t1.members]}")
            print(f"  T2 members: {[str(m) for m in space.t2.members]}")
            if record.target_mask is not None:
                print(f"  target: {record.target()}")
        return EXIT_COUNTEREXAMPLE
    report = verify_implications(config)
    if args.json:
        print(report.to_json())
    else:
        print(f"implication matrix over {report.corpus}:")
        for cid in sorted(report.results):
            r = report.results[cid]
            status = "ok" if r.violation_count == 0 else "VIOLATED"
            print(
                f"  {cid:<36} tested={r.tested:<8} premise={r.premise_hits:<8} "
                f"violations={r.violation_count}  {status}"
            )
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


class _Program(_Parser):
    """The top-level parser.  Its epilog lists the builtin fixtures, and is
    built only when help is formatted, so that a command that reads no
    fixture, such as ``search``, does not load ``fixtures``."""

    def format_help(self):
        from .fixtures import builtin_fixture_names

        self.epilog = (
            "FILE arguments accept a path or a builtin fixture name "
            f"({', '.join(builtin_fixture_names())})."
        )
        return super().format_help()


def build_parser() -> _Parser:
    parser = _Program(
        prog="bisoft",
        description=(
            "Finite workbench for soft set algebra, bi-soft topologies, "
            "pairwise separation axioms and rough approximation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check every topology in a fixture")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("axioms", _cmd_axioms, help="full separation axiom report for a space")
    p.add_argument("file")
    p.add_argument("--space", required=True)
    p.add_argument(
        "--strict-orientation",
        action="store_true",
        help="also evaluate pairwise soft T0 with fixed topology roles",
    )
    p.add_argument("--json", action="store_true")

    p = add("sup", _cmd_sup, help="members of the supremum topology")
    p.add_argument("file")
    p.add_argument("--space", required=True)
    p.add_argument("--json", action="store_true")

    p = add("slice", _cmd_slice, help="parameterized bitopology and its axioms")
    p.add_argument("file")
    p.add_argument("--space", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--json", action="store_true")

    p = add("subspace", _cmd_subspace, help="emit a sub-universe space as a fixture")
    p.add_argument("file")
    p.add_argument("--space", required=True)
    p.add_argument("--keep", required=True, help="comma-separated element names")

    p = add("rough", _cmd_rough, help="lower/upper approximation and regions")
    p.add_argument("file")
    p.add_argument("--space", required=True)
    p.add_argument("--target", help="declared soft set name (defaults to fixture target)")
    p.add_argument("--json", action="store_true")

    p = add("search", _cmd_search, help="verify implications or hunt counterexamples")
    p.add_argument("--claim", help="claim identifier (omit to verify the full matrix)")
    p.add_argument("--max-x", type=int, required=True, help="universe size bound")
    p.add_argument("--params", type=int, required=True, help="parameter count bound")
    p.add_argument("--random", type=int, metavar="COUNT", help="random mode sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that left early fails here, not at exit
    except BrokenPipeError:
        # the recipe of Python's signal docs: the flush at exit then succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InvalidTopologyError as exc:
        print("invalid topology:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_INVALID
    except BisoftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
