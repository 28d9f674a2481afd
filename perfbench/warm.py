"""Warm-call worker: repeats the workload's library calls in one process.

    python3 perfbench/warm.py '<JSON list of CLI argument lists>'

Prints one JSON line naming the imported package, then, for every line
read on stdin, runs each call once and prints one JSON line with the
seconds all calls took and the CLI-shaped payload of each.  The first
request pays the lazy set-up; later ones are what a long-running process
sees.  It runs apart from the benchmark process so that process stays
small: a child's peak RSS, as wait4 reports it, starts from the parent's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_package(modules=()):
    """Import bisoft from the checkout's source tree, and the named submodules."""
    sys.path.insert(0, str(SRC))
    import bisoft
    import bisoft.cli

    if not Path(bisoft.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {bisoft.__file__}, not the checkout's source")
    for short in modules:
        try:
            __import__(f"bisoft.{short}")
        except ModuleNotFoundError as exc:  # a layer a later version removed
            if exc.name != f"bisoft.{short}":
                raise
    return bisoft


def library_call(bisoft, argv):
    """The search call the CLI makes for argv, and how to turn its result into the CLI's payload."""
    args = bisoft.cli.build_parser().parse_args(argv)
    search = bisoft.search
    config = search.SearchConfig(
        max_universe=args.max_x,
        n_params=args.params,
        mode="random" if args.random else "exhaustive",
        samples=args.random or 0,
        seed=args.seed,
    )
    if args.claim:
        def hunt_payload(record):
            if record is None:
                return {"claim": args.claim, "found": False}
            return {"claim": args.claim, "found": True, "record": record.to_dict()}

        return lambda: search.find_counterexample(args.claim, config), hunt_payload
    return (
        lambda: search.verify_implications(config),
        lambda report: json.loads(report.to_json()),
    )


def main():
    bisoft = load_package()
    calls = [library_call(bisoft, argv) for argv in json.loads(sys.argv[1])]
    print(json.dumps({"package": bisoft.__file__}), flush=True)
    for _ in sys.stdin:
        seconds = 0.0
        payloads = []
        for call, to_payload in calls:
            t0 = time.perf_counter()
            result = call()
            seconds += time.perf_counter() - t0
            payloads.append(to_payload(result))
        print(json.dumps({"seconds": seconds, "payloads": payloads}), flush=True)


if __name__ == "__main__":
    main()
