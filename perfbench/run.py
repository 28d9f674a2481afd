"""bisoft benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics (wall_s, warm_s, setup_s,
peak_rss_mb); ``--trace 1`` runs the workload once more in this process
with every public function of the package wrapped and reports per-layer
metrics.  Every command's output is checked against answers this file
knows independently of the package; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and the metric names.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import select
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"  # first-run output digests, per command and source tree

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from warm import load_package  # noqa: E402

# Topologies on n labelled points, n = 1..4 (OEIS A000798).
TOPOLOGIES = {1: 1, 2: 4, 3: 29, 4: 355}
# Exhaustive 4x4 corpus: every (|X|, |E|) with |X| <= 4, |E| <= 4 and
# |X|*|E| <= 4 contributes K^2 ordered topology pairs on |X|*|E| points.
EXHAUSTIVE_SPACES = sum(
    TOPOLOGIES[nx * ne] ** 2
    for nx in range(1, 5)
    for ne in range(1, 5)
    if nx * ne <= 4
)
assert EXHAUSTIVE_SPACES == 379_790
TRUE_CLAIMS = (
    "cor1-point-closure",
    "cor2-point-complement-open",
    "hereditary-t0",
    "hereditary-t1",
    "hereditary-t2",
    "prop1",
    "prop2",
    "prop3",
    "prop4-backward",
    "prop4-forward",
    "prop5-t1-t0",
    "prop5-t2-t1",
    "strong-t0-propagation",
    "strong-t1-propagation",
    "t2-slice-propagation",
    "thm1-equivalence",
)

RANDOM_SMALL_SAMPLES = 500
RANDOM_LARGE_SAMPLES = 12
# A random 5x3 space has a heavy-tailed cost (one in a few hundred takes
# tens of times the mean), so independent 12-space corpora differ by far
# more than any bound; the large corpus therefore uses one fixed seed.
RANDOM_LARGE_SEED = 0

MIN_REPS = 3
SETUP_REPS = 15
TRACE_REPS = 3
CHILD_TIMEOUT_S = 60.0
HARD_STOP_S = 110.0  # start no repetition after this, so the run ends well within 180 s


class Command(NamedTuple):
    """One bisoft CLI call and the answers its output must give."""

    argv: list
    expect_rc: int
    check: Callable  # (argv, payload) -> list of problems


def _matrix_check(tested):
    def check(argv, payload):
        problems = []
        if payload.get("ok") is not True:
            problems.append("ok is not true")
        results = payload.get("results", {})
        if sorted(results) != list(TRUE_CLAIMS):
            problems.append(f"claims {sorted(results)} differ from the 16 true claims")
        for cid, r in sorted(results.items()):
            if r.get("violations") != 0:
                problems.append(f"{cid}: {r.get('violations')} violations")
            if r.get("tested") != tested:
                problems.append(f"{cid}: tested {r.get('tested')} != {tested}")
        return problems

    return check


def _hunt_check(argv, payload):
    claim = argv[argv.index("--claim") + 1]
    if payload.get("found") is not True or payload.get("claim") != claim:
        return [f"{claim}: no counterexample reported"]
    record = payload.get("record") or {}
    if record.get("claim") != claim:
        return [f"{claim}: record names claim {record.get('claim')!r}"]
    if not oracle.refutes(record):
        return [f"{claim}: oracle does not confirm the record"]
    return []


def _random(nx, ne, samples, seed):
    argv = ["search", "--max-x", str(nx), "--params", str(ne),
            "--random", str(samples), "--seed", str(seed), "--json"]
    return Command(argv, 0, _matrix_check(samples))


def _hunt(claim, params):
    argv = ["search", "--claim", claim, "--max-x", "4", "--params", str(params), "--json"]
    return Command(argv, 3, _hunt_check)


# workload name -> seed -> the commands one repetition runs, in order
WORKLOADS = {
    "exhaustive": lambda seed: [
        Command(
            ["search", "--max-x", "4", "--params", "4", "--json"],
            0,
            _matrix_check(EXHAUSTIVE_SPACES),
        )
    ],
    "mixed": lambda seed: [
        _random(4, 2, RANDOM_SMALL_SAMPLES, seed),
        _random(5, 3, RANDOM_LARGE_SAMPLES, RANDOM_LARGE_SEED),
        _hunt("pairwise-t1-implies-pairwise-t2", 3),
        _hunt("upper-idempotence-equality", 2),
    ],
}


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# children


def _child_env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(cmd, env):
    """Run to completion; returns (exit code, stdout, stderr, wall s, peak RSS MB).

    Peak RSS comes from wait4 on this child alone.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {p.stdout: [], p.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t0 + CHILD_TIMEOUT_S - time.perf_counter()
            ready = sel.select(timeout=max(remaining, 0.0))
            if not ready:
                p.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    out, err = (b"".join(chunks[f]) for f in (p.stdout, p.stderr))
    return p.returncode, out, err, wall, usage.ru_maxrss / 1024.0


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bisoft; "
    "d = time.perf_counter() - t; print(bisoft.__file__); print(repr(d))"
)


def import_child(ledger, hash_seed):
    rc, out, err, _, _ = run_child([sys.executable, "-c", IMPORT_PROBE], _child_env(hash_seed))
    lines = out.decode(errors="replace").split()
    problems = []
    if rc != 0 or len(lines) != 2:
        problems.append(f"import exited {rc}: {err.decode(errors='replace')[-300:]}")
    elif not Path(lines[0]).resolve().is_relative_to(SRC):
        problems.append(f"imported {lines[0]}, not the checkout's source")
    ledger.record("import bisoft", problems)
    return None if problems else float(lines[1])


# ---------------------------------------------------------------------------
# output checks


def source_digest():
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Checker:
    """Verdict checks plus the determinism check on raw --json stdout.

    Each command's stdout must be byte-identical to the first output seen
    for that command on this source tree, within this run and across runs.
    """

    def __init__(self, commands, digest):
        self.commands = {tuple(c.argv): c for c in commands}
        self.digest = digest
        self.seen = {}
        self.payloads = {}

    def _first_digest(self, argv, sha):
        key = tuple(argv)
        if key in self.seen:
            return self.seen[key]
        name = hashlib.sha256(
            json.dumps([self.digest, argv]).encode()
        ).hexdigest()[:24]
        path = STATE / f"{name}.json"
        try:
            first = json.loads(path.read_text())["sha256"]
        except FileNotFoundError:
            first = sha
            STATE.mkdir(exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"argv": argv, "sha256": sha}) + "\n")
            os.replace(tmp, path)
        self.seen[key] = first
        return first

    def payload(self, argv, payload):
        """Problems with one result, from the CLI or from a library call."""
        problems = self.commands[tuple(argv)].check(argv, payload)
        if payload != self.payloads.setdefault(tuple(argv), payload):
            problems.append("result differs from the first one seen for this command")
        return problems

    def cli_output(self, argv, rc, stdout, stderr=b""):
        """Problems with one CLI invocation's exit code and stdout."""
        problems = []
        expect_rc = self.commands[tuple(argv)].expect_rc
        if rc != expect_rc:
            problems.append(
                f"exit code {rc}, expected {expect_rc}: "
                + stderr.decode(errors="replace")[-300:]
            )
        try:
            payload = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        problems += self.payload(argv, payload)
        sha = hashlib.sha256(stdout).hexdigest()
        if sha != self._first_digest(argv, sha):
            problems.append("--json stdout differs from the first run's")
        return problems


# ---------------------------------------------------------------------------
# warm calls and in-process CLI calls


class WarmWorker:
    """The warm.py process; each request runs every call of the workload once."""

    def __init__(self, argvs):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "warm.py"), json.dumps(argvs)],
            cwd=ROOT, env=_child_env(0), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""

    def reply(self):
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = max(deadline - time.perf_counter(), 0.0)
            ready, _, _ = select.select([fd], [], [], remaining)
            data = os.read(fd, 1 << 16) if ready else b""
            if not data:
                raise RuntimeError("the warm-call worker stopped or timed out")
            self._buf += data
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self):
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def warm_request(worker, argvs, checker, ledger):
    """Seconds the worker's library calls took, their results checked."""
    reply = worker.request()
    for argv, payload in zip(argvs, reply["payloads"]):
        ledger.record("library call " + " ".join(argv), checker.payload(argv, payload))
    return reply["seconds"]


def cli_in_process(bisoft, argvs, checker, ledger):
    """bisoft.cli.main(argv) with stdout captured; seconds for all argvs."""
    total = 0.0
    outputs = []
    for argv in argvs:
        buf = io.StringIO()
        main = bisoft.cli.main  # looked up per call: the tracer rebinds it
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            rc = main(argv)
        total += time.perf_counter() - t0
        stdout = buf.getvalue().encode()
        ledger.record("in-process " + " ".join(argv), checker.cli_output(argv, rc, stdout))
        outputs.append(json.loads(stdout))
    return total, outputs


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_end_to_end(argvs, seconds, checker, ledger):
    print(
        "children run with PYTHONHASHSEED=k for the k-th repetition of a command "
        "or import, and 0 for the bytecode warm-up and the warm-call worker"
    )
    start = time.perf_counter()
    deadline = start + seconds
    import_child(ledger, hash_seed=0)  # untimed: compiles bytecode on a fresh checkout
    setup = [import_child(ledger, hash_seed=k + 1) for k in range(SETUP_REPS)]

    wall, warm, rss = [], [], []
    worker = WarmWorker(argvs)
    try:
        package = worker.reply()["package"]
        if not Path(package).resolve().is_relative_to(SRC):
            raise SystemExit(f"the worker imported {package}, not the checkout's source")
        warm_request(worker, argvs, checker, ledger)  # the first call pays lazy set-up
        while True:
            t0 = time.perf_counter()
            rep_wall, rep_rss = 0.0, 0.0
            for argv in argvs:
                rc, out, err, dt, peak = run_child(
                    [sys.executable, "-m", "bisoft", *argv], _child_env(len(wall) + 1)
                )
                ledger.record(" ".join(argv), checker.cli_output(argv, rc, out, err))
                rep_wall += dt
                rep_rss = max(rep_rss, peak)
            wall.append(rep_wall)
            rss.append(rep_rss)
            warm.append(warm_request(worker, argvs, checker, ledger))
            now = time.perf_counter()
            if now - start > HARD_STOP_S:
                break
            if len(wall) >= MIN_REPS and now + (now - t0) > deadline:
                break
    finally:
        worker.close()

    print(f"repetitions: {len(wall)} (wall and warm), {SETUP_REPS} (setup)")
    print("wall_s: " + " ".join(f"{x:.4f}" for x in wall))
    print("warm_s: " + " ".join(f"{x:.4f}" for x in warm))
    return {
        "wall_s": statistics.median(wall),
        "warm_s": statistics.median(warm),
        "setup_s": statistics.median(x for x in setup if x is not None),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(argvs, checker, ledger):
    """Per-layer values of one traced run, averaged over TRACE_REPS repetitions.

    The first, untraced call fills the caches; the untraced and traced
    repetitions that follow are warm, so their difference is the tracer's cost.
    """
    bisoft = load_package(MODULES)
    first, outputs = cli_in_process(bisoft, argvs, checker, ledger)
    untraced = [cli_in_process(bisoft, argvs, checker, ledger)[0] for _ in range(TRACE_REPS)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [cli_in_process(bisoft, argvs, checker, ledger)[0] for _ in range(TRACE_REPS)]
    finally:
        tracer.uninstall()

    print(f"aggregated spans of {TRACE_REPS} traced repetitions (function, parent):")
    for line in tracer.table():
        print("  " + line)

    values = {}
    for name, (calls, total, self_s) in tracer.per_function().items():
        values[f"{name}.calls"] = calls // TRACE_REPS
        values[f"{name}.self_s"] = self_s / TRACE_REPS
        values[f"{name}.total_s"] = total / TRACE_REPS
        module = name.split(".", 1)[0] + ".self_s"
        values[module] = values.get(module, 0.0) + self_s / TRACE_REPS
    n_out, members = tracer.sizes.get("topology.generate_topology", (0, 0))
    values["topology.generate_topology.members_out"] = members / n_out if n_out else 0.0

    results = [r for o in outputs for r in o.get("results", {}).values()]
    values["search.vacuous_claims"] = sum(r["premise_hits"] == 0 for r in results)
    tested = sum(r["tested"] for r in results)
    values["search.premise_rate"] = (
        sum(r["premise_hits"] for r in results) / tested if tested else 0.0
    )
    # Random corpora and hunts walk iter_spaces; the table engine never
    # materializes its spaces, so there the report's count stands in.
    checked = tracer.items.get("search.iter_spaces", 0) // TRACE_REPS or sum(
        next(iter(o["results"].values()))["tested"] for o in outputs if "results" in o
    )
    warm = statistics.median(untraced)
    values["search.spaces_checked"] = checked
    values["search.spaces_per_s"] = checked / warm
    values["search.exhaustive_setup_s"] = first - warm
    values["trace.untraced_s"] = warm
    values["trace.traced_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_s"] - warm
    return values


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bisoft" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bisoft'}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload](args.seed)
    argvs = [c.argv for c in commands]
    digest = source_digest()
    print(
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{platform.machine()}, source sha256 {digest[:16]}"
    )
    print(f"workload {args.workload}, seed {args.seed}:")
    for a in argvs:
        print("  bisoft " + " ".join(a))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker = Checker(commands, digest)
    ledger = Ledger()
    if args.trace:
        values = measure_layers(argvs, checker, ledger)
        wanted = spec["per_layer"]  # a function the package no longer has reads 0
    else:
        values = measure_end_to_end(argvs, args.seconds, checker, ledger)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
