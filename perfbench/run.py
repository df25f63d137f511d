"""Benchmark of the exact Beatty-game engine in `src/beatty_games`.

    python3 perfbench/run.py --workload {gen,oracle,survey} --seed N --seconds S --trace {0,1}

Run from the repository root.  One process, one thread.  The run imports the
engine and builds the seeded inputs several times (setup), runs one warm-up
round, then repeats whole rounds of the workload's operations until
`--seconds` have passed, checking every result against an independent
reference (see `reference.py`); a failed check or an exception counts the
operation as failed.  The generators' known defect on random rulesets
(ROADMAP item 1) is probed on `oracle` and reported, not failed: see
`workloads.Op.defect`.

On a shared 2-core VM the speed of a pure-Python run drifts by up to 2x
over tens of seconds.  So a fixed pure-Python workload (`calibrate`) runs
between operations, and every reported time is scaled to the speed at which
it takes CAL_REF_S: a time t measured while it took c is reported as
t * CAL_REF_S / c.  The line before the last also gives the raw values.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` rounds alternate between untraced and traced; the traced ones
give the per-layer metrics (see `tracing.py`), the pairs give
`trace.overhead_frac`, and the spans are written to `perfbench/out/`.  The
line before the last records the Python version, the git revision, the seed,
a digest of the engine's sources, the input sizes, the sample count behind
every percentile and the first failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
CAL_REF_S = 0.0035  # calibrate() time that reported timings are scaled to
# Ten-fold steps, so a 2x change in host speed rarely changes which one is reported.
PERCENTILES = (50, 90, 99, 99.9)
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
CLI_SPAWNS = 2  # survey operations whose CLI calls are also run as processes

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_engine():
    """Fresh import of every engine module (earlier imports are dropped first)."""
    for name in [m for m in sys.modules if m == "beatty_games" or m.startswith("beatty_games.")]:
        del sys.modules[name]
    pkg = importlib.import_module("beatty_games")
    return SimpleNamespace(package=pkg, quadfield=pkg.quadfield, games=pkg.games,
                           solver=pkg.solver, classifier=pkg.classifier,
                           cli=importlib.import_module("beatty_games.cli"))


def calibrate() -> float:
    """Seconds a fixed pure-Python workload takes now: a probe of the host's speed.

    Exact floors by isqrt and Fraction arithmetic slow down with the host the
    way the engine's layers do (within about 5% in 13-second windows); a
    plain dict loop tracked only the generators.
    """
    start = perf_counter()
    reference.beatty_rows(5, 1, 5, 5, 1500)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return perf_counter() - start


def setup(workload: str, seed: int):
    """Import the engine and build the inputs SETUP_REPEATS times; keep the last.

    Returns the engine, the operations and the (scaled, raw) setup times.
    """
    times = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        bg = import_engine()
        ops = workloads.build(workload, bg, seed)
        took = perf_counter() - start
        after = calibrate()
        times.append((took * 2 * CAL_REF_S / (cal + after), took))
        cal = after
    return bg, ops, times


class Results:
    """Latencies, work and failures of the operations run so far."""

    def __init__(self):
        self.latencies = []  # seconds, scaled to the reference host speed
        self.raw = []  # seconds as measured
        self.work = 0
        self.op_time = 0.0  # scaled
        self.failures = []
        self.failed_kinds = Counter()
        self.probed = 0  # operations whose known-defect probe ran
        self.mismatches = []  # what those probes found
        self.scales = defaultdict(list)  # "gen"/"oracle" -> [t(2x)/t(x)]

    def add(self, op, took, factor, error, mismatch=None):
        self.latencies.append(took * factor)
        self.raw.append(took)
        self.work += op.work
        self.op_time += took * factor
        if error is not None:
            self.failed_kinds[op.kind] += 1
            if len(self.failures) < 5:
                self.failures.append(error)
        elif op.defect is not None:
            self.probed += 1
            if mismatch is not None:
                self.mismatches.append(mismatch)


def run_op(op, tracer=None, op_id=0):
    """Run and check one operation; returns (seconds, error or None, known-defect mismatch or None)."""
    start = perf_counter()
    try:
        result = op.run() if tracer is None else tracer.run_op(op_id, op.run)
        error = None
    except Exception as exc:  # the benchmark keeps running and counts the failure
        result, error = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
    took = perf_counter() - start
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:  # malformed output: the check itself cannot finish
            error = f"check of {op.kind} raised {type(exc).__name__}: {exc}"
    mismatch = None
    if error is None and op.defect is not None:
        try:
            mismatch = op.defect(result)
        except Exception as exc:
            mismatch = f"probe of {op.kind} raised {type(exc).__name__}: {exc}"
    return took, error, mismatch


def run_round(ops, results, tracer=None):
    """Run every operation once; traced, record the doubling ratios t(2x)/t(x)
    of the scale operations' own generator or oracle spans (`tracer.last`)."""
    sizes = defaultdict(dict)
    cal = calibrate()
    for op in ops:
        if tracer is not None:
            tracer.install()
        try:
            took, error, mismatch = run_op(op, tracer, len(results.latencies))
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = calibrate()
        factor = 2 * CAL_REF_S / (cal + after)
        cal = after
        results.add(op, took, factor, error, mismatch)
        if tracer is not None and op.scale is not None and error is None:
            group, key, size = op.scale
            sizes[group, key][size] = tracer.last[group]
    for (group, _), by_size in sizes.items():
        small = min(by_size)
        if 2 * small in by_size:
            results.scales[group].append(by_size[2 * small] / by_size[small])


def percentile(sorted_values, p):
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail(latencies):
    """Highest listed percentile with at least TAIL_BEYOND samples beyond it."""
    values = sorted(latencies)
    chosen = 100
    for p in PERCENTILES:
        if len(values) * (100 - p) / 100 >= TAIL_BEYOND:
            chosen = p
    beyond = sum(1 for v in values if v > percentile(values, chosen))
    return chosen, percentile(values, chosen), beyond


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_path = ROOT / ".git" / text[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + text[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 of the engine's sources, naming the code when no git metadata is present."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "beatty_games").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spawn_cli(ops, bg):
    """Wall time of `python -m beatty_games.cli` per argv, and byte mismatches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, errors = [], []
    for op in ops[:CLI_SPAWNS]:
        for argv in op.argvs:
            buf = io.StringIO()
            bg.cli.main(argv, out=buf)
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "beatty_games.cli", *argv], cwd=ROOT, env=env,
                                  capture_output=True, timeout=60)
            times.append(perf_counter() - start)
            if proc.returncode != 0 or proc.stdout != buf.getvalue().encode():
                errors.append(f"spawned cli {argv[0]} differs from in-process cli.main")
    return times, errors


def per_layer(tracer, traced, untraced_time, fail_frac, mismatch_frac, proc_times):
    stats = tracer.stats
    ops = len(traced.latencies)

    def calls(name):
        return stats[name][0] / ops if name in stats else 0

    def self_s(prefixes):
        return sum(s[2] for k, s in stats.items() if k.startswith(prefixes)) / ops

    def mean_us(name):
        return stats[name][1] / stats[name][0] * 1e6 if stats.get(name, (0,))[0] else 0

    def ratio(num, den):
        return num / den if den else 0

    serialize = tuple(f"solver.{f}" for f in ("ptable_to_csv", "ptable_to_json", "positions_to_csv",
                                                "positions_to_json"))
    scale = {g: statistics.median(v) for g, v in traced.scales.items()}
    return {
        "quadfield.beatty_floor.calls": (calls("quadfield.beatty_floor"), "calls/op"),
        "quadfield.conjugate_beatty.calls": (calls("quadfield.conjugate_beatty"), "calls/op"),
        "quadfield.self_s": (self_s("quadfield."), "s/op"),
        "quadfield.delta2.us": (mean_us("quadfield.delta2"), "us"),
        "quadfield.trichotomy_class.us": (mean_us("quadfield.trichotomy_class"), "us"),
        "quadfield.solve_unit_combination.calls": (calls("quadfield.solve_unit_combination"), "calls/op"),
        "games.constraint.evals": (calls("games.constraint"), "evals/op"),
        "games.constraint.self_s": (self_s("games.constraint"), "s/op"),
        "solver.gen.self_s": (self_s(("solver.solve_doublemex", "solver.solve_relaxed",
                                      "solver.recurrence_closed")), "s/op"),
        "solver.gen.evals_per_pair": (ratio(tracer.evals["gen"], tracer.work["gen"]), "evals/pair"),
        "solver.gen.scale_2x": (scale.get("gen", 0), "ratio"),
        "solver.oracle.self_s": (self_s("solver.retrograde_oracle"), "s/op"),
        "solver.oracle.evals_per_position": (ratio(tracer.evals["oracle"], tracer.work["oracle"]),
                                             "evals/position"),
        "solver.oracle.scale_2x": (scale.get("oracle", 0), "ratio"),
        "solver.serialize.self_s": (self_s(serialize), "s/op"),
        "classifier.self_s": (self_s("classifier."), "s/op"),
        "classifier.classify.us": (mean_us("classifier.classify_alpha"), "us"),
        "cli.main.self_s": (self_s("cli.main"), "s/op"),
        "cli.proc_ms": (statistics.median(proc_times) * 1e3 if proc_times else 0, "ms"),
        "trace.overhead_frac": (traced.op_time / untraced_time - 1, "frac"),
        "fail_frac": (fail_frac, "frac"),
        "solver.gen.oracle_mismatch_frac": (mismatch_frac, "frac"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beatty_games" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bg, ops, setup_times = setup(args.workload, args.seed)
    warm = Results()
    run_round(ops, warm)  # warm-up: fills lazy references and caches, not reported
    # The inputs and references live for the whole run; frozen, they are not
    # re-walked by every full collection, a cost no single CLI run pays.
    gc.collect()
    gc.freeze()

    results, traced = Results(), Results()
    tracer = Tracer(bg) if args.trace else None
    rounds = 0
    deadline = perf_counter() + args.seconds
    while True:
        run_round(ops, results)
        if tracer is not None:
            run_round(ops, traced, tracer)
        rounds += 1
        if perf_counter() >= deadline:
            break

    attempted = len(results.latencies) + len(traced.latencies)
    failed = sum(results.failed_kinds.values()) + sum(traced.failed_kinds.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_revision": git_revision(), "src_sha256": source_digest(), "sizes": workloads.SIZES[args.workload],
        "ops_per_round": len(ops), "rounds": rounds,
        "failed_kinds": dict(results.failed_kinds + traced.failed_kinds),
        "failures": (results.failures + traced.failures)[:5],
        "known_defect": {"probed": results.probed + traced.probed,
                         "mismatched": len(results.mismatches) + len(traced.mismatches),
                         "first": (results.mismatches + traced.mismatches)[:3]},
    }
    if tracer is None:
        lat = results.latencies
        p, tail_s, beyond = tail(lat)
        metrics = {
            "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
            "work_per_s": (results.work / results.op_time, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail["samples"] = {"setup_s": len(setup_times), "op_p50_ms": len(lat),
                             "op_tail_ms": {"percentile": p, "samples": len(lat), "beyond": beyond}}
        detail["raw"] = {"setup_s": statistics.median(raw for _, raw in setup_times),
                         "work_per_s": results.work / sum(results.raw),
                         "op_p50_ms": statistics.median(results.raw) * 1e3,
                         "op_tail_ms": tail(results.raw)[1] * 1e3}
    else:
        proc_times = []
        if args.workload == "survey":
            proc_times, errors = spawn_cli(ops, bg)
            attempted += len(proc_times)
            failed += len(errors)
            detail["failures"] += errors
        probe = detail["known_defect"]
        mismatch_frac = probe["mismatched"] / probe["probed"] if probe["probed"] else 0
        metrics = per_layer(tracer, traced, results.op_time, failed / attempted, mismatch_frac, proc_times)
        detail["samples"] = {"traced_ops": len(traced.latencies), "untraced_ops": len(results.latencies),
                             "scale_2x": {g: len(v) for g, v in traced.scales.items()},
                             "cli.proc_ms": len(proc_times)}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans, {"detail": detail})
        detail["spans"] = os.path.relpath(spans, ROOT)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
