#!/usr/bin/env python3
"""Time feasgame from inputs to a verified certificate, one workload per run.

    python3 bench/run.py --workload primal-ons --seed 0 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, each in a process of its own

Run it from the root of a source checkout; it imports the package from
``src/`` and needs no install.  One process, one thread: the BLAS thread
pools are pinned to one thread before numpy loads.

``--trace 0`` repeats the whole pipeline on the pinned instance for about
``--seconds`` seconds and reports the end-to-end metrics (see ``measure``).
``--trace 1`` alternates untraced and traced passes and reports per-layer
call counts and self times (medians over traced passes), the tracing
overhead, and the share of the traced solve and verify time that the spans
account for.  Both modes then solve and verify the held-out instance of
``--seed`` once.  bench/NOTES.md explains the workloads and the metrics.

Human-readable lines go first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong
outcome, pinned-count mismatch or rejected certificate makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SOLVE_REFS = 100  # reference runs spread over the iterations of one solve
VERIFY_EVERY = 64  # descent evaluations between reference runs in a verify
STAGE_MIN_S = 0.25  # a cheap solve or verify is re-run until this much per pass is timed
SETUP_BATCH_S = 0.05  # set-ups timed before each pass, spread over the whole run
ACCOUNTING_TOL = 0.01  # traced span self times must cover solve + verify to 1%


def _environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]} numpy {np.__version__} "
            f"blas {blas.get('name')} {blas.get('version')} "
            f"nproc {len(os.sched_getaffinity(0))} "
            f"blas threads {os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")


def measure(w, seconds: float, wl, gate: list[list[str]]) -> dict:
    """End-to-end metrics from repeated passes on the pinned instance.

    Each stage is timed by a ``meter.Meter`` against a reference run
    alongside it, and reported as the median over its runs in seconds at
    the reference speed.  A solve or verify shorter than STAGE_MIN_S is
    re-run on the same input, and must give the same answer.  A pass starts
    only if at least half of it is expected to fit before the deadline, and
    its result is dropped before the next starts, so peak memory is that of
    one solve.
    Appends each pass's list of errors to ``gate``.
    """
    from meter import Meter, descent_meter

    clock = time.perf_counter
    deadline = clock() + seconds
    wl.build(w, wl.PIN_SEED)  # warm-up: first-call costs are not per-solve set-up
    setup = Meter(every=0)
    solve = Meter(every=w.iterations // SOLVE_REFS)
    verify = Meter(every=VERIFY_EVERY)
    passes, first_text, last = 0, None, 0.0
    while not passes or clock() + last / 2 <= deadline:
        t0 = clock()
        while clock() - t0 < SETUP_BATCH_S:
            setup.time(wl.build, w, wl.PIN_SEED)
        inst = setup.time(wl.build, w, wl.PIN_SEED)
        errors = []
        t1 = clock()
        result = solve.time(wl.solve, w, inst, solve)
        while clock() - t1 < STAGE_MIN_S:
            again = solve.time(wl.solve, w, inst, solve)
            if (again.iterations, type(again.outcome)) != (result.iterations, type(result.outcome)):
                errors.append("re-solving the same instance gave another outcome")
        t2 = clock()
        with descent_meter(verify):
            text, report = verify.time(wl.emit_and_verify, w, inst, result)
            while clock() - t2 < STAGE_MIN_S:
                if verify.time(wl.emit_and_verify, w, inst, result) != (text, report):
                    errors.append("re-verifying the same result gave another answer")
        errors += wl.check(w, wl.PIN_SEED, inst, result, report)
        first_text = first_text or text
        if text != first_text:
            errors.append("outcome document differs between passes")
        gate.append(errors)
        iterations = result.iterations
        passes += 1
        del inst, result, text, report
        last = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med = statistics.median
    print(f"# passes {passes}; runs: set-up {len(setup.values)}, solve {len(solve.values)}, "
          f"verify {len(verify.values)}; reference runs {len(setup.ref_ns)}, "
          f"{len(solve.ref_ns)}, {len(verify.ref_ns)}")
    print(f"# host slowdown {setup.slowdown:.3f}, {solve.slowdown:.3f}, {verify.slowdown:.3f}; "
          f"plain median times {med(setup.raw):.6g}, {med(solve.raw):.6g}, "
          f"{med(verify.raw):.6g} s")
    setup_s, solve_s, verify_s = setup.seconds, solve.seconds, verify.seconds
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "verify_s": (verify_s, "s"),
        "total_s": (setup_s + solve_s + verify_s, "s"),
        "iter_us": (1e6 * solve_s / iterations, "us"),
        "iterations": (iterations, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _layer_sample(tracer, p, wl) -> dict:
    sample = {}
    for span in wl.SPANS:
        sample[f"{span}.calls"] = tracer.calls.get(span, 0)
        sample[f"{span}.self_s"] = tracer.self_ns.get(span, 0) / 1e9
    for name in wl.COUNTERS:
        sample[name] = tracer.counts.get(name, 0)
    sample["solvers.trace.records"] = len(p.result.trace)
    sample["trace.solve_s"] = p.solve_s
    sample["trace.verify_s"] = p.verify_s
    covered = sum(tracer.self_ns.values()) / 1e9
    sample["trace.accounted_share"] = covered / (p.solve_s + p.verify_s)
    return sample


def measure_traced(w, seconds: float, wl, gate: list[list[str]]) -> dict:
    """Per-layer medians over traced passes, each after an untraced twin.

    The tracing overhead is the median over twins of traced minus untraced
    solve time.  A traced pass must emit the untraced pass's document byte
    for byte, and its spans must account for its solve and verify time.
    """
    from spans import Tracer

    clock = time.perf_counter
    deadline = clock() + seconds
    tracer = Tracer(wl.SITES)
    samples, overheads, last = [], [], 0.0
    while not samples or clock() + last / 2 <= deadline:
        t0 = clock()
        p = wl.run_pass(w, wl.PIN_SEED)
        gate.append(wl.check(w, wl.PIN_SEED, p.instance, p.result, p.report))
        tracer.reset()
        with tracer:
            q = wl.run_pass(w, wl.PIN_SEED)
        errors = wl.check(w, wl.PIN_SEED, q.instance, q.result, q.report)
        if q.text != p.text:
            errors.append("the traced pass emitted a different outcome document")
        sample = _layer_sample(tracer, q, wl)
        if abs(sample["trace.accounted_share"] - 1.0) > ACCOUNTING_TOL:
            errors.append(f"spans account for {sample['trace.accounted_share']:.4f} "
                          f"of traced solve + verify, tolerance {ACCOUNTING_TOL}")
        gate.append(errors)
        samples.append(sample)
        overheads.append(q.solve_s - p.solve_s)
        horizon = q.instance.horizon
        del p, q
        last = clock() - t0
    metrics = {}
    for name in samples[0]:
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_share") else "count")
        metrics[name] = (statistics.median(s[name] for s in samples), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["solvers.horizon.T_star"] = (horizon.T_star, "count")
    metrics["solvers.horizon.constant"] = (horizon.constant, "1")
    print(f"# traced passes {len(samples)}, each after an untraced one")
    return metrics


def _run_all(args, names: list[str]) -> int:
    """Run each workload in a process of its own; merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        if not result:  # the run died before its result line
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="one workload, or 'all' (the default) to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "feasgame" / "__init__.py").is_file():
        print(f"error: no feasgame sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path[:0] = [p for p in (str(SRC), str(BENCH)) if p not in sys.path]
    import workloads as wl

    if args.workload == "all":
        return _run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    print(f"# workload {w.name} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print(f"# env {_environment()}")

    gate: list[list[str]] = []  # one list of errors per pass
    run = measure_traced if args.trace else measure
    metrics = run(w, args.seconds, wl, gate)
    h = wl.build(w, wl.PIN_SEED).horizon
    print(f"# horizon T*={h.T_star} set by the {h.bound} bound = {h.constant:.6g}")

    held_out = wl.run_pass(w, args.seed)
    errors = wl.check(w, args.seed, held_out.instance, held_out.result, held_out.report)
    gate.append([f"held-out seed {args.seed}: {e}" for e in errors])
    print(f"# held-out seed {args.seed}: {type(held_out.result.outcome).__name__} after "
          f"{held_out.result.iterations} iterations, certificate "
          f"{'verified' if held_out.report.ok else 'REJECTED'}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = sum(1 for errors in gate if errors)
    print(f"failed_runs {failed / len(gate):.6g} share ({failed} of {len(gate)} passes)")
    for errors in gate:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(gate),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    # one thread: set before main() imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
