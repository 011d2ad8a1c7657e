#!/usr/bin/env python3
"""Benchmark for clik: four workloads, end-to-end metrics, a traced run
for per-layer metrics, and a correctness gate on every run.

    python3 perfbench/run.py --workload sim-pairwise --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports clik from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints the violations to standard error and exits with
code 1, without a result.  Other modes:

    python3 perfbench/run.py --write-reference   # store reference.json
    python3 perfbench/run.py --verify-timing     # time `verify --level full`

Everything the benchmark writes goes under ``.perfbench_out/`` in the
checkout; its scratch directories are removed before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: Set-up is measured this many times, each in a fresh process.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

#: BLAS and OpenMP pools are pinned to one thread, so the serial workloads
#: never oversubscribe a small machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: End-to-end metric -> unit, as BENCHMARK.json lists them.
END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

#: The expected verification failure (see the repository ROADMAP).
EXPECTED_VERIFY_FAILURE = "pairwise-ratio-negative-side"


def fail(message: str, code: int) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def pin_environment() -> None:
    """Pin BLAS threads and run clik at the default worker count.  Must run
    before numpy is imported; child processes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CLIK_THREADS", None)


def import_program():
    """Import clik from the checkout's source tree and the workloads."""
    if not (SRC / "clik" / "__init__.py").is_file():
        fail(f"no clik source tree at {SRC}; run from a checkout root", 2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ[THREAD_VARS[0]],
            "clik_threads": os.environ.get("CLIK_THREADS", "default")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up: import, input generation and config parse, in a fresh process
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Time one set-up in this (fresh) process and print the seconds."""
    started = time.perf_counter()
    wl_mod = import_program()
    wl = wl_mod.WORKLOADS[name]
    workdir = tempfile.mkdtemp(dir=OUT, prefix="setup-")
    try:
        wl.parse_inputs(wl.make_inputs(seed, workdir))
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", 1)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------


def reference_case(wl_mod, wl, workdir):
    """Run the workload's scaled-down case at the reference seed and return
    its summaries (this also warms the program up)."""
    inputs = wl.make_inputs(wl_mod.REFERENCE_SEED, workdir, reference=True)
    return wl.summaries(wl.run_pass(inputs))


def timed_passes(wl, inputs, seconds, tracer=None):
    """Run passes until ``seconds`` have passed.  Without a tracer every
    pass is timed; with one, untraced and traced passes alternate.  Every
    pass must reproduce the first pass's outputs exactly."""
    plain, traced = [], []
    fingerprint = outputs = None
    deadline = time.perf_counter() + seconds
    k = 0
    while k < (2 if tracer else 1) or time.perf_counter() < deadline:
        use_trace = tracer is not None and k % 2 == 1
        with (tracer.installed(k) if use_trace else contextlib.nullcontext()):
            t0 = time.perf_counter()
            outputs = wl.run_pass(inputs)
            elapsed = time.perf_counter() - t0
        (traced if use_trace else plain).append(elapsed)
        fp = wl.fingerprint(outputs)
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            fail(f"{wl.name}: pass {k} did not reproduce the first pass", 1)
        k += 1
    return plain, traced, outputs


def run_workload(args) -> None:
    wl_mod = import_program()
    if args.workload not in wl_mod.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{sorted(wl_mod.WORKLOADS)}", 2)
    wl = wl_mod.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(wl.name, args.seed)

    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{wl.name}-")
    try:
        problems = []
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        if wl.name not in stored:
            fail(f"{REFERENCE.name} has no entry for {wl.name}; "
                 f"run --write-reference at the reference commit", 1)
        ref_dir = os.path.join(workdir, "reference")
        os.mkdir(ref_dir)
        problems += wl_mod.compare_reference(
            wl.name, reference_case(wl_mod, wl, ref_dir), stored[wl.name])

        run_dir = os.path.join(workdir, "run")
        os.mkdir(run_dir)
        inputs = wl.make_inputs(args.seed, run_dir)
        items = wl.work_items(inputs)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        plain, traced, outputs = timed_passes(wl, inputs, args.seconds, tracer)
        rss = peak_rss_mb()
        nonconverged = wl.nonconverged(outputs)
        problems += wl.check(inputs, outputs)
        if isinstance(wl, wl_mod.SimWorkload):
            problems += wl_mod.worker_count_check(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        fail(f"{wl.name} seed {args.seed}: correctness gate failed:\n  "
             + "\n  ".join(problems), 1)

    wall = statistics.median(plain)
    info = {"workload": wl.name, "seed": args.seed,
            "pass_s": [round(t, 4) for t in plain],
            "traced_pass_s": [round(t, 4) for t in traced],
            "work_per_pass": items,
            "work_unit": wl.unit, "nonconverged_fits": nonconverged,
            "failed_frac": nonconverged / items, "machine": machine()}
    print("run: " + json.dumps(info))
    if tracer is not None:
        overhead = statistics.median(traced) / wall - 1.0
        spans_path = OUT / f"spans-{wl.name}.npz"
        tracer.write(spans_path)
        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                   for name, value in tracing.layer_metrics(tracer, overhead).items()}
        print(f"spans: {len(tracer.start)} written to {spans_path}")
    else:
        values = {"wall_s": wall, "items_per_s": items / wall,
                  "setup_s": setup_s, "peak_rss_mb": rss}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"{wl.unit}_per_s = {items / wall:.6g} 1/s "
              f"({items} {wl.unit} per pass)")
    for name, m in metrics.items():
        value = m["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {m['unit']}")
    passes = len(plain) + len(traced)
    print(json.dumps({"correct": True, "attempted": items * passes,
                      "failed": 0, "metrics": metrics}))


# ---------------------------------------------------------------------------
# maintenance modes
# ---------------------------------------------------------------------------


def write_reference() -> None:
    """Store every workload's reference-case summaries in reference.json."""
    wl_mod = import_program()
    OUT.mkdir(exist_ok=True)
    stored = {}
    for name, wl in wl_mod.WORKLOADS.items():
        workdir = tempfile.mkdtemp(dir=OUT, prefix="reference-")
        try:
            stored[name] = reference_case(wl_mod, wl, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def verify_timing() -> int:
    """Time ``verify.run_all(level="full")`` check by check.  Not a gate on
    speed; exits 1 unless exactly the expected check fails."""
    import_program()
    from clik import verify

    checks = verify.ALL_CHECKS
    timings = []

    def timed(fn):
        def call(**kwargs):
            t0 = time.perf_counter()
            results = fn(**kwargs)
            timings.append((fn.__name__, time.perf_counter() - t0, results))
            return results
        return call

    verify.ALL_CHECKS = [timed(fn) for fn in checks]
    try:
        started = time.perf_counter()
        results = verify.run_all(level="full")
        total = time.perf_counter() - started
    finally:
        verify.ALL_CHECKS = checks
    for name, seconds, res in timings:
        passed = sum(r.passed for r in res)
        print(f"{name:40s} {seconds:7.2f} s  {passed}/{len(res)} passed")
    print(f"{'total':40s} {total:7.2f} s  "
          f"{sum(r.passed for r in results)}/{len(results)} passed")
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED {r.check_id}: value={r.value:.6g} "
              f"threshold={r.threshold:.6g} ({r.detail})")
    print(json.dumps({"total_s": total, "machine": machine(),
                      "checks": {name: s for name, s, _ in timings},
                      "failed": [r.check_id for r in failed]}))
    if [r.check_id for r in failed] != [EXPECTED_VERIFY_FAILURE]:
        print(f"perfbench: expected exactly one failing check, "
              f"{EXPECTED_VERIFY_FAILURE}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--verify-timing", action="store_true")
    args = parser.parse_args(argv)
    pin_environment()
    if args.write_reference:
        write_reference()
        return 0
    if args.verify_timing:
        return verify_timing()
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
