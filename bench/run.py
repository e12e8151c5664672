"""Benchmark of coupledforms: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload simulate_stepping --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
Every pass is checked.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when no operation failed, and 2 when the package sources are
missing.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 15
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads() -> int:
    """Set BLAS threads to the CPUs this process may use, whatever the environment says.

    Must run before numpy loads.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(cpus)
    return cpus


def import_package():
    """Import coupledforms from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "coupledforms" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package sources at {src / 'coupledforms'}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import coupledforms

    if Path(coupledforms.__file__).resolve().parent != (src / "coupledforms").resolve():
        sys.stderr.write(f"bench: imported coupledforms from {coupledforms.__file__}, not from {src}\n")
        sys.exit(2)
    import coupledforms.cli  # noqa: F401  (the check workloads call it; import it during set-up)
    import coupledforms.report  # noqa: F401

    return coupledforms


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from launching a fresh interpreter until it has imported and built the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_pass(wl, tracer=None) -> dict:
    """One pass over the workload's operations; tracing covers only the program calls."""
    wl.reset()
    gc.collect()  # start every pass with no garbage left from the previous one
    ops = wl.operations()
    outcomes = []
    if tracer is not None:
        tracer.install()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        for name, op in ops:
            try:
                outcomes.append((name, op(), None))
            except Exception:  # an operation that raises is counted as failed
                outcomes.append((name, None, traceback.format_exc()))
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    failed = 0
    for name, result, error in outcomes:
        try:
            problems = [error] if error else wl.verify(name, result)
        except Exception:  # unreadable outputs fail the operation
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            sys.stderr.write(f"bench: {wl.name}/{name} failed:\n  " + "\n  ".join(problems) + "\n")
    return {"wall": wall, "cpu": cpu, "attempted": len(ops), "failed": failed}


def measure(wl, seconds: float, traced: bool, probe=None, probes: int = 0) -> tuple:
    """Repeat whole passes until ``seconds`` have gone; alternate traced ones when ``traced``.

    Between passes, ``probe()`` is called so that its ``probes`` calls are
    spread over the run, the last ones after the final pass.
    """
    from tracing import Tracer, layer_metrics
    from workloads import CHECK_IDS

    tracer = Tracer() if traced else None
    passes, layers, spans_out, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = traced and len(passes) % 2 == 1
        record = run_pass(wl, tracer if use_tracer else None)
        record["traced"] = use_tracer
        passes.append(record)
        if use_tracer:
            spans, forms = tracer.take()
            layers.append(layer_metrics(spans, forms, record["wall"], CHECK_IDS))
            spans_out.append([s[:5] for s in spans])
            del forms  # release the traced pass's matrices before the next pass
        elapsed = time.perf_counter() - start
        due = probes if elapsed >= seconds else math.ceil(probes * elapsed / seconds)
        while len(setup) < min(probes, due):
            setup.append(probe())
        if elapsed >= seconds and (not traced or len(passes) >= 2):
            return passes, layers, spans_out, setup


def end_to_end(passes: list, setup: list) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(passes: list, layers: list) -> dict:
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    out = {name: (statistics.median(m[name][0] for m in layers), unit) for name, (_, unit) in layers[0].items()}
    out["trace.wall_s"] = (statistics.median(traced), "s")
    out["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - out["trace.untraced_wall_s"][0], "s")
    return out


def run_workload(cf, name: str, seed: int, seconds: float, trace: bool, smoke: bool, probes: int) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[name](cf, work, seed, smoke)
        passes, layers, spans, setup = measure(
            wl, seconds, trace, lambda: probe_setup(name, seed, smoke), 0 if trace else probes
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics = per_layer(passes, layers)
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps({"fields": ["name", "group", "start", "end", "parent"], "passes": spans}) + "\n"
        )
    else:
        metrics = end_to_end(passes, setup)
    for key, (value, unit) in metrics.items():
        print(f"{name}  {key:34s} {value:.6g} {unit}")
    print(f"{name}  passes {len(passes)}, operations {attempted}, failed {failed}")
    print(f"{name}  pass wall_s " + " ".join(f"{p['wall']:.3f}" for p in passes))
    if setup:
        print(f"{name}  setup probes s " + " ".join(f"{t:.3f}" for t in setup))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("simulate_stepping", "check_trials", "check_spectral"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small grids; every workload untraced and traced")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke):
        parser.error("--workload is required unless --smoke is given")

    threads = set_blas_threads()
    cf = import_package()
    from workloads import WORKLOADS

    if args.setup_only:
        work = WORK / f"setup-{os.getpid()}"
        try:
            WORKLOADS[args.workload](cf, work, args.seed, args.smoke)
            print(time.monotonic())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    print(f"bench: coupledforms from {ROOT / 'src'}, BLAS threads {threads}, seed {args.seed}")
    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            for trace in (False, True):
                results.append(run_workload(cf, name, args.seed, 0.0, trace, True, probes=1))
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    else:
        result = run_workload(cf, args.workload, args.seed, args.seconds, bool(args.trace), False, SETUP_PROBES)
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
