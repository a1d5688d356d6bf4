"""Selection-study benchmark for hfsem.

Run from the repository root:

    python3 perfbench/run.py --workload desk_true --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``desk_true`` and ``fine_grid``, which
``BENCHMARK.json`` lists, and ``desk_moment``, which it leaves out.  The package is imported from ``src/`` next to this
directory, as the test suite does; BLAS threads are left as the
environment sets them and recorded.

``--trace 0`` runs the workload's replications for ``--seconds`` with no
tracing (its only hook timestamps each replication's entry into the
simulator) and reports the end-to-end metrics.  ``--trace 1`` runs a fixed amount of work three
times -- once untraced, twice traced -- reports the per-layer metrics,
writes the span files under ``perfbench/out/``, and fails if the two
traced passes disagree on any count or selection.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts fits and output checks, ``failed`` the
fits that failed and the checks that did not hold.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_true", "desk_moment", "fine_grid")

# Import time is sampled once in this process and this many more times in
# fresh interpreters after the measured work, and the median is reported.
IMPORT_SAMPLES = 2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import hfsem; "
                "print(time.perf_counter() - t)")

# End-to-end metrics reported on every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "cpu_s_per_rep": "s",
    "peak_rss_mb": "MB",
    "converged_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def import_seconds(first: float) -> float:
    samples = [first]
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout))
    print("import seconds " + ", ".join(f"{t:.3f}" for t in samples))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out, import_s: float) -> dict:
    return {
        "setup_s": import_s + statistics.median(out.setups),
        "reps_per_s": out.reps / out.rep_wall,
        "cpu_s_per_rep": out.rep_cpu / out.reps,
        "peak_rss_mb": peak_rss_mb(),
        "converged_share": out.converged / out.fits,
    }


def traced(workload, name: str, seed: int, first_import_s: float, clock):
    """One untraced and two traced passes of the fixed work."""
    import layers
    from spans import Tracer

    outcomes, stats = [], []
    # Traced, untraced, traced: the untraced pass sits between the two
    # traced ones, so a drift in machine speed cancels in the overhead.
    for k, on in enumerate((True, False, True)):
        tracer = Tracer()
        t0 = time.perf_counter()
        with clock.installed(), tracer.installed(layers.targets() if on else []):
            outcome = workload.fixed(seed, clock)
        wall = time.perf_counter() - t0
        workload.verify(outcome)
        outcomes.append(outcome)
        if on:
            stats.append(layers.PassStats(tracer, wall))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace_{name}_seed{seed}_pass{k}.json",
                         wall, {"workload": name, "seed": seed, "pass": k})
            print(f"pass {k}: {len(tracer.spans)} spans, {wall:.2f} s, "
                  f"layer self time {stats[-1].covered / wall:.3f} of wall")
    untraced_rate = outcomes[1].reps / outcomes[1].rep_wall
    traced_rate = statistics.mean(o.reps / o.rep_wall
                                  for o in (outcomes[0], outcomes[2]))
    metrics = layers.layer_metrics(stats, import_seconds(first_import_s),
                                   untraced_rate / traced_rate - 1.0)

    mismatches = []
    for key in layers.REPEATED:
        a, b = stats[0].counts()[key], stats[1].counts()[key]
        if a != b:
            mismatches.append(f"{key}: {a} != {b}")
    for k in (0, 2):
        if outcomes[k].counts != outcomes[1].counts:
            mismatches.append(f"selection/output counts of pass {k} differ "
                              f"from the untraced pass")
    for text in mismatches:
        print(f"MISMATCH {text}")
    for k in (1, 2):
        for check_name, ok, detail in outcomes[k].checks:
            if not ok:
                outcomes[0].check(f"pass {k}: {check_name}", ok, detail)
    outcomes[0].check("counts repeat exactly", not mismatches,
                      "; ".join(mismatches) or "identical")
    return outcomes[0], metrics, layers.UNITS


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hfsem" / "__init__.py").is_file():
        print(f"error: no hfsem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hfsem  # noqa: F401
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, EntryClock

    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]
    clock = EntryClock()
    if args.trace:
        out, metrics, units = traced(workload, args.workload, args.seed,
                                     import_s, clock)
    else:
        with clock.installed():
            out = workload.timed(args.seed, args.seconds, clock)
        workload.verify(out)
        metrics, units = end_to_end(out, import_seconds(import_s)), END_TO_END

    print(f"workload {args.workload}: {out.reps} replications, "
          f"{out.fits} fits, {len(out.setups)} set-ups")
    for key in sorted(out.counts):
        print(f"  count {key}: {out.counts[key]}")
    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    shown = dict(metrics)
    if not args.trace:
        shown["fail_share"] = out.failed_fits / out.fits
        shown.update({k: v for k, (v, _) in out.quality.items()})
        units = {**units, "fail_share": "share",
                 **{k: u for k, (_, u) in out.quality.items()}}
    for key, value in shown.items():
        print(f"metric {key} = {value:.6g} {units[key]}")

    failed_checks = sum(not ok for _, ok, _ in out.checks)
    failed = out.failed_fits + failed_checks
    result = {
        "correct": failed == 0,
        "attempted": out.fits + len(out.checks),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in metrics},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result_{args.workload}_seed{args.seed}"
              f"_trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
