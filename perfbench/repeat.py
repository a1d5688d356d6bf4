"""Run the benchmark once per seed and summarize each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/out/repeat.json

Every workload in ``BENCHMARK.json`` (or those named with ``--workload``)
runs with each seed for ``run_seconds``.  For each metric the summary
gives the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread ``(q3 - q1) / median``; for end-to-end metrics it also
gives the bound and whether the spread is below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(command: list, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        row = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
               "q1": q1, "q3": q3,
               "spread": (q3 - q1) / median if median else None,
               "values": values}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = (row["spread"] is not None
                             and row["spread"] < bounds[name] / 3)
        out[name] = row
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = ({m["name"]: m["bound"] for m in spec["end_to_end"]}
              if args.trace == 0 else {})
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(spec["command"], workload, seed,
                                 spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s, "
                  f"correct={runs[-1]['correct']}", flush=True)
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs],
            "metrics": summary}
        for name, row in summary.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            bound = (f"  bound {row['bound']} steady={row['steady']}"
                     if "bound" in row else "")
            print(f"  {name:30s} median {row['median']:.6g} {row['unit']}"
                  f"  spread {spread}{bound}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
