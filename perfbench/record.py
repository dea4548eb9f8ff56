"""Run the benchmark over several seeds and record the figures as JSON.

    python3 perfbench/record.py --out perfbench/BENCH_<n>.json [--commit <id>]

From the root of a source checkout.  For each workload: ten untraced runs
with seeds 1..10 (median, quartiles and quartile spread as a share of the
median, per end-to-end metric; per run, the generated inputs, the pass-time
quartiles, pass count and high percentile, the set-up samples, and the pass
and set-up times as measured, before scaling to the reference host speed)
and one traced run with seed 1 (per-layer figures).  Also records the
machine and the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result object and its `detail:` line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return json.loads(lines[-1]), detail


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--commit", default=None, help="commit the figures belong to")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    import numpy
    import scipy
    record = {
        "commit": args.commit,
        "machine": {"platform": platform.platform(), "arch": platform.machine(),
                    "nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "run_seconds": seconds,
        "workloads": {},
    }
    for wl in bench["workloads"]:
        name = wl["name"]
        runs, details = [], []
        for seed in range(1, RUNS + 1):
            result, detail = run_once(name, seed, seconds, 0)
            runs.append(result)
            details.append(detail)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        traced, _ = run_once(name, 1, seconds, 1)
        record["workloads"][name] = {
            "why": wl["why"],
            "seeds": list(range(1, RUNS + 1)),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: {"unit": m["unit"], **summary(
                [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in bench["end_to_end"]},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": details,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, w in record["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.4g} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
