#!/usr/bin/env python3
"""What one CLI run costs in a fresh interpreter: `cli.main` on `graph` at
each --counts grid and on `verify --suite`, one call per interpreter.

The benchmark's figure is the median of many passes in one process, which
hides what a single run pays once: the first use of each code path, and
the pages the allocator asks the kernel for.  Each child here imports
parakahler.cli, then times one `cli.main` call and counts the minor page
faults it takes (getrusage's ru_minflt before and after the call).  Per
tree and command, the script prints the median over --runs children of
the seconds, the faults and the child's peak resident set (ru_maxrss,
numpy's import included).  The runs of every tree that --src names
alternate, so a drift in the host's speed reaches all of them alike:

    python3 scripts/command_costs.py
    python3 scripts/command_costs.py --runs 11 --src ../parent/src src
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
POTENTIAL = ("0.4*x1^3 - 0.3*x1^2*x2 + 0.2*x1*x2^2 - 0.5*x2^3"
             " + 0.3*x1^2 - 0.2*x1*x2 + 0.25*x2^2")
CHILD = """\
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from parakahler import cli
argv = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"code": code, "seconds": seconds, "faults": usage.ru_minflt - faults,
                  "peak_kb": usage.ru_maxrss, "file": cli.__file__}))
"""


def commands(counts, suite) -> dict:
    """{label: argv} of the runs to cost."""
    runs = {f"graph {count}^2": ["graph", "--u", POTENTIAL, "--count", str(count),
                                 "--out", "g.csv"] for count in counts}
    runs[f"verify --suite {suite}"] = ["verify", "--suite", suite]
    return runs


def run_child(src: Path, argv: list, cwd: Path) -> dict:
    """One fresh interpreter's cli.main(argv), importing parakahler from
    src: its exit code, seconds, minor faults and peak RSS in kB."""
    src = src.resolve()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argv)],
                          capture_output=True, text=True, timeout=600, cwd=cwd, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["file"]).resolve().is_relative_to(src):
        raise RuntimeError(f"imported {result['file']}, not a module under {src}")
    if result["code"] != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {result['code']} under {src}")
    return result


def command_costs(srcs: list, runs: dict, count: int) -> list:
    """Per tree of srcs, {label: the child results of each of count runs}."""
    results = [{label: [] for label in runs} for _ in srcs]
    with tempfile.TemporaryDirectory(prefix="command_costs_") as tmp:
        for _ in range(count):
            for label, argv in runs.items():
                for src, tree in zip(srcs, results):
                    tree[label].append(run_child(src, argv, Path(tmp)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=7, help="fresh interpreters per command")
    parser.add_argument("--counts", type=int, nargs="+", default=[65, 257],
                        help="grid counts per axis of the graph runs")
    parser.add_argument("--suite", default="all", help="the verify suite to run")
    parser.add_argument("--src", type=Path, nargs="+", default=[SRC],
                        help="directories that hold a parakahler package")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = commands(args.counts, args.suite)
    width = max(map(len, runs))
    print(f"one cli.main call per fresh interpreter, median of {args.runs}: "
          "seconds, minor page faults, peak RSS")
    for src, tree in zip(args.src, command_costs(args.src, runs, args.runs)):
        print(f"{src}:")
        for label, results in tree.items():
            seconds, faults, peak_kb = (statistics.median(r[key] for r in results)
                                        for key in ("seconds", "faults", "peak_kb"))
            print(f"  {label:<{width}}  {seconds:.4f} s  {faults:>8.0f} faults  "
                  f"{peak_kb / 1024:6.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
