#!/usr/bin/env python3
"""In-process seconds of both halves of the benchmark's `phase_verify`
pass: the two `phase` sweeps and the nine point-query verify suites (every
suite but soliton-ode), per part and in total, for one or more source
trees.

The sweeps are the benchmark's at seed 61 (n = 2, 5 x 5 starts, l' = +1
Lorentzian and l' = -1 definite), run through cli.main into a fresh
temporary directory per pass; the suites run through verify.run_suite.
Each round starts one fresh interpreter per tree, which imports parakahler
from that tree, sets the allocator policy that the CLI sets at entry
(cli.keep_freed_memory, where the tree has it: a tree without it runs with
the host's policy), runs the sweeps and every suite once untimed and then
--passes timed passes: the sweeps, then the nine suites one after another.
So the passes run in the memory regime of a `verify` command or a
benchmark pass, not re-faulting the pages the allocator would trim between
parts.  The trees alternate which goes first from round to round, so a
drift in the host's speed reaches them alike.  Per tree the script prints
each part's median over all timed passes, the total of the nine suites'
medians and the total of all; with two or more trees it also prints, per
later tree, in how many rounds its total (the sum of that round's
per-part medians) beat the first tree's.  --checks wraps verify._check in
the children, so that the suites' times then include the wrapper, and also
prints, per tree, each check's median: the time from its suite's start, or
from the previous check's verify._check call, to its own _check call:

    python3 scripts/suite_timings.py
    python3 scripts/suite_timings.py --rounds 10 --src ../parent/src src
    python3 scripts/suite_timings.py --checks --src ../parent/src src
"""

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUITES = ("algebra", "gram-lemma", "main-theorem", "constant-angle-graphs",
          "paracomplex-minimal", "null-product", "equivariant-level",
          "normal-bundle", "nijenhuis")
PHASE = "phase sweeps"
CHILD = """\
import contextlib, io, json, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from parakahler import cli, verify
getattr(cli, "keep_freed_memory", lambda: None)()
suites, passes, sweeps = json.loads(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
label, timed = sys.argv[5], sys.argv[6] == "checks"


def phase():
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for i, argv in enumerate(sweeps):
            if cli.main(argv + ["--out-dir", f"{out}/{i}"]) != 0:
                raise SystemExit(f"phase {argv} failed")
        return time.perf_counter() - start


# with --checks, each _check call's time since the suite's start or the
# previous call
check, marks = verify._check, []


def timed_check(name, passed, detail):
    marks.append((name, time.perf_counter()))
    return check(name, passed, detail)


if timed:
    verify._check = timed_check
phase()
for name in suites:
    verify.run_suite(name)
seconds = {name: [] for name in [label] + suites}
checks = {}
for _ in range(passes):
    seconds[label].append(phase())
    for name in suites:
        marks.clear()
        start = time.perf_counter()
        results = verify.run_suite(name)
        seconds[name].append(time.perf_counter() - start)
        if not all(c.passed for c in results):
            raise SystemExit(f"suite {name} failed")
        for (check_name, t), (_, before) in zip(marks, [(None, start)] + marks):
            checks.setdefault(f"{name}: {check_name}", []).append(t - before)
print(json.dumps({"file": verify.__file__, "seconds": seconds, "checks": checks}))
"""


def phase_argvs(seed: int = 61) -> list:
    """The argvs, less --out-dir, of the benchmark's two phase sweeps at
    seed, drawn as perfbench/workloads.py's PhaseSweep draws them: r over
    sqrt(2) +- U(0.85, 0.95), alpha over +-U(0.75, 0.85)."""
    rng = random.Random(seed)
    half, a = 0.9 + rng.uniform(-0.05, 0.05), 0.8 + rng.uniform(-0.05, 0.05)
    r0 = math.sqrt(2.0)
    return [["phase", "--n", "2", "--lambda-prime", repr(lam), "--case", case,
             "--r-min", repr(r0 - half), "--r-max", repr(r0 + half), "--r-count", "5",
             "--alpha-min", repr(-a), "--alpha-max", repr(a), "--alpha-count", "5",
             "--jobs", "1"] for case, lam in (("lorentzian", 1.0), ("definite", -1.0))]


def run_child(src: Path, passes: int, checks: bool = False) -> dict:
    """{"seconds": {part: seconds of each timed pass}, "checks": {"suite:
    check": seconds of each timed pass}, empty unless checks} from one fresh
    interpreter that imports parakahler from src."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(SUITES),
                           str(passes), json.dumps(phase_argvs()), PHASE,
                           "checks" if checks else "suites"],
                          capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["file"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {result['file']}, not a module under {src}")
    return result


def suite_timings(srcs: list, rounds: int, passes: int, checks: bool = False) -> list:
    """Per tree, per round, run_child's timings."""
    runs = [[] for _ in srcs]
    for r in range(rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            runs[i].append(run_child(srcs[i], passes, checks))
    return runs


def total(seconds: dict) -> float:
    """The sum over parts of each part's median."""
    return sum(statistics.median(s) for s in seconds.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="fresh interpreters per tree")
    parser.add_argument("--passes", type=int, default=5, help="timed passes per interpreter")
    parser.add_argument("--src", type=Path, nargs="+", default=[SRC],
                        help="directories that hold a parakahler package")
    parser.add_argument("--checks", action="store_true",
                        help="also print each check's median, per tree")
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    runs = suite_timings(args.src, args.rounds, args.passes, args.checks)
    print(f"phase sweeps and nine verify suites in-process, {args.rounds} rounds x "
          f"{args.passes} passes per tree; median ms")
    for src, tree in zip(args.src, runs):
        pooled = {name: [t for run in tree for t in run["seconds"][name]]
                  for name in (PHASE,) + SUITES}
        print(f"{src}:")
        for name, seconds in pooled.items():
            print(f"  {name:<24} {statistics.median(seconds) * 1e3:8.2f}")
        suites = {name: pooled[name] for name in SUITES}
        print(f"  {'suites':<24} {total(suites) * 1e3:8.2f}")
        print(f"  {'total':<24} {total(pooled) * 1e3:8.2f}")
        if args.checks:
            for name in tree[0]["checks"]:
                seconds = [t for run in tree for t in run["checks"][name]]
                print(f"    {name:<88} {statistics.median(seconds) * 1e3:8.3f}")
    for src, tree in zip(args.src[1:], runs[1:]):
        wins = sum(total(b["seconds"]) < total(a["seconds"]) for a, b in zip(runs[0], tree))
        print(f"{src} beat {args.src[0]} in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
