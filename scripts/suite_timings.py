#!/usr/bin/env python3
"""In-process seconds of the nine point-query verify suites (every suite
but soliton-ode), per suite and in total, for one or more source trees.

Each round starts one fresh interpreter per tree, which imports parakahler
from that tree, sets the allocator policy that the CLI sets at entry
(cli.keep_freed_memory, where the tree has it: a tree without it runs with
the host's policy), runs every suite once untimed and then --passes timed
passes of the nine, one suite after another.  So the passes run in the
memory regime of a `verify` command or a benchmark pass, not re-faulting
the pages the allocator would trim between suites.  The trees alternate which
goes first from round to round, so a drift in the host's speed reaches
them alike.  Per tree the script prints each suite's median over all timed
passes and the total of those medians; with two or more trees it also
prints, per later tree, in how many rounds its total (the sum of that
round's per-suite medians) beat the first tree's:

    python3 scripts/suite_timings.py
    python3 scripts/suite_timings.py --rounds 10 --src ../parent/src src
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUITES = ("algebra", "gram-lemma", "main-theorem", "constant-angle-graphs",
          "paracomplex-minimal", "null-product", "equivariant-level",
          "normal-bundle", "nijenhuis")
CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from parakahler import cli, verify
getattr(cli, "keep_freed_memory", lambda: None)()
suites, passes = json.loads(sys.argv[2]), int(sys.argv[3])
for name in suites:
    verify.run_suite(name)
seconds = {name: [] for name in suites}
for _ in range(passes):
    for name in suites:
        start = time.perf_counter()
        checks = verify.run_suite(name)
        seconds[name].append(time.perf_counter() - start)
        if not all(c.passed for c in checks):
            raise SystemExit(f"suite {name} failed")
print(json.dumps({"file": verify.__file__, "seconds": seconds}))
"""


def run_child(src: Path, passes: int) -> dict:
    """{suite: seconds of each timed pass} from one fresh interpreter that
    imports parakahler from src."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(SUITES),
                           str(passes)], capture_output=True, text=True, timeout=600,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["file"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {result['file']}, not a module under {src}")
    return result["seconds"]


def suite_timings(srcs: list, rounds: int, passes: int) -> list:
    """Per tree, per round, {suite: seconds of each timed pass}."""
    runs = [[] for _ in srcs]
    for r in range(rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            runs[i].append(run_child(srcs[i], passes))
    return runs


def total(seconds: dict) -> float:
    """The sum over suites of each suite's median."""
    return sum(statistics.median(s) for s in seconds.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5, help="fresh interpreters per tree")
    parser.add_argument("--passes", type=int, default=5, help="timed passes per interpreter")
    parser.add_argument("--src", type=Path, nargs="+", default=[SRC],
                        help="directories that hold a parakahler package")
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    runs = suite_timings(args.src, args.rounds, args.passes)
    print(f"nine verify suites in-process, {args.rounds} rounds x {args.passes} passes "
          f"per tree; median ms")
    for src, tree in zip(args.src, runs):
        pooled = {name: [t for run in tree for t in run[name]] for name in SUITES}
        print(f"{src}:")
        for name, seconds in pooled.items():
            print(f"  {name:<24} {statistics.median(seconds) * 1e3:8.2f}")
        print(f"  {'total':<24} {total(pooled) * 1e3:8.2f}")
    for src, tree in zip(args.src[1:], runs[1:]):
        wins = sum(total(b) < total(a) for a, b in zip(runs[0], tree))
        print(f"{src} beat {args.src[0]} in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
