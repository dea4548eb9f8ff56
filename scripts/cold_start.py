#!/usr/bin/env python3
"""Cold-start seconds of the CLI: `import parakahler.cli` plus the first
catalog.build of a 65^2 gradient_graph spec, in fresh interpreters.

Prints the min and the median over --runs interpreters of two figures:

    no bytecode cache  a copy of src without __pycache__, each child run
                       with PYTHONDONTWRITEBYTECODE=1: every toolkit module
                       the import loads is compiled from source, as on a
                       host that sets the variable;
    bytecode cache     a second copy, whose cache one untimed child writes
                       with PYTHONDONTWRITEBYTECODE removed from that
                       child's environment only; the timed children read it.

Each child imports numpy first and times the package's share, from before
the import to after the build.  The runs of both figures, and of every tree
that --src names, alternate, so a drift in the host's speed reaches all of
them alike.  Per tree, the script also prints the parakahler modules the
children loaded with their source lines (as wc -l counts them), so that a
slower start names the module it compiles:

    python3 scripts/cold_start.py
    python3 scripts/cold_start.py --runs 41 --src ../parent/src src
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUNT = 65
FIGURES = ("no bytecode cache", "bytecode cache")
POTENTIAL = ("0.4*x1^3 - 0.3*x1^2*x2 + 0.2*x1*x2^2 - 0.5*x2^3"
             " + 0.3*x1^2 - 0.2*x1*x2 + 0.25*x2^2")
CHILD = """\
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from parakahler import cli
cli.catalog.build(json.loads(sys.argv[2]))
seconds = time.perf_counter() - start
modules = {name: m.__file__ for name, m in sys.modules.items() if name.startswith("parakahler")}
print(json.dumps({"seconds": seconds, "file": cli.__file__, "modules": modules}))
"""


def spec() -> dict:
    axis = {"min": -0.5, "max": 0.5, "count": COUNT}
    return {"kind": "gradient_graph", "params": {"u": POTENTIAL},
            "grid": {"axes": [dict(axis), dict(axis)]}}


def run_child(src: Path, env: dict, cwd: Path) -> dict:
    """What one fresh interpreter reports, importing parakahler from src:
    its seconds, and the file of each parakahler module it loaded."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(spec())],
                          capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["file"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {result['file']}, not a module under {src}")
    return result


def source_lines(path) -> int:
    return Path(path).read_bytes().count(b"\n")


def cold_start(srcs: list, runs: int) -> tuple[list, list]:
    """Per tree of srcs, {figure: seconds of each run}, and {module: source
    lines} of the parakahler modules its children loaded."""
    no_write = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    write = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        tmp = Path(tmp)
        copies = []  # per tree: {figure: a copy of its package}
        for i, src in enumerate(srcs):
            copies.append({figure: tmp / f"{i}-{j}" for j, figure in enumerate(FIGURES)})
            for copy in copies[-1].values():
                shutil.copytree(src / "parakahler", copy / "parakahler",
                                ignore=shutil.ignore_patterns("__pycache__"))
            cached = copies[-1]["bytecode cache"]
            run_child(cached, write, tmp)
            if not (cached / "parakahler" / "__pycache__").is_dir():
                raise RuntimeError("the warming run wrote no bytecode cache")
        times = [{figure: [] for figure in FIGURES} for _ in srcs]
        loaded = [{} for _ in srcs]
        for _ in range(runs):
            for tree, modules, copy in zip(times, loaded, copies):
                for figure in FIGURES:
                    result = run_child(copy[figure], no_write, tmp)
                    tree[figure].append(result["seconds"])
                    modules.update((name, source_lines(path))
                                   for name, path in result["modules"].items())
        if any((copy["no bytecode cache"] / "parakahler" / "__pycache__").exists()
               for copy in copies):
            raise RuntimeError("a run without a cache wrote one")
    return times, loaded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=21, help="fresh interpreters per figure")
    parser.add_argument("--src", type=Path, nargs="+", default=[SRC],
                        help="directories that hold a parakahler package")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(f"import parakahler.cli + first catalog.build ({COUNT}^2 gradient_graph), "
          f"{args.runs} fresh interpreters each")
    for src, times, modules in zip(args.src, *cold_start(args.src, args.runs)):
        print(f"{src}:")
        for name, seconds in times.items():
            print(f"  {name:<18}  min {min(seconds):.4f} s  "
                  f"median {statistics.median(seconds):.4f} s")
        print(f"  loaded {len(modules)} modules, {sum(modules.values())} lines: "
              + " ".join(f"{name.removeprefix('parakahler.')} {lines}"
                         for name, lines in sorted(modules.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
