#!/usr/bin/env python3
"""Print one SHA-256 digest per output of a fixed set of CLI runs.

The set: graph at n = 2 and n = 3, angle on a torus spec and a soliton_lift
spec, equivariant --lift-out on the n = 2 circle and the n = 3 re-level
family, phase in both cases, soliton one- and two-way, normal-bundle, and
nijenhuis on the pullback and the 4-d twist, all written into a temporary
directory, then the stdout of verify.  Each line is `<sha256>  <output>`.
Two source trees whose listings agree wrote byte-identical files and verify
reports:

    PYTHONPATH=src python3 scripts/output_digests.py > after.txt
    diff before.txt after.txt

--count (the grid size) and --suite shrink the run for a quick check.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from parakahler.cli import main as cli_main

TWO_PI = 6.283185307179586


def specs(count: int) -> dict:
    """The angle command's spec documents by file name."""
    return {
        "torus.json": {
            "kind": "equivariant_explicit",
            "params": {"n": 2, "curve": "circle", "C": 1.3},
            "grid": {"axes": [
                {"min": 0.0, "max": TWO_PI, "count": count, "periodic": True},
                {"min": 0.0, "max": TWO_PI, "count": count // 2, "periodic": True}]},
        },
        "soliton_lift.json": {
            "kind": "soliton_lift",
            "params": {"n": 2, "lambda_prime": 1.0, "case": "lorentzian",
                       "r0": 1.2, "alpha0": 0.3},
            "grid": {"axes": [
                {"min": -0.5, "max": 0.5, "count": count + 8},
                {"min": 0.0, "max": TWO_PI, "count": 16, "periodic": True}]},
        },
    }


def commands(count: int, run: Path) -> list:
    """The CLI argument lists, reading and writing in the directory run."""
    half = (count + 1) // 2
    phase = ["--r-min", "0.5", "--r-max", "2.3", "--alpha-min", "-0.8",
             "--alpha-max", "0.8"]

    def at(name):
        return str(run / name)

    return [
        ["graph", "--u", "x1^3 - x1*x2^2/2", "--count", str(count), "--out", at("graph2.csv")],
        ["graph", "--n", "3", "--u", "x1*x2*x3 + x1^2/3", "--count", str(half),
         "--out", at("graph3.csv")],
        ["angle", "--spec", at("torus.json"), "--out", at("angle_torus.csv")],
        ["angle", "--spec", at("soliton_lift.json"), "--out", at("angle_soliton_lift.csv")],
        ["equivariant", "--family", "circle", "--C", "1.3", "--count", str(2 * count),
         "--out", at("circle.csv"), "--lift-out", at("circle_lift.csv")],
        ["equivariant", "--n", "3", "--family", "re", "--count", str(count),
         "--out", at("re3.csv"), "--lift-out", at("re3_lift.csv")],
        ["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian", *phase,
         "--out-dir", at("phase_lorentzian")],
        ["phase", "--n", "2", "--lambda-prime", "-1", "--case", "definite", *phase,
         "--out-dir", at("phase_definite")],
        ["soliton", "--n", "2", "--lambda-prime", "-1", "--case", "definite",
         "--r", "0.9", "--alpha", "0.4", "--out", at("soliton_one_way.csv")],
        ["soliton", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian", "--r", "1.2",
         "--alpha", "0.3", "--bidirectional", "--out", at("soliton_two_way.csv")],
        ["normal-bundle", "--shape", "circle", "--out", at("normal_bundle.csv")],
        ["nijenhuis", "--structure", "pullback", "--count", str(half), "--refine", "2",
         "--out", at("nijenhuis.csv")],
        ["nijenhuis", "--structure", "twist", "--count", "5", "--refine", "2",
         "--out", at("nijenhuis_twist.csv")],
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=33, help="grid count (default 33)")
    ap.add_argument("--suite", default="all", help="verify suite (default all)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name, doc in specs(args.count).items():
            (run / name).write_text(json.dumps(doc), encoding="utf-8")
        for argv in commands(args.count, run):
            code = cli_main(argv)
            if code != 0:
                print(f"error: {argv[0]} exited with {code}", file=sys.stderr)
                return 1
        lines = [f"{digest(path.read_bytes())}  {path.relative_to(run).as_posix()}"
                 for path in sorted(run.rglob("*.csv"))]
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli_main(["verify", "--suite", args.suite])
    lines.append(f"{digest(report.getvalue().encode())}  verify --suite {args.suite} (stdout)")
    print("\n".join(lines))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
