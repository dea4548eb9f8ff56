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
--keep DIR writes the outputs into DIR (new or empty) and the verify
stdout into DIR/verify.txt, and --compare OLD NEW says how far two such
directories differ, one line per changed column:

    PYTHONPATH=old/src python3 scripts/output_digests.py --keep outputs-old
    PYTHONPATH=new/src python3 scripts/output_digests.py --keep outputs-new
    python3 scripts/output_digests.py --compare outputs-old outputs-new

A column's line counts its changed cells, then gives the largest absolute,
relative (to the larger magnitude) and ulp differences among cells that are
finite numbers on both sides; nan and inf mismatches (one side nan or
infinite, the other not the same) and text mismatches are counted apart.
Footer lines are compared as text, key by key, and verify lines check by
check.  Where a file's row counts differ, its line says so and only its
footer is compared.  Identical directories print nothing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

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


def write_outputs(args, run: Path) -> int:
    """Run the command set in run and print the digest listing."""
    from parakahler.cli import main as cli_main

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
    if args.keep:
        (run / VERIFY).write_text(report.getvalue(), encoding="utf-8")
    lines.append(f"{digest(report.getvalue().encode())}  verify --suite {args.suite} (stdout)")
    print("\n".join(lines))
    return 0 if code == 0 else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

VERIFY = "verify.txt"
COLUMNS = ("changed", "max_abs", "max_rel", "max_ulp", "nan", "inf", "text")


def read_csv(path: Path):
    """(header, data rows as lists of cells, footer lines) of a CSV the CLI
    wrote: a header line, rows, then '# key=value' lines."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return header.split(","), rows, [line for line in lines if line.startswith("#")]


def ordinal(x: float) -> int:
    """The place of x among the doubles, so that adjacent doubles differ by
    1 and both zeros are 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def column_moves(old_cells, new_cells) -> dict:
    """The COLUMNS figures of one column's cells on two sides."""
    moves = dict.fromkeys(COLUMNS, 0)
    for a, b in zip(old_cells, new_cells):
        if a == b:
            continue
        x, y = number(a), number(b)
        moves["changed"] += 1
        if x is None or y is None:
            moves["text"] += 1
        elif math.isnan(x) or math.isnan(y):
            moves["nan"] += not (math.isnan(x) and math.isnan(y))
        elif math.isinf(x) or math.isinf(y):
            moves["inf"] += x != y
        else:
            diff = abs(x - y)
            moves["max_abs"] = max(moves["max_abs"], diff)
            if diff:
                moves["max_rel"] = max(moves["max_rel"], diff / max(abs(x), abs(y)))
            moves["max_ulp"] = max(moves["max_ulp"], abs(ordinal(x) - ordinal(y)))
    return moves


def footer_moves(name, old, new):
    """Lines for the footer keys whose text differs."""
    def keyed(lines):
        return dict(line[2:].split("=", 1) if "=" in line else (line, "") for line in lines)

    a, b = keyed(old), keyed(new)
    return [f"{name}  # {key}: {a.get(key, '(none)')} -> {b.get(key, '(none)')}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def file_moves(name, old: Path, new: Path):
    header, rows, footer = read_csv(old)
    header_b, rows_b, footer_b = read_csv(new)
    out = []
    if header != header_b:
        out.append(f"{name}  header: {','.join(header)} -> {','.join(header_b)}")
    elif len(rows) != len(rows_b):
        out.append(f"{name}  rows: {len(rows)} -> {len(rows_b)}; cells not compared")
    else:
        for k, column in enumerate(header):
            moves = column_moves([row[k] for row in rows], [row[k] for row in rows_b])
            if moves["changed"]:
                figures = "  ".join(f"{key}={moves[key]:.3g}" if isinstance(moves[key], float)
                                    else f"{key}={moves[key]}" for key in COLUMNS)
                out.append(f"{name}  {column}  {figures}")
    return out + footer_moves(name, footer, footer_b)


def verify_checks(path: Path) -> dict:
    """The verify lines of a kept stdout by (suite, check name, occurrence)."""
    checks, suite, seen = {}, "", {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("== "):
            suite = line[3:]
            continue
        name = line.split("] ", 1)[-1].split(": ", 1)[0]
        key = (suite, name, seen.get((suite, name), 0))
        seen[(suite, name)] = key[2] + 1
        checks[key] = line
    return checks


def compare(old: Path, new: Path) -> list:
    """The lines that say how far the kept directory new moved from old."""
    out = []
    names = sorted({p.relative_to(d).as_posix() for d in (old, new) for p in d.rglob("*.csv")})
    for name in names:
        if not (old / name).is_file() or not (new / name).is_file():
            out.append(f"{name}  only in {old if (old / name).is_file() else new}")
        else:
            out += file_moves(name, old / name, new / name)
    a, b = verify_checks(old / VERIFY), verify_checks(new / VERIFY)
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            out.append(f"verify {key[0]}: {a.get(key, '(none)')} -> {b.get(key, '(none)')}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=33, help="grid count (default 33)")
    ap.add_argument("--suite", default="all", help="verify suite (default all)")
    ap.add_argument("--keep", metavar="DIR", help="write the outputs into DIR, new or empty")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print how far two --keep directories differ")
    args = ap.parse_args()
    if args.compare:
        lines = compare(*map(Path, args.compare))
        if lines:
            print("\n".join(lines))
        return 1 if lines else 0
    if args.keep:
        run = Path(args.keep)
        run.mkdir(parents=True, exist_ok=True)
        if any(run.iterdir()):
            print(f"error: --keep directory {run} is not empty", file=sys.stderr)
            return 1
        return write_outputs(args, run)
    with tempfile.TemporaryDirectory() as tmp:
        return write_outputs(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
