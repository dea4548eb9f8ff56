#!/usr/bin/env python3
"""Angle field of the equivariant torus (the closed n = 2 circle family).

The profile circle crosses the light cone four times, so the lifted torus
carries four closed null lines; between them the angle is constant and the
metric indefinite.  Writes the per-node angle/curvature CSV.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from parakahler.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--C", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=64)
    ap.add_argument("--out", default="out/torus_angle.csv")
    args = ap.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    spec = {
        "kind": "equivariant_explicit",
        "params": {"n": 2, "curve": "circle", "C": args.C},
        "grid": {"axes": [
            {"min": 0.0, "max": 6.283185307179586, "count": args.count,
             "periodic": True},
            {"min": 0.0, "max": 6.283185307179586, "count": args.count // 2,
             "periodic": True},
        ]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "torus.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        return cli_main(["angle", "--spec", str(spec_path), "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
