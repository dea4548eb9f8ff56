#!/usr/bin/env python3
"""Sweep the Lorentzian (r, alpha) phase plane and write one CSV per orbit.

Produces the raw material for the phase portrait around the critical point
(sqrt(n/l'), 0): subcritical orbits on both sides, the supercritical band,
and the stationary point itself.  Plot externally, e.g.

    python3 scripts/phase_portrait.py --out-dir out/phase
    # then plot r vs alpha per trajectory from out/phase/traj_*.csv
"""

import argparse
import sys

from parakahler.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--lambda-prime", type=float, default=1.0)
    ap.add_argument("--out-dir", default="out/phase")
    args = ap.parse_args()
    return cli_main([
        "phase", "--n", str(args.n), "--lambda-prime", str(args.lambda_prime),
        "--case", "lorentzian", "--r-min", "0.4", "--r-max", "2.6",
        "--r-count", "8", "--alpha-min", "-1.0", "--alpha-max", "1.0",
        "--alpha-count", "7", "--smax", "10", "--out-dir", args.out_dir,
    ])


if __name__ == "__main__":
    sys.exit(main())
