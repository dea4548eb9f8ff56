#!/usr/bin/env python3
"""Min-of-N wall times of the layers of the whole-grid angle path.

On the gradient graph of a fixed cubic over [-0.5, 0.5]^2 at each grid
count, times each layer on the inputs the angle/curvature path gives it:
gram, induced_gram and normal_project (given the inverse Gram matrices) on
the tangent frames of every node, trace_mean_curvature on the first and
second derivatives of every node, require_lagrangian on the frames with
the jet margin, d_polar on det_D of every frame, then angle_field and
identity_grid (given the field) whole.  Each
figure is the best of --repeat runs, in milliseconds:

    PYTHONPATH=src python3 scripts/kernel_timings.py
    PYTHONPATH=src python3 scripts/kernel_timings.py --counts 33 --repeat 5
"""

import argparse
import sys
import time

from parakahler.dcore import d_polar
from parakahler.dlinalg import det_D, gram, inv_real, require_lagrangian
from parakahler.geometry import (GridAxis, grid_jet, induced_gram, normal_project,
                                 trace_mean_curvature)
from parakahler.lagrangian import angle_field, build_gradient_graph, identity_grid



def potential(x1, x2):
    """A cubic plus a quadratic, with a light-cone crossing on [-0.5, 0.5]^2."""
    return (0.4 * x1 ** 3 - 0.3 * x1 ** 2 * x2 + 0.2 * x1 * x2 ** 2 - 0.5 * x2 ** 3
            + 0.3 * x1 ** 2 - 0.2 * x1 * x2 + 0.25 * x2 ** 2)


def layers(count: int) -> dict:
    """The layer calls by name, each a function of no arguments."""
    imm = build_gradient_graph(tuple(GridAxis(-0.5, 0.5, count) for _ in range(2)),
                               u=potential)
    jt, valid = grid_jet(imm)
    first = jt.first
    g_inv = inv_real(*induced_gram(first))
    W = jt.second[..., 0, 0, :, :]
    dets = det_D(first)
    field = angle_field(imm)
    return {
        "gram": lambda: gram(first),
        "require_lagrangian": lambda: require_lagrangian(first[valid]),
        "induced_gram": lambda: induced_gram(first),
        "normal_project": lambda: normal_project(W, first, g_inv),
        "trace_mean_curvature": lambda: trace_mean_curvature(first, jt.second),
        "d_polar": lambda: d_polar(dets),
        "angle_field": lambda: angle_field(imm),
        "identity_grid": lambda: identity_grid(imm, field),
    }


def best_of(call, repeat: int) -> float:
    """The shortest of repeat timed calls, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--counts", type=int, nargs="+", default=[33, 65, 129],
                    help="nodes per grid axis (default 33 65 129)")
    ap.add_argument("--repeat", type=int, default=20, help="runs per figure (default 20)")
    args = ap.parse_args()
    table = {count: layers(count) for count in args.counts}
    names = list(next(iter(table.values())))
    print(f"{'layer (ms)':<22}" + "".join(f"{f'{c}^2':>10}" for c in args.counts))
    for name in names:
        times = [1e3 * best_of(table[c][name], args.repeat) for c in args.counts]
        print(f"{name:<22}" + "".join(f"{t:>10.3f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
