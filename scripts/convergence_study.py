#!/usr/bin/env python3
"""Richardson table for the curvature-angle identity residual.

For each catalog immersion, prints |m H - J grad(beta)| at the grid center
under successive halvings of h; second-order stencils give ratios near 4.
"""

import sys

from parakahler import equivariant
from parakahler.dcore import d_exp_tau
from parakahler.geometry import GridAxis
from parakahler.lagrangian import build_gradient_graph, identity_grid


def graph_case(count):
    imm = build_gradient_graph(
        tuple(GridAxis(-0.5, 0.5, count) for _ in range(2)),
        grad=[lambda x1, x2: 0.3 * x1 ** 2 + 0.05 * x2 ** 2,
              lambda x1, x2: 0.18 * x2 ** 2 + 0.1 * x1 * x2])
    return imm, (count // 2, count // 2)


def hyperbola_case(count):
    curve = equivariant.profile_from_function(
        lambda s: d_exp_tau(s), -1.0, 1.0, count)
    imm = equivariant.lift(curve, 2, ((count - 1) // 2,))
    return imm, (count // 2, (count - 1) // 8)


def main() -> int:
    cases = [("gradient graph (cubic potential)", graph_case),
             ("equivariant hyperbola lift", hyperbola_case)]
    for name, factory in cases:
        print(f"== {name}")
        counts = [33, 65, 129]
        res = []
        for c in counts:
            imm, node = factory(c)
            _, residual, _ = identity_grid(imm, None, [node])
            res.append(float(residual[0]))
            h = imm.axes[0].spacing
            line = f"  h = {h:.5f}  residual = {res[-1]:.3e}"
            if len(res) > 1:
                line += f"  ratio = {res[-2] / res[-1]:.2f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
