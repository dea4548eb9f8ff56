"""Command-line front end.

Subcommands: angle, graph, equivariant, soliton, phase, normal-bundle,
nijenhuis, verify.  Outputs are plot-ready CSV (UTF-8, LF, '.' decimal,
header row, 17 significant digits -> byte-identical reruns); run metadata
goes into '# key=value' footer lines.  Exit codes: 1 usage, 2 invalid spec,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import catalog, lagrangian
from .dcore import d_norm2
from .errors import ParakahlerError, SpecValidationError
from .lagrangian import angle_field, identity_grid

CSV_BLOCK_ROWS = 256  # rows per '%' in _write_csv: ~100 KB of text
# Largest starting count of the 4-d twist: --refine 3 then ends on 25^4 nodes
# of 4x4 doubles, ~50 MB of J-field.
TWIST_MAX_COUNT = 7


def _fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_csv(path, header, rows, footer=None):
    """Header, rows and '# key=value' footer lines.  Each column keeps the
    type of its first row: strings pass through, numbers print as _fmt does
    ('%.17g' % nan is 'nan'), so one format string serves every row, and
    one '%' formats a block of CSV_BLOCK_ROWS rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                fh.write((fmt * len(block)) % tuple(chain.from_iterable(block)))
        for key, value in (footer or {}).items():
            fh.write(f"# {key}={value}\n")


def _angle_rows(imm):
    """Per-node angle/curvature rows for an immersion."""
    field = angle_field(imm)
    H, residual, reasons = identity_grid(imm, field)
    m, n = imm.m, imm.n
    header = ([f"u{i + 1}" for i in range(m)]
              + [f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(n)]
              + ["theta", "q", "degenerate"]
              + [f"Hx{j + 1}" for j in range(n)] + [f"Hy{j + 1}" for j in range(n)]
              + ["residual"])
    coords = np.stack(np.meshgrid(*[a.nodes() for a in imm.axes], indexing="ij"), axis=-1)
    table = np.concatenate([
        coords, imm.values[..., 0], imm.values[..., 1],
        np.stack([field.theta, field.q, ~field.usable], axis=-1),
        H[..., 0], H[..., 1], residual[..., None],
    ], axis=-1)
    rows = table.reshape(-1, len(header)).tolist()
    footer = {
        "nondegenerate_regions": field.n_regions,
        "degenerate_nodes": int(field.degenerate.sum()),
        "max_theta_jump": _fmt(field.max_jump),
        **{reason: int(mask.sum()) for reason, mask in reasons.items()},
    }
    for summary in field.region_summary():
        footer[f"region_{summary['region']}"] = (
            f"nodes={summary['nodes']} q={summary['q']} "
            f"theta_range=[{_fmt(summary['theta_min'])},{_fmt(summary['theta_max'])}]")
    return header, rows, footer


def cmd_angle(args) -> int:
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if args.grid_count and isinstance(doc, dict):
        for axis in doc.get("grid", {}).get("axes", []):
            if isinstance(axis, dict):
                axis["count"] = args.grid_count
    imm, meta = catalog.build(doc)
    if meta["kind"] == "paracomplex_graph":
        # The graph of a para-holomorphic map has J-invariant tangent planes,
        # so it is not Lagrangian and has no angle.
        raise SpecValidationError("kind 'paracomplex_graph' has no Lagrangian angle: "
                                  "its tangent planes are J-invariant")
    header, rows, footer = _angle_rows(imm)
    footer["kind"] = meta["kind"]
    _write_csv(args.out, header, rows, footer)
    return 0


def cmd_graph(args) -> int:
    doc = {
        "kind": "gradient_graph",
        "params": {"u": args.u},
        "grid": {"axes": [{"min": args.lo, "max": args.hi, "count": args.count}
                          for _ in range(args.n)]},
    }
    imm, _ = catalog.build(doc)
    header, rows, footer = _angle_rows(imm)
    footer["potential"] = args.u
    _write_csv(args.out, header, rows, footer)
    return 0


def cmd_equivariant(args) -> int:
    from . import equivariant

    curve = equivariant.named_curve(args.family, args.n, args.C, args.phi_min,
                                    args.phi_max, args.count)
    norms = d_norm2(curve.gamma)
    rows = [[s, g[0], g[1], w] for s, g, w in zip(curve.s, curve.gamma, norms)]
    report = equivariant.lightcone_crossings(curve)
    footer = {
        "family": args.family,
        "C": _fmt(args.C),
        "n": args.n,
        "lightcone_crossings": report.count,
        "crossing_locations": ";".join(_fmt(s) for s in report.locations),
    }
    _write_csv(args.out, ["s", "x", "y", "squared_norm"], rows, footer)
    if args.lift_out:
        imm = equivariant.lift(curve, args.n)
        header, rows, lfooter = _angle_rows(imm)
        lfooter["family"] = args.family
        _write_csv(args.lift_out, header, rows, lfooter)
    return 0


def cmd_soliton(args) -> int:
    from . import solitons

    params = solitons.SolitonParams(args.n, args.lambda_prime, args.case)
    state = solitons.SolitonState(args.r, args.alpha, args.phi)
    integrate = (solitons.integrate_bidirectional if args.bidirectional
                 else solitons.integrate)
    traj = integrate(state, params, args.smax, rtol=args.rtol)
    tag = solitons.classify(traj)
    scale = max(abs(traj.E0), solitons.radial_weight(args.r, params))
    E = solitons.energy(traj.states, params)
    rows = np.column_stack([traj.s, traj.states, E, np.abs(E - traj.E0) / scale]).tolist()
    footer = {
        "classification": tag,
        "stop_reason": traj.stop_reason,
        "E0": _fmt(traj.E0),
        "max_E_drift": _fmt(traj.max_E_drift),
        "accepted": str(traj.accepted).lower(),
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "dropped_knots": traj.dropped_knots,
    }
    _write_csv(args.out, ["s", "r", "alpha", "phi", "E", "E_drift"], rows, footer)
    return 0


def cmd_phase(args) -> int:
    from . import solitons

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = solitons.SolitonParams(args.n, args.lambda_prime, args.case)
    starts = [(float(r0), float(a0), 0.0)
              for r0 in np.linspace(args.r_min, args.r_max, args.r_count)
              for a0 in np.linspace(args.alpha_min, args.alpha_max, args.alpha_count)]
    trajs = solitons.integrate_bidirectional_many(params, starts, args.smax,
                                                  rtol=args.rtol)
    index_rows = []
    for i, ((r0, a0, _), traj) in enumerate(zip(starts, trajs)):
        tag = solitons.classify(traj)
        name = f"traj_{i:04d}.csv"
        _write_csv(out_dir / name, ["s", "r", "alpha", "phi"],
                   np.column_stack([traj.s, traj.states]).tolist(),
                   {"classification": tag, "stop_reason": traj.stop_reason})
        index_rows.append([r0, a0, traj.E0, tag, traj.stop_reason,
                           _fmt(traj.max_E_drift), name])
    _write_csv(out_dir / "index.csv",
               ["r0", "alpha0", "E", "classification", "stop_reason", "max_E_drift",
                "file"], index_rows)
    return 0


def cmd_normal_bundle(args) -> int:
    if args.shape == "circle":
        spec = lagrangian.circle_normal_bundle(args.R, 32)
    elif args.shape == "catenoid":
        spec = lagrangian.catenoid_normal_bundle(1.0, 9)
    else:
        spec = lagrangian.flat_normal_bundle(2, 3)
    ts = np.linspace(args.t_min, args.t_max, args.t_count)
    ang = lagrangian.normal_bundle_angle(spec, ts)
    austere = lagrangian.is_austere(spec)
    shape = austere.shape
    index = np.meshgrid(*[np.arange(c) for c in shape], ts, indexing="ij")
    table = np.stack([*index, ang.q, ang.theta,
                      np.broadcast_to(austere[..., None], ang.q.shape)], axis=-1)
    rows = table.reshape(-1, len(shape) + 4).tolist()
    footer = {"shape": args.shape}
    null = int(np.sum(ang.q == -1))
    if null:  # a null volume has no polar form
        footer["nan_DegenerateMetric"] = null
    header = [f"i{k}" for k in range(len(shape))] + ["t", "q", "theta", "austere"]
    _write_csv(args.out, header, rows, footer)
    return 0


def cmd_nijenhuis(args) -> int:
    from .geometry import (
        GridAxis,
        curved_chart,
        jfield_from_function,
        nijenhuis,
        pullback_structure,
        standard_structure,
        twist_structure,
    )

    rows = []
    if args.structure == "twist":
        jfun, dims, span = twist_structure, 4, 0.3
        X, Y = np.eye(4)[2:]
        count = min(args.count, TWIST_MAX_COUNT)
    else:
        jfun = (standard_structure if args.structure == "standard"
                else pullback_structure(curved_chart))
        dims, span = 2, 0.4
        X, Y = np.eye(2)
        count = args.count
    footer = {"structure": args.structure, "count": count}
    if count != args.count:
        footer["requested_count"] = args.count
    norms = []
    for level in range(args.refine):
        axes = tuple(GridAxis(-span, span, count) for _ in range(dims))
        jf = jfield_from_function(axes, jfun)
        N, _ = nijenhuis(jf, X, Y, [((count - 1) // 2,) * dims])
        norm = float(np.max(np.abs(N)))
        rows.append([level, axes[0].spacing, norm])
        norms.append(norm)
        count = 2 * count - 1
    verdict = "obstructed"
    if norms[0] < 1e-9 or (len(norms) > 1 and norms[-1] < norms[0] / 2.5):
        verdict = "integrable"
    footer["verdict"] = verdict
    _write_csv(args.out, ["level", "h", "nijenhuis_norm"], rows, footer)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.list:
        for name, (desc, _) in verify.SUITES.items():
            print(f"{name}: {desc}")
        return 0
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in verify.SUITES:
            print(f"error: unknown suite {name!r}", file=sys.stderr)
            return 1
    ok = True
    for name in names:
        print(f"== {name}")
        for result in verify.run_suite(name):
            print(result.line())
            ok = ok and result.passed
    return 0 if ok else 3


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    p = _Parser(prog="parakahler",
                description="Split-complex Lagrangian geometry toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("angle", help="angle/curvature field of a spec immersion")
    a.add_argument("--spec", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--grid-count", type=int, default=None,
                   help="override every axis count of the spec grid")
    a.set_defaults(func=cmd_angle)

    g = sub.add_parser("graph", help="gradient-graph immersion from a potential")
    g.add_argument("--u", required=True, help="potential expression in x1..xn")
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--lo", type=float, default=-0.5)
    g.add_argument("--hi", type=float, default=0.5)
    g.add_argument("--count", type=int, default=33)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_graph)

    e = sub.add_parser("equivariant", help="profile level curves and lifts")
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--C", type=float, default=1.0)
    e.add_argument("--family", choices=["re", "im", "circle", "hyperbola", "cubic"],
                   default="re")
    e.add_argument("--phi-min", type=float, default=-2.0)
    e.add_argument("--phi-max", type=float, default=2.0)
    e.add_argument("--count", type=int, default=201)
    e.add_argument("--out", required=True)
    e.add_argument("--lift-out", default=None)
    e.set_defaults(func=cmd_equivariant)

    s = sub.add_parser("soliton", help="integrate one self-similar trajectory")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--lambda-prime", type=float, required=True)
    s.add_argument("--case", choices=["definite", "lorentzian"], required=True)
    s.add_argument("--r", type=float, required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--phi", type=float, default=0.0)
    s.add_argument("--smax", type=float, default=10.0)
    s.add_argument("--rtol", type=float, default=1e-12)
    s.add_argument("--bidirectional", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_soliton)

    ph = sub.add_parser("phase", help="sweep a grid of initial conditions")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--lambda-prime", type=float, required=True)
    ph.add_argument("--case", choices=["definite", "lorentzian"], required=True)
    ph.add_argument("--r-min", type=float, default=0.5)
    ph.add_argument("--r-max", type=float, default=2.5)
    ph.add_argument("--r-count", type=int, default=5)
    ph.add_argument("--alpha-min", type=float, default=-0.8)
    ph.add_argument("--alpha-max", type=float, default=0.8)
    ph.add_argument("--alpha-count", type=int, default=5)
    ph.add_argument("--smax", type=float, default=10.0)
    ph.add_argument("--rtol", type=float, default=1e-12)
    ph.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; no effect (the whole grid "
                         "is integrated in one batch)")
    ph.add_argument("--out-dir", required=True)
    ph.set_defaults(func=cmd_phase)

    nb = sub.add_parser("normal-bundle", help="normal-bundle angles of a base shape")
    nb.add_argument("--shape", choices=["circle", "catenoid", "plane"],
                    required=True)
    nb.add_argument("--R", type=float, default=2.0)
    nb.add_argument("--t-min", type=float, default=0.0)
    nb.add_argument("--t-max", type=float, default=0.4)
    nb.add_argument("--t-count", type=int, default=9)
    nb.add_argument("--out", required=True)
    nb.set_defaults(func=cmd_normal_bundle)

    nj = sub.add_parser("nijenhuis", help="integrability obstruction under refinement")
    nj.add_argument("--structure", choices=["standard", "pullback", "twist"],
                    required=True)
    nj.add_argument("--count", type=int, default=17)
    nj.add_argument("--refine", type=int, default=3)
    nj.add_argument("--out", required=True)
    nj.set_defaults(func=cmd_nijenhuis)

    v = sub.add_parser("verify", help="run named verification suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--list", action="store_true")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpecValidationError, json.JSONDecodeError, FileNotFoundError,
            OSError) as exc:
        print(f"error: invalid spec or file: {exc}", file=sys.stderr)
        return 2
    except ParakahlerError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
