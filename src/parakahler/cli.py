"""Command-line front end.

Subcommands: angle, graph, equivariant, soliton, phase, normal-bundle,
nijenhuis, verify.  The code of the last five is in subcommands, imported
on the first call of one of them.  Outputs are plot-ready CSV (UTF-8, LF,
'.' decimal, header row, 17 significant digits -> byte-identical reruns);
run metadata goes into '# key=value' footer lines.  Exit codes: 1 usage,
2 invalid spec, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .dcore import d_norm2
from .errors import ParakahlerError, SpecValidationError
from .geometry import MIN_AXIS_COUNT, grid_jet
from .lagrangian import angle_field, identity_grid

# glibc's malloc serves a block above its mmap threshold from a fresh
# mapping and hands freed heap above its trim threshold back to the kernel,
# so each pass of a run faults in again the pages it freed moments earlier.
# main raises both thresholds once per process: 32 MiB is glibc's own
# ceiling for its dynamic mmap threshold on 64-bit hosts
# (DEFAULT_MMAP_THRESHOLD_MAX), and the trim threshold is twice that, as
# glibc's dynamic rule would set it.  Importing the package changes nothing.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers (malloc.h)
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _mallopt():
    """The C library's mallopt, or None where it has none (as on macOS)."""
    import ctypes  # numpy has loaded it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


@functools.cache
def keep_freed_memory() -> bool:
    """Raise the allocator's mmap and trim thresholds, once per process;
    False, changing nothing, where there is no mallopt."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return True


def _fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    """Also every subcommand's parser: options are never abbreviated (--out
    is not --out-dir), and usage errors exit 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than minimum."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _csv_rows(rows):
    """The CSV text of rows, in blocks of bytes: rows is a float array
    (rows, columns) or a sequence of rows.  Numbers print as '%.17g' % v:
    csvformat.encode writes a table of numbers a block at a time, and a
    table whose first row holds a string is written cell by cell, strings
    passing through and numbers through _fmt."""
    if len(rows) == 0:
        return []
    if any(isinstance(v, str) for v in rows[0]):
        return ["".join(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
                        for row in rows).encode()]
    from . import csvformat

    return csvformat.encode(np.asarray(rows, dtype=float))


def _write_text(path, header, blocks, footer=None):
    """Header, the blocks of CSV text of the rows and '# key=value' footer
    lines."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)
        fh.write("".join(f"# {key}={value}\n" for key, value in (footer or {}).items()).encode())


def _write_csv(path, header, rows, footer=None):
    """Header, rows (see _csv_rows) and '# key=value' footer lines."""
    _write_text(path, header, _csv_rows(rows), footer)


def _angle_rows(imm):
    """Per-node angle/curvature rows for an immersion."""
    jet = grid_jet(imm)  # one whole-grid differencing for both
    field = angle_field(imm, jet)
    H, residual, reasons = identity_grid(imm, field, jet=jet)
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
    rows = table.reshape(-1, len(header))
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
    if args.grid_count is not None and isinstance(doc, dict):
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
    rows = np.column_stack([curve.s, curve.gamma, norms])
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


def _in_subcommands(args) -> int:
    """Run args.command from subcommands, imported on the first such call:
    the angle commands never load it."""
    from . import subcommands

    return subcommands.COMMANDS[args.command](args)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    p = _Parser(prog="parakahler",
                description="Split-complex Lagrangian geometry toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("angle", help="angle/curvature field of a spec immersion")
    a.add_argument("--spec", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--grid-count", type=_int_at_least(MIN_AXIS_COUNT), default=None,
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
    e.add_argument("--count", type=_int_at_least(2), default=201,
                   help=f"profile samples; --lift-out needs {MIN_AXIS_COUNT}")
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
    s.set_defaults(func=_in_subcommands)

    ph = sub.add_parser("phase", help="sweep a grid of initial conditions")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--lambda-prime", type=float, required=True)
    ph.add_argument("--case", choices=["definite", "lorentzian"], required=True)
    ph.add_argument("--r-min", type=float, default=0.5)
    ph.add_argument("--r-max", type=float, default=2.5)
    ph.add_argument("--r-count", type=_int_at_least(1), default=5)
    ph.add_argument("--alpha-min", type=float, default=-0.8)
    ph.add_argument("--alpha-max", type=float, default=0.8)
    ph.add_argument("--alpha-count", type=_int_at_least(1), default=5)
    ph.add_argument("--smax", type=float, default=10.0)
    ph.add_argument("--rtol", type=float, default=1e-12)
    ph.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; no effect (the whole grid "
                         "is integrated in one batch)")
    ph.add_argument("--out-dir", required=True)
    ph.set_defaults(func=_in_subcommands)

    nb = sub.add_parser("normal-bundle", help="normal-bundle angles of a base shape")
    nb.add_argument("--shape", choices=["circle", "catenoid", "plane"],
                    required=True)
    nb.add_argument("--R", type=float, default=2.0)
    nb.add_argument("--t-min", type=float, default=0.0)
    nb.add_argument("--t-max", type=float, default=0.4)
    nb.add_argument("--t-count", type=_int_at_least(1), default=9)
    nb.add_argument("--out", required=True)
    nb.set_defaults(func=_in_subcommands)

    nj = sub.add_parser("nijenhuis", help="integrability obstruction under refinement")
    nj.add_argument("--structure", choices=["standard", "pullback", "twist"],
                    required=True)
    nj.add_argument("--count", type=_int_at_least(MIN_AXIS_COUNT), default=17)
    nj.add_argument("--refine", type=_int_at_least(1), default=3)
    nj.add_argument("--out", required=True)
    nj.set_defaults(func=_in_subcommands)

    v = sub.add_parser("verify", help="run named verification suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--list", action="store_true")
    v.set_defaults(func=_in_subcommands)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the lift samples the profile on a grid axis
        if getattr(args, "lift_out", None) and args.count < MIN_AXIS_COUNT:
            parser.error(f"argument --count: --lift-out needs at least "
                         f"{MIN_AXIS_COUNT}, got {args.count}")
        if args.command == "equivariant" and not args.phi_max > args.phi_min:  # nan fails too
            parser.error(f"argument --phi-max: needs --phi-max > --phi-min, "
                         f"got {args.phi_min!r} to {args.phi_max!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    keep_freed_memory()
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
