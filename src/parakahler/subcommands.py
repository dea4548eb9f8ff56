"""The commands whose code the angle commands never run: soliton, phase,
normal-bundle, nijenhuis and verify.  cli imports this module on the
first call of one of them, and each command imports the engine it needs
inside its body; the CSV writers are cli's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .cli import _csv_rows, _fmt, _write_csv, _write_text


def cmd_soliton(args) -> int:
    from . import solitons

    params = solitons.SolitonParams(args.n, args.lambda_prime, args.case)
    start = [(args.r, args.alpha, args.phi)]
    if args.bidirectional:
        traj, = solitons.integrate_bidirectional_many(params, start, args.smax,
                                                      rtol=args.rtol)
    else:
        traj, = solitons.integrate_many(params, start, 1, args.smax, rtol=args.rtol)
    tag = solitons.classify(traj)
    scale = max(abs(traj.E0), solitons.radial_weight(args.r, params))
    rows = np.column_stack([traj.s, traj.states, traj.E, np.abs(traj.E - traj.E0) / scale])
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
    # one text for every trajectory, cut into files where its rows start
    tables = [np.column_stack([t.s, t.states]) for t in trajs]
    text = b"".join(_csv_rows(np.concatenate(tables)))
    row_starts = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n")) + 1
    cuts = np.insert(row_starts, 0, 0)[np.cumsum([0] + [len(t) for t in tables])].tolist()
    index_rows = []
    for i, ((r0, a0, _), traj) in enumerate(zip(starts, trajs)):
        tag = solitons.classify(traj)
        name = f"traj_{i:04d}.csv"
        _write_text(out_dir / name, ["s", "r", "alpha", "phi"], [text[cuts[i]:cuts[i + 1]]],
                    {"classification": tag, "stop_reason": traj.stop_reason})
        index_rows.append([r0, a0, traj.E0, tag, traj.stop_reason,
                           _fmt(traj.max_E_drift), name])
    _write_csv(out_dir / "index.csv",
               ["r0", "alpha0", "E", "classification", "stop_reason", "max_E_drift",
                "file"], index_rows)
    return 0


def cmd_normal_bundle(args) -> int:
    from . import normalbundle

    if args.shape == "circle":
        spec = normalbundle.circle_normal_bundle(args.R, 32)
    elif args.shape == "catenoid":
        spec = normalbundle.catenoid_normal_bundle(1.0, 9)
    else:
        spec = normalbundle.flat_normal_bundle(2, 3)
    ts = np.linspace(args.t_min, args.t_max, args.t_count)
    ang = normalbundle.normal_bundle_angle(spec, ts)
    austere = normalbundle.is_austere(spec)
    shape = austere.shape
    index = np.meshgrid(*[np.arange(c) for c in shape], ts, indexing="ij")
    table = np.stack([*index, ang.q, ang.theta,
                      np.broadcast_to(austere[..., None], ang.q.shape)], axis=-1)
    rows = table.reshape(-1, len(shape) + 4)
    footer = {"shape": args.shape}
    null = int(np.sum(ang.q == -1))
    if null:  # a null volume has no polar form
        footer["nan_DegenerateMetric"] = null
    header = [f"i{k}" for k in range(len(shape))] + ["t", "q", "theta", "austere"]
    _write_csv(args.out, header, rows, footer)
    return 0


def cmd_nijenhuis(args) -> int:
    from .geometry import GridAxis
    from .structures import (
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
    else:
        jfun = (standard_structure if args.structure == "standard"
                else pullback_structure(curved_chart))
        dims, span = 2, 0.4
        X, Y = np.eye(2)
    count = args.count
    footer = {"structure": args.structure, "count": count}
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


# the function of each command name; cli's dispatcher looks args.command up here
COMMANDS = {
    "soliton": cmd_soliton,
    "phase": cmd_phase,
    "normal-bundle": cmd_normal_bundle,
    "nijenhuis": cmd_nijenhuis,
    "verify": cmd_verify,
}
