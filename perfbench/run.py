"""Benchmark of the parakahler toolkit.

    python3 perfbench/run.py --workload <angle_grid|phase_verify>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Generates the workload's inputs from
the seed, runs the passes that fit in --seconds (at least three), checks
every pass's outputs and prints one line per metric, a `detail:` line (JSON:
inputs, pass-time quartiles, setup samples), then a JSON object as the last
line.  With --trace 0 it reports the end-to-end metrics, with the times
taken at the reference host speed (hostspeed.py), and times one fresh
interpreter's set-up before every pass; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics, and writes
the traced spans under .perfbench/traces/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics before numpy is imported: the host has 2 cores
# and the benchmark measures one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_PASSES = 3        # untraced passes per run with --trace 0
MIN_TRACE_PASSES = 2  # untraced and traced passes each with --trace 1

# (module, function, label, timed, result hook): the boundaries the traced
# run wraps.  Untimed ones only count calls.
TARGETS = [
    ("parakahler.catalog", "build", "catalog.build", True, None),
    ("parakahler.geometry", "jet", "geometry.jet", False, None),
    ("parakahler.geometry", "mean_curvature", "geometry.mean_curvature", True, None),
    ("parakahler.geometry", "signed_gram_schmidt", "geometry.signed_gram_schmidt",
     True, None),
    ("parakahler.geometry", "jfield_from_function", "geometry.jfield_from_function",
     True, None),
    ("parakahler.lagrangian", "angle_field", "lagrangian.angle_field", True, None),
    ("parakahler.lagrangian", "angle_identity_residual",
     "lagrangian.angle_identity_residual", True, None),
    ("parakahler.dlinalg", "det_D", "dlinalg.det_D", True, None),
    ("parakahler.solitons", "integrate", "solitons.integrate", True,
     lambda t, traj: t.counts.update({"solitons.integrate.steps": len(traj.s) - 1})),
    ("parakahler.solitons", "first_integral", "solitons.first_integral", False, None),
    ("parakahler.solitons", "classify", "solitons.classify", True, None),
    ("scipy.integrate", "solve_ivp", "solve_ivp", False,
     lambda t, sol: t.counts.update({"solve_ivp.nfev": int(sol.nfev)})),
]

# Per-layer metrics: (name, unit, source).  "self" is the self time of a
# span label, "count" a tracer count, "out" a figure from the output check
# or the output directory.
LAYERS = (
    [("cli.self.s", "s", "self:cli"),
     ("cli.csv_bytes", "bytes", "out"),
     ("cli.csv_files", "count", "out"),
     ("catalog.build.s", "s", "self:catalog.build"),
     ("geometry.jet.calls", "count", "count"),
     ("geometry.mean_curvature.s", "s", "self:geometry.mean_curvature"),
     ("geometry.mean_curvature.calls", "count", "count"),
     ("geometry.signed_gram_schmidt.s", "s", "self:geometry.signed_gram_schmidt"),
     ("geometry.jfield_from_function.s", "s", "self:geometry.jfield_from_function"),
     ("lagrangian.angle_field.s", "s", "self:lagrangian.angle_field"),
     ("lagrangian.angle_identity_residual.s", "s",
      "self:lagrangian.angle_identity_residual"),
     ("lagrangian.angle_identity_residual.calls", "count", "count"),
     ("dlinalg.det_D.s", "s", "self:dlinalg.det_D"),
     ("dlinalg.det_D.calls", "count", "count"),
     ("solitons.integrate.s", "s", "self:solitons.integrate"),
     ("solitons.integrate.calls", "count", "count"),
     ("solitons.integrate.steps", "count", "count"),
     ("solve_ivp.nfev", "count", "count"),
     ("solitons.first_integral.calls", "count", "count"),
     ("solitons.classify.s", "s", "self:solitons.classify")]
    + [(f"verify.{name}.s", "s", f"self:verify.{name}") for name in workloads.SUITES]
    + [("angle.usable_nodes", "count", "out"),
       ("angle.nan_residual_nodes", "count", "out")]
    + [(f"solitons.stop.{reason}", "count", "out") for reason in workloads.STOP_REASONS]
    + [("solitons.drift_gate_misses", "count", "out"),
       ("solitons.max_drift", "ratio", "out"),
       ("verify.checks_failed", "count", "out"),
       ("trace.overhead", "ratio", "overhead")]
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failed probe)."""


def import_toolkit():
    """Import parakahler from this checkout's src, and nowhere else."""
    if not (SRC / "parakahler" / "__init__.py").is_file():
        raise BenchError(f"no parakahler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parakahler
    import parakahler.cli  # noqa: F401  (the whole toolkit, before any wrapping)
    if Path(parakahler.__file__).resolve().parent != (SRC / "parakahler").resolve():
        raise BenchError(f"imported parakahler from {parakahler.__file__}, not {SRC}")


def setup_sample(doc_path: Path) -> dict:
    """Seconds a fresh interpreter takes to import parakahler.cli plus run
    the first catalog.build: {"wall": as measured, "normalised": at the
    reference host speed}."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(doc_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"setup probe timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_output(out: Path) -> dict:
    files = [p for p in out.rglob("*.csv") if p.is_file()]
    return {"cli.csv_files": len(files),
            "cli.csv_bytes": sum(p.stat().st_size for p in files)}


def high_percentile(samples):
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def layer_values(tracer, outcome, out_figures) -> dict:
    st = self_times(tracer.spans)
    values = {}
    for name, _, source in LAYERS:
        if source.startswith("self:"):
            values[name] = st.get(source[5:], 0.0)
        elif source == "count":
            values[name] = tracer.counts.get(name, 0)
        elif source == "out":
            values[name] = out_figures.get(name, outcome.behaviour.get(name, 0))
    return values


def measure(wl, seconds: float, trace: bool, out: Path, setup_doc: Path | None):
    """Passes that fit in `seconds` (at least the minimum count); returns
    the run's figures.  Untraced passes of an untraced run are sampled for
    the host's speed; `walls` holds their (wall, normalised) times.  With
    `setup_doc`, one set-up probe runs before each pass, so the samples
    spread over the run like the passes do."""
    total = workloads.Outcome()
    walls, traced_walls, traced, setup = [], [], [], []
    units, rss_mb, iterations = 0, None, []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        traced_pass = trace and len(walls) > len(traced_walls)
        if setup_doc is not None:
            setup.append(setup_sample(setup_doc))
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        tracer = Tracer() if traced_pass else None
        try:
            if tracer is not None:
                for module, attr, label, timed, hook in TARGETS:
                    tracer.wrap(module, attr, label, timed=timed, on_result=hook)
            if trace:
                t0 = time.perf_counter()
                raw = wl.run(out, tracer)
                wall = time.perf_counter() - t0
            else:
                with SpeedSampler() as sampler:
                    t0 = time.perf_counter()
                    raw = wl.run(out, tracer)
                    wall = time.perf_counter() - t0
                wall = (wall, sampler.normalise(wall))
        finally:
            if tracer is not None:
                tracer.close()
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = wl.check(out, raw)
        total.add(outcome)
        if traced_pass:
            traced_walls.append(wall)
            traced.append((tracer, layer_values(tracer, outcome, csv_output(out))))
        else:
            walls.append(wall)
            units += outcome.attempted
        enough = (len(walls) >= MIN_TRACE_PASSES and len(traced_walls) >= MIN_TRACE_PASSES
                  if trace else len(walls) >= MIN_PASSES)
        # start another pass only if one of the median length so far (with
        # its check) still ends within the run
        now = time.perf_counter()
        iterations.append(now - begin)
        if enough and now - start + statistics.median(iterations) > seconds:
            break
    return total, walls, traced_walls, traced, setup, units, rss_mb


def trace_metrics(walls, traced_walls, traced, problems) -> dict:
    units = {name: unit for name, unit, _ in LAYERS}
    first = traced[0][1]
    for _, values in traced[1:]:
        for name, unit, source in LAYERS:
            if unit != "s" and source != "overhead" and values[name] != first[name]:
                problems.append(f"{name} differs between traced passes: "
                                f"{first[name]} vs {values[name]}")
    metrics = {}
    for name, unit, source in LAYERS:
        if source == "overhead":
            value = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        elif unit == "s":
            value = statistics.median(v[name] for _, v in traced)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def write_spans(path: Path, workload, seed, traced):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent"],
                   "passes": [{"spans": t.spans, "counts": dict(t.counts)}
                              for t, _ in traced]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_toolkit()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    out = WORK / f"run-{os.getpid()}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        doc_path = None
        if not args.trace:
            doc_path = out / "setup_spec.json"
            # every workload's probe builds the angle_grid graph of its seed,
            # so setup_s compares across workloads
            doc_path.write_text(json.dumps(workloads.AngleGrid(args.seed).setup_doc()),
                                encoding="utf-8")
        total, walls, traced_walls, traced, setup, units, rss_mb = measure(
            wl, args.seconds, bool(args.trace), out / "pass", doc_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)

    problems = list(total.problems)
    detail = {"workload": wl.name, "seed": args.seed, "inputs": wl.inputs()}
    print(f"workload {wl.name} seed {args.seed}: inputs {json.dumps(wl.inputs())}")
    if args.trace:
        metrics = trace_metrics(walls, traced_walls, traced, problems)
        spans_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.json"
        write_spans(spans_path, wl.name, args.seed, traced)
        print(f"spans of {len(traced)} traced passes written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        raw = [w for w, _ in walls]
        norm = [n for _, n in walls]
        setup_norm = [s["normalised"] for s in setup]
        q1, med, q3 = statistics.quantiles(norm, n=4, method="inclusive")
        high = high_percentile(norm)
        print(f"wall_s: median {med:.4f} s, quartiles {q1:.4f}/{q3:.4f} s, "
              f"{len(norm)} passes, highest percentile with ten samples above: "
              + (f"p{high[0]} = {high[1]:.4f} s" if high else "none (needs > 10 passes)"))
        print(f"pass times at reference speed: {', '.join(f'{w:.4f}' for w in norm)} s")
        print(f"pass times as measured: {', '.join(f'{w:.4f}' for w in raw)} s")
        print(f"setup_s samples at reference speed: "
              f"{', '.join(f'{s:.4f}' for s in setup_norm)} s")
        detail["wall_s"] = {"median": med, "q1": q1, "q3": q3, "passes": len(norm),
                            "high_percentile": ({"p": high[0], "value": high[1]}
                                                if high else None),
                            "measured": raw}
        detail["setup_s_samples"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "wall_s": {"value": med, "unit": "s"},
            "units_per_s": {"value": units / sum(norm), "unit": "units/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_ratio": {"value": 1.0 - total.failed / total.attempted, "unit": "ratio"},
        }
    for problem in problems[:20]:
        print(f"check: {problem}")
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
