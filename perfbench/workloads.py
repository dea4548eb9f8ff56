"""Benchmark workloads: input generation from a seed, one pass through the
toolkit, and an output check against an independent route.

A pass calls ``parakahler.cli.main`` (or ``verify.run_suite``) in-process
with generated argv lists only.  ``check`` reads what the pass wrote and
returns a ``Outcome``: ``problems`` are outputs that disagree with their
independent route (the run is then not correct), ``failed`` counts the
units of work that failed, either through such a problem or because the
program itself flagged them (a trajectory above the drift gate).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ANGLE_COLUMNS = ["u1", "u2", "x1", "x2", "y1", "y2", "theta", "q", "degenerate",
                 "Hx1", "Hx2", "Hy1", "Hy2", "residual"]
TRAJ_COLUMNS = ["s", "r", "alpha", "phi"]
INDEX_COLUMNS = ["r0", "alpha0", "E", "classification", "stop_reason",
                 "max_E_drift", "file"]
STOP_REASONS = ("r_singular", "alpha_blowup", "alpha_max", "alpha_floor",
                "r_min", "r_max", "s_max")
DRIFT_GATE = 1e-8
# verify --suite all minus soliton-ode, which alone takes about ten times
# as long as these nine together; the phase sweeps cover the integrator.
SUITES = ("algebra", "gram-lemma", "main-theorem", "constant-angle-graphs",
          "paracomplex-minimal", "null-product", "equivariant-level",
          "normal-bundle", "nijenhuis")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    behaviour: dict = field(default_factory=dict)

    def add(self, other: "Outcome"):
        """Sum the units and problems of another pass into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def call_cli(argv, tracer=None):
    """Run the CLI entry point in-process; an exit code or an exception text."""
    from parakahler import cli
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli"):
            return cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return f"{type(exc).__name__}: {exc}"


def read_csv(path):
    """(header, rows of strings, footer dict) of a toolkit CSV file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = value
        else:
            rows.append(line.split(","))
    return header, rows, footer


def _numeric(path, columns, problems, label):
    """Float matrix of a CSV whose header must equal columns, or None."""
    try:
        header, rows, footer = read_csv(path)
    except (OSError, IndexError) as exc:
        problems.append(f"{label}: unreadable ({exc})")
        return None, {}
    if header != columns:
        problems.append(f"{label}: columns {header} != {columns}")
        return None, footer
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    except ValueError as exc:
        problems.append(f"{label}: malformed rows ({exc})")
        return None, footer
    return data, footer


def _call_failed(label, rc, units, out: Outcome) -> bool:
    if rc == 0:
        return False
    out.failed += units
    out.problems.append(f"{label}: exit {rc}")
    return True


# ---------------------------------------------------------------------------
# angle_grid
# ---------------------------------------------------------------------------

def split_polar(x, y):
    """(q, theta) of x + tau y from z = p tau^q r (cosh theta + tau sinh theta):
    q = 0 has tanh theta = y/x, q = 1 has tanh theta = x/y."""
    q = (np.abs(y) > np.abs(x)).astype(int)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(q == 1, np.arctanh(x / y), np.arctanh(y / x))
    return q, theta


class AngleGrid:
    """Gradient graph of a seeded cubic at 65^2 and the lift of the circle
    x^2 + y^2 = C to a 64 x 32 periodic torus (null lines, 4 regions)."""

    name = "angle_grid"
    COUNT = 65
    LO, HI = -0.5, 0.5
    CIRCLE = 64
    SPHERE = 32  # the lift's default sphere count for n = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.coeffs = {}
        for i, j in ((3, 0), (2, 1), (1, 2), (0, 3)):
            self.coeffs[(i, j)] = round(rng.uniform(-0.6, 0.6), 4)
        for i, j in ((2, 0), (1, 1), (0, 2)):
            self.coeffs[(i, j)] = round(rng.uniform(-0.4, 0.4), 4)
        terms = []
        for (i, j), c in self.coeffs.items():
            mono = "*".join(f"x{k + 1}^{p}" if p > 1 else f"x{k + 1}"
                            for k, p in enumerate((i, j)) if p)
            terms.append(("- " if c < 0 else "+ ") + f"{abs(c)!r}*{mono}")
        self.potential = " ".join(terms).removeprefix("+ ")
        self.C = round(rng.uniform(0.5, 2.0), 4)

    def inputs(self) -> dict:
        return {"potential": self.potential, "count": self.COUNT,
                "circle_C": self.C, "circle_count": self.CIRCLE}

    def setup_doc(self) -> dict:
        axis = {"min": self.LO, "max": self.HI, "count": self.COUNT}
        return {"kind": "gradient_graph", "params": {"u": self.potential},
                "grid": {"axes": [dict(axis), dict(axis)]}}

    def argvs(self, out: Path):
        return [
            ["graph", "--u", self.potential, "--n", "2", "--lo", repr(self.LO),
             "--hi", repr(self.HI), "--count", str(self.COUNT),
             "--out", str(out / "graph.csv")],
            ["equivariant", "--n", "2", "--family", "circle", "--C", repr(self.C),
             "--count", str(self.CIRCLE), "--out", str(out / "curve.csv"),
             "--lift-out", str(out / "lift.csv")],
        ]

    def run(self, out: Path, tracer=None):
        return [call_cli(argv, tracer) for argv in self.argvs(out)]

    def check(self, out: Path, calls) -> Outcome:
        res = Outcome()
        n_graph, n_lift = self.COUNT ** 2, self.CIRCLE * self.SPHERE
        res.attempted = n_graph + n_lift
        if not _call_failed("graph", calls[0], n_graph, res):
            self._check_graph(out / "graph.csv", res)
        if not _call_failed("equivariant", calls[1], n_lift, res):
            self._check_circle(out / "curve.csv", res)
            self._check_torus(out / "lift.csv", res)
        return res

    def _hessian(self, x1, x2):
        c = self.coeffs
        uxx = 6 * c[(3, 0)] * x1 + 2 * c[(2, 1)] * x2 + 2 * c[(2, 0)]
        uxy = 2 * c[(2, 1)] * x1 + 2 * c[(1, 2)] * x2 + c[(1, 1)]
        uyy = 2 * c[(1, 2)] * x1 + 6 * c[(0, 3)] * x2 + 2 * c[(0, 2)]
        return uxx, uxy, uyy

    def _gradient(self, x1, x2):
        c = self.coeffs
        ux = (3 * c[(3, 0)] * x1 ** 2 + 2 * c[(2, 1)] * x1 * x2 + c[(1, 2)] * x2 ** 2
              + 2 * c[(2, 0)] * x1 + c[(1, 1)] * x2)
        uy = (c[(2, 1)] * x1 ** 2 + 2 * c[(1, 2)] * x1 * x2 + 3 * c[(0, 3)] * x2 ** 2
              + c[(1, 1)] * x1 + 2 * c[(0, 2)] * x2)
        return ux, uy

    def _check_graph(self, path, res: Outcome):
        data, _ = _numeric(path, ANGLE_COLUMNS, res.problems, "graph.csv")
        k = self.COUNT
        if data is None or data.shape[0] != k * k:
            if data is not None:
                res.problems.append(f"graph.csv: {data.shape[0]} rows, expected {k * k}")
            res.failed += k * k
            return
        col = {name: data[:, i] for i, name in enumerate(ANGLE_COLUMNS)}
        h = (self.HI - self.LO) / (k - 1)
        idx = np.arange(k)
        I, J = np.meshgrid(idx, idx, indexing="ij")
        I, J = I.ravel(), J.ravel()
        u1, u2 = self.LO + h * I, self.LO + h * J
        bad = (np.abs(col["u1"] - u1) > 1e-12) | (np.abs(col["u2"] - u2) > 1e-12)
        bad |= (col["x1"] != col["u1"]) | (col["x2"] != col["u2"])
        # the graph samples u and differentiates it centrally: for a cubic
        # the error is exactly h^2 d^3u/dx_j^3 / 6
        ux, uy = self._gradient(u1, u2)
        bad |= np.abs(col["y1"] - (ux + h * h * self.coeffs[(3, 0)])) > 1e-12
        bad |= np.abs(col["y2"] - (uy + h * h * self.coeffs[(0, 3)])) > 1e-12

        # tangent frame Id + tau Hess u is exact here (central differences of
        # a quadratic), so theta is arg det_D = (1 + det Hess) + tau Lap u
        uxx, uxy, uyy = self._hessian(u1, u2)
        zx, zy = 1.0 + uxx * uyy - uxy * uxy, uxx + uyy
        q, theta = split_polar(zx, zy)
        # README gauge: |x^2 - y^2| of det_D against the Euclidean tangent
        # scale^m, degenerate below 1e-8; a node 100 times clear of that
        # must be usable
        scale = 2.0 + uxx * uxx + 2.0 * uxy * uxy + uyy * uyy
        norm2 = np.abs(zx * zx - zy * zy)
        margin = np.minimum(np.minimum(I, k - 1 - I), np.minimum(J, k - 1 - J))
        usable = col["degenerate"] == 0
        bad |= usable & (margin < 2)
        bad |= ~usable & (margin >= 2) & (norm2 > 1e-6 * scale ** 2)
        # d theta = (x dy - y dx) / (x^2 - y^2) with |dz| at rounding level of
        # the tangent scale; 1e-11 is 400 times the largest constant seen
        # over seeds 1, 7 and 101
        with np.errstate(divide="ignore", invalid="ignore"):
            tol = 1e-11 * scale * np.hypot(zx, zy) / norm2
        bad |= usable & ((col["q"] != q) | ~(np.abs(col["theta"] - theta) <= tol))
        self._check_curvature(col, usable, (k, k), margin, res, bad, periodic=False)
        self._record(res, bad, "graph.csv")

    def _check_circle(self, path, res: Outcome):
        data, _ = _numeric(path, ["s", "x", "y", "squared_norm"], res.problems,
                           "curve.csv")
        if data is None:
            res.failed += self.CIRCLE * self.SPHERE
            return
        s, x, y, w = data.T
        ok = (data.shape[0] == self.CIRCLE
              and np.allclose(s, 2 * np.pi * np.arange(self.CIRCLE) / self.CIRCLE,
                              rtol=0, atol=1e-12)
              and np.allclose(x * x + y * y, self.C, rtol=1e-12, atol=0)
              and np.allclose(w, x * x - y * y, rtol=0, atol=1e-12 * self.C))
        if not ok:
            res.problems.append("curve.csv: samples are not on x^2 + y^2 = C")
            res.failed += self.CIRCLE * self.SPHERE

    def _check_torus(self, path, res: Outcome):
        data, footer = _numeric(path, ANGLE_COLUMNS, res.problems, "lift.csv")
        ks, kt = self.CIRCLE, self.SPHERE
        if data is None or data.shape[0] != ks * kt:
            if data is not None:
                res.problems.append(f"lift.csv: {data.shape[0]} rows, expected {ks * kt}")
            res.failed += ks * kt
            return
        col = {name: data[:, i] for i, name in enumerate(ANGLE_COLUMNS)}
        hs, ht = 2 * np.pi / ks, 2 * np.pi / kt
        S, T = np.meshgrid(hs * np.arange(ks), ht * np.arange(kt), indexing="ij")
        S, T = S.ravel(), T.ravel()
        rad = math.sqrt(self.C)
        expect = {"u1": S, "u2": T,
                  "x1": rad * np.cos(S) * np.cos(T), "x2": rad * np.cos(S) * np.sin(T),
                  "y1": rad * np.sin(S) * np.cos(T), "y2": rad * np.sin(S) * np.sin(T)}
        bad = np.zeros(ks * kt, dtype=bool)
        for name, value in expect.items():
            bad |= np.abs(col[name] - value) > 1e-12
        # <gamma, gamma> = C cos 2s vanishes on four null lines of nodes
        null_line = np.abs(np.cos(2 * S)) < 0.05
        usable = col["degenerate"] == 0
        bad |= usable == null_line
        # the circle torus has constant angle; the sampled one to O(h^2)
        if usable.any():
            ref = np.median(col["theta"][usable])
            bad |= usable & ~(np.abs(col["theta"] - ref) <= hs * hs)
            bad |= usable & (col["q"] != np.median(col["q"][usable]))
        if footer.get("nondegenerate_regions") != "4":
            res.problems.append(f"lift.csv: {footer.get('nondegenerate_regions')} "
                                "regions, expected 4")
            bad[:] = True
        margin = np.full(ks * kt, 10 ** 9)
        self._check_curvature(col, usable, (ks, kt), margin, res, bad, periodic=True)
        self._record(res, bad, "lift.csv")

    def _check_curvature(self, col, usable, shape, margin, res, bad, periodic):
        """H is finite on usable nodes, the identity residual is finite where
        its stencil (margin 3, usable neighbours) is complete, and every
        unusable node carries nan."""
        H = np.stack([col[c] for c in ("Hx1", "Hx2", "Hy1", "Hy2")], axis=1)
        bad |= usable & ~np.all(np.isfinite(H), axis=1)
        bad |= ~usable & (np.isfinite(col["theta"]) | np.any(np.isfinite(H), axis=1)
                          | np.isfinite(col["residual"]))
        usable_grid = usable.reshape(shape)
        stencil = usable_grid.copy()
        for axis in (0, 1):
            for shift in (-1, 1):
                nbr = np.roll(usable_grid, shift, axis=axis)
                if not periodic:
                    edge = [slice(None)] * 2
                    edge[axis] = 0 if shift == 1 else -1
                    nbr[tuple(edge)] = False
                stencil &= nbr
        complete = stencil.ravel() & (margin >= 3)
        resid = col["residual"]
        bad |= complete & ~np.isfinite(resid)
        res.behaviour["angle.usable_nodes"] = (
            res.behaviour.get("angle.usable_nodes", 0) + int(usable.sum()))
        res.behaviour["angle.nan_residual_nodes"] = (
            res.behaviour.get("angle.nan_residual_nodes", 0)
            + int((usable & np.isnan(resid)).sum()))

    @staticmethod
    def _record(res: Outcome, bad, label):
        n_bad = int(bad.sum())
        if n_bad:
            res.failed += n_bad
            res.problems.append(f"{label}: {n_bad} rows fail their check")


# ---------------------------------------------------------------------------
# phase sweeps
# ---------------------------------------------------------------------------

def first_integral(case, n, lam, r, alpha):
    g = r ** n * math.exp(-lam * r * r / 2.0)
    return g * (math.cosh(alpha) if case == "lorentzian" else math.sinh(alpha))


def expected_class(case, n, lam, r, alpha):
    """Phase-portrait class from the initial state alone (closed form)."""
    if case == "definite":
        return "definite_expanding"
    if lam <= 0.0:
        return "nonpositive_lambda"
    r0 = math.sqrt(n / lam)
    if abs(r - r0) < 1e-6 * r0 and alpha == 0.0:
        return "critical_point"
    E0 = (n / lam) ** (n / 2) * math.exp(-n / 2)
    if first_integral(case, n, lam, r, alpha) < E0 * (1.0 - 1e-12):
        return "subcritical_inner" if r < r0 else "subcritical_outer"
    return "supercritical"


class PhaseSweep:
    """Two 5 x 5 sweeps at n = 2: Lorentzian lambda' = +1 and definite
    lambda' = -1, over seed-jittered ranges whose r grid passes through the
    critical radius r0 = sqrt(n / lambda')."""

    N = 2
    COUNT = 5
    RUNS = (("lorentzian", 1.0), ("definite", -1.0))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        r0 = math.sqrt(self.N / self.RUNS[0][1])
        half = 0.9 + rng.uniform(-0.05, 0.05)
        self.r_range = (r0 - half, r0 + half)
        a = 0.8 + rng.uniform(-0.05, 0.05)
        self.alpha_range = (-a, a)

    def inputs(self) -> dict:
        return {"n": self.N, "runs": [list(r) for r in self.RUNS],
                "r_range": list(self.r_range), "alpha_range": list(self.alpha_range),
                "grid": [self.COUNT, self.COUNT]}

    def argvs(self, out: Path):
        out_argvs = []
        for case, lam in self.RUNS:
            out_argvs.append([
                "phase", "--n", str(self.N), "--lambda-prime", repr(lam),
                "--case", case,
                "--r-min", repr(self.r_range[0]), "--r-max", repr(self.r_range[1]),
                "--r-count", str(self.COUNT),
                "--alpha-min", repr(self.alpha_range[0]),
                "--alpha-max", repr(self.alpha_range[1]),
                "--alpha-count", str(self.COUNT), "--jobs", "1",
                "--out-dir", str(out / case)])
        return out_argvs

    def run(self, out: Path, tracer=None):
        return [call_cli(argv, tracer) for argv in self.argvs(out)]

    def check(self, out: Path, calls) -> Outcome:
        res = Outcome()
        per_run = self.COUNT * self.COUNT
        for (case, lam), rc in zip(self.RUNS, calls):
            res.attempted += per_run
            if not _call_failed(f"phase {case}", rc, per_run, res):
                self._check_run(out / case, case, lam, res)
        return res

    def _check_run(self, out: Path, case, lam, res: Outcome):
        per_run = self.COUNT * self.COUNT
        try:
            header, rows, _ = read_csv(out / "index.csv")
        except (OSError, IndexError) as exc:
            res.problems.append(f"{case}/index.csv: unreadable ({exc})")
            res.failed += per_run
            return
        r_grid = np.linspace(*self.r_range, self.COUNT)
        a_grid = np.linspace(*self.alpha_range, self.COUNT)
        starts = [(float(r), float(a)) for r in r_grid for a in a_grid]
        if header != INDEX_COLUMNS or len(rows) != per_run:
            res.problems.append(f"{case}/index.csv: header {header}, {len(rows)} rows")
            res.failed += per_run
            return
        for (r, a), row in zip(starts, rows):
            try:
                problem = self._check_trajectory(out, case, lam, r, a, row, res)
            except ValueError as exc:
                problem = f"malformed index row {row} ({exc})"
            if problem:
                res.problems.append(f"{case} r0={r:.6g} alpha0={a:.6g}: {problem}")
                res.failed += 1
            elif not float(row[5]) < DRIFT_GATE:
                # the program reports this trajectory above its own gate
                res.failed += 1
                res.behaviour["solitons.drift_gate_misses"] = (
                    res.behaviour.get("solitons.drift_gate_misses", 0) + 1)

    def _check_trajectory(self, out, case, lam, r, a, row, res: Outcome):
        n = self.N
        r_csv, a_csv, E, tag, stop, drift, name = row
        if float(r_csv) != r or float(a_csv) != a:
            return f"initial state ({r_csv}, {a_csv}) is not the grid node"
        E_ref = first_integral(case, n, lam, r, a)
        if abs(float(E) - E_ref) > 1e-12 * max(abs(E_ref), 1e-300):
            return f"E = {E}, closed form {E_ref!r}"
        want = expected_class(case, n, lam, r, a)
        if tag != want:
            return f"class {tag}, closed form {want}"
        stops = stop.split("/")
        if len(stops) != 2 or not set(stops) <= set(STOP_REASONS):
            return f"stop reason {stop!r}"
        drift = float(drift)
        if not drift >= 0.0:
            return f"max_E_drift {drift}"
        data, footer = _numeric(out / name, TRAJ_COLUMNS, [], name)
        if data is None or data.shape[0] < 2:
            return f"trajectory file {name} missing or malformed"
        if footer.get("classification") != tag or footer.get("stop_reason") != stop:
            return f"{name} footer disagrees with index.csv"
        s, rr, aa, _ = data.T
        origin = np.flatnonzero(s == 0.0)
        if (np.any(np.diff(s) <= 0) or not np.all(rr > 0) or origin.size != 1
                or rr[origin[0]] != r or aa[origin[0]] != a):
            return f"{name} is not an ordered trajectory through its initial state"
        for reason in stops:
            key = f"solitons.stop.{reason}"
            res.behaviour[key] = res.behaviour.get(key, 0) + 1
        res.behaviour["solitons.max_drift"] = max(
            res.behaviour.get("solitons.max_drift", 0.0), drift)
        return None


# ---------------------------------------------------------------------------
# point-query suites and the phase_verify workload
# ---------------------------------------------------------------------------

class VerifyPoint:
    """The nine verification suites other than soliton-ode, whose inputs are
    pinned; the seed only sets their order."""

    def __init__(self, seed: int):
        order = list(SUITES)
        random.Random(seed).shuffle(order)
        self.order = order

    def inputs(self) -> dict:
        return {"suites": self.order}

    def run(self, out: Path, tracer=None):
        from parakahler import verify
        results = []
        for suite in self.order:
            try:
                if tracer is None:
                    results.append(list(verify.run_suite(suite)))
                else:
                    with tracer.span(f"verify.{suite}"):
                        results.append(list(verify.run_suite(suite)))
            except Exception as exc:  # a crash is a failed suite, not a benchmark error
                results.append(f"{type(exc).__name__}: {exc}")
        return results

    def check(self, out: Path, results) -> Outcome:
        res = Outcome(behaviour={"verify.checks_failed": 0})
        for suite, checks in zip(self.order, results):
            if isinstance(checks, str) or not checks:
                res.attempted += 1
                res.failed += 1
                res.problems.append(f"{suite}: {checks or 'no checks'}")
                continue
            res.attempted += len(checks)
            for result in checks:
                if not result.passed:
                    res.failed += 1
                    res.behaviour["verify.checks_failed"] += 1
                    res.problems.append(f"{suite}: {result.line()}")
        return res


class PhaseVerify:
    """The two phase sweeps, then the nine point-query suites.

    One workload rather than two so that each run can be long enough to
    ride out the host's slow stretches within the benchmark's time budget.
    Neither half touches the whole-grid geometry that angle_grid measures;
    the sweeps bypass geometry altogether, the suites query single nodes
    and frames.
    """

    name = "phase_verify"

    def __init__(self, seed: int):
        self.phase = PhaseSweep(seed)
        self.verify = VerifyPoint(seed)

    def inputs(self) -> dict:
        return {**self.phase.inputs(), **self.verify.inputs()}

    def run(self, out: Path, tracer=None):
        return self.phase.run(out, tracer), self.verify.run(out, tracer)

    def check(self, out: Path, raw) -> Outcome:
        res = self.phase.check(out, raw[0])
        suites = self.verify.check(out, raw[1])
        res.add(suites)
        res.behaviour.update(suites.behaviour)
        return res


WORKLOADS = {cls.name: cls for cls in (AngleGrid, PhaseVerify)}
