"""Self-tests of the benchmark: its output checks catch broken outputs, its
self-time arithmetic is right, its counts repeat exactly, and its host-speed
sampler scales as documented.

    python3 perfbench/selftest.py      (from the root of a source checkout)

Runs one full pass of each workload several times; about a minute.
"""

from __future__ import annotations

import shutil
import signal
import sys
import time
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REF_CHUNK_S, SpeedSampler  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

run.import_toolkit()


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],    # overlaps a: the covered part counts once
            ["c", 2.0, 3.0, 1],
            ["a", 8.0, 12.0, 0],   # runs past its parent: clipped
            ["d", 20.0, 21.0, -1],
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st["root"], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(st["a"], (3.0 - 1.0) + 4.0)
        self.assertAlmostEqual(st["b"], 3.0)
        self.assertAlmostEqual(st["c"], 1.0)
        self.assertAlmostEqual(st["d"], 1.0)

    def test_nested_spans_record_parents(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        self.assertEqual(tracer.spans, [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]])
        self.assertEqual(self_times(tracer.spans), {"outer": 2.0, "inner": 1.0})


class HostSpeed(unittest.TestCase):
    def test_slowdown_is_the_capped_mean_chunk_time(self):
        sampler = SpeedSampler()
        sampler.samples = [REF_CHUNK_S] * 50 + [1.6 * REF_CHUNK_S] * 50
        self.assertAlmostEqual(sampler.slowdown(), 1.3)
        # one preempted sample weighs at most twice the median
        sampler.samples = [REF_CHUNK_S] * 99 + [100 * REF_CHUNK_S]
        self.assertAlmostEqual(sampler.slowdown(), 1.01)
        sampler.spent = 0.5
        self.assertAlmostEqual(sampler.normalise(10.6), 10.0)

    def test_sampling_stops_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                sum(range(1000))
            wall = time.perf_counter() - t0
        self.assertGreater(len(sampler.samples), 5)
        self.assertGreater(sampler.spent, 0.0)
        self.assertLess(sampler.spent, wall)
        self.assertGreater(sampler.normalise(wall), 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class Wrapping(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from parakahler import cli, geometry, lagrangian
        original = geometry.mean_curvature
        with Tracer() as tracer:
            bound = tracer.wrap("parakahler.geometry", "mean_curvature",
                                "geometry.mean_curvature")
            self.assertGreaterEqual(bound, 3)  # geometry, lagrangian, cli, ...
            self.assertIs(cli.mean_curvature, geometry.mean_curvature)
            self.assertIs(lagrangian.mean_curvature, geometry.mean_curvature)
            self.assertIsNot(geometry.mean_curvature, original)
        self.assertIs(geometry.mean_curvature, original)
        self.assertIs(cli.mean_curvature, original)

    def test_module_imported_while_tracing_is_restored(self):
        import types
        from parakahler import geometry
        original = geometry.jet
        late = types.ModuleType("parakahler._late")
        try:
            with Tracer() as tracer:
                tracer.wrap("parakahler.geometry", "jet", "geometry.jet")
                late.jet = geometry.jet   # what `from .geometry import jet` binds
                sys.modules[late.__name__] = late
            self.assertIs(late.jet, original)
        finally:
            sys.modules.pop(late.__name__, None)

    def test_missing_function_counts_zero(self):
        tracer = Tracer()
        self.assertEqual(tracer.wrap("parakahler.geometry", "no_such_function",
                                     "geometry.no_such_function"), 0)
        self.assertEqual(tracer.wrap("parakahler.no_such_module", "f", "x.f"), 0)
        tracer.close()
        self.assertEqual(tracer.counts["geometry.no_such_function.calls"], 0)


class OutputChecks(unittest.TestCase):
    """A pass of each workload is correct at this commit, and a damaged
    output makes its check fail."""

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _pass(self, wl, name):
        out = self.tmp / name
        out.mkdir()
        raw = wl.run(out)
        outcome = wl.check(out, raw)
        self.assertEqual(outcome.problems, [])
        return out, raw

    def test_perturbed_theta_fails(self):
        wl = workloads.AngleGrid(5)
        out, raw = self._pass(wl, "angle")
        path = out / "graph.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        centre = 1 + (wl.COUNT ** 2) // 2          # header + node (32, 32)
        cells = lines[centre].split(",")
        theta = workloads.ANGLE_COLUMNS.index("theta")
        cells[theta] = repr(float(cells[theta]) + 1e-6)
        lines[centre] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        outcome = wl.check(out, raw)
        self.assertEqual(outcome.failed, 1)
        self.assertIn("graph.csv", outcome.problems[0])

    def test_missing_trajectory_file_fails(self):
        wl = workloads.PhaseSweep(5)
        out, raw = self._pass(wl, "phase")
        before = wl.check(out, raw).failed
        (out / "lorentzian" / "traj_0007.csv").unlink()
        outcome = wl.check(out, raw)
        self.assertEqual(outcome.failed, before + 1)
        self.assertIn("traj_0007.csv", " ".join(outcome.problems))

    def test_nonzero_exit_fails_every_unit(self):
        wl = workloads.AngleGrid(5)
        outcome = wl.check(self.tmp / "absent", [3, 0])
        self.assertGreaterEqual(outcome.failed, wl.COUNT ** 2)
        self.assertTrue(outcome.problems)


class ExactCounts(unittest.TestCase):
    """Counts from two traced passes of one seed are identical."""

    def _counts(self, name, seed, tmp):
        values = []
        for attempt in range(2):
            wl = workloads.WORKLOADS[name](seed)
            out = tmp / f"{name}-{attempt}"
            out.mkdir()
            with Tracer() as tracer:
                for module, attr, label, timed, hook in run.TARGETS:
                    tracer.wrap(module, attr, label, timed=timed, on_result=hook)
                raw = wl.run(out, tracer)
            outcome = wl.check(out, raw)
            layer = run.layer_values(tracer, outcome, run.csv_output(out))
            values.append({k: v for k, v in layer.items()
                           if not k.endswith(".s")})
        return values

    def test_counts_repeat(self):
        run.WORK.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        try:
            for name, keys in (("angle_grid", ("geometry.jet.calls",)),
                               ("phase_verify", ("solve_ivp.nfev",
                                                 "dlinalg.det_D.calls"))):
                with self.subTest(workload=name):
                    first, second = self._counts(name, 3, tmp)
                    self.assertEqual(first, second)
                    for key in keys:
                        self.assertGreater(first[key], 0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
