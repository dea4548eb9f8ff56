import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parakahler
from parakahler import catalog, cli, geometry
from parakahler.cli import main
from parakahler.errors import SpecValidationError


def torus_spec():
    return {
        "kind": "equivariant_explicit",
        "params": {"n": 2, "curve": "circle", "C": 1.0},
        "grid": {"axes": [
            {"min": 0.0, "max": 6.283185307179586, "count": 32, "periodic": True},
            {"min": 0.0, "max": 6.283185307179586, "count": 16, "periodic": True},
        ]},
    }


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def footer_value(lines, key):
    for line in lines:
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise KeyError(key)


def test_spec_validation_rejects_unknown_keys():
    doc = torus_spec()
    doc["extra"] = 1
    with pytest.raises(SpecValidationError):
        catalog.validate_spec(doc)
    doc = torus_spec()
    doc["params"]["zzz"] = 1
    with pytest.raises(SpecValidationError):
        catalog.validate_spec(doc)


def test_spec_validation_kind_requirements():
    with pytest.raises(SpecValidationError):
        catalog.validate_spec({"kind": "gradient_graph", "params": {},
                               "grid": {"axes": [{"min": 0, "max": 1, "count": 5}]}})


def test_angle_command_torus(tmp_path):
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(torus_spec()), encoding="utf-8")
    out = tmp_path / "torus.csv"
    assert main(["angle", "--spec", str(spec), "--out", str(out)]) == 0
    lines = read_lines(out)
    header = lines[0].split(",")
    assert header[:2] == ["u1", "u2"]
    assert "theta" in header and "residual" in header
    assert footer_value(lines, "nondegenerate_regions") == "4"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_rows) == 32 * 16


def test_angle_footer_counts_nan_reasons(tmp_path):
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(torus_spec()), encoding="utf-8")
    out = tmp_path / "torus.csv"
    assert main(["angle", "--spec", str(spec), "--out", str(out)]) == 0
    lines = read_lines(out)
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    usable_nan = sum(1 for r in rows if r[8] == "0" and r[-1] == "nan")
    counts = {key: int(footer_value(lines, key)) for key in (
        "h_nan_degenerate_metric", "residual_nan_margin", "residual_nan_stencil")}
    # a periodic torus has no margin; the nan residuals border the null lines
    assert counts["residual_nan_margin"] == 0
    assert counts["residual_nan_stencil"] > 0
    assert sum(counts.values()) == usable_nan


def test_angle_command_deterministic(tmp_path):
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(torus_spec()), encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["angle", "--spec", str(spec), "--out", str(out1)])
    main(["angle", "--spec", str(spec), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_graph_command(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["graph", "--u", "x1^2 - x2^2/4", "--count", "17",
                 "--out", str(out)])
    assert code == 0
    lines = read_lines(out)
    thetas = [float(row.split(",")[6]) for row in lines[1:]
              if not row.startswith("#") and row.split(",")[6] != "nan"]
    assert max(abs(t) for t in thetas) < 1e-10


@pytest.mark.parametrize("scale", ["1e150", "1e160"])
def test_graph_overflow_marks_nodes_degenerate(scale, tmp_path):
    # det_D and det g overflow to inf or nan: each node is degenerate, with
    # nan theta and H, never a usable row with a nan angle
    out = tmp_path / "g.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["graph", "--u", f"{scale}*x1^3 + {scale}*x2^3", "--n", "2",
                     "--lo", "0.1", "--hi", "0.5", "--count", "9", "--out", str(out)]) == 0
    lines = read_lines(out)
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 81
    assert all(r[8] == "1" and r[6] == r[9] == r[13] == "nan" for r in rows)
    assert footer_value(lines, "degenerate_nodes") == "81"
    assert footer_value(lines, "nondegenerate_regions") == "0"


def test_soliton_command(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["soliton", "--n", "2", "--lambda-prime", "1", "--case",
                 "lorentzian", "--r", "0.5", "--alpha", "0", "--smax", "10",
                 "--out", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == "s,r,alpha,phi,E,E_drift"
    assert footer_value(lines, "classification") == "subcritical_inner"
    assert footer_value(lines, "accepted") == "true"
    rows = [row for row in lines[1:] if not row.startswith("#")]
    dropped = int(footer_value(lines, "dropped_knots"))
    assert int(footer_value(lines, "accepted_steps")) == len(rows) - 1 + dropped
    assert int(footer_value(lines, "rejected_steps")) >= 0
    assert dropped > 0  # the r -> 0 end advances s by less than an ulp
    s = [float(row.split(",")[0]) for row in rows]
    assert all(a < b for a, b in zip(s, s[1:]))


def test_equivariant_command(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["equivariant", "--family", "circle", "--C", "1", "--count",
                 "64", "--out", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert footer_value(lines, "lightcone_crossings") == "4"


def test_normal_bundle_command(tmp_path):
    out = tmp_path / "nb.csv"
    assert main(["normal-bundle", "--shape", "catenoid", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "i0,i1,t,q,theta,austere"
    assert all(row.split(",")[-1] == "1" for row in lines[1:]
               if not row.startswith("#"))


def test_nijenhuis_command(tmp_path):
    out = tmp_path / "nj.csv"
    assert main(["nijenhuis", "--structure", "pullback", "--refine", "2",
                 "--out", str(out)]) == 0
    lines = read_lines(out)
    assert footer_value(lines, "verdict") == "integrable"
    out2 = tmp_path / "nj2.csv"
    assert main(["nijenhuis", "--structure", "twist", "--count", "5",
                 "--refine", "2", "--out", str(out2)]) == 0
    assert footer_value(read_lines(out2), "verdict") == "obstructed"


def test_nijenhuis_runs_at_the_count_asked_for(tmp_path):
    # the twist samples its J-field on the stencil only, so no count is capped
    for structure in ("twist", "pullback"):
        out = tmp_path / f"{structure}.csv"
        assert main(["nijenhuis", "--structure", structure, "--count", "9",
                     "--refine", "1", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert footer_value(lines, "count") == "9"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.3 * 2 / 8 if structure == "twist"
                                                              else 0.4 * 2 / 8)
        with pytest.raises(KeyError):
            footer_value(lines, "requested_count")


def test_phase_command(tmp_path):
    out_dir = tmp_path / "phase"
    code = main(["phase", "--n", "2", "--lambda-prime", "1", "--case",
                 "lorentzian", "--r-count", "2", "--alpha-count", "2",
                 "--r-min", "0.5", "--r-max", "2.0", "--alpha-min", "-0.3",
                 "--alpha-max", "0.3", "--smax", "3",
                 "--out-dir", str(out_dir)]) == 0
    assert code
    index = read_lines(out_dir / "index.csv")
    assert index[0].startswith("r0,alpha0,E,")
    assert len(index) == 1 + 4
    assert (out_dir / "traj_0000.csv").exists()


def test_exit_code_usage():
    assert main(["soliton", "--n", "2"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    ["nijenhuis", "--structure", "standard", "--refine", "0"],
    ["nijenhuis", "--structure", "standard", "--refine", "-2"],
    ["nijenhuis", "--structure", "standard", "--count", "3"],
    ["nijenhuis", "--structure", "twist", "--count", "4"],
    ["equivariant", "--count", "1"],
    ["equivariant", "--count", "4", "--lift-out", "lift.csv"],
    ["angle", "--spec", "s.json", "--grid-count", "0"],
    ["angle", "--spec", "s.json", "--grid-count", "4"],
    ["normal-bundle", "--shape", "circle", "--t-count", "0"],
    ["normal-bundle", "--shape", "circle", "--t-count", "-2"],
], ids=["refine-0", "refine-negative", "nijenhuis-count-3", "twist-count-4",
        "equivariant-count-1", "lift-count-4", "grid-count-0", "grid-count-4",
        "t-count-0", "t-count-negative"])
def test_out_of_range_arguments_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: parakahler")
    assert "error: argument --" in err and "at least" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("count", ["--r-count", "--alpha-count"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_empty_phase_sweeps_are_usage_errors(count, value, tmp_path, monkeypatch, capsys):
    # an empty sweep used to write a header-only index and exit 0, a
    # negative count to end in numpy's traceback
    monkeypatch.chdir(tmp_path)
    assert main(["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian",
                 count, value, "--out-dir", "pd"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: parakahler")
    assert f"error: argument {count}: must be at least 1, got {value}" in err
    assert not any(tmp_path.iterdir())


def test_grid_count_overrides_the_spec_axes(tmp_path):
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(torus_spec()), encoding="utf-8")
    out = tmp_path / "torus.csv"
    assert main(["angle", "--spec", str(spec), "--grid-count", "5", "--out", str(out)]) == 0
    data_rows = [l for l in read_lines(out)[1:] if not l.startswith("#")]
    assert len(data_rows) == 5 * 5


def test_abbreviated_option_is_rejected(tmp_path, monkeypatch, capsys):
    # --out is a prefix of phase's --out-dir, not an abbreviation of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_text("kept", encoding="utf-8")
    assert main(["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian",
                 "--r-count", "2", "--alpha-count", "2", "--out-dir", "pd",
                 "--out", "o.csv"]) == 1
    assert "error: unrecognized arguments: --out o.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]
    assert (tmp_path / "o.csv").read_text(encoding="utf-8") == "kept"
    assert main(["nijenhuis", "--struct", "twist", "--out", "n.csv"]) == 1
    assert not (tmp_path / "n.csv").exists()


def test_smallest_accepted_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["nijenhuis", "--structure", "twist", "--count", "5", "--refine", "1",
                 "--out", "n.csv"]) == 0
    assert main(["equivariant", "--count", "2", "--out", "e.csv"]) == 0
    assert main(["equivariant", "--count", "5", "--out", "e.csv",
                 "--lift-out", "lift.csv"]) == 0
    assert len(read_lines(tmp_path / "n.csv")) == 1 + 1 + 3  # header, one level, footer


def test_exit_code_invalid_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "flat", "params": {"n": 2}}),
                   encoding="utf-8")  # missing grid
    out = tmp_path / "x.csv"
    assert main(["angle", "--spec", str(bad), "--out", str(out)]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text("{ not json", encoding="utf-8")
    assert main(["angle", "--spec", str(worse), "--out", str(out)]) == 2
    assert main(["angle", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2


GRAPH_SPEC = {"kind": "gradient_graph", "params": {"u": "x1^3"},
              "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 9}] * 2}}


def _spec_with_axis(lo, hi):
    """GRAPH_SPEC with its first axis from lo to hi."""
    first, second = GRAPH_SPEC["grid"]["axes"]
    return {**GRAPH_SPEC, "grid": {"axes": [{**first, "min": lo, "max": hi}, second]}}


CURVE = ["equivariant", "--family", "re", "--count", "9"]
LIFT = CURVE + ["--lift-out", "l.csv"]


@pytest.mark.parametrize("argv, code, message", [
    (["graph", "--u", "x1^3", "--lo", "1", "--hi", "0"], 2,
     "grid axis 0 needs max > min, got min 1.0 and max 0.0"),
    (["graph", "--u", "x1^3", "--lo", "0", "--hi", "0"], 2,
     "grid axis 0 needs max > min, got min 0.0 and max 0.0"),
    (["graph", "--u", "x1^3", "--lo", "nan"], 2,
     "grid axis 0 needs max > min, got min nan and max 0.5"),
    (["angle", "--spec", "equal.json"], 2, "grid axis 0 needs max > min, got min 0.5 and max 0.5"),
    (["angle", "--spec", "nan.json"], 2, "grid axis 0 needs max > min, got min -0.5 and max nan"),
    (LIFT + ["--phi-min", "2", "--phi-max", "-2"], 1,
     "argument --phi-max: needs --phi-max > --phi-min, got 2.0 to -2.0"),
    (LIFT + ["--phi-min", "2", "--phi-max", "2"], 1,
     "argument --phi-max: needs --phi-max > --phi-min, got 2.0 to 2.0"),
    (LIFT + ["--phi-min", "nan"], 1,
     "argument --phi-max: needs --phi-max > --phi-min, got nan to 2.0"),
    (["graph", "--u", "x1^3", "--hi", "inf"], 2,
     "grid axis 0 needs a finite max - min, got min -0.5 and max inf"),
    (["graph", "--u", "x1", "--lo=-1e308", "--hi", "1e308"], 2,
     "grid axis 0 needs a finite max - min, got min -1e+308 and max 1e+308"),
    (["angle", "--spec", "inf.json"], 2,
     "grid axis 0 needs a finite max - min, got min -0.5 and max inf"),
    (["graph", "--u", "x1", "--lo=-1e300", "--hi", "1e300"], 2,
     "grid axis 0 needs a spacing whose square is finite, got spacing 6.25e+298 "
     "from min -1e+300 and max 1e+300"),
    (["graph", "--u", "x1^3", "--lo=-1e120", "--hi", "1e120"], 2,
     "immersion values must be finite, got 1089 of 1089 samples with a nan or inf"),
    (["angle", "--spec", "huge.json"], 2, "grid axis 0 needs min and max within double range"),
    (CURVE + ["--phi-min", "2", "--phi-max", "2"], 1,
     "argument --phi-max: needs --phi-max > --phi-min, got 2.0 to 2.0"),
    (CURVE + ["--phi-min", "2", "--phi-max", "-2"], 1,
     "argument --phi-max: needs --phi-max > --phi-min, got 2.0 to -2.0"),
], ids=["graph-reversed", "graph-empty", "graph-nan", "angle-empty", "angle-nan",
        "lift-reversed", "lift-empty", "lift-nan", "graph-inf", "graph-overflow",
        "angle-inf", "graph-spacing-overflow", "graph-value-overflow", "angle-huge-integer",
        "curve-empty", "curve-reversed"])
def test_empty_or_reversed_axis_ranges_are_reported(argv, code, message, tmp_path,
                                                     monkeypatch, capsys):
    # each ended in a traceback or wrote a file before
    monkeypatch.chdir(tmp_path)
    Path("equal.json").write_text(json.dumps(_spec_with_axis(0.5, 0.5)), encoding="utf-8")
    Path("nan.json").write_text(json.dumps(_spec_with_axis(-0.5, math.nan)), encoding="utf-8")
    Path("inf.json").write_text(json.dumps(_spec_with_axis(-0.5, 7.0)).replace("7.0", "1e309"),
                                encoding="utf-8")
    Path("huge.json").write_text(json.dumps(_spec_with_axis(-0.5, 10 ** 400)), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):  # x1^3 overflows
        assert main(argv + ["--out", "o.csv"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {'invalid spec or file: ' if code == 2 else ''}{message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["equal.json", "huge.json", "inf.json",
                                                          "nan.json"]


@pytest.mark.parametrize("u", [
    "x1 +", "y9 + x1", "(" * 250 + "x1" + ")" * 250, "-" * 3000 + "x1",
    "+".join(["x1"] * 5000),
], ids=["syntax", "unknown-variable", "parentheses", "unary-minus", "sum"])
def test_expression_errors_are_invalid_specs(u, tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["graph", f"--u={u}", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: invalid spec or file: ")


@pytest.mark.parametrize("doc", [
    {"kind": "gradient_graph", "params": {"grad": ["x1"]},
     "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 9}] * 2}},
    {"kind": "gradient_graph", "params": {"grad": ["x1", "x2", "x1"]},
     "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 9}] * 2}},
], ids=["short", "long"])
def test_grad_of_another_length_is_an_invalid_spec(doc, tmp_path, capsys):
    spec, out = tmp_path / "g.json", tmp_path / "g.csv"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["angle", "--spec", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert "needs one grad entry per grid axis: 2 axes" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path):
    doc = {
        "kind": "paracomplex_graph",
        "params": {"fx": "x", "fy": "0"},  # not para-holomorphic
        "grid": {"axes": [{"min": -0.5, "max": 0.5, "count": 9},
                          {"min": -0.5, "max": 0.5, "count": 9}]},
    }
    spec = tmp_path / "nh.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["angle", "--spec", str(spec),
                 "--out", str(tmp_path / "o.csv")]) == 3


def test_angle_rejects_paracomplex_graph_as_usage_error(tmp_path, capsys):
    # para-holomorphic, so build succeeds; the J-invariant graph has no angle
    doc = {
        "kind": "paracomplex_graph",
        "params": {"fx": "x^2 + y^2", "fy": "2*x*y"},
        "grid": {"axes": [{"min": 0.1, "max": 0.5, "count": 17},
                          {"min": 0.1, "max": 0.5, "count": 17}]},
    }
    spec = tmp_path / "pc.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["angle", "--spec", str(spec), "--out", str(out)]) == 2
    assert "paracomplex_graph" in capsys.readouterr().err
    assert not out.exists()


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "algebra" in out and "soliton-ode" in out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "bogus"]) == 1


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "normal-bundle"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_phase_definite_meets_drift_gate(tmp_path):
    # the definite lambda' = -1 sweep stays under the 1e-8 drift gate that
    # every trajectory is accepted against
    out_dir = tmp_path / "phase"
    assert main(["phase", "--n", "2", "--lambda-prime", "-1", "--case", "definite",
                 "--r-min", "0.55", "--r-max", "2.25", "--r-count", "3",
                 "--alpha-count", "3", "--out-dir", str(out_dir)]) == 0
    rows = [line.split(",") for line in read_lines(out_dir / "index.csv")[1:]]
    assert len(rows) == 9
    assert all(float(row[5]) < 1e-8 for row in rows)


def test_angle_footer_max_jump_is_worst_neighbour_step(tmp_path):
    doc = torus_spec()
    doc["params"]["C"] = 1.3
    doc["grid"]["axes"][0]["count"] = 64
    doc["grid"]["axes"][1]["count"] = 32
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "torus.csv"
    assert main(["angle", "--spec", str(spec), "--out", str(out)]) == 0
    lines = read_lines(out)
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    theta = np.array([float(r[header.index("theta")]) for r in rows]).reshape(64, 32)
    usable = np.array([r[header.index("degenerate")] == "0" for r in rows]).reshape(64, 32)
    worst = 0.0
    for axis in (0, 1):  # both axes periodic
        pair = usable & np.roll(usable, -1, axis=axis)
        step = np.abs(np.roll(theta, -1, axis=axis) - theta)
        worst = max(worst, float(step[pair].max()))
    assert worst > 0.0
    assert float(footer_value(lines, "max_theta_jump")) == worst


def test_normal_bundle_footer_counts_nan_rows(tmp_path):
    out = tmp_path / "nb.csv"
    assert main(["normal-bundle", "--shape", "circle", "--R", "2", "--t-min", "0",
                 "--t-max", "2", "--t-count", "3", "--out", str(out)]) == 0
    lines = read_lines(out)
    nan_rows = sum(1 for l in lines[1:] if not l.startswith("#") and "nan" in l)
    keys = {l[2:].split("=")[0]: int(l.split("=")[1]) for l in lines
            if l.startswith("# nan_")}
    assert nan_rows == 32
    assert sum(keys.values()) == 32


def test_write_csv_matches_per_cell_format(tmp_path):
    from parakahler.cli import _fmt, _write_csv

    rows = [[0.1, float("nan"), 3, "a", True, -0.0],
            [float("inf"), -float("inf"), np.int64(-7), "b,c", False, np.float64(1e-300)],
            [np.nan, 2.5e17, 0, "", 1, 1 / 3]]
    out = tmp_path / "t.csv"
    _write_csv(out, ["a", "b", "c", "d", "e", "f"], rows, {"k": "v"})
    expect = "a,b,c,d,e,f\n" + "".join(
        ",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
        for row in rows) + "# k=v\n"
    assert out.read_bytes() == expect.encode("utf-8")


@pytest.mark.parametrize("counts", [("1", "1"), ("3", "2")])
def test_phase_trajectory_files_equal_their_own_tables(counts, tmp_path, monkeypatch):
    from parakahler import cli, solitons

    integrate, trajs = solitons.integrate_bidirectional_many, []
    monkeypatch.setattr(solitons, "integrate_bidirectional_many",
                        lambda *a, **k: trajs.extend(integrate(*a, **k)) or trajs)
    assert main(["phase", "--n", "2", "--lambda-prime", "-1", "--case", "definite",
                 "--r-count", counts[0], "--alpha-count", counts[1], "--smax", "3",
                 "--out-dir", str(tmp_path / "phase")]) == 0
    assert len(trajs) == int(counts[0]) * int(counts[1])
    for i, traj in enumerate(trajs):
        alone = tmp_path / f"alone_{i}.csv"
        cli._write_csv(alone, ["s", "r", "alpha", "phi"], np.column_stack([traj.s, traj.states]),
                       {"classification": solitons.classify(traj),
                        "stop_reason": traj.stop_reason})
        assert (tmp_path / "phase" / f"traj_{i:04d}.csv").read_bytes() == alone.read_bytes()


def _loaded_in_fresh_interpreter(code, cwd=None):
    """Names of the modules a fresh interpreter has loaded after running
    code, in cwd, with this parakahler importable, and of their top-level
    packages."""
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
             "print(sorted(set(sys.modules) | {m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300, check=True, cwd=cwd)
    return set(ast.literal_eval(proc.stdout.strip().splitlines()[-1]))


SOLITON_ENGINE = {"parakahler.solitons", "parakahler.equivariant"}


def test_bare_import_loads_neither_scipy_nor_jsonschema(tmp_path):
    loaded = _loaded_in_fresh_interpreter("import parakahler.cli")
    assert "numpy" in loaded
    assert not loaded & ({"scipy", "jsonschema", "parakahler.verify"} | SOLITON_ENGINE)
    code = ("from parakahler.cli import main\n"
            "assert main(['graph', '--u', 'x1*x2', '--count', '9', '--out', 'g.csv']) == 0")
    loaded = _loaded_in_fresh_interpreter(code, cwd=tmp_path)
    assert not loaded & ({"scipy", "jsonschema"} | SOLITON_ENGINE)


def test_cli_subcommands_never_load_scipy(tmp_path):
    (tmp_path / "torus.json").write_text(json.dumps(torus_spec()), encoding="utf-8")
    calls = [
        ["graph", "--u", "x1^3 - x1*x2^2/2", "--count", "17", "--out", "g.csv"],
        ["angle", "--spec", "torus.json", "--out", "a.csv"],
        ["equivariant", "--family", "circle", "--C", "1.3", "--count", "64",
         "--out", "c.csv", "--lift-out", "l.csv"],
        ["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian",
         "--r-count", "2", "--alpha-count", "2", "--out-dir", "p"],
        ["soliton", "--n", "2", "--lambda-prime", "-1", "--case", "definite",
         "--r", "0.9", "--alpha", "0.4", "--bidirectional", "--out", "s.csv"],
    ]
    code = "from parakahler.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in calls)
    loaded = _loaded_in_fresh_interpreter(code, cwd=tmp_path)
    assert not loaded & {"jsonschema", "scipy"}
    assert SOLITON_ENGINE <= loaded  # equivariant, phase and soliton load it
    for name in ("g.csv", "a.csv", "c.csv", "l.csv", "p/index.csv", "s.csv"):
        assert (tmp_path / name).is_file()


VERIFY_SOLITON_ODE = ("from parakahler.cli import main\n"
                      "code = main(['verify', '--suite', 'soliton-ode'])\n")
# a meta-path finder that makes every scipy import fail
NO_SCIPY = """import importlib.abc, sys
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ModuleNotFoundError(f'no module named {name!r}', name=name)
sys.meta_path.insert(0, NoScipy())
try:
    import scipy.integrate
except ModuleNotFoundError:
    pass
else:
    raise SystemExit('scipy was not blocked')
"""


def test_verify_soliton_ode_runs_without_scipy(tmp_path):
    loaded = _loaded_in_fresh_interpreter(VERIFY_SOLITON_ODE + "assert code == 0", cwd=tmp_path)
    assert "parakahler.solitons" in loaded and "scipy" not in loaded
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + NO_SCIPY + VERIFY_SOLITON_ODE + "sys.exit(code)"],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[PASS] phi quadrature matches trajectories" in proc.stdout
    assert "[FAIL]" not in proc.stdout


VERIFY_ONLY = {"parakahler.frames", "parakahler.structures", "parakahler.normalbundle",
               "parakahler.verify"}


def test_cli_commands_load_only_their_own_modules(tmp_path):
    (tmp_path / "torus.json").write_text(json.dumps(torus_spec()), encoding="utf-8")
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH_SPEC), encoding="utf-8")
    null_product = {"kind": "null_product",
                    "params": {"f1": "0.3*s^2", "g1": "s", "f2": "s", "g2": "0.2*s^3"},
                    "grid": {"axes": [{"min": -1.0, "max": 1.0, "count": 9}] * 2}}
    (tmp_path / "null.json").write_text(json.dumps(null_product), encoding="utf-8")
    runs = {
        "graph": [
            ["graph", "--u", "x1^3 - x1*x2^2/2", "--count", "17", "--out", "g.csv"],
            ["angle", "--spec", "graph.json", "--out", "gg.csv"]],
        "angle": [
            ["angle", "--spec", "torus.json", "--out", "a.csv"],
            ["equivariant", "--family", "circle", "--C", "1.3", "--count", "64",
             "--out", "c.csv", "--lift-out", "l.csv"]],
        "null-product": [["angle", "--spec", "null.json", "--out", "np.csv"]],
        "phase": [["phase", "--n", "2", "--lambda-prime", "1", "--case", "lorentzian",
                   "--r-count", "2", "--alpha-count", "1", "--out-dir", "p"]],
        "nijenhuis": [["nijenhuis", "--structure", "pullback", "--count", "9",
                       "--refine", "2", "--out", "n.csv"]],
        "normal-bundle": [["normal-bundle", "--shape", "catenoid", "--out", "b.csv"]],
    }
    loaded = {}
    for run, calls in runs.items():
        code = "from parakahler.cli import main\n" + "".join(
            f"assert main({argv!r}) == 0\n" for argv in calls)
        loaded[run] = _loaded_in_fresh_interpreter(code, cwd=tmp_path)
        assert not loaded[run] & {"jsonschema", "scipy", "parakahler.verify"}
    # the angle commands start none of the verify-only modules, nor the
    # other commands' code, nor the node-set queries (they query whole
    # grids); on a gradient graph, no dataclass either
    for run in ("graph", "angle", "null-product"):
        assert not loaded[run] & (VERIFY_ONLY | {"parakahler.subcommands", "parakahler.nodesets"})
    assert not loaded["graph"] & ({"dataclasses", "parakahler.constructions"} | SOLITON_ENGINE)
    assert "parakahler.constructions" in loaded["null-product"]
    # phase runs from subcommands with the soliton engine, without the suites
    assert {"parakahler.subcommands"} | SOLITON_ENGINE <= loaded["phase"]
    # nijenhuis samples its J-fields from structures, without the suites
    assert "parakahler.structures" in loaded["nijenhuis"]
    assert not loaded["nijenhuis"] & ({"parakahler.normalbundle"} | SOLITON_ENGINE)
    assert "parakahler.normalbundle" in loaded["normal-bundle"]
    assert "parakahler.structures" not in loaded["normal-bundle"]
    for name in ("g.csv", "gg.csv", "a.csv", "c.csv", "l.csv", "np.csv", "p/index.csv",
                 "n.csv", "b.csv"):
        assert (tmp_path / name).is_file()


@pytest.mark.parametrize("argv", [
    ["graph", "--u", "x1^3 - x1*x2^2/2", "--count", "17", "--out", "g.csv"],
    ["equivariant", "--family", "circle", "--C", "1.3", "--count", "16", "--out", "c.csv",
     "--lift-out", "l.csv"],
], ids=["graph", "lift"])
def test_an_angle_run_differentiates_the_grid_once(argv, tmp_path, monkeypatch):
    # angle_field and identity_grid read the tangents of one grid_jet
    monkeypatch.chdir(tmp_path)
    first_differences, calls = geometry._first_differences, []

    def spy(shifted, spacings):
        calls.append(len(spacings))
        return first_differences(shifted, spacings)

    monkeypatch.setattr(geometry, "_first_differences", spy)
    assert main(argv) == 0
    assert calls == [2]


@pytest.fixture
def fresh_policy():
    """cli.keep_freed_memory forgotten before and after the test."""
    cli.keep_freed_memory.cache_clear()
    yield
    cli.keep_freed_memory.cache_clear()


GRAPH_RUNS = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
from parakahler import cli
cli.build_parser()
assert cli.keep_freed_memory.cache_info().currsize == 0  # importing sets nothing
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["graph", "--u", sys.argv[2], "--count", "65", "--out", "g.csv"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.parametrize("argv, bad", [
    (["--u", "x1^3", "--lo=-1e120", "--hi", "1e120"], 1089),
    (["--u", "1/x1"], 99),
    (["--u", "1/0 + x1"], 1089),
], ids=["overflow", "division-by-zero", "constant-division"])
def test_a_non_finite_potential_prints_only_its_error_line(argv, bad, tmp_path):
    # the potential's evaluation and its differences once printed two
    # RuntimeWarnings before the error line, and a constant divided by zero
    # raised ZeroDivisionError
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "from parakahler.cli import main; sys.exit(main(sys.argv[2:]))",
                           src, "graph", *argv, "--out", "g.csv"],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: invalid spec or file: immersion values must be finite, got {bad} of 1089 "
        "samples with a nan or inf"]
    assert not any(tmp_path.iterdir())


@pytest.mark.skipif(cli._mallopt() is None, reason="the C library has no mallopt")
def test_a_repeated_graph_run_takes_no_page_faults(tmp_path):
    # without the policy each 65^2 run faults ~800 times: the allocator hands
    # its large blocks back to the kernel when they are freed
    src = str(Path(parakahler.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", GRAPH_RUNS, src,
                           "0.4*x1^3 - 0.3*x1^2*x2 + 0.2*x1*x2^2 - 0.5*x2^3 + 0.25*x2^2"],
                          capture_output=True, text=True, timeout=300, check=True, cwd=tmp_path)
    faults = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert faults[2] <= 10, faults


def test_the_allocator_policy_does_nothing_without_mallopt(fresh_policy, tmp_path, monkeypatch):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a C library without it
    assert cli._mallopt() is None
    assert cli.keep_freed_memory() is False
    cli.keep_freed_memory.cache_clear()
    assert main(["graph", "--u", "x1*x2", "--count", "9", "--out", str(tmp_path / "g.csv")]) == 0


def test_main_sets_the_allocator_policy_once(fresh_policy, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda *args: calls.append(args))
    for _ in range(2):
        assert main(["graph", "--u", "x1*x2", "--count", "9",
                     "--out", str(tmp_path / "g.csv")]) == 0
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 64 << 20)]
