import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parakahler
from parakahler import catalog
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


def test_nijenhuis_footer_reports_capped_count(tmp_path):
    out = tmp_path / "nj.csv"
    assert main(["nijenhuis", "--structure", "twist", "--count", "9",
                 "--refine", "1", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert footer_value(lines, "count") == "7"
    assert footer_value(lines, "requested_count") == "9"
    out2 = tmp_path / "nj2.csv"
    assert main(["nijenhuis", "--structure", "pullback", "--count", "9",
                 "--refine", "1", "--out", str(out2)]) == 0
    lines = read_lines(out2)
    assert footer_value(lines, "count") == "9"
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
    # nijenhuis samples its J-fields from geometry, without the suites
    code = ("from parakahler.cli import main\n"
            "assert main(['nijenhuis', '--structure', 'pullback', '--count', '9',"
            " '--refine', '2', '--out', 'n.csv']) == 0")
    loaded = _loaded_in_fresh_interpreter(code, cwd=tmp_path)
    assert not loaded & ({"scipy", "jsonschema", "parakahler.verify"} | SOLITON_ENGINE)
    assert (tmp_path / "n.csv").is_file()
