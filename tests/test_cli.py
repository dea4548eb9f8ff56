import json

import pytest

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
