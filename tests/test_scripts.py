"""Each script under scripts/ runs end to end on small arguments."""

import importlib.util
import math
import shutil
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, monkeypatch, *args):
    """The script's main() with args as its command line."""
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return load_script(name).main()


def data_rows(path):
    return [l for l in path.read_text(encoding="utf-8").splitlines()[1:]
            if not l.startswith("#")]


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {
        "cold_start", "command_costs", "convergence_study", "kernel_timings",
        "output_digests", "phase_portrait", "suite_timings", "torus_angle_field"}


def test_convergence_study_prints_second_order_ratios(capsys, monkeypatch):
    assert run_script("convergence_study", monkeypatch) == 0
    ratios = [float(line.rsplit("ratio = ", 1)[1])
              for line in capsys.readouterr().out.splitlines() if "ratio = " in line]
    assert len(ratios) == 4
    assert all(3.5 < r < 4.5 for r in ratios)


def test_kernel_timings_prints_one_row_per_layer(capsys, monkeypatch):
    assert run_script("kernel_timings", monkeypatch, "--counts", "9", "11",
                      "--repeat", "2") == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["9^2", "11^2"]
    assert [row.split()[0] for row in rows] == [
        "gram", "require_lagrangian", "induced_gram", "normal_project",
        "trace_mean_curvature", "d_polar", "angle_field", "identity_grid"]
    assert all(float(t) > 0.0 for row in rows for t in row.split()[1:])


def test_cold_start_prints_both_figures_of_each_tree(capsys, monkeypatch, tmp_path):
    # the copies and their caches live in a temporary directory, gone after
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    src = SCRIPTS.parent / "src"
    assert run_script("cold_start", monkeypatch, "--runs", "2", "--src", str(src), str(src)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("2 fresh interpreters each")
    assert len(lines) == 9 and lines[1] == lines[5] == f"{src}:"
    for line in lines[2:4] + lines[6:8]:
        name, times = line.strip().split("  min ")
        low, median = (float(t.split()[0]) for t in times.split("median"))
        assert name.strip() in ("no bytecode cache", "bytecode cache")
        assert 0.0 < low <= median
    # the modules the children compiled, each with its wc -l
    assert lines[4] == lines[8]
    head, listed = lines[4].split(": ", 1)
    pairs = dict(zip(listed.split()[::2], map(int, listed.split()[1::2])))
    assert head == f"  loaded {len(pairs)} modules, {sum(pairs.values())} lines"
    assert {"parakahler", "cli", "catalog", "lagrangian", "geometry"} <= pairs.keys()
    assert not pairs.keys() & {"subcommands", "constructions", "verify", "frames"}
    assert pairs["cli"] == (src / "parakahler" / "cli.py").read_bytes().count(b"\n")
    assert list(temp_root.iterdir()) == []


def test_command_costs_prints_each_command_of_each_tree(capsys, monkeypatch, tmp_path):
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    src = SCRIPTS.parent / "src"
    assert run_script("command_costs", monkeypatch, "--runs", "1", "--counts", "9", "17",
                      "--suite", "algebra", "--src", str(src), str(src)) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("one cli.main call per fresh interpreter, median of 1:")
    assert len(lines) == 8 and lines[0] == lines[4] == f"{src}:"
    for tree in (lines[1:4], lines[5:8]):
        labels = []
        for line in tree:
            label, figures = line.strip().split("  ", 1)
            seconds, _, faults, _, mb, _ = figures.split()
            assert float(seconds) > 0.0 and int(faults) >= 0 and float(mb) > 0.0
            labels.append(label)
        assert labels == ["graph 9^2", "graph 17^2", "verify --suite algebra"]
    assert list(temp_root.iterdir()) == []


def test_suite_timings_prints_each_suite_of_each_tree_and_the_rounds_won(capsys, monkeypatch):
    src = SCRIPTS.parent / "src"
    assert run_script("suite_timings", monkeypatch, "--rounds", "1", "--passes", "1",
                      "--src", str(src), str(src)) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("phase sweeps and nine verify suites in-process, 1 rounds x 1 "
                             "passes")
    script = load_script("suite_timings")
    suites = script.SUITES
    assert len(suites) == 9 and "soliton-ode" not in suites
    assert len(lines) == 2 * 13 + 1 and lines[0] == lines[13] == f"{src}:"
    for tree in (lines[1:13], lines[14:26]):
        names, ms = zip(*(line.rsplit(None, 1) for line in tree))
        assert [n.strip() for n in names] == [script.PHASE, *suites, "suites", "total"]
        assert all(float(t) > 0.0 for t in ms)
        assert abs(sum(map(float, ms[1:-2])) - float(ms[-2])) < 0.1
        assert abs(float(ms[0]) + float(ms[-2]) - float(ms[-1])) < 0.1
    assert lines[-1] in (f"{src} beat {src} in {k} of 1 rounds" for k in (0, 1))


def test_suite_timings_checks_prints_every_check_of_each_tree_once(capsys, monkeypatch):
    from parakahler import verify

    src = SCRIPTS.parent / "src"
    assert run_script("suite_timings", monkeypatch, "--rounds", "1", "--passes", "1",
                      "--checks", "--src", str(src), str(src)) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    suites = load_script("suite_timings").SUITES
    want = [f"{suite}: {check.name}" for suite in suites for check in verify.run_suite(suite)]
    assert len(set(want)) == len(want)
    per_tree = 13 + len(want)
    assert len(lines) == 2 * per_tree + 1 and lines[0] == lines[per_tree] == f"{src}:"
    for tree in (lines[13:per_tree], lines[per_tree + 13:]):
        names, ms = zip(*(line.rsplit(None, 1) for line in tree[:len(want)]))
        assert [n.strip() for n in names] == want
        assert all(float(t) >= 0.0 for t in ms)


def test_suite_timings_times_checks_only_with_checks():
    # without --checks the children leave verify._check unwrapped
    script = load_script("suite_timings")
    assert script.run_child(SCRIPTS.parent / "src", 1)["checks"] == {}


def test_suite_timings_runs_the_benchmark_phase_sweeps(monkeypatch):
    # seed 61 of perfbench's PhaseSweep, the inputs of phase_verify's passes
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SCRIPTS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    want = [argv[:-2] for argv in workloads.PhaseSweep(61).argvs(Path("out"))]
    assert load_script("suite_timings").phase_argvs() == want


def test_phase_portrait_writes_one_csv_per_orbit(tmp_path, monkeypatch):
    out_dir = tmp_path / "phase"
    assert run_script("phase_portrait", monkeypatch, "--out-dir", str(out_dir)) == 0
    assert len(data_rows(out_dir / "index.csv")) == 8 * 7
    assert len(list(out_dir.glob("traj_*.csv"))) == 8 * 7


def test_torus_angle_field_leaves_no_temp_file(tmp_path, monkeypatch):
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    out = tmp_path / "out" / "torus.csv"
    assert run_script("torus_angle_field", monkeypatch, "--count", "16", "--out", str(out)) == 0
    assert len(data_rows(out)) == 16 * 8
    assert list(temp_root.iterdir()) == []



def test_output_digests_lists_every_output_the_same_way_twice(capsys, monkeypatch):
    # one sha256 per CSV the fixed command set writes, then the verify
    # report's; CLI outputs are byte-identical reruns, so are the listings
    args = ("--count", "11", "--suite", "algebra")
    assert run_script("output_digests", monkeypatch, *args) == 0
    first = capsys.readouterr().out
    assert run_script("output_digests", monkeypatch, *args) == 0
    assert capsys.readouterr().out == first
    digests, names = zip(*(line.split("  ", 1) for line in first.splitlines()))
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert len(set(names)) == len(names)
    assert {"graph2.csv", "graph3.csv", "angle_torus.csv", "angle_soliton_lift.csv",
            "circle_lift.csv", "re3_lift.csv", "soliton_one_way.csv",
            "soliton_two_way.csv", "normal_bundle.csv", "nijenhuis.csv",
            "phase_lorentzian/index.csv", "phase_definite/traj_0024.csv"} <= set(names)
    assert names[-1] == "verify --suite algebra (stdout)"


def _kept(monkeypatch, path):
    """path, the --keep directory of a small output_digests run."""
    assert run_script("output_digests", monkeypatch, "--count", "11", "--suite", "algebra",
                      "--keep", str(path)) == 0
    return path


def _edit_cell(path, column, pick, edit):
    """Replace the first data cell of column that pick(cell) accepts with
    edit(cell), in the CSV at path."""
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    k = header.rstrip("\n").split(",").index(column)
    for i, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        if not line.startswith("#") and pick(cells[k]):
            cells[k] = edit(cells[k])
            lines[i] = ",".join(cells) + "\n"
            break
    path.write_text(header + "".join(lines), encoding="utf-8")


def _compare(monkeypatch, capsys, old, new):
    capsys.readouterr()
    code = run_script("output_digests", monkeypatch, "--compare", str(old), str(new))
    return code, capsys.readouterr().out.splitlines()


def test_output_digests_compare_reports_nothing_for_identical_runs(tmp_path, capsys,
                                                                   monkeypatch):
    old, new = _kept(monkeypatch, tmp_path / "old"), _kept(monkeypatch, tmp_path / "new")
    assert (old / "verify.txt").read_text(encoding="utf-8").startswith("== algebra\n")
    assert _compare(monkeypatch, capsys, old, new) == (0, [])


def test_output_digests_compare_counts_each_kind_of_move(tmp_path, capsys, monkeypatch):
    # one cell a double up, one nan cell a number, one footer value and one
    # verify line changed: each is reported once, in its own column
    old = _kept(monkeypatch, tmp_path / "old")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    _edit_cell(new / "graph2.csv", "theta", lambda c: c != "nan",
               lambda c: repr(math.nextafter(float(c), math.inf)))
    _edit_cell(new / "graph3.csv", "residual", lambda c: c == "nan", lambda c: "0.5")
    bundle = new / "normal_bundle.csv"
    bundle.write_text(bundle.read_text(encoding="utf-8").replace("# shape=circle",
                                                                 "# shape=square"),
                      encoding="utf-8")
    report = new / "verify.txt"
    first = report.read_text(encoding="utf-8").splitlines()[1]
    report.write_text(report.read_text(encoding="utf-8").replace(first, first + " (moved)"),
                      encoding="utf-8")
    code, lines = _compare(monkeypatch, capsys, old, new)
    assert code == 1 and len(lines) == 4
    theta, residual, shape, check = lines
    assert theta.startswith("graph2.csv  theta  changed=1  ")
    assert "max_ulp=1  nan=0  inf=0  text=0" in theta
    assert residual.startswith("graph3.csv  residual  changed=1  max_abs=0  max_rel=0  ")
    assert residual.endswith("nan=1  inf=0  text=0")
    assert shape == "normal_bundle.csv  # shape: circle -> square"
    assert check == f"verify algebra: {first} -> {first} (moved)"


def test_output_digests_compare_skips_the_cells_of_a_file_whose_rows_differ(
        tmp_path, capsys, monkeypatch):
    old = _kept(monkeypatch, tmp_path / "old")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    one_way = new / "soliton_one_way.csv"
    lines = one_way.read_text(encoding="utf-8").splitlines(keepends=True)
    one_way.write_text("".join(lines[:2] + lines[3:]).replace("# accepted=true",
                                                              "# accepted=false"),
                       encoding="utf-8")
    rows = sum(not line.startswith("#") for line in lines) - 1
    assert _compare(monkeypatch, capsys, old, new) == (1, [
        f"soliton_one_way.csv  rows: {rows} -> {rows - 1}; cells not compared",
        "soliton_one_way.csv  # accepted: true -> false"])
