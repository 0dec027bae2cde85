"""Tests for the command-line interface and run reports."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import polysum
from polysum.cli import run_command
from polysum.jsonio import dump_json


def run(argv):
    return run_command(argv)


def test_phi_prints_value(capsys):
    code, report = run(["phi", "--ell", "3", "--n", "5,5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "100"
    assert report.outputs["value"] == 100


def test_phi_bad_args_exit_2(capsys):
    code, _ = run(["phi", "--ell", "1", "--n", "5,5"])
    assert code == 2


def test_usage_error_exit_2():
    code, _ = run(["bogus-command"])
    assert code == 2
    code, _ = run([])
    assert code == 2


def test_bound_trivial(capsys):
    code, report = run(["bound", "--kind", "trivial", "--k", "1", "--d", "5", "--n", "5,5"])
    assert code == 0
    assert report.outputs["value"] == 100
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["value"] == 100


def test_bound_three(capsys):
    code, report = run(["bound", "--kind", "three", "--n", "4,4"])
    assert code == 0
    assert report.outputs["values"] == {"f0": 16, "f1": 32, "f2": 18}


def test_bound_two(capsys):
    code, report = run(["bound", "--kind", "two", "--k", "1", "--d", "3", "--n", "4,4"])
    assert code == 0
    assert report.outputs["value"] == 16


def test_bound_zonotope(capsys):
    code, report = run(["bound", "--kind", "zonotope", "--ell", "0", "--d", "2", "--n", "3"])
    assert code == 0
    assert report.outputs["value"] == 6


def test_bound_f0_many(capsys):
    code, report = run(["bound", "--kind", "f0-many", "--d", "3", "--n", "4,4,4"])
    assert code == 0
    assert report.outputs["values"]["weibel"] == 38
    code, _ = run(["bound", "--kind", "f0-many", "--d", "3", "--n", "4,4"])
    assert code == 2  # r < d rejected


def test_hull_command(tmp_path, capsys):
    poly = {
        "ambient_dim": 2,
        "points": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(poly))
    out = tmp_path / "lattice.json"
    code, report = run(["hull", "--inputs", str(path), "--out", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["outputs"]["lattice"]["f_vector"] == [4, 4]
    assert saved["passed"] is True


def test_minksum_both_and_mismatch_exit(tmp_path, capsys):
    a = {"ambient_dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
    b = {"ambient_dim": 2, "points": [["0", "0"], ["-1", "2"], ["-2", "-1"]]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    out = tmp_path / "fvec.json"
    code, report = run(["minksum", "--inputs", str(pa), str(pb), "--method", "both", "--out", str(out)])
    assert code == 0
    assert report.outputs["f_cayley"] == report.outputs["f_direct"]
    assert report.outputs["f_vector"] == [6, 6]


def test_minksum_single_method(tmp_path, capsys):
    a = {"ambient_dim": 1, "points": [["0"], ["1"]]}
    b = {"ambient_dim": 1, "points": [["0"], ["2"]]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, report = run(["minksum", "--inputs", str(pa), str(pb), "--method", "direct"])
    assert code == 0
    assert report.outputs["f_vector"] == [2]


def test_construct_writes_family(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, report = run(["construct", "--d", "3", "--r", "2", "--n", "3,3", "--out", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert len(saved["outputs"]["parts"]) == 2
    assert saved["outputs"]["tau_star"]
    assert saved["outputs"]["zeta_diamond"]


def test_construct_alpha_override(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, report = run(
        ["construct", "--d", "3", "--r", "2", "--n", "2,2",
         "--alpha", "1,3;1/2,5/2", "--out", str(out)]
    )
    assert code == 0
    saved = json.loads(out.read_text())
    part2 = saved["outputs"]["parts"][1]["points"]
    # part 2 uses nu_r = 0, so its curve parameters are the alphas themselves
    assert part2[0][1] == "1/2"
    assert part2[1][1] == "5/2"


def test_verify_tight_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report = run(["verify-tight", "--d", "3", "--r", "2", "--n", "3,3", "--report", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["passed"] is True
    assert saved["outputs"]["f_via_cayley"][0] == 9


def test_delta_command(tmp_path, capsys):
    spec = {"kappa": [2, 2], "beta": [1, 0], "x": [["1", "2"], ["3", "5"]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "delta.json"
    code, report = run(["delta", "--spec", str(path), "--find-tau0", "--report", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["outputs"]["positivity"]["tau0"] == "1"
    names = [c["name"] for c in saved["checks"]]
    assert "brute_force_lowest_degree" in names


def test_hull_method_flag_is_gone(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    code, _ = run(["hull", "--inputs", str(path), "--method", "guided"])
    assert code == 2


def test_float_coordinate_exit_2(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [[0.5, 0], [1, 0], [0, 1]]}))
    code, report = run(["hull", "--inputs", str(path)])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_exhausted_halving_budget_exit_2(capsys):
    code, report = run(["verify-tight", "--d", "5", "--r", "2", "--n", "5,5", "--max-halvings", "1"])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: tau search: no certificate after 1 halvings"]


def test_minksum_runs_without_numpy_or_scipy(tmp_path):
    # the instance of test_oracle_equivalence_large_direct_hull: its direct
    # hull has over 120,000 candidate 3-subsets
    rng = random.Random(777)
    files = []
    for i in range(3):
        pts = sorted({tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(5)})
        path = tmp_path / f"part{i}.json"
        path.write_text(json.dumps({"ambient_dim": 3, "points": [[str(x) for x in p] for p in pts]}))
        files.append(str(path))
    out = tmp_path / "fvec.json"
    argv = ["minksum", "--inputs", *files, "--method", "both", "--out", str(out)]
    script = "\n".join(
        [
            "import sys",
            "sys.modules['numpy'] = sys.modules['scipy'] = None",
            "from polysum.cli import run_command",
            f"sys.exit(run_command({argv!r})[0])",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polysum.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True


def test_selftest_runs(capsys):
    code, report = run(["selftest"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok   - euler_relation_on_random_hulls" in out
    assert report.passed


def test_failed_check_exits_1(monkeypatch):
    import polysum.cli as cli

    def broken(args, report):
        report.check("always_fails", 1, 2)

    monkeypatch.setitem(cli._HANDLERS, "selftest", broken)
    code, report = run(["selftest"])
    assert code == 1
    assert not report.passed


def test_reports_are_deterministic(tmp_path):
    argv = ["bound", "--kind", "two", "--k", "2", "--d", "4", "--n", "5,5"]
    _, r1 = run(argv)
    _, r2 = run(argv)
    assert dump_json(r1.to_dict(), None) == dump_json(r2.to_dict(), None)


def test_selftest_deterministic_bytes(tmp_path):
    out = tmp_path / "report.json"
    code1, _ = run(["selftest", "--out", str(out)])
    first = out.read_bytes()
    code2, _ = run(["selftest", "--out", str(out)])
    assert code1 == code2 == 0
    assert out.read_bytes() == first


def test_report_roundtrip(tmp_path):
    _, report = run(["bound", "--kind", "three", "--n", "5,4"])
    text = dump_json(report.to_dict(), None)
    assert json.loads(text) == report.to_dict()


def test_timing_flag_adds_timing():
    _, report = run(["--timing", "phi", "--ell", "2", "--n", "3,4"])
    assert report.timing is not None and "total_seconds" in report.timing
    _, plain = run(["phi", "--ell", "2", "--n", "3,4"])
    assert plain.timing is None
