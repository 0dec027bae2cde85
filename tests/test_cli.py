"""Tests for the command-line interface and run reports."""

import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polysum
import polysum.cli
import polysum.detasym
from polysum.cli import _build_parser, run_command
from polysum.jsonio import dump_json


def run(argv):
    return run_command(argv)


@pytest.fixture(autouse=True)
def reports_match_the_json_module(monkeypatch):
    """Every report a test here writes is checked byte for byte against
    ``json.dumps(data, indent=2, sort_keys=True)``."""

    def checked(data, path):
        text = dump_json(data, path)
        assert text == json.dumps(data, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(polysum.cli, "dump_json", checked)


def test_phi_prints_value(capsys):
    code, report = run(["phi", "--ell", "3", "--n", "5,5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "100"
    assert report.outputs["value"] == 100


def test_phi_checks_brute_force_only_below_its_cap(capsys):
    _, small = run(["phi", "--ell", "3", "--n", "5,5"])
    assert [c["name"] for c in small.checks] == ["phi_matches_composition_sum"]
    # C(28, 14) = 40,116,600 subsets, far above the cap
    start = time.perf_counter()
    code, report = run(["phi", "--ell", "14", "--n", "14,14"])
    assert time.perf_counter() - start < 1
    assert code == 0 and report.checks == []
    assert report.outputs["value"] == polysum.phi(14, (14, 14))
    assert capsys.readouterr().out.split()[-1] == str(report.outputs["value"])


def test_phi_bad_args_exit_2(capsys):
    code, _ = run(["phi", "--ell", "1", "--n", "5,5"])
    assert code == 2
    for argv in (["phi", "--ell", "3", "--n=-2,6"], ["phi", "--ell", "5", "--n", "0,3,4"]):
        capsys.readouterr()
        code, report = run(argv)
        assert code == 2 and report is None, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: every summand needs at least one vertex"], argv


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
    # the whole f-vector of C_4(8): closed form against the hull
    assert report.checks == [
        {"name": "cyclic_fvector_matches_hull", "expected": [8, 28, 40, 20], "actual": [8, 28, 40, 20], "pass": True}
    ]


def test_bound_two_checks_the_hull_only_below_its_cap(capsys):
    # C_7(18) has 10,094 faces, under the cap: the hull check runs
    code, report = run(["bound", "--kind", "two", "--k", "3", "--d", "6", "--n", "9,9"])
    assert code == 0
    assert [(c["name"], c["pass"]) for c in report.checks] == [("cyclic_fvector_matches_hull", True)]
    # C_10(24) has 576,256 faces, far above it: the value comes with no hull
    start = time.perf_counter()
    code, report = run(["bound", "--kind", "two", "--k", "3", "--d", "9", "--n", "12,12"])
    assert time.perf_counter() - start < 1
    assert code == 0 and report.checks == []
    assert report.outputs["value"] == polysum.two_polytope_bound(3, 9, 12, 12)


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


SQUARE = [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]


def face(dim, *vertices):
    return {"dim": dim, "vertices": list(vertices)}


@pytest.mark.parametrize(
    "points, lattice",
    [
        # a square with vertex (2, 0) given twice: the vertex lists both copies
        (
            SQUARE + [["2", "0"]],
            {
                "dims": [2, 2],
                "faces": [
                    face(0, 0), face(0, 1, 4), face(0, 2), face(0, 3),
                    face(1, 0, 1, 4), face(1, 0, 3), face(1, 1, 2, 4), face(1, 2, 3),
                    face(2, 0, 1, 2, 3, 4),
                ],
                "f_vector": [4, 4],
            },
        ),
        # the same square with the interior point (1, 1) among its points
        (
            SQUARE[:2] + [["1", "1"]] + SQUARE[2:] + [["2", "0"]],
            {
                "dims": [2, 2],
                "faces": [
                    face(0, 0), face(0, 1, 5), face(0, 3), face(0, 4),
                    face(1, 0, 1, 5), face(1, 0, 4), face(1, 1, 3, 5), face(1, 3, 4),
                    face(2, 0, 1, 3, 4, 5),
                ],
                "f_vector": [4, 4],
            },
        ),
        # a segment in R^3 with its midpoint
        (
            [["1", "2", "3"], ["3", "2", "1"], ["2", "2", "2"]],
            {
                "dims": [3, 1],
                "faces": [face(0, 0), face(0, 1), face(1, 0, 1)],
                "f_vector": [2],
            },
        ),
    ],
)
def test_hull_report_lattice_is_pinned(tmp_path, capsys, points, lattice):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"ambient_dim": len(points[0]), "points": points}))
    code, report = run(["hull", "--inputs", str(path)])
    assert code == 0
    assert report.outputs["lattice"] == lattice


def test_minksum_cayley_accepts_mixed_labels(tmp_path, capsys):
    """Labels 1 and "1" differ, and the lifted point set keeps no labels to collide."""
    a = {"ambient_dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]], "labels": [1, "1", "x"]}
    b = {"ambient_dim": 2, "points": [["0", "0"], ["-1", "2"], ["-2", "-1"]], "labels": ["1", 1, 2]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    for method in ("cayley", "both"):
        code, report = run(["minksum", "--inputs", str(pa), str(pb), "--method", method])
        assert code == 0, capsys.readouterr().err
        assert report.outputs["f_vector"] == [6, 6]
    assert report.outputs["f_cayley"] == report.outputs["f_direct"]


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


def test_construct_alpha_past_n_r(tmp_path, capsys):
    # the last alpha exceeds n_r: the witness tail anchor moves past it
    out = tmp_path / "family.json"
    code, report = run(
        ["construct", "--d", "3", "--r", "2", "--n", "2,2",
         "--alpha", "1,5;1,5", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
    assert checks == {"tau_checks_complete": True, "zeta_checks_complete": True}


def test_construct_rejects_close_alphas(capsys):
    code, report = run(["construct", "--d", "3", "--r", "2", "--n", "2,2", "--alpha", "1,6/5;1,2"])
    assert code == 2 and report is None
    assert "more than 1/4 apart" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["", " "], ids=["empty", "blank"])
def test_construct_rejects_empty_alpha(alpha, capsys):
    # an empty --alpha is bad input, not a request for the default alphas
    code, report = run(["construct", "--d", "3", "--r", "2", "--n", "2,2", "--alpha", alpha])
    assert code == 2 and report is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must provide n_i values for part i\n"


def test_verify_tight_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report = run(["verify-tight", "--d", "3", "--r", "2", "--n", "3,3", "--report", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["passed"] is True
    assert saved["outputs"]["f_via_cayley"][0] == 9
    # checks and the verdict live at the top level only
    assert "checks" not in saved["outputs"] and "passed" not in saved["outputs"]
    names = [c["name"] for c in saved["checks"]]
    assert len(names) == len(set(names)) > 0


def test_verify_tight_low_dimensional_lifted_hull_exits_0(tmp_path, capsys):
    # two single-point summands: the lifted hull is a segment, its own one
    # spanning 1-face, and the sum is a point with f_0 = 1
    out = tmp_path / "report.json"
    code, report = run(["verify-tight", "--d", "3", "--r", "2", "--n", "1,1", "--report", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    saved = json.loads(out.read_text())
    assert saved["passed"] is True
    actual = {c["name"]: c["actual"] for c in saved["checks"]}
    assert actual["spanning_faces_dim_1"] == 1
    assert actual["f_0_tight"] == 1


def test_verify_tight_report_is_pinned(tmp_path, capsys):
    certificate = {"determinants_checked": 36, "expected_checks": 36, "halvings": 0}
    pinned = {
        "command": "verify-tight",
        "inputs": {"d": 3, "max_halvings": 64, "n": [3, 3], "r": 2},
        "outputs": {
            "d": 3,
            "r": 2,
            "n": [3, 3],
            "tau_star": "1",
            "zeta_diamond": "1",
            "tau_certificate": certificate,
            "zeta_certificate": certificate,
            "f_via_cayley": [9, 16, 9],
            "f_direct": [9, 16, 9],
        },
        "checks": passed_checks(
            ("oracle_equality", [9, 16, 9], [9, 16, 9]),
            ("spanning_faces_dim_1", 9, 9),
            ("f_0_tight", 9, 9),
            ("f_1_upper_bound", 18, 16),
            ("f_2_upper_bound", 15, 9),
            ("certified_subsets_are_faces", 9, 9),
            ("part_1_dim", 2, 2),
            ("part_1_neighborly", True, True),
            ("part_2_dim", 2, 2),
            ("part_2_neighborly", True, True),
        ),
        "passed": True,
    }
    argv = ["verify-tight", "--d", "3", "--r", "2", "--n", "3,3"]
    assert run(argv)[0] == 0
    assert capsys.readouterr().out == json.dumps(pinned, indent=2, sort_keys=True) + "\n"
    out = tmp_path / "report.json"
    pinned["inputs"]["report"] = str(out)
    assert run(argv + ["--report", str(out)])[0] == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == json.dumps(pinned, indent=2, sort_keys=True) + "\n"


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


def test_delta_find_tau0_is_accepted_and_ignored(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kappa": [2, 2], "beta": [1, 0], "x": [["1", "2"], ["3", "5"]]}))
    _, with_flag = run(["delta", "--spec", str(path), "--find-tau0"])
    _, without = run(["delta", "--spec", str(path)])
    assert with_flag.inputs.pop("find_tau0") is True and without.inputs.pop("find_tau0") is False
    assert with_flag.to_dict() == without.to_dict()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["delta", "--help"])
    assert "accepted and ignored" in " ".join(capsys.readouterr().out.split())


def passed_checks(*pairs):
    return [{"actual": a, "expected": e, "name": name, "pass": True} for name, e, a in pairs]


DELTA_POSITIVE = [
    ("delta_positive_at_tau0", True, True),
    ("delta_positive_at_half_tau0", True, True),
]


# the K = 8 spec of CI: the brute-force polynomial runs
K8_SPEC = {"kappa": [3, 3, 2], "beta": [4, 2, 0], "x": [["1/2", "1", "3/2"], ["1/3", "2/3", "5/3"], ["1/5", "2"]]}
# the benchmark's spec018-K7: tau0 = 1 although Delta < 0 at 13/16 and 7/8
K7_SPEC = {"kappa": [4, 3], "beta": [3, 0], "x": [["2", "4", "6", "8"], ["3/2", "3", "4"]]}
# K = 14, past the brute-force cap; one block with kappa = 2
K14_SPEC = {
    "kappa": [5, 4, 3, 2],
    "beta": [3, 2, 1, 0],
    "x": [["3/2", "5/3", "2", "9/4", "5/2"], ["1/3", "3/4", "2", "5/2"], ["6/5", "7/5", "8/5"], ["2/7", "3"]],
}


@pytest.mark.parametrize(
    "spec, positivity, checks",
    [
        (
            K8_SPEC,
            {
                "tau0": "1/2",
                "halvings": 1,
                "theta": 20,
                "coefficient": "8/15",
            },
            passed_checks(
                *DELTA_POSITIVE,
                ("brute_force_lowest_degree", 20, 20),
                ("brute_force_leading_coefficient", "8/15", "8/15"),
                (
                    "brute_force_matches_evaluator",
                    ["23/62914560", "119/263882790666240"],
                    ["23/62914560", "119/263882790666240"],
                ),
            ),
        ),
        (
            K14_SPEC,
            {
                "tau0": "1/4",
                "halvings": 2,
                "theta": 62,
                "coefficient": "23746321076569/24461180928000",
            },
            passed_checks(*DELTA_POSITIVE),
        ),
        (
            K7_SPEC,
            {"tau0": "1", "halvings": 0, "theta": 18, "coefficient": "143280"},
            passed_checks(
                *DELTA_POSITIVE,
                ("brute_force_lowest_degree", 18, 18),
                ("brute_force_leading_coefficient", "143280", "143280"),
                ("brute_force_matches_evaluator", ["56880", "22095/65536"], ["56880", "22095/65536"]),
            ),
        ),
    ],
    ids=["K8", "K14", "K7"],
)
def test_delta_report_is_pinned(tmp_path, spec, positivity, checks):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "delta.json"
    code, _ = run(["delta", "--spec", str(path), "--report", str(out)])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["outputs"] == {"positivity": positivity}
    assert saved["checks"] == checks


def test_delta_brute_force_checks_evaluator_values(tmp_path, monkeypatch):
    # an evaluator with every sign right but every value doubled passes the
    # positivity checks; at K <= 8 the polynomial's values catch it
    evaluator = polysum.detasym._evaluator
    monkeypatch.setattr(polysum.detasym, "_evaluator", lambda spec: lambda tau: 2 * evaluator(spec)(tau))
    results = {}
    for name, spec in (("K8", K8_SPEC), ("K14", K14_SPEC)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        results[name] = run(["delta", "--spec", str(path)])
    code, report = results["K8"]
    failed = [c["name"] for c in report.checks if not c["pass"]]
    assert code == 1 and "brute_force_matches_evaluator" in failed
    assert report.checks[0]["pass"] and report.checks[1]["pass"]  # the signs still hold
    _, report = results["K14"]
    assert "brute_force_matches_evaluator" not in [c["name"] for c in report.checks]


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


@pytest.mark.parametrize("flag", ["hull --inputs", "minksum --inputs", "delta --spec"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    argv = flag.split() + [str(path)] * (2 if flag.startswith("minksum") else 1)
    code, report = run(argv)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: JSON nested too deeply to parse"]


def test_exhausted_halving_budget_exit_2(capsys):
    code, report = run(["verify-tight", "--d", "5", "--r", "2", "--n", "5,5", "--max-halvings", "1"])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: tau search: no certificate after 1 halvings"]


def test_delta_exhausted_halving_budget_exit_2(tmp_path, capsys):
    spec = {"kappa": [3, 3], "beta": [4, 0], "x": [["3/2", "5/2", "3"], ["3/2", "2", "5/2"]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(["delta", "--spec", str(path), "--find-tau0", "--max-halvings", "0"])
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.splitlines() == ["error: tau0 search: no certificate after 0 halvings"]


@pytest.mark.parametrize("target", ["missing-dir", "dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--ell", "3", "--n", "5,5", "--out"],
        ["verify-tight", "--d", "3", "--r", "2", "--n", "3,3", "--report"],
    ],
)
def test_unwritable_report_path_exit_2(tmp_path, capsys, argv, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, report = run([*argv, str(path)])
    assert (code, report) == (2, None)
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    assert out == ""


@pytest.mark.parametrize("command", ["construct", "verify-tight", "delta"])
def test_negative_max_halvings_exit_2(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kappa": [3, 3], "beta": [4, 0], "x": [["3/2", "5/2", "3"], ["3/2", "2", "5/2"]]}))
    args = ["--spec", str(path)] if command == "delta" else ["--d", "3", "--r", "2", "--n", "3,3"]
    code, report = run([command, *args, "--max-halvings", "-1"])
    assert (code, report) == (2, None)
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: --max-halvings must be at least 0, got -1"]


@pytest.mark.parametrize(
    "doc",
    [
        {"kappa": 5, "beta": [1, 0], "x": [["1", "2"], ["3", "5"]]},
        {"kappa": [2, 2], "beta": [1, 0], "x": [["1", None], ["3", "5"]]},
        [[2, 2], [1, 0]],
        {"kappa": [2, 2], "beta": [1, 0]},
        {"kappa": [2, 2], "beta": "1", "x": [["1", "2"], ["3", "5"]]},
        {"kappa": [True, 2], "beta": [1, 0], "x": [["1", "2"], ["3", "5"]]},
        {"kappa": [2, 2], "beta": [False, 0], "x": [["1", "2"], ["3", "5"]]},
        {"kappa": [2, 2], "beta": [1, 0], "x": [["1", True], ["3", "5"]]},
    ],
)
def test_malformed_delta_spec_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run(["delta", "--spec", str(path), "--find-tau0"])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith('error: a delta spec is {"kappa"')


HUGE = "1e99999999"


@pytest.mark.parametrize(
    "command, files",
    [
        (["hull", "--inputs", "a.json"], {"a.json": {"ambient_dim": 2, "points": [["0", "0"], ["1", HUGE], ["0", "1"]]}}),
        (
            ["minksum", "--inputs", "a.json", "b.json", "--method", "both"],
            {
                "a.json": {"ambient_dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]},
                "b.json": {"ambient_dim": 2, "points": [["0", "0"], [HUGE, "0"], ["0", "1"]]},
            },
        ),
        (["delta", "--spec", "a.json"], {"a.json": {"kappa": [2, 2], "beta": [1, 0], "x": [["1", "2"], ["3", HUGE]]}}),
        (["construct", "--d", "3", "--r", "2", "--n", "2,2", "--alpha", f"1,3;1,{HUGE}"], {}),
    ],
)
def test_exponent_notation_exit_2(tmp_path, command, files):
    # the number is refused as written, before 10^99999999 is built: a fresh
    # process, so a parse that never ends fails on the timeout
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(polysum.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "polysum.cli", *command],
        env=env, capture_output=True, text=True, cwd=tmp_path, timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: '{HUGE}': exponent notation is not allowed; write an integer, 'p/q' or a decimal"]


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--kind", "trivial", "--d", "5", "--n", "5,5"], "--k"),
        (["--kind", "three"], "--n"),
        (["--kind", "two", "--d", "3", "--n", "4,4"], "--k"),
        (["--kind", "zonotope", "--d", "2", "--n", "3"], "--ell"),
        (["--kind", "f0-many", "--n", "4,4,4"], "--d"),
    ],
)
def test_bound_missing_option_exit_2(argv, missing, capsys):
    code, report = run(["bound", *argv])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(f"requires {missing}")


@pytest.mark.parametrize(
    "argv, want, got",
    [
        (["--kind", "three", "--n", "4,5,6"], "2 values", 3),
        (["--kind", "two", "--k", "1", "--d", "3", "--n", "4"], "2 values", 1),
        (["--kind", "zonotope", "--ell", "0", "--d", "2", "--n", "3,4"], "1 value", 2),
    ],
)
def test_bound_n_length_exit_2(argv, want, got, capsys):
    code, report = run(["bound", *argv])
    assert (code, report) == (2, None)
    kind = argv[1]
    assert capsys.readouterr().err.splitlines() == [
        f"error: bound --kind {kind} requires --n with {want}, got {got}"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-tight", "--d", "4", "--r", "2", "--n", "3"], "n has 1 value, r = 2 needs 2"),
        (["construct", "--d", "5", "--r", "3", "--n", "3,3"], "n has 2 values, r = 3 needs 3"),
        (["verify-tight", "--d", "4", "--r", "2", "--n", "3,0"], "need a positive vertex count per part"),
    ],
    ids=["one-value-r2", "two-values-r3", "zero-count"],
)
def test_family_n_length_exit_2(argv, message, capsys):
    code, report = run(argv)
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "doc",
    [
        {"ambient_dim": 2, "points": 5},
        {"ambient_dim": None, "points": [["0", "0"], ["1", "0"]]},
        {"points": [["0", "0"], ["1", "0"]]},
        {"ambient_dim": 2, "points": [["0", None], ["1", "0"]]},
        {"ambient_dim": 2, "points": [["0", "1/0"], ["1", "0"]]},
        {"ambient_dim": 2, "points": [["0", "0"], ["1", "0"]], "labels": [["a"], ["b"]]},
        [["0", "0"], ["1", "0"]],
        {"ambient_dim": 2, "points": [["1", "2"]], "labels": []},
    ],
)
@pytest.mark.parametrize("command", ["hull", "minksum"])
def test_malformed_point_file_exit_2(tmp_path, capsys, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run([command, "--inputs", str(path)])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"ambient_dim": True, "points": [["0"], ["1"]]},
        {"ambient_dim": 2, "points": [["0", False], ["1", "0"]]},
        {"ambient_dim": 2, "points": [["0", "0"], ["1", "0"]], "labels": [True, False]},
    ],
)
def test_json_booleans_are_not_integers_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run(["hull", "--inputs", str(path)])
    assert (code, report) == (2, None)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith('error: a point set is {"ambient_dim"')


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


def test_module_entry_point_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(polysum.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "polysum.cli", "bound", "--kind", "three", "--n", "4,4"],
        env=env, capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["values"] == {"f0": 16, "f1": 32, "f2": 18}


def test_closed_stdout_exit_2(tmp_path):
    # C_4(40): a hull report of about 374 KB, far past a 64 KiB pipe buffer,
    # so the write meets the closed pipe instead of fitting in the buffer
    path = tmp_path / "c4-40.json"
    points = [[str(t**k) for k in range(1, 5)] for t in range(1, 41)]
    path.write_text(json.dumps({"ambient_dim": 4, "points": points}))
    env = dict(os.environ, PYTHONPATH=str(Path(polysum.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polysum.cli", "hull", "--inputs", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


def test_reused_parser_gives_fresh_reports(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kappa": [2, 2], "beta": [1, 0], "x": [["1", "2"], ["3", "5"]]}))
    commands = [
        ["delta", "--spec", str(spec), "--find-tau0"],
        ["bound", "--kind", "two", "--k", "1", "--d", "3", "--n", "4,4"],
    ]
    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        code, report = run(argv)
        fresh.append((code, report.to_dict()))
    assert _build_parser() is _build_parser()
    assert run(["phi", "--ell"]) == (2, None)
    assert [(code, report.to_dict()) for code, report in map(run, commands)] == fresh
    assert [(code, report.to_dict()) for code, report in map(run, commands[::-1])] == fresh[::-1]


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


@pytest.mark.parametrize(
    "data",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        {"nest": {"z": [1, [2, [3, {"q": (4, 5)}]]], "a": -7}},
        {"s": ["", "quote \" backslash \\ tab \t nl \n bell \x07", "caf\u00e9 \u2603 \U0001f600"]},
        {"t": True, "f": False, "n": None, "x": [True, False, None, 0, 10**40]},
        {"float": [1.5, -0.0, 1e300, float("inf"), float("-inf")]},
        {"\u00e9": 1, "a": 2, "Z": 3},
        {3: "int", 1: "keys"},
        [{"b": 1, "a": [{}]}, "plain"],
        "plain",
        None,
    ],
)
def test_dump_json_matches_the_json_module(data):
    assert dump_json(data, None) == json.dumps(data, indent=2, sort_keys=True)


def test_dump_json_leaves_no_reference_cycles(tmp_path):
    report = {"command": "hull", "outputs": {"f_vector": [4, 4], "faces": [{"dim": 0, "vertices": [1]}]}}
    gc.collect()
    gc.disable()
    try:
        dump_json(report, None)
        dump_json(report, str(tmp_path / "report.json"))
        assert gc.collect() == 0
    finally:
        gc.enable()
