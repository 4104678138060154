import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spsys import classify, cli, cpmaps, fock, formats, linalg, ncpoly, reps, subproduct
from spsys.linalg import MemoryBudgetError

from conftest import moved_commuting_pair


@pytest.fixture()
def golden_spec(tmp_path):
    path = tmp_path / "golden.json"
    formats.dump_json(
        {"kind": "subshift", "d": 2, "depth": 7, "forbidden": [[2, 2]]}, path)
    return str(path)


@pytest.fixture()
def commuting_spec(tmp_path):
    path = tmp_path / "commuting.json"
    formats.dump_json(
        {"kind": "quadratic", "d": 2, "depth": 6,
         "A": formats.encode_matrix(np.array([[0, 1], [-1, 0]], dtype=complex))},
        path)
    return str(path)


@pytest.fixture()
def rep_file(tmp_path):
    path = tmp_path / "rep.json"
    t1 = np.diag([0.3, 0.2, 0.1]).astype(complex)
    t2 = np.diag([0.1, 0.4, 0.2]).astype(complex)
    formats.dump_json(
        {"d": 2, "h": 3,
         "matrices": [formats.encode_matrix(t1), formats.encode_matrix(t2)]},
        path)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_plain_line(capsys, golden_spec):
    code, out, err = run_cli(capsys, "dims", "--spec", golden_spec, "--depth", "6")
    assert code == 0
    assert out.strip() == "1 2 3 5 8 13 21"


def test_dims_uses_spec_depth_by_default(capsys, golden_spec):
    code, out, _ = run_cli(capsys, "dims", "--spec", golden_spec)
    assert code == 0
    assert out.strip() == "1 2 3 5 8 13 21 34"


def test_build_emits_report_and_fibers(capsys, tmp_path, golden_spec):
    out_path = tmp_path / "fibers.json"
    code, out, err = run_cli(
        capsys, "build", "--spec", golden_spec, "--depth", "5",
        "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "build"
    assert report["checks"][0]["verdict"] == "pass"
    assert "sha256:" in report["inputs"]["spec"]["digest"]
    saved = formats.load_json(out_path)
    assert saved["dims"] == [1, 2, 3, 5, 8, 13]


def test_fibers_spec_that_breaks_an_inclusion_exits_3(capsys, tmp_path):
    # X(2) = span{e2 ⊗ e2} does not lie in E ⊗ X(1) = E ⊗ span{e1}
    path = tmp_path / "bad-fibers.json"
    formats.dump_json({"kind": "fibers", "d": 2, "depth": 4, "fibers": [
        formats.encode_matrix(np.array([[1.0], [0.0]])),
        formats.encode_matrix(np.array([[0.0], [0.0], [0.0], [1.0]]))]}, path)
    code, out, err = run_cli(capsys, "dims", "--spec", str(path))
    assert code == 3 and out == ""
    assert "prescribed fiber X(2) is not inside" in err and "residual 1.000e+00" in err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "qmatrix", "d": 2, "depth": 4, "q": [[1, 0], [2, 0], [0.5, 0], [1, 0]]},
     'a matrix must be an object {"rows", "cols", "data"}, not a list'),
    ({"kind": "subshift", "d": 2, "depth": 4, "forbidden": 5},
     "subshift spec: 'forbidden' must be a list"),
    ({"kind": "ideal", "d": 2, "depth": 4, "generators": {"word": [1, 2]}},
     "ideal spec: 'generators' must be a list"),
    ({"kind": "fibers", "d": 2, "depth": 4, "fibers": None},
     "fibers spec: 'fibers' must be a list"),
])
def test_malformed_spec_values_exit_3_without_a_traceback(capsys, tmp_path, spec, message):
    path = tmp_path / "malformed.json"
    formats.dump_json(spec, path)
    code, out, err = run_cli(capsys, "verify", "--spec", str(path), "--checks", "axioms,unit")
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


_PAIR = {"d": 2, "h": 1, "matrices": [{"rows": 1, "cols": 1, "data": [[0.1, 0]]}] * 2}
_HUGE = 10 ** 400  # 401 digits, beyond the largest float


@pytest.mark.parametrize("command, files", [
    (["verify", "--spec", "{spec}", "--checks", "axioms"],
     {"spec": {"kind": "subshift", "d": 2, "depth": 4, "forbidden": [5]}}),
    (["verify", "--spec", "{spec}", "--checks", "axioms"],
     {"spec": {"kind": "ideal", "d": 2, "depth": 4, "generators": [5]}}),
    (["verify", "--spec", "{spec}", "--checks", "axioms"],
     {"spec": {"kind": "qmatrix", "d": 2, "depth": 4, "q": {"rows": 2, "cols": 2, "data": 7}}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3}, "rep": {**_PAIR, "matrices": 5}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [["a", 0]]}] * 2}}),
    (["cp", "as-dims", "{kraus}"], {"kraus": {"h": 2, "kraus": 3}}),
    (["dims", "--spec", "{spec}"], {"spec": {"kind": "full", "d": 2, "depth": float("inf")}}),
    # integers too large for a float
    (["dims", "--spec", "{spec}"], {"spec": {"kind": "full", "d": _HUGE, "depth": 3}}),
    (["dims", "--spec", "{spec}"],
     {"spec": {"kind": "subshift", "d": _HUGE, "depth": 3, "forbidden": []}}),
    (["dims", "--spec", "{spec}"],
     {"spec": {"kind": "qmatrix", "d": 2, "depth": 3,
               "q": {"rows": 2, "cols": 2, "data": [[1, 0], [_HUGE, 0], [0.5, 0], [1, 0]]}}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [_HUGE]}] * 2}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [[0, _HUGE]]}] * 2}}),
    # JSON booleans are not numbers
    (["dims", "--spec", "{spec}"], {"spec": {"kind": "full", "d": True, "depth": 3}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [True]}] * 2}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [[True, 0]]}] * 2}}),
    (["check-rep", "--spec", "{spec}", "--rep", "{rep}"],
     {"spec": {"kind": "full", "d": 2, "depth": 3},
      "rep": {**_PAIR, "matrices": [{"rows": 1, "cols": 1, "data": [[0.5, True]]}] * 2}}),
], ids=["forbidden-entry", "generator-entry", "matrix-data", "rep-matrices",
        "matrix-entry", "kraus-list", "depth-infinity", "full-huge-d", "subshift-huge-d",
        "q-huge-entry", "rep-huge-entry", "rep-huge-pair", "boolean-d", "boolean-entry",
        "boolean-pair", "boolean-among-floats"])
def test_malformed_json_values_exit_3_without_a_traceback(capsys, tmp_path, command, files):
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))  # Infinity stays in the file
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in command))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [], ["dims"], ["bogus"], ["cp"], ["verify", "--spec"],
    ["dims", "--spec", "x", "--depth", "two"],
    ["verify", "--spec", "x", "--tol", "-1"], ["verify", "--spec", "x", "--tol", "nan"],
    ["piece", "--spec", "x", "--rep", "y", "--tol", "inf"],
    ["classify", "qmat", "a", "b", "--tol", "x"], ["cp", "as-dims", "k", "--tol", "1e-9"],
    ["cp", "as-dims", "k", "--n", "-1"], ["dims", "--spec", "x", "--tol", "123"],
], ids=["no-command", "no-spec", "unknown-command", "no-cp-command", "spec-without-value",
        "depth-not-integer", "tol-negative", "tol-nan", "tol-infinite", "tol-not-number",
        "as-dims-tol", "as-dims-negative-n", "dims-tol"])
def test_usage_errors_exit_3_with_the_usage_and_one_error_line(capsys, argv):
    # argparse would exit 2, which means inconclusive here
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 3 and captured.out == ""
    assert captured.err.startswith("usage: spsys")
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert len(errors) == 1 and errors[0].startswith("spsys")
    assert captured.err.endswith(errors[0] + "\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"],
                                  ["cp", "as-dims", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out


def test_tol_is_taken_as_given(capsys, golden_spec, commuting_spec):
    # --tol 0 is a threshold of 0, not the default
    code, out, _ = run_cli(capsys, "verify", "--spec", golden_spec, "--depth", "5",
                           "--checks", "axioms,defect,unit", "--tol", "0")
    assert code == 0
    assert [c["threshold"] for c in json.loads(out)["checks"]] == [0.0] * 4
    # on a core chain the axiom residuals are roundoff, above a zero threshold
    code, out, _ = run_cli(capsys, "verify", "--spec", commuting_spec, "--checks", "axioms",
                           "--tol", "0")
    check_ = json.loads(out)["checks"][0]
    assert check_["threshold"] == 0.0
    assert code == (1 if check_["residual"] > 0 else 0)
    # the defaults stay the same without --tol
    code, out, _ = run_cli(capsys, "verify", "--spec", golden_spec, "--depth", "5",
                           "--checks", "axioms,defect,unit")
    assert [c["threshold"] for c in json.loads(out)["checks"]] == [1e-9, 1e-10, 1e-10, 1e-9]


def test_verify_all_checks_pass(capsys, golden_spec):
    code, out, err = run_cli(
        capsys, "verify", "--spec", golden_spec, "--depth", "6",
        "--checks", "axioms,defect,subshift,unit")
    assert code == 0
    report = json.loads(out)
    verdicts = {c["check_id"]: c["verdict"] for c in report["checks"]}
    assert verdicts["axioms"] == "pass"
    assert verdicts["subshift"] == "pass"
    assert report["unit_basis_vectors"] == [1]
    assert "verify: ok" in err


def test_verify_rejects_unknown_check(capsys, golden_spec):
    code, _, err = run_cli(
        capsys, "verify", "--spec", golden_spec, "--checks", "axioms,bogus")
    assert code == 3
    assert "bogus" in err


def test_verify_subshift_check_needs_subshift(capsys, commuting_spec):
    code, _, err = run_cli(
        capsys, "verify", "--spec", commuting_spec, "--checks", "subshift")
    assert code == 3


def test_shift_exports_matrices(capsys, tmp_path, golden_spec):
    out_dir = tmp_path / "shifts"
    code, out, _ = run_cli(
        capsys, "shift", "--spec", golden_spec, "--depth", "5",
        "--out", str(out_dir))
    assert code == 0
    meta = formats.load_json(out_dir / "offsets.json")
    assert meta["dims"] == [1, 2, 3, 5, 8, 13]
    m = formats.decode_matrix(formats.load_json(out_dir / "shift_1.json"))
    assert m.shape == (sum(meta["dims"]),) * 2


def test_verify_fits_a_budget_below_the_dense_shifts(capsys, tmp_path):
    # golden depth 12: the two dense shifts need 30 MiB, the level maps 8 KiB
    spec = tmp_path / "golden12.json"
    formats.dump_json({"kind": "subshift", "d": 2, "depth": 12, "forbidden": [[2, 2]]}, spec)
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec), "--budget-mb", "16",
                           "--checks", "axioms,defect,subshift")
    assert code == 0
    assert all(c["residual"] == 0.0 for c in json.loads(out)["checks"])
    out_dir = tmp_path / "shifts"
    code, _, err = run_cli(capsys, "shift", "--spec", str(spec), "--budget-mb", "16",
                           "--out", str(out_dir))
    assert code == 3 and "shift matrices" in err
    assert not out_dir.exists()  # refused before anything is written


def test_check_rep_pass_and_fail(capsys, tmp_path, commuting_spec, rep_file):
    code, out, _ = run_cli(
        capsys, "check-rep", "--spec", commuting_spec, "--rep", rep_file)
    assert code == 0
    assert json.loads(out)["route"] == "generators"

    bad = tmp_path / "bad_rep.json"
    t1 = np.array([[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]], dtype=complex)
    t2 = np.diag([0.3, 0.2, 0.1]).astype(complex)
    formats.dump_json(
        {"matrices": [formats.encode_matrix(t1), formats.encode_matrix(t2)]}, bad)
    code, out, err = run_cli(
        capsys, "check-rep", "--spec", commuting_spec, "--rep", str(bad))
    assert code == 1
    assert "FAIL" in err


def test_poisson_within_tail(capsys, commuting_spec, rep_file):
    code, out, _ = run_cli(
        capsys, "poisson", "--spec", commuting_spec, "--rep", rep_file,
        "--r", "0.9")
    assert code == 0
    report = json.loads(out)
    check = report["checks"][0]
    assert check["check_id"] == "kernel-isometry"
    assert check["residual"] <= check["threshold"]


@pytest.mark.parametrize("scale", [1.0, np.nextafter(1.0, 0.0)])
def test_poisson_r_one_refuses_row_norm_one(capsys, tmp_path, commuting_spec,
                                             scale):
    # 0.6 I, 0.8 I has row norm 1, which may round to 0.9999999999999999;
    # r = 1 must be refused either way instead of passing a 5e14 threshold
    path = tmp_path / "unit_rep.json"
    mats = [scale * 0.6 * np.eye(2), scale * 0.8 * np.eye(2)]
    assert abs(np.linalg.norm(np.hstack(mats), 2) - 1.0) <= 1e-15
    formats.dump_json(
        {"d": 2, "h": 2,
         "matrices": [formats.encode_matrix(m.astype(complex)) for m in mats]},
        path)
    code, out, err = run_cli(
        capsys, "poisson", "--spec", commuting_spec, "--rep", str(path),
        "--r", "1")
    assert code == 3
    assert "strictly below 1" in err
    assert "pass" not in out + err


def test_piece_full_space_for_representation(capsys, commuting_spec, rep_file):
    code, out, _ = run_cli(
        capsys, "piece", "--spec", commuting_spec, "--rep", rep_file)
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3


def test_piece_reports_its_rank_cutoff(capsys, tmp_path, commuting_spec, rep_file, golden_spec):
    # every rank decision of the piece is at tol, which the report states once,
    # as the threshold of its check: a representation is decided in one step,
    # and the full shift on words of length <= 2 shrinks to golden's legal words
    code, out, _ = run_cli(capsys, "piece", "--spec", commuting_spec, "--rep", rep_file)
    assert code == 0
    report = json.loads(out)
    assert report["iterations"] == 1 and "cutoff" not in report
    assert report["checks"][0]["threshold"] == reps.REP_TOL
    sh = fock.build_shifts(fock.build_fock(subproduct.from_full(2, 2)))
    rep = tmp_path / "full2.json"
    formats.dump_json(formats.encode_rep(reps.RepTuple(tuple(sh.matrices))), rep)
    for tol in ("1e-9", "1e-3"):
        code, out, _ = run_cli(capsys, "piece", "--spec", golden_spec, "--rep", str(rep),
                               "--tol", tol)
        assert code == 0
        report = json.loads(out)
        assert (report["dim"], report["iterations"]) == (6, 2)
        assert report["checks"][0]["threshold"] == float(tol)


def test_check_rep_and_piece_agree_at_one_tol(capsys, tmp_path):
    # a commuting pair moved by 1e-11, generator residual about 4e-12: at
    # --tol 1e-9 it is a representation and the piece is all of C^4; at
    # --tol 1e-13 it is not, and the piece is 0
    spec, rep = tmp_path / "commutator4.json", tmp_path / "moved.json"
    formats.dump_json({"kind": "ideal", "d": 2, "depth": 4, "generators": [
        [{"coeff": [1, 0], "word": [1, 2]}, {"coeff": [-1, 0], "word": [2, 1]}]]}, spec)
    formats.dump_json(formats.encode_rep(moved_commuting_pair()), rep)
    for tol, code, dim in (("1e-9", 0, 4), ("1e-13", 1, 0)):
        got, out, _ = run_cli(capsys, "check-rep", "--spec", str(spec), "--rep", str(rep),
                              "--tol", tol)
        assert got == code
        got, out, _ = run_cli(capsys, "piece", "--spec", str(spec), "--rep", str(rep),
                              "--tol", tol)
        assert got == 0 and json.loads(out)["dim"] == dim


def test_check_rep_and_piece_agree_at_the_default_tol(capsys, tmp_path):
    # the pair moved by 1e-8 has a generator residual of 4.1e-9, between the
    # former defaults of check-rep (1e-8) and piece (1e-9), where check-rep said
    # ok and the piece was 0; at the one default both refuse it
    spec, rep = tmp_path / "commutator4.json", tmp_path / "moved.json"
    formats.dump_json({"kind": "ideal", "d": 2, "depth": 4, "generators": [
        [{"coeff": [1, 0], "word": [1, 2]}, {"coeff": [-1, 0], "word": [2, 1]}]]}, spec)
    formats.dump_json(formats.encode_rep(moved_commuting_pair(1e-8)), rep)
    code, out, _ = run_cli(capsys, "check-rep", "--spec", str(spec), "--rep", str(rep))
    (c,) = json.loads(out)["checks"]
    assert code == 1 and 1e-9 < c["residual"] < 1e-8 and c["threshold"] == reps.REP_TOL
    code, out, _ = run_cli(capsys, "piece", "--spec", str(spec), "--rep", str(rep))
    assert code == 0 and json.loads(out)["dim"] == 0


def _threshold_inputs(tmp_path, golden_spec, commuting_spec, rep_file):
    """Names of the input files the default-threshold cases read."""
    files = {"golden": golden_spec, "commuting": commuting_spec, "rep": rep_file,
             "out": str(tmp_path / "shifts")}
    mats = {"q1": [[1, 2.0], [0.5, 1]], "q2": [[1, 0.5], [2.0, 1]],
            "a": [[0, 0.5], [-0.5, 0]], "b": [[0, 0.4j], [-0.4j, 0]]}
    for name, m in mats.items():
        files[name] = str(tmp_path / f"{name}.json")
        formats.dump_json(formats.encode_matrix(np.array(m, dtype=complex)), files[name])
    files["p"], files["s"] = str(tmp_path / "p.csv"), str(tmp_path / "s.csv")
    (tmp_path / "p.csv").write_text("0.5,0.5\n0.5,0.5\n")
    (tmp_path / "s.csv").write_text("1,0\n0,1\n")
    return files


THRESHOLD_CASES = [
    (subproduct, "INCLUSION_TOL", "build --spec {golden}", "build-axioms"),
    (subproduct, "INCLUSION_TOL", "verify --spec {golden} --checks axioms", "axioms"),
    (fock, "DEFECT_TOL", "verify --spec {golden} --checks defect", "defect-k2"),
    (fock, "DEFECT_TOL", "verify --spec {golden} --checks subshift", "subshift"),
    (subproduct, "UNIT_TOL", "verify --spec {golden} --checks unit", "unit"),
    (reps, "ROW_NORM_SLACK", "shift --spec {golden} --out {out}", "row-contraction"),
    (reps, "REP_TOL", "check-rep --spec {commuting} --rep {rep}", "representation"),
    (reps, "TAIL_TOL", "poisson --spec {commuting} --rep {rep}", "kernel-isometry"),
    (reps, "REP_TOL", "piece --spec {commuting} --rep {rep}", "piece-fixed-point"),
    (classify, "ENTRY_TOL", "classify qmat {q1} {q2}", "classify-qmat"),
    (classify, "WITNESS_TOL", "classify quad {a} {b}", "classify-quad"),
    (cpmaps, "NONZERO_TOL", "cp strong-commute {p} {s}", "commute"),
]


@pytest.mark.parametrize("module, name, argv, check_id", THRESHOLD_CASES,
                         ids=[case[3] for case in THRESHOLD_CASES])
def test_thresholds_follow_the_named_defaults(capsys, monkeypatch, tmp_path, golden_spec,
                                              commuting_spec, rep_file, module, name, argv,
                                              check_id):
    # each default threshold is one name in the library, which the command
    # reads at call time: the report states the named value, and a patched one
    # (the kernel check adds the tail bound; the witness norm ||B|| is below 1)
    argv = argv.format(**_threshold_inputs(tmp_path, golden_spec, commuting_spec,
                                           rep_file)).split()

    def threshold():
        report = json.loads(run_cli(capsys, *argv)[1])
        (c,) = [c for c in report["checks"] if c["check_id"] == check_id]
        return c["threshold"] - report.get("tail_bound", 0.0)

    assert threshold() == pytest.approx(getattr(module, name), rel=1e-9, abs=0)
    monkeypatch.setattr(module, name, 3e-7)
    assert threshold() == pytest.approx(3e-7, rel=1e-9, abs=0)


def test_shift_row_contraction_reads_tol(capsys, tmp_path, golden_spec):
    # --tol sets the row-contraction threshold; the exact round trip keeps 0
    code, out, _ = run_cli(capsys, "shift", "--spec", golden_spec, "--depth", "3",
                           "--out", str(tmp_path / "shifts"), "--tol", "1e30")
    assert code == 0
    thresholds = {c["check_id"]: c["threshold"] for c in json.loads(out)["checks"]}
    assert thresholds == {"row-contraction": 1e30, "round-trip": 0.0}


def test_piece_budget_refuses_before_word_maps(capsys, tmp_path, monkeypatch):
    # golden depth 6, with six more forbidden words of length 6, against the
    # full shift on words of length <= 6 (h = 127): the piece's one estimate
    # (the 7 generator values, the basis, a block's projection and SVD factors,
    # the final QR) is about 3.2 MiB, so 3 MiB refuses it before any generator
    # value is evaluated; the 0/1 entries are written as bare integers, so that
    # reading and decoding the file (an estimate of 2.0 MiB) fits in 3 MiB
    from spsys import fock, subproduct
    from spsys.ncpoly import NCPoly
    spec = tmp_path / "golden6.json"
    forbidden = [[2, 2]] + [[1] * (5 - i) + [2] + [1] * i for i in range(5)] + [[1] * 6]
    formats.dump_json({"kind": "subshift", "d": 2, "depth": 6, "forbidden": forbidden}, spec)
    sh = fock.build_shifts(fock.build_fock(subproduct.from_full(2, 6)))
    rep = tmp_path / "full6.json"
    formats.dump_json({"d": 2, "h": 127, "matrices": [
        {"rows": 127, "cols": 127, "data": s.astype(int).ravel().tolist()}
        for s in sh.matrices]}, rep)

    def never(*args, **kwargs):
        raise AssertionError("a generator evaluated before the budget check")

    monkeypatch.setattr(NCPoly, "values_on_tuple", never)
    code, out, err = run_cli(capsys, "piece", "--spec", str(spec), "--rep", str(rep),
                             "--budget-mb", "3")
    assert code == 3
    assert "piece constraints up to level 6" in err
    assert "pass" not in out + err


def _seeded_pair_file(tmp_path, h, seed=7):
    """A seeded random pair on C^h scaled to row norm 0.9, as a rep file."""
    from spsys import reps
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)) for _ in range(2)]
    scale = 0.9 / np.linalg.norm(np.hstack(mats), 2)
    path = tmp_path / f"pair{h}.json"
    formats.dump_json(formats.encode_rep(reps.RepTuple(tuple(scale * m for m in mats))), path)
    return str(path)


def test_piece_golden_depth_sixteen_in_16_mib(capsys, tmp_path, golden_spec):
    # the dense 0/1 letter blocks alone would need 204 MiB here; the word
    # indices split every level, so the whole command fits 16 MiB
    code, out, err = run_cli(capsys, "piece", "--spec", golden_spec, "--depth", "16",
                             "--rep", _seeded_pair_file(tmp_path, 4), "--budget-mb", "16")
    assert code == 0, err
    report = json.loads(out)
    assert report["checks"][0]["verdict"] == "pass"


def test_poisson_budget_refuses_before_the_tildes(capsys, tmp_path, golden_spec, monkeypatch):
    # golden depth 16 at h = 16: the kernel matrix alone is about 16 MiB
    from spsys import reps

    def never(*args, **kwargs):
        raise AssertionError("tildes allocated before the budget check")

    monkeypatch.setattr(reps, "_level_recursion", never)
    code, out, err = run_cli(capsys, "poisson", "--spec", golden_spec, "--depth", "16",
                             "--rep", _seeded_pair_file(tmp_path, 16), "--budget-mb", "8")
    assert code == 3
    assert "Poisson kernel" in err
    assert "pass" not in out + err


def test_classify_qmat(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    formats.dump_json(formats.encode_matrix(
        np.array([[1, 2.0], [0.5, 1]], dtype=complex)), a)
    formats.dump_json(formats.encode_matrix(
        np.array([[1, 0.5], [2.0, 1]], dtype=complex)), b)
    code, out, _ = run_cli(capsys, "classify", "qmat", str(a), str(b))
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["perm"] == [2, 1]


@pytest.mark.parametrize("offset, code, verdict, equivalent", [
    (3e-10, 2, "inconclusive", False),
    (1e-7, 0, "pass", False),
])
def test_classify_qmat_near_the_cutoff(capsys, tmp_path, offset, code, verdict,
                                       equivalent):
    # the relabeling of [[1, 2], [.5, 1]], moved off by offset (3 and 1e3 tol)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    formats.dump_json(formats.encode_matrix(
        np.array([[1, 2.0], [0.5, 1]], dtype=complex)), a)
    z = 2.0 + offset
    formats.dump_json(formats.encode_matrix(
        np.array([[1, 1 / z], [z, 1]], dtype=complex)), b)
    got, out, _ = run_cli(capsys, "classify", "qmat", str(a), str(b))
    assert got == code
    report = json.loads(out)
    assert report["equivalent"] is equivalent
    (c,) = report["checks"]
    assert c["verdict"] == verdict
    if verdict == "inconclusive":
        assert c["residual"] == pytest.approx(offset, rel=1e-6)
        assert c["threshold"] < c["residual"] <= 10 * c["threshold"]
    else:
        assert c["residual"] == 0.0


def test_out_budget_counts_the_json_encoding(capsys, tmp_path, monkeypatch):
    # golden depth 8: the frames take 0.2 MiB and the dense shifts 0.24 MiB,
    # while the commands that encode them peak at about 5.4 and 5.8 MiB traced
    spec = tmp_path / "golden8.json"
    formats.dump_json({"kind": "subshift", "d": 2, "depth": 8, "forbidden": [[2, 2]]}, spec)
    for command, out in (("build", tmp_path / "fibers.json"), ("shift", tmp_path / "shifts")):
        argv = [command, "--spec", str(spec), "--out", str(out)]
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
        # a budget finer than the MiB of --budget-mb: run the command on its
        # parsed arguments under the process budget
        args = cli.make_parser().parse_args(argv)
        monkeypatch.setattr(linalg, "BUDGET_BYTES", peak - 1)
        with pytest.raises(MemoryBudgetError, match="and their JSON encoding"):
            args.func(args)
        assert capsys.readouterr().out == ""
        assert not out.exists()  # refused before anything is written
        monkeypatch.setattr(linalg, "BUDGET_BYTES", 2 * peak)
        assert args.func(args) == 0
        capsys.readouterr()


def test_classify_quad_leaves_scipy_unloaded(tmp_path):
    # a generic pair, a rank-one symmetric part, and an antisymmetric pair
    rng = np.random.default_rng(8)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    j = np.array([[0, 1], [-1, 0]])
    v = np.array([1 - 2j, 0.5j])
    pairs = []
    for name, a in (("generic", np.array([[1, 2 - 1j], [0.3j, -0.7]])),
                    ("rank-one", np.outer(v, v) + 0.4 * j), ("antisymmetric", (2 + 1j) * j)):
        paths = [tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"]
        formats.dump_json(formats.encode_matrix(a), paths[0])
        formats.dump_json(formats.encode_matrix(0.8j * u.T @ a @ u), paths[1])
        pairs.append([str(p) for p in paths])
    script = ("import json, sys\n"
              "from spsys import cli\n"
              "for a, b in json.loads(sys.argv[1]):\n"
              "    assert cli.main(['classify', 'quad', a, b]) == 0\n"
              "print('scipy' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(pairs)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads("[" + proc.stdout.replace("}\n{", "},{") + "]")
    assert [r["equivalent"] for r in reports] == [True, True, True]
    assert proc.stderr.splitlines()[-1] == "False"


def test_classify_quad_yes_and_no(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    z = tmp_path / "z.json"
    formats.dump_json(formats.encode_matrix(
        np.array([[0, 1], [-1, 0]], dtype=complex)), a)
    formats.dump_json(formats.encode_matrix(
        np.array([[0, 2.0], [-2.0, 0]], dtype=complex)), b)
    formats.dump_json(formats.encode_matrix(np.zeros((2, 2))), z)
    code, out, _ = run_cli(capsys, "classify", "quad", str(a), str(b))
    assert code == 0
    assert json.loads(out)["equivalent"] is True
    code, out, _ = run_cli(capsys, "classify", "quad", str(a), str(z))
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_classify_quad_reports_the_threshold_it_decides_at(capsys, tmp_path):
    # a witness passes at WITNESS_TOL · max(1, ||B||): with ||B|| about 2e8 the
    # residual (about 1.7e-7) is above WITNESS_TOL but within that threshold
    a = np.array([[1, 2 - 1j], [0.3j, -0.7]]) * 1e8
    c, s = np.cos(0.4), np.sin(0.4)
    u = np.array([[c, -s], [s, c]]) @ np.diag([1, 1j])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for m, path in zip((a, 0.8j * u.T @ a @ u), paths):
        formats.dump_json(formats.encode_matrix(m), path)
    code, out, _ = run_cli(capsys, "classify", "quad", *map(str, paths))
    assert code == 0
    (c,) = json.loads(out)["checks"]
    norm_b = np.linalg.norm(0.8j * u.T @ a @ u)
    assert norm_b > 1e8 and c["threshold"] == pytest.approx(classify.WITNESS_TOL * norm_b)
    assert classify.WITNESS_TOL < c["residual"] <= c["threshold"] and c["verdict"] == "pass"


def test_cp_strong_commute_reports_the_threshold_it_decides_at(capsys, tmp_path):
    # PQ - QP is 5.6e-17 in floating point: above --tol 0, so the pair does
    # not commute at that tolerance, and the check says so at threshold 0
    p_csv, q_csv = tmp_path / "p.csv", tmp_path / "q.csv"
    p_csv.write_text("\n".join([",".join(["0.3333333333333333"] * 3)] * 3) + "\n")
    q_csv.write_text("0.48,0.05,0.47\n0.28,0.28,0.44\n0.24,0.67,0.09\n")
    code, out, _ = run_cli(capsys, "cp", "strong-commute", str(p_csv), str(q_csv), "--tol", "0")
    (c,) = json.loads(out)["checks"]
    assert (code, c["verdict"], c["threshold"]) == (2, "inconclusive", 0.0)
    assert 0 < c["residual"] <= 1e-16
    code, out, _ = run_cli(capsys, "cp", "strong-commute", str(p_csv), str(q_csv))
    (c,) = json.loads(out)["checks"]
    assert (code, c["verdict"], c["threshold"]) == (0, "pass", cpmaps.NONZERO_TOL)


def test_cp_strong_commute_checks_a_json_input_before_reading_it(capsys, tmp_path,
                                                                monkeypatch):
    # a stochastic .json file is counted against the budget like every JSON input
    paths = [tmp_path / "p.json", tmp_path / "q.json"]
    for path in paths:
        formats.dump_json(formats.encode_matrix(np.full((3, 3), 1 / 3)), path)
    code, out, _ = run_cli(capsys, "cp", "strong-commute", *map(str, paths))
    assert code == 0 and json.loads(out)["commute"] is True

    def never(*args, **kwargs):
        raise AssertionError("read before the budget check")

    monkeypatch.setattr(formats, "load_stochastic", never)
    monkeypatch.setattr(linalg, "BUDGET_BYTES", 1024)
    code, out, err = run_cli(capsys, "cp", "strong-commute", *map(str, paths))
    assert code == 3 and out == ""
    assert f"reading {paths[0]} needs about" in err


def test_cp_strong_commute_example(capsys, tmp_path):
    p_csv = tmp_path / "p.csv"
    q_csv = tmp_path / "q.csv"
    third = "0.3333333333333333"
    p_csv.write_text("\n".join([",".join([third] * 3)] * 3) + "\n")
    q_csv.write_text("0.5,0,0.5\n0.25,0.5,0.25\n0.25,0.5,0.25\n")
    code, out, _ = run_cli(capsys, "cp", "strong-commute", str(p_csv), str(q_csv))
    assert code == 0
    report = json.loads(out)
    assert report["commute"] is True
    assert report["strong"] is False
    assert report["witnesses"]
    # the check is about commuting, so it passes beside "strong": false
    (c,) = report["checks"]
    assert c["check_id"] == "commute"
    assert c["verdict"] == "pass"


def test_cp_strong_commute_noncommuting_is_inconclusive(capsys, tmp_path):
    # the support-count criterion does not apply to a non-commuting pair
    p_csv = tmp_path / "p.csv"
    q_csv = tmp_path / "q.csv"
    p_csv.write_text("0.5,0.5\n0.1,0.9\n")
    q_csv.write_text("1,0\n0.3,0.7\n")
    code, out, err = run_cli(capsys, "cp", "strong-commute", str(p_csv), str(q_csv))
    assert code == 2
    report = json.loads(out)
    assert report["commute"] is False
    assert report["strong"] is None
    (c,) = report["checks"]
    assert c["check_id"] == "commute"
    assert c["residual"] > c["threshold"]
    assert c["verdict"] == "inconclusive"
    assert "INCONCLUSIVE" in err


def test_cp_as_dims(capsys, tmp_path):
    chan = tmp_path / "chan.json"
    rng = np.random.default_rng(0)
    ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
          for _ in range(2)]
    formats.dump_json(
        {"h": 2, "kraus": [formats.encode_matrix(k) for k in ks]}, chan)
    code, out, _ = run_cli(capsys, "cp", "as-dims", str(chan), "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 2, 4, 4, 4]
    # r_1·r_1 = r_2: no slack, and no excess at threshold 0
    assert report["slack"] == 0
    (c,) = report["checks"]
    assert (c["residual"], c["threshold"], c["verdict"]) == (0.0, 0.0, "pass")


def test_cp_as_dims_reports_the_excess_over_submultiplicativity(capsys, tmp_path, monkeypatch):
    chan = tmp_path / "chan.json"
    formats.dump_json({"h": 1, "kraus": [formats.encode_matrix(np.eye(1))]}, chan)
    for dims, residual, slack, code in (([1, 2, 5, 7], 1.0, -1, 1), ([1, 3, 5, 9], 0.0, 4, 0),
                                        ([1, 3], 0.0, None, 0)):
        monkeypatch.setattr(cpmaps, "as_fiber_dims", lambda channel, n, dims=dims: dims)
        got, out, _ = run_cli(capsys, "cp", "as-dims", str(chan), "--n", str(len(dims) - 1))
        report = json.loads(out)
        (c,) = report["checks"]
        assert (got, c["residual"], report["slack"]) == (code, residual, slack)
        assert c["verdict"] == ("pass" if code == 0 else "fail")


def _json_input(capsys, tmp_path, kind):
    """A JSON input of one kind, and whether it decodes as a matrix."""
    path = tmp_path / f"{kind}.json"
    if kind == "shift-0/1":  # the file `spsys shift` writes: 0.0/1.0 pairs
        spec = tmp_path / "golden9.json"
        formats.dump_json({"kind": "subshift", "d": 2, "depth": 9, "forbidden": [[2, 2]]}, spec)
        assert run_cli(capsys, "shift", "--spec", str(spec), "--out", str(tmp_path / "sh"))[0] == 0
        return tmp_path / "sh" / "shift_1.json", True
    if kind == "random-pair":
        return Path(_seeded_pair_file(tmp_path, 48)), False
    m = (np.random.default_rng(44).random((90, 90)) < 0.3).astype(int)
    obj = {
        "int-pairs": {"rows": 90, "cols": 90, "data": [[int(x), 0] for x in m.ravel()]},
        "bare-ints": {"rows": 90, "cols": 90, "data": m.ravel().tolist()},
        "generators": {"kind": "ideal", "d": 9, "depth": 2, "generators": [
            formats.encode_poly(g) for g in ncpoly.commutator_gens(9).gens]},
        "long-string": {"kind": "x" * 200000, "d": 2},
        "short-strings": {"words": ["ab"] * 50000},
        "non-ascii": {"note": "\u00e9" * 50000 + "\U0001f600"},
        "escapes": {"note": 'a\\"b' * 20000},
    }[kind]
    path.write_text(json.dumps(obj, ensure_ascii=False))
    return path, "rows" in obj


@pytest.mark.parametrize("kind", ["shift-0/1", "random-pair", "int-pairs", "bare-ints",
                                  "generators", "long-string", "short-strings", "non-ascii",
                                  "escapes"])
def test_json_read_estimate_bounds_reading_and_decoding(capsys, tmp_path, kind):
    # the estimate counts the file's tokens in chunks before it is read; the
    # traced peak of reading it, parsing and decoding it stays below
    path, matrix = _json_input(capsys, tmp_path, kind)
    needed = cli._json_read_bytes(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        obj, _ = cli._load_json(str(path))
        decoded = (formats.decode_matrix(obj) if matrix
                   else formats.decode_rep(obj) if "matrices" in obj else None)
        del obj, decoded
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= needed, (peak, needed)
    if kind in ("shift-0/1", "random-pair"):
        assert needed <= 2 * peak
    if kind == "shift-0/1":
        # short entries take about 19 bytes a byte, 4 times a random tuple's
        assert peak > 15 * path.stat().st_size


def test_input_over_the_budget_exits_3_before_it_is_read(capsys, tmp_path, monkeypatch):
    # a tuple of 2 x 64 x 64 random complex entries is about 360 kB of JSON;
    # its estimate from the file's tokens (1.9 MiB) exceeds 1 MiB
    rep = cli.Path(_seeded_pair_file(tmp_path, 64))
    spec = tmp_path / "golden.json"
    formats.dump_json({"kind": "subshift", "d": 2, "depth": 3, "forbidden": [[2, 2]]}, spec)
    code, _, _ = run_cli(capsys, "check-rep", "--spec", str(spec), "--rep", str(rep),
                         "--budget-mb", "2")
    assert code == 1  # read and checked: a random pair does not represent golden

    def never(*args, **kwargs):
        raise AssertionError("the input was read before the budget check")

    real_read = cli.Path.read_text
    monkeypatch.setattr(cli.Path, "read_text",
                        lambda p, *a, **k: never() if p.name == rep.name else real_read(p, *a, **k))
    code, out, err = run_cli(capsys, "check-rep", "--spec", str(spec), "--rep", str(rep),
                             "--budget-mb", "1")
    assert code == 3 and out == "" and "Traceback" not in err
    assert f"reading {rep} needs about 2 MiB, budget is 1 MiB" in err


def test_shift_round_trip_fails_on_a_file_that_does_not_hold_its_shift(capsys, tmp_path,
                                                                       golden_spec, monkeypatch):
    # the check decodes every written shift file and compares it with the level
    # maps at threshold 0; one entry moved by the smallest float fails it
    dump = formats.dump_json

    def moved(obj, path=None):
        if path is not None and str(path).endswith("shift_2.json"):
            obj = {**obj, "data": [[5e-324, 0.0]] + obj["data"][1:]}
        return dump(obj, path)

    out_dir = tmp_path / "shifts"
    for patch, code, verdict in ((False, 0, "pass"), (True, 1, "fail")):
        if patch:
            monkeypatch.setattr(formats, "dump_json", moved)
        got, out, _ = run_cli(capsys, "shift", "--spec", golden_spec, "--depth", "4",
                              "--out", str(out_dir))
        c = {c["check_id"]: c for c in json.loads(out)["checks"]}["round-trip"]
        assert (got, c["verdict"], c["threshold"]) == (code, verdict, 0.0)
        assert c["residual"] == (5e-324 if patch else 0.0)


def test_malformed_spec_gives_context(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "subshift", ')
    code, _, err = run_cli(capsys, "dims", "--spec", str(bad))
    assert code == 3
    assert "line" in err and "col" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "dims", "--spec", "no_such_file.json")
    assert code == 3


def test_budget_flag_trips_guard(capsys, golden_spec):
    code, _, err = run_cli(
        capsys, "dims", "--spec", golden_spec, "--budget-mb", "0")
    assert code == 3
    assert "budget" in err.lower()


def test_budget_flag_holds_for_one_command(capsys, golden_spec, tmp_path):
    # --budget-mb sets the process budget for its command and no longer
    code, _, err = run_cli(capsys, "dims", "--spec", golden_spec, "--budget-mb", "0")
    assert code == 3 and "budget is 0 MiB" in err
    assert linalg.BUDGET_BYTES == 2 << 30
    assert subproduct.from_full(2, 3).dims() == [1, 2, 4, 8]  # needs 112 bytes
    code, out, _ = run_cli(capsys, "dims", "--spec", golden_spec, "--budget-mb", "3")
    assert code == 0 and out.split()[-1] == "34"
    assert linalg.BUDGET_BYTES == 2 << 30
    # a command without the flag runs under the process budget
    uniform = tmp_path / "uniform.csv"
    np.savetxt(uniform, np.full((2, 2), 0.5), delimiter=",")
    assert run_cli(capsys, "cp", "strong-commute", str(uniform), str(uniform))[0] == 0
    assert linalg.BUDGET_BYTES == 2 << 30


def _kraus_file(tmp_path, d, h, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / f"kraus-{d}-{h}.json"
    formats.dump_json(formats.encode_kraus(
        [rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h)) for _ in range(d)]), path)
    return str(path)


def test_cp_as_dims_refuses_a_negative_power(capsys, tmp_path):
    kraus = _kraus_file(tmp_path, 2, 2)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cp", "as-dims", kraus, "--n", "-1"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 3 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert errors == ["spsys cp as-dims: error: argument --n: must be an integer >= 0, not -1"]
    code, out, _ = run_cli(capsys, "cp", "as-dims", kraus, "--n", "0")
    assert code == 0 and json.loads(out)["dims"] == [1]


def test_cp_as_dims_takes_the_budget(capsys, tmp_path):
    # h = 32: level 6 holds a 64 × 1024 stack, its SVD factors and the next
    # factor, about 3 MiB; levels 1-5 fit in 2 MiB
    kraus = _kraus_file(tmp_path, 2, 32)
    code, out, err = run_cli(capsys, "cp", "as-dims", kraus, "--n", "6", "--budget-mb", "2")
    assert code == 3 and out == ""
    assert err == "error: channel level 6 of 32 x 32 needs about 3 MiB, budget is 2 MiB\n"
    assert linalg.BUDGET_BYTES == 2 << 30
    code, out, _ = run_cli(capsys, "cp", "as-dims", kraus, "--n", "6", "--budget-mb", "4")
    assert code == 0 and json.loads(out)["dims"] == [1, 2, 4, 8, 16, 32, 64]


def test_dims_golden_depth_twenty(capsys, golden_spec):
    code, out, _ = run_cli(capsys, "dims", "--spec", golden_spec, "--depth", "20")
    assert code == 0
    assert out.split()[-3:] == ["6765", "10946", "17711"]


def test_dims_commutator_three_letters_depth_twelve_in_64_mib(capsys, tmp_path):
    from spsys import ncpoly
    spec = tmp_path / "commutator3.json"
    formats.dump_json({"kind": "ideal", "d": 3, "depth": 12, "generators": [
        formats.encode_poly(g) for g in ncpoly.commutator_gens(3).gens]}, spec)
    code, out, _ = run_cli(capsys, "dims", "--spec", str(spec), "--budget-mb", "64")
    assert code == 0
    assert out.split() == [str((n + 1) * (n + 2) // 2) for n in range(13)]


def test_verify_ideal_axioms_and_units_on_cores_within_the_budget(capsys, tmp_path):
    # d=3 commutator depth 12: the frames (the real level-9 frame and the lower
    # ones it builds need 11 MiB) do not fit in 8 MiB; the core check needs 5.4 MiB
    from spsys import ncpoly
    spec = tmp_path / "commutator3.json"
    formats.dump_json({"kind": "ideal", "d": 3, "depth": 12, "generators": [
        formats.encode_poly(g) for g in ncpoly.commutator_gens(3).gens]}, spec)
    code, out, _ = run_cli(capsys, "verify", "--spec", str(spec), "--budget-mb", "8",
                           "--checks", "axioms,unit")
    assert code == 0
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert checks["axioms"]["residual"] <= 1e-12 and checks["unit"]["verdict"] == "pass"
    # the build fits in 4 MiB, the axiom check's one estimate does not
    code, out, err = run_cli(capsys, "verify", "--spec", str(spec), "--budget-mb", "4",
                             "--checks", "axioms")
    assert code == 3 and "axiom residuals" in err and out == ""


def test_verify_runs_each_defect_recursion_once(capsys, golden_spec, monkeypatch):
    # defect-k1, defect-k2 and the subshift completeness share A_1 = sum_i S_i S_i†
    from spsys import fock
    built, real = [], fock._word_sums

    def spy(shifts, k):
        before = len(shifts._sums)
        out = real(shifts, k)
        built.extend(range(before + 1, len(shifts._sums) + 1))
        return out

    monkeypatch.setattr(fock, "_word_sums", spy)
    code, _, _ = run_cli(capsys, "verify", "--spec", golden_spec,
                         "--checks", "axioms,defect,subshift")
    assert code == 0
    assert built == [1, 2]


def test_deep_full_spec_is_refused_at_once():
    # the budget estimate of the full system's word indices is a closed form,
    # so depth 200000 is refused without summing 200000 powers of 2
    proc = subprocess.run(
        [sys.executable, "-c",
         "from spsys import linalg, subproduct\n"
         "try:\n    subproduct.from_full(2, 200_000)\n"
         "except linalg.MemoryBudgetError as e:\n    print(str(e)[:60])"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("full word indices up to level 200000 needs about")


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spsys.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_module_imports_with_scipy_masked():
    # numpy is the only runtime dependency: with scipy unimportable, every
    # spsys module still imports
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, pkgutil, sys\n"
         "sys.modules['scipy'] = None\n"
         "import spsys\n"
         "names = [m.name for m in pkgutil.iter_modules(spsys.__path__, 'spsys.')]\n"
         "for name in names:\n"
         "    importlib.import_module(name)\n"
         "print(' '.join(sorted(names)))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"spsys.{m}" for m in (
        "classify", "cli", "cpmaps", "fock", "formats", "linalg", "ncpoly", "reps",
        "subproduct")]


def test_reports_are_byte_stable(capsys, golden_spec):
    _, out1, _ = run_cli(capsys, "verify", "--spec", golden_spec,
                         "--checks", "axioms,defect")
    _, out2, _ = run_cli(capsys, "verify", "--spec", golden_spec,
                         "--checks", "axioms,defect")
    assert out1 == out2


def test_console_entry_point(tmp_path):
    spec = tmp_path / "golden.json"
    formats.dump_json(
        {"kind": "subshift", "d": 2, "depth": 6, "forbidden": [[2, 2]]}, spec)
    proc = subprocess.run(
        [sys.executable, "-m", "spsys.cli", "dims", "--spec", str(spec)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 2 3 5 8 13 21"
