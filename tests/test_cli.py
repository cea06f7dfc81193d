import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mapcones import cli, cones, linalg, superop, verifier
from mapcones.family import PhiLambdaSpec, build
from mapcones.superop import identity_map, transpose_map


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    v3 = np.eye(3, dtype=complex)
    return {
        "v3": write("v3.json", linalg.matrix_to_json(v3)),
        "id3": write("id3.json", superop.superop_to_json(identity_map(3))),
        "id2": write("id2.json", superop.superop_to_json(identity_map(2))),
        "t2": write("t2.json", superop.superop_to_json(transpose_map(2))),
        "fam04": write("fam04.json",
                       superop.superop_to_json(build(PhiLambdaSpec(v3, 0.4)))),
        "fam06": write("fam06.json",
                       superop.superop_to_json(build(PhiLambdaSpec(v3, 0.6)))),
        "x2": write("x2.json",
                    linalg.matrix_to_json(np.array([[1, 2j], [0, 3]], dtype=complex))),
        "bad": write("bad.json", {"rows": 2, "cols": 2, "entries": [[1, 0]]}),
        "notjson": write("notjson.json", "{{{"),
        "dir": str(tmp_path),
    }


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_dual_command(capsys):
    code, out = run(capsys, "dual", "dual(meet(P, t(CP)))")
    assert code == 0
    assert out == {"cone": "join(SP,t(CP))", "dual": "meet(P,t(CP))"}


def test_dual_self_dual_cp(capsys):
    code, out = run(capsys, "dual", "CP")
    assert code == 0 and out["dual"] == "CP"


def test_grammar_error_exit_64(capsys):
    assert cli.main(["dual", "P("]) == 64


@pytest.mark.parametrize("argv", [["member"], ["--bogus"]])
def test_usage_error_exit_64_not_the_unknown_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 64
    assert "usage: mapcones" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: mapcones" in capsys.readouterr().out


def test_member_exit_codes(capsys, files):
    assert cli.main(["member", files["fam04"], "Pk(2)"]) == 0
    assert cli.main(["member", files["fam06"], "Pk(2)"]) == 1
    assert cli.main(["member", files["t2"], "CP"]) == 1
    assert cli.main(["member", files["t2"], "P"]) == 0


def test_member_verdict_payload(capsys, files):
    code, out = run(capsys, "member", files["t2"], "CP")
    assert code == 1
    assert out["status"] == "not_member"
    assert out["witness"] is not None


@pytest.mark.parametrize("cone,exit_code", [
    ("t(CP)", 1), ("meet(CP,t(CP))", 1), ("join(CP,t(CP))", 0),
])
def test_member_verdict_on_identity_is_json(capsys, files, cone, exit_code):
    # child verdicts pass through a twirl, a meet and a join as plain JSON
    code, out = run(capsys, "member", files["id2"], cone)
    assert code == exit_code
    assert out["status"] == ("member" if exit_code == 0 else "not_member")


def test_witness_command(capsys, files):
    code, out = run(capsys, "witness", files["t2"], "CP")
    assert code == 0
    assert out["pairing"] < -1e-6
    # a member has no witness
    code, out = run(capsys, "witness", files["id2"], "CP")
    assert code == 2
    assert out == {"witness": None}


def _ad_u_plus_trace():
    u = linalg.random_unitary(3, np.random.default_rng(8))
    return superop.from_choi(superop.ad_map(u).choi + 0.05 * np.eye(9), 3, 3)


@pytest.mark.parametrize("build_map,cone", [
    pytest.param(_ad_u_plus_trace, "SPk(2)", id="spk"),
    pytest.param(lambda: superop.random_hp_map(3, 3, 5), "join(Pk(2),t(Pk(2)))",
                 id="sampled_join"),
])
def test_witness_command_prints_the_composition_eigenvalue(capsys, tmp_path, build_map, cone):
    # the composition test on sampled dual generators refutes Ad_U + 0.05 Tr
    # in SPk(2) and a random Hermiticity-preserving map in a sampled join
    path = tmp_path / "map.json"
    path.write_text(json.dumps(superop.superop_to_json(build_map())))
    code, out = run(capsys, "witness", str(path), cone)
    assert code == 0
    assert out["pairing"] is None
    assert out["composition_eigenvalue"] < -1e-6
    code, verdict = run(capsys, "member", str(path), cone)
    assert code == 1
    assert verdict["witness"]["composition_eigenvalue"] == out["composition_eigenvalue"]


def test_apply_and_choi_roundtrip(capsys, files):
    code, out = run(capsys, "apply", files["t2"], files["x2"])
    assert code == 0
    got = linalg.matrix_from_json(out)
    assert np.allclose(got, np.array([[1, 0], [2j, 3]]), atol=1e-12)


def test_choi_from_kraus(capsys, files, tmp_path):
    ops = [np.array([[1, 0], [0, 1]], dtype=complex)]
    p = tmp_path / "kraus.json"
    p.write_text(json.dumps({"kraus": [linalg.matrix_to_json(k) for k in ops]}))
    code, out = run(capsys, "choi", str(p))
    assert code == 0
    assert superop.superop_from_json(out).isclose(identity_map(2), 1e-12)


def test_from_choi_and_dims_mismatch(capsys, files, tmp_path):
    c = tmp_path / "choi.json"
    c.write_text(json.dumps(linalg.matrix_to_json(np.eye(4, dtype=complex))))
    code, out = run(capsys, "from-choi", str(c), "--dims", "2,2")
    assert code == 0 and out["m"] == 2
    assert cli.main(["from-choi", str(c), "--dims", "3,3"]) == 65
    capsys.readouterr()
    assert cli.main(["from-choi", str(c), "--dims", "2x2"]) == 66
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dims must be 'm,n'")


def test_compose_dimension_mismatch_exit_65(capsys, files):
    assert cli.main(["compose", files["id3"], files["id2"]]) == 65
    assert cli.main(["pair", files["id3"], files["id2"]]) == 65


def test_pair_command(capsys, files):
    code, out = run(capsys, "pair", files["id2"], files["t2"])
    assert code == 0
    # <id, t> = Tr(swap) = 2 on C^2
    assert abs(out["pairing"] - 2.0) < 1e-9


def test_adjoint_command(capsys, tmp_path):
    phi = superop.random_map(2, 3, np.random.default_rng(6))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(superop.superop_to_json(phi)))
    code, out = run(capsys, "adjoint", str(path))
    assert code == 0
    adj = superop.superop_from_json(out)
    assert adj.dims == (3, 2) and adj.isclose(phi.adjoint(), 1e-12)


def test_inner_command(capsys, files):
    # <id, id> = Tr(C C^dagger) = 4 for the Choi matrix C of the 2 x 2 identity
    code, out = run(capsys, "inner", files["id2"], files["id2"])
    assert code == 0
    assert out == {"inner": [4.0, 0.0]}


def test_dash_reads_the_map_from_stdin(capsys, monkeypatch, files):
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(files["t2"]).read_text()))
    code, out = run(capsys, "member", "-", "P")
    assert code == 0 and out["status"] == "member"


def test_malformed_json_nonzero(capsys, files):
    assert cli.main(["member", files["bad"], "CP"]) == 66
    assert cli.main(["member", files["notjson"], "CP"]) == 66


@pytest.mark.parametrize("stdin", [False, True])
def test_deeply_nested_json_is_malformed_input(capsys, monkeypatch, tmp_path, stdin):
    # json's decoder recurses once per level and runs out far below this depth
    text = "[" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["member", "-" if stdin else str(path), "P"]) == 66
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read JSON")


def _nested(constructor, depth):
    """``depth`` applications of a cone constructor around CP."""
    head = f"{constructor}(" if constructor in ("t", "dual") else f"{constructor}(CP,"
    return head * depth + "CP" + ")" * depth


@pytest.mark.parametrize("constructor", ["t", "dual", "meet", "join"])
def test_cone_nesting_bound_is_a_grammar_error(capsys, files, constructor):
    # the identity is CP, so every chain of constructors around CP holds it
    bound = cones._MAX_NESTING
    code, out = run(capsys, "member", files["id2"], _nested(constructor, bound))
    assert code == 0 and out["status"] == "member"
    assert cli.main(["member", files["id2"], _nested(constructor, bound + 1)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cone expression nested deeper than {bound}"]


def _hp_json(d, **fields):
    """A random d x d Hermiticity-preserving map's JSON with ``fields`` replaced."""
    obj = superop.superop_to_json(superop.random_hp_map(d, d, 5))
    obj.update(fields)
    return obj


def _hp_entries(entries):
    obj = _hp_json(1)
    obj["choi"]["entries"] = entries
    return obj


_MISSING_DIR = object()  # stands for an --output path in a missing directory
_NOT_HP = superop.superop_to_json(
    superop.from_choi(np.triu(np.ones((4, 4), dtype=complex)), 2, 2))
# A = ones(9, 9) and B = H + 1j delta ones(9, 9), delta = 0.4e-9 max|H|: both
# Hermiticity-preserving within tol, but <A, B> has an imaginary residue
_H = linalg.random_hermitian(9, np.random.default_rng(3))
_RESIDUE_PAIR = [superop.superop_to_json(superop.from_choi(c, 3, 3)) for c in (
    np.ones((9, 9), dtype=complex), _H + 0.4e-9j * np.abs(_H).max() * np.ones((9, 9)))]


@pytest.mark.parametrize("argv,code", [
    pytest.param(["choi", _hp_json(2, m=3)], 65, id="choi_shape_mismatch"),
    pytest.param(["member", _hp_json(2, m=2.9), "P"], 66, id="float_dim"),
    pytest.param(["member", _hp_json(1, m=True), "P"], 66, id="bool_dim"),
    pytest.param(["witness", _NOT_HP, "P"], 66, id="witness_not_hp"),
    pytest.param(["pair", *_RESIDUE_PAIR], 66, id="pair_imaginary_residue"),
    pytest.param(["witness", "--samples", "0", _hp_json(3),
                  "join(Pk(2),t(Pk(2)))"], 66, id="witness_samples_0"),
    pytest.param(["verify", "--dims", "2,2", "--trials", "0"], 66, id="verify_trials_0"),
    pytest.param(["--output", _MISSING_DIR, "dual", "P"], 66, id="output_missing_dir"),
    pytest.param(["choi", {"kraus": 5}], 66, id="kraus_not_list"),
    pytest.param(["member", _hp_json(2, m=[2]), "P"], 66, id="list_dim"),
    pytest.param(["member", _hp_entries(7), "P"], 66, id="int_entries"),
    pytest.param(["member", _hp_entries([5]), "P"], 66, id="int_entry"),
    pytest.param(["member", _hp_entries([[5]]), "P"], 66, id="one_number_entry"),
    pytest.param(["member", "--tol", "nan", _hp_json(2), "P"], 66, id="nan_tol"),
    pytest.param(["member", "--tol", "-1", _hp_json(2), "P"], 66, id="negative_tol"),
    # a negative seed is malformed before any route runs, whatever the cone
    pytest.param(["member", _hp_json(3), "CP", "--seed", "-1"], 66, id="cp_negative_seed"),
    pytest.param(["member", _hp_json(3), "P", "--seed", "-1"], 66, id="p_negative_seed"),
    pytest.param(["verify", "--dims", "2,2", "--trials", "3", "--tol", "nan"], 66,
                 id="verify_nan_tol"),
    pytest.param(["phi-lambda", "--v", linalg.matrix_to_json(np.eye(3)), "--lambda", "0.6",
                  "--k", "2", "--tol", "nan"], 66, id="phi_lambda_nan_tol"),
    pytest.param(["phi-lambda", "--v", linalg.matrix_to_json(np.eye(3)), "--lambda", "nan",
                  "--k", "2"], 66, id="phi_lambda_nan"),
    pytest.param(["phi-lambda", "--v", linalg.matrix_to_json(np.eye(3)), "--lambda", "inf",
                  "--k", "2"], 66, id="phi_lambda_inf"),
    pytest.param(["phi-lambda", "--v", linalg.matrix_to_json(np.eye(3)), "--lambda", "0.4",
                  "--k", "0"], 66, id="phi_lambda_k_0"),
    pytest.param(["phi-lambda", "--v", linalg.matrix_to_json(np.eye(3)), "--lambda", "0.4",
                  "--k", "4"], 66, id="phi_lambda_k_4"),
])
def test_malformed_input_exits_with_its_code_and_one_error_line(capsys, tmp_path,
                                                                argv, code):
    def arg(i, a):
        if a is _MISSING_DIR:
            return str(tmp_path / "missing" / "out.json")
        if isinstance(a, dict):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(a))
            return str(path)
        return a

    # cli.main returns: nothing escapes it as a traceback
    assert cli.main([arg(i, a) for i, a in enumerate(argv)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize("check", sorted(verifier.CHECK_IDS))
def test_verify_rejects_trials_below_one_for_every_check(capsys, check, trials):
    # thm4 runs max(1, trials // 20) blocks, so only the plan's own check
    # stops it from passing on no trials at all
    argv = ["verify", "--dims", "3,3", "--check", check, "--trials", trials]
    assert cli.main(argv) == 66
    assert capsys.readouterr().err == f"error: trials must be >= 1, got {trials}\n"


def test_phi_lambda_report(capsys, files):
    code, out = run(capsys, "phi-lambda", "--v", files["v3"], "--lambda", "0.4",
                    "--k", "2", "--samples", "150")
    assert code == 0
    assert abs(out["cp_threshold"] - 1 / 3) < 1e-12
    assert out["k_positivity_thresholds"] == {"1": 1.0, "2": 0.5,
                                              "3": pytest.approx(1 / 3)}
    assert out["analytic_k_positive"] is True
    assert out["brute_force_k_positive"] is True


def test_verify_command_green(capsys):
    code, out = run(capsys, "verify", "--dims", "2,2", "--trials", "8", "--seed", "7")
    assert code == 0
    assert all(r["passed"] for r in out)


def test_verify_single_check(capsys):
    code, out = run(capsys, "verify", "--dims", "2,2", "--trials", "8",
                    "--check", "lemma6")
    assert code == 0
    assert out and all(r["check_id"].startswith("lemma6") for r in out)


def _count_checks(monkeypatch):
    """Wrap every verifier.check_* so that each call is logged by name."""
    from mapcones import verifier
    calls = []
    for name in [n for n in vars(verifier) if n.startswith("check_")]:
        def wrapped(*args, _name=name, _check=getattr(verifier, name)):
            calls.append(_name)
            return _check(*args)
        monkeypatch.setattr(verifier, name, wrapped)
    return calls


def test_verify_single_check_runs_only_that_check(monkeypatch, capsys):
    calls = _count_checks(monkeypatch)
    code, out = run(capsys, "verify", "--dims", "2,2;2,3", "--trials", "4",
                    "--check", "thm4")
    assert code == 0
    assert [r["check_id"] for r in out] == ["thm4_rank_conjugation_k1",
                                            "thm4_rank_conjugation_k2",
                                            "thm4_rank_conjugation_k1",
                                            "thm4_rank_conjugation_k2"]
    assert calls == ["check_thm4"] * 4


def test_verify_unknown_check_fails_before_any_check_runs(monkeypatch, capsys):
    calls = _count_checks(monkeypatch)
    assert cli.main(["verify", "--dims", "2,2", "--trials", "4", "--check", "thm9"]) == 66
    assert "unknown check id 'thm9'" in capsys.readouterr().err
    assert calls == []


def test_output_flag_writes_file(capsys, files, tmp_path):
    dest = tmp_path / "out.json"
    code = cli.main(["dual", "P", "--output", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["dual"] == "SP"


def test_global_flags_accepted_before_subcommand(capsys, files):
    assert cli.main(["--seed", "3", "--samples", "100", "member",
                     files["fam04"], "Pk(2)"]) == 0


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mapcones.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
