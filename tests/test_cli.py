import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mapcones import cli, linalg, superop
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


def test_compose_dimension_mismatch_exit_65(capsys, files):
    assert cli.main(["compose", files["id3"], files["id2"]]) == 65
    assert cli.main(["pair", files["id3"], files["id2"]]) == 65


def test_pair_command(capsys, files):
    code, out = run(capsys, "pair", files["id2"], files["t2"])
    assert code == 0
    # <id, t> = Tr(swap) = 2 on C^2
    assert abs(out["pairing"] - 2.0) < 1e-9


def test_malformed_json_nonzero(capsys, files):
    assert cli.main(["member", files["bad"], "CP"]) == 66
    assert cli.main(["member", files["notjson"], "CP"]) == 66


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
