import json

import pytest

from mapcones import verifier


def test_prop1_and_isometry_checks_pass():
    for dims in [(2, 2), (2, 3)]:
        r = verifier.check_prop1(*dims, trials=20, seed=3)
        assert r.passed and r.max_violation <= 1e-9
        r = verifier.check_isometry(*dims, trials=20, seed=3)
        assert r.passed and r.max_violation <= 1e-9


def test_lemma6_check_tight_tolerance():
    r = verifier.check_lemma6(3, 2, trials=20, seed=3)
    assert r.passed
    assert r.max_violation <= 1e-12


def test_thm2_check_and_planted_refutation():
    r = verifier.check_thm2("CP", 3, 3, trials=10, seed=4)
    assert r.passed
    assert "planted transposition refuted" in r.notes


def test_thm3_adjoint_free():
    for cone in ("CP", "SP", "P"):
        assert verifier.check_thm3(cone, 3, trials=10, seed=4).passed


@pytest.mark.parametrize("k", [1, 2])
def test_thm4_threshold_bracketing(k):
    assert verifier.check_thm4(3, 3, k, trials=10, seed=4).passed


def test_thm5_factorization():
    assert verifier.check_thm5(3, 3, 2, trials=10, seed=4).passed


def test_run_all_green_and_serializable():
    reports = verifier.run_all([(2, 2), (2, 3)], seed=7, trials=10)
    assert reports
    assert all(r.passed for r in reports)
    blob = json.dumps([r.as_dict() for r in reports])
    assert "check_id" in blob


def test_plan_names_each_report_in_run_order():
    dims = [(2, 2), (2, 3), (3, 3)]
    ids = [check_id for check_id, _, _ in verifier.plan(dims, seed=2, trials=4)]
    assert ids == [r.check_id for r in verifier.run_all(dims, seed=2, trials=4)]


def test_run_all_deterministic():
    a = [r.as_dict() for r in verifier.run_all([(2, 2)], seed=7, trials=8)]
    b = [r.as_dict() for r in verifier.run_all([(2, 2)], seed=7, trials=8)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_samples_but_not_verdicts():
    a = verifier.check_prop1(2, 2, trials=10, seed=1)
    b = verifier.check_prop1(2, 2, trials=10, seed=2)
    assert a.passed and b.passed
    assert a.max_violation != b.max_violation
