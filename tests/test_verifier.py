import json

import numpy as np
import pytest

from mapcones import cli, family, linalg, superop, verifier
from mapcones.linalg import DimensionError, matrix_unit
from mapcones.superop import ad_map, map_inner, vec


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


def test_reported_trials_are_the_instances_run():
    # thm4 draws 20 rank-k conjugations per round, trials // 20 rounds;
    # thm5 runs one projection pair per trial
    reports = {r.check_id: r for r in verifier.run_all([(3, 3)], seed=7, trials=50)}
    assert reports["thm4_rank_conjugation_k2"].trials == 40
    assert reports["thm5_projection_pairs_k2"].trials == 50
    assert verifier.check_thm5(2, 2, 1, trials=7, seed=1).trials == 7


def test_thm5_factorization():
    r = verifier.check_thm5(3, 3, 2, trials=10, seed=4)
    assert r.passed
    # V, and so the threshold, is drawn after the ten factorization operators
    assert r.notes == "threshold 0.176307 bracketed at +-1%"


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


# The per-trial loops of check_prop1, check_isometry and check_lemma6 before
# they ran on stacks: the reference for the stacked checks' draws and values.

def _prop1_oracle(m, n, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = superop.random_map(m, n, rng)
        psi = superop.random_map(m, n, rng)
        alpha = superop.random_map(n, n, rng)
        beta = superop.random_map(m, m, rng)
        base = map_inner(phi.compose(beta), psi)
        worst = max(worst,
                    abs(base - map_inner(beta, phi.adjoint().compose(psi))),
                    abs(base - map_inner(psi.adjoint().compose(phi), beta.adjoint())))
        base = map_inner(alpha.compose(phi), psi)
        worst = max(worst,
                    abs(base - map_inner(alpha, psi.compose(phi.adjoint()))),
                    abs(base - map_inner(phi.compose(psi.adjoint()), alpha.adjoint())))
        lhs = map_inner(alpha.compose(phi).compose(beta), psi)
        rhs = map_inner(phi, alpha.adjoint().compose(psi).compose(beta.adjoint()))
        worst = max(worst, abs(lhs - rhs))
        worst = max(worst, abs(map_inner(phi, psi)
                               - map_inner(psi.adjoint(), phi.adjoint())))
        direct = sum(np.kron(matrix_unit(m, k, l), alpha.apply(phi.apply(matrix_unit(m, k, l))))
                     for k in range(m) for l in range(m))
        worst = max(worst, float(np.max(np.abs(alpha.compose(phi).choi - direct))))
    return worst


def _isometry_oracle(m, n, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = superop.random_map(m, n, rng)
        psi = superop.random_map(m, n, rng)
        by_sum = 0.0 + 0.0j
        for k in range(m):
            for l in range(m):
                fkl = matrix_unit(m, k, l)
                by_sum += linalg.hs_inner(phi.apply(fkl), psi.apply(fkl))
        by_choi = linalg.hs_inner(phi.choi, psi.choi)
        worst = max(worst, abs(by_sum - by_choi))
    return worst


def _lemma6_oracle(m, n, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rank = int(rng.integers(1, min(m, n) + 1))
        v = linalg.random_complex((n, rank), rng) @ linalg.random_complex((rank, m), rng)
        direct = np.zeros((m * n, m * n), dtype=np.complex128)
        for k in range(m):
            for l in range(m):
                fkl = matrix_unit(m, k, l)
                direct += np.kron(fkl, v @ fkl @ v.conj().T)
        w = vec(v)
        outer = np.outer(w, w.conj())
        worst = max(worst, float(np.max(np.abs(direct - outer))))
        worst = max(worst, float(np.max(np.abs(outer - ad_map(v).choi))))
        k = int(rng.integers(m))
        l = int(rng.integers(m))
        img = v @ matrix_unit(m, k, l) @ v.conj().T
        worst = max(worst, float(np.max(np.abs(
            img - np.outer(v[:, k], v[:, l].conj())))))
    return worst


ORACLES = {"prop1": _prop1_oracle, "isometry": _isometry_oracle, "lemma6": _lemma6_oracle}


# What check_thm4 and check_thm5 drew trial by trial, without their algebra.

def _thm4_draws(m, n, k, trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(max(1, trials // 20)):
        linalg.random_complex((n, m), rng)
        for _ in range(20):
            linalg.random_complex((n, k), rng)
            linalg.random_complex((k, m), rng)


def _thm5_draws(m, n, k, trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        linalg.random_complex((n, k), rng)
        linalg.random_complex((k, m), rng)
    linalg.random_complex((n, m), rng)
    # the Schmidt-rank searches below and above the threshold draw their
    # restarts from seeds of their own
    for search_seed in (seed + 1, seed + 2):
        search = np.random.default_rng(search_seed)
        linalg.random_complex((linalg.SCHMIDT_RESTARTS, n, k), search)
        linalg.random_complex((linalg.SCHMIDT_RESTARTS, k, m), search)
    for _ in range(trials):
        linalg.random_complex((n, k), rng)
        linalg.random_complex((m, k), rng)


def _recorded(monkeypatch, run):
    """What run() returns, and every operator it drew through
    linalg.random_complex_trials, which random_complex calls with one
    trial, unstacked into per-trial draw order."""
    drawn, draw = [], linalg.random_complex_trials

    def recording(shapes, trials, rng):
        stacks = draw(shapes, trials, rng)
        drawn.extend(stack[z] for z in range(trials) for stack in stacks)
        return stacks

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "random_complex_trials", recording)
        return run(), drawn


def _assert_same_draws(drawn, oracle_drawn):
    assert len(drawn) == len(oracle_drawn)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(drawn, oracle_drawn))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stacked_check_draws_and_values_match_the_per_trial_loop(name, monkeypatch):
    check = getattr(verifier, f"check_{name}")
    report, drawn = _recorded(monkeypatch, lambda: check(2, 3, trials=10, seed=3))
    worst, oracle_drawn = _recorded(monkeypatch, lambda: ORACLES[name](2, 3, 10, 3))
    _assert_same_draws(drawn, oracle_drawn)
    assert abs(report.max_violation - worst) <= 1e-13


@pytest.mark.parametrize("name,trials", [("thm4", 45), ("thm4", 7), ("thm5", 12)])
def test_bulk_drawn_check_draws_what_the_per_trial_loop_draws(name, trials, monkeypatch):
    check, oracle = getattr(verifier, f"check_{name}"), globals()[f"_{name}_draws"]
    report, drawn = _recorded(monkeypatch, lambda: check(2, 3, 2, trials=trials, seed=3))
    _, oracle_drawn = _recorded(monkeypatch, lambda: oracle(2, 3, 2, trials, 3))
    _assert_same_draws(drawn, oracle_drawn)
    assert report.passed


def test_prop1_fails_on_a_wrong_composition(monkeypatch):
    compose = superop.compose_stack
    monkeypatch.setattr(superop, "compose_stack",
                        lambda outer, inner, m, k, n: compose(np.conj(outer), inner, m, k, n))
    assert not verifier.check_prop1(2, 2, trials=5, seed=3).passed
    # reversing every composition maps the inner-product identities onto
    # each other; at m = n the Choi matrix of alpha . phi, checked against
    # basis images, catches it, and at m != n the shapes no longer fit
    monkeypatch.setattr(superop, "compose_stack",
                        lambda outer, inner, m, k, n: compose(inner, outer, m, k, n))
    for d in (2, 3):
        assert not verifier.check_prop1(d, d, trials=5, seed=3).passed
    with pytest.raises(DimensionError):
        verifier.check_prop1(2, 3, trials=5, seed=3)


def test_isometry_fails_when_the_inner_product_drops_its_conjugate(monkeypatch):
    monkeypatch.setattr(superop, "map_inner_stack", lambda a, b: (a * b).sum(axis=(-2, -1)))
    assert not verifier.check_isometry(2, 3, trials=5, seed=3).passed


def test_thm2_fails_when_the_planted_transposition_is_not_refuted(monkeypatch, capsys):
    # the identity composed with its own adjoint is CP: nothing to refute
    monkeypatch.setattr(verifier, "transpose_map", superop.identity_map)
    report = verifier.check_thm2("CP", 3, 3, trials=5, seed=4)
    assert report.passed is False
    assert report.notes == "planted refutation FAILED"
    assert cli.main(["verify", "--dims", "3,3", "--trials", "5", "--check", "thm2"]) == 1
    capsys.readouterr()


def test_thm4_fails_when_no_conjugation_refutes_above_the_threshold(monkeypatch):
    monkeypatch.setattr(family, "truncation", lambda v, k: np.zeros_like(v))
    assert verifier.check_thm4(3, 3, 2, trials=10, seed=4).passed is False


def test_thm5_fails_when_the_search_accepts_above_the_threshold(monkeypatch):
    monkeypatch.setattr(family, "brute_force_k_positivity", lambda *args: (True, None))
    assert verifier.check_thm5(3, 3, 2, trials=10, seed=4).passed is False
