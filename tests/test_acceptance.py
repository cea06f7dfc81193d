"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line with its headline statistic so the run
log doubles as an acceptance report.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from mapcones import cones, linalg, superop, verifier
from mapcones.cones import (
    MEMBER,
    NOT_MEMBER,
    MemberConfig,
    dual_expr,
    format_cone,
    mcs_stability_probe,
    member,
    normalize,
    pair,
    parse_cone,
    sample_generators,
)
from mapcones.family import PhiLambdaSpec, brute_force_k_positivity, cp_threshold, \
    k_positivity_threshold
from mapcones.superop import (
    ad_map,
    from_kraus,
    identity_map,
    map_inner,
    transpose_map,
    unvec,
    vec,
)

SHAPES = [(2, 2), (2, 3), (3, 3)]


def _report(name, stat):
    print(f"ACCEPTANCE PASS [{name}]: {stat}")


def test_criterion_1_isometry_suite():
    # 100 random map pairs per shape; map_inner vs the defining basis sum
    # sum_kl <Phi(f_kl), Psi(f_kl)>, evaluated through apply, within 1e-9
    start = time.monotonic()
    worst = 0.0
    for m, n in SHAPES:
        rng = np.random.default_rng(1000 * m + n)
        units = [linalg.matrix_unit(m, k, l) for k in range(m) for l in range(m)]
        for _ in range(100):
            phi = superop.random_map(m, n, rng)
            psi = superop.random_map(m, n, rng)
            by_sum = sum(linalg.hs_inner(phi.apply(f), psi.apply(f)) for f in units)
            worst = max(worst, abs(map_inner(phi, psi) - by_sum))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report("1 isometry", f"max |basis-sum - Choi HS| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_adjoint_identities():
    # adjoint/composition/twirl identities and conjugate symmetry within 1e-9
    start = time.monotonic()
    worst = 0.0
    for m, n in SHAPES:
        rng = np.random.default_rng(2000 * m + n)
        for _ in range(100):
            phi = superop.random_map(m, n, rng)
            psi = superop.random_map(n, m, rng)
            # (i) adjoint is an involution and reverses composition
            worst = max(worst, np.max(np.abs(
                phi.adjoint().adjoint().choi - phi.choi)))
            comp = psi.compose(phi)
            worst = max(worst, np.max(np.abs(
                comp.adjoint().choi - phi.adjoint().compose(psi.adjoint()).choi)))
            # (ii) adjoint defining property on random operators
            a = linalg.random_complex((n, n), rng)
            b = linalg.random_complex((m, m), rng)
            worst = max(worst, abs(linalg.hs_inner(phi.adjoint().apply(a), b)
                                   - linalg.hs_inner(a, phi.apply(b))))
            # (iii) twirl is an involution and commutes with the adjoint
            worst = max(worst, np.max(np.abs(
                phi.transpose_twirl().transpose_twirl().choi - phi.choi)))
            worst = max(worst, np.max(np.abs(
                phi.transpose_twirl().adjoint().choi
                - phi.adjoint().transpose_twirl().choi)))
            # conjugate symmetry of the map inner product
            chi = superop.random_map(m, n, rng)
            worst = max(worst, abs(map_inner(phi, chi) - np.conj(map_inner(chi, phi))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report("2 adjoint identities", f"max violation = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_choi_of_conjugation_exact():
    # choi(Ad_V) = vec(V) vec(V)^dagger entrywise within 1e-12, all ranks
    worst = 0.0
    count = 0
    for m, n in SHAPES:
        for rank in range(1, min(m, n) + 1):
            rng = np.random.default_rng(3000 * m + 10 * n + rank)
            for _ in range(50):
                a = linalg.random_complex((n, rank), rng)
                b = linalg.random_complex((rank, m), rng)
                v = a @ b
                w = vec(v)
                worst = max(worst, np.max(np.abs(
                    ad_map(v).choi - np.outer(w, w.conj()))))
                count += 1
    assert worst <= 1e-12
    _report("3 choi(Ad_V) exactness", f"{count} samples, max residual = {worst:.3e}")


def test_criterion_4_cp_classifier():
    cfg = MemberConfig(samples=100, seed=0)
    expr = normalize(parse_cone("CP"), 2, 2)
    assert member(identity_map(2), expr, cfg).status == MEMBER
    verdict = member(transpose_map(2), expr, cfg)
    assert verdict.status == NOT_MEMBER
    eig = verdict.witness["eigenvalue"]
    assert abs(eig - (-1.0)) <= 1e-9  # bottom of the swap spectrum
    rng = np.random.default_rng(4)
    for i in range(50):
        m, n = SHAPES[i % len(SHAPES)]
        phi = superop.random_cp_map(m, n, rng)
        assert member(phi, normalize(parse_cone("CP"), m, n), cfg).status == MEMBER
    _report("4 CP classifier", f"transposition witness eigenvalue = {eig:.12f}")


def test_criterion_5_duality_pairing_and_biduals():
    m = n = 3
    worst = np.inf
    # sampled (Pk, SPk) generator pairs are nonnegative
    for k in (1, 2, 3):
        pk = normalize(parse_cone(f"Pk({k})"), m, n)
        spk = normalize(parse_cone(f"SPk({k})"), m, n)
        for g in sample_generators(pk, m, n, 25, seed=50 + k):
            for h in sample_generators(spk, m, n, 25, seed=60 + k):
                worst = min(worst, pair(g, h))
    assert worst >= -1e-9
    # bidual inclusion for all normalized depth <= 3 expressions over the atoms
    atoms = ["CP", "t(CP)", "Pk(2)", "SPk(2)"]
    exprs = list(atoms)
    exprs += [f"t({a})" for a in atoms]
    exprs += [f"meet({a},{b})" for a in atoms for b in atoms if a != b]
    exprs += [f"join({a},{b})" for a in atoms for b in atoms if a != b]
    exprs += [f"dual({a})" for a in atoms]
    exprs += ["meet(t(CP),join(CP,SPk(2)))", "join(t(CP),meet(CP,Pk(2)))",
              "t(meet(CP,t(CP)))", "dual(meet(Pk(2),t(CP)))"]
    bidual_min = np.inf
    for text in exprs:
        expr = normalize(parse_cone(text), m, n)
        dual = dual_expr(expr)
        assert format_cone(dual_expr(dual)) == format_cone(expr)
        gens = sample_generators(expr, m, n, 10, seed=7)
        duals = sample_generators(dual, m, n, 10, seed=8)
        for g in gens:
            for h in duals:
                bidual_min = min(bidual_min, pair(g, h))
    assert bidual_min >= -1e-9
    # structural duals
    assert format_cone(dual_expr(normalize(parse_cone("P"), m, n))) == "SP"
    assert format_cone(dual_expr(normalize(parse_cone("CP"), m, n))) == "CP"
    _report("5 duality pairing",
            f"min generator pairing = {worst:.3e}, "
            f"min bidual pairing = {bidual_min:.3e} over {len(exprs)} expressions")


def test_criterion_6_composition_duality_suite():
    start = time.monotonic()
    for cone_text in ("CP", "SPk(2)"):
        r = verifier.check_thm2(cone_text, 3, 3, trials=25, seed=6)
        assert r.passed, r.notes
        if cone_text == "CP":
            assert "planted transposition refuted" in r.notes
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("6 composition duality", f"CP and SPk(2) suites green, {elapsed:.2f}s")


def test_criterion_7_family_thresholds():
    start = time.monotonic()
    v = np.eye(3, dtype=complex)
    assert abs(cp_threshold(v) - 1 / 3) <= 1e-12
    expected = {1: 1.0, 2: 0.5, 3: 1 / 3}
    for k in (1, 2, 3):
        thr = k_positivity_threshold(v, k)
        assert abs(thr - expected[k]) <= 1e-12
        ok_below, _ = brute_force_k_positivity(PhiLambdaSpec(v, thr * 0.98), k, seed=70 + k)
        ok_above, wit = brute_force_k_positivity(PhiLambdaSpec(v, thr * 1.02), k, seed=70 + k)
        assert ok_below
        assert not ok_above and wit is not None
        # the refuting factorization Ad_E . Phi uses a genuine rank-k projection
        e = np.asarray(wit)
        assert np.linalg.norm(e @ e - e) < 1e-8
        assert abs(np.trace(e).real - k) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("7 family thresholds",
            f"flips at 1, 1/2, 1/3 within 2% and CP threshold 1/3, {elapsed:.2f}s")


def test_criterion_8_stability_probes():
    m = n = 3
    cfg = MemberConfig(samples=100, seed=8)
    for text in ("CP", "SP", "t(CP)"):
        expr = normalize(parse_cone(text), m, n)
        probe = mcs_stability_probe(expr, m, n, cfg)
        assert probe["pass"], probe
    # symmetric-dual closure: twirl and adjoint of dual samples still pair >= -1e-9
    worst = np.inf
    for text in ("P", "SP", "CP", "Pk(2)", "SPk(2)"):
        expr = normalize(parse_cone(text), m, n)
        gens = sample_generators(expr, m, n, 15, seed=81)
        duals = sample_generators(dual_expr(expr), m, n, 15, seed=82)
        for psi in duals:
            for variant in (psi.transpose_twirl(), psi.adjoint()):
                for g in gens:
                    worst = min(worst, pair(variant, g))
    assert worst >= -1e-9
    _report("8 stability probes", f"min symmetric-dual pairing = {worst:.3e}")


def test_criterion_9_verify_determinism(tmp_path):
    cmd = [sys.executable, "-m", "mapcones.cli", "verify", "--seed", "7",
           "--dims", "2,2;2,3", "--trials", "10"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    reports = json.loads(runs[0])
    assert all(r["passed"] for r in reports)
    _report("9 determinism",
            f"two verify runs byte-identical ({len(runs[0])} bytes, "
            f"{len(reports)} checks)")
