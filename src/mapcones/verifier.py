"""Numerical verification suite: one executable check per statement.

Each check runs seeded random instances, records the worst absolute
violation observed and passes iff that stays within tolerance.  Statements
quantifying over infinite sets (all dual elements, all projections) are
realized as sampled universal checks plus planted counterexamples; reports
state the trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import cones, family, linalg, superop
from .cones import Base, MemberConfig, Twirl, dual_expr, sample_generators
from .linalg import matrix_unit
from .superop import (SuperOperator, ad_map, identity_map, map_inner,
                      transpose_map, vec)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    m: int
    n: int
    trials: int
    max_violation: float
    passed: bool
    seed: int
    tol: float
    notes: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


# the report id of each check_<name>, formatted with the check's cone or k
CHECK_IDS = {
    "prop1": "prop1_adjoint_identities",
    "isometry": "choi_isometry",
    "lemma6": "lemma6_choi_of_ad",
    "thm2": "thm2_duality_{cone}",
    "thm3": "thm3_star_invariant_{cone}",
    "thm4": "thm4_rank_conjugation_k{k}",
    "thm5": "thm5_projection_pairs_k{k}",
}


def _report(check_id, m, n, trials, violation, seed, tol, notes="") -> CheckReport:
    return CheckReport(check_id, m, n, trials, float(violation),
                       bool(violation <= tol), seed, tol, notes)


def _min_choi_eig(phi: SuperOperator) -> float:
    return float(linalg.hermitian_part_eigvals(phi.choi)[0])


def check_prop1(m: int, n: int, trials: int, seed, tol: float = 1e-9) -> CheckReport:
    """Adjoint/composition identities for the map inner product, plus the
    conjugate-symmetry lemma <Phi,Psi> = <Psi*,Phi*>."""
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
    return _report(CHECK_IDS["prop1"], m, n, trials, worst, seed, tol)


def check_isometry(m: int, n: int, trials: int, seed, tol: float = 1e-9) -> CheckReport:
    """The Choi transform is an isometry: the basis-sum inner product equals
    the Hilbert-Schmidt product of the Choi matrices."""
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
    return _report(CHECK_IDS["isometry"], m, n, trials, worst, seed, tol)


def check_lemma6(m: int, n: int, trials: int, seed, tol: float = 1e-12) -> CheckReport:
    """Choi matrix of a conjugation is the outer product of the vectorized
    operator; verified against direct construction from basis images."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rank = int(rng.integers(1, min(m, n) + 1))
        v = linalg.random_complex((n, rank), rng) @ linalg.random_complex((rank, m), rng)
        # direct route: sum_kl f_kl (x) V f_kl V^dagger
        direct = np.zeros((m * n, m * n), dtype=np.complex128)
        for k in range(m):
            for l in range(m):
                fkl = matrix_unit(m, k, l)
                direct += linalg.kron(fkl, v @ fkl @ v.conj().T)
        w = vec(v)
        outer = np.outer(w, w.conj())
        worst = max(worst, float(np.max(np.abs(direct - outer))))
        worst = max(worst, float(np.max(np.abs(outer - ad_map(v).choi))))
        # intermediate identity: V f_kl V^dagger entry (r, i) = V_rk conj(V_il)
        k = int(rng.integers(m))
        l = int(rng.integers(m))
        img = v @ matrix_unit(m, k, l) @ v.conj().T
        worst = max(worst, float(np.max(np.abs(
            img - np.outer(v[:, k], v[:, l].conj())))))
    return _report(CHECK_IDS["lemma6"], m, n, trials, worst, seed, tol)


def check_thm2(cone_text: str, m: int, n: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Members composed with adjoints of dual elements are completely positive
    (both orders), and a planted non-member is refuted by some composition."""
    expr = cones.normalize(cones.parse_cone(cone_text), m, n)
    dual = dual_expr(expr)
    worst = 0.0
    gens = sample_generators(expr, m, n, trials, seed)
    duals = sample_generators(dual, m, n, trials, seed + 1)
    for phi, psi in zip(gens, duals):
        worst = max(worst, -_min_choi_eig(psi.adjoint().compose(phi)), 0.0)
        worst = max(worst, -_min_choi_eig(phi.compose(psi.adjoint())), 0.0)
    notes = ""
    if m == n and cone_text == "CP":
        # planted non-member: transposition; the identity is a dual element
        # whose composition reproduces the transposition itself
        planted = transpose_map(m)
        comp = identity_map(m).adjoint().compose(planted)
        refuted = _min_choi_eig(comp) < -tol
        if not refuted:
            worst = max(worst, 1.0)
        notes = "planted transposition refuted" if refuted else "planted refutation FAILED"
    return _report(CHECK_IDS["thm2"].format(cone=cone_text), m, n, trials, worst, seed, tol, notes)


def check_thm3(cone_text: str, m: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Star-invariant cones on a single algebra: the adjoints drop and plain
    compositions with dual elements are completely positive."""
    expr = cones.normalize(cones.parse_cone(cone_text), m, m)
    dual = dual_expr(expr)
    worst = 0.0
    gens = sample_generators(expr, m, m, trials, seed)
    duals = sample_generators(dual, m, m, trials, seed + 1)
    for phi, psi in zip(gens, duals):
        worst = max(worst, -_min_choi_eig(psi.compose(phi)), 0.0)
        worst = max(worst, -_min_choi_eig(phi.compose(psi)), 0.0)
    return _report(CHECK_IDS["thm3"].format(cone=cone_text), m, m, trials, worst, seed, tol)


def check_thm4(m: int, n: int, k: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """k-positivity via conjugations with rank <= k operators, exercised on
    family maps just below and just above the analytic threshold."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    margin = 0.02
    for _ in range(max(1, trials // 20)):
        v = linalg.random_complex((n, m), rng)
        thr = family.k_positivity_threshold(v, k)
        below = family.build(family.PhiLambdaSpec(v, thr * (1 - margin)))
        above = family.build(family.PhiLambdaSpec(v, thr * (1 + margin)))
        for _ in range(20):
            w = (linalg.random_complex((n, k), rng)
                 @ linalg.random_complex((k, m), rng))
            adw = ad_map(w.conj().T)
            worst = max(worst, -_min_choi_eig(adw.compose(below)), 0.0)
            worst = max(worst, -_min_choi_eig(below.compose(ad_map(w.conj().T))), 0.0)
        # above threshold a refuting rank-k conjugation must exist; the top-k
        # singular truncation of V supplies it
        wk = family.truncation(v, k)
        if _min_choi_eig(ad_map(wk.conj().T).compose(above)) >= -tol:
            worst = max(worst, 1.0)
    return _report(CHECK_IDS["thm4"].format(k=k), m, n, trials, worst, seed, tol)


def check_thm5(m: int, n: int, k: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Projection-pair characterization of k-positivity plus the exact
    E U F factorization of rank <= k operators."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    # EVF factorization: any rank <= k operator equals E U F for its range
    # and row projections
    for _ in range(10):
        u_op = (linalg.random_complex((n, k), rng)
                @ linalg.random_complex((k, m), rng))
        uu, ss, vv = np.linalg.svd(u_op)
        e = uu[:, :k] @ uu[:, :k].conj().T
        f = vv[:k].conj().T @ vv[:k]
        worst = max(worst, float(np.max(np.abs(e @ u_op @ f - u_op))))
    # family threshold flip under the Schmidt-rank-k search
    v = linalg.random_complex((n, m), rng)
    thr = family.k_positivity_threshold(v, k)
    margin = 0.01
    below = family.PhiLambdaSpec(v, thr * (1 - margin))
    above = family.PhiLambdaSpec(v, thr * (1 + margin))
    ok_below, _ = family.brute_force_k_positivity(below, k, seed + 1, tol)
    ok_above, _ = family.brute_force_k_positivity(above, k, seed + 2, tol)
    if not ok_below:
        worst = max(worst, 1.0)
    if ok_above:
        worst = max(worst, 1.0)
    # consistency of the two-sided condition on the below-threshold member
    phi = family.build(below)
    for _ in range(min(trials, 50)):
        e = linalg.random_projection(n, k, rng)
        f = linalg.random_projection(m, k, rng)
        comp = ad_map(e).compose(phi).compose(ad_map(f))
        worst = max(worst, -_min_choi_eig(comp), 0.0)
    return _report(CHECK_IDS["thm5"].format(k=k), m, n, trials, worst, seed, tol,
                   notes=f"threshold {thr:.6g} bracketed at +-{margin:.0%}")


def plan(dims_list, seed=0, tol: float = 1e-9, trials: int = 50) -> list[tuple]:
    """The checks :func:`run_all` makes, in its order, as ``(check_id,
    check, args)``: ``check(*args)`` returns the report with that
    ``check_id``, so a caller can select checks by id before any runs."""
    steps = []
    for m, n in dims_list:
        steps.append((CHECK_IDS["prop1"], check_prop1, (m, n, trials, seed, tol)))
        steps.append((CHECK_IDS["isometry"], check_isometry, (m, n, trials, seed, tol)))
        steps.append((CHECK_IDS["lemma6"], check_lemma6,
                      (m, n, trials, seed, max(tol, 1e-12))))
        cones_thm2 = ("CP", "SPk(2)") if min(m, n) >= 3 else ("CP",)
        for cone_text in cones_thm2:
            steps.append((CHECK_IDS["thm2"].format(cone=cone_text), check_thm2,
                          (cone_text, m, n, trials, seed, tol)))
        if m == n:
            for cone_text in ("CP", "SP", "P"):
                steps.append((CHECK_IDS["thm3"].format(cone=cone_text), check_thm3,
                              (cone_text, m, trials, seed, tol)))
        for k in range(1, min(m, n) + 1):
            steps.append((CHECK_IDS["thm4"].format(k=k), check_thm4,
                          (m, n, k, trials, seed, tol)))
            steps.append((CHECK_IDS["thm5"].format(k=k), check_thm5,
                          (m, n, k, max(trials, 200), seed, tol)))
    return steps


def run_all(dims_list, seed=0, tol: float = 1e-9, trials: int = 50) -> list[CheckReport]:
    """Run every check of :func:`plan` at each dims; deterministic for a fixed seed."""
    return [check(*args) for _, check, args in plan(dims_list, seed, tol, trials)]
