"""Numerical verification suite: one executable check per statement.

Each check runs seeded random instances, records the worst absolute
violation observed and passes iff that stays within tolerance.  Statements
quantifying over infinite sets (all dual elements, all projections) are
realized as sampled universal checks plus planted counterexamples; reports
state the trial counts.  A check draws its random operators in bulk, one
:func:`linalg.random_complex_trials` call per batch of trials, whose stacks
hold bit for bit the operators a trial-by-trial loop would draw, and runs
its algebra on them with the stack kernels of :mod:`superop`.  Only
``check_lemma6`` draws trial by trial: the rank of each trial's operator,
drawn between its normals, fixes the operator's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import cones, family, linalg, superop
from .cones import dual_expr
from .superop import identity_map, transpose_map


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


def _cp_violation(chois) -> float:
    """How far the least Choi eigenvalue of a stack of maps lies below zero."""
    return max(0.0, -float(linalg.hermitian_part_eigvals(chois)[..., 0].min()))


def _dagger(ops) -> np.ndarray:
    return np.swapaxes(ops, -1, -2).conj()


def check_prop1(m: int, n: int, trials: int, seed, tol: float = 1e-9) -> CheckReport:
    """Adjoint/composition identities for the map inner product, plus the
    conjugate-symmetry lemma <Phi,Psi> = <Psi*,Phi*>.  The identities hold
    with every composition reversed as well, so the Choi matrix of
    alpha . phi is also checked against sum_kl f_kl (x) alpha(phi(f_kl)),
    taken from basis images."""
    # per trial: phi and psi m -> n, alpha n -> n, beta m -> m
    phi, psi, alpha, beta = linalg.random_complex_trials(
        [(a * b, a * b) for a, b in ((m, n), (m, n), (n, n), (m, m))], trials, seed)
    comp, adj, inner = superop.compose_stack, superop.adjoint_stack, superop.map_inner_stack
    phi_a, psi_a = adj(phi, m, n), adj(psi, m, n)
    alpha_a, beta_a = adj(alpha, n, n), adj(beta, m, m)
    base = inner(comp(phi, beta, m, m, n), psi)
    gaps = [base - inner(beta, comp(phi_a, psi, m, n, m)),
            base - inner(comp(psi_a, phi, m, n, m), beta_a)]
    alpha_phi = comp(alpha, phi, m, n, n)
    base = inner(alpha_phi, psi)
    gaps += [base - inner(alpha, comp(psi, phi_a, n, m, n)),
             base - inner(comp(phi, psi_a, n, m, n), alpha_a)]
    gaps.append(inner(comp(alpha_phi, beta, m, m, n), psi)
                - inner(phi, comp(comp(alpha_a, psi, m, n, n), beta_a, m, m, n)))
    gaps.append(inner(phi, psi) - inner(psi_a, phi_a))
    # images[z, k, l] = phi(f_kl), the (k, l) block of the Choi matrix, then
    # alpha applied to each image
    images = phi.reshape(trials, m, n, m, n).transpose(0, 1, 3, 2, 4)
    direct = np.einsum("zklij,ziajb->zkalb", images, alpha.reshape(trials, n, n, n, n),
                       optimize=True)
    worst = max(np.abs(gaps).max(),
                np.abs(alpha_phi - direct.reshape(trials, m * n, m * n)).max())
    return _report(CHECK_IDS["prop1"], m, n, trials, worst, seed, tol)


def check_isometry(m: int, n: int, trials: int, seed, tol: float = 1e-9) -> CheckReport:
    """The Choi transform is an isometry: the basis-sum inner product equals
    the Hilbert-Schmidt product of the Choi matrices."""
    chois = np.stack(linalg.random_complex_trials([(m * n, m * n)] * 2, trials, seed), axis=1)
    # images[z, p, k, l] = Phi(f_kl), the (k, l) Choi block of the map p of
    # trial z; contiguous, so that the sum below reduces in a fixed order
    images = np.ascontiguousarray(
        chois.reshape(trials, 2, m, n, m, n).transpose(0, 1, 2, 4, 3, 5))
    by_sum = (images[:, 0] * images[:, 1].conj()).sum(axis=(1, 2, 3, 4))
    by_choi = superop.map_inner_stack(chois[:, 0], chois[:, 1])
    return _report(CHECK_IDS["isometry"], m, n, trials, np.abs(by_sum - by_choi).max(),
                   seed, tol)


def check_lemma6(m: int, n: int, trials: int, seed, tol: float = 1e-12) -> CheckReport:
    """Choi matrix of a conjugation is the outer product of the vectorized
    operator; verified against direct construction from basis images."""
    rng = np.random.default_rng(seed)
    ops, kls = [], []
    for _ in range(trials):
        rank = int(rng.integers(1, min(m, n) + 1))
        ops.append(linalg.random_complex((n, rank), rng) @ linalg.random_complex((rank, m), rng))
        kls.append((int(rng.integers(m)), int(rng.integers(m))))
    v = np.array(ops)
    units = np.eye(m * m).reshape(m, m, m, m)
    # direct route: sum_kl f_kl (x) V f_kl V^dagger
    direct = np.einsum("klab,zia,zjb->zkilj", units, v, v.conj()).reshape(trials, m * n, m * n)
    w = superop.vec_stack(v)
    outer = w[:, :, None] * w[:, None, :].conj()
    # intermediate identity: V f_kl V^dagger entry (r, i) = V_rk conj(V_il)
    k, l = np.array(kls).T
    img = v @ units[k, l] @ _dagger(v)
    z = np.arange(trials)
    cols = v[z, :, k][:, :, None] * v[z, :, l].conj()[:, None, :]
    ad = superop.kraus_stack(v[:, None])
    worst = max(np.abs(direct - outer).max(), np.abs(outer - ad).max(), np.abs(img - cols).max())
    return _report(CHECK_IDS["lemma6"], m, n, trials, worst, seed, tol)


def check_thm2(cone_text: str, m: int, n: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Members composed with adjoints of dual elements are completely positive
    (both orders), and a planted non-member is refuted by some composition."""
    expr = cones.normalize(cones.parse_cone(cone_text), m, n)
    gens = cones._sample_stack(expr, m, n, trials, seed)[0]
    duals = cones._sample_stack(dual_expr(expr), m, n, trials, seed + 1)[0]
    duals_a = superop.adjoint_stack(duals, m, n)
    worst = max(_cp_violation(superop.compose_stack(duals_a, gens, m, n, m)),
                _cp_violation(superop.compose_stack(gens, duals_a, n, m, n)))
    notes = ""
    if m == n and cone_text == "CP":
        # planted non-member: transposition; the identity is a dual element
        # whose composition reproduces the transposition itself
        comp = identity_map(m).adjoint().compose(transpose_map(m))
        refuted = _cp_violation(comp.choi) > tol
        if not refuted:
            worst = max(worst, 1.0)
        notes = "planted transposition refuted" if refuted else "planted refutation FAILED"
    return _report(CHECK_IDS["thm2"].format(cone=cone_text), m, n, trials, worst, seed, tol, notes)


def check_thm3(cone_text: str, m: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Star-invariant cones on a single algebra: the adjoints drop and plain
    compositions with dual elements are completely positive."""
    expr = cones.normalize(cones.parse_cone(cone_text), m, m)
    gens = cones._sample_stack(expr, m, m, trials, seed)[0]
    duals = cones._sample_stack(dual_expr(expr), m, m, trials, seed + 1)[0]
    worst = max(_cp_violation(superop.compose_stack(duals, gens, m, m, m)),
                _cp_violation(superop.compose_stack(gens, duals, m, m, m)))
    return _report(CHECK_IDS["thm3"].format(cone=cone_text), m, m, trials, worst, seed, tol)


def check_thm4(m: int, n: int, k: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """k-positivity via conjugations with rank <= k operators, exercised on
    family maps just below and just above the analytic threshold."""
    rng = np.random.default_rng(seed)
    margin = 0.02
    vs, ws = [], []
    for _ in range(max(1, trials // 20)):
        vs.append(linalg.random_complex((n, m), rng))
        x, y = linalg.random_complex_trials([(n, k), (k, m)], 20, rng)
        ws.append(x @ y)
    v, ws = np.array(vs), np.concatenate(ws)
    w = superop.vec_stack(v)
    thr = 1.0 / family.fan(w, m, n, k)
    below = np.repeat(family.choi(1.0, thr * (1 - margin), w), 20, axis=0)
    adw = superop.kraus_stack(_dagger(ws)[:, None])
    worst = max(_cp_violation(superop.compose_stack(adw, below, m, n, m)),
                _cp_violation(superop.compose_stack(below, adw, n, m, n)))
    # above threshold a refuting rank-k conjugation must exist; the top-k
    # singular truncation of V supplies it
    above = family.choi(1.0, thr * (1 + margin), w)
    ad_wk = superop.kraus_stack(_dagger(family.truncation(v, k))[:, None])
    floors = linalg.hermitian_part_eigvals(superop.compose_stack(ad_wk, above, m, n, m))[:, 0]
    if np.any(floors >= -tol):
        worst = max(worst, 1.0)
    return _report(CHECK_IDS["thm4"].format(k=k), m, n, len(ws), worst, seed, tol)


def check_thm5(m: int, n: int, k: int, trials: int, seed,
               tol: float = 1e-9) -> CheckReport:
    """Projection-pair characterization of k-positivity plus the exact
    E U F factorization of rank <= k operators."""
    rng = np.random.default_rng(seed)
    # EVF factorization: any rank <= k operator equals E U F for its range
    # and row projections
    x, y = linalg.random_complex_trials([(n, k), (k, m)], 10, rng)
    u_op = x @ y
    uu, _, vv = np.linalg.svd(u_op)
    e = uu[..., :k] @ _dagger(uu[..., :k])
    f = _dagger(vv[:, :k]) @ vv[:, :k]
    worst = float(np.abs(e @ u_op @ f - u_op).max())
    # family threshold flip under the Schmidt-rank-k search
    v = linalg.random_complex((n, m), rng)
    thr = family.k_positivity_threshold(v, k)
    margin = 0.01
    below = family.PhiLambdaSpec(v, thr * (1 - margin))
    above = family.PhiLambdaSpec(v, thr * (1 + margin))
    ok_below, _ = family.brute_force_k_positivity(below, k, seed + 1, tol)
    ok_above, _ = family.brute_force_k_positivity(above, k, seed + 2, tol)
    if ok_above or not ok_below:
        worst = max(worst, 1.0)
    # consistency of the two-sided condition on the below-threshold member:
    # Ad_E . phi . Ad_F for random rank-k projections E and F
    q_e, q_f = (np.linalg.qr(g)[0]
                for g in linalg.random_complex_trials([(n, k), (m, k)], trials, rng))
    ad_e, ad_f = (superop.kraus_stack((q @ _dagger(q))[:, None]) for q in (q_e, q_f))
    phi = family.build(below).choi
    comp = superop.compose_stack(superop.compose_stack(ad_e, phi, m, n, n), ad_f, m, m, n)
    worst = max(worst, _cp_violation(comp))
    return _report(CHECK_IDS["thm5"].format(k=k), m, n, trials, worst, seed, tol,
                   notes=f"threshold {thr:.6g} bracketed at +-{margin:.0%}")


def plan(dims_list, seed=0, tol: float = 1e-9, trials: int = 50) -> list[tuple]:
    """The checks :func:`run_all` makes, in its order, as ``(check_id,
    check, args)``: ``check(*args)`` returns the report with that
    ``check_id``, so a caller can select checks by id before any runs.
    Raises ValueError when ``trials`` is below 1."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
                          (m, n, k, trials, seed, tol)))
    return steps


def run_all(dims_list, seed=0, tol: float = 1e-9, trials: int = 50) -> list[CheckReport]:
    """Run every check of :func:`plan` at each dims; deterministic for a fixed seed."""
    return [check(*args) for _, check, args in plan(dims_list, seed, tol, trials)]
