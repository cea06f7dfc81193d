import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcones import cli, cones, linalg, superop
from mapcones.cones import (
    MEMBER,
    NOT_MEMBER,
    UNKNOWN,
    ConeGrammarError,
    MemberConfig,
    dual_expr,
    format_cone,
    includes,
    member,
    normalize,
    pair,
    parse_cone,
    recheck,
    sample_generators,
    witness_search,
)
from mapcones.family import PhiLambdaSpec, build, k_positivity_threshold
from mapcones.superop import ad_map, identity_map, trace_map, transpose_map

RNG = np.random.default_rng(11)
CFG = MemberConfig(samples=200, seed=0)


# ---------------------------------------------------------------------------
# grammar / normalization / duality rewriting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,pretty", [
    ("P", "P"),
    ("SP", "SP"),
    ("CP", "CP"),
    ("Pk(2)", "Pk(2)"),
    ("SPk(2)", "SPk(2)"),
    ("t(CP)", "t(CP)"),
    ("meet(P, t(CP))", "meet(P,t(CP))"),
    ("join(CP, t(CP))", "join(CP,t(CP))"),
])
def test_parse_format_roundtrip(text, pretty):
    assert format_cone(parse_cone(text)) == pretty


@pytest.mark.parametrize("bad", [
    "", "P(", "Pk()", "Pk(0)", "Pk(x)", "meet(P)", "join(P,Q)", "dual",
    "P extra", "t(t", "Qk(2)",
])
def test_grammar_errors(bad):
    with pytest.raises(ConeGrammarError):
        parse_cone(bad)


def test_normalize_collapses():
    assert format_cone(normalize(parse_cone("Pk(1)"), 3, 3)) == "P"
    assert format_cone(normalize(parse_cone("SPk(1)"), 3, 3)) == "SP"
    assert format_cone(normalize(parse_cone("Pk(3)"), 3, 3)) == "CP"
    assert format_cone(normalize(parse_cone("SPk(2)"), 2, 3)) == "CP"
    assert format_cone(normalize(parse_cone("t(t(CP))"), 3, 3)) == "CP"
    assert format_cone(normalize(parse_cone("t(P)"), 3, 3)) == "P"
    assert format_cone(normalize(parse_cone("t(SP)"), 3, 3)) == "SP"


def test_normalize_rejects_out_of_range_k():
    with pytest.raises(ConeGrammarError):
        normalize(parse_cone("Pk(4)"), 3, 3)


def test_dual_structural_rules():
    def dual_text(text, m=3, n=3):
        return format_cone(dual_expr(normalize(parse_cone(text), m, n)))

    assert dual_text("P") == "SP"
    assert dual_text("SP") == "P"
    assert dual_text("CP") == "CP"
    assert dual_text("Pk(2)") == "SPk(2)"
    assert dual_text("SPk(2)") == "Pk(2)"
    assert dual_text("t(CP)") == "t(CP)"
    assert dual_text("meet(CP, t(CP))") == "join(CP,t(CP))"
    assert dual_text("dual(dual(P))") == "SP"
    assert dual_text("dual(P)") == "P"


def test_normalize_eliminates_dual_nodes():
    expr = normalize(parse_cone("dual(meet(Pk(2), t(CP)))"), 3, 3)
    assert format_cone(expr) == "join(SPk(2),t(CP))"


def test_includes_chain():
    m = n = 3
    def nc(text):
        return normalize(parse_cone(text), m, n)
    assert includes(nc("P"), nc("Pk(2)"))
    assert includes(nc("Pk(2)"), nc("CP"))
    assert includes(nc("CP"), nc("SPk(2)"))
    assert includes(nc("SPk(2)"), nc("SP"))
    assert not includes(nc("CP"), nc("P"))


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_config_dict_keeps_field_order():
    cfg = MemberConfig(tol=1e-7, samples=3, seed=5, max_iters=9)
    assert list(cfg.as_dict().items()) == list(dataclasses.asdict(cfg).items())


def test_pair_requires_hp():
    phi = superop.random_map(2, 2, RNG)
    phi = superop.from_choi(phi.choi + 1j * np.diag([1.0, 0, 0, 0]), 2, 2)
    with pytest.raises(ValueError):
        pair(phi, identity_map(2))


def test_pair_trace_against_identity():
    # <Tr(.)I, id> = Tr over the Choi pairing = n
    n = 3
    assert abs(pair(trace_map(n), identity_map(n)) - n) < 1e-12


# ---------------------------------------------------------------------------
# membership verdicts
# ---------------------------------------------------------------------------

def test_identity_is_cp_member_with_kraus_certificate():
    verdict = member(identity_map(3), normalize(parse_cone("CP"), 3, 3), CFG)
    assert verdict.status == MEMBER
    assert recheck(identity_map(3), verdict)


def test_transpose_not_cp_with_eigen_witness():
    t = transpose_map(2)
    verdict = member(t, normalize(parse_cone("CP"), 2, 2), CFG)
    assert verdict.status == NOT_MEMBER
    assert verdict.witness is not None
    assert recheck(t, verdict)


def test_transpose_is_positive():
    t = transpose_map(3)
    verdict = member(t, normalize(parse_cone("P"), 3, 3), CFG)
    assert verdict.status == MEMBER
    assert recheck(t, verdict)


def test_random_kraus_maps_are_cp():
    for _ in range(10):
        phi = superop.random_cp_map(2, 3, RNG)
        verdict = member(phi, normalize(parse_cone("CP"), 2, 3), CFG)
        assert verdict.status == MEMBER
        assert recheck(phi, verdict)


def test_rank_one_ad_is_sp_member():
    v = np.outer(linalg.random_complex((3,), RNG), linalg.random_complex((3,), RNG))
    phi = ad_map(v)
    verdict = member(phi, normalize(parse_cone("SP"), 3, 3), CFG)
    assert verdict.status == MEMBER
    assert recheck(phi, verdict)


def test_family_map_k_positivity_window():
    v = np.eye(3, dtype=complex)
    expr = normalize(parse_cone("Pk(2)"), 3, 3)
    below = build(PhiLambdaSpec(v, 0.4))   # threshold is 1/2
    above = build(PhiLambdaSpec(v, 0.6))
    vb = member(below, expr, CFG)
    va = member(above, expr, CFG)
    assert vb.status == MEMBER
    assert va.status == NOT_MEMBER
    assert recheck(below, vb)
    assert recheck(above, va)


def test_twirl_membership():
    # t(CP) holds exactly the maps Phi with Phi . t completely positive
    t = transpose_map(3)
    expr = normalize(parse_cone("t(CP)"), 3, 3)
    verdict = member(t, expr, CFG)
    assert verdict.status == MEMBER
    assert recheck(t, verdict)
    verdict = member(identity_map(3), expr, CFG)
    assert verdict.status == NOT_MEMBER
    assert recheck(identity_map(3), verdict)
    # a dual-sampling witness of SPk(2), with no pairing, passes through t(.) too
    verdict = member(t, normalize(parse_cone("t(SPk(2))"), 3, 3), CFG)
    assert verdict.status == NOT_MEMBER and verdict.witness["pairing"] is None
    assert recheck(t, verdict)


def test_meet_and_join_membership():
    expr_meet = normalize(parse_cone("meet(CP, t(CP))"), 2, 2)
    expr_join = normalize(parse_cone("join(CP, t(CP))"), 2, 2)
    tr = trace_map(2)  # Tr(.)I is CP and equal to its own twirl
    vm = member(tr, expr_meet, CFG)
    assert vm.status == MEMBER
    assert recheck(tr, vm)
    # identity is CP hence in the join, but not in the meet
    vj = member(identity_map(2), expr_join, CFG)
    assert vj.status == MEMBER
    assert recheck(identity_map(2), vj)
    vm = member(identity_map(2), expr_meet, CFG)
    assert vm.status == NOT_MEMBER
    assert recheck(identity_map(2), vm)


def test_member_rejects_non_hp_map():
    phi = superop.random_map(2, 2, RNG)
    phi = superop.from_choi(phi.choi + 1j * np.diag([1.0, 0, 0, 0]), 2, 2)
    with pytest.raises(ValueError):
        member(phi, normalize(parse_cone("CP"), 2, 2), CFG)


# ---------------------------------------------------------------------------
# generators and witness search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["SP", "SPk(2)", "CP", "t(CP)"])
def test_sampled_generators_verifiably_members(text):
    m = n = 3
    expr = normalize(parse_cone(text), m, n)
    gens = sample_generators(expr, m, n, 12, seed=5)
    assert gens
    for g in gens:
        assert member(g, expr, MemberConfig(samples=100, seed=1)).status == MEMBER


@pytest.mark.parametrize("text", ["SP", "SPk(2)", "CP", "t(CP)", "join(CP,t(CP))",
                                  "join(SPk(2),t(SPk(2)))", "meet(CP,t(CP))", "Pk(2)",
                                  # per-sample member admission; inclusion admission
                                  "meet(Pk(2),t(CP))", "meet(CP,Pk(2))"])
def test_sampled_generators_carry_sound_certificates(text):
    # the non-square shapes exercise the stacked twirl's reshape
    for m, n in ((3, 3), (2, 3), (3, 2)):
        expr = normalize(parse_cone(text), m, n)
        rng = np.random.default_rng(5)
        pairs = cones._sample_with_certs(expr, m, n, 12, rng)
        assert len(pairs) == 12
        for g, cert in pairs:
            assert recheck(g, cones.Verdict(MEMBER, certificate=cert)), (m, n, cert)


def test_generator_sampling_deterministic():
    expr = normalize(parse_cone("SPk(2)"), 3, 3)
    a = sample_generators(expr, 3, 3, 8, seed=3)
    b = sample_generators(expr, 3, 3, 8, seed=3)
    assert all(x == y for x, y in zip(a, b))


def test_join_witness_search_makes_two_eigensolver_calls(monkeypatch):
    # one batched spectrum admits each meet(CP,t(CP)) side; pairing needs none
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _solver=solver, **k: calls.append(1) or _solver(*a, **k))
    # (witness_search on join(CP,t(CP)) runs the projection engine instead)
    phi = superop.random_hp_map(3, 3, np.random.default_rng(4))
    cones._sampled_witness(phi, normalize(parse_cone("meet(CP,t(CP))"), 3, 3),
                           MemberConfig(samples=500, seed=0))
    assert len(calls) == 2


def test_stacked_pairing_and_compositions_match_per_sample_loops():
    rng = np.random.default_rng(17)
    m, n = 2, 3
    phi = superop.random_hp_map(m, n, rng)
    chois, _ = cones._sample_stack(normalize(parse_cone("meet(CP,t(CP))"), m, n),
                                       m, n, 60, rng)
    psis = [superop.from_choi(c, m, n) for c in chois]
    stacked = cones._pair_stack(chois, phi, 1e-9)
    looped = np.array([pair(psi, phi) for psi in psis])
    assert np.max(np.abs(stacked - looped)) <= 1e-12
    assert np.argmin(stacked) == np.argmin(looped)

    comps = superop.adjoint_compositions(chois, phi)
    for comp, psi in zip(comps, psis):
        assert np.max(np.abs(comp - psi.adjoint().compose(phi).choi)) <= 1e-12


def test_spk_dual_sampling_returns_the_first_hit_of_the_per_sample_loop():
    # Ad_U + 0.05 Tr for a generic unitary U is CP, but its eigenvectors give
    # no rank-2 Kraus decomposition, so only the sampled Pk(2) duals can
    # refute SPk(2); here the first refuting sample is not the first sample
    u = linalg.random_unitary(3, np.random.default_rng(8))
    phi = superop.from_choi(ad_map(u).choi + 0.05 * np.eye(9), 3, 3)
    cfg = MemberConfig(samples=40, seed=2)
    verdict = member(phi, normalize(parse_cone("SPk(2)"), 3, 3), cfg)
    assert verdict.diagnostics["route"] == "dual_sampling"
    gens = cones._sample_with_certs(cones.Base("Pk", 2), 3, 3, 40,
                                    np.random.default_rng(cfg.seed + 3))
    floors = [linalg.hermitian_part_eigen(psi.adjoint().compose(phi).choi)[0][0]
              for psi, _ in gens]
    first = next(i for i, val in enumerate(floors) if val < -cfg.tol)
    assert first > 0
    wit = verdict.witness
    assert wit["psi"].isclose(gens[first][0], 1e-12)
    assert abs(wit["composition_eigenvalue"] - floors[first]) <= 1e-12
    assert recheck(phi, verdict)


def test_unknown_verdicts_report_the_closest_approach():
    # Phi[2,1,0] is positive but not decomposable: no sampled dual generator
    # of join(CP,t(CP)) refutes it, but the projection engine does
    phi = superop.from_choi(_ckl_choi(2.0, 1.0, 0.0), 3, 3)
    expr = normalize(parse_cone("join(CP,t(CP))"), 3, 3)
    gens = cones._sample_with_certs(dual_expr(expr), 3, 3, CFG.samples,
                                    np.random.default_rng(CFG.seed))
    assert min(pair(g, phi) for g, _ in gens) >= -CFG.tol
    verdict = member(phi, expr, CFG)
    assert verdict.status == NOT_MEMBER
    assert verdict.diagnostics["route"] == "join_dual_witness"
    assert 1 <= verdict.diagnostics["sweeps"] <= CFG.max_iters
    assert recheck(phi, verdict)
    # Phi[2,.5,.5] sits on the boundary, b c = ((3 - a) / 2)^2: every sweep
    # runs, and the PPT elements tried approach a zero pairing from above
    phi = superop.from_choi(_ckl_choi(2.0, 0.5, 0.5), 3, 3)
    verdict = member(phi, expr, CFG)
    assert verdict.status == UNKNOWN
    diag = verdict.diagnostics
    assert diag["route"] == "join" and "dual_samples" not in diag
    assert diag["sweeps"] == CFG.max_iters
    assert -CFG.tol <= diag["closest_pairing"] <= 1e-6
    # a sum of three rank-2 conjugations lies in SPk(2), so no dual refutes it
    rng = np.random.default_rng(3)
    ops = [linalg.random_complex((3, 2), rng) @ linalg.random_complex((2, 3), rng)
           for _ in range(3)]
    phi = superop.from_kraus(ops)
    verdict = member(phi, normalize(parse_cone("SPk(2)"), 3, 3), CFG)
    assert verdict.status == UNKNOWN
    gens = cones._sample_with_certs(cones.Base("Pk", 2), 3, 3, 100,
                                    np.random.default_rng(CFG.seed + 3))
    closest = min(linalg.hermitian_part_eigen(g.adjoint().compose(phi).choi)[0][0]
                  for g, _ in gens)
    assert closest >= -CFG.tol
    assert abs(verdict.diagnostics["closest_composition_eigenvalue"] - closest) <= 1e-12
    # Phi[2,1,0] is positive with product-vector minimum 0: the Pk exit, which
    # names no route, reports the least quadratic form the search reached
    phi = _rotated(_ckl_choi(2.0, 1.0, 0.0), 5)
    verdict = member(phi, normalize(parse_cone("P"), 3, 3), CFG)
    assert verdict.status == UNKNOWN and "route" not in verdict.diagnostics
    assert 1 <= verdict.diagnostics["sweeps"] <= CFG.max_iters
    assert -CFG.tol <= verdict.diagnostics["closest_value"] <= 1e-9


def test_witness_search_finds_cp_witness():
    t = transpose_map(2)
    found = witness_search(t, normalize(parse_cone("CP"), 2, 2), CFG)
    assert found is not None
    psi, value, cert = found
    assert value < -1e-6
    assert abs(pair(psi, t) - value) < 1e-9


def test_witness_search_on_member_returns_none():
    phi = superop.random_cp_map(2, 2, RNG)
    assert witness_search(phi, normalize(parse_cone("CP"), 2, 2), CFG) is None


def test_k_positivity_witness_respects_schmidt_rank():
    # the family map at lambda = 0.6 is positive but not 2-positive on C^3
    v = np.eye(3, dtype=complex)
    above = build(PhiLambdaSpec(v, 0.6))
    found = witness_search(above, normalize(parse_cone("Pk(2)"), 3, 3), CFG)
    assert found is not None
    psi, value, cert = found
    assert value < -1e-6
    ops = cert["ops"]
    assert all(np.linalg.matrix_rank(np.asarray(op), tol=1e-8) <= 2 for op in ops)


def test_recheck_rejects_tampered_verdict():
    phi = identity_map(2)
    verdict = member(phi, normalize(parse_cone("CP"), 2, 2), CFG)
    assert verdict.status == MEMBER
    other = transpose_map(2)
    assert not recheck(other, verdict)


def _kraus_cert(op, rank_bound):
    return {"type": "kraus", "ops": [op], "rank_bound": rank_bound}


def test_recheck_rejects_hull_of_other_maps():
    # the transposition is not CP, so no hull of identity maps reproduces it
    eye = np.eye(2, dtype=complex)
    cert = {"type": "hull", "weights": (0.5, 0.5),
            "parts": [_kraus_cert(eye, 2), _kraus_cert(eye, 2)]}
    assert not recheck(transpose_map(2), cones.Verdict(MEMBER, certificate=cert))
    assert recheck(identity_map(2), cones.Verdict(MEMBER, certificate=cert))


def test_recheck_rejects_hull_with_an_unsound_part():
    # the combination matches, but a rank-2 Kraus operator breaks rank_bound 1
    eye = np.eye(2, dtype=complex)
    cert = {"type": "hull", "weights": (0.5, 0.5),
            "parts": [_kraus_cert(eye, 2), _kraus_cert(eye, 1)]}
    assert not recheck(identity_map(2), cones.Verdict(MEMBER, certificate=cert))
    negative = dict(cert, weights=(1.5, -0.5), parts=[_kraus_cert(eye, 2)] * 2)
    assert not recheck(identity_map(2), cones.Verdict(MEMBER, certificate=negative))


def test_recheck_rejects_family_certificate_without_positive_a():
    # Choi -I - |e0><e0| rebuilds exactly, but with a <= 0 it is no Pk member
    e0 = np.eye(4, dtype=complex)[0]
    phi = superop.from_choi(-np.eye(4) - np.outer(e0, e0), 2, 2)
    cert = {"type": "family", "a": -1, "b": 1, "w": e0, "k": 1}
    assert not recheck(phi, cones.Verdict(MEMBER, certificate=cert))
    assert member(phi, normalize(parse_cone("P"), 2, 2), CFG).status == NOT_MEMBER


def test_recheck_rejects_meet_certificate_without_other_cert():
    # a meet certificate proves nothing of its other side without other_cert
    cert = {"type": "meet", "part": _kraus_cert(np.eye(2, dtype=complex), 2),
            "via": "inclusion"}
    assert not recheck(identity_map(2), cones.Verdict(MEMBER, certificate=cert))


def test_recheck_checks_kraus_ranks_only_below_min_dims(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # every operator of a 3 x 3 map has rank <= 3: the PPT witness of a
    # join(CP,t(CP)) refutation carries rank_bound 3, and needs no svd
    phi = _rotated(_ckl_choi(2.0, 1.0, 0.0), 43)
    verdict = member(phi, normalize(parse_cone(JOIN), 3, 3), CFG)
    assert verdict.diagnostics["route"] == "join_dual_witness"
    calls.clear()
    assert recheck(phi, verdict)
    assert not calls
    # below min(m, n) the rank is still checked
    rng = np.random.default_rng(7)
    op = linalg.random_complex((3, 2), rng) @ linalg.random_complex((2, 3), rng)
    phi = ad_map(op)
    assert not recheck(phi, cones.Verdict(MEMBER, certificate=_kraus_cert(op, 1)))
    assert recheck(phi, cones.Verdict(MEMBER, certificate=_kraus_cert(op, 2)))
    assert calls


def _ckl_choi(a, b, c):
    """Choi matrix of the Cho-Kye-Lee map Phi[a,b,c](X) = D(X) - X on 3x3
    matrices, D(X) diagonal with D(X)_ii = sum_k A[i,k] x_kk for the
    circulant A of (a, b, c)."""
    circ = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    c4 = np.zeros((3, 3, 3, 3), dtype=complex)
    for k in range(3):
        c4[k, :, k, :] += np.diag(circ[:, k])
        for l in range(3):
            c4[k, k, l, l] -= 1.0
    return c4.reshape(9, 9)


def _assert_conjugation_witness(phi, verdict, route, k):
    # the refutation is a generator Ad_V of SPk(k) with rank V exactly k
    assert verdict.status == NOT_MEMBER
    assert verdict.diagnostics["route"] == route
    wit = verdict.witness
    assert wit["type"] == "dual_element"
    cert = wit["psi_certificate"]
    assert cert["type"] == "kraus" and cert["rank_bound"] == k and len(cert["ops"]) == 1
    assert np.linalg.matrix_rank(cert["ops"][0], tol=1e-8) == k
    assert wit["pairing"] < -linalg.tolerance(phi.choi, CFG.tol)
    assert abs(wit["pairing"] - pair(wit["psi"], phi)) <= linalg.tolerance(phi.choi, 1e-12)
    if route in ("vector_search", "projection_search"):
        assert 1 <= verdict.diagnostics["sweeps"] <= CFG.max_iters
    assert recheck(phi, verdict)


def test_vector_search_refutes_non_positive_cho_kye_lee_map():
    # a + b + c < 3: Phi[2, 0.8, 0] is not positive
    phi = superop.from_choi(_ckl_choi(2.0, 0.8, 0.0), 3, 3)
    verdict = member(phi, normalize(parse_cone("P"), 3, 3), CFG)
    _assert_conjugation_witness(phi, verdict, "vector_search", 1)


def test_projection_search_refutes_perturbed_family_map_above_threshold():
    rng = np.random.default_rng(23)
    v = linalg.random_complex((3, 3), rng)
    lam = 1.3 * k_positivity_threshold(v, 2)
    extra = superop.random_cp_map(3, 3, rng, 2).choi
    # the generic CP term breaks the a*I - b|w><w| pattern
    choi = build(PhiLambdaSpec(v, lam)).choi + 1e-3 * extra / np.linalg.eigvalsh(extra)[-1]
    phi = superop.from_choi(choi, 3, 3)
    verdict = member(phi, normalize(parse_cone("Pk(2)"), 3, 3), CFG)
    _assert_conjugation_witness(phi, verdict, "projection_search", 2)


@pytest.mark.parametrize("k", [1, 2])
def test_family_projection_refutes_family_map_above_threshold(k):
    # Choi = I - lam vec(V) vec(V)^H, so a = 1, b = lam ||V||^2 and
    # b * fan_k(w) = lam * (sum of the k largest squared singular values of V)
    v = linalg.random_complex((3, 3), np.random.default_rng(31))
    lam = 1.2 * k_positivity_threshold(v, k)
    phi = build(PhiLambdaSpec(v, lam))
    verdict = member(phi, normalize(parse_cone("P" if k == 1 else f"Pk({k})"), 3, 3), CFG)
    _assert_conjugation_witness(phi, verdict, "family_projection", k)
    sv = np.linalg.svd(v, compute_uv=False)
    assert abs(verdict.witness["pairing"] - (1.0 - lam * np.sum(sv[:k] ** 2))) <= 1e-12


def test_member_and_witness_search_refute_with_the_same_conjugation():
    rng = np.random.default_rng(37)
    v = linalg.random_complex((3, 3), rng)
    cases = [(superop.random_hp_map(3, 3, rng), text) for text in ("P", "Pk(2)")
             for _ in range(3)]
    cases += [(build(PhiLambdaSpec(v, 1.3 * k_positivity_threshold(v, 2))), "Pk(2)"),
              (superop.from_choi(_ckl_choi(2.0, 0.8, 0.0), 3, 3), "P"),
              (superop.random_cp_map(3, 3, rng), "P"),
              (superop.random_cp_map(3, 3, rng), "Pk(2)")]
    refuted = 0
    for phi, text in cases:
        expr = normalize(parse_cone(text), 3, 3)
        verdict = member(phi, expr, CFG)
        found = witness_search(phi, expr, CFG)
        assert (verdict.status == NOT_MEMBER) == (found is not None), text
        if found is None:
            continue
        refuted += 1
        psi = verdict.witness["psi"]
        if verdict.diagnostics["route"] == "family_projection":
            # the exact truncation against the minimizer that approaches it
            assert psi.isclose(found[0], 1e-6)
        else:
            assert np.array_equal(psi.choi, found[0].choi)
            assert verdict.witness["pairing"] == found[1]
    assert refuted == len(cases) - 2


def _scaled(scale, phi):
    return superop.from_choi(scale * phi.choi, *phi.dims)


def _family_above_threshold(excess):
    v = linalg.random_complex((3, 3), np.random.default_rng(41))
    return build(PhiLambdaSpec(v, (1 + excess) * k_positivity_threshold(v, 2)))


def test_family_pattern_accepts_only_what_witness_search_cannot_refute():
    # the family map just above its k = 2 threshold, at three scales.  At
    # (1 + 5e-10) times the threshold (b/a) fan_2(w) is 1 + 5e-10 and the
    # pairing a - b fan_2(w) is -5e-10 a, both within tol: family_pattern
    # accepts and witness_search finds nothing.  At (1 + 5e-9) times it both
    # refute.  The tolerance is relative, so the scale changes neither answer.
    expr = normalize(parse_cone("Pk(2)"), 3, 3)
    for excess in (5e-10, 5e-9):
        for scale in (1.0, 1e3, 1e-3):
            phi = _scaled(scale, _family_above_threshold(excess))
            verdict = member(phi, expr, CFG)
            found = witness_search(phi, expr, CFG)
            if excess < CFG.tol:
                assert verdict.status == MEMBER, scale
                assert verdict.diagnostics["route"] == "family_pattern"
                assert recheck(phi, verdict)
                assert found is None, scale
            else:
                assert found is not None
                assert found[1] < -linalg.tolerance(phi.choi, CFG.tol)
                _assert_conjugation_witness(phi, verdict, "family_projection", 2)


# ---------------------------------------------------------------------------
# join(CP,t(CP)) by alternating projections
# ---------------------------------------------------------------------------

JOIN = "join(CP,t(CP))"


def _rotated(choi, seed):
    """Choi matrix of X -> U Phi(W X W^dagger) U^dagger for Haar U, W; local
    unitaries keep a map's (in)decomposability."""
    rng = np.random.default_rng(seed)
    u, w = linalg.random_unitary(3, rng), linalg.random_unitary(3, rng)
    g = np.kron(w.T, u)
    return superop.from_choi(g @ choi @ g.conj().T, 3, 3)


def _assert_ppt(psi):
    # a PPT rho of unit trace, a generator of meet(CP,t(CP))
    rho = psi.choi
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert np.linalg.eigvalsh(superop.twirl_stack(rho, *psi.dims))[0] >= -1e-12
    assert abs(np.trace(rho) - 1) <= 1e-12


# Phi[2,1,0] and Phi[2+eps,1+eps,eps] (eps < 0.155) are positive, not decomposable
INDECOMPOSABLE = [(2.0, 1.0, 0.0), (2.05, 1.05, 0.05)]


@pytest.mark.parametrize("abc", INDECOMPOSABLE)
def test_decomposition_refutes_indecomposable_cho_kye_lee_maps(abc):
    phi = _rotated(_ckl_choi(*abc), 43)
    verdict = member(phi, normalize(parse_cone(JOIN), 3, 3), CFG)
    assert verdict.status == NOT_MEMBER
    assert verdict.diagnostics["route"] == "join_dual_witness"
    assert 1 <= verdict.diagnostics["sweeps"] <= CFG.max_iters
    wit = verdict.witness
    _assert_ppt(wit["psi"])
    assert wit["psi_certificate"]["type"] == "meet"
    assert wit["pairing"] < -CFG.tol
    assert abs(wit["pairing"] - pair(wit["psi"], phi)) <= 1e-12
    assert recheck(phi, verdict)


@pytest.mark.parametrize("abc", [(2.0, 0.6, 0.6), (2.5, 0.3, 0.3), (2.2, 0.8, 0.8)])
def test_decomposition_certifies_decomposable_cho_kye_lee_maps(abc):
    # b c > ((3 - a) / 2)^2: decomposable, though neither CP nor co-CP
    phi = superop.from_choi(_ckl_choi(*abc), 3, 3)
    for text, twirled in ((JOIN, [False, True]), ("join(t(CP),CP)", [True, False])):
        verdict = member(phi, normalize(parse_cone(text), 3, 3), CFG)
        assert verdict.status == MEMBER
        assert verdict.diagnostics["route"] == "join"
        cert = verdict.certificate
        assert cert["type"] == "hull" and cert["weights"] == (1.0, 1.0)
        assert [part["type"] == "twirled" for part in cert["parts"]] == twirled
        assert recheck(phi, verdict)


def _near_decomposable(m, n, rng):
    """A decomposable map minus a random multiple of a rank-one conjugation,
    which lands on either side of the join's boundary."""
    d = m * n
    g, h = linalg.random_complex((2, d, d), rng)
    c = g @ g.conj().T + superop.twirl_stack(h @ h.conj().T, m, n)
    w = linalg.random_complex(d, rng)
    w /= np.linalg.norm(w)
    c = c - rng.uniform(0.5, 1.5) * np.real(np.vdot(w, c @ w)) * np.outer(w, w.conj())
    return superop.from_choi((c + c.conj().T) / 2, m, n)


def test_decomposition_decides_wherever_sampling_refutes():
    sampled = engine = 0
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rng = np.random.default_rng([m, n])
        expr = normalize(parse_cone(JOIN), m, n)
        for _ in range(10):
            phi = _near_decomposable(m, n, rng)
            by_sampling, _ = cones._sampled_witness(phi, dual_expr(expr), CFG)
            verdict = member(phi, expr, CFG)
            assert recheck(phi, verdict)
            cert, found, _, _ = cones._decomposition(phi, CFG)
            engine += cert is not None or found is not None
            if found is not None:
                # here the lift delta * I is needed in some maps
                _assert_ppt(found[0])
            if by_sampling is not None:
                sampled += 1
                assert found is not None, (m, n)
    assert sampled >= 5
    assert engine > sampled


def test_member_and_witness_search_refute_join_with_the_same_element():
    expr = normalize(parse_cone(JOIN), 3, 3)
    for i, abc in enumerate(INDECOMPOSABLE):
        phi = _rotated(_ckl_choi(*abc), 50 + i)
        verdict = member(phi, expr, CFG)
        psi, value, cert = witness_search(phi, expr, CFG)
        assert np.array_equal(verdict.witness["psi"].choi, psi.choi)
        assert verdict.witness["pairing"] == value
        assert cert is not None
    # a decomposable map has no witness
    assert witness_search(superop.from_choi(_ckl_choi(2.0, 0.6, 0.6), 3, 3),
                          expr, CFG) is None


def test_decomposition_output_is_byte_identical_for_a_seed():
    expr = normalize(parse_cone(JOIN), 3, 3)
    for phi in (_rotated(_ckl_choi(2.05, 1.05, 0.05), 60),
                superop.from_choi(_ckl_choi(2.2, 0.8, 0.8), 3, 3)):
        a, b = (json.dumps(cli._verdict_json(member(phi, expr, MemberConfig(seed=7))))
                for _ in range(2))
        assert a == b


# ---------------------------------------------------------------------------
# scale invariance: one tolerance rule, relative to max|C|
# ---------------------------------------------------------------------------

# each case once got a verdict that depended on the scale of the map
SCALE_CASES = {
    # an absolute -tol took the eigenvalue -1e-9 for zero
    "transposition_1e-9_is_not_cp": (
        lambda: _scaled(1e-9, transpose_map(3)), "CP", NOT_MEMBER),
    # round-off eigenvalues of the zero block fell below an absolute -tol
    "rank_one_cp_1e6_is_cp": (
        lambda: _scaled(1e6, ad_map(linalg.random_complex((3, 3), np.random.default_rng(0)))),
        "CP", MEMBER),
    # an absolute Hermiticity tolerance rejected round-off in the Choi matrix
    "cp_1e9_is_hermiticity_preserving": (
        lambda: _scaled(1e9, superop.random_cp_map(3, 3, np.random.default_rng(0))),
        "CP", MEMBER),
    # the pairing -5e-12 of the family projection did not reach -tol
    "family_1e-3_above_threshold_is_refuted": (
        lambda: _scaled(1e-3, _family_above_threshold(5e-9)), "Pk(2)", NOT_MEMBER),
    # the Kraus rank was counted with a cutoff 1e-8 max(1, s0) and rechecked
    # with 1e-8 s0: unvec of the eigenvector, diag(1e-4, 1e-9, 0), passed as
    # rank one and failed its own recheck
    "ad_diag_1e-8_is_not_sp": (
        lambda: _scaled(1e-8, ad_map(np.diag([1.0, 1e-5, 0.0]))), "SP", NOT_MEMBER),
}


@pytest.mark.parametrize("case", SCALE_CASES)
def test_scale_regressions(case):
    build_map, text, status = SCALE_CASES[case]
    phi = build_map()
    verdict = member(phi, normalize(parse_cone(text), 3, 3), CFG)
    assert verdict.status == status
    assert recheck(phi, verdict)


SCALE_MAPS = ("hp", "cp", "rank_one", "transposition", "ckl")
SCALE_CONES = ("CP", "P", "SP", "Pk(2)", "SPk(2)", "t(CP)", "t(Pk(2))", "join(CP,t(CP))",
               "meet(CP,t(CP))")
# positive and indecomposable, not positive, decomposable, and the boundary
CKL_POINTS = ((2.0, 1.0, 0.0), (2.05, 1.05, 0.05), (2.0, 0.8, 0.0), (3.0, 0.0, 0.0),
              (2.0, 0.5, 0.5))


def _random_map(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "hp":
        return superop.random_hp_map(3, 3, rng)
    if kind == "cp":
        return superop.random_cp_map(3, 3, rng)
    if kind == "rank_one":
        return ad_map(linalg.random_complex((3, 3), rng))
    if kind == "transposition":
        return transpose_map(3)
    return _rotated(_ckl_choi(*CKL_POINTS[seed % len(CKL_POINTS)]), seed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(SCALE_MAPS), text=st.sampled_from(SCALE_CONES),
       seed=st.integers(0, 10**6), log_scale=st.floats(-9.0, 9.0))
def test_verdicts_are_scale_invariant_and_pass_recheck(kind, text, seed, log_scale):
    phi = _random_map(kind, seed)
    scaled = _scaled(10.0 ** log_scale, phi)
    expr = normalize(parse_cone(text), 3, 3)
    verdict, scaled_verdict = member(phi, expr, CFG), member(scaled, expr, CFG)
    assert scaled_verdict.status == verdict.status
    assert recheck(phi, verdict) and recheck(scaled, scaled_verdict)
    for chi, v in ((phi, verdict), (scaled, scaled_verdict)):
        if v.status == NOT_MEMBER:
            # every refutation is one dual element, its pairing that of pair
            assert v.witness["type"] == "dual_element"
            if v.witness["pairing"] is not None:
                assert (abs(v.witness["pairing"] - pair(v.witness["psi"], chi))
                        <= linalg.tolerance(chi.choi, 1e-12))
