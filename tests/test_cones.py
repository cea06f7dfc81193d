import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcones import cli, cones, family, linalg, superop
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
from mapcones.family import PhiLambdaSpec, build, cp_threshold, k_positivity_threshold
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
    "P extra", "t(t", "Qk(2)", "Pk(-1)", "Pk(²)", "P+", "Ｐ", "meet(P CP)", "tt(CP)",
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
    # the join, meet and twirl rules
    assert includes(nc("join(CP,t(CP))"), nc("CP"))
    assert includes(nc("CP"), nc("meet(CP,t(CP))"))
    assert not includes(nc("meet(Pk(2),t(CP))"), nc("CP"))
    assert includes(nc("t(Pk(2))"), nc("t(CP)"))
    assert includes(nc("meet(Pk(2),P)"), nc("CP"))


_BASES = st.one_of(st.just(cones.Base("CP")),
                   st.builds(cones.Base, st.sampled_from(["Pk", "SPk"]), st.integers(1, 5)))
_TREES = st.recursive(_BASES, lambda sub: st.one_of(
    st.builds(cones.Twirl, sub), st.builds(cones.Dual, sub),
    st.builds(cones.Meet, sub, sub), st.builds(cones.Join, sub, sub)), max_leaves=10)
# the language's tokens, whitespace, and characters outside it: letters and a
# digit beyond ASCII, and ASCII that no token uses
_PIECES = ["P", "SP", "CP", "Pk", "SPk", "t", "dual", "meet", "join", "(", ")", ",", "0", "2",
           "12", " ", "\t", "é", "+", "_", "Ｐ", "٢"]


@settings(deadline=None)
@given(_TREES)
def test_parse_inverts_format(expr):
    assert parse_cone(format_cone(expr)) == expr


@st.composite
def _spliced(draw):
    """A formatted cone with up to three pieces spliced in."""
    text = format_cone(draw(_TREES))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_PIECES)) + text[i:]
    return text


@settings(deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join), _spliced()))
def test_any_text_parses_to_a_fixed_point_or_is_a_grammar_error(text):
    try:
        expr = parse_cone(text)
    except ConeGrammarError:
        return
    assert parse_cone(format_cone(expr)) == expr


def test_an_index_beyond_int_conversion_is_a_grammar_error():
    with pytest.raises(ConeGrammarError):
        parse_cone("Pk(" + "1" * 5000 + ")")


@pytest.mark.parametrize("d", [3, 4, 5])
def test_includes_and_dual_follow_the_base_chain(d):
    # SP = SPk(1) < ... < SPk(d-1) < CP < Pk(d-1) < ... < Pk(1) = P, written out
    chain = [f"SPk({k})" for k in range(1, d)] + ["CP"] + [f"Pk({k})" for k in range(d - 1, 0, -1)]
    bases = [normalize(parse_cone(text), d, d) for text in chain]
    for i, inner in enumerate(bases):
        for j, outer in enumerate(bases):
            assert includes(outer, inner) == (i <= j), (chain[j], chain[i])
    assert [dual_expr(b) for b in bases] == bases[::-1]


# (outer, inner) pairs that includes() accepts, one or more rules each
INCLUDED = [("P", "Pk(2)"), ("Pk(2)", "CP"), ("CP", "SPk(2)"), ("join(CP,t(CP))", "CP"),
            ("CP", "meet(CP,t(CP))"), ("t(Pk(2))", "t(CP)"), ("meet(Pk(2),P)", "CP")]


def test_included_cones_generators_are_never_refuted_by_the_outer_cone():
    # includes() is sound only if every map of the inner cone lies in the
    # outer one: no sampled generator of it may be refuted there
    for i, (outer, inner) in enumerate(INCLUDED):
        outer, inner = normalize(parse_cone(outer), 3, 3), normalize(parse_cone(inner), 3, 3)
        assert includes(outer, inner)
        for g in sample_generators(inner, 3, 3, 20, i):
            assert member(g, outer, CFG).status != NOT_MEMBER, (outer, inner)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_config_dict_keeps_field_order():
    cfg = MemberConfig(tol=1e-7, samples=3, seed=5)
    assert list(cfg.as_dict().items()) == list(dataclasses.asdict(cfg).items())


@pytest.mark.parametrize("fields", [
    {"samples": 0}, {"tol": -1e-9}, {"tol": float("nan")}, {"tol": float("inf")}, {"seed": -1},
], ids=["samples_0", "negative_tol", "nan_tol", "inf_tol", "negative_seed"])
def test_config_rejects_out_of_range_fields(fields):
    with pytest.raises(ValueError):
        MemberConfig(**fields)


def test_config_accepts_zero_tol_and_one_sample():
    assert MemberConfig(tol=0.0, samples=1).as_dict() == {"tol": 0.0, "samples": 1, "seed": 0}


def test_pair_requires_hp():
    phi = superop.random_map(2, 2, RNG)
    phi = superop.from_choi(phi.choi + 1j * np.diag([1.0, 0, 0, 0]), 2, 2)
    with pytest.raises(ValueError):
        pair(phi, identity_map(2))
    with pytest.raises(ValueError, match="second argument"):
        pair(identity_map(2), phi)


def _residue_pair():
    """A = ones(9, 9) and B = H + 1j delta ones(9, 9) at 3 x 3, H random
    Hermitian and delta = 0.4e-9 max|H|.  B's Hermiticity defect 2 delta is
    within the tolerance 1e-9 max|B|, but the imaginary part 81 delta of
    <A, B> is far above the pairing tolerance."""
    h = linalg.random_hermitian(9, np.random.default_rng(3))
    delta = 0.4e-9 * np.abs(h).max()
    return (superop.from_choi(np.ones((9, 9), dtype=complex), 3, 3),
            superop.from_choi(h + 1j * delta * np.ones((9, 9)), 3, 3))


def test_pair_raises_on_an_imaginary_residue():
    a, b = _residue_pair()
    assert a.is_hermiticity_preserving() and b.is_hermiticity_preserving()
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        pair(a, b)


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
                                  # rank-one conjugations; the included side
                                  "meet(Pk(2),t(CP))", "meet(CP,Pk(2))"])
def test_sampled_generators_carry_sound_certificates(text):
    # the non-square shapes exercise the stacked twirl's reshape
    for m, n in ((3, 3), (2, 3), (3, 2)):
        expr = normalize(parse_cone(text), m, n)
        chois, cert = cones._sample_stack(expr, m, n, 12, np.random.default_rng(5))
        certs = [cert(i) for i in range(12)]
        assert len(chois) == 12
        # a seed draws what the Generator it seeds draws
        assert cones._sample_stack(expr, m, n, 12, 5)[0].tobytes() == chois.tobytes()
        for c, cert in zip(chois, certs):
            g = superop.from_choi(c, m, n)
            assert {node["type"] for node in _certificate_nodes(cert)} <= CERTIFICATE_KINDS
            assert recheck(g, cones.Verdict(MEMBER, certificate=cert)), (m, n, cert)


# one certificate kind per cone former: CP, SPk, Pk, t, meet, join
CERTIFICATE_KINDS = {"psd_floor", "kraus", "family", "twirled", "both", "hull"}


def _certificate_nodes(cert):
    """The certificates of a tree, its root first; every hull part must be
    its Choi matrix and its certificate."""
    yield cert
    if cert["type"] == "twirled":
        yield from _certificate_nodes(cert["inner"])
    if cert["type"] == "both":
        yield from _certificate_nodes(cert["left"])
        yield from _certificate_nodes(cert["right"])
    if cert["type"] == "hull":
        for part in cert["parts"]:
            assert set(part) == {"choi", "certificate"}
            yield from _certificate_nodes(part["certificate"])


@pytest.mark.parametrize("text,side", [("meet(CP,Pk(2))", "CP"), ("meet(Pk(2),CP)", "CP"),
                                       ("meet(Pk(2),t(CP))", None),
                                       ("meet(t(CP),Pk(2))", None)])
def test_sampled_meet_draws_the_included_side_or_rank_one_conjugations(text, side):
    # a side that the other side includes is the meet; otherwise rank-one
    # conjugations, which lie in every mapping cone
    expr = normalize(parse_cone(text), 3, 3)
    chois, cert = cones._sample_stack(expr, 3, 3, 12, np.random.default_rng(5))
    certs = [cert(i) for i in range(12)]
    if side is not None:
        same, same_cert = cones._sample_stack(normalize(parse_cone(side), 3, 3), 3, 3, 12,
                                              np.random.default_rng(5))
        assert np.array_equal(chois, same)
        assert [c["type"] for c in certs] == [same_cert(i)["type"] for i in range(12)]
    else:
        assert all(c["type"] == "kraus" and c["rank_bound"] == 1 for c in certs)
    for choi, cert in zip(chois, certs):
        assert recheck(superop.from_choi(choi, 3, 3), cones.Verdict(MEMBER, certificate=cert))


def test_sampling_never_calls_member(monkeypatch):
    # every expression of acceptance criterion 5 and its dual at 3x3
    atoms = ["CP", "t(CP)", "Pk(2)", "SPk(2)"]
    texts = atoms + [f"t({a})" for a in atoms] + [f"dual({a})" for a in atoms]
    texts += [f"{op}({a},{b})" for op in ("meet", "join") for a in atoms for b in atoms
              if a != b]
    texts += ["meet(t(CP),join(CP,SPk(2)))", "join(t(CP),meet(CP,Pk(2)))",
              "t(meet(CP,t(CP)))", "dual(meet(Pk(2),t(CP)))"]

    def refuse(*args, **kwargs):
        raise AssertionError("sampling called member")

    monkeypatch.setattr(cones, "member", refuse)
    for text in texts:
        expr = normalize(parse_cone(text), 3, 3)
        for e in (expr, dual_expr(expr)):
            assert len(sample_generators(e, 3, 3, 10, seed=7)) == 10


def test_nested_sampled_join_makes_few_member_calls(monkeypatch):
    # the dual meet(CP, join(SP, t(CP))) is sampled without deciding samples
    expr = normalize(parse_cone("join(CP,meet(P,t(CP)))"), 2, 3)
    phi = superop.random_hp_map(2, 3, 4)
    calls = []
    decide = cones.member
    monkeypatch.setattr(cones, "member", lambda *a, **k: calls.append(1) or decide(*a, **k))
    verdict = cones.member(phi, expr, CFG)
    assert recheck(phi, verdict)
    assert len(calls) <= 10


def test_generator_sampling_deterministic():
    expr = normalize(parse_cone("SPk(2)"), 3, 3)
    a = sample_generators(expr, 3, 3, 8, seed=3)
    b = sample_generators(expr, 3, 3, 8, seed=3)
    assert all(x == y for x, y in zip(a, b))


def test_recheck_takes_eigenvalues_only(monkeypatch):
    # a psd_floor (here in a family_split hull) and a composition witness
    # read only the least eigenvalue
    cases = [(_two_positive_not_cp(), "Pk(2)"), (_witness_cases()["SPk(2)"], "SPk(2)")]
    verdicts = [(phi, member(phi, normalize(parse_cone(text), 3, 3), CFG))
                for phi, text in cases]
    assert [v.diagnostics["route"] for _, v in verdicts] == ["family_split", "dual_sampling"]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    assert all(recheck(phi, v) for phi, v in verdicts)
    assert not calls


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (4, 4)])
def test_stacked_pairing_and_compositions_match_per_sample_loops(m, n):
    rng = np.random.default_rng(17)
    phi = superop.random_hp_map(m, n, rng)
    chois, _ = cones._sample_stack(normalize(parse_cone("meet(CP,t(CP))"), m, n),
                                       m, n, 60, rng)
    psis = [superop.from_choi(c, m, n) for c in chois]
    stacked = cones._pair_stack(chois, phi, 1e-9)
    looped = np.array([pair(psi, phi) for psi in psis])
    assert np.array_equal(stacked, looped)

    comps = superop.compose_stack(superop.adjoint_stack(chois, m, n), phi.choi, m, n, m)
    for comp, psi in zip(comps, psis):
        assert np.array_equal(comp, psi.adjoint().compose(phi).choi)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3)])
def test_pairing_is_the_omega_entry_of_the_adjoint_composition(m, n):
    # <psi, phi> = <Omega| C(psi^dagger . phi) |Omega>, Omega = sum_k e_k (x) e_k:
    # a negative pairing forces a negative composition eigenvalue
    rng = np.random.default_rng([m, n])
    omega = superop.vec(np.eye(m))
    for _ in range(10):
        phi, psi = superop.random_hp_map(m, n, rng), superop.random_hp_map(m, n, rng)
        comp = psi.adjoint().compose(phi).choi
        assert abs(np.vdot(omega, comp @ omega) - pair(psi, phi)) <= 1e-12


SAMPLED_JOINS = {(2, 3): ("join(P,t(CP))", "join(t(CP),meet(CP,P))"),
                 (3, 2): ("join(P,t(CP))", "join(t(CP),meet(CP,P))"),
                 (3, 3): ("join(Pk(2),t(Pk(2)))", "join(SPk(2),t(SPk(2)))")}


@pytest.mark.parametrize("m,n", list(SAMPLED_JOINS))
def test_composition_test_refutes_no_sampled_join_generator(m, n):
    for seed, text in enumerate(SAMPLED_JOINS[m, n]):
        expr = normalize(parse_cone(text), m, n)
        for phi in sample_generators(expr, m, n, 6, seed):
            verdict = member(phi, expr, CFG)
            assert verdict.status != NOT_MEMBER, text
            assert recheck(phi, verdict)


def test_spk_dual_sampling_returns_the_first_hit_of_the_per_sample_loop():
    # Ad_U + 0.05 Tr for a generic unitary U is CP, but its eigenvectors give
    # no rank-2 Kraus decomposition, so only the sampled Pk(2) duals can
    # refute SPk(2); here the first refuting sample is not the first sample
    u = linalg.random_unitary(3, np.random.default_rng(8))
    phi = superop.from_choi(ad_map(u).choi + 0.05 * np.eye(9), 3, 3)
    cfg = MemberConfig(samples=40, seed=2)
    verdict = member(phi, normalize(parse_cone("SPk(2)"), 3, 3), cfg)
    assert verdict.diagnostics["route"] == "dual_sampling"
    gens = sample_generators(cones.Base("Pk", 2), 3, 3, 40, cfg.seed + 3)
    floors = [linalg.hermitian_part_eigen(psi.adjoint().compose(phi).choi)[0][0]
              for psi in gens]
    first = next(i for i, val in enumerate(floors) if val < -cfg.tol)
    assert first > 0
    wit = verdict.witness
    assert wit["psi"].isclose(gens[first], 1e-12)
    assert abs(wit["composition_eigenvalue"] - floors[first]) <= 1e-12
    assert recheck(phi, verdict)


def _arrays(obj):
    """Every array a certificate holds, however deep."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


def _refuting_rows(phi, cert, count, cfg):
    """The rows of a draw that the composition test composes: all but the
    ``kraus`` (CP) generators when phi is CP and the ``twirled`` ``kraus``
    (co-CP) ones when phi is co-CP, read from the certificates."""
    cp = member(phi, cones.Base("CP"), cfg).status == MEMBER
    co_cp = member(phi.right_transpose(), cones.Base("CP"), cfg).status == MEMBER
    rows = []
    for i in range(count):
        c = cert(i)
        if cp and c["type"] == "kraus":
            continue
        if co_cp and c["type"] == "twirled" and c["inner"]["type"] == "kraus":
            continue
        rows.append(i)
    return np.array(rows, dtype=int)


def _same_certificate(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_certificate(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_certificate(u, v) for u, v in zip(a, b))
    return a == b


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
def test_cached_dual_sampling_is_the_compose_adjoint_path_bit_for_bit(m, n):
    # duals of SPk(k), of sampled joins (meets) and of meets (joins, whose
    # samples carry hull certificates); maps outside, near and inside the
    # cones, so that the first hit is sample 0, a later one, or none
    rng = np.random.default_rng([m, n, 9])
    duals = [cones.Base("Pk", k) for k in range(1, min(m, n))]
    duals += [dual_expr(normalize(parse_cone(text), m, n))
              for text in ("join(P,t(CP))", "join(Pk(2),t(Pk(2)))", "meet(P,t(CP))")]
    u = linalg.random_unitary(m, rng)[:n] if n <= m else linalg.random_unitary(n, rng)[:, :m]
    ops = [linalg.random_complex((n, 1), rng) @ linalg.random_complex((1, m), rng)
           for _ in range(3)]
    maps = [superop.random_hp_map(m, n, rng),
            superop.from_choi(ad_map(u).choi + 0.05 * np.eye(m * n), m, n),
            superop.from_kraus(ops)]
    cfg = MemberConfig(samples=60, seed=m * n)
    cones._dual_generators.cache_clear()
    for d in duals:
        chois, cert = cones._sample_stack(d, m, n, 60, cfg.seed + 3)
        for phi in maps:
            comps = superop.compose_stack(superop.adjoint_stack(chois, m, n), phi.choi, m, n, m)
            floors = linalg.hermitian_part_eigvals(comps)[:, 0]
            # only the generators that can refute phi are composed
            rows = _refuting_rows(phi, cert, 60, cfg)
            hits = rows[floors[rows] < -linalg.tolerance(comps[rows], cfg.tol)]
            s_adj, _, cp, co_cp = cones._dual_generators(d, m, n, 60, cfg.seed + 3)
            assert superop.compose_realigned(s_adj, phi.choi, m, n, m).tobytes() == comps.tobytes()
            for _ in ("cold", "warm"):
                witness, samples, closest = cones._dual_sampling(phi, d, cfg)
                assert samples == rows.size
                assert closest == (floors[rows].min() if rows.size else None)
                assert (witness is None) == (hits.size == 0)
                if witness is None:
                    continue
                first = hits[0]
                assert witness["psi"].choi.tobytes() == chois[first].tobytes()
                assert witness["composition_eigenvalue"] == floors[first]
                assert _same_certificate(witness["psi_certificate"], cert(first))
                # the cached arrays are shared: no caller may write into them
                for a in ([witness["psi"].choi, s_adj, cp, co_cp]
                          + _arrays(witness["psi_certificate"])):
                    with pytest.raises(ValueError):
                        a[(0,) * a.ndim] = 0
    assert cones._dual_generators.cache_info().hits > 0


def test_dual_sampling_cache_keeps_at_most_its_maxsize():
    phi = superop.random_hp_map(3, 3, np.random.default_rng(4))
    maxsize = cones._dual_generators.cache_info().maxsize
    cones._dual_generators.cache_clear()
    for seed in range(maxsize + 5):
        cones._dual_sampling(phi, cones.Base("Pk", 2), MemberConfig(samples=20, seed=seed))
    assert cones._dual_generators.cache_info().currsize <= maxsize


def _rank_two_kraus_sum(rng, d=3):
    """A sum of three rank-2 conjugations on C^d, a map in SPk(2) by
    construction, with a Choi matrix Hermitian to the last bit."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ws = np.stack([(gauss(d, 2) @ gauss(2, d)).T.reshape(-1) for _ in range(3)], axis=1)
    c = ws @ ws.conj().T
    return superop.from_choi((c + c.conj().T) / 2, d, d)


def test_composition_test_does_not_refute_a_member_by_rounding_at_tol_0():
    # every Kraus generator composes with this CP map to a CP map, whose
    # least Choi eigenvalue, 0 in exact arithmetic, is rounding noise; at
    # tol = 0 such noise refuted the map although it lies in SPk(2)
    phi = _rank_two_kraus_sum(np.random.default_rng(1))
    spk2 = cones.Base("SPk", 2)
    for cfg in (MemberConfig(tol=0.0), MemberConfig()):
        verdict = member(phi, spk2, cfg)
        assert verdict.diagnostics["route"] == "dual_sampling"
        assert verdict.status == UNKNOWN
        assert verdict.diagnostics["dual_samples"] == 50
        assert verdict.diagnostics["closest_composition_eigenvalue"] > 0
        assert recheck(phi, verdict, cfg.tol)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_ruled_out_generators_cannot_refute(m, n):
    # a CP map composed with any CP generator, and a co-CP map with any
    # co-CP generator, is CP: the composition test loses no refutation
    rng = np.random.default_rng([m, n, 29])
    kmax = min(m, n)
    cp_draws = [cones.Base("Pk", k) for k in range(1, kmax)]
    cp_draws += [cones.Base("CP"), cones.Base("SPk", 1)]
    cases = [(superop.random_cp_map(m, n, rng, r), "kraus", cp_draws) for r in (1, 2, 4)]
    cases += [(superop.random_cp_map(m, n, rng, r).right_transpose(), "twirled",
               [cones.Base("Pk", 1), cones.Twirl(cones.Base("CP"))]) for r in (1, 2, 4)]
    for phi, kind, draws in cases:
        for d in draws:
            chois, cert = cones._sample_stack(d, m, n, 60, 7)
            _, _, cp, co_cp = cones._dual_generators(d, m, n, 60, 7)
            certs = [cert(i) for i in range(60)]
            assert np.array_equal(cp, [c["type"] == "kraus" for c in certs])
            assert np.array_equal(co_cp, [c["type"] == "twirled" and c["inner"]["type"] == "kraus"
                                          for c in certs])
            rows = np.flatnonzero(cp if kind == "kraus" else co_cp)
            assert rows.size
            comps = superop.compose_stack(superop.adjoint_stack(chois[rows], m, n),
                                          phi.choi, m, n, m)
            floors = linalg.hermitian_part_eigvals(comps)[:, 0]
            assert np.all(floors >= -linalg.tolerance(comps, CFG.tol))


def _spk_non_members(d, rng):
    """Maps outside SPk(k) for every k < d: Ad_U + t Tr for a Haar unitary U,
    and at d = 3 the isotropic maps (1 - t) Ad_I / d + t Tr / d^2, whose
    Choi fidelity with the maximally entangled state, 1 - 8 t / 9, exceeds
    2/3 for t < 3/8."""
    maps = [superop.from_choi(ad_map(linalg.random_unitary(d, rng)).choi
                              + t * np.eye(d * d), d, d) for t in (0.01, 0.05, 0.2)]
    if d == 3:
        omega = superop.vec(np.eye(3))
        maps += [superop.from_choi((1 - t) * np.outer(omega, omega) / 3 + t * np.eye(9) / 9, 3, 3)
                 for t in (0.0, 0.1, 0.2, 0.3, 0.37)]
    return maps


def test_spk_refutations_are_the_first_hit_of_the_unskipped_loop():
    refuted = 0
    for d in (3, 4):
        cases = [(k, MemberConfig(tol=tol, samples=samples, seed=d + k))
                 for tol in (1e-12, 1e-9, 1e-6) for samples in (20, 100) for k in range(1, d)]
        for phi in _spk_non_members(d, np.random.default_rng(d)):
            for k, cfg in cases:
                verdict = member(phi, cones.Base("SPk", k), cfg)
                assert verdict.diagnostics["route"] == "dual_sampling"
                # every generator composed, as the test ran without the skip
                chois, cert = cones._sample_stack(cones.Base("Pk", k), d, d, cfg.samples,
                                                  cfg.seed + 3)
                comps = superop.compose_stack(superop.adjoint_stack(chois, d, d),
                                              phi.choi, d, d, d)
                floors = linalg.hermitian_part_eigvals(comps)[:, 0]
                hits = np.flatnonzero(floors < -linalg.tolerance(comps, cfg.tol))
                if hits.size == 0:
                    assert verdict.status == UNKNOWN
                    continue
                refuted += 1
                first, wit = hits[0], verdict.witness
                assert verdict.status == NOT_MEMBER
                assert wit["psi"].choi.tobytes() == chois[first].tobytes()
                assert wit["composition_eigenvalue"] == floors[first]
                assert _same_certificate(wit["psi_certificate"], cert(first))
    assert refuted >= 100


def test_unknown_verdicts_report_the_closest_approach():
    # Phi[2,1,0] is positive but not decomposable: no sampled dual generator
    # of join(CP,t(CP)) refutes it, but the projection engine does
    phi = superop.from_choi(_ckl_choi(2.0, 1.0, 0.0), 3, 3)
    expr = normalize(parse_cone("join(CP,t(CP))"), 3, 3)
    gens = sample_generators(dual_expr(expr), 3, 3, CFG.samples, CFG.seed)
    assert min(pair(g, phi) for g in gens) >= -CFG.tol
    verdict = member(phi, expr, CFG)
    assert verdict.status == NOT_MEMBER
    assert verdict.diagnostics["route"] == "join_dual_witness"
    assert 1 <= verdict.diagnostics["sweeps"] <= linalg.MAX_SWEEPS
    assert recheck(phi, verdict)
    # Phi[2,.5,.5] sits on the boundary, b c = ((3 - a) / 2)^2: every sweep
    # runs, and the PPT elements tried approach a zero pairing from above
    phi = superop.from_choi(_ckl_choi(2.0, 0.5, 0.5), 3, 3)
    verdict = member(phi, expr, CFG)
    assert verdict.status == UNKNOWN
    diag = verdict.diagnostics
    assert diag["route"] == "join" and "dual_samples" not in diag
    assert diag["sweeps"] == linalg.MAX_SWEEPS
    assert -CFG.tol <= diag["closest_pairing"] <= 1e-6
    # a sum of three rank-2 conjugations lies in SPk(2), so no dual refutes it
    rng = np.random.default_rng(3)
    ops = [linalg.random_complex((3, 2), rng) @ linalg.random_complex((2, 3), rng)
           for _ in range(3)]
    phi = superop.from_kraus(ops)
    verdict = member(phi, normalize(parse_cone("SPk(2)"), 3, 3), CFG)
    assert verdict.status == UNKNOWN
    # phi is CP, so the half of the generators that are Kraus maps is not composed
    _, cert = cones._sample_stack(cones.Base("Pk", 2), 3, 3, 100, CFG.seed + 3)
    rows = _refuting_rows(phi, cert, 100, CFG)
    assert verdict.diagnostics["dual_samples"] == rows.size == 50
    gens = sample_generators(cones.Base("Pk", 2), 3, 3, 100, CFG.seed + 3)
    closest = min(linalg.hermitian_part_eigen(gens[i].adjoint().compose(phi).choi)[0][0]
                  for i in rows)
    assert closest >= -CFG.tol
    assert abs(verdict.diagnostics["closest_composition_eigenvalue"] - closest) <= 1e-12
    # the dual of join(SPk(2),t(SPk(2))) is sampled from rank-one
    # conjugations, all CP: none can refute the CP phi, and none is composed
    verdict = member(phi, normalize(parse_cone("join(SPk(2),t(SPk(2)))"), 3, 3), CFG)
    assert verdict.status == UNKNOWN and verdict.diagnostics["route"] == "join"
    assert verdict.diagnostics["dual_samples"] == 0
    assert verdict.diagnostics["closest_composition_eigenvalue"] is None
    # Phi[2,1,0] is positive with product-vector minimum 0: the Pk exit names
    # its search and reports the least quadratic form the search reached
    phi = _rotated(_ckl_choi(2.0, 1.0, 0.0), 5)
    verdict = member(phi, normalize(parse_cone("P"), 3, 3), CFG)
    assert verdict.status == UNKNOWN and verdict.diagnostics["route"] == "vector_search"
    assert 1 <= verdict.diagnostics["sweeps"] <= linalg.MAX_SWEEPS
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
    # Kraus operators that do not rebuild the map
    u = linalg.random_unitary(2, np.random.default_rng(4))
    assert recheck(ad_map(u), cones.Verdict(MEMBER, certificate=_kraus_cert(u, 2)))
    assert not recheck(phi, cones.Verdict(MEMBER, certificate=_kraus_cert(u, 2)))


def _kraus_cert(op, rank_bound):
    return {"type": "kraus", "ops": [op], "rank_bound": rank_bound}


def _part(phi, cert):
    return {"choi": phi.choi, "certificate": cert}


def test_recheck_rejects_a_dual_element_whose_certificate_fails_on_psi():
    # the transposition's CP refutation Ad_V, with its Kraus certificate
    # swapped for one of the identity: the pairing still refutes, psi's
    # membership in the dual cone is no longer proved
    phi = transpose_map(2)
    verdict = member(phi, normalize(parse_cone("CP"), 2, 2), CFG)
    assert verdict.status == NOT_MEMBER and recheck(phi, verdict)
    wit = dict(verdict.witness, psi_certificate=_kraus_cert(np.eye(2, dtype=complex), 2))
    assert pair(wit["psi"], phi) < 0
    assert not recheck(phi, cones.Verdict(NOT_MEMBER, witness=wit))


def test_recheck_rejects_hull_of_other_maps():
    # the transposition is not CP, so no hull of identity maps reproduces it
    eye = np.eye(2, dtype=complex)
    part = _part(identity_map(2), _kraus_cert(eye, 2))
    cert = {"type": "hull", "weights": (0.5, 0.5), "parts": [part, part]}
    assert not recheck(transpose_map(2), cones.Verdict(MEMBER, certificate=cert))
    assert recheck(identity_map(2), cones.Verdict(MEMBER, certificate=cert))


def test_recheck_rejects_hull_with_an_unsound_part():
    # the combination matches, but a rank-2 Kraus operator breaks rank_bound 1
    eye = np.eye(2, dtype=complex)
    cert = {"type": "hull", "weights": (0.5, 0.5),
            "parts": [_part(identity_map(2), _kraus_cert(eye, 2)),
                      _part(identity_map(2), _kraus_cert(eye, 1))]}
    assert not recheck(identity_map(2), cones.Verdict(MEMBER, certificate=cert))
    negative = dict(cert, weights=(1.5, -0.5),
                    parts=[_part(identity_map(2), _kraus_cert(eye, 2))] * 2)
    assert not recheck(identity_map(2), cones.Verdict(MEMBER, certificate=negative))


def test_recheck_rejects_hull_part_that_fails_its_own_certificate():
    # phi = (T + I) / 2, T the transposition: the weights and Choi matrices
    # match, but T is not CP, so a psd_floor of T must fail on T itself
    t, eye = transpose_map(2), identity_map(2)
    phi = superop.from_choi((t.choi + eye.choi) / 2, 2, 2)
    id_kraus = _kraus_cert(np.eye(2, dtype=complex), 2)
    cert = {"type": "hull", "weights": (0.5, 0.5),
            "parts": [_part(t, {"type": "psd_floor", "min_eigenvalue": 0.0}),
                      _part(eye, id_kraus)]}
    assert not recheck(phi, cones.Verdict(MEMBER, certificate=cert))
    # T . t is the identity, so T is the twirl of a Kraus map
    cert["parts"][0] = _part(t, {"type": "twirled", "inner": id_kraus})
    assert recheck(phi, cones.Verdict(MEMBER, certificate=cert))


def test_recheck_rejects_family_certificate_without_positive_a():
    # Choi -I - |e0><e0| rebuilds exactly, but with a <= 0 it is no Pk member
    e0 = np.eye(4, dtype=complex)[0]
    phi = superop.from_choi(-np.eye(4) - np.outer(e0, e0), 2, 2)
    cert = {"type": "family", "a": -1, "b": 1, "w": e0, "k": 1}
    assert not recheck(phi, cones.Verdict(MEMBER, certificate=cert))
    assert member(phi, normalize(parse_cone("P"), 2, 2), CFG).status == NOT_MEMBER


def test_recheck_rejects_meet_certificate_without_other_cert():
    # a meet certificate, ``both``, proves nothing of a side it lacks
    cert = {"type": "both", "left": _kraus_cert(np.eye(2, dtype=complex), 2)}
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
        assert 1 <= verdict.diagnostics["sweeps"] <= linalg.MAX_SWEEPS
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
        # the Schmidt-rank-k search alone, without member's shortcut routes
        found = cones._conjugation_witness(phi, expr.k, CFG)[0]
        assert (verdict.status == NOT_MEMBER) == (found is not None), text
        if found is None:
            continue
        refuted += 1
        psi = verdict.witness["psi"]
        if verdict.diagnostics["route"] == "family_projection":
            # the exact truncation and the search's first point below -eps
            # are different conjugations: each must refute with its own pairing
            eps = linalg.tolerance(phi.choi, CFG.tol)
            for chi, value in ((psi, verdict.witness["pairing"]),
                               (found["psi"], found["pairing"])):
                assert value < -eps
                assert abs(value - pair(chi, phi)) <= linalg.tolerance(phi.choi, 1e-12)
        else:
            assert np.array_equal(psi.choi, found["psi"].choi)
            assert verdict.witness["pairing"] == found["pairing"]
    assert refuted == len(cases) - 2


def _witness_cases():
    v = linalg.random_complex((3, 3), np.random.default_rng(31))
    fam = build(PhiLambdaSpec(v, 1.2 * k_positivity_threshold(v, 2)))
    u = linalg.random_unitary(3, np.random.default_rng(8))
    return {"meet(Pk(2),t(CP))": fam,
            "t(Pk(2))": fam.right_transpose(),
            "SPk(2)": superop.from_choi(ad_map(u).choi + 0.05 * np.eye(9), 3, 3)}


@pytest.mark.parametrize("text", list(_witness_cases()))
def test_witness_search_returns_the_refutation_of_member(text):
    # a twirl, a meet and SPk dual sampling refute; the witness search
    # returns that same dual element, a composition witness with value None
    phi = _witness_cases()[text]
    expr = normalize(parse_cone(text), 3, 3)
    wit = member(phi, expr, CFG).witness
    psi, value, cert = witness_search(phi, expr, CFG)
    assert np.array_equal(psi.choi, wit["psi"].choi)
    assert value == wit["pairing"]
    assert (value is None) == (text == "SPk(2)")
    # the verdict bench/run.py rebuilds from the triple passes recheck
    rebuilt = cones.Verdict(NOT_MEMBER, witness={"type": "dual_element", "psi": psi,
                                                 "psi_certificate": cert, "pairing": value})
    assert recheck(phi, rebuilt)


def _scaled(scale, phi):
    return superop.from_choi(scale * phi.choi, *phi.dims)


def _family_above_threshold(excess):
    v = linalg.random_complex((3, 3), np.random.default_rng(41))
    return build(PhiLambdaSpec(v, (1 + excess) * k_positivity_threshold(v, 2)))


def test_family_pattern_accepts_only_what_witness_search_cannot_refute():
    # the family map just above its k = 2 threshold, at three scales.  At
    # (1 + 5e-10) times the threshold (b/a) fan_2(w) is 1 + 5e-10 and the
    # pairing a - b fan_2(w) is -5e-10 a, both within tol: family_pattern
    # accepts and the Schmidt-rank-2 search finds nothing.  At (1 + 5e-9)
    # times both refute.  The tolerance is relative, so the scale changes neither answer.
    expr = normalize(parse_cone("Pk(2)"), 3, 3)
    for excess in (5e-10, 5e-9):
        for scale in (1.0, 1e3, 1e-3):
            phi = _scaled(scale, _family_above_threshold(excess))
            verdict = member(phi, expr, CFG)
            # the Schmidt-rank-2 search alone, independent of the pattern
            found = cones._conjugation_witness(phi, 2, CFG)[0]
            if excess < CFG.tol:
                assert verdict.status == MEMBER, scale
                assert verdict.diagnostics["route"] == "family_pattern"
                assert recheck(phi, verdict)
                assert found is None, scale
            else:
                assert found is not None
                assert found["pairing"] < -linalg.tolerance(phi.choi, CFG.tol)
                _assert_conjugation_witness(phi, verdict, "family_projection", 2)


SPLIT_SCALES = (1e-6, 1.0, 1e6)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_family_split_certifies_two_positive_maps(d, seed):
    # between the CP and 2-positivity thresholds, with a CP term that breaks
    # the family pattern: a family map on the threshold plus a PSD remainder
    phi = _two_positive_not_cp(d, seed)
    expr = normalize(parse_cone("Pk(2)"), d, d)
    for scale in SPLIT_SCALES:
        chi = _scaled(scale, phi)
        verdict = member(chi, expr, CFG)
        assert verdict.status == MEMBER, scale
        assert verdict.diagnostics["route"] == "family_split"
        cert = verdict.certificate
        assert cert["type"] == "hull" and cert["weights"] == (1.0, 1.0)
        assert [p["certificate"]["type"] for p in cert["parts"]] == ["family", "psd_floor"]
        assert cert["parts"][0]["certificate"]["k"] == 2
        assert recheck(chi, verdict)
        assert witness_search(chi, expr, CFG) is None


def _family_above_k_threshold(d, k, excess, seed, perturb):
    """Tr - lam Ad_V at (1 + excess) times its k-positivity threshold, with
    a CP term of size ``perturb * excess`` that breaks the family pattern."""
    rng = np.random.default_rng([seed, d, k])
    v = linalg.random_complex((d, d), rng)
    choi = build(PhiLambdaSpec(v, (1 + excess) * k_positivity_threshold(v, k))).choi
    extra = superop.random_cp_map(d, d, rng, 2).choi
    return superop.from_choi(choi + perturb * excess * extra / np.linalg.eigvalsh(extra)[-1],
                             d, d)


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("excess", [1e-6, 1e-3, 0.3])
def test_family_split_never_certifies_family_maps_above_threshold(d, k, excess):
    # each map is outside Pk(k): the route declines it, and member and the
    # witness search refute it at every scale
    expr = normalize(parse_cone("P" if k == 1 else f"Pk({k})"), d, d)
    for seed in range(3):
        for perturb in (0.0, 1e-2):
            phi = _family_above_k_threshold(d, k, excess, seed, perturb)
            for scale in SPLIT_SCALES:
                chi = _scaled(scale, phi)
                vals, vecs = linalg.hermitian_part_eigen(chi.choi)
                step = cones._family_step(chi, k, vals, vecs, CFG)
                assert step is None or step.status != MEMBER
                verdict = member(chi, expr, CFG)
                assert verdict.status == NOT_MEMBER, (seed, perturb, scale)
                assert recheck(chi, verdict)
                psi, value, _ = witness_search(chi, expr, CFG)
                assert value < -linalg.tolerance(chi.choi, CFG.tol)


def test_family_step_decides_each_route_with_at_most_one_fan(monkeypatch):
    # fan_k(vec I_3) = k: Tr - lam Ad_I is CP up to lam = 1/3 and 2-positive
    # up to 1/2.  Each step computes fan_2(w) at most once, and not at all
    # when the spectrum has no pattern and vals[1] <= eps
    calls = []
    fan = family.fan
    monkeypatch.setattr(family, "fan", lambda *args: calls.append(args) or fan(*args))
    eye = np.eye(3)
    two_negative = superop.from_choi(np.diag([-1.0, -1.0] + [1.0] * 7).astype(complex), 3, 3)
    cases = [
        (build(PhiLambdaSpec(eye, 0.45)), MEMBER, "family_pattern", 1),
        (build(PhiLambdaSpec(eye, 0.6)), NOT_MEMBER, "family_projection", 1),
        (_two_positive_not_cp(3, 0), MEMBER, "family_split", 1),
        (_family_above_k_threshold(3, 2, 0.3, 0, 1e-2), None, None, 1),
        (two_negative, None, None, 0),
    ]
    for phi, status, route, fans in cases:
        vals, vecs = linalg.hermitian_part_eigen(phi.choi)
        assert vals[0] < -linalg.tolerance(phi.choi, CFG.tol)
        calls.clear()
        verdict = cones._family_step(phi, 2, vals, vecs, CFG)
        assert len(calls) == fans, route
        if status is None:
            assert verdict is None
        else:
            assert (verdict.status, verdict.diagnostics["route"]) == (status, route)
            assert recheck(phi, verdict)
            assert verdict.diagnostics == member(phi, cones.Base("Pk", 2), CFG).diagnostics


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
    # psi's certificate follows the sides of the dual meet
    for text, twirled in ((JOIN, [False, True]), ("join(t(CP),CP)", [True, False])):
        verdict = member(phi, normalize(parse_cone(text), 3, 3), CFG)
        assert verdict.status == NOT_MEMBER
        assert verdict.diagnostics["route"] == "join_dual_witness"
        assert 1 <= verdict.diagnostics["sweeps"] <= linalg.MAX_SWEEPS
        wit = verdict.witness
        _assert_ppt(wit["psi"])
        cert = wit["psi_certificate"]
        assert cert["type"] == "both"
        assert [cert[side]["type"] == "twirled" for side in ("left", "right")] == twirled
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
        assert [part["certificate"]["type"] == "twirled" for part in cert["parts"]] == twirled
        assert recheck(phi, verdict)


def _near_decomposable(m, n, rng, low=0.5):
    """A decomposable map minus a random multiple, from ``low`` to 1.5, of a
    rank-one conjugation, which lands on either side of the join's boundary."""
    d = m * n
    g, h = linalg.random_complex((2, d, d), rng)
    c = g @ g.conj().T + superop.twirl_stack(h @ h.conj().T, m, n)
    w = linalg.random_complex(d, rng)
    w /= np.linalg.norm(w)
    c = c - rng.uniform(low, 1.5) * np.real(np.vdot(w, c @ w)) * np.outer(w, w.conj())
    return superop.from_choi((c + c.conj().T) / 2, m, n)


def test_decomposition_decides_wherever_sampling_refutes():
    sampled = engine = 0
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rng = np.random.default_rng([m, n])
        expr = normalize(parse_cone(JOIN), m, n)
        # the pairing of phi with sampled generators of meet(CP, t(CP))
        duals, _ = cones._sample_stack(dual_expr(expr), m, n, CFG.samples,
                                       np.random.default_rng(CFG.seed))
        for _ in range(10):
            phi = _near_decomposable(m, n, rng)
            vals = cones._pair_stack(duals, phi, CFG.tol)
            best = int(np.argmin(vals))
            by_sampling = vals[best] < -cones._pair_tolerance(duals[best], phi, CFG.tol)
            verdict = member(phi, expr, CFG)
            assert recheck(phi, verdict)
            cert, found, _, _ = cones._decomposition(phi, CFG, False)
            engine += cert is not None or found is not None
            if found is not None:
                # here the lift delta * I is needed in some maps
                _assert_ppt(found["psi"])
            if by_sampling:
                sampled += 1
                assert found is not None, (m, n)
    assert sampled >= 5
    assert engine > sampled


def _nth_near_decomposable(m, n, i):
    """The i-th map, from 1, of the _near_decomposable corpus at dims m x n."""
    rng = np.random.default_rng([m, n])
    for _ in range(i):
        phi = _near_decomposable(m, n, rng)
    return phi


def test_join_that_the_projections_leave_open_is_refuted_by_p():
    # the projections run every sweep without deciding, but the map is not
    # positive, and P contains the join
    phi = _nth_near_decomposable(3, 2, 8)
    cert, found, sweeps, _ = cones._decomposition(phi, CFG, False)
    assert cert is None and found is None and sweeps == linalg.MAX_SWEEPS
    verdict = member(phi, normalize(parse_cone(JOIN), 3, 2), CFG)
    assert verdict.status == NOT_MEMBER
    assert verdict.diagnostics["route"] == "join_dual_witness"
    assert verdict.diagnostics["sweeps"] == linalg.MAX_SWEEPS
    wit = verdict.witness
    assert wit["psi_certificate"]["type"] == "kraus"
    assert wit["psi_certificate"]["rank_bound"] == 1
    assert abs(wit["pairing"] - (-0.284)) < 5e-3
    assert recheck(phi, verdict)


def test_member_and_witness_search_refute_join_with_the_same_element():
    expr = normalize(parse_cone(JOIN), 3, 3)
    for i, abc in enumerate(INDECOMPOSABLE):
        phi = _rotated(_ckl_choi(*abc), 50 + i)
        verdict = member(phi, expr, CFG)
        # the projection engine alone, without member's child verdicts
        found = cones._decomposition(phi, CFG, False)[1]
        assert np.array_equal(verdict.witness["psi"].choi, found["psi"].choi)
        assert verdict.witness["pairing"] == found["pairing"]
        assert found["psi_certificate"] is not None
    # a decomposable map has no witness
    cert, found, _, _ = cones._decomposition(superop.from_choi(_ckl_choi(2.0, 0.6, 0.6), 3, 3),
                                             CFG, False)
    assert cert is not None and found is None


def _refutation_corpus():
    """(phi, cone) queries that member refutes: random HP maps against P,
    Pk(2), CP (a not_cp witness) and t(Pk(2)) (a twirled witness), and
    join(CP,t(CP)) on Phi[2,1,0] and on near-decomposable maps, refuted by a
    PPT map or, outside P, by Ad_V."""
    for seed in range(5, 25):
        phi = superop.random_hp_map(3, 3, seed)
        yield from ((phi, text) for text in ("P", "Pk(2)", "CP", "t(Pk(2))"))
    yield superop.from_choi(_ckl_choi(2.0, 1.0, 0.0), 3, 3), JOIN
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rng = np.random.default_rng([m, n])
        yield from ((_near_decomposable(m, n, rng), JOIN) for _ in range(10))


def test_every_reported_pairing_is_the_pairing_recheck_recomputes():
    routes = set()
    for phi, text in _refutation_corpus():
        verdict = member(phi, normalize(parse_cone(text), *phi.dims), CFG)
        if verdict.status != NOT_MEMBER:
            continue
        wit = verdict.witness
        assert wit["pairing"] == pair(wit["psi"], phi, CFG.tol), (text, verdict.diagnostics)
        routes.add((verdict.diagnostics["route"], wit["psi_certificate"]["type"]))
    assert routes == {("vector_search", "kraus"), ("projection_search", "kraus"),
                      ("not_cp", "kraus"), ("twirl", "twirled"),
                      ("join_dual_witness", "both"), ("join_dual_witness", "kraus")}


def test_every_composition_eigenvalue_is_the_one_recheck_recomputes():
    cases = [(superop.random_hp_map(3, 3, seed), "join(Pk(2),t(Pk(2)))") for seed in range(5, 15)]
    for seed in range(8, 14):
        u = linalg.random_unitary(3, np.random.default_rng(seed))
        cases.append((superop.from_choi(ad_map(u).choi + 0.05 * np.eye(9), 3, 3), "SPk(2)"))
    for phi, text in cases:
        wit = member(phi, normalize(parse_cone(text), 3, 3), CFG).witness
        assert wit["pairing"] is None
        comp = wit["psi"].adjoint().compose(phi).choi
        assert wit["composition_eigenvalue"] == linalg.hermitian_part_eigvals(comp)[0], text


def test_decomposition_output_is_byte_identical_for_a_seed():
    expr = normalize(parse_cone(JOIN), 3, 3)
    for phi in (_rotated(_ckl_choi(2.05, 1.05, 0.05), 60),
                superop.from_choi(_ckl_choi(2.2, 0.8, 0.8), 3, 3)):
        a, b = (json.dumps(cli._verdict_json(member(phi, expr, MemberConfig(seed=7))))
                for _ in range(2))
        assert a == b


# sampled joins of the composition test, each at its dims
JOIN_CORPUS = [((2, 3), "join(P,t(CP))"), ((2, 3), "join(t(CP),meet(CP,P))"),
               ((3, 2), "join(P,t(CP))"), ((3, 3), "join(Pk(2),t(Pk(2)))"),
               ((3, 3), "join(SPk(2),t(SPk(2)))"), ((3, 3), "join(Pk(2),t(CP))"),
               ((3, 3), "join(SPk(2),t(CP))"), ((3, 3), "join(t(CP),meet(CP,Pk(2)))")]


@pytest.mark.parametrize("dims,text", JOIN_CORPUS)
def test_sampled_join_is_unknown_only_where_p_does_not_refute(dims, text):
    m, n = dims
    rng = np.random.default_rng([m, n, len(text)])
    expr = normalize(parse_cone(text), m, n)
    p = normalize(parse_cone("P"), m, n)
    for _ in range(30):
        phi = _near_decomposable(m, n, rng, low=0.3)
        verdict = member(phi, expr, CFG)
        assert recheck(phi, verdict)
        if verdict.status == UNKNOWN:
            assert member(phi, p, CFG).status != NOT_MEMBER


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_a_join_decides_its_child_p_once(monkeypatch, dims):
    # the child's verdict is the P refutation, so one member(..., P) per map
    m, n = dims
    text = "join(P,t(CP))"
    rng = np.random.default_rng([m, n, len(text)])
    expr = normalize(parse_cone(text), m, n)
    p = normalize(parse_cone("P"), m, n)
    calls = []
    decide = cones.member

    def counting(phi, e, cfg=CFG):
        calls.append(e == p)
        return decide(phi, e, cfg)

    monkeypatch.setattr(cones, "member", counting)
    for _ in range(30):
        phi = _near_decomposable(m, n, rng, low=0.3)
        assert recheck(phi, decide(phi, expr, CFG))
    assert sum(calls) <= 30


SYMMETRY_CONES = ("P", "Pk(2)", "SPk(2)", "CP", "t(CP)", "join(CP,t(CP))", "meet(CP,t(CP))",
                  "join(Pk(2),t(Pk(2)))")


def _symmetry_corpus():
    """Near-decomposable, random Hermiticity-preserving and 2-positive maps
    at 3x3, 2x3 and 3x2, each with the rng that drew it."""
    for m, n in ((3, 3), (2, 3), (3, 2)):
        rng = np.random.default_rng([m, n, 3])
        for _ in range(3):
            two_positive = _two_positive_not_cp(seed=int(rng.integers(1000)))
            if m == 2:
                two_positive = two_positive.compose(ad_map(linalg.random_complex((3, 2), rng)))
            if n == 2:
                two_positive = ad_map(linalg.random_complex((2, 3), rng)).compose(two_positive)
            for phi in (_near_decomposable(m, n, rng), superop.random_hp_map(m, n, rng),
                        two_positive):
                yield phi, rng


def test_no_decided_verdict_flips_under_the_mapping_cone_symmetries():
    # every normalized cone C has phi in C iff phi* in C (dims swapped) iff
    # Ad_U . phi . Ad_W in C for unitaries U and W
    decided = 0
    for phi, rng in _symmetry_corpus():
        m, n = phi.dims
        rotated = (ad_map(linalg.random_unitary(n, rng)).compose(phi)
                   .compose(ad_map(linalg.random_unitary(m, rng))))
        for text in SYMMETRY_CONES:
            statuses = [member(chi, normalize(parse_cone(text), *chi.dims), CFG).status
                        for chi in (phi, phi.adjoint(), rotated)]
            assert not {MEMBER, NOT_MEMBER} <= set(statuses), (text, m, n, statuses)
            decided += sum(status != UNKNOWN for status in statuses)
    # 624 of the 648 verdicts are decided
    assert decided >= 600


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


# ---------------------------------------------------------------------------
# diagnostics schema: route, the route's effort keys, then cfg
# ---------------------------------------------------------------------------

def _two_positive_not_cp(d=3, seed=5):
    """Tr - lam Ad_V between the CP and 2-positivity thresholds, plus a CP
    term that breaks the family pattern but is too small to make it CP."""
    rng = np.random.default_rng(seed)
    v = linalg.random_complex((d, d), rng)
    cp_thr = cp_threshold(v)
    lam = 0.5 * (cp_thr + k_positivity_threshold(v, 2))
    extra = superop.random_cp_map(d, d, rng, 2).choi
    gap = lam / cp_thr - 1.0
    return superop.from_choi(build(PhiLambdaSpec(v, lam)).choi
                             + 0.5 * gap * extra / np.linalg.eigvalsh(extra)[-1], d, d)


def _conjugated_two_positive():
    """Ad_A . (Tr - lam Ad_V) . Ad_B for diagonal A, B far from unitary: in
    Pk(2) by the mapping-cone symmetry, but its second Choi eigenvalue is too
    small for the family split to absorb the negative one."""
    v = linalg.random_complex((3, 3), np.random.default_rng(5))
    lam = 0.5 * (cp_threshold(v) + k_positivity_threshold(v, 2))
    return (ad_map(np.diag([1.0, 1.0, 0.3])).compose(build(PhiLambdaSpec(v, lam)))
            .compose(ad_map(np.diag([1.0, 0.3, 1.0]))))


def _sum_of_rank_two_conjugations():
    rng = np.random.default_rng(3)
    return superop.from_kraus([linalg.random_complex((3, 2), rng)
                               @ linalg.random_complex((2, 3), rng) for _ in range(3)])


def _cp():
    return superop.random_cp_map(3, 3, np.random.default_rng(0))


def _ckl(a, b, c):
    return superop.from_choi(_ckl_choi(a, b, c), 3, 3)


def _sampled_join_generator():
    """A hull of a CP and a co-CP map that neither Pk(2) nor t(Pk(2))
    certifies, and that no sampled dual generator refutes."""
    expr = normalize(parse_cone("join(Pk(2),t(Pk(2)))"), 3, 3)
    return sample_generators(expr, 3, 3, 2, 0)[1]


# route, map, cone, status and the effort keys between route and cfg: one
# case per exit of member
SCHEMA_CASES = [
    pytest.param("cp_spectrum", _cp, "CP", MEMBER, [], id="cp_spectrum"),
    pytest.param("not_cp", lambda: transpose_map(3), "CP", NOT_MEMBER, [], id="not_cp"),
    pytest.param("cp_subset", _cp, "P", MEMBER, [], id="cp_subset"),
    pytest.param("family_pattern", lambda: build(PhiLambdaSpec(np.eye(3), 0.4)), "Pk(2)",
                 MEMBER, [], id="family_pattern"),
    pytest.param("family_projection", lambda: build(PhiLambdaSpec(np.eye(3), 0.6)), "Pk(2)",
                 NOT_MEMBER, [], id="family_projection"),
    pytest.param("co_cp_subset", lambda: transpose_map(3), "P", MEMBER, [], id="co_cp_subset"),
    pytest.param("vector_search", lambda: _ckl(2.0, 0.8, 0.0), "P", NOT_MEMBER, ["sweeps"],
                 id="vector_search"),
    pytest.param("vector_search", lambda: _rotated(_ckl_choi(2.0, 1.0, 0.0), 5), "P", UNKNOWN,
                 ["sweeps", "closest_value"], id="vector_search_unknown"),
    pytest.param("projection_search", lambda: superop.random_hp_map(3, 3, 2), "Pk(2)",
                 NOT_MEMBER, ["sweeps"], id="projection_search"),
    pytest.param("family_split", _two_positive_not_cp, "Pk(2)", MEMBER, [],
                 id="family_split"),
    pytest.param("projection_search", _conjugated_two_positive, "Pk(2)", UNKNOWN,
                 ["sweeps", "closest_value"], id="projection_search_unknown"),
    pytest.param("eigendecomposition", lambda: ad_map(np.diag([1.0, 2.0, 0.0])), "SPk(2)",
                 MEMBER, [], id="eigendecomposition"),
    pytest.param("dual_sampling", lambda: _witness_cases()["SPk(2)"], "SPk(2)", NOT_MEMBER,
                 [], id="dual_sampling"),
    pytest.param("dual_sampling", _sum_of_rank_two_conjugations, "SPk(2)", UNKNOWN,
                 ["dual_samples", "closest_composition_eigenvalue"],
                 id="dual_sampling_unknown"),
    pytest.param("twirl", lambda: identity_map(3), "t(CP)", NOT_MEMBER, ["child", "inner"],
                 id="twirl"),
    pytest.param("meet", lambda: identity_map(3), "meet(CP,t(CP))", NOT_MEMBER,
                 ["left", "right"], id="meet"),
    pytest.param("join", lambda: identity_map(3), JOIN, MEMBER, ["side", "sweeps"],
                 id="join_side"),
    pytest.param("join", lambda: identity_map(3), "join(P,t(Pk(2)))", MEMBER, ["side"],
                 id="join_sampled_side"),
    pytest.param("join", lambda: _ckl(2.2, 0.8, 0.8), JOIN, MEMBER, ["sweeps"],
                 id="join_decomposition"),
    pytest.param("join", lambda: _ckl(2.0, 0.5, 0.5), JOIN, UNKNOWN,
                 ["left", "right", "closest_pairing", "sweeps"], id="join_unknown"),
    pytest.param("join_dual_witness", lambda: _rotated(_ckl_choi(2.0, 1.0, 0.0), 43), JOIN,
                 NOT_MEMBER, ["sweeps"], id="join_dual_witness"),
    pytest.param("join_dual_witness", lambda: _nth_near_decomposable(3, 3, 17), JOIN,
                 NOT_MEMBER, ["sweeps"], id="join_dual_witness_positive"),
    pytest.param("join_dual_witness", lambda: superop.random_hp_map(3, 3, 1),
                 "join(Pk(2),t(Pk(2)))", NOT_MEMBER, ["dual_samples"],
                 id="join_dual_witness_sampled"),
    pytest.param("join_dual_witness", lambda: superop.random_hp_map(3, 3, 1), "join(P,t(CP))",
                 NOT_MEMBER, [], id="join_dual_witness_child_p"),
    pytest.param("join", _sampled_join_generator, "join(Pk(2),t(Pk(2)))", UNKNOWN,
                 ["left", "right", "closest_composition_eigenvalue", "dual_samples"],
                 id="join_sampled_unknown"),
]


def test_meet_is_unknown_where_both_sides_are():
    # Phi[2,1,0] is positive with product-vector minimum 0: neither P side
    # certifies or refutes it, so the meet has no verdict either
    verdict = member(_ckl(2.0, 1.0, 0.0), normalize(parse_cone("meet(P,P)"), 3, 3), CFG)
    assert verdict.status == UNKNOWN
    diag = verdict.diagnostics
    assert diag["route"] == "meet"
    assert diag["left"] == diag["right"] == UNKNOWN


def _assert_schema(diag, cfg):
    assert list(diag)[0] == "route" and list(diag)[-1] == "cfg"
    assert diag["cfg"] == cfg.as_dict()


@pytest.mark.parametrize("route,build_map,text,status,effort", SCHEMA_CASES)
def test_every_verdict_names_its_route_then_effort_then_cfg(route, build_map, text, status,
                                                            effort):
    phi = build_map()
    verdict = member(phi, normalize(parse_cone(text), 3, 3), CFG)
    assert verdict.status == status
    diag = verdict.diagnostics
    _assert_schema(diag, CFG)
    assert diag["route"] == route
    assert list(diag)[1:-1] == effort
    if route == "twirl":
        _assert_schema(diag["inner"], CFG)
    assert recheck(phi, verdict)
