import numpy as np
import pytest

from mapcones import family, linalg
from mapcones.family import (
    PhiLambdaSpec,
    brute_force_k_positivity,
    build,
    cp_threshold,
    k_positivity_threshold,
)
from mapcones.superop import SuperOperator, ad_map, vec, vec_stack

RNG = np.random.default_rng(42)


def test_build_action():
    # the map is X -> Tr(X) I - lambda V X V^dagger
    v = linalg.random_complex((3, 3), RNG)
    lam = 0.3
    phi = build(PhiLambdaSpec(v, lam))
    x = linalg.random_complex((3, 3), RNG)
    expect = np.trace(x) * np.eye(3) - lam * v @ x @ v.conj().T
    assert np.allclose(phi.apply(x), expect, atol=1e-11)


def test_build_rectangular():
    v = linalg.random_complex((3, 2), RNG)
    phi = build(PhiLambdaSpec(v, 0.2))
    assert phi.dims == (2, 3)
    x = linalg.random_complex((2, 2), RNG)
    expect = np.trace(x) * np.eye(3) - 0.2 * v @ x @ v.conj().T
    assert np.allclose(phi.apply(x), expect, atol=1e-11)


def test_spec_validation():
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            PhiLambdaSpec(np.eye(2), lam)
    with pytest.raises(ValueError):
        PhiLambdaSpec(np.zeros((2, 2)), 0.5)


def test_cp_threshold_identity():
    # lambda * Tr(V V^dagger) <= 1 with V = I_3 gives threshold 1/3
    assert abs(cp_threshold(np.eye(3)) - 1 / 3) < 1e-12


def test_k_thresholds_identity():
    v = np.eye(3)
    assert abs(k_positivity_threshold(v, 1) - 1.0) < 1e-12
    assert abs(k_positivity_threshold(v, 2) - 0.5) < 1e-12
    assert abs(k_positivity_threshold(v, 3) - 1 / 3) < 1e-12


def test_k_threshold_matches_top_eigenvalues():
    v = linalg.random_complex((3, 3), RNG)
    w = v @ v.conj().T
    eigs = np.sort(np.linalg.eigvalsh(w))[::-1]
    for k in (1, 2, 3):
        assert abs(k_positivity_threshold(v, k) - 1 / eigs[:k].sum()) < 1e-10


def test_cp_threshold_is_exact_boundary():
    v = linalg.random_complex((3, 3), RNG)
    thr = cp_threshold(v)
    at = build(PhiLambdaSpec(v, thr)).choi
    below = build(PhiLambdaSpec(v, 0.999 * thr)).choi
    above = build(PhiLambdaSpec(v, 1.001 * thr)).choi
    assert np.linalg.eigvalsh((at + at.conj().T) / 2)[0] > -1e-10
    assert np.linalg.eigvalsh((below + below.conj().T) / 2)[0] > 1e-8
    assert np.linalg.eigvalsh((above + above.conj().T) / 2)[0] < -1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_brute_force_flips_at_threshold(k):
    v = np.eye(3, dtype=complex)
    thr = k_positivity_threshold(v, k)
    ok_below, wit_below = brute_force_k_positivity(PhiLambdaSpec(v, 0.98 * thr), k, seed=2)
    ok_above, wit_above = brute_force_k_positivity(PhiLambdaSpec(v, 1.02 * thr), k, seed=2)
    assert ok_below and wit_below is None
    assert not ok_above and wit_above is not None
    # the witness is a genuine rank-k projection that breaks positivity
    e = np.asarray(wit_above)
    assert np.linalg.norm(e @ e - e) < 1e-8
    phi = build(PhiLambdaSpec(v, 1.02 * thr))
    comp = ad_map(e).compose(phi)
    assert np.linalg.eigvalsh((comp.choi + comp.choi.conj().T) / 2)[0] < -1e-10


@pytest.mark.parametrize("m,n,k", [(m, n, k) for m, n in [(3, 3), (2, 3), (3, 2), (3, 4)]
                                   for k in range(1, min(m, n) + 1)])
def test_brute_force_random_v(m, n, k):
    v = linalg.random_complex((n, m), np.random.default_rng(66))
    thr = k_positivity_threshold(v, k)
    ok_below, _ = brute_force_k_positivity(PhiLambdaSpec(v, 0.98 * thr), k, seed=5)
    ok_above, _ = brute_force_k_positivity(PhiLambdaSpec(v, 1.02 * thr), k, seed=5)
    assert ok_below and not ok_above


def test_brute_force_deterministic():
    v = np.eye(3, dtype=complex)
    spec = PhiLambdaSpec(v, 0.55)
    a = brute_force_k_positivity(spec, 2, seed=9)
    b = brute_force_k_positivity(spec, 2, seed=9)
    assert a[0] == b[0]
    if a[1] is None:
        assert b[1] is None
    else:
        assert np.array_equal(a[1], b[1])


def test_fan_and_choi_of_a_stack_match_each_row():
    rng = np.random.default_rng(21)
    w = vec_stack(linalg.random_complex((5, 3, 2), rng))
    a, b = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
    for k in (1, 2):
        fans = family.fan(w, 2, 3, k)
        assert fans.shape == (5,)
        assert all(fans[i] == family.fan(w[i], 2, 3, k) for i in range(5))
    chois = family.choi(a, b, w)
    assert chois.shape == (5, 6, 6)
    assert all(np.array_equal(chois[i], family.choi(a[i], b[i], w[i])) for i in range(5))


def test_family_choi_is_a_trace_minus_b_conjugation():
    v = linalg.random_complex((3, 2), RNG)
    x = linalg.random_complex((2, 2), RNG)
    phi = SuperOperator(2, 3, family.choi(0.7, 0.2, vec(v)))
    expect = 0.7 * np.trace(x) * np.eye(3) - 0.2 * v @ x @ v.conj().T
    assert np.allclose(phi.apply(x), expect, atol=1e-12)


@pytest.mark.parametrize("n,m", [(3, 3), (3, 2), (2, 4)])
def test_thresholds_are_the_inverse_fan(n, m):
    v = linalg.random_complex((n, m), np.random.default_rng([n, m]))
    for k in range(1, min(m, n) + 1):
        assert k_positivity_threshold(v, k) == 1 / family.fan(vec(v), m, n, k)
    assert cp_threshold(v) == k_positivity_threshold(v, min(m, n))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_truncation_is_the_eckart_young_minimizer(k):
    v = linalg.random_complex((3, 4), np.random.default_rng(k))
    vk = family.truncation(v, k)
    assert linalg.numerical_rank(vk) <= k
    sv = linalg.singular_values(v)
    assert np.linalg.norm(v - vk) ** 2 == pytest.approx(np.sum(sv[k:] ** 2), rel=1e-12,
                                                         abs=1e-12)


def test_threshold_of_an_underflowing_fan_is_a_value_error():
    # the trace of V V^dagger underflows to 0 in float64
    with pytest.raises(ValueError):
        cp_threshold(1e-170 * np.eye(3))
    for k in (0, 4):
        with pytest.raises(ValueError, match="k must satisfy"):
            k_positivity_threshold(np.eye(3), k)
