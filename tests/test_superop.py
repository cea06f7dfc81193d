import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcones import cones, linalg, superop
from mapcones.linalg import DimensionError
from mapcones.superop import (
    ad_map,
    from_kraus,
    identity_map,
    map_inner,
    trace_map,
    transpose_map,
    unvec,
    vec,
)

RNG = np.random.default_rng(7)

SHAPES = [(2, 2), (2, 3), (3, 3)]


def test_vec_unvec_roundtrip():
    v = linalg.random_complex((3, 2), RNG)  # an n x m operator with m=2, n=3
    assert np.array_equal(unvec(vec(v), 2, 3), v)


def test_choi_entry_convention():
    # block (k,l) of the Choi matrix is Phi(f_kl)
    phi = superop.random_map(2, 3, RNG)
    c = phi.choi
    for k in range(2):
        for l in range(2):
            block = c[k * 3:(k + 1) * 3, l * 3:(l + 1) * 3]
            assert np.allclose(block, phi.apply(linalg.matrix_unit(2, k, l)),
                               atol=1e-12)


def test_apply_linear_extension():
    phi = superop.random_map(3, 2, RNG)
    x = linalg.random_complex((3, 3), RNG)
    y = linalg.random_complex((3, 3), RNG)
    assert np.allclose(phi.apply(2 * x + 1j * y),
                       2 * phi.apply(x) + 1j * phi.apply(y), atol=1e-12)


def test_ad_map_action():
    v = linalg.random_complex((3, 2), RNG)
    rho = linalg.random_complex((2, 2), RNG)
    assert np.allclose(ad_map(v).apply(rho), v @ rho @ v.conj().T, atol=1e-12)


def test_identity_and_trace_maps():
    x = linalg.random_complex((3, 3), RNG)
    assert np.allclose(identity_map(3).apply(x), x, atol=1e-12)
    tr = trace_map(3)
    assert np.allclose(tr.apply(x), np.trace(x) * np.eye(3), atol=1e-12)


def test_transpose_map_action():
    x = linalg.random_complex((3, 3), RNG)
    assert np.allclose(transpose_map(3).apply(x), x.T, atol=1e-12)


def test_adjoint_defining_property():
    # <Phi*(A), B> = <A, Phi(B)> over random operators
    phi = superop.random_map(2, 3, RNG)
    adj = phi.adjoint()
    for _ in range(20):
        a = linalg.random_complex((3, 3), RNG)
        b = linalg.random_complex((2, 2), RNG)
        lhs = linalg.hs_inner(adj.apply(a), b)
        rhs = linalg.hs_inner(a, phi.apply(b))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_involution_exact():
    phi = superop.random_map(3, 2, RNG)
    assert np.array_equal(phi.adjoint().adjoint().choi, phi.choi)


def test_transpose_twirl_involution_exact():
    phi = superop.random_map(3, 2, RNG)
    assert np.array_equal(phi.transpose_twirl().transpose_twirl().choi, phi.choi)


def test_transpose_twirl_of_identity_and_ad():
    d = 3
    assert identity_map(d).transpose_twirl().isclose(identity_map(d), 1e-12)
    v = linalg.random_complex((3, 2), RNG)
    assert ad_map(v).transpose_twirl().isclose(ad_map(v.conj()), 1e-12)


def test_compose_matches_pointwise():
    phi = superop.random_map(2, 3, RNG)   # B(C^2) -> B(C^3)
    psi = superop.random_map(3, 2, RNG)   # B(C^3) -> B(C^2)
    comp = psi.compose(phi)
    x = linalg.random_complex((2, 2), RNG)
    assert np.allclose(comp.apply(x), psi.apply(phi.apply(x)), atol=1e-11)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionError):
        superop.random_map(2, 3, RNG).compose(superop.random_map(2, 3, RNG))


def _compose_oracle(outer, inner):
    """outer . inner by the per-map index contraction of the Choi tensors."""
    c = np.einsum("kilj,iajb->kalb", inner._choi4(), outer._choi4())
    return c.reshape(inner.m * outer.n, inner.m * outer.n)


def _adjoint_oracle(phi):
    """The adjoint's Choi matrix by the per-map conjugate and K/H swap."""
    m, n = phi.dims
    return np.conj(phi._choi4().transpose(1, 0, 3, 2)).reshape(m * n, m * n)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_stack_kernels_match_per_map_results(m, n):
    rng = np.random.default_rng(10 * m + n)
    phis, psis = ([superop.random_map(m, n, rng) for _ in range(4)] for _ in range(2))
    outs = [superop.random_map(n, m, rng) for _ in range(4)]
    stack = np.array([phi.choi for phi in phis])
    comp = superop.compose_stack(np.array([o.choi for o in outs]), stack, m, n, m)
    adj = superop.adjoint_stack(stack, m, n)
    inner = superop.map_inner_stack(stack, np.array([psi.choi for psi in psis]))
    for z, (phi, psi, out) in enumerate(zip(phis, psis, outs)):
        assert np.max(np.abs(comp[z] - _compose_oracle(out, phi))) < 1e-12
        assert np.max(np.abs(comp[z] - out.compose(phi).choi)) < 1e-12
        assert np.array_equal(adj[z], _adjoint_oracle(phi))
        assert np.array_equal(adj[z], phi.adjoint().choi)
        assert abs(inner[z] - np.vdot(psi.choi, phi.choi)) < 1e-12
        assert abs(inner[z] - map_inner(phi, psi)) < 1e-12


def test_compose_stack_non_square_chain_and_broadcast():
    m, k, n = 2, 3, 4
    inners = [superop.random_map(m, k, RNG) for _ in range(3)]
    outer = superop.random_map(k, n, RNG)
    stack = np.array([phi.choi for phi in inners])
    # one map composed after, and before, every map of a stack
    after = superop.compose_stack(outer.choi, stack, m, k, n)
    before = superop.compose_stack(stack, superop.random_map(n, m, RNG).choi[None], n, m, k)
    assert after.shape == (3, m * n, m * n) and before.shape == (3, n * k, n * k)
    x = linalg.random_complex((m, m), RNG)
    for z, phi in enumerate(inners):
        assert np.max(np.abs(after[z] - _compose_oracle(outer, phi))) < 1e-12
        assert np.allclose(superop.from_choi(after[z], m, n).apply(x),
                           outer.apply(phi.apply(x)), atol=1e-11)
    inner = superop.map_inner_stack(stack, inners[0].choi)
    assert np.allclose(inner, [np.vdot(inners[0].choi, c) for c in stack], atol=1e-12)


def test_stack_kernels_dimension_mismatch():
    stack = np.array([superop.random_map(2, 3, RNG).choi for _ in range(2)])
    with pytest.raises(DimensionError):
        superop.compose_stack(stack, stack, 2, 3, 3)  # outer takes B(C^2), not B(C^3)
    with pytest.raises(DimensionError):
        superop.adjoint_stack(stack, 3, 3)


def test_from_kraus_matches_sum():
    ops = [linalg.random_complex((3, 2), RNG) for _ in range(3)]
    phi = from_kraus(ops)
    x = linalg.random_complex((2, 2), RNG)
    expect = sum(v @ x @ v.conj().T for v in ops)
    assert np.allclose(phi.apply(x), expect, atol=1e-11)


# Earlier formulas of the composition psi^dagger . phi, the Kraus sum and the
# action, kept as oracles: the stack kernels are now the one place each
# operation is written, and they reproduce these bit for bit (the action
# within rounding).

def _adjoint_compositions_oracle(chois, phi):
    """psi^dagger . phi for a stack of psi: conj(P) times the realigned stack."""
    m, n = phi.dims
    p = phi.choi.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    comp = p.conj() @ chois.reshape(-1, m, n, m, n).transpose(0, 2, 4, 1, 3).reshape(
        -1, n * n, m * m)
    comp = np.conjugate(comp.reshape(-1, m, m, m, m).transpose(0, 1, 3, 2, 4))
    return comp.reshape(-1, m * m, m * m)


def _kraus_oracle(ops):
    n, m = ops[0].shape
    choi = np.zeros((m * n, m * n), dtype=np.complex128)
    for v in ops:
        w = vec(v)
        choi += np.outer(w, w.conj())
    return choi


def _bits(a):
    return a.view(np.float64).tobytes()


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("text", ["Pk(2)", "meet(CP,t(CP))"])
def test_stacked_adjoint_composition_is_the_oracle_bit_for_bit(d, text):
    rng = np.random.default_rng([d, len(text)])
    phi = superop.random_hp_map(d, d, rng)
    expr = cones.normalize(cones.parse_cone(text), d, d)
    chois = cones._sample_stack(expr, d, d, 100, rng)[0]
    comps = superop.compose_stack(superop.adjoint_stack(chois, d, d), phi.choi, d, d, d)
    assert _bits(comps) == _bits(_adjoint_compositions_oracle(chois, phi))
    assert np.array_equal(linalg.hermitian_part_eigvals(comps),
                          linalg.hermitian_part_eigvals(_adjoint_compositions_oracle(chois, phi)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kraus_stack_is_the_outer_product_loop_bit_for_bit(r):
    rng = np.random.default_rng(r)
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 4), (4, 4)):
        ops = linalg.random_complex((5, r, n, m), rng)
        ops[1, ..., 0] = 0  # a zero column in every operator
        ops[2, 0] *= -0.0  # signed zeros
        stacked = superop.kraus_stack(ops)
        for z in range(len(ops)):
            expect = _bits(_kraus_oracle(list(ops[z])))
            assert _bits(stacked[z]) == expect
            assert _bits(from_kraus(list(ops[z])).choi) == expect


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_apply_matches_the_basis_einsum(m, n):
    rng = np.random.default_rng([m, n])
    phi = superop.random_map(m, n, rng)
    x = linalg.random_complex((m, m), rng)
    expect = np.einsum("kl,kilj->ij", x, phi.choi.reshape(m, n, m, n))
    assert np.max(np.abs(phi.apply(x) - expect)) <= 1e-14 * np.max(np.abs(phi.choi))


def test_tensor_with_identity():
    phi = superop.random_map(2, 3, RNG)
    big = phi.tensor_with_identity(2)
    a = linalg.random_complex((2, 2), RNG)
    b = linalg.random_complex((2, 2), RNG)
    assert np.allclose(big.apply(np.kron(a, b)),
                       np.kron(phi.apply(a), b), atol=1e-11)


def test_hermiticity_preserving_detection():
    assert superop.random_hp_map(3, 2, RNG).is_hermiticity_preserving()
    assert superop.random_cp_map(2, 3, RNG).is_hermiticity_preserving()
    skew = superop.random_map(2, 2, RNG)
    skew = superop.from_choi(skew.choi + 1j * np.diag([1, 0, 0, 0]), 2, 2)
    assert not skew.is_hermiticity_preserving()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_map_inner_isometry_random(seed):
    rng = np.random.default_rng(seed)
    phi = superop.random_map(2, 3, rng)
    psi = superop.random_map(2, 3, rng)
    # the Choi route of map_inner against the defining basis sum
    by_sum = sum(linalg.hs_inner(phi.apply(f), psi.apply(f))
                 for f in (linalg.matrix_unit(2, k, l) for k in range(2) for l in range(2)))
    assert abs(map_inner(phi, psi) - by_sum) < 1e-9


def test_map_inner_conjugate_symmetry():
    phi = superop.random_map(3, 3, RNG)
    psi = superop.random_map(3, 3, RNG)
    assert abs(map_inner(phi, psi) - np.conj(map_inner(psi, phi))) < 1e-10


def test_superop_json_roundtrip():
    phi = superop.random_map(2, 3, RNG)
    back = superop.superop_from_json(superop.superop_to_json(phi))
    assert back.m == 2 and back.n == 3
    assert np.allclose(back.choi, phi.choi, atol=0, rtol=0)


def test_superop_json_rejects_wrong_choi_size():
    phi = superop.random_map(2, 2, RNG)
    obj = superop.superop_to_json(phi)
    obj["m"] = 3
    with pytest.raises(DimensionError):
        superop.superop_from_json(obj)


@pytest.mark.parametrize("field,value", [
    ("m", True), ("m", 2.9), ("n", [2]), ("n", "2"),
    ("entries", 7), ("entries", [[1, 0]] * 3 + [5]),
], ids=["bool_dim", "float_dim", "list_dim", "string_dim", "int_entries", "int_entry"])
def test_superop_json_malformed_raises_value_error(field, value):
    obj = superop.superop_to_json(superop.random_map(1, 2, RNG))
    (obj["choi"] if field == "entries" else obj)[field] = value
    # pytest.raises(ValueError) does not catch a TypeError; m = True read as
    # 1 would pass, and 2.9 truncated to 2 would fail the Choi shape check
    with pytest.raises(ValueError) as exc:
        superop.superop_from_json(obj)
    assert not isinstance(exc.value, DimensionError)


def test_coefficient_accessor():
    phi = superop.random_map(2, 3, RNG)
    # coefficient(i,j,k,l) = <e_i, Phi(f_kl) e_j>
    val = phi.coefficient(1, 2, 0, 1)
    assert abs(val - phi.apply(linalg.matrix_unit(2, 0, 1))[1, 2]) < 1e-13
