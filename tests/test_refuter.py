"""Reference tests for the batched Schmidt-rank-k minimizer ``linalg.schmidt_rank_min``."""

import warnings

import numpy as np
import pytest

from mapcones import linalg
from mapcones.family import PhiLambdaSpec, build, cp_threshold, k_positivity_threshold
from mapcones.superop import unvec, vec

DIMS = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]


@pytest.fixture
def budget(monkeypatch):
    """Sets the restarts and sweeps of ``schmidt_rank_min``: the module
    constants ``SCHMIDT_RESTARTS`` and ``MAX_SWEEPS`` it reads on each call."""
    def set_budget(restarts, sweeps):
        monkeypatch.setattr(linalg, "SCHMIDT_RESTARTS", restarts)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", sweeps)
    return set_budget


def _quad(choi, v):
    return float(np.real(np.vdot(vec(v), choi @ vec(v))))


def _loop_min(choi, m, n, k, restarts, max_iters, seed):
    """Unbatched reference: one restart at a time, a fixed number of sweeps,
    and each half-step a generalized eigenproblem on the unorthonormalized
    Kronecker basis, solved by Cholesky whitening.  Starts from the same
    random factors as ``schmidt_rank_min``."""
    c = (choi + choi.conj().T) / 2
    rng = np.random.default_rng(seed)
    xs = linalg.random_complex((restarts, n, k), rng)
    ys = linalg.random_complex((restarts, k, m), rng)

    def half_step(basis):
        low = np.linalg.cholesky(basis.conj().T @ basis)
        whiten = np.linalg.inv(low)
        _, vecs = np.linalg.eigh(whiten @ basis.conj().T @ c @ basis @ whiten.conj().T)
        return whiten.conj().T @ vecs[:, 0]

    best = np.inf
    for x, y in zip(xs, ys):
        for _ in range(max_iters):
            x = unvec(half_step(np.kron(y.T, np.eye(n))), k, n)
            y = unvec(half_step(np.kron(np.eye(m), x)), m, k)
        v = x @ y
        best = min(best, _quad(c, v / np.linalg.norm(v)))
    return best


@pytest.mark.parametrize("m,n", DIMS)
def test_full_schmidt_rank_gives_lowest_eigenvalue(m, n, budget):
    budget(4, 60)
    choi = linalg.random_hermitian(m * n, np.random.default_rng([m, n]))
    val, x, y, _ = linalg.schmidt_rank_min(choi, m, n, min(m, n), seed=0)
    assert val == pytest.approx(np.linalg.eigvalsh(choi)[0], abs=1e-9)
    assert _quad(choi, x @ y) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("m,n", DIMS)
def test_family_maps_reach_the_top_k_singular_values(m, n):
    rng = np.random.default_rng([m, n, 1])
    w = vec(linalg.random_complex((n, m), rng))
    w = w / np.linalg.norm(w)
    a, b = 1.0, rng.uniform(0.5, 2.0)
    choi = a * np.eye(m * n) - b * np.outer(w, w.conj())
    sv = np.linalg.svd(unvec(w, m, n), compute_uv=False)
    for k in range(1, min(m, n) + 1):
        val, x, y, _ = linalg.schmidt_rank_min(choi, m, n, k, seed=k)
        assert val == pytest.approx(a - b * np.sum(sv[:k] ** 2), abs=1e-9)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(k), atol=1e-12)
        assert np.linalg.norm(x @ y) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m,n", DIMS)
def test_batched_minimizer_matches_the_unbatched_loop(m, n, budget):
    budget(4, 60)
    rng = np.random.default_rng([m, n, 2])
    corpus = [linalg.random_hermitian(m * n, rng)]
    w = vec(linalg.random_complex((n, m), rng))
    corpus.append(np.eye(m * n) - 0.5 * np.outer(w, w.conj()) / np.vdot(w, w).real
                  + 0.05 * linalg.random_hermitian(m * n, rng))
    for i, choi in enumerate(corpus):
        for k in range(1, min(m, n)):
            val, _, _, _ = linalg.schmidt_rank_min(choi, m, n, k, seed=i)
            assert val <= _loop_min(choi, m, n, k, 4, 60, seed=i) + 1e-8


def _qr_einsum_min(choi, m, n, k, restarts, max_iters, seed):
    """The batched minimizer as first written: a QR of the fixed factor at
    every k and a three-operand einsum for each compressed matrix.  Starts
    from the same random factors and settles by the same rule as
    ``schmidt_rank_min`` without ``stop_below``."""
    c4 = np.asarray(choi, dtype=np.complex128).reshape(m, n, m, n)
    rng = np.random.default_rng(seed)
    x = linalg.random_complex((restarts, n, k), rng)
    y = linalg.random_complex((restarts, k, m), rng)
    vals = np.full(restarts, np.inf)
    scale = float(np.abs(c4).max())
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        prev = vals
        q, _ = np.linalg.qr(np.swapaxes(y, 1, 2).conj())
        mat = np.einsum("zar,aibj,zbs->zrisj", q, c4, q.conj())
        _, vecs = linalg.hermitian_part_eigen(mat.reshape(restarts, k * n, k * n))
        x = np.swapaxes(vecs[:, :, 0].reshape(restarts, k, n), 1, 2)
        q, _ = np.linalg.qr(x)
        mat = np.einsum("zir,aibj,zjs->zrasb", q.conj(), c4, q)
        vals, vecs = linalg.hermitian_part_eigen(mat.reshape(restarts, k * m, k * m))
        vals = vals[:, 0]
        x, y = q, vecs[:, :, 0].reshape(restarts, k, m)
        if np.all(prev - vals <= linalg._SWEEP_DROP * np.maximum(scale, np.abs(vals))):
            break
    best = int(np.argmin(vals))
    return float(vals[best]), x[best], y[best], sweeps


@pytest.mark.parametrize("m,n", DIMS)
@pytest.mark.parametrize("max_iters", [1, 5])
def test_matmul_sweep_matches_the_qr_einsum_sweep(m, n, max_iters, budget):
    budget(4, max_iters)
    rng = np.random.default_rng([m, n, 3])
    choi = linalg.random_hermitian(m * n, rng)
    for k in range(1, min(m, n)):
        val, x, y, sweeps = linalg.schmidt_rank_min(choi, m, n, k, seed=k)
        ref_val, ref_x, ref_y, ref_sweeps = _qr_einsum_min(choi, m, n, k, 4, max_iters, k)
        assert abs(val - ref_val) <= 1e-12 * np.abs(choi).max()
        assert sweeps == ref_sweeps
        # the same point up to one global phase; where the minimum is flat
        # the point follows rounding more than the value does (2e-9 at 2x2)
        v, ref_v = x @ y, ref_x @ ref_y
        phase = np.vdot(v, ref_v)
        np.testing.assert_allclose(v * phase / abs(phase), ref_v, rtol=0, atol=1e-8)
        if k == 1:
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_same_seed_gives_identical_arrays():
    choi = linalg.random_hermitian(12, np.random.default_rng(5))
    first = linalg.schmidt_rank_min(choi, 3, 4, 2, seed=3)
    second = linalg.schmidt_rank_min(choi, 3, 4, 2, seed=3)
    assert first[0] == second[0]
    assert first[1].tobytes() == second[1].tobytes()
    assert first[2].tobytes() == second[2].tobytes()


# ---------------------------------------------------------------------------
# The early stop below a threshold (stop_below)
# ---------------------------------------------------------------------------

TOL = 1e-9


def _rotated_ckl(a, b, c, seed):
    """Choi matrix of the Cho-Kye-Lee map Phi[a,b,c](X) = D(X) - X on 3x3
    matrices, D(X)_ii = sum_k A[i,k] x_kk for the circulant A of (a, b, c),
    under Haar local unitaries."""
    circ = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    c4 = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        c4[i, :, i, :] += np.diag(circ[:, i])
        for j in range(3):
            c4[i, i, j, j] -= 1.0
    rng = np.random.default_rng(seed)
    g = np.kron(linalg.random_unitary(3, rng).T, linalg.random_unitary(3, rng))
    return g @ c4.reshape(9, 9) @ g.conj().T


def _both_runs(choi, m, n, k, seed):
    full = linalg.schmidt_rank_min(choi, m, n, k, seed)
    early = linalg.schmidt_rank_min(choi, m, n, k, seed, stop_below=-TOL)
    return full, early


@pytest.mark.parametrize("seed", range(4))
def test_stop_below_ends_early_on_settled_refutations(seed, monkeypatch):
    # Phi[2,0.8,0] is not positive (a + b + c < 3), and a random HP map is
    # far from 2-positive: both minima lie far below -tol
    rng = np.random.default_rng([seed, 3])
    cases = [(_rotated_ckl(2.0, 0.8, 0.0, seed), 3, 3, 1),
             (linalg.random_hermitian(16, rng), 4, 4, 2)]
    for choi, m, n, k in cases:
        full, early = _both_runs(choi, m, n, k, seed)
        assert early[0] < -TOL
        assert early[3] < full[3]
        assert _quad(choi, early[1] @ early[2]) == pytest.approx(early[0], abs=1e-9)
        # the first crossing: no restart was below -tol a sweep earlier, and
        # the full run goes on from there to a value no higher
        if early[3] > 1:
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "MAX_SWEEPS", early[3] - 1)
                before = linalg.schmidt_rank_min(choi, m, n, k, seed)
            assert before[0] >= -TOL
        assert full[0] <= early[0] + 1e-12 * np.abs(choi).max()


@pytest.mark.parametrize("seed", range(2))
def test_stop_below_stops_runs_that_cannot_reach_it(seed):
    # Phi[2,1,0] is positive with product-vector minimum 0, and Tr - lam Ad_V
    # between its CP and 2-positivity thresholds is 2-positive, not CP: no
    # restart falls fast enough to reach -tol in the sweeps left, so the
    # stall exit ends the run before the full one ends
    v = linalg.random_complex((4, 4), np.random.default_rng([seed, 4]))
    lam = (cp_threshold(v) + k_positivity_threshold(v, 2)) / 2
    cases = [(_rotated_ckl(2.0, 1.0, 0.0, seed), 3, 3, 1),
             (build(PhiLambdaSpec(v, lam)).choi, 4, 4, 2)]
    for choi, m, n, k in cases:
        full, early = _both_runs(choi, m, n, k, seed)
        assert full[0] >= -TOL and early[0] >= -TOL
        assert early[3] < full[3]
        assert abs(early[0] - full[0]) <= 1e-10 * np.abs(choi).max()
        assert _quad(choi, early[1] @ early[2]) == pytest.approx(early[0], abs=1e-9)


def test_stop_below_keeps_every_decision_on_a_seeded_corpus():
    # HP maps whose lowest Choi eigenvalue is moved a random part of the way
    # to zero, so the Schmidt-rank-k minimum lands on either side of -tol
    rng = np.random.default_rng(11)
    dims = [(3, 3), (3, 4), (4, 4)]
    decisions = []
    for i in range(40):
        m, n = dims[i % 3]
        h = linalg.random_hermitian(m * n, rng)
        choi = h - rng.uniform(0.0, 1.0) * np.linalg.eigvalsh(h)[0] * np.eye(m * n)
        for k in (1, 2):
            full, early = _both_runs(choi, m, n, k, i)
            assert (early[0] < -TOL) == (full[0] < -TOL)
            assert early[3] <= full[3]
            decisions.append(full[0] < -TOL)
    # the corpus has maps on both sides
    assert 0 < sum(decisions) < len(decisions)


def _shifted_hp(m, n, k, delta, rng, seed):
    """A random HP map shifted by a multiple of the identity so that the
    Schmidt-rank-k minimum of its full run sits at delta * max|H|; the shift
    moves every sweep's values by the same constant."""
    h = linalg.random_hermitian(m * n, rng)
    low = linalg.schmidt_rank_min(h, m, n, k, seed)[0]
    return h + (delta * np.abs(h).max() - low) * np.eye(m * n)


def _ckl_outside(a, eta, u, seed):
    """Rotated Phi[a,b,c] with 1 <= a < 2, a + b + c > 3 and b c =
    (1 - eta) (2 - a)^2, just below the positivity bound (2 - a)^2."""
    b = (3.0 - a) * u
    c = (1.0 - eta) * (2.0 - a) ** 2 / b
    return _rotated_ckl(a, b, c, seed)


def _near_boundary_corpus():
    """Maps whose Schmidt-rank-k minimum lies within 1e-9 to 1e-2 times
    max|H| of zero, on both sides: shifted HP maps and rotated Cho-Kye-Lee
    maps just outside P."""
    rng = np.random.default_rng(12)
    corpus = []
    for i in range(40):
        m, n, k = [(2, 3, 1), (3, 3, 1), (3, 4, 1), (4, 4, 1), (3, 3, 2), (3, 4, 2),
                   (4, 4, 2), (4, 3, 2)][i % 8]
        delta = (-1) ** i * 10.0 ** rng.uniform(-9, -2)
        corpus.append((_shifted_hp(m, n, k, delta, rng, i), m, n, k))
    for i in range(20):
        a, eta, u = rng.uniform(1.0, 1.9), 10.0 ** rng.uniform(-6, -2), rng.uniform(1.0, 2.0)
        corpus.append((_ckl_outside(a, eta, u, i), 3, 3, 1))
    return corpus


def test_stop_below_keeps_every_decision_near_the_boundary(monkeypatch):
    # the stall exit assumes no restart's per-sweep drop grows; near -tol a
    # breach of that premise would flip a decision, so the corpus puts the
    # minimum near zero
    decisions = []
    for i, (choi, m, n, k) in enumerate(_near_boundary_corpus()):
        eps = linalg.tolerance(choi, TOL)
        full = linalg.schmidt_rank_min(choi, m, n, k, i)
        early = linalg.schmidt_rank_min(choi, m, n, k, i, stop_below=-eps)
        assert (early[0] < -eps) == (full[0] < -eps)
        assert early[3] <= full[3]
        if early[0] < -eps:
            # a refutation is the full run cut at the same sweep, bit for bit
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "MAX_SWEEPS", early[3])
                cut = linalg.schmidt_rank_min(choi, m, n, k, i)
            assert early[0] == cut[0] and early[3] == cut[3]
            assert early[1].tobytes() == cut[1].tobytes()
            assert early[2].tobytes() == cut[2].tobytes()
        decisions.append(full[0] < -eps)
    assert 0 < sum(decisions) < len(decisions)


@pytest.mark.parametrize("max_iters", [1, 2])
def test_stall_exit_guards_the_first_and_last_sweep(max_iters, monkeypatch):
    # the first sweep's drop is inf and the last leaves 0 sweeps: their
    # product would raise a RuntimeWarning, an error under pytest here
    choi = _rotated_ckl(2.0, 1.0, 0.0, 0)
    monkeypatch.setattr(linalg, "MAX_SWEEPS", max_iters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _, _, sweeps = linalg.schmidt_rank_min(choi, 3, 3, 1, 0, stop_below=-TOL)
    assert np.isfinite(val) and sweeps == max_iters


def _renormalizing_sweep_min(choi, m, n, k, seed, stop_below=None):
    """The sweep before the lean one, as a reference: it takes the Hermitian
    part of each compressed matrix, twice per sweep, and at k = 1
    normalizes every fixed factor, eigenvectors included.  Same starts,
    stops and return value as ``schmidt_rank_min``."""
    def orthonormal_columns(a):
        if a.shape[-1] == 1:
            return a / np.linalg.norm(a, axis=-2, keepdims=True)
        return np.linalg.qr(a)[0]

    restarts, max_iters = linalg.SCHMIDT_RESTARTS, linalg.MAX_SWEEPS
    c4 = np.asarray(choi, dtype=np.complex128).reshape(m, n, m, n)
    c_b = c4.transpose(0, 1, 3, 2).reshape(m * n * n, m)
    c_i = c4.transpose(1, 0, 2, 3).reshape(n, m * m * n)
    rng = np.random.default_rng(seed)
    x = linalg.random_complex((restarts, n, k), rng)
    y = linalg.random_complex((restarts, k, m), rng)
    vals = np.full(restarts, np.inf)
    scale = float(np.abs(c4).max())
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        prev = vals
        q = orthonormal_columns(np.swapaxes(y, 1, 2).conj())
        t = (c_b @ q.conj()).reshape(restarts, m, n * n * k)
        mat = (np.swapaxes(q, 1, 2) @ t).reshape(restarts, k, n, n, k)
        _, vecs = linalg.hermitian_part_eigen(mat.transpose(0, 1, 2, 4, 3).reshape(
            restarts, k * n, k * n))
        x = np.swapaxes(vecs[:, :, 0].reshape(restarts, k, n), 1, 2)
        q = orthonormal_columns(x)
        t = (np.swapaxes(q, 1, 2).conj() @ c_i).reshape(restarts, k * m * m, n)
        mat = (t @ q).reshape(restarts, k, m, m, k)
        vals, vecs = linalg.hermitian_part_eigen(mat.transpose(0, 1, 2, 4, 3).reshape(
            restarts, k * m, k * m))
        vals = vals[:, 0]
        x, y = q, vecs[:, :, 0].reshape(restarts, k, m)
        drop = prev - vals
        settled = drop <= linalg._SWEEP_DROP * np.maximum(scale, np.abs(vals))
        best = int(np.argmin(vals))
        if settled.all():
            break
        if stop_below is not None and (vals[best] < stop_below or (settled[best] and np.all(
                vals - np.maximum(drop, 0.0) * (max_iters - sweeps) >= stop_below))):
            break
    best = int(np.argmin(vals))
    return float(vals[best]), x[best], y[best], sweeps


def _random_hp_cases():
    rng = np.random.default_rng(13)
    return [(linalg.random_hermitian(m * n, rng), m, n, k)
            for m, n in DIMS for k in range(1, min(m, n) + 1)]


@pytest.mark.parametrize("cases", [_random_hp_cases, _near_boundary_corpus])
def test_lean_sweep_matches_the_renormalizing_sweep(cases):
    # the Hermitian part taken once, eigh on the compressed matrices as they
    # are and no renormalization of unit eigenvectors change only rounding:
    # the same sweeps, and values within 1e-12 max|C|
    for i, (choi, m, n, k) in enumerate(cases()):
        eps = linalg.tolerance(choi, TOL)
        for stop_below in (None, -eps):
            val, x, y, sweeps = linalg.schmidt_rank_min(choi, m, n, k, i, stop_below)
            ref = _renormalizing_sweep_min(choi, m, n, k, i, stop_below)
            assert sweeps == ref[3]
            assert abs(val - ref[0]) <= 1e-12 * np.abs(choi).max()
            assert np.linalg.norm(x @ y) == pytest.approx(1.0, abs=1e-12)
