"""Reference tests for the batched Schmidt-rank-k minimizer ``linalg.schmidt_rank_min``."""

import numpy as np
import pytest

from mapcones import linalg
from mapcones.superop import unvec, vec

DIMS = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]


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
def test_full_schmidt_rank_gives_lowest_eigenvalue(m, n):
    choi = linalg.random_hermitian(m * n, np.random.default_rng([m, n]))
    val, x, y = linalg.schmidt_rank_min(choi, m, n, min(m, n), 4, 60, seed=0)
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
        val, x, y = linalg.schmidt_rank_min(choi, m, n, k, 8, 60, seed=k)
        assert val == pytest.approx(a - b * np.sum(sv[:k] ** 2), abs=1e-9)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(k), atol=1e-12)
        assert np.linalg.norm(x @ y) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m,n", DIMS)
def test_batched_minimizer_matches_the_unbatched_loop(m, n):
    rng = np.random.default_rng([m, n, 2])
    corpus = [linalg.random_hermitian(m * n, rng)]
    w = vec(linalg.random_complex((n, m), rng))
    corpus.append(np.eye(m * n) - 0.5 * np.outer(w, w.conj()) / np.vdot(w, w).real
                  + 0.05 * linalg.random_hermitian(m * n, rng))
    for i, choi in enumerate(corpus):
        for k in range(1, min(m, n)):
            val, _, _ = linalg.schmidt_rank_min(choi, m, n, k, 4, 60, seed=i)
            assert val <= _loop_min(choi, m, n, k, 4, 60, seed=i) + 1e-8


def test_same_seed_gives_identical_arrays():
    choi = linalg.random_hermitian(12, np.random.default_rng(5))
    first = linalg.schmidt_rank_min(choi, 3, 4, 2, 8, 60, seed=3)
    second = linalg.schmidt_rank_min(choi, 3, 4, 2, 8, 60, seed=3)
    assert first[0] == second[0]
    assert first[1].tobytes() == second[1].tobytes()
    assert first[2].tobytes() == second[2].tobytes()
