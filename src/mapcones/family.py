"""The one-parameter family Tr - lambda * Ad_V and its positivity thresholds.

For V: K -> H the map rho -> Tr(rho) I - lambda V rho V^dagger has Choi
matrix I - lambda |v><v| with v = vec(V).  It is completely positive iff
lambda * Tr(V V^dagger) <= 1 and k-positive iff lambda times the sum of the
k largest eigenvalues of V V^dagger is at most 1 (the maximum of
Tr(E V V^dagger) over rank-k projections E).  The brute-force check tests
that threshold numerically with the shared Schmidt-rank-k minimizer and
confirms each refutation on a composition Ad_E . Phi_lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import as_matrix
from .superop import SuperOperator, ad_map, vec


@dataclass(frozen=True)
class PhiLambdaSpec:
    v: np.ndarray  # n x m operator
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "v", as_matrix(self.v))
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not np.any(self.v):
            raise ValueError("V must be nonzero")

    @property
    def dims(self) -> tuple[int, int]:
        n, m = self.v.shape
        return (m, n)


def build(spec: PhiLambdaSpec) -> SuperOperator:
    """The superoperator rho -> Tr(rho) I_n - lambda V rho V^dagger."""
    m, n = spec.dims
    w = vec(spec.v)
    choi = np.eye(m * n, dtype=np.complex128) - spec.lam * np.outer(w, w.conj())
    return SuperOperator(m, n, choi)


def cp_threshold(v) -> float:
    """Largest lambda keeping Tr - lambda Ad_V completely positive: 1 / Tr(V V^dagger)."""
    v = as_matrix(v)
    if not np.any(v):
        raise ValueError("V must be nonzero")
    return 1.0 / float(np.real(np.trace(v @ v.conj().T)))


def k_positivity_threshold(v, k: int) -> float:
    """Largest lambda keeping the family k-positive: inverse of the sum of the
    k largest eigenvalues of V V^dagger."""
    v = as_matrix(v)
    n, m = v.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must satisfy 1 <= k <= {min(m, n)}, got {k}")
    gram = v @ v.conj().T
    vals, _ = linalg.hermitian_eigen(gram)
    top = float(np.sum(vals[::-1][:k]))
    if top <= 0:
        raise ValueError("V must be nonzero")
    return 1.0 / top


def brute_force_k_positivity(spec: PhiLambdaSpec, k: int, seed, tol: float = 1e-9):
    """Numerical check of k-positivity by a Schmidt-rank-k search.

    Phi_lambda is k-positive iff its Choi quadratic form is nonnegative on
    vectors of Schmidt rank <= k; :func:`linalg.schmidt_rank_min` minimizes
    it there with ``stop_below`` -eps, eps the ``linalg.tolerance`` of the
    Choi matrix.  Its stop at the end of the first sweep in which any
    restart lies below -eps cannot change the comparison with -eps made
    here; X then comes from that full sweep, so its columns are orthonormal.
    Its stall stop, once no restart falls fast enough to reach -eps in the
    sweeps left, leaves the comparison unchanged only while no restart's
    per-sweep drop grows.  A value below -eps at V = X Y gives the rank-k
    projection E = X X^dagger onto a space containing the range of V, and
    the witness stands only if Ad_E . Phi_lambda fails the CP eigenvalue
    test within its own tolerance.  Returns
    ``(is_k_positive, witness_projection_or_None)``.
    """
    m, n = spec.dims
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must satisfy 1 <= k <= {min(m, n)}, got {k}")
    phi = build(spec)
    eps = linalg.tolerance(phi.choi, tol)
    quad, x, _, _ = linalg.schmidt_rank_min(phi.choi, m, n, k,
                                            restarts=linalg.SCHMIDT_RESTARTS,
                                            max_iters=linalg.MAX_SWEEPS,
                                            seed=seed, stop_below=-eps)
    if quad < -eps:
        e = x @ x.conj().T
        comp = ad_map(e).compose(phi).choi
        if linalg.hermitian_part_eigvals(comp)[0] < -linalg.tolerance(comp, tol):
            return False, e
    return True, None
