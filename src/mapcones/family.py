"""The family a Tr - b Ad_W: the one module that knows its formulas.

For W: K -> H and w = vec(W) the map rho -> a Tr(rho) I - b W rho W^dagger
has Choi matrix a I - b |w><w| (:func:`choi`).  For a > 0 it is k-positive
iff (b / a) fan_k(w) <= 1, fan_k(w) being the sum of the k largest squared
singular values of W (:func:`fan`), the maximum of Tr(E W W^dagger) over
rank-k projections E.  Its least Choi quadratic form over unit vectors of
Schmidt rank <= k, a - b fan_k(w), lies at the top-k singular truncation of
W (:func:`truncation`).  So Tr - lambda Ad_V is k-positive iff lambda <=
1 / fan_k, and CP iff lambda <= 1 / fan_min(m, n) = 1 / Tr(V V^dagger).
The brute-force check tests that threshold numerically with the shared
Schmidt-rank-k minimizer and confirms each refutation on a composition
Ad_E . Phi_lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import as_matrix
from .superop import SuperOperator, ad_map, vec


def choi(a, b, w):
    """The Choi matrix a I - b |w><w| of one family map, or of each row of a
    stack of vectors w, a and b then scalars or arrays over its rows."""
    w = np.asarray(w)
    a = np.asarray(a)[..., None, None]
    b = np.asarray(b)[..., None, None]
    return a * np.eye(w.shape[-1]) - b * (w[..., :, None] * w[..., None, :].conj())


def fan(w, m: int, n: int, k: int):
    """Sum of the k largest eigenvalues of W W^dagger for W = unvec(w), of
    one vector w or of each row of a stack of them."""
    sv = np.linalg.svd(np.swapaxes(w.reshape(*w.shape[:-1], m, n), -1, -2), compute_uv=False)
    return np.sum(sv[..., :k] ** 2, axis=-1)


def truncation(v, k: int) -> np.ndarray:
    """The top-k singular truncation of the operator V, or of each operator
    of a stack: of all operators of rank <= k the closest to V (Eckart-Young)."""
    u, s, vh = np.linalg.svd(v)
    return (u[..., :k] * s[..., None, :k]) @ vh[..., :k, :]


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
    return SuperOperator(m, n, choi(1.0, spec.lam, vec(spec.v)))


def k_positivity_threshold(v, k: int) -> float:
    """Largest lambda keeping Tr - lambda Ad_V k-positive: 1 / fan_k(vec(V)).
    Raises ValueError unless 1 <= k <= min(m, n) and the fan is positive."""
    v = as_matrix(v)
    n, m = v.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must satisfy 1 <= k <= {min(m, n)}, got {k}")
    top = float(fan(vec(v), m, n, k))
    if top <= 0:
        raise ValueError(f"fan_{k} of V is {top}: V is zero or too small for float64")
    return 1.0 / top


def cp_threshold(v) -> float:
    """Largest lambda keeping Tr - lambda Ad_V completely positive: the
    k-positivity threshold at k = min(m, n), 1 / Tr(V V^dagger)."""
    v = as_matrix(v)
    return k_positivity_threshold(v, min(v.shape))


def brute_force_k_positivity(spec: PhiLambdaSpec, k: int, seed, tol: float = 1e-9):
    """Numerical check of k-positivity by a Schmidt-rank-k search.

    Phi_lambda is k-positive iff its Choi quadratic form is nonnegative on
    vectors of Schmidt rank <= k; :func:`linalg.schmidt_rank_min` minimizes
    it there with ``stop_below`` -eps, eps the ``linalg.tolerance`` of the
    Choi matrix (its docstring states when that stop keeps the comparison
    with -eps made here).  A value below -eps at V = X Y gives the rank-k
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
    quad, x, _, _ = linalg.schmidt_rank_min(phi.choi, m, n, k, seed, stop_below=-eps)
    if quad < -eps:
        e = x @ x.conj().T
        comp = ad_map(e).compose(phi).choi
        if linalg.hermitian_part_eigvals(comp)[0] < -linalg.tolerance(comp, tol):
            return False, e
    return True, None
