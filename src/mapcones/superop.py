"""Linear maps B(K) -> B(H) stored through their Choi matrix.

A map Phi between operator algebras on K (dim m) and H (dim n) is canonically
represented by the (m n) x (m n) Choi matrix whose (k, l) block of size n x n
is Phi(f_kl).  Row index k*n + i, column l*n + j holds the coefficient of e_ij
in Phi(f_kl).  Vectorization is K-index major: vec(V)[j*n + i] = V[i, j], so
the Choi matrix of the conjugation rho -> V rho V^dagger is the outer product
of vec(V) with itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import DimensionError, as_matrix


def vec(v) -> np.ndarray:
    """K-major vectorization of an n x m operator."""
    return vec_stack(as_matrix(v))


def vec_stack(ops) -> np.ndarray:
    """:func:`vec` of each operator in a stack: shape (..., n, m) -> (..., m*n)."""
    return np.swapaxes(ops, -1, -2).reshape(*ops.shape[:-2], ops.shape[-2] * ops.shape[-1])


def unvec(w, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape an m*n vector into an n x m operator."""
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if w.size != m * n:
        raise DimensionError(f"vector of length {w.size} cannot unvec to {n}x{m}")
    return w.reshape(m, n).T


@dataclass(frozen=True)
class SuperOperator:
    """A linear map B(K) -> B(H), K of dimension m, H of dimension n."""

    m: int
    n: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionError("map dimensions must be positive")
        c = as_matrix(self.choi)
        d = self.m * self.n
        if c.shape != (d, d):
            raise DimensionError(f"Choi matrix must be {d}x{d}, got {c.shape}")
        object.__setattr__(self, "choi", c)
        self.choi.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.m, self.n)

    def _choi4(self) -> np.ndarray:
        return self.choi.reshape(self.m, self.n, self.m, self.n)

    def coefficient(self, i: int, j: int, k: int, l: int) -> complex:
        """Coefficient Phi_{ij,kl} of e_ij in Phi(f_kl) (zero-based indices)."""
        return complex(self.choi[k * self.n + i, l * self.n + j])

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on an m x m operator."""
        x = as_matrix(x)
        if x.shape != (self.m, self.m):
            raise DimensionError(f"apply expects a {self.m}x{self.m} operator, got {x.shape}")
        # S[k l, i j] = C[k i, l j], the matrix compose_stack multiplies
        s = _realign(self.choi, self.m, self.n, self.m, self.n)
        return (x.reshape(-1) @ s).reshape(self.n, self.n)

    def adjoint(self) -> "SuperOperator":
        """Adjoint map B(H) -> B(K) for the Hilbert-Schmidt pairing."""
        return SuperOperator(self.n, self.m, adjoint_stack(self.choi, self.m, self.n))

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self after other: (self . other)(X) = self(other(X))."""
        if self.m != other.n:
            raise DimensionError(f"cannot compose: inner dimensions {self.m} and {other.n} differ")
        return SuperOperator(other.m, self.n,
                             compose_stack(self.choi, other.choi, other.m, self.m, self.n))

    def transpose_twirl(self) -> "SuperOperator":
        """The two-sided twirl t . Phi . t; on the Choi matrix a full transpose."""
        return SuperOperator(self.m, self.n, self.choi.T.copy())

    def right_transpose(self) -> "SuperOperator":
        """Phi . t, transposition applied on the input side."""
        return SuperOperator(self.m, self.n, twirl_stack(self.choi, self.m, self.n))

    def tensor_with_identity(self, k: int) -> "SuperOperator":
        """Phi tensor id_k as a map B(K x C^k) -> B(H x C^k)."""
        if k < 1:
            raise DimensionError("tensor factor dimension must be positive")
        eye = np.eye(k)
        c = np.einsum("kilj,ca,db->kaiclbjd", self._choi4(), eye, eye)
        d = self.m * self.n * k * k
        return SuperOperator(self.m * k, self.n * k, c.reshape(d, d))

    def is_hermiticity_preserving(self, tol: float = linalg.DEFAULT_TOL) -> bool:
        """Whether the Choi matrix is Hermitian within ``linalg.tolerance``."""
        return linalg.is_hermitian(self.choi, tol)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperOperator)
            and self.dims == other.dims
            and np.array_equal(self.choi, other.choi)
        )

    def isclose(self, other: "SuperOperator", tol: float = linalg.DEFAULT_TOL) -> bool:
        return self.dims == other.dims and np.max(np.abs(self.choi - other.choi)) <= tol


# Stacked forms: the same Choi algebra on (count, m*n, m*n) arrays of Choi
# matrices, one numpy call for the whole stack.

def twirl_stack(chois, m: int, n: int) -> np.ndarray:
    """Choi matrices of Phi . t for a Choi matrix or a stack of them; the
    twirl only permutes entries, so twirling twice restores the input exactly."""
    c5 = chois.reshape(-1, m, n, m, n).transpose(0, 3, 2, 1, 4)
    return c5.reshape(chois.shape)


def kraus_stack(ops) -> np.ndarray:
    """Choi matrices of sum_r Ad_{V_r} for a (..., r, n, m) stack of Kraus
    operators V_r: the outer products |vec V_r><vec V_r| summed over r."""
    w = vec_stack(ops)
    return (w[..., :, None] * w.conj()[..., None, :]).sum(axis=-3)


def _realign(a, p: int, q: int, r: int, s: int) -> np.ndarray:
    """Entry [.., (p q), (r s)] of a matrix stack as entry [.., (p r), (q s)]:
    the Choi matrix C[k i, l j] as S[k l, i j], and back."""
    if a.shape[-2:] != (p * q, r * s):
        raise DimensionError(f"expected {p * q}x{r * s} matrices, got {a.shape[-2:]}")
    a = np.swapaxes(a.reshape(*a.shape[:-2], p, q, r, s), -3, -2)
    return a.reshape(*a.shape[:-4], p * r, q * s)


def compose_stack(outer, inner, m: int, k: int, n: int) -> np.ndarray:
    """Choi matrices of outer . inner for maps inner: m -> k and outer: k -> n,
    each a Choi matrix or a stack, broadcast over the leading axes.  S is the
    transpose of the map's matrix on row-major vectors, so S(Phi . Psi) =
    S(Psi) S(Phi) and the whole stack is one matmul."""
    return compose_realigned(_realign(outer, k, n, k, n), inner, m, k, n)


def compose_realigned(outer_s, inner, m: int, k: int, n: int) -> np.ndarray:
    """:func:`compose_stack` with the outer maps given as their realigned
    matrices S, (k k) x (n n) each, such as :func:`adjoint_realigned`
    returns: the same matmul, bit for bit, without realigning them again."""
    return _realign(_realign(inner, m, k, m, k) @ outer_s, m, m, n, n)


def adjoint_stack(chois, m: int, n: int) -> np.ndarray:
    """Choi matrices of the adjoints n -> m of maps m -> n: S(Phi^dagger) =
    S(Phi)^dagger, a conjugate plus a swap of the K/H index roles."""
    s = _realign(chois, m, n, m, n)
    return _realign(np.swapaxes(s, -1, -2).conj(), n, n, m, m)


def adjoint_realigned(chois, m: int, n: int) -> np.ndarray:
    """S(Phi^dagger) = S(Phi)^dagger, (n n) x (m m) and C-contiguous, for
    maps Phi: m -> n: the matrix :func:`compose_stack` multiplies for the
    outer map Phi^dagger, with the entries of ``adjoint_stack`` realigned.
    :func:`choi_of_adjoint_realigned` recovers the Choi matrices exactly."""
    s = np.ascontiguousarray(np.swapaxes(_realign(chois, m, n, m, n), -1, -2))
    return np.conjugate(s, out=s)


def choi_of_adjoint_realigned(s, m: int, n: int) -> np.ndarray:
    """The Choi matrices of the maps m -> n whose :func:`adjoint_realigned`
    is ``s``; both only permute and conjugate entries, so the round trip is
    exact."""
    return _realign(np.swapaxes(s, -1, -2).conj(), m, m, n, n)


def map_inner_stack(a, b) -> np.ndarray:
    """<Phi, Psi> = Tr(C_Phi C_Psi^dagger) for Choi matrices or stacks a and b,
    broadcast over the leading axes."""
    return (a * np.conj(b)).sum(axis=(-2, -1))


def from_choi(c, m: int, n: int) -> SuperOperator:
    return SuperOperator(m, n, np.array(c, dtype=np.complex128))


def from_kraus(ops) -> SuperOperator:
    """Map sum_i Ad_{V_i} from a nonempty list of n x m Kraus operators."""
    ops = [as_matrix(v) for v in ops]
    if not ops:
        raise ValueError("Kraus operator list must be nonempty")
    n, m = ops[0].shape
    for v in ops:
        if v.shape != (n, m):
            raise DimensionError(f"inconsistent Kraus shapes: {v.shape} vs {(n, m)}")
    return SuperOperator(m, n, kraus_stack(np.array(ops)))


def ad_map(v) -> SuperOperator:
    """The conjugation map rho -> V rho V^dagger for an n x m operator V."""
    return from_kraus([v])


def identity_map(d: int) -> SuperOperator:
    return ad_map(np.eye(d))


def trace_map(m: int, n: int | None = None) -> SuperOperator:
    """The map rho -> Tr(rho) * I_n; its Choi matrix is the identity."""
    n = m if n is None else n
    return SuperOperator(m, n, np.eye(m * n, dtype=np.complex128))


def transpose_map(d: int) -> SuperOperator:
    """Transposition f_kl -> f_lk on B(C^d); the Choi matrix is the swap operator."""
    c = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d).transpose(0, 1, 3, 2)
    return SuperOperator(d, d, c.reshape(d * d, d * d))


def map_inner(phi: SuperOperator, psi: SuperOperator) -> complex:
    """Inner product of maps, sum_kl <Phi(f_kl), Psi(f_kl)>, evaluated as the
    Hilbert-Schmidt product of the Choi matrices (:func:`map_inner_stack`);
    ``verifier.check_isometry`` tests that identity against the basis sum.
    """
    if phi.dims != psi.dims:
        raise DimensionError(f"map_inner needs equal dims, got {phi.dims} and {psi.dims}")
    return complex(map_inner_stack(phi.choi, psi.choi))


def random_map(m: int, n: int, rng) -> SuperOperator:
    """A generic (not necessarily positive) map with Gaussian Choi entries."""
    return SuperOperator(m, n, linalg.random_complex((m * n, m * n), rng))


def random_hp_map(m: int, n: int, rng) -> SuperOperator:
    """A random Hermiticity-preserving map (Hermitian Choi matrix)."""
    return SuperOperator(m, n, linalg.random_hermitian(m * n, rng))


def random_cp_map(m: int, n: int, rng, kraus_count: int = 3) -> SuperOperator:
    rng = np.random.default_rng(rng)
    return from_kraus([linalg.random_complex((n, m), rng) for _ in range(kraus_count)])


def superop_to_json(phi: SuperOperator) -> dict:
    return {"m": phi.m, "n": phi.n, "choi": linalg.matrix_to_json(phi.choi)}


def superop_from_json(obj) -> SuperOperator:
    """The map of a JSON object ``{"m", "n", "choi"}``; raises DimensionError
    when the Choi shape does not match m, n and ValueError, never TypeError,
    on any other malformed object."""
    if not isinstance(obj, dict) or not {"m", "n", "choi"} <= set(obj):
        raise ValueError("superoperator JSON must carry m, n and choi")
    return SuperOperator(linalg.json_int(obj["m"], "m"), linalg.json_int(obj["n"], "n"),
                         linalg.matrix_from_json(obj["choi"]))
