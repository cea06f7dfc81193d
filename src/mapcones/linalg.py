"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with dtype complex128.  The JSON
wire form carries explicit dimensions and row-major ``[re, im]`` entry pairs;
parsing validates shape consistency and rejects non-finite values.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9


class DimensionError(ValueError):
    """Raised when operand dimensions are incompatible."""


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A B^dagger) of two square matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"hs_inner needs equal square matrices, got {a.shape} and {b.shape}")
    return complex(np.vdot(b, a))


def hermiticity_defect(m):
    """Largest entry of |M - M^dagger|: a float for one matrix, and an array
    of them over the leading axes of a stack."""
    m = np.asarray(m, dtype=np.complex128)
    # M^dagger - M rather than M - M^dagger lets numpy subtract in place, and
    # |.| goes back into the same array: one stack-sized temporary in all
    d = np.swapaxes(m, -1, -2).conj() - m
    defect = np.abs(d, out=d).real.max(axis=(-2, -1), initial=0.0)
    return float(defect) if m.ndim == 2 else defect


def tolerance(c, tol: float = DEFAULT_TOL):
    """The decision tolerance for a matrix C: ``tol * max|C_ij|``.

    The one tolerance rule of the package.  Cones are closed under positive
    scaling, so a verdict on C must not depend on its scale: every quantity
    that scales with C (an eigenvalue, a unit-vector quadratic form, a
    Hermiticity defect, the distance to a rebuilt certificate) is compared
    with this, and ``tol`` reads as relative to the largest entry.  For a
    stack it is taken per matrix over the last two axes; the zero matrix
    gets 0.
    """
    bound = tol * np.abs(np.asarray(c)).max(axis=(-2, -1), initial=0.0)
    return float(bound) if np.ndim(c) == 2 else bound


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether every matrix of M (one matrix, or a stack over leading axes)
    has a :func:`hermiticity_defect` within its :func:`tolerance`."""
    return bool(np.all(hermiticity_defect(m) <= tolerance(m, tol)))


def numerical_rank(op) -> int:
    """Rank of an operator: its singular values above ``1e-8`` times the
    largest one (0 for the zero operator)."""
    sv = singular_values(op)
    return int(np.sum(sv > 1e-8 * sv[0]))


def hermitian_part_eigen(m):
    """Eigendecomposition of the Hermitian part (M + M^dagger) / 2.

    Accepts a square matrix or a stack of them (leading batch axes).  Returns
    ``(eigenvalues, eigenvectors)``, eigenvalues ascending and eigenvectors
    as orthonormal columns; no self-adjointness check is made.
    """
    return np.linalg.eigh(_hermitian_part(m))


def hermitian_part_eigvals(m):
    """Ascending eigenvalues of the Hermitian part, without the eigenvectors
    :func:`hermitian_part_eigen` computes (cheaper where only values are read)."""
    return np.linalg.eigvalsh(_hermitian_part(m))


def _hermitian_part(m):
    m = np.asarray(m, dtype=np.complex128)
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


# A restart has converged once a sweep lowers its value by no more than this,
# relative to max(max|C|, |value|) for the Choi matrix C.
_SWEEP_DROP = 1e-12
# Restarts of the Schmidt-rank-k searches built on schmidt_rank_min.
SCHMIDT_RESTARTS = 8
# Sweep budget of the package's iterative searches: the Schmidt-rank-k
# minimizations and the alternating projections of join(CP, t(CP)).
MAX_SWEEPS = 60


def schmidt_rank_min(choi, m: int, n: int, k: int, seed, stop_below=None):
    """Minimize vec(V)^H C vec(V) over unit-norm V = X Y of Schmidt rank <= k.

    X is n x k and Y is k x m, so vec(X Y) spans exactly the vectors of
    Schmidt rank <= k in C^m x C^n.  ``SCHMIDT_RESTARTS`` restarts run as one
    stacked batch of alternating half-steps, for at most ``MAX_SWEEPS``
    sweeps.  Each half-step replaces the factor held fixed by one with
    orthonormal columns or rows and the same span (a batched QR of Y^H, or
    of X), so ||X Y|| is the norm of the free factor and the exact minimum
    over it is the lowest eigenpair of a Hermitian (kn) x (kn) or
    (km) x (km) matrix.  That compressed matrix is two batched matmuls of
    the fixed factor with views of the Hermitian part of C, taken once per
    call, and goes to ``np.linalg.eigh`` as it is.  At k = 1, where the span
    is one line, only the random start is normalized: every later fixed
    factor is a unit eigenvector as eigh returns it.  The current point
    stays feasible, so no restart's value increases.

    A restart has settled once a sweep lowers its value by no more than
    ``_SWEEP_DROP * max(max|C|, |value|)``, a test that, like every other,
    reads the same at every scale of C.  The sweeps end after the budget or
    once every restart has settled.  With ``stop_below`` two more stops
    apply:

    * first crossing: the end of the first sweep in which any restart's
      value is below ``stop_below``; the least such restart is returned.
      Since no value increases, the full run would end below it too, so the
      stop cannot change a comparison of the value with ``stop_below``.  It
      returns the point of that sweep, not a converged one: the run is the
      one without ``stop_below`` cut at that sweep, bit for bit, and the
      check comes after the full sweep, where x has orthonormal columns.
    * stall: the best restart has settled and no restart can reach
      ``stop_below`` in the sweeps left, every value, lowered by this
      sweep's drop times the sweeps left, staying at or above it.  It fires
      only while every value is at or above ``stop_below``, and rests on
      one premise: no restart's per-sweep drop grows.  A restart that
      escapes a saddle breaks it, and a run the full one would end below
      ``stop_below`` can then stop above it: on a 3 x 3 map D + 0.0176 H,
      D real diagonal and H Hermitian, at k = 1, the best restart settles
      at +0.038 max|C| while five others, slow at +0.065 max|C|, speed up
      later and end at -0.074 max|C| in the full run.

    A caller that only asks whether the minimum is below a threshold passes
    that threshold.  Returns ``(value, x, y, sweeps)`` of the best restart;
    x has orthonormal columns and ||y|| = 1, so ||x @ y|| = 1.
    """
    restarts, max_iters = SCHMIDT_RESTARTS, MAX_SWEEPS
    c4 = _hermitian_part(choi).reshape(m, n, m, n)
    # C[a i, b j] with the index a half-step contracts first at one end:
    # rows (a i j) by column b, and row i by columns (a b j)
    c_b = c4.transpose(0, 1, 3, 2).reshape(m * n * n, m)
    c_i = c4.transpose(1, 0, 2, 3).reshape(n, m * m * n)
    rng = np.random.default_rng(seed)
    x = random_complex((restarts, n, k), rng)
    y = random_complex((restarts, k, m), rng)
    if k == 1:
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
    vals = np.full(restarts, np.inf)
    scale = float(np.abs(c4).max())
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        prev = vals
        # Y^H = Q R: X Y = (X R^H) Q^H, and Q^H has orthonormal rows;
        # mat[r i, s j] = sum_ab Q[a, r] C[a i, b j] conj(Q[b, s])
        q = np.swapaxes(y, 1, 2).conj()
        if k > 1:
            q = np.linalg.qr(q)[0]
        t = (c_b @ q.conj()).reshape(restarts, m, n * n * k)
        mat = (np.swapaxes(q, 1, 2) @ t).reshape(restarts, k, n, n, k)
        _, vecs = np.linalg.eigh(mat.transpose(0, 1, 2, 4, 3).reshape(
            restarts, k * n, k * n))
        x = np.swapaxes(vecs[:, :, 0].reshape(restarts, k, n), 1, 2)
        # X = Q R: X Y = Q (R Y), and Q has orthonormal columns;
        # mat[r a, s b] = sum_ij conj(Q[i, r]) C[a i, b j] Q[j, s]
        q = x if k == 1 else np.linalg.qr(x)[0]
        t = (np.swapaxes(q, 1, 2).conj() @ c_i).reshape(restarts, k * m * m, n)
        mat = (t @ q).reshape(restarts, k, m, m, k)
        vals, vecs = np.linalg.eigh(mat.transpose(0, 1, 2, 4, 3).reshape(
            restarts, k * m, k * m))
        vals = vals[:, 0]
        x, y = q, vecs[:, :, 0].reshape(restarts, k, m)
        drop = prev - vals
        settled = drop <= _SWEEP_DROP * np.maximum(scale, np.abs(vals))
        best = int(np.argmin(vals))
        if settled.all():
            break
        # settled[best] is False on the first sweep, whose drop is inf, so
        # no inf * 0 is formed when that sweep is also the last
        if stop_below is not None and (vals[best] < stop_below or (settled[best] and np.all(
                vals - np.maximum(drop, 0.0) * (max_iters - sweeps) >= stop_below))):
            break
    best = int(np.argmin(vals))
    return float(vals[best]), x[best], y[best], sweeps


def singular_values(m) -> np.ndarray:
    """Singular values of an arbitrary matrix, descending."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def matrix_unit(dim: int, k: int, l: int) -> np.ndarray:
    """The basis matrix with a single 1 at row k, column l."""
    u = np.zeros((dim, dim), dtype=np.complex128)
    u[k, l] = 1.0
    return u


def random_complex(shape, rng) -> np.ndarray:
    """A complex Gaussian array (x + 1j y) / sqrt(2), x then y drawn from
    ``rng``, a seed or a Generator."""
    return random_complex_trials([shape], 1, rng)[0][0]


def random_complex_trials(shapes, trials: int, rng) -> list[np.ndarray]:
    """One ``(trials, *shape)`` stack of :func:`random_complex` arrays per
    shape, from a single normal draw.

    Slice z of each stack is, bit for bit, what calling ``random_complex``
    on each shape in turn would draw on trial z: a Generator's normals come
    out the same in one call as in consecutive calls of the summed size.
    """
    rng = np.random.default_rng(rng)
    shapes = [(s,) if isinstance(s, (int, np.integer)) else tuple(s) for s in shapes]
    sizes = [math.prod(s) for s in shapes]
    normals = rng.standard_normal((trials, 2 * sum(sizes)))
    stacks, start = [], 0
    for shape, size in zip(shapes, sizes):
        # the values of (x + 1j y) / sqrt(2), filled in place without its
        # three complex temporaries
        out = np.empty((trials, *shape), dtype=np.complex128)
        out.real = normals[:, start:start + size].reshape(out.shape)
        out.imag = normals[:, start + size:start + 2 * size].reshape(out.shape)
        out /= math.sqrt(2)
        stacks.append(out)
        start += 2 * size
    return stacks


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = random_complex((dim, dim), rng)
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng) -> np.ndarray:
    return _hermitian_part(random_complex((dim, dim), rng))


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def json_int(value, name: str) -> int:
    """``value`` as an int if it is a JSON integer, else ValueError: a bool
    is not one, and 2.9 is not truncated to 2."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of a JSON object ``{"rows", "cols", "entries"}``; raises
    ValueError, never TypeError, on any malformed object."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        entries = obj["entries"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    try:
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        flat = np.empty(rows * cols, dtype=np.complex128)
        for idx, pair in enumerate(entries):
            if len(pair) != 2:
                raise ValueError("entries must be [re, im] pairs")
            re, im = float(pair[0]), float(pair[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError("matrix entries must be finite")
            flat[idx] = complex(re, im)
    # a non-list entries or entry, or a non-number part
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    return flat.reshape(rows, cols)
