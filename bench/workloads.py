"""Seeded query generators for the mapcones benchmark.

Every map is built here with plain numpy from its defining formula, so the
inputs do not depend on the code under test.  Each query carries the
status the theory fixes for it (``truth``); a verdict with the opposite
status is a wrong answer.  ``None`` means the theory fixes nothing and only
``recheck`` judges the verdict.

Choi convention (the one ``mapcones.superop`` documents): the (k, l) block
of size n x n is Phi(f_kl), and vec(V)[j*n + i] = V[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEMBER = "member"
NOT_MEMBER = "not_member"

# cones.MEMBER / NOT_MEMBER are the strings above; the opposite of the
# truth is the only verdict the oracle rejects
OPPOSITE = {MEMBER: NOT_MEMBER, NOT_MEMBER: MEMBER}


@dataclass(frozen=True)
class Query:
    kind: str          # generator name, used in failure reports and tests
    op: str            # "member" or "witness_search"
    cone: str          # cone expression in the CLI grammar
    map_json: dict     # the map as the CLI reads it: {"m", "n", "choi"}
    truth: str | None  # status the construction fixes, or None


# ---------------------------------------------------------------------------
# Map constructions (numpy only)
# ---------------------------------------------------------------------------

def _complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _unitary(rng, d):
    q, r = np.linalg.qr(_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _vec(v):
    return v.T.reshape(-1)


def _hermitian(c):
    return (c + c.conj().T) / 2


def kraus_choi(ops):
    """Choi matrix of sum_i Ad_{V_i}."""
    ws = np.stack([_vec(v) for v in ops], axis=1)
    return _hermitian(ws @ ws.conj().T)


def family_choi(v, lam):
    """Choi matrix of Tr - lam * Ad_V: I - lam |vec V><vec V|."""
    w = _vec(v)
    return _hermitian(np.eye(w.size) - lam * np.outer(w, w.conj()))


def k_threshold(v, k):
    """Largest lam keeping Tr - lam Ad_V k-positive (k = min(m, n) gives CP)."""
    s = np.linalg.svd(v, compute_uv=False)
    return 1.0 / float(np.sum(s[:k] ** 2))


def ckl_choi(a, b, c):
    """Choi matrix of the Cho-Kye-Lee map Phi[a,b,c] on 3x3 matrices.

    Phi[a,b,c](X) = D(X) - X with D(X) diagonal, D(X)_ii = sum_k A[i,k] x_kk
    and A the circulant of (a, b, c).  Phi[a,b,c] is positive iff a >= 1,
    a + b + c >= 3 and (1 <= a <= 2 implies b c >= (2 - a)^2); for
    0 <= a <= 3 it is decomposable iff b c >= ((3 - a) / 2)^2
    (Cho, Kye and Lee, 1992).
    """
    circ = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    c4 = np.zeros((3, 3, 3, 3), dtype=np.complex128)
    for k in range(3):
        c4[k, :, k, :] += np.diag(circ[:, k])
        for l in range(3):
            c4[k, k, l, l] -= 1.0
    return c4.reshape(9, 9)


def local_unitary(c, u, w):
    """Choi matrix of X -> U Phi(W X W^dagger) U^dagger."""
    g = np.kron(w.T, u)
    return _hermitian(g @ c @ g.conj().T)


def superop_json(c, m, n) -> dict:
    entries = np.stack([c.real, c.imag], axis=-1).reshape(-1, 2).tolist()
    return {"m": m, "n": n, "choi": {"rows": m * n, "cols": m * n, "entries": entries}}


def _query(kind, cone, c, m, n, truth, op="member") -> Query:
    return Query(kind, op, cone, superop_json(c, m, n), truth)


# ---------------------------------------------------------------------------
# decide_search: queries the exact routes cannot settle
# ---------------------------------------------------------------------------

def _rotated_ckl(rng, a, b, c):
    return local_unitary(ckl_choi(a, b, c), _unitary(rng, 3), _unitary(rng, 3))


def _two_positive_not_cp(rng, d):
    """Tr - lam Ad_V with lam between the CP and 2-positivity thresholds,
    plus a CP term too small to make it CP (Weyl's inequality)."""
    v = _complex(rng, (d, d))
    cp_thr, thr2 = k_threshold(v, d), k_threshold(v, 2)
    lam = cp_thr + rng.uniform(0.3, 0.7) * (thr2 - cp_thr)
    gap = lam / cp_thr - 1.0  # the family's Choi matrix has eigenvalue -gap
    extra = kraus_choi([_complex(rng, (d, d)) for _ in range(2)])
    return family_choi(v, lam) + 0.5 * gap / np.linalg.eigvalsh(extra)[-1] * extra


def decide_search_round(rng) -> list[Query]:
    out = []
    join = "join(CP,t(CP))"

    # Phi[2,1,0] is positive and indecomposable; adding eps*Tr gives
    # Phi[2+eps,1+eps,eps], strictly positive and still indecomposable
    # for eps < (sqrt(48) - 6) / 6 ~ 0.155
    ckl = _rotated_ckl(rng, 2.0, 1.0, 0.0)
    out.append(_query("ckl_P", "P", ckl, 3, 3, MEMBER))
    out.append(_query("ckl_join", join, ckl, 3, 3, NOT_MEMBER))
    eps = rng.uniform(0.01, 0.1)
    ckl_eps = _rotated_ckl(rng, 2.0 + eps, 1.0 + eps, eps)
    out.append(_query("ckl_eps_P", "P", ckl_eps, 3, 3, MEMBER))
    out.append(_query("ckl_eps_join", join, ckl_eps, 3, 3, NOT_MEMBER))

    # a + b + c < 3 violates positivity
    outside = _rotated_ckl(rng, 2.0, 1.0 - rng.uniform(0.1, 0.3), 0.0)
    out.append(_query("ckl_outside_P", "P", outside, 3, 3, NOT_MEMBER))

    out.append(_query("ws_P_ckl", "P", ckl_eps, 3, 3, MEMBER, op="witness_search"))
    out.append(_query("ws_P_outside", "P", outside, 3, 3, NOT_MEMBER,
                      op="witness_search"))

    for d in (3, 4):
        hp = _hermitian(_complex(rng, (d * d, d * d)))
        out.append(_query(f"hp_P_{d}", "P", hp, d, d, None))
        two_pos = _two_positive_not_cp(rng, d)
        out.append(_query(f"two_pos_Pk2_{d}", "Pk(2)", two_pos, d, d, MEMBER))
        # Kraus rank 3 from rank-2 operators: inside SPk(2) by construction
        ops = [_complex(rng, (d, 2)) @ _complex(rng, (2, d)) for _ in range(3)]
        out.append(_query(f"sp2_SPk2_{d}", "SPk(2)", kraus_choi(ops), d, d, MEMBER))
    out.append(_query("ws_Pk2_hp_3", "Pk(2)", _hermitian(_complex(rng, (9, 9))), 3, 3,
                      None, op="witness_search"))
    out.append(_query("ws_Pk2_two_pos_4", "Pk(2)", _two_positive_not_cp(rng, 4), 4, 4,
                      MEMBER, op="witness_search"))
    return out


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for round ``index`` of workload seed ``seed``."""
    return np.random.default_rng([seed, index])
