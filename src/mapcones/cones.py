"""Symbolic cone algebra and membership/witness decision procedures.

Cone expressions are trees over the base cones Pk(k) (k-positive maps),
SPk(k) (k-superpositive maps) and CP, closed under the transpose twirl
``t(C)`` = {Phi . t}, intersection ``meet``, convex hull ``join`` and the
dual.  ``P``/``SP`` are aliases for k = 1 and CP coincides with both Pk and
SPk at k = min(m, n); normalization resolves the aliases, after which duals
rewrite mechanically (Pk <-> SPk, CP self-dual, meet <-> join, twirl
commutes) and never remain in the tree.

Membership verdicts are certified: a Member carries a certificate and a
NotMember carries a witness, each of which :func:`recheck` re-verifies from
scratch.  A map lies in a closed cone iff it pairs nonnegatively with the
whole dual cone, so every witness is a ``dual_element``: a dual map psi, with
its own certificate, whose pairing with the map is negative.  Complete
positivity is decided exactly via the Choi spectrum; k-positivity has a
sound refuter plus an exact certifier for maps whose Choi matrix has the
``a*I - b|w><w|`` spectral pattern.  Every refutation of k-positivity or CP
is a generator of the dual cone SPk: a conjugation Ad_V with rank V <= k.  V
is the top-k singular truncation of unvec(w) for a family-pattern map, the
lowest Choi eigenvector at k = min(m, n), and otherwise the minimizer of the
Choi quadratic form over vectors of Schmidt rank <= k, found by batched
alternating minimization.  Only the comparison of that minimum with minus
the tolerance decides, so the minimizer stops as soon as its best restart
has settled below it; a minimum that never gets there runs every sweep, as
it would without the stop.
Every tolerance is ``linalg.tolerance``, relative to the largest Choi entry,
so a verdict is the same for every positive multiple of a map.
k-superpositivity is certified by explicit Kraus decompositions.
Decomposability, membership in join(CP, t(CP)), is a two-cone feasibility
problem decided by alternating PSD projections: a certificate splits the Choi
matrix into a CP and a co-CP part, and a refutation is a PPT element of the
dual cone meet(CP, t(CP)) that pairs negatively with the map.  Other joins are
refuted by sampling their dual cone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import linalg
from .linalg import DimensionError
from . import superop
from .superop import SuperOperator, ad_map, from_kraus, unvec


# ---------------------------------------------------------------------------
# Cone expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Base:
    kind: str  # "Pk" | "SPk" | "CP"
    k: int = 0


@dataclass(frozen=True)
class Twirl:
    child: "ConeExpr"


@dataclass(frozen=True)
class Meet:
    left: "ConeExpr"
    right: "ConeExpr"


@dataclass(frozen=True)
class Join:
    left: "ConeExpr"
    right: "ConeExpr"


@dataclass(frozen=True)
class Dual:
    child: "ConeExpr"


ConeExpr = Union[Base, Twirl, Meet, Join, Dual]


class ConeGrammarError(ValueError):
    """Raised on unparseable or out-of-range cone expressions."""


_TOKEN = re.compile(r"\s*(Pk|SPk|CP|P|SP|t|meet|join|dual|\(|\)|,|\d+)")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ConeGrammarError(f"unexpected input at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_cone(text: str) -> ConeExpr:
    """Parse the grammar ``P | SP | CP | Pk(k) | SPk(k) | t(e) | meet(e,e) | join(e,e) | dual(e)``."""
    tokens = _tokenize(text)
    pos = 0

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "<end>"
            raise ConeGrammarError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def expr() -> ConeExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ConeGrammarError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "P":
            return Base("Pk", 1)
        if tok == "SP":
            return Base("SPk", 1)
        if tok == "CP":
            return Base("CP")
        if tok in ("Pk", "SPk"):
            expect("(")
            if pos >= len(tokens) or not tokens[pos].isdigit():
                raise ConeGrammarError(f"{tok} needs an integer argument")
            k = int(tokens[pos])
            if k < 1:
                raise ConeGrammarError(f"{tok} index must be >= 1, got {k}")
            pos += 1
            expect(")")
            return Base(tok, k)
        if tok == "t":
            expect("(")
            child = expr()
            expect(")")
            return Twirl(child)
        if tok == "dual":
            expect("(")
            child = expr()
            expect(")")
            return Dual(child)
        if tok in ("meet", "join"):
            expect("(")
            left = expr()
            expect(",")
            right = expr()
            expect(")")
            return (Meet if tok == "meet" else Join)(left, right)
        raise ConeGrammarError(f"unexpected token {tok!r}")

    result = expr()
    if pos != len(tokens):
        raise ConeGrammarError(f"trailing input {tokens[pos:]!r}")
    return result


def format_cone(expr: ConeExpr) -> str:
    if isinstance(expr, Base):
        if expr.kind == "CP":
            return "CP"
        if expr.k == 1:
            return "P" if expr.kind == "Pk" else "SP"
        return f"{expr.kind}({expr.k})"
    if isinstance(expr, Twirl):
        return f"t({format_cone(expr.child)})"
    if isinstance(expr, Meet):
        return f"meet({format_cone(expr.left)},{format_cone(expr.right)})"
    if isinstance(expr, Join):
        return f"join({format_cone(expr.left)},{format_cone(expr.right)})"
    if isinstance(expr, Dual):
        return f"dual({format_cone(expr.child)})"
    raise TypeError(f"not a cone expression: {expr!r}")


def _dual_of(expr: ConeExpr) -> ConeExpr:
    # expr must already be normalized (no Dual nodes, aliases resolved)
    if isinstance(expr, Base):
        if expr.kind == "CP":
            return expr
        return Base("SPk" if expr.kind == "Pk" else "Pk", expr.k)
    if isinstance(expr, Twirl):
        return _collapse_twirl(Twirl(_dual_of(expr.child)))
    if isinstance(expr, Meet):
        return Join(_dual_of(expr.left), _dual_of(expr.right))
    if isinstance(expr, Join):
        return Meet(_dual_of(expr.left), _dual_of(expr.right))
    raise TypeError(f"dual of unnormalized expression: {expr!r}")


def _collapse_twirl(expr: Twirl) -> ConeExpr:
    child = expr.child
    if isinstance(child, Twirl):
        return child.child
    # P and SP are invariant under composition with transposition
    if isinstance(child, Base) and child.kind in ("Pk", "SPk") and child.k == 1:
        return child
    return expr


def normalize(expr: ConeExpr, m: int, n: int) -> ConeExpr:
    """Resolve aliases against dims, validate k-ranges and eliminate duals."""
    kmax = min(m, n)
    if isinstance(expr, Base):
        if expr.kind == "CP":
            return expr
        if not 1 <= expr.k <= kmax:
            raise ConeGrammarError(
                f"index k={expr.k} out of range 1..{kmax} for dims ({m},{n})"
            )
        if expr.k == kmax:
            return Base("CP")
        return expr
    if isinstance(expr, Twirl):
        return _collapse_twirl(Twirl(normalize(expr.child, m, n)))
    if isinstance(expr, Meet):
        return Meet(normalize(expr.left, m, n), normalize(expr.right, m, n))
    if isinstance(expr, Join):
        return Join(normalize(expr.left, m, n), normalize(expr.right, m, n))
    if isinstance(expr, Dual):
        return _dual_of(normalize(expr.child, m, n))
    raise TypeError(f"not a cone expression: {expr!r}")


def dual_expr(expr: ConeExpr) -> ConeExpr:
    """Dual of a normalized cone expression; the result contains no Dual nodes."""
    return _dual_of(expr)


def includes(outer: ConeExpr, inner: ConeExpr) -> bool:
    """Conservative structural inclusion check: True implies inner is a subset.

    Every normalized expression denotes an mcs-cone and therefore contains
    all rank-one conjugations, so SP is included in everything.
    """
    if outer == inner:
        return True
    if inner == Base("SPk", 1):
        return True
    if isinstance(inner, Meet):
        if includes(outer, inner.left) or includes(outer, inner.right):
            return True
    if isinstance(outer, Join):
        if includes(outer.left, inner) or includes(outer.right, inner):
            return True
    if isinstance(outer, Meet):
        return includes(outer.left, inner) and includes(outer.right, inner)
    if isinstance(inner, Join):
        return includes(outer, inner.left) and includes(outer, inner.right)
    if isinstance(outer, Base) and isinstance(inner, Base):
        if inner.kind == "SPk":
            return outer.kind in ("CP", "Pk") or (outer.kind == "SPk" and inner.k <= outer.k)
        if inner.kind == "CP":
            return outer.kind == "Pk"
        if inner.kind == "Pk":
            return outer.kind == "Pk" and outer.k <= inner.k
    if isinstance(outer, Twirl) and isinstance(inner, Twirl):
        return includes(outer.child, inner.child)
    return False


# ---------------------------------------------------------------------------
# Verdicts and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemberConfig:
    """Settings of the membership and witness searches.

    ``tol`` is the decision tolerance relative to the largest Choi entry:
    a verdict on a map with Choi matrix C compares with
    ``linalg.tolerance(C, tol) = tol * max|C_ij|``, so it does not change
    when the map is scaled by a positive number.  ``samples`` bounds the
    sampled generators, ``seed`` fixes every random start, and ``max_iters``
    is the upper bound on the sweeps of both iterative searches: the
    Schmidt-rank-k minimization (it stops earlier once every restart has
    settled, or once its best restart has settled below minus the
    tolerance) and the alternating projections that decide join(CP, t(CP))
    (they stop at the first certificate or witness).
    """

    tol: float = 1e-9
    samples: int = 500
    seed: int = 0
    max_iters: int = 60

    def as_dict(self) -> dict:
        return {"tol": self.tol, "samples": self.samples, "seed": self.seed,
                "max_iters": self.max_iters}


MEMBER = "member"
NOT_MEMBER = "not_member"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    status: str
    certificate: Optional[dict] = None
    witness: Optional[dict] = None
    diagnostics: dict = field(default_factory=dict)


def pair(psi: SuperOperator, phi: SuperOperator, tol: float = 1e-9) -> float:
    """Real pairing <psi, phi> of two Hermiticity-preserving maps of equal dims.

    The checks are those of :func:`_pair_stack`, with ``tol`` relative to the
    largest Choi entries, so they pass or fail alike at every scale of psi
    and phi.  Raises DimensionError when the dims differ, ValueError when an
    argument is not Hermiticity-preserving and ArithmeticError on an
    imaginary residue.
    """
    if psi.dims != phi.dims:
        raise DimensionError(f"pair needs equal dims, got {psi.dims} and {phi.dims}")
    return float(_pair_stack(psi.choi[None], phi, tol)[0])


# ---------------------------------------------------------------------------
# Family-pattern recognition (Choi = a*I - b |w><w|)
# ---------------------------------------------------------------------------

def _spectral_family_pattern(phi: SuperOperator, vals, vecs, eps: float):
    """Detect Choi = a*I - b*|w><w| with b > 0 from the Choi eigenpairs
    ``(vals, vecs)``, within the tolerance ``eps`` of the Choi matrix;
    returns (a, b, w) or None."""
    d = phi.m * phi.n
    if d < 2:
        return None
    a = float(np.median(vals[1:]))
    if np.max(np.abs(vals[1:] - a)) > eps:
        return None
    b = a - float(vals[0])
    if b <= eps:
        return None
    w = vecs[:, 0]
    residual = np.max(np.abs(phi.choi - (a * np.eye(d) - b * np.outer(w, w.conj()))))
    if residual > eps:
        return None
    return a, b, w


def _family_kfan(w, m: int, n: int, k: int) -> float:
    """Sum of the k largest eigenvalues of W W^dagger for W = unvec(w)."""
    sv = linalg.singular_values(unvec(w, m, n))
    return float(np.sum(sv[:k] ** 2))


# ---------------------------------------------------------------------------
# Generator sampling
# ---------------------------------------------------------------------------

def _sample_stack(expr: ConeExpr, m: int, n: int, count: int, rng):
    """Sample ``count`` maps provably inside the cone as one Choi stack.

    Returns ``(chois, certs)``: a ``(count, m*n, m*n)`` array and one
    provenance certificate per map, which :func:`recheck` verifies.  Base
    cones draw all their random operators at once, a twirl transposes the
    whole stack and a join mixes two stacks with Dirichlet weights.  A meet
    samples each side and keeps the maps :func:`_admit` certifies in the
    other side (or all of them when the other side includes it), then tops
    up with rank-one conjugations, which lie in every mcs-cone.
    """
    kmax = min(m, n)
    if isinstance(expr, Base) and expr.kind == "SPk":
        # V = X Y with X n x k and Y k x m has rank <= k
        g = linalg.random_complex((count, n + m, expr.k), rng)
        ops = g[:, :n] @ np.swapaxes(g[:, n:], 1, 2)
        return (superop.kraus_stack(ops[:, None]),
                [{"type": "kraus", "ops": [v], "rank_bound": expr.k} for v in ops])
    if isinstance(expr, Base) and expr.kind == "CP":
        ranks = rng.integers(1, 4, size=count)
        ops = linalg.random_complex((count, 3, n, m), rng)
        ops[np.arange(3) >= ranks[:, None]] = 0
        return (superop.kraus_stack(ops),
                [{"type": "kraus", "ops": list(v[:r]), "rank_bound": kmax}
                 for v, r in zip(ops, ranks)])
    if isinstance(expr, Base) and expr.kind == "Pk":
        # cycle through boundary members of the Tr - lambda Ad_W family
        # (k-positive by the analytic threshold), two-operator Kraus maps and,
        # at k = 1 only, completely co-positive maps
        k = expr.k
        mode = np.arange(count) % (3 if k == 1 else 2)
        ops = linalg.random_complex((count, 2, n, m), rng)
        chois = superop.kraus_stack(ops)
        w = superop.vec_stack(ops[:, 0])
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        # k-fan of unvec(w), as _family_kfan computes it
        sv = np.linalg.svd(np.swapaxes(w.reshape(count, m, n), 1, 2), compute_uv=False)
        lam = (1.0 - 1e-12) / np.sum(sv[:, :k] ** 2, axis=1)
        fam = mode == 0
        chois[fam] = np.eye(m * n) - lam[fam, None, None] * (
            w[fam, :, None] * w[fam, None, :].conj())
        co = mode == 2
        chois[co] = superop.twirl_stack(chois[co], m, n)

        def cert(i):
            if mode[i] == 0:
                return {"type": "family", "a": 1.0, "b": float(lam[i]), "w": w[i], "k": k}
            if mode[i] == 1:
                return {"type": "kraus", "ops": list(ops[i]), "rank_bound": kmax}
            return {"type": "twirled",
                    "inner": {"type": "kraus", "ops": list(ops[i]), "rank_bound": kmax}}

        return chois, [cert(i) for i in range(count)]
    if isinstance(expr, Twirl):
        chois, certs = _sample_stack(expr.child, m, n, count, rng)
        return superop.twirl_stack(chois, m, n), [{"type": "twirled", "inner": c} for c in certs]
    if isinstance(expr, Join):
        left, left_certs = _sample_stack(expr.left, m, n, count, rng)
        right, right_certs = _sample_stack(expr.right, m, n, count, rng)
        weights = rng.dirichlet((1.0, 1.0), size=count)
        left *= weights[:, 0, None, None]
        left += weights[:, 1, None, None] * right
        return left, [{"type": "hull", "weights": (float(w1), float(w2)), "parts": [c1, c2]}
                      for (w1, w2), c1, c2 in zip(weights, left_certs, right_certs)]
    if isinstance(expr, Meet):
        cfg = MemberConfig(samples=50, seed=int(rng.integers(2**31)))
        kept, certs = [], []
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if len(certs) < count:
                chois, side_certs = _admit(side, other, m, n, count - len(certs), rng, cfg)
                kept.append(chois)
                certs += side_certs
        if len(certs) < count:
            # rank-one conjugations lie in every mcs-cone
            chois, rank_one = _sample_stack(Base("SPk", 1), m, n, count - len(certs), rng)
            kept.append(chois)
            certs += rank_one
        return np.concatenate(kept), certs
    raise TypeError(f"cannot sample from unnormalized expression: {expr!r}")


def _admit(side: ConeExpr, other: ConeExpr, m: int, n: int, count: int, rng,
           cfg: MemberConfig):
    """``count`` samples of ``side`` cut down to those that lie in ``other``
    too: a Choi stack with their ``meet`` certificates.

    Samples need no check when ``other`` includes ``side``, and keep their
    own certificates.  CP and t(CP) certify the whole stack with one
    Hermiticity check and one batched spectrum, the stacked form of
    :func:`member`'s CP verdict; any other cone calls :func:`member` per
    sample.
    """
    chois, certs = _sample_stack(side, m, n, count, rng)
    if includes(other, side):
        return chois, certs
    twirled = isinstance(other, Twirl)
    if (other.child if twirled else other) != Base("CP"):
        others = []
        for c in chois:
            verdict = member(SuperOperator(m, n, c), other, cfg)
            others.append(verdict.certificate if verdict.status == MEMBER else None)
        kept = chois[[o is not None for o in others]]
    else:
        if not linalg.is_hermitian(chois, cfg.tol):
            raise ValueError("membership is defined for Hermiticity-preserving maps only")
        if twirled:
            # phi is in t(CP) iff phi . t is CP.  The twirl only permutes
            # entries, so twirling the kept maps back restores them exactly,
            # and the untwirled stack need not stay alive meanwhile.
            chois = superop.twirl_stack(chois, m, n)
        floors = linalg.hermitian_part_eigvals(chois)[:, 0]
        others = [_psd_floor(val, eps)
                  for val, eps in zip(floors, linalg.tolerance(chois, cfg.tol))]
        kept = chois[[o is not None for o in others]]
        if twirled:
            others = [None if o is None else {"type": "twirled", "inner": o} for o in others]
            kept = superop.twirl_stack(kept, m, n)
    return kept, [{"type": "meet", "part": c, "other_cert": o}
                  for c, o in zip(certs, others) if o is not None]


def _sample_with_certs(expr: ConeExpr, m: int, n: int, count: int, rng):
    """:func:`_sample_stack` as a list of ``(map, certificate)`` pairs."""
    chois, certs = _sample_stack(expr, m, n, count, np.random.default_rng(rng))
    return [(SuperOperator(m, n, c), cert) for c, cert in zip(chois, certs)]


def sample_generators(expr: ConeExpr, m: int, n: int, count: int, seed) -> list[SuperOperator]:
    """Sample ``count`` maps that verifiably lie in the (normalized) cone.

    All maps come from one :func:`_sample_stack` call, so a seed fixes the
    whole list; each map is a read-only view into the shared Choi stack.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [g for g, _ in _sample_with_certs(expr, m, n, count, seed)]


def _pair_tolerance(chois, phi: SuperOperator, tol: float):
    """tol * max|C_psi| * max|C_phi| for psi a Choi matrix or each map of a
    stack: the tolerance of phi for psi scaled to max|C_psi| = 1.  A pairing
    <psi, phi> is negative below minus this, and its imaginary residue may
    not exceed it."""
    return linalg.tolerance(chois, tol) * linalg.tolerance(phi.choi, 1.0)


def _pair_stack(chois, phi: SuperOperator, tol: float) -> np.ndarray:
    """:func:`pair` of every map of a Choi stack with phi, in one contraction.

    Both arguments must be Hermiticity-preserving within ``linalg.tolerance``,
    and no pairing may have an imaginary part above :func:`_pair_tolerance`.
    """
    if not linalg.is_hermitian(chois, tol):
        raise ValueError(f"first argument is not Hermiticity-preserving within {tol} * max|C|")
    if not phi.is_hermiticity_preserving(tol):
        raise ValueError(f"second argument is not Hermiticity-preserving within {tol} * max|C|")
    vals = np.einsum("zij,ij->z", chois, phi.choi.conj())
    residue = np.abs(vals.imag) > _pair_tolerance(chois, phi, tol)
    if residue.any():
        raise ArithmeticError(f"pairing has imaginary residue {vals.imag[residue][0]}")
    return vals.real


# ---------------------------------------------------------------------------
# Refutation searches
# ---------------------------------------------------------------------------

def _conjugation_witness(phi: SuperOperator, k: int, cfg: MemberConfig, v=None):
    """A generator Ad_V of SPk(k), the dual of Pk(k), that refutes phi.

    Returns ``(found, value, sweeps)``: found is ``(Ad_V, <Ad_V, phi>,
    certificate)`` when the pairing ``value`` is below -eps, eps the
    ``linalg.tolerance`` of the Choi matrix, and None otherwise.  V is the
    given n x m operator, of unit norm; without one it is the lowest Choi
    eigenvector at k = min(m, n), and otherwise the minimizer of the Choi
    quadratic form over unit vectors of Schmidt rank <= k, found in
    ``sweeps`` sweeps (0 when no search ran).  The minimizer stops once its
    best restart has settled below -eps, the only comparison made here.
    """
    m, n = phi.dims
    eps = linalg.tolerance(phi.choi, cfg.tol)
    sweeps = 0
    if v is None and k == min(m, n):
        v = unvec(linalg.hermitian_part_eigen(phi.choi)[1][:, 0], m, n)
    elif v is None:
        _, x, y, sweeps = linalg.schmidt_rank_min(phi.choi, m, n, k, linalg.SCHMIDT_RESTARTS,
                                                  cfg.max_iters, cfg.seed + 1,
                                                  stop_below=-eps)
        v = x @ y
    # <Ad_V, phi> is the Choi quadratic form at vec(V)
    w = superop.vec(v)
    value = float(np.real(np.vdot(w, phi.choi @ w)))
    found = None
    if value < -eps:
        found = ad_map(v), value, {"type": "kraus", "ops": [v], "rank_bound": k}
    return found, value, sweeps


def _dual_verdict(found, route: str, cfg: MemberConfig, **effort) -> Verdict:
    """The not-member verdict of a refuting dual element ``(psi, pairing, certificate)``."""
    psi, value, cert = found
    return Verdict(NOT_MEMBER,
                   witness={"type": "dual_element", "psi": psi, "psi_certificate": cert,
                            "pairing": value},
                   diagnostics={"route": route, **effort, "cfg": cfg.as_dict()})


# ---------------------------------------------------------------------------
# Decomposability: join(CP, t(CP)) by alternating projections
# ---------------------------------------------------------------------------

_CP = Base("CP")
# both orders of the decomposable maps, CP + t(CP)
_DECOMPOSABLE = (Join(_CP, Twirl(_CP)), Join(Twirl(_CP), _CP))


def _psd_kraus(vals, vecs, m: int, n: int) -> list:
    """Kraus operators sqrt(lambda) unvec(v) of the eigenpairs with lambda > 0;
    the zero map gets one zero operator, an empty decomposition."""
    ops = [unvec(np.sqrt(val) * vec, m, n) for val, vec in zip(vals, vecs.T) if val > 0]
    return ops or [np.zeros((n, m), dtype=np.complex128)]


def _decomposition(phi: SuperOperator, cfg: MemberConfig, twirl_first: bool = False):
    """Decide phi in join(CP, t(CP)): find A >= 0 whose remainder C - A, C the
    Choi matrix of phi, lies in t(CP), i.e. (C - A)^G >= 0 for the twirl G.

    Plain alternating projections between two convex sets: the PSD matrices,
    with eigenvalues clipped at the floor 1e-6 * max|C| so that the iterates
    move into the interior, and the matrices A with (C - A)^G >= 0, onto which
    A -> C - G(clip(G(C - A))) projects exactly because G only permutes
    entries.  A sweep takes one eigendecomposition on each side.  It starts
    on the second set (at A = C), and it has two exits:

    * feasible: A >= 0, so phi is the hull, weights (1, 1), of the CP map A
      and the twirled CP map (C - A)^G (in the order of the join when
      ``twirl_first``);
    * infeasible: the displacement y - z between the clipped iterate y and
      its projection z is G(X_-), X_- the negative part of X = G(C - y).  Its
      partial transpose X_- is PSD; lifted by delta * I, delta =
      max(0, -lambda_min), and scaled to unit trace it is a PPT rho, a
      generator of the dual cone meet(CP, t(CP)).  <rho, C> below
      -``linalg.tolerance(C)`` refutes phi.

    Returns ``(certificate, found, sweeps, closest)``: the hull certificate
    or the refuting ``(psi, pairing, certificate)`` (at most one of them, both
    None after ``cfg.max_iters`` sweeps), the sweeps taken, and the least
    pairing of phi with the dual elements rho tried.
    """
    m, n = phi.dims
    kmax = min(m, n)
    c = phi.choi
    eps = linalg.tolerance(c, cfg.tol)
    floor = 1e-6 * float(np.max(np.abs(c)))
    # (C - A)^G as clipped eigenpairs; zero at the start, A = C
    a, rest_vals, rest_vecs = c, np.zeros(m * n), np.eye(m * n)
    closest = np.inf
    for sweep in range(1, cfg.max_iters + 1):
        vals, vecs = linalg.hermitian_part_eigen(a)
        if vals[0] >= 0:
            parts = [{"type": "kraus", "ops": _psd_kraus(vals, vecs, m, n), "rank_bound": kmax},
                     {"type": "twirled",
                      "inner": {"type": "kraus", "ops": _psd_kraus(rest_vals, rest_vecs, m, n),
                                "rank_bound": kmax}}]
            cert = {"type": "hull", "weights": (1.0, 1.0),
                    "parts": parts[::-1] if twirl_first else parts}
            return cert, None, sweep, closest
        y = (vecs * np.maximum(vals, floor)) @ vecs.conj().T
        x_vals, x_vecs = linalg.hermitian_part_eigen(superop.twirl_stack(c - y, m, n))
        neg = np.maximum(-x_vals, 0.0)
        if neg[0] > 0:
            rho = superop.twirl_stack((x_vecs * neg) @ x_vecs.conj().T, m, n)
            delta = max(0.0, -float(linalg.hermitian_part_eigvals(rho)[0]))
            scale = neg.sum() + delta * m * n
            rho = (rho + delta * np.eye(m * n)) / scale
            # <rho, C> as pair(psi, phi) computes it
            value = float(np.real(np.vdot(c, rho)))
            closest = min(closest, value)
            if value < -eps:
                psi = SuperOperator(m, n, rho)
                cert = {"type": "meet",
                        "part": {"type": "kraus",
                                 "ops": _psd_kraus(*linalg.hermitian_part_eigen(rho), m, n),
                                 "rank_bound": kmax},
                        "other_cert": {"type": "twirled",
                                       "inner": {"type": "psd_floor",
                                                 "min_eigenvalue": (neg[-1] + delta) / scale}}}
                return None, (psi, pair(psi, phi, cfg.tol), cert), sweep, closest
        rest_vals, rest_vecs = np.maximum(x_vals, 0.0), x_vecs
        a = c - superop.twirl_stack((x_vecs * rest_vals) @ x_vecs.conj().T, m, n)
    return None, None, cfg.max_iters, closest


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _psd_floor(val, eps: float) -> Optional[dict]:
    """The ``psd_floor`` certificate of a least Choi eigenvalue ``val`` no
    lower than minus the tolerance ``eps`` of the Choi matrix, else None."""
    return {"type": "psd_floor", "min_eigenvalue": float(val)} if val >= -eps else None


def _kraus_from_eigen(phi: SuperOperator, k: int, vals, vecs, eps: float):
    """The Kraus operators sqrt(lambda) unvec(v) of the Choi eigenpairs
    ``(vals, vecs)``, eigenvalues within the tolerance ``eps`` of the Choi
    matrix taken as zero, when all their ranks are <= k, else None."""
    if vals[0] < -eps:
        return None
    ops = _psd_kraus(np.where(vals > eps, vals, 0.0), vecs, phi.m, phi.n)
    if any(linalg.numerical_rank(op) > k for op in ops):
        return None
    return ops


def member(phi: SuperOperator, expr: ConeExpr, cfg: MemberConfig = MemberConfig()) -> Verdict:
    """Decide membership of a Hermiticity-preserving map in a normalized cone.

    Every comparison is made against eps = ``linalg.tolerance(C, cfg.tol)``,
    C the Choi matrix of phi, so the verdict is the same for every positive
    multiple of phi: a value "below -eps" is an eigenvalue, a unit-vector
    quadratic form or a pairing with a normalized dual element that lies
    below -eps.  Every witness is a ``dual_element``: a map ``psi`` with a
    ``psi_certificate`` and a ``pairing`` with phi below -eps (or, from SPk
    dual sampling, a ``composition_eigenvalue`` and pairing None).  A Pk(k)
    refutation is a conjugation Ad_V, ||V|| = 1, with rank V <= k, the same
    one :func:`witness_search` returns; CP and SPk(k) are refuted (route
    ``not_cp``) by Ad_V for V = unvec of the lowest Choi eigenvector.  A
    twirl returns its child's witness as psi . t, a ``twirled`` certificate
    and the same pairing; a meet returns its child's witness unchanged, and
    a join member that one child certifies carries that child's certificate.

    join(CP, t(CP)), in either order, is decided by :func:`_decomposition`
    once neither child certifies phi: a ``hull`` certificate of a CP and a
    twirled CP part (route ``join``), or a ``dual_element`` witness, a PPT
    map of unit trace whose pairing with phi is below -eps (route
    ``join_dual_witness``).  Any other join is refuted by sampled generators
    of its dual cone.

    The verdict's ``diagnostics`` carry the settings (``cfg``) and, on most
    routes, the ``route`` that decided; a join member certified by a child
    names its ``side``.  Every join(CP, t(CP)) verdict
    reports its ``sweeps`` (0 when a child decided); other join verdicts
    that sampled report ``dual_samples``.  The ``vector_search`` and
    ``projection_search`` refutations, and the Pk ``unknown`` exit, report
    the ``sweeps`` of the Schmidt-rank-k search.  Three ``unknown`` verdicts
    also report the closest approach their dual search found:

    * ``join``: ``closest_pairing``, the least pairing of phi with the dual
      elements tried, the PPT maps of the sweeps for join(CP, t(CP)) and
      the sampled generators otherwise (a witness needs one below -eps,
      scaled by max|C_psi| for a sampled psi);
    * ``Pk``: ``closest_value``, the least Choi quadratic form the
      Schmidt-rank-k search reached, the pairing of phi with its Ad_V (a
      witness needs one below -eps);
    * ``SPk``: ``closest_composition_eigenvalue``, the least Choi eigenvalue
      of psi^dagger . phi over the ``dual_samples`` sampled generators psi of
      Pk (a witness needs one below the tolerance of that composition).
    """
    if cfg.samples < 1:
        raise ValueError("cfg.samples must be >= 1")
    if not phi.is_hermiticity_preserving(cfg.tol):
        raise ValueError("membership is defined for Hermiticity-preserving maps only")
    m, n = phi.dims
    kmax = min(m, n)
    # the twirls permute Choi entries, so every route has this tolerance
    eps = linalg.tolerance(phi.choi, cfg.tol)

    if isinstance(expr, Base):
        # one Choi spectrum serves every base-cone route
        vals, vecs = linalg.hermitian_part_eigen(phi.choi)

    if isinstance(expr, Base) and expr.kind in ("CP", "SPk"):
        # SPk(k) lies in CP, and Ad_V for V = unvec of the lowest Choi
        # eigenvector refutes both
        found = _conjugation_witness(phi, kmax, cfg, unvec(vecs[:, 0], m, n))[0]
        if found is not None:
            return _dual_verdict(found, "not_cp", cfg)

    if isinstance(expr, Base) and expr.kind == "CP":
        floor = float(vals[0])
        return Verdict(MEMBER, certificate={"type": "psd_floor", "min_eigenvalue": floor},
                       diagnostics={"min_eigenvalue": floor, "cfg": cfg.as_dict()})

    if isinstance(expr, Base) and expr.kind == "Pk":
        k = expr.k
        cert = _psd_floor(vals[0], eps)
        if cert is not None:
            return Verdict(MEMBER, certificate=cert,
                           diagnostics={"min_eigenvalue": cert["min_eigenvalue"],
                                        "cfg": cfg.as_dict(), "route": "cp_subset"})
        pattern = _spectral_family_pattern(phi, vals, vecs, eps)
        if pattern is not None and pattern[0] > eps:
            a, b, w = pattern
            fan = _family_kfan(w, m, n, k)
            lhs = (b / a) * fan
            # the pairing a - b * fan_k(w) is the one the refuters compare
            # with -eps, so an accepted map has no refutation; the ratio is
            # dimensionless and compares with tol itself
            if lhs <= 1.0 + cfg.tol and a - b * fan >= -eps:
                return Verdict(MEMBER,
                               certificate={"type": "family", "a": a, "b": b, "w": w,
                                            "k": k, "threshold_lhs": lhs},
                               diagnostics={"route": "family_pattern",
                                            "cfg": cfg.as_dict()})
            # the top-k singular truncation of unvec(w) is the unit vector of
            # Schmidt rank <= k with the least quadratic form, a - b * fan_k(w)
            u, s, vh = np.linalg.svd(unvec(w, m, n))
            v = (u[:, :k] * s[:k]) @ vh[:k]
            found = _conjugation_witness(phi, k, cfg, v / np.linalg.norm(v))[0]
            if found is not None:
                return _dual_verdict(found, "family_projection", cfg)
        if k == 1:
            # completely copositive maps are positive: Phi . t in CP certifies
            co = _psd_floor(linalg.hermitian_part_eigvals(phi.right_transpose().choi)[0], eps)
            if co is not None:
                return Verdict(MEMBER, certificate={"type": "twirled", "inner": co},
                               diagnostics={"route": "co_cp_subset",
                                            "cfg": cfg.as_dict()})
        found, closest, sweeps = _conjugation_witness(phi, k, cfg)
        if found is not None:
            return _dual_verdict(found, "vector_search" if k == 1 else "projection_search",
                                 cfg, sweeps=sweeps)
        return Verdict(UNKNOWN,
                       diagnostics={"note": "refuter found no violation; "
                                            "k-positivity certification is incomplete",
                                    "sweeps": sweeps, "closest_value": closest,
                                    "cfg": cfg.as_dict()})

    if isinstance(expr, Base) and expr.kind == "SPk":
        k = expr.k
        ops = _kraus_from_eigen(phi, k, vals, vecs, eps)
        if ops is not None:
            return Verdict(MEMBER,
                           certificate={"type": "kraus", "ops": ops, "rank_bound": k},
                           diagnostics={"route": "eigendecomposition",
                                        "cfg": cfg.as_dict()})
        # phi is in SPk iff psi^dagger . phi is CP for every psi in Pk
        chois, certs = _sample_stack(Base("Pk", k), m, n, min(cfg.samples, 100),
                                     np.random.default_rng(cfg.seed + 3))
        comps = superop.adjoint_compositions(chois, phi)
        floors = linalg.hermitian_part_eigvals(comps)[:, 0]
        hits = np.flatnonzero(floors < -linalg.tolerance(comps, cfg.tol))
        if hits.size:
            first = hits[0]
            return Verdict(NOT_MEMBER,
                           witness={"type": "dual_element",
                                    "psi": SuperOperator(m, n, chois[first]),
                                    "psi_certificate": certs[first],
                                    "composition_eigenvalue": float(floors[first]),
                                    "pairing": None},
                           diagnostics={"route": "dual_sampling",
                                        "cfg": cfg.as_dict()})
        return Verdict(UNKNOWN,
                       diagnostics={"note": "no rank-bounded Kraus decomposition found "
                                            "and no sampled dual refutation",
                                    "dual_samples": len(certs),
                                    "closest_composition_eigenvalue": float(floors.min()),
                                    "cfg": cfg.as_dict()})

    if isinstance(expr, Twirl):
        inner = member(phi.right_transpose(), expr.child, cfg)
        witness = inner.witness
        if witness is not None:
            # <psi . t, phi> = <psi, phi . t>: the twirl permutes both Choi
            # matrices alike, so the pairing stands
            witness = dict(witness, psi=witness["psi"].right_transpose(),
                           psi_certificate={"type": "twirled",
                                            "inner": witness["psi_certificate"]})
        return Verdict(inner.status,
                       certificate=None if inner.certificate is None else
                       {"type": "twirled", "inner": inner.certificate},
                       witness=witness,
                       diagnostics={"route": "twirl", "child": format_cone(expr.child),
                                    "inner": inner.diagnostics})

    if isinstance(expr, Meet):
        left = member(phi, expr.left, cfg)
        right = member(phi, expr.right, cfg)
        diag = {"route": "meet", "left": left.status, "right": right.status,
                "cfg": cfg.as_dict()}
        for v in (left, right):
            if v.status == NOT_MEMBER:
                return Verdict(NOT_MEMBER, witness=v.witness, diagnostics=diag)
        if left.status == MEMBER and right.status == MEMBER:
            return Verdict(MEMBER,
                           certificate={"type": "both", "left": left.certificate,
                                        "right": right.certificate},
                           diagnostics=diag)
        return Verdict(UNKNOWN, diagnostics=diag)

    if isinstance(expr, Join):
        effort = {"sweeps": 0} if expr in _DECOMPOSABLE else {}
        left = member(phi, expr.left, cfg)
        if left.status == MEMBER:
            return Verdict(MEMBER, certificate=left.certificate,
                           diagnostics={"route": "join", "side": "left", **effort,
                                        "cfg": cfg.as_dict()})
        right = member(phi, expr.right, cfg)
        if right.status == MEMBER:
            return Verdict(MEMBER, certificate=right.certificate,
                           diagnostics={"route": "join", "side": "right", **effort,
                                        "cfg": cfg.as_dict()})
        if expr in _DECOMPOSABLE:
            cert, found, sweeps, closest = _decomposition(phi, cfg, expr.left != _CP)
            effort = {"sweeps": sweeps}
            if cert is not None:
                return Verdict(MEMBER, certificate=cert,
                               diagnostics={"route": "join", **effort, "cfg": cfg.as_dict()})
        else:
            found, closest = _sampled_witness(phi, dual_expr(expr), cfg)
            effort = {"dual_samples": cfg.samples}
        if found is not None:
            return _dual_verdict(found, "join_dual_witness", cfg, **effort)
        return Verdict(UNKNOWN,
                       diagnostics={"route": "join",
                                    "note": "neither child certified and no dual witness",
                                    "left": left.status, "right": right.status,
                                    "closest_pairing": closest, **effort,
                                    "cfg": cfg.as_dict()})

    raise TypeError(f"membership needs a normalized cone expression, got {expr!r}")


# ---------------------------------------------------------------------------
# Witness search over the dual cone
# ---------------------------------------------------------------------------

def witness_search(phi: SuperOperator, expr: ConeExpr, cfg: MemberConfig = MemberConfig()):
    """Search the dual cone for Psi with pair(Psi, phi) below minus the
    tolerance :func:`member` refutes with.

    Returns ``(psi, value, certificate)`` with the certificate proving
    membership of psi in dual(expr), or None when no witness is found.  A
    dual of CP or SPk(k) is searched for a conjugation Ad_V with rank V <= k,
    the same one :func:`member` refutes CP or Pk(k) with.  The dual
    meet(CP, t(CP)) of join(CP, t(CP)) is searched by the alternating
    projections of :func:`_decomposition`, which return the PPT element
    :func:`member` refutes with (None when they certify phi or run out of
    sweeps).  Any other dual is searched over ``cfg.samples`` sampled
    generators, built as one Choi stack and paired with phi in one
    contraction, and the first generator of least pairing is returned.
    """
    if not phi.is_hermiticity_preserving(cfg.tol):
        raise ValueError("witness search is defined for Hermiticity-preserving maps")
    d = dual_expr(expr)
    if isinstance(d, Base) and d.kind in ("CP", "SPk"):
        return _conjugation_witness(phi, min(phi.dims) if d.kind == "CP" else d.k, cfg)[0]
    if expr in _DECOMPOSABLE:
        return _decomposition(phi, cfg)[1]
    return _sampled_witness(phi, d, cfg)[0]


def _sampled_witness(phi: SuperOperator, d: ConeExpr, cfg: MemberConfig):
    """Pair ``cfg.samples`` sampled generators of the cone d with phi.

    Returns ``(found, closest)``: found is ``(psi, value, certificate)`` for
    the first generator of least pairing when that pairing is below minus
    its :func:`_pair_tolerance` and None otherwise; closest is the least
    pairing.
    """
    m, n = phi.dims
    chois, certs = _sample_stack(d, m, n, cfg.samples, np.random.default_rng(cfg.seed))
    vals = _pair_stack(chois, phi, cfg.tol)
    best = int(np.argmin(vals))
    closest = float(vals[best])
    found = None
    if closest < -_pair_tolerance(chois[best], phi, cfg.tol):
        found = (SuperOperator(m, n, chois[best]), closest, certs[best])
    return found, closest


# ---------------------------------------------------------------------------
# Mapping-cone-symmetry stability probe
# ---------------------------------------------------------------------------

def mcs_stability_probe(expr: ConeExpr, m: int, n: int,
                        cfg: MemberConfig = MemberConfig(samples=100)) -> dict:
    """Probe closure of the cone (and dual nonnegativity) under CP conjugation."""
    rng = np.random.default_rng(cfg.seed)
    single_kraus = isinstance(expr, Base) and expr.kind == "SPk"
    kraus_count = 1 if single_kraus else 2
    violations = []
    statuses = {MEMBER: 0, NOT_MEMBER: 0, UNKNOWN: 0}
    for i, g in enumerate(sample_generators(expr, m, n, cfg.samples, rng)):
        ups = superop.random_cp_map(n, n, rng, kraus_count)
        omg = superop.random_cp_map(m, m, rng, kraus_count)
        composite = ups.compose(g).compose(omg)
        verdict = member(composite, expr, MemberConfig(tol=cfg.tol, samples=50,
                                                      seed=cfg.seed + i,
                                                      max_iters=cfg.max_iters))
        statuses[verdict.status] += 1
        if verdict.status == NOT_MEMBER:
            violations.append(i)
    dual_min, dual_ok = np.inf, True
    dual = dual_expr(expr)
    dual_gens = sample_generators(dual, m, n, min(cfg.samples, 50), cfg.seed + 1)
    cone_chois, _ = _sample_stack(expr, m, n, min(cfg.samples, 10),
                                  np.random.default_rng(cfg.seed + 2))
    for psi in dual_gens:
        ups = superop.random_cp_map(n, n, rng, kraus_count)
        omg = superop.random_cp_map(m, m, rng, kraus_count)
        conj = ups.compose(psi).compose(omg)
        vals = _pair_stack(cone_chois, conj, cfg.tol)
        dual_min = min(dual_min, float(vals.min()))
        dual_ok = dual_ok and bool(np.all(vals >= -_pair_tolerance(cone_chois, conj, cfg.tol)))
    return {
        "cone": format_cone(expr),
        "m": m,
        "n": n,
        "samples": cfg.samples,
        "member_statuses": statuses,
        "member_violations": violations,
        "dual_min_pairing": float(dual_min),
        "pass": not violations and dual_ok,
        "cfg": cfg.as_dict(),
    }


# ---------------------------------------------------------------------------
# Independent re-verification of verdicts
# ---------------------------------------------------------------------------

def _rebuild(cert: dict, m: int, n: int) -> SuperOperator:
    """The m -> n map a generator certificate of :func:`_sample_with_certs` describes."""
    kind = cert["type"]
    if kind == "kraus":
        return from_kraus(cert["ops"])
    if kind == "family":
        w = cert["w"]
        return SuperOperator(m, n, cert["a"] * np.eye(m * n) - cert["b"] * np.outer(w, w.conj()))
    if kind == "twirled":
        return _rebuild(cert["inner"], m, n).right_transpose()
    if kind == "hull":
        choi = sum(w * _rebuild(part, m, n).choi
                   for w, part in zip(cert["weights"], cert["parts"]))
        return SuperOperator(m, n, choi)
    if kind == "meet":
        return _rebuild(cert["part"], m, n)
    raise ValueError(f"certificate type {kind!r} does not describe a generator")


def _recheck_certificate(phi: SuperOperator, cert: dict, tol: float) -> bool:
    eps = linalg.tolerance(phi.choi, tol)
    kind = cert["type"]
    if kind == "psd_floor":
        vals, _ = linalg.hermitian_part_eigen(phi.choi)
        return bool(vals[0] >= -eps)
    if kind == "kraus":
        if not phi.isclose(from_kraus(cert["ops"]), eps):
            return False
        if cert["rank_bound"] >= min(phi.dims):
            return True  # no n x m operator has a higher rank
        return all(linalg.numerical_rank(op) <= cert["rank_bound"] for op in cert["ops"])
    if kind == "family":
        d = phi.m * phi.n
        a, b, w = cert["a"], cert["b"], cert["w"]
        rebuilt = a * np.eye(d) - b * np.outer(w, w.conj())
        if np.max(np.abs(phi.choi - rebuilt)) > eps or a <= 0 or "k" not in cert:
            return False
        return (b / a) * _family_kfan(w, phi.m, phi.n, cert["k"]) <= 1.0 + tol
    if kind == "twirled":
        return _recheck_certificate(phi.right_transpose(), cert["inner"], tol)
    if kind == "both":
        return (_recheck_certificate(phi, cert["left"], tol)
                and _recheck_certificate(phi, cert["right"], tol))
    if kind == "hull":
        m, n = phi.dims
        if min(cert["weights"]) < 0 or not phi.isclose(_rebuild(cert, m, n), eps):
            return False
        return all(_recheck_certificate(_rebuild(part, m, n), part, tol)
                   for part in cert["parts"])
    if kind == "meet":
        other = cert.get("other_cert")
        return (other is not None and _recheck_certificate(phi, cert["part"], tol)
                and _recheck_certificate(phi, other, tol))
    raise ValueError(f"unknown certificate type {kind!r}")


def _recheck_witness(phi: SuperOperator, wit: dict, tol: float) -> bool:
    # a witness value must lie below half the tolerance member refuted with
    if wit["type"] != "dual_element":
        raise ValueError(f"unknown witness type {wit['type']!r}")
    psi = wit["psi"]
    if not _recheck_certificate(psi, wit["psi_certificate"], tol):
        return False
    if wit.get("pairing") is not None:
        return pair(psi, phi, tol) < -_pair_tolerance(psi.choi, phi, tol) / 2
    comp = psi.adjoint().compose(phi)
    vals, _ = linalg.hermitian_part_eigen(comp.choi)
    return bool(vals[0] < -linalg.tolerance(comp.choi, tol) / 2)


def recheck(phi: SuperOperator, verdict: Verdict, tol: float = 1e-9) -> bool:
    """Re-verify a verdict's certificate or witness from scratch.

    ``tol`` is relative, as in :func:`member`: an eigenvalue floor or a
    rebuilt certificate (``kraus``, ``family``, ``hull``) matches within
    ``linalg.tolerance`` of the Choi matrix, and a dimensionless ratio such
    as the ``family`` threshold within tol itself.  A witness value must lie
    below half the tolerance :func:`member` refutes with, the only slack
    left.  No check depends on the scale of phi.  The one witness kind is
    ``dual_element``: its ``psi_certificate`` is rechecked on psi, then its
    pairing with phi, or the least Choi eigenvalue of psi^dagger . phi when
    the pairing is None.  A ``meet`` certificate must carry ``other_cert`` and
    a ``family`` certificate ``k`` and a > 0.
    """
    if verdict.status == MEMBER:
        return verdict.certificate is not None and _recheck_certificate(
            phi, verdict.certificate, tol)
    if verdict.status == NOT_MEMBER:
        return verdict.witness is not None and _recheck_witness(phi, verdict.witness, tol)
    return True
