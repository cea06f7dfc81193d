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
its own certificate, whose pairing with the map is negative.  Every reported
pairing is a :func:`superop.map_inner_stack` value, the formula
:func:`pair` uses, so :func:`recheck` recomputes it bit for bit.  Complete
positivity is decided exactly via the Choi spectrum; k-positivity has a
sound refuter plus two closed-form certifiers: an exact one for maps whose
Choi matrix has the ``a*I - b|w><w|`` spectral pattern, and a split of the
Choi matrix into such a pattern on the boundary of Pk(k) plus a PSD
remainder (paper thm5: the family map is k-positive, and Pk(k) contains
CP).  The family's formulas (its Choi matrix, fan_k and the top-k
truncation) are :mod:`mapcones.family`'s; the routes that apply them are
here.  Every refutation of k-positivity or CP is a generator of the dual
cone SPk: a conjugation Ad_V with rank V <= k.  V is the top-k singular
truncation of unvec(w) for a family-pattern map, the lowest Choi
eigenvector at k = min(m, n), and otherwise a point of the minimization of
the Choi quadratic form over vectors of Schmidt rank <= k, by batched
alternating minimization, :func:`linalg.schmidt_rank_min`, whose stops
serve the only comparison made with its minimum, against minus the tolerance.
Every tolerance is ``linalg.tolerance``, relative to the largest Choi entry,
so a verdict is the same for every positive multiple of a map.
k-superpositivity is certified by explicit Kraus decompositions.
Decomposability, membership in join(CP, t(CP)), is a two-cone feasibility
problem decided by alternating PSD projections: a certificate splits the Choi
matrix into a CP and a co-CP part, and a refutation is a PPT element of the
dual cone meet(CP, t(CP)) that pairs negatively with the map.  SPk(k) and
every other join are refuted by the paper's composition test: phi lies in a
mapping cone iff psi^dagger . phi is CP for every psi in the dual cone, here
for sampled generators psi of it.  Every normalized cone lies between SP and
P, so a refutation of P refutes every join, and sampling never decides
membership: a meet is sampled from a side the other side includes, or from
the rank-one conjugations.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import family, linalg
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


# The cone language, written once for parse_cone and format_cone: the
# constructors with their node classes and arities, the bases without an
# index, and the bases that take one.
_CONSTRUCTORS = {"t": (Twirl, 1), "dual": (Dual, 1), "meet": (Meet, 2), "join": (Join, 2)}
_ALIASES = {"P": Base("Pk", 1), "SP": Base("SPk", 1), "CP": Base("CP")}
_INDEXED = ("Pk", "SPk")
_NAMES = {cls: name for name, (cls, _) in _CONSTRUCTORS.items()}
_ALIAS_NAMES = {base: name for name, base in _ALIASES.items()}
# a token is a run of letters, a run of digits or one of "(),"; the last
# alternative catches every other character outside whitespace
_TOKEN = re.compile(r"[A-Za-z]+|\d+|[(),]|(\S)")
# the most constructors (t, dual, meet, join) that may enclose a subexpression;
# the parser and the decisions recurse once per level
_MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1):
            raise ConeGrammarError(f"unexpected input at {text[m.start():]!r}")
        tokens.append(m.group())
    return tokens


def parse_cone(text: str) -> ConeExpr:
    """Parse the grammar ``P | SP | CP | Pk(k) | SPk(k) | t(e) | meet(e,e) | join(e,e) | dual(e)``,
    with at most ``_MAX_NESTING`` constructors around any subexpression."""
    tokens = iter(_tokenize(text))

    def expect(tok):
        got = next(tokens, "<end>")
        if got != tok:
            raise ConeGrammarError(f"expected {tok!r}, got {got!r}")

    def expr(depth: int = 0) -> ConeExpr:
        if depth > _MAX_NESTING:
            raise ConeGrammarError(f"cone expression nested deeper than {_MAX_NESTING}")
        tok = next(tokens, "<end>")
        if tok in _ALIASES:
            return _ALIASES[tok]
        if tok in _INDEXED:
            expect("(")
            arg = next(tokens, "<end>")
            try:
                k = int(arg) if arg.isdecimal() else 0
            except ValueError as exc:  # more digits than int() converts
                raise ConeGrammarError(f"{tok} index has too many digits") from exc
            if k < 1:
                raise ConeGrammarError(f"{tok} needs an integer index >= 1, got {arg!r}")
            expect(")")
            return Base(tok, k)
        if tok not in _CONSTRUCTORS:
            raise ConeGrammarError(f"unexpected {tok!r}")
        cls, arity = _CONSTRUCTORS[tok]
        args = []
        for i in range(arity):
            expect("," if i else "(")
            args.append(expr(depth + 1))
        expect(")")
        return cls(*args)

    result = expr()
    trailing = list(tokens)
    if trailing:
        raise ConeGrammarError(f"trailing input {trailing!r}")
    return result


def format_cone(expr: ConeExpr) -> str:
    if isinstance(expr, Base):
        return _ALIAS_NAMES.get(expr) or f"{expr.kind}({expr.k})"
    if type(expr) not in _NAMES:
        raise TypeError(f"not a cone expression: {expr!r}")
    return f"{_NAMES[type(expr)]}({','.join(map(format_cone, vars(expr).values()))})"


def dual_expr(expr: ConeExpr) -> ConeExpr:
    """Dual of a normalized cone expression; the result contains no Dual nodes."""
    if isinstance(expr, Base):
        return expr if expr.kind == "CP" else Base("SPk" if expr.kind == "Pk" else "Pk", expr.k)
    if isinstance(expr, Twirl):
        return _collapse_twirl(Twirl(dual_expr(expr.child)))
    if isinstance(expr, (Meet, Join)):
        swapped = Join if isinstance(expr, Meet) else Meet
        return swapped(dual_expr(expr.left), dual_expr(expr.right))
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
        if expr.kind != "CP" and not 1 <= expr.k <= kmax:
            raise ConeGrammarError(f"index k={expr.k} out of range 1..{kmax} for dims ({m},{n})")
        return Base("CP") if expr.k == kmax else expr
    if isinstance(expr, Twirl):
        return _collapse_twirl(Twirl(normalize(expr.child, m, n)))
    if isinstance(expr, (Meet, Join)):
        return type(expr)(normalize(expr.left, m, n), normalize(expr.right, m, n))
    if isinstance(expr, Dual):
        return dual_expr(normalize(expr.child, m, n))
    raise TypeError(f"not a cone expression: {expr!r}")


def _chain_place(base: Base) -> tuple[int, int]:
    """A base cone's place on the chain SPk(1) < SPk(2) < ... < CP < ... < Pk(2) < Pk(1)."""
    side = {"SPk": -1, "CP": 0, "Pk": 1}[base.kind]
    return side, -side * base.k


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
        return _chain_place(inner) <= _chain_place(outer)
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
    generators of the dual cone that the composition test samples (at most
    100 of them) and ``seed`` fixes every random start.  The budgets of the
    iterative searches are not settings: :func:`linalg.schmidt_rank_min`
    owns its restarts, sweeps and stops, and the alternating projections
    that decide join(CP, t(CP)) stop at the first certificate or witness or
    after ``linalg.MAX_SWEEPS`` sweeps.
    A config with ``samples`` below 1, a negative ``seed``, or a ``tol``
    that is negative or not finite raises ValueError.
    """

    tol: float = 1e-9
    samples: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    def as_dict(self) -> dict:
        return {"tol": self.tol, "samples": self.samples, "seed": self.seed}


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
# Generator sampling
# ---------------------------------------------------------------------------

def _sample_stack(expr: ConeExpr, m: int, n: int, count: int, rng):
    """Sample ``count`` maps provably inside the cone as one Choi stack,
    drawn from ``rng``, a seed or a Generator.

    Returns ``(chois, cert)``: a ``(count, m*n, m*n)`` array and a function
    ``cert(i)`` that builds the certificate of map i, which :func:`recheck`
    verifies.  Certificates are built on demand, since callers use at most
    one of them; every array they hold is read-only.  Base cones draw all
    their random operators at once, and a twirl transposes the whole stack
    and wraps its child's certificates.  A join mixes two stacks with
    Dirichlet weights into a ``hull`` whose parts carry their Choi matrices
    and certificates.  A meet samples a side that the other side includes
    (:func:`includes`), with that side's certificates, and otherwise
    rank-one conjugations, with ``kraus`` certificates of ``rank_bound`` 1.
    No sample is decided by :func:`member`.
    """
    rng = np.random.default_rng(rng)
    kmax = min(m, n)
    if isinstance(expr, Base) and expr.kind == "SPk":
        # V = X Y with X n x k and Y k x m has rank <= k
        g = linalg.random_complex((count, n + m, expr.k), rng)
        ops = _read_only(g[:, :n] @ np.swapaxes(g[:, n:], 1, 2))
        return (superop.kraus_stack(ops[:, None]),
                lambda i: {"type": "kraus", "ops": [ops[i]], "rank_bound": expr.k})
    if isinstance(expr, Base) and expr.kind == "CP":
        ranks = rng.integers(1, 4, size=count)
        ops = linalg.random_complex((count, 3, n, m), rng)
        ops[np.arange(3) >= ranks[:, None]] = 0
        _read_only(ops)
        return (superop.kraus_stack(ops),
                lambda i: {"type": "kraus", "ops": list(ops[i, :ranks[i]]), "rank_bound": kmax})
    if isinstance(expr, Base) and expr.kind == "Pk":
        # cycle through boundary members of the Tr - lambda Ad_W family
        # (k-positive by the analytic threshold), two-operator Kraus maps and,
        # at k = 1 only, completely co-positive maps; each row computes only
        # its own kind, the family rows fan_k of w = vec(W), W the first draw
        k = expr.k
        period = 3 if k == 1 else 2
        mode = np.arange(count) % period
        ops = _read_only(linalg.random_complex((count, 2, n, m), rng))
        w = superop.vec_stack(ops[mode == 0, 0])
        w = _read_only(w / np.linalg.norm(w, axis=1, keepdims=True))
        lam = _read_only((1.0 - 1e-12) / family.fan(w, m, n, k))
        chois = np.empty((count, m * n, m * n), dtype=np.complex128)
        chois[mode == 0] = family.choi(1.0, lam, w)
        chois[mode == 1] = superop.kraus_stack(ops[mode == 1])
        chois[mode == 2] = superop.twirl_stack(superop.kraus_stack(ops[mode == 2]), m, n)

        def cert(i):
            if mode[i] == 0:
                j = i // period
                return {"type": "family", "a": 1.0, "b": float(lam[j]), "w": w[j], "k": k}
            if mode[i] == 1:
                return {"type": "kraus", "ops": list(ops[i]), "rank_bound": kmax}
            return {"type": "twirled",
                    "inner": {"type": "kraus", "ops": list(ops[i]), "rank_bound": kmax}}

        return chois, cert
    if isinstance(expr, Twirl):
        chois, inner = _sample_stack(expr.child, m, n, count, rng)
        return superop.twirl_stack(chois, m, n), lambda i: {"type": "twirled", "inner": inner(i)}
    if isinstance(expr, Join):
        left, left_cert = _sample_stack(expr.left, m, n, count, rng)
        right, right_cert = _sample_stack(expr.right, m, n, count, rng)
        weights = rng.dirichlet((1.0, 1.0), size=count)
        mixed = weights[:, 0, None, None] * left + weights[:, 1, None, None] * right
        _read_only(left, right)
        return mixed, lambda i: {
            "type": "hull", "weights": (float(weights[i, 0]), float(weights[i, 1])),
            "parts": [{"choi": left[i], "certificate": left_cert(i)},
                      {"choi": right[i], "certificate": right_cert(i)}]}
    if isinstance(expr, Meet):
        # every mcs-cone lies between SP and P: a side that the other side
        # includes is the meet, and rank-one conjugations lie in every meet
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if includes(other, side):
                return _sample_stack(side, m, n, count, rng)
        return _sample_stack(Base("SPk", 1), m, n, count, rng)
    raise TypeError(f"cannot sample from unnormalized expression: {expr!r}")


def _read_only(*arrays):
    """Mark arrays read-only and return the first: the arrays a sampled
    certificate holds, which a cached sample shares with every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


def sample_generators(expr: ConeExpr, m: int, n: int, count: int, seed) -> list[SuperOperator]:
    """Sample ``count`` maps that verifiably lie in the (normalized) cone.

    All maps come from one :func:`_sample_stack` call, so a seed fixes the
    whole list; each map is a read-only view into the shared Choi stack.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [SuperOperator(m, n, c) for c in _sample_stack(expr, m, n, count, seed)[0]]


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
    vals = superop.map_inner_stack(chois, phi.choi)
    residue = np.abs(vals.imag) > _pair_tolerance(chois, phi, tol)
    if residue.any():
        raise ArithmeticError(f"pairing has imaginary residue {vals.imag[residue][0]}")
    return vals.real


# ---------------------------------------------------------------------------
# Refutation searches
# ---------------------------------------------------------------------------

def _conjugation_witness(phi: SuperOperator, k: int, cfg: MemberConfig, v=None):
    """A generator Ad_V of SPk(k), the dual of Pk(k), that refutes phi.

    Returns ``(witness, value, sweeps)``: witness is the ``dual_element``
    of Ad_V, with a ``kraus`` certificate, when the pairing ``value`` =
    <Ad_V, phi> is below -eps, eps the ``linalg.tolerance`` of the Choi
    matrix, and None otherwise.  V is the given n x m operator, of unit
    norm; without one it is the point that :func:`linalg.schmidt_rank_min`,
    with ``stop_below`` -eps, reached in ``sweeps`` sweeps (0 when no search
    ran).
    """
    m, n = phi.dims
    eps = linalg.tolerance(phi.choi, cfg.tol)
    sweeps = 0
    if v is None:
        _, x, y, sweeps = linalg.schmidt_rank_min(phi.choi, m, n, k, cfg.seed + 1,
                                                  stop_below=-eps)
        v = x @ y
    psi = ad_map(v)
    # the pairing <Ad_V, phi>, the Choi quadratic form at vec(V)
    value = float(superop.map_inner_stack(psi.choi, phi.choi).real)
    witness = None
    if value < -eps:
        witness = {"type": "dual_element", "psi": psi,
                   "psi_certificate": {"type": "kraus", "ops": [v], "rank_bound": k},
                   "pairing": value}
    return witness, value, sweeps


@functools.lru_cache(maxsize=16)
def _dual_generators(d: ConeExpr, m: int, n: int, count: int, seed):
    """The ``count`` generators of the normalized cone d that
    :func:`_sample_stack` draws at ``seed``, as ``(s_adj, cert, cp, co_cp)``:
    their :func:`superop.adjoint_realigned` stack S(psi)^dagger, the operand
    of the composition matmul, the certificate function of the draw, and two
    boolean masks over the rows, read from the certificates: ``cp`` marks
    the generators a ``kraus`` certificate proves CP and ``co_cp`` those a
    ``twirled`` one of a ``kraus`` proves co-CP.  The generators depend on
    these five arguments only, not on the map tested, so the last 16 draws
    are kept; every array here and in a certificate is read-only, and a
    caller that writes into one gets a ValueError."""
    chois, cert = _sample_stack(d, m, n, count, seed)
    certs = [cert(i) for i in range(count)]
    cp = np.array([c["type"] == "kraus" for c in certs])
    co_cp = np.array([c["type"] == "twirled" and c["inner"]["type"] == "kraus" for c in certs])
    return _read_only(superop.adjoint_realigned(chois, m, n), cp, co_cp), cert, cp, co_cp


def _dual_sampling(phi: SuperOperator, d: ConeExpr, cfg: MemberConfig):
    """The paper's composition test on sampled generators of the dual cone d.

    phi lies in a mapping cone iff psi^dagger . phi is CP for every psi in
    its dual cone.  This draws min(``cfg.samples``, 100) generators psi of d
    at seed ``cfg.seed + 3`` and takes the least Choi eigenvalue of each
    psi^dagger . phi that can refute phi, in one batched spectrum.  Two
    facts rule generators out.  CP is a mapping cone, closed under
    composition, so a CP psi never refutes a CP phi; and t . Ad_K . t =
    Ad_conj(K), so a co-CP psi never refutes a co-CP phi either.  phi counts
    as CP when :func:`member` certifies it in CP (the ``not_cp`` test), and
    as co-CP when it certifies phi . t there; each test runs only when the
    draw has rows it could rule out.  The test is at least as strong as the
    pairing: <psi, phi> = <Omega| C(psi^dagger . phi) |Omega> for Omega =
    sum_k e_k (x) e_k, so a negative pairing forces a negative eigenvalue.
    Returns ``(witness, samples, closest)``: witness is the ``dual_element``
    of the first psi whose eigenvalue lies below minus the
    ``linalg.tolerance`` of its composition, with that
    ``composition_eigenvalue`` and pairing None, or None; samples is the
    number of compositions tested and closest their least eigenvalue, None
    when no generator of the draw can refute phi.

    The draw comes from :func:`_dual_generators`, a cache of the last 16
    draws keyed on (d, m, n, count, seed), which holds each one as the
    read-only realigned adjoint stack S(psi)^dagger with the rows its
    certificates prove CP or co-CP.  The compositions are one
    :func:`superop.compose_realigned` matmul, bit for bit
    ``compose_stack(adjoint_stack(...))``, and psi is rebuilt exactly from
    its row.  Decisions at one config in one process share a draw; a single
    ``mapcones member`` or ``witness`` process draws each dual cone about
    once and gets no cache hit.
    """
    m, n = phi.dims
    s_adj, cert, cp, co_cp = _dual_generators(d, m, n, min(cfg.samples, 100), cfg.seed + 3)
    skip = np.zeros(len(s_adj), dtype=bool)
    if cp.any() and member(phi, _CP, cfg).status == MEMBER:
        skip |= cp
    if co_cp.any() and member(phi.right_transpose(), _CP, cfg).status == MEMBER:
        skip |= co_cp
    rows = np.flatnonzero(~skip)
    if rows.size == 0:
        return None, 0, None
    comps = superop.compose_realigned(s_adj[rows] if skip.any() else s_adj,
                                      phi.choi, m, n, m)
    floors = linalg.hermitian_part_eigvals(comps)[:, 0]
    hits = np.flatnonzero(floors < -linalg.tolerance(comps, cfg.tol))
    witness = None
    if hits.size:
        first = rows[hits[0]]
        psi = SuperOperator(m, n, superop.choi_of_adjoint_realigned(s_adj[first], m, n))
        witness = {"type": "dual_element", "psi": psi, "psi_certificate": cert(first),
                   "composition_eigenvalue": float(floors[hits[0]]), "pairing": None}
    return witness, rows.size, float(floors.min())


def _verdict(status: str, route: str, cfg: MemberConfig, certificate=None, witness=None,
             **effort) -> Verdict:
    """A :func:`member` verdict; its diagnostics are ``route``, the effort
    keys in the order given, then ``cfg``."""
    return Verdict(status, certificate, witness,
                   diagnostics={"route": route, **effort, "cfg": cfg.as_dict()})


# ---------------------------------------------------------------------------
# Decomposability: join(CP, t(CP)) by alternating projections
# ---------------------------------------------------------------------------

_CP = Base("CP")
# both orders of the decomposable maps, CP + t(CP)
_DECOMPOSABLE = (Join(_CP, Twirl(_CP)), Join(Twirl(_CP), _CP))


def _decomposition(phi: SuperOperator, cfg: MemberConfig, twirl_first: bool):
    """Decide phi in join(CP, t(CP)): find A >= 0 whose remainder C - A, C the
    Choi matrix of phi, lies in t(CP), i.e. (C - A)^G >= 0 for the twirl G.

    Plain alternating projections between two convex sets: the PSD matrices,
    with eigenvalues clipped at the floor 1e-6 * max|C| so that the iterates
    move into the interior, and the matrices A with (C - A)^G >= 0, onto which
    A -> C - G(clip(G(C - A))) projects exactly because G only permutes
    entries.  A sweep takes one eigendecomposition on each side.  It starts
    on the second set (at A = C), and it has two exits:

    * feasible: A >= 0, so phi is the hull, weights (1, 1), of the CP map A
      and the twirled CP map C - A, whose twirl is the clipped X of the last
      sweep.  Each part carries its Choi matrix and a ``psd_floor`` (for
      C - A a ``twirled`` one), in the order of the join when
      ``twirl_first``;
    * infeasible: the displacement y - z between the clipped iterate y and
      its projection z is G(X_-), X_- the negative part of X = G(C - y).  Its
      partial transpose X_- is PSD; lifted by delta * I, delta =
      max(0, -lambda_min), and scaled to unit trace it is a PPT rho, a
      generator of the dual cone meet(CP, t(CP)), certified by ``both`` a
      ``psd_floor`` and a ``twirled`` one, in the order of that meet.
      <rho, C> below -``linalg.tolerance(C)`` refutes phi.

    Returns ``(certificate, witness, sweeps, closest)``: the hull
    certificate or the refuting ``dual_element`` (at most one of them, both
    None after ``linalg.MAX_SWEEPS`` sweeps), the sweeps taken, and the least
    pairing of phi with the dual elements rho tried.
    """
    m, n = phi.dims
    c = phi.choi
    eps = linalg.tolerance(c, cfg.tol)
    floor = 1e-6 * float(np.max(np.abs(c)))
    # C - A and the least eigenvalue of its twirl; zero at the start, A = C
    rest, rest_floor = np.zeros_like(c), 0.0
    closest = np.inf
    for sweep in range(1, linalg.MAX_SWEEPS + 1):
        a = c - rest
        vals, vecs = linalg.hermitian_part_eigen(a)
        if vals[0] >= 0:
            parts = [{"choi": a, "certificate": _floor_cert(vals[0])},
                     {"choi": rest,
                      "certificate": {"type": "twirled", "inner": _floor_cert(rest_floor)}}]
            cert = {"type": "hull", "weights": (1.0, 1.0),
                    "parts": parts[::-1] if twirl_first else parts}
            return cert, None, sweep, closest
        y = (vecs * np.maximum(vals, floor)) @ vecs.conj().T
        x_vals, x_vecs = linalg.hermitian_part_eigen(superop.twirl_stack(c - y, m, n))
        neg = np.maximum(-x_vals, 0.0)
        if neg[0] > 0:
            rho = superop.twirl_stack((x_vecs * neg) @ x_vecs.conj().T, m, n)
            low = float(linalg.hermitian_part_eigvals(rho)[0])
            delta = max(0.0, -low)
            scale = neg.sum() + delta * m * n
            rho = (rho + delta * np.eye(m * n)) / scale
            # <rho, C>, the pairing that recheck recomputes with pair
            value = float(superop.map_inner_stack(rho, c).real)
            closest = min(closest, value)
            if value < -eps:
                sides = [_floor_cert((low + delta) / scale),
                         {"type": "twirled", "inner": _floor_cert((neg[-1] + delta) / scale)}]
                left, right = sides[::-1] if twirl_first else sides
                witness = {"type": "dual_element", "psi": SuperOperator(m, n, rho),
                           "psi_certificate": {"type": "both", "left": left, "right": right},
                           "pairing": value}
                return None, witness, sweep, closest
        rest_vals = np.maximum(x_vals, 0.0)
        rest = superop.twirl_stack((x_vecs * rest_vals) @ x_vecs.conj().T, m, n)
        rest_floor = rest_vals[0]
    return None, None, linalg.MAX_SWEEPS, closest


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _floor_cert(val) -> dict:
    """The ``psd_floor`` certificate of a least Choi eigenvalue ``val``."""
    return {"type": "psd_floor", "min_eigenvalue": float(val)}


def _family_step(phi: SuperOperator, k: int, vals, vecs, cfg: MemberConfig) -> Optional[Verdict]:
    """Decide phi in Pk(k) by the family criterion (paper thm5): for a > 0,
    a*I - b*|w><w| is the Choi matrix of a k-positive map iff
    (b / a) * fan_k(w) <= 1.

    ``(vals, vecs)`` are the ascending Choi eigenpairs of a map that is not
    CP, vals[0] below -eps for eps the ``linalg.tolerance`` of its Choi
    matrix C, and w = vecs[:, 0].  The routes run in this order:

    * ``family_pattern``: C = a*I - b*|w><w| entrywise within eps, for a the
      median of vals[1:], above eps, and b = a - vals[0].  Every vals[1:]
      lies within eps of a, but that flatness alone leaves up to 1.5 * eps
      in the entries, which :func:`recheck` can reject, so the entries are
      compared too.  phi is a member, with a ``family`` certificate, when
      (b / a) * fan_k(w) <= 1 + tol and the pairing a - b * fan_k(w), the
      value the refuters compare with -eps, is at least -eps;
    * ``family_projection``: otherwise the top-k singular truncation V of
      unvec(w), the unit vector of Schmidt rank <= k with the least
      quadratic form a - b * fan_k(w), refutes the pattern by Ad_V when
      that form lies below -eps;
    * ``family_split``: for a = vals[1] above eps and b = a / fan_k(w), the
      family part F = a*I - b*|w><w| lies on the threshold, and C - F keeps
      the eigenvectors of C, with eigenvalues vals[0] - a + a / fan_k(w) and
      vals[i] - a >= 0.  phi is a member, a ``hull``, weights (1, 1), of F
      with its ``family`` certificate and C - F with its ``psd_floor``, when
      (b / a) * fan_k(w) <= 1 + tol, which rounding can break at tol = 0,
      and C - F is PSD within its own tolerance.

    Returns the verdict of the first route that decides, else None.
    fan_k(w), one SVD, is computed at most once, and only when a route
    reads it.
    """
    m, n = phi.dims
    eps = linalg.tolerance(phi.choi, cfg.tol)
    w = vecs[:, 0]
    fan = None
    a = float(np.median(vals[1:]))
    b = a - float(vals[0])
    if (a > eps and np.max(np.abs(vals[1:] - a)) <= eps
            and np.max(np.abs(phi.choi - family.choi(a, b, w))) <= eps):
        fan = float(family.fan(w, m, n, k))
        lhs = (b / a) * fan
        # the ratio is dimensionless and compares with tol itself
        if lhs <= 1.0 + cfg.tol and a - b * fan >= -eps:
            return _verdict(MEMBER, "family_pattern", cfg,
                            certificate={"type": "family", "a": a, "b": b, "w": w, "k": k,
                                         "threshold_lhs": lhs})
        v = family.truncation(unvec(w, m, n), k)
        witness = _conjugation_witness(phi, k, cfg, v / np.linalg.norm(v))[0]
        if witness is not None:
            return _verdict(NOT_MEMBER, "family_projection", cfg, witness=witness)
    a = float(vals[1])
    if a <= eps:
        return None
    if fan is None:
        fan = float(family.fan(w, m, n, k))
    b = a / fan
    lhs = (b / a) * fan
    if lhs > 1.0 + cfg.tol:
        return None
    fam = family.choi(a, b, w)
    rest = phi.choi - fam
    floor = linalg.hermitian_part_eigvals(rest)[0]
    if floor < -linalg.tolerance(rest, cfg.tol):
        return None
    parts = [{"choi": fam, "certificate": {"type": "family", "a": a, "b": b, "w": w, "k": k,
                                           "threshold_lhs": lhs}},
             {"choi": rest, "certificate": _floor_cert(floor)}]
    return _verdict(MEMBER, "family_split", cfg,
                    certificate={"type": "hull", "weights": (1.0, 1.0), "parts": parts})


def _kraus_from_eigen(phi: SuperOperator, k: int, vals, vecs, eps: float):
    """The Kraus operators sqrt(lambda) unvec(v) of the Choi eigenpairs
    ``(vals, vecs)``, eigenvalues within the tolerance ``eps`` of the Choi
    matrix taken as zero, when all their ranks are <= k, else None.  The
    zero map gets one zero operator, an empty decomposition."""
    if vals[0] < -eps:
        return None
    ops = [unvec(np.sqrt(val) * vec, phi.m, phi.n) for val, vec in zip(vals, vecs.T) if val > eps]
    ops = ops or [np.zeros((phi.n, phi.m), dtype=np.complex128)]
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
    ``psi_certificate`` and a ``pairing`` with phi below -eps (or, from
    :func:`_dual_sampling`, a ``composition_eigenvalue`` and pairing None).
    A Pk(k) refutation is a conjugation Ad_V, ||V|| = 1, with rank V <= k;
    CP and SPk(k) are refuted by Ad_V for V = unvec of the lowest Choi
    eigenvector.
    A twirl returns its child's witness as psi . t, a ``twirled``
    certificate and the pairing of psi . t with phi, the child's value
    summed in :func:`pair`'s order; a meet returns its child's witness
    unchanged, and a join member that one child certifies carries that
    child's certificate.

    join(CP, t(CP)), in either order, is decided by :func:`_decomposition`
    once neither child certifies phi: a ``hull`` certificate of a CP and a
    twirled CP part, or a ``dual_element`` witness, a PPT map of unit trace
    whose pairing with phi is below -eps.  SPk(k) and any other join are
    refuted by :func:`_dual_sampling`, the composition test on sampled
    generators of the dual cone.  A join that neither route decides is
    refuted by a P refutation, a rank-one Ad_V: every normalized cone lies
    in P, so Ad_V lies in every dual cone.  Only then is it ``unknown``.
    P is decided once per join: a child P's refutation refutes the join
    before either route runs, and a child P left open is not decided again.

    Every verdict's ``diagnostics`` hold ``route``, then the effort keys of
    that route, then ``cfg`` (``cfg.as_dict()``):

    * ``cp_spectrum`` (CP member), ``not_cp`` (CP or SPk(k) refuted),
      ``cp_subset``, the family routes of :func:`_family_step`
      (``family_pattern``, ``family_projection`` and ``family_split``),
      ``co_cp_subset`` and ``eigendecomposition`` (SPk(k) member): none;
    * ``vector_search`` (k = 1) and ``projection_search`` (k > 1), the
      Schmidt-rank-k search on Pk(k): ``sweeps``, and on ``unknown``
      ``closest_value``, the least Choi quadratic form it reached;
    * ``dual_sampling`` (SPk(k) refuted, or ``unknown``): on ``unknown``,
      ``dual_samples``, the number of compositions psi^dagger . phi tested,
      and ``closest_composition_eigenvalue``, their least Choi eigenvalue
      (None when none was tested).  They run over the sampled generators
      psi of the dual cone Pk(k) that can refute phi: a CP psi cannot
      refute a CP phi, nor a co-CP psi a co-CP phi (:func:`_dual_sampling`);
    * ``twirl``: ``child``, the child cone, and ``inner``, its diagnostics;
    * ``meet``: ``left`` and ``right``, the children's statuses;
    * ``join`` and ``join_dual_witness``: ``side`` on a member a child
      certifies; on ``unknown``, which P does not refute either, ``left``
      and ``right``, the children's statuses, then the closest approach.
      join(CP, t(CP)) reports ``closest_pairing``, the least pairing of phi
      with the PPT maps of the sweeps, and ``sweeps`` on every verdict (0
      when a child decided); any other join reports
      ``closest_composition_eigenvalue``, as ``dual_sampling`` does over its
      dual cone, and ``dual_samples`` on every verdict that sampled.  A P
      refutation reports the effort key of the join's own route, except
      that a child P's refutation comes before any sampling and reports
      no ``dual_samples``.
    """
    if not phi.is_hermiticity_preserving(cfg.tol):
        raise ValueError("membership is defined for Hermiticity-preserving maps only")
    m, n = phi.dims
    kmax = min(m, n)
    # the twirls permute Choi entries, so every route has this tolerance
    eps = linalg.tolerance(phi.choi, cfg.tol)

    if isinstance(expr, Base):
        # one Choi spectrum serves every base-cone route
        vals, vecs = linalg.hermitian_part_eigen(phi.choi)
        k = expr.k
        if expr.kind == "Pk":
            if vals[0] >= -eps:
                return _verdict(MEMBER, "cp_subset", cfg, certificate=_floor_cert(vals[0]))
            verdict = _family_step(phi, k, vals, vecs, cfg)
            if verdict is not None:
                return verdict
            if k == 1:
                # completely copositive maps are positive: Phi . t in CP certifies
                co = linalg.hermitian_part_eigvals(phi.right_transpose().choi)[0]
                if co >= -eps:
                    return _verdict(MEMBER, "co_cp_subset", cfg,
                                    certificate={"type": "twirled", "inner": _floor_cert(co)})
            witness, closest, sweeps = _conjugation_witness(phi, k, cfg)
            route = "vector_search" if k == 1 else "projection_search"
            if witness is not None:
                return _verdict(NOT_MEMBER, route, cfg, witness=witness, sweeps=sweeps)
            return _verdict(UNKNOWN, route, cfg, sweeps=sweeps, closest_value=closest)
        # SPk(k) lies in CP, and Ad_V for V = unvec of the lowest Choi
        # eigenvector refutes both
        witness = _conjugation_witness(phi, kmax, cfg, unvec(vecs[:, 0], m, n))[0]
        if witness is not None:
            return _verdict(NOT_MEMBER, "not_cp", cfg, witness=witness)
        if expr.kind == "CP":
            return _verdict(MEMBER, "cp_spectrum", cfg, certificate=_floor_cert(vals[0]))
        ops = _kraus_from_eigen(phi, k, vals, vecs, eps)
        if ops is not None:
            return _verdict(MEMBER, "eigendecomposition", cfg,
                            certificate={"type": "kraus", "ops": ops, "rank_bound": k})
        # phi is in SPk iff psi^dagger . phi is CP for every psi in Pk
        witness, samples, closest = _dual_sampling(phi, dual_expr(expr), cfg)
        if witness is not None:
            return _verdict(NOT_MEMBER, "dual_sampling", cfg, witness=witness)
        return _verdict(UNKNOWN, "dual_sampling", cfg, dual_samples=samples,
                        closest_composition_eigenvalue=closest)

    if isinstance(expr, Twirl):
        inner = member(phi.right_transpose(), expr.child, cfg)
        witness = inner.witness
        if witness is not None:
            # <psi . t, phi> = <psi, phi . t>: the twirl permutes both Choi
            # matrices alike, so the pairing keeps its value, but its sum
            # runs in another order; it is taken again as pair takes it
            psi = witness["psi"].right_transpose()
            pairing = witness["pairing"]
            if pairing is not None:
                pairing = float(superop.map_inner_stack(psi.choi, phi.choi).real)
            witness = dict(witness, psi=psi, pairing=pairing,
                           psi_certificate={"type": "twirled",
                                            "inner": witness["psi_certificate"]})
        return _verdict(inner.status, "twirl", cfg,
                        certificate=None if inner.certificate is None else
                        {"type": "twirled", "inner": inner.certificate},
                        witness=witness, child=format_cone(expr.child),
                        inner=inner.diagnostics)

    if isinstance(expr, Meet):
        left = member(phi, expr.left, cfg)
        right = member(phi, expr.right, cfg)
        sides = {"left": left.status, "right": right.status}
        for v in (left, right):
            if v.status == NOT_MEMBER:
                return _verdict(NOT_MEMBER, "meet", cfg, witness=v.witness, **sides)
        if left.status == MEMBER and right.status == MEMBER:
            return _verdict(MEMBER, "meet", cfg,
                            certificate={"type": "both", "left": left.certificate,
                                         "right": right.certificate}, **sides)
        return _verdict(UNKNOWN, "meet", cfg, **sides)

    if isinstance(expr, Join):
        effort = {"sweeps": 0} if expr in _DECOMPOSABLE else {}
        # the join lies in P, so a refutation of P, a rank-one Ad_V in SP
        # and hence in every dual cone, refutes it; a child P is decided once
        p = normalize(Base("Pk", 1), m, n)
        sides, positive = {}, None
        for side, child in (("left", expr.left), ("right", expr.right)):
            verdict = member(phi, child, cfg)
            if verdict.status == MEMBER:
                return _verdict(MEMBER, "join", cfg, certificate=verdict.certificate,
                                side=side, **effort)
            sides[side] = verdict.status
            if child == p:
                positive = verdict
        if positive is not None and positive.status == NOT_MEMBER:
            return _verdict(NOT_MEMBER, "join_dual_witness", cfg, witness=positive.witness,
                            **effort)
        if expr in _DECOMPOSABLE:
            cert, witness, sweeps, closest = _decomposition(phi, cfg, expr.left != _CP)
            if cert is not None:
                return _verdict(MEMBER, "join", cfg, certificate=cert, sweeps=sweeps)
            if witness is not None:
                return _verdict(NOT_MEMBER, "join_dual_witness", cfg, witness=witness,
                                sweeps=sweeps)
            effort = {"sweeps": sweeps}
            approach = {"closest_pairing": closest, **effort}
        else:
            witness, samples, closest = _dual_sampling(phi, dual_expr(expr), cfg)
            effort = {"dual_samples": samples}
            if witness is not None:
                return _verdict(NOT_MEMBER, "join_dual_witness", cfg, witness=witness, **effort)
            approach = {"closest_composition_eigenvalue": closest, **effort}
        positive = positive or member(phi, p, cfg)
        if positive.status == NOT_MEMBER:
            return _verdict(NOT_MEMBER, "join_dual_witness", cfg, witness=positive.witness,
                            **effort)
        return _verdict(UNKNOWN, "join", cfg, **sides, **approach)

    raise TypeError(f"membership needs a normalized cone expression, got {expr!r}")


# ---------------------------------------------------------------------------
# Witness search over the dual cone
# ---------------------------------------------------------------------------

def witness_search(phi: SuperOperator, expr: ConeExpr, cfg: MemberConfig = MemberConfig()):
    """The refutation of :func:`member`, as ``(psi, value, certificate)``.

    psi lies in dual(expr), as its certificate proves, and value is the
    witness's ``pairing`` with phi, below minus the tolerance; it is None
    for a composition witness of :func:`_dual_sampling`.  Returns None when
    :func:`member` does not refute phi.
    """
    witness = member(phi, expr, cfg).witness
    if witness is None:
        return None
    return witness["psi"], witness["pairing"], witness["psi_certificate"]


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
                                                      seed=cfg.seed + i))
        statuses[verdict.status] += 1
        if verdict.status == NOT_MEMBER:
            violations.append(i)
    dual_min, dual_ok = np.inf, True
    dual = dual_expr(expr)
    dual_gens = sample_generators(dual, m, n, min(cfg.samples, 50), cfg.seed + 1)
    cone_chois, _ = _sample_stack(expr, m, n, min(cfg.samples, 10), cfg.seed + 2)
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

def _recheck_certificate(phi: SuperOperator, cert: dict, tol: float) -> bool:
    eps = linalg.tolerance(phi.choi, tol)
    kind = cert["type"]
    if kind == "psd_floor":
        return bool(linalg.hermitian_part_eigvals(phi.choi)[0] >= -eps)
    if kind == "kraus":
        if not phi.isclose(from_kraus(cert["ops"]), eps):
            return False
        if cert["rank_bound"] >= min(phi.dims):
            return True  # no n x m operator has a higher rank
        return all(linalg.numerical_rank(op) <= cert["rank_bound"] for op in cert["ops"])
    if kind == "family":
        a, b, w = cert["a"], cert["b"], cert["w"]
        if np.max(np.abs(phi.choi - family.choi(a, b, w))) > eps or a <= 0 or "k" not in cert:
            return False
        return (b / a) * family.fan(w, phi.m, phi.n, cert["k"]) <= 1.0 + tol
    if kind == "twirled":
        return _recheck_certificate(phi.right_transpose(), cert["inner"], tol)
    if kind == "both":
        sides = (cert.get("left"), cert.get("right"))
        return all(side is not None and _recheck_certificate(phi, side, tol) for side in sides)
    if kind == "hull":
        m, n = phi.dims
        parts = [SuperOperator(m, n, part["choi"]) for part in cert["parts"]]
        combined = SuperOperator(m, n, sum(w * p.choi for w, p in zip(cert["weights"], parts)))
        if min(cert["weights"]) < 0 or not phi.isclose(combined, eps):
            return False
        return all(_recheck_certificate(p, part["certificate"], tol)
                   for p, part in zip(parts, cert["parts"]))
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
    return bool(linalg.hermitian_part_eigvals(comp.choi)[0]
                < -linalg.tolerance(comp.choi, tol) / 2)


def recheck(phi: SuperOperator, verdict: Verdict, tol: float = 1e-9) -> bool:
    """Re-verify a verdict's certificate or witness from scratch.

    Each certificate kind is checked on the map it is given, or on a map the
    certificate itself carries; no map is rebuilt from a description.
    ``tol`` is relative, as in :func:`member`: an eigenvalue floor, the Choi
    matrix of ``kraus`` operators or of a ``family`` pattern, and the
    weighted sum of a ``hull``'s part Choi matrices match within
    ``linalg.tolerance`` of the Choi matrix, and a dimensionless ratio such
    as the ``family`` threshold within tol itself.  A ``hull`` needs weights
    >= 0 and each part's ``certificate`` to hold on the map of that part's
    ``choi``; a ``both`` needs a ``left`` and a ``right`` that hold on phi;
    a ``family`` needs ``k`` and a > 0.  A witness value must lie below half
    the tolerance :func:`member` refutes with, the only slack left.  No
    check depends on the scale of phi.  The one witness kind is
    ``dual_element``: its ``psi_certificate`` is rechecked on psi, then its
    pairing with phi, or the least Choi eigenvalue of psi^dagger . phi when
    the pairing is None.
    """
    if verdict.status == MEMBER:
        return verdict.certificate is not None and _recheck_certificate(
            phi, verdict.certificate, tol)
    if verdict.status == NOT_MEMBER:
        return verdict.witness is not None and _recheck_witness(phi, verdict.witness, tol)
    return True
