"""Command-line interface; JSON in, JSON out.

Matrices and superoperators travel as files (or stdin via ``-``) in the JSON
forms of :mod:`linalg` and :mod:`superop`.  Exit codes: 0 member / success,
1 not-member / failed verification, 2 unknown, 64 usage or cone-grammar
error, 65 dimension mismatch, 66 malformed input: an unreadable or malformed
input file, an unwritable ``--output``, or an out-of-range option value
(``--samples 0``, ``--trials 0``, ``--tol nan``, ``--seed -1``).  Errors reach :func:`main`,
which maps each to its code by one table and prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import cones, family, linalg, superop, verifier
from .cones import ConeGrammarError, MemberConfig
from .linalg import DimensionError

EXIT_MEMBER = 0
EXIT_NOT_MEMBER = 1
EXIT_UNKNOWN = 2
EXIT_GRAMMAR = 64
EXIT_DIMENSION = 65
EXIT_MALFORMED = 66

_STATUS_EXIT = {cones.MEMBER: EXIT_MEMBER, cones.NOT_MEMBER: EXIT_NOT_MEMBER,
                cones.UNKNOWN: EXIT_UNKNOWN}


# The exit code of an error that reaches main; the first match wins.
# ConeGrammarError and DimensionError subclass ValueError, and so do numpy's
# LinAlgError and json.JSONDecodeError; ArithmeticError is the imaginary
# residue of cones.pair, OSError an unreadable input or unwritable output.
_MALFORMED = (ValueError, OSError, ArithmeticError)
_ERROR_EXIT = ((ConeGrammarError, EXIT_GRAMMAR), (DimensionError, EXIT_DIMENSION),
               (_MALFORMED, EXIT_MALFORMED))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # json's decoder recurses per nesting level: a deep file is malformed
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _read_superop(path: str) -> superop.SuperOperator:
    return superop.superop_from_json(_read_json(path))


def _read_matrix(path: str) -> np.ndarray:
    return linalg.matrix_from_json(_read_json(path))


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonify(value):
    """Convert verdict payloads (numpy arrays, superoperators) to JSON."""
    if isinstance(value, superop.SuperOperator):
        return superop.superop_to_json(value)
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in value]
        return linalg.matrix_to_json(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _verdict_json(verdict: cones.Verdict) -> dict:
    return {
        "status": verdict.status,
        "certificate": _jsonify(verdict.certificate),
        "witness": _jsonify(verdict.witness),
        "diagnostics": _jsonify(verdict.diagnostics),
    }


def _parse_cone_arg(text: str, m: int, n: int):
    return cones.normalize(cones.parse_cone(text), m, n)


def _parse_dims(text: str) -> tuple[int, int]:
    dims = re.fullmatch(r"\s*(\d*[1-9]\d*)\s*,\s*(\d*[1-9]\d*)\s*", text)
    if dims is None:
        raise ValueError(f"dims must be 'm,n' with positive integers, got {text!r}")
    return int(dims[1]), int(dims[2])


def cmd_choi(args) -> int:
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "kraus" in obj:
        if not isinstance(obj["kraus"], list):
            raise ValueError("kraus must be a list of matrices")
        phi = superop.from_kraus([linalg.matrix_from_json(k) for k in obj["kraus"]])
    else:
        phi = superop.superop_from_json(obj)
    _emit(superop.superop_to_json(phi), args)
    return 0


def cmd_from_choi(args) -> int:
    mat = _read_matrix(args.input)
    m, n = _parse_dims(args.dims)
    _emit(superop.superop_to_json(superop.from_choi(mat, m, n)), args)
    return 0


def cmd_apply(args) -> int:
    phi = _read_superop(args.map)
    x = _read_matrix(args.input)
    _emit(linalg.matrix_to_json(phi.apply(x)), args)
    return 0


def cmd_adjoint(args) -> int:
    _emit(superop.superop_to_json(_read_superop(args.map).adjoint()), args)
    return 0


def cmd_compose(args) -> int:
    outer = _read_superop(args.outer)
    inner = _read_superop(args.inner)
    _emit(superop.superop_to_json(outer.compose(inner)), args)
    return 0


def cmd_inner(args) -> int:
    a = _read_superop(args.first)
    b = _read_superop(args.second)
    val = superop.map_inner(a, b)
    _emit({"inner": [val.real, val.imag]}, args)
    return 0


def cmd_pair(args) -> int:
    a = _read_superop(args.first)
    b = _read_superop(args.second)
    _emit({"pairing": cones.pair(a, b, args.tol)}, args)
    return 0


def cmd_dual(args) -> int:
    m, n = _parse_dims(args.dims)
    expr = _parse_cone_arg(args.cone, m, n)
    _emit({"cone": cones.format_cone(expr),
           "dual": cones.format_cone(cones.dual_expr(expr))}, args)
    return 0


def cmd_member(args) -> int:
    phi = _read_superop(args.map)
    expr = _parse_cone_arg(args.cone, phi.m, phi.n)
    verdict = cones.member(phi, expr, args.cfg)
    _emit(_verdict_json(verdict), args)
    return _STATUS_EXIT[verdict.status]


def cmd_witness(args) -> int:
    phi = _read_superop(args.map)
    expr = _parse_cone_arg(args.cone, phi.m, phi.n)
    # member's refutation, the witness_search triple, and for a composition
    # witness (pairing null) the negative eigenvalue that refutes
    wit = cones.member(phi, expr, args.cfg).witness
    if wit is None:
        _emit({"witness": None}, args)
        return EXIT_UNKNOWN
    out = {"witness": _jsonify(wit["psi"]), "pairing": wit["pairing"],
           "certificate": _jsonify(wit["psi_certificate"])}
    if "composition_eigenvalue" in wit:
        out["composition_eigenvalue"] = wit["composition_eigenvalue"]
    _emit(out, args)
    return EXIT_MEMBER


def cmd_phi_lambda(args) -> int:
    v = _read_matrix(args.v)
    spec = family.PhiLambdaSpec(v, args.lam)
    n, m = v.shape
    thresholds = {str(k): family.k_positivity_threshold(v, k) for k in range(1, min(m, n) + 1)}
    result = {
        "m": m,
        "n": n,
        "lambda": args.lam,
        "cp_threshold": family.cp_threshold(v),
        "k_positivity_thresholds": thresholds,
    }
    if args.k is not None:
        ok, witness = family.brute_force_k_positivity(spec, args.k, args.seed, args.tol)
        result["k"] = args.k
        result["analytic_k_positive"] = bool(
            args.lam <= thresholds[str(args.k)])
        result["brute_force_k_positive"] = ok
        result["witness_projection"] = _jsonify(witness) if witness is not None else None
    _emit(result, args)
    return 0


def cmd_verify(args) -> int:
    dims_list = [_parse_dims(d) for d in args.dims.split(";")] if args.dims else \
        [(2, 2), (2, 3), (3, 3)]
    steps = verifier.plan(dims_list, seed=args.seed, tol=args.tol, trials=args.trials)
    if args.check != "all":
        # select by report id before any check runs
        steps = [step for step in steps if step[0].startswith(args.check)]
        if not steps:
            raise ValueError(f"unknown check id {args.check!r}")
    reports = [check(*check_args) for _, check, check_args in steps]
    _emit([r.as_dict() for r in reports], args)
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 64 (sysexits EX_USAGE), not
    argparse's 2, which is the exit code of an unknown verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_GRAMMAR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mapcones",
                     description="Cones of positive maps: Choi transforms, duality, "
                                 "membership.")
    tol_help = ("decision tolerance, relative to the largest Choi entry (verify: the "
                "absolute tolerance of its checks); default 1e-9")
    seed_help = "seed of every random start and sample, a non-negative integer; default 0"
    samples_help = ("dual-cone generators for the composition test, which draws at most "
                    "100 of them; default 500")
    parser.add_argument("--tol", type=float, default=1e-9, help=tol_help)
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    parser.add_argument("--samples", type=int, default=500, help=samples_help)
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS, help=tol_help)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=seed_help)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS, help=samples_help)
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(parents=[common], **kw))

    p = sub.add_parser("choi", help="Choi matrix of a map or Kraus list")
    p.add_argument("input", help="superoperator JSON or {'kraus': [matrix, ...]}")
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("from-choi", help="wrap a Choi matrix as a superoperator")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--dims", required=True, help="m,n")
    p.set_defaults(func=cmd_from_choi)

    p = sub.add_parser("apply", help="apply a map to an operator")
    p.add_argument("map")
    p.add_argument("input", help="operator matrix JSON")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("adjoint", help="adjoint of a map")
    p.add_argument("map")
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("compose", help="composition outer . inner")
    p.add_argument("outer")
    p.add_argument("inner")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("inner", help="inner product of two maps")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("pair", help="real pairing of Hermiticity-preserving maps")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("dual", help="dual of a cone expression")
    p.add_argument("cone")
    p.add_argument("--dims", default="3,3", help="m,n context (default 3,3)")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("member", help="cone membership verdict")
    p.add_argument("map")
    p.add_argument("cone")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("witness", help="search the dual cone for a witness")
    p.add_argument("map")
    p.add_argument("cone")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("phi-lambda", help="thresholds for the Tr - lambda Ad_V family")
    p.add_argument("--v", required=True, help="matrix JSON file for V")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_phi_lambda)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--dims", default=None, help="semicolon-separated m,n pairs")
    p.add_argument("--check", default="all")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checks --tol, --samples and --seed for every command, not only member and witness
        args.cfg = MemberConfig(tol=args.tol, samples=args.samples, seed=args.seed)
        return args.func(args)
    except _MALFORMED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXIT if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
