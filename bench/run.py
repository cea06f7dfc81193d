"""Benchmark for mapcones: end-to-end and per-layer metrics on seeded workloads.

    python3 bench/run.py --workload decide_search --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one client, one process):

* ``decide_search`` -- queries the exact routes cannot settle; the time goes
  to the refuters, dual sampling and witness search.
* ``verify``        -- ``verifier.run_all`` on (2,2), (2,3), (3,3) with
  trials=50 over consecutive seeds; one operation is one check report.

One decide operation is one query taken from its CLI JSON form:
``superop_from_json``, ``parse_cone`` + ``normalize``,
``member`` or ``witness_search``, then ``recheck``, all with the CLI's
defaults.  Every answer is checked: an operation fails if it raises, if
``recheck`` rejects a member/not_member verdict, if the verdict contradicts
the answer the input's construction fixes, or if a verifier check fails.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run over
a fixed query list, whose counters repeat exactly for a given seed.  The
lines before it give the environment, the summary (including
``unknown_ratio`` and ``fail_ratio``) and each failed query.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the matrices are at most 16x16, where BLAS
# threads add only scheduling noise.  Child processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("decide_search", "verify")
VERIFY_DIMS = [(2, 2), (2, 3), (3, 3)]
VERIFY_TRIALS = 50

SETUP_LAUNCHES = 7      # fresh interpreters timed per run; setup_s is their median
IMPORTTIME_LAUNCHES = 5

# Rounds per second of --seconds in the traced run's fixed query list.  They
# set the list's length only; with the same seed and --seconds the list, and
# so every counter, is the same on any machine.
TRACED_ROUNDS_PER_SECOND = {"decide_search": 0.15, "verify": 0.3}

# Routes as ``member`` reports them in ``diagnostics["route"]``; verdicts
# without one get ``unlabelled.<cone>.<status>``.  A route missing here is
# counted under ``other``.
ROUTES = (
    "unlabelled.CP.member", "unlabelled.CP.not_member",
    "cp_subset", "family_pattern", "family_projection", "co_cp_subset",
    "vector_search", "projection_search", "unlabelled.Pk.unknown",
    "not_cp", "eigendecomposition", "dual_sampling", "unlabelled.SPk.unknown",
    "meet", "join", "join_dual_witness", "other",
)
VERIFIER_CHECKS = ("prop1", "isometry", "lemma6", "thm2", "thm3", "thm4", "thm5")
COUNTED = ("linalg.eigh", "linalg.gen_eigh", "linalg.svd", "linalg.qr", "superop.einsum")
SPANS = ("superop.from_json", "cones.parse_normalize")
CALL_SPANS = ("cones.member", "cones.recheck", "cones.witness_search")


def _load_mapcones():
    """Import mapcones from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mapcones" / "__init__.py").is_file():
        sys.exit(f"error: no mapcones package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mapcones
    if Path(mapcones.__file__).resolve().parent != (SRC / "mapcones").resolve():
        sys.exit(f"error: imported mapcones from {mapcones.__file__}, not {SRC}")


_load_mapcones()

import numpy as np  # noqa: E402  (after the BLAS pin)

import mapcones  # noqa: E402
from mapcones import cones, superop, verifier  # noqa: E402

import workloads  # noqa: E402
from tracing import CallLog, NullTracer, Tracer  # noqa: E402

# the values the CLI passes when no flag is given; max_iters is not a flag
CFG = cones.MemberConfig(tol=1e-9, samples=500, seed=0)


# ---------------------------------------------------------------------------
# Set-up: a fresh interpreter importing mapcones.cli
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mapcones.cli; "
    "print(time.perf_counter() - t); print(mapcones.cli.__file__)"
)


def _launch(flags=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    origin = Path(proc.stdout.split("\n")[1]).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise RuntimeError(f"child imported mapcones.cli from {origin}")
    return proc


def measure_setup() -> list[float]:
    """Import time of mapcones.cli in fresh interpreters; the first launch,
    which may compile bytecode, is not counted."""
    _launch()
    return [float(_launch().stdout.split("\n")[0]) for _ in range(SETUP_LAUNCHES)]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and mapcones itself.

    numpy and scipy are the cumulative times of their outermost entries (what
    they pull in counts towards them); ``self`` sums the self times of the
    mapcones modules.
    """
    rows = []  # (depth, name, self_us, cumulative_us), in print order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        stripped = name.lstrip()
        rows.append(((len(name) - len(stripped)) // 2, stripped, int(self_us), int(cum_us)))
    # importtime prints a module after everything it imported, so the
    # enclosing import of a row is the next later row with a smaller depth
    parent = [None] * len(rows)
    open_rows: list[int] = []
    for i in range(len(rows) - 1, -1, -1):
        while open_rows and rows[open_rows[-1]][0] >= rows[i][0]:
            open_rows.pop()
        parent[i] = open_rows[-1] if open_rows else None
        open_rows.append(i)

    def package(i):
        return rows[i][1].split(".")[0]

    def outermost(i, pkg):
        j = parent[i]
        while j is not None:
            if package(j) == pkg:
                return False
            j = parent[j]
        return True

    out = {}
    for pkg in ("numpy", "scipy"):
        out[pkg] = sum(r[3] for i, r in enumerate(rows)
                       if package(i) == pkg and outermost(i, pkg)) / 1e6
    out["self"] = sum(r[2] for i, r in enumerate(rows) if package(i) == "mapcones") / 1e6
    return out


def measure_import_layers() -> dict[str, float]:
    runs = [parse_importtime(_launch(("-X", "importtime")).stderr)
            for _ in range(IMPORTTIME_LAUNCHES)]
    return {f"cli.import.{key}_s": statistics.median(r[key] for r in runs)
            for key in ("scipy", "numpy", "self")}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    seconds: float
    status: str                 # the verdict's status, "error", or a check's pass/fail
    failure: str | None = None  # why the answer is wrong, with its query or check


def route_label(expr, verdict) -> str:
    """The route that decided a member verdict; a twirl reports its inner one."""
    diag = verdict.diagnostics
    while isinstance(expr, cones.Twirl) and diag.get("route") == "twirl":
        expr, diag = expr.child, diag["inner"]
    if "route" in diag:
        return diag["route"] if diag["route"] in ROUTES else "other"
    label = f"unlabelled.{getattr(expr, 'kind', type(expr).__name__)}.{verdict.status}"
    return label if label in ROUTES else "other"


def _witness_verdict(found) -> cones.Verdict:
    """A witness_search result as the verdict the join route would build."""
    if found is None:
        return cones.Verdict(cones.UNKNOWN)
    psi, value, cert = found
    return cones.Verdict(cones.NOT_MEMBER,
                         witness={"type": "dual_element", "psi": psi,
                                  "psi_certificate": cert, "pairing": value})


def run_query(q: workloads.Query, tracer) -> OpResult:
    start = perf_counter()
    try:
        with tracer.span("superop.from_json"):
            phi = superop.superop_from_json(q.map_json)
        with tracer.span("cones.parse_normalize"):
            expr = cones.normalize(cones.parse_cone(q.cone), phi.m, phi.n)
        if q.op == "member":
            t0 = perf_counter()
            verdict = cones.member(phi, expr, CFG)
            elapsed = perf_counter() - t0
            tracer.add("cones.member", elapsed)
            route = route_label(expr, verdict)
            tracer.add(f"cones.member.route.{route}", elapsed)
            if verdict.status == cones.UNKNOWN:
                tracer.add(f"cones.member.route.{route}.unknown", 0.0)
        else:
            with tracer.span("cones.witness_search"):
                verdict = _witness_verdict(cones.witness_search(phi, expr, CFG))
        with tracer.span("cones.recheck"):
            rechecked = cones.recheck(phi, verdict, CFG.tol)
    except Exception as exc:  # an operation that raises is a failed operation
        return OpResult(perf_counter() - start, "error", _failure(f"raised {exc!r}", q))
    seconds = perf_counter() - start
    if verdict.status != cones.UNKNOWN and not rechecked:
        return OpResult(seconds, verdict.status,
                        _failure(f"recheck rejected the {verdict.status} verdict", q))
    if q.truth is not None and verdict.status == workloads.OPPOSITE[q.truth]:
        return OpResult(seconds, verdict.status,
                        _failure(f"{verdict.status} contradicts the construction", q))
    return OpResult(seconds, verdict.status)


def _failure(reason: str, q: workloads.Query) -> str:
    return f"{reason}: " + json.dumps({"kind": q.kind, "op": q.op, "cone": q.cone,
                                       "truth": q.truth, "map": q.map_json})


def search_round(seed: int, index: int, tracer) -> list[OpResult]:
    queries = workloads.decide_search_round(workloads.round_rng(seed, index))
    return [run_query(q, tracer) for q in queries]


def verify_round(seed: int, index: int, tracer) -> list[OpResult]:
    """``run_all`` at seed + index; each check call is timed where run_all makes it."""
    log = CallLog()
    checks = [(verifier, name, name[len("check_"):])
              for name in vars(verifier) if name.startswith("check_")]
    start = perf_counter()
    try:
        with log.patched(checks):
            reports = verifier.run_all(VERIFY_DIMS, seed=seed + index, tol=CFG.tol,
                                       trials=VERIFY_TRIALS)
    except Exception as exc:  # the round's reports are lost: one failed operation
        return [OpResult(perf_counter() - start, "error",
                         f"run_all at seed {seed + index} raised {exc!r}")]
    if len(log.entries) != len(reports):
        raise RuntimeError(f"run_all made {len(log.entries)} check calls "
                           f"for {len(reports)} reports")
    out = []
    for (name, seconds), report in zip(log.entries, reports):
        tracer.add(f"verifier.{name}", seconds)
        failure = None if report.passed else f"check failed: {json.dumps(report.as_dict())}"
        out.append(OpResult(seconds, "passed" if report.passed else "failed", failure))
    return out


# workload name -> run_round(seed, index, tracer) -> list[OpResult]
WORKLOADS = {
    "decide_search": search_round,
    "verify": verify_round,
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Tally:
    """What a run keeps of its operations: latencies, unknowns and failures."""

    def __init__(self):
        self.seconds = array("d")
        self.busy = 0.0
        self.unknown = 0
        self.failures: list[str] = []

    def add(self, results: list[OpResult]) -> None:
        for r in results:
            self.seconds.append(r.seconds)
            self.busy += r.seconds
            self.unknown += r.status == cones.UNKNOWN
            if r.failure:
                self.failures.append(r.failure)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def ops_per_s(self) -> float:
        return self.attempted / self.busy


def closed_loop(workload: str, seed: int, seconds: float) -> Tally:
    """Whole rounds, one operation after another, until the operations have
    taken ``seconds``; round 0 only warms up."""
    run_round = WORKLOADS[workload]
    run_round(seed, 0, NullTracer())
    tally, index = Tally(), 1
    while tally.busy < seconds:
        tally.add(run_round(seed, index, NullTracer()))
        index += 1
    return tally


def traced_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds * TRACED_ROUNDS_PER_SECOND[workload]))


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Tally, Tally, Tracer]:
    """The fixed list of rounds 1..N, once untraced and once traced."""
    run_round = WORKLOADS[workload]
    rounds = range(1, traced_rounds(workload, seconds) + 1)
    run_round(seed, 0, NullTracer())
    untraced, traced, tracer = Tally(), Tally(), Tracer()
    for index in rounds:
        untraced.add(run_round(seed, index, NullTracer()))
    targets = [(np.linalg, "eigh", "linalg.eigh"), (np.linalg, "eigvalsh", "linalg.eigh"),
               (np.linalg, "svd", "linalg.svd"), (np.linalg, "qr", "linalg.qr"),
               (np, "einsum", "superop.einsum")]
    if "scipy.linalg" in sys.modules:  # only if mapcones itself loaded it
        targets.append((sys.modules["scipy.linalg"], "eigh", "linalg.gen_eigh"))
    with tracer.patched(targets):
        for index in rounds:
            traced.add(run_round(seed, index, tracer))
    return untraced, traced, tracer


def end_to_end_metrics(tally: Tally, setup_times) -> tuple[dict, dict]:
    """The gated metrics, and a summary that adds the ungated ones."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = 1000.0 * np.frombuffer(tally.seconds)
    # "weibull" places quantile p at rank p * (n + 1), as statistics.quantiles does
    p50, p90 = (float(x) for x in np.percentile(ms, [50, 90], method="weibull"))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "decided_ratio": (1.0 - tally.unknown / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = {**metrics,
             "unknown_ratio": (tally.unknown / tally.attempted, "ratio"),
             "fail_ratio": (len(tally.failures) / tally.attempted, "ratio")}
    summary = {"metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in shown.items()},
               "samples": ms.size, "samples_above_p90": int(np.count_nonzero(ms > p90)),
               "setup_launches_s": setup_times}
    return metrics, summary


def per_layer_metrics(untraced: Tally, traced: Tally, tracer: Tracer, import_layers) -> dict:
    m = {name: (value, "s") for name, value in import_layers.items()}
    for name in SPANS:
        m[f"{name}.time_s"] = (tracer.seconds[name], "s")
    for name in CALL_SPANS:
        m[f"{name}.time_s"] = (tracer.seconds[name], "s")
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    for route in ROUTES:
        key = f"cones.member.route.{route}"
        m[f"{key}.calls"] = (tracer.calls[key], "count")
        m[f"{key}.time_s"] = (tracer.seconds[key], "s")
        m[f"{key}.unknown"] = (tracer.calls[f"{key}.unknown"], "count")
    for check in VERIFIER_CHECKS:
        m[f"verifier.{check}.time_s"] = (tracer.seconds[f"verifier.{check}"], "s")
    for name in COUNTED:  # per operation, so lists of any length compare
        m[f"{name}.calls"] = (tracer.calls[name] / traced.attempted, "calls/op")
        m[f"{name}.time_s"] = (tracer.seconds[name] / traced.attempted, "s/op")
    m["traced.ops"] = (traced.attempted, "count")
    m["traced.overhead_ratio"] = (traced.ops_per_s() / untraced.ops_per_s(), "ratio")
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

_OPENBLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
                     for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _openblas_runtime() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        symbols = next((pair for pair in _OPENBLAS_SYMBOLS if hasattr(lib, pair[0])), None)
        if symbols:
            threads, config = (getattr(lib, name) for name in symbols)
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            info.update(threads=threads(), config=config().decode())
        found.append(info)
    return found


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "mapcones": mapcones.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "openblas_runtime": _openblas_runtime(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _result_line(tallies, metrics) -> str:
    failed = sum(len(t.failures) for t in tallies)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    if args.trace:
        import_layers = measure_import_layers()
        untraced, traced, tracer = traced_run(args.workload, args.seed, args.seconds)
        tallies = [untraced, traced]
        metrics = per_layer_metrics(untraced, traced, tracer, import_layers)
        summary = {"rounds": traced_rounds(args.workload, args.seconds),
                   "fail_ratio": sum(len(t.failures) for t in tallies)
                   / sum(t.attempted for t in tallies)}
    else:
        setup_times = measure_setup()
        tallies = [closed_loop(args.workload, args.seed, args.seconds)]
        metrics, summary = end_to_end_metrics(tallies[0], setup_times)
    print(json.dumps({**head, "environment": environment()}))
    print(json.dumps({**head, "summary": summary}))
    for tally in tallies:
        for failure in tally.failures:
            print(f"FAIL {failure}")
    print(_result_line(tallies, metrics))
    return 0

if __name__ == "__main__":
    sys.exit(main())
