"""Set-up, the timed closed loop, and the traced run.

One process is one closed-loop client: the next operation starts only after
the previous certificate has been produced, verified and checked.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 10
MIN_OPS = 100  # so that p90 always has ten samples beyond it
K_SOLVES = 12  # solves of each instance that cert_ms_p50 takes the fastest of

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import lpfactor; print(time.perf_counter() - t)"
)


def _time_import() -> float:
    """Seconds a fresh interpreter spends in ``import lpfactor``."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def _set_up_once(workload, seed: int):
    """One set-up: a fresh interpreter importing lpfactor, plus generating
    the workload's pool.  The same seed gives the same pool every time."""
    imported = _time_import()
    t0 = perf_counter()
    pool = workload.instances(seed)
    return pool, imported + perf_counter() - t0


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Set up, run the timed loop, and set up again.

    Half of the SETUP_REPS set-ups come before the loop and half after it,
    so that a spell of interference from other processes that is shorter
    than the run cannot cover all of them; ``setup_s`` is their median.
    Only one pool is alive at a time, so peak memory holds one.
    """
    setups, pool = [], None
    for _ in range(SETUP_REPS // 2):
        pool = None
        pool, seconds_taken = _set_up_once(workload, seed)
        setups.append(seconds_taken)
    result = measure(workload, pool, seconds)
    result["pool"], pool = len(pool), None
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        setups.append(_set_up_once(workload, seed)[1])
    result["setup_s"] = statistics.median(setups)
    return result


def _run_op(workload, instance, strategy, failures):
    """One solve-and-verify; returns the certificate, or the exception."""
    try:
        cert, ok = workload.solve(instance, strategy)
    except Exception as exc:  # every exception is a counted failure
        failures.append(traceback.format_exc())
        return exc
    if not ok:
        failures.append(f"certificate rejected or promise broken ({strategy or 'lp'})")
    return cert


def _digest_bytes(outcome) -> bytes:
    if isinstance(outcome, Exception):
        return f"error:{type(outcome).__name__}".encode()
    return json.dumps(outcome.to_json(), sort_keys=True).encode()


def measure(workload, pool, seconds: float) -> dict:
    """The timed loop: whole passes over the pool until ``seconds`` have
    passed, at least K_SOLVES passes and MIN_OPS operations.  Returns each
    pass's latencies, in pool order.  The digest covers the first pass.
    """
    passes, failures = [], []
    digest = hashlib.sha256()
    start = perf_counter()
    while (len(passes) < K_SOLVES or len(passes) * len(pool) < MIN_OPS
           or perf_counter() - start < seconds):
        latencies = []
        for instance, strategy in pool:
            t0 = perf_counter()
            out = _run_op(workload, instance, strategy, failures)
            latencies.append(perf_counter() - t0)
            if not passes:
                digest.update(_digest_bytes(out))
        passes.append(latencies)
    return {"passes": passes, "failures": failures, "digest": digest.hexdigest()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of a timed run, as {name: (value, unit)}.

    ``cert_ms_p50`` is the median over the pool of each instance's fastest
    solve among its first K_SOLVES.  An instance's solves are a pass
    (seconds) apart, and other processes sharing the machine only ever add
    time, so the fastest is the best estimate of the latency without them.
    The number of solves is fixed, so a faster program does not also get
    more draws at a low minimum.  ``certs_per_s`` is the median over passes
    of each pass's throughput; ``cert_ms_p90`` covers every operation.
    """
    passes = result["passes"]
    fastest = [min(solves) for solves in zip(*passes[:K_SOLVES])]
    every = [dt for latencies in passes for dt in latencies]
    return {
        "certs_per_s": (statistics.median(len(p) / math.fsum(p) for p in passes), "1/s"),
        "cert_ms_p50": (1e3 * statistics.median(fastest), "ms"),
        "cert_ms_p90": (1e3 * percentile(every, 0.9), "ms"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_run(workload, seed: int, out_dir: Path) -> dict:
    """Generate the pool traced; solve it untraced, traced, untraced again.

    The untraced time is the mean of the passes either side of the traced
    one, so an order effect does not land in the overhead.  Counts depend
    only on the seed, never on timing, so they repeat exactly.
    """
    tracer = spans.Tracer()
    with tracer:
        pool = workload.instances(seed)
    failures = []

    def solve_pool():
        t0 = perf_counter()
        for i, (instance, strategy) in enumerate(pool):
            tracer.op = i
            _run_op(workload, instance, strategy, failures)
        return perf_counter() - t0

    before = solve_pool()
    with tracer:
        traced = solve_pool()
    untraced = (before + solve_pool()) / 2.0
    path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return {
        "metrics": metrics,
        "attempted": 3 * len(pool),
        "failures": failures,
        "spans_path": path,
    }
