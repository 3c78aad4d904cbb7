#!/usr/bin/env python3
"""lpfactor benchmark: time to a verified certificate.

    python3 bench/run.py --workload lp-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout; the program is imported from its ``src`` directory.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _load_program():
    """Import lpfactor from this checkout's src, or None if it is not there."""
    if not (SRC / "lpfactor" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lpfactor

    if Path(lpfactor.__file__).resolve().parent != SRC / "lpfactor":
        return None
    return lpfactor


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value!r} {unit}")


def main(argv=None, workloads=None) -> int:
    if _load_program() is None:
        print(f"error: no lpfactor sources under {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workloads = workloads or WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads[args.workload]

    print(f"# workload {workload.name}")
    print(f"# seed {args.seed}, {args.seconds} s, trace {args.trace}, python "
          f"{platform.python_version()}, {os.cpu_count()} cpus")
    if args.trace:
        result = harness.trace_run(workload, args.seed, harness.ROOT / ".bench_out")
        metrics, attempted = result["metrics"], result["attempted"]
        _print_metrics(metrics)
        print(f"# spans written to {result['spans_path']}")
    else:
        result = harness.timed_run(workload, args.seed, args.seconds)
        metrics = harness.end_to_end(result)
        attempted = sum(len(p) for p in result["passes"])
        _print_metrics(metrics)
        print(f"{'samples':44s} {attempted} count ({len(result['passes'])} "
              f"passes over {result['pool']} instances; p50 over the fastest "
              f"of each instance's first {harness.K_SOLVES} solves)")
        print(f"{'cert_sha256':44s} {result['digest']} "
              f"(first pass, {result['pool']} certificates)")
    failed = len(result["failures"])
    print(f"{'fail_frac':44s} {failed / attempted!r} frac ({failed}/{attempted})")
    for text in result["failures"][:3]:
        print(text, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
