"""Command-line surface: solve, verify, generate and sweep.

Exit codes: 0 on success/pass, 1 on bad input (one line on stderr), 2 on a
feasibility error (the target is too far from the product), 3 on a
verification failure.  All payloads are flat JSON; floats serialize with
Python's shortest round-trip representation, so values survive a write/read
cycle exactly.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import acceptance
from .certificates import FactorizationCertificate
from .countable import factor_countable
from .errors import FeasibilityError
from .generate import InstanceSpec, gen_instance
from .instances import LpInstance, SeqInstance, instance_from_json, json_fields
from .instances import load_instance
from .lp import factor_general
from .scalar import ScalarBox, factor_scalar
from .sequences import STRATEGIES, factor_seq
from .verify import verify_certificate

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


def _emit(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_json(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    json_fields(data, what)  # ValueError unless an object
    return data


def _cmd_lemma1(args) -> int:
    pair = factor_scalar(ScalarBox(args.x, args.y, args.r, args.R), args.z)
    if args.json:
        _emit({"u": pair.u, "v": pair.v, "case": pair.case}, None)
    else:
        print(f"u = {pair.u!r}")
        print(f"v = {pair.v!r}")
        print(f"case = {pair.case}")
    return EXIT_OK


def _cmd_factor(args) -> int:
    data = _load_json(args.instance, "instance")
    if args.p is not None:
        data["p"] = "inf" if args.p == "inf" else float(args.p)
    if args.eps is not None:
        data["eps"] = args.eps
    if "p" not in data or "eps" not in data:
        print("instance file lacks p/eps; pass --p and --eps", file=sys.stderr)
        return EXIT_BAD_INPUT
    instance = instance_from_json(data)
    if not isinstance(instance, LpInstance):
        print("factor expects an LP instance; use factor-seq for sequences", file=sys.stderr)
        return EXIT_BAD_INPUT
    solver = factor_general if args.pipeline == "full" else factor_countable
    cert = solver(instance.f, instance.g, instance.h, instance.p, instance.eps)
    _emit(cert.to_json(), args.output)
    if args.emit_params:
        params = cert.params.to_json() if cert.params is not None else None
        _emit({"pipeline": args.pipeline, "params": params}, args.emit_params)
    return EXIT_OK


def _cmd_factor_seq(args) -> int:
    data = _load_json(args.instance, "instance")
    if args.eps is not None:
        data["eps"] = args.eps
    if "eps" not in data:
        print("instance file lacks eps; pass --eps", file=sys.stderr)
        return EXIT_BAD_INPUT
    data.setdefault("kind", "seq")
    instance = instance_from_json(data)
    if not isinstance(instance, SeqInstance):
        print("factor-seq expects a sequence instance", file=sys.stderr)
        return EXIT_BAD_INPUT
    cert = factor_seq(instance.x, instance.y, instance.z, instance.eps, args.strategy)
    _emit(cert.to_json(), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    cert = FactorizationCertificate.from_json(_load_json(args.certificate, "certificate"))
    report = verify_certificate(instance, cert)
    if args.json:
        _emit(report.to_json(), None)
    else:
        print(f"product max rel error: {report.product_max_rel_error!r}")
        print(f"u-side distance: {report.norm_u_dist!r} (radius {cert.radius_u!r})")
        print(f"v-side distance: {report.norm_v_dist!r} (radius {cert.radius_v!r})")
        print(f"verdict: {report.verdict}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        kind=args.kind,
        n=args.n,
        eps=args.eps,
        defect_fraction=args.defect_fraction,
        seed=args.seed,
        p=args.p if args.kind == "lp" else None,
        zero_fraction=args.zero_fraction,
        scale_min=args.scale_min,
        scale_max=args.scale_max,
        infinite_atoms=args.infinite_atoms,
    )
    instance = gen_instance(spec)
    _emit(instance.to_json(), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    numbers = None
    if args.criteria:
        numbers = []
        for chunk in args.criteria.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo, hi = chunk.split("-")
                numbers.extend(range(int(lo), int(hi) + 1))
            else:
                numbers.append(int(chunk))
    results = acceptance.run_all(numbers, seed=args.seed, fast=args.fast)
    if args.json:
        _emit({"results": [r.to_json() for r in results]}, None)
    else:
        for r in results:
            print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpfactor",
        description="Factorization of near-products with verifiable certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("lemma1", help="factor one scalar near a known product")
    for flag in ("x", "y", "r", "R", "z"):
        p1.add_argument(f"--{flag}", type=float, required=True)
    p1.add_argument("--json", action="store_true")
    p1.set_defaults(func=_cmd_lemma1)

    pf = sub.add_parser("factor", help="factor an LP instance")
    pf.add_argument("--instance", required=True)
    pf.add_argument("--p", default=None, help="exponent p in [1, oo]; 'inf' allowed")
    pf.add_argument("--eps", type=float, default=None)
    pf.add_argument(
        "--pipeline",
        choices=("countable", "full"),
        default="countable",
        help="countable (default) solves atom by atom; full runs truncation and "
        "quantization (factor_general)",
    )
    pf.add_argument("--output", default=None, help="certificate path (default stdout)")
    pf.add_argument("--emit-params", default=None, help="dump selected parameters to this path")
    pf.set_defaults(func=_cmd_factor)

    ps = sub.add_parser("factor-seq", help="factor a sequence instance")
    ps.add_argument("--instance", required=True)
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("--strategy", choices=STRATEGIES, default="finite")
    ps.add_argument("--output", default=None)
    ps.set_defaults(func=_cmd_factor_seq)

    pv = sub.add_parser("verify", help="verify a certificate against an instance")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--certificate", required=True)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_verify)

    pg = sub.add_parser("gen", help="generate a seeded feasible instance")
    pg.add_argument("--kind", choices=("lp", "seq"), default="lp")
    pg.add_argument("--n", type=int, default=16)
    pg.add_argument("--p", default=2.0)
    pg.add_argument("--eps", type=float, default=1.0)
    pg.add_argument("--defect-fraction", type=float, default=0.5)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--zero-fraction", type=float, default=0.1)
    pg.add_argument("--scale-min", type=float, default=1.0)
    pg.add_argument("--scale-max", type=float, default=1.0)
    pg.add_argument("--infinite-atoms", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=_cmd_gen)

    pw = sub.add_parser("sweep", help="run the acceptance criteria")
    pw.add_argument("--criteria", default=None, help="e.g. '1,3' or '1-4'")
    pw.add_argument("--seed", type=int, default=acceptance.BASE_SEED)
    pw.add_argument("--json", action="store_true")
    pw.add_argument("--fast", action="store_true", help="shrunk smoke-test volumes")
    pw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"infeasible: defect {exc.defect} >= bound {exc.bound}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
