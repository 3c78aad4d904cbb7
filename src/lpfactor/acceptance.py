"""The acceptance sweep: quantitative reproduction of every guarantee.

Each ``criterion_N`` measures one guarantee and returns its failures, its
total and a detail line.  ``CRITERIA`` is the sweep's one table: each number
maps to its runner, name, runtime bound and smoke volume, and
``run_criterion`` is the one place that times a runner, applies its bound and
builds the ``CriterionResult``.  The ``sweep`` CLI subcommand and the pytest
acceptance module both go through it.  All randomness is seeded, so reruns
are reproducible.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .certificates import FactorizationCertificate
from .errors import FeasibilityError
from .generate import InstanceSpec, gen_instance
from .instances import LpInstance
from .lp import factor_general
from .measure import MeasureSpace, SimpleFunction, Exponent
from .scalar import ScalarBox, factor_scalar
from .sequences import factor_seq, tail_weights
from .countable import factor_countable
from .verify import verify_certificate

__all__ = ["Criterion", "CriterionResult", "run_criterion", "run_all", "CRITERIA"]

BASE_SEED = 0x1F5EED

# What a criterion measured: failures, total and a detail line.
Measured = Tuple[int, int, str]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    failures: int = 0
    total: int = 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number} [{status}] {self.name}: {self.detail} "
            f"({self.seconds:.2f} s)"
        )

    def to_json(self) -> dict:
        payload = asdict(self)
        return {"criterion": payload.pop("number"), **payload}


# ---------------------------------------------------------------------------
# 1. Scalar kernel sweep
# ---------------------------------------------------------------------------
def criterion_1(seed: int = BASE_SEED) -> Measured:
    """Full grid sweep of the scalar kernel with strict radius checks."""
    rng = random.Random(seed)
    grid = [i * 0.25 - 3.0 for i in range(25)]
    radii = (0.5, 1.0, 2.0)
    failures = 0
    total = 0
    for x in grid:
        for y in grid:
            base = x * y
            for r in radii:
                for R in radii:
                    reach = r * R / 4.0
                    box = ScalarBox(x, y, r, R)
                    for _ in range(50):
                        t = rng.random()
                        while t == 0.0:
                            t = rng.random()
                        z = base + (2.0 * t - 1.0) * reach
                        total += 1
                        try:
                            pair = factor_scalar(box, z)
                        except FeasibilityError:
                            failures += 1
                            continue
                        err = abs(pair.u * pair.v - z)
                        ok = (
                            (err <= 1e-12 * abs(z) if z != 0.0 else err == 0.0)
                            and abs(pair.u - x) < r
                            and abs(pair.v - y) < R
                        )
                        if not ok:
                            failures += 1
    return failures, total, f"{total} calls, {failures} failures"


# ---------------------------------------------------------------------------
# 2. L_p pipeline at the eps^2/4 constant, and
# 4. uniformity: norms scaled to [1e3, 1e6], eps pinned at 1
# ---------------------------------------------------------------------------
def _lp_sweep(seed: int, per_p: int, scaled: bool) -> Measured:
    ps = (1, 1.5, 2, 3)
    total = per_p * len(ps)

    def one(i: int) -> int:
        p = ps[i % len(ps)]
        knobs = random.Random(seed + 7919 * i)
        spec = InstanceSpec(
            kind="lp",
            n=knobs.randint(1, 50),
            eps=1.0 if scaled else math.exp(knobs.uniform(math.log(0.25), math.log(4.0))),
            defect_fraction=knobs.uniform(0.05, 0.99),
            seed=seed + 104729 + i,
            p=p,
            scale_min=1e3 if scaled else 1.0,
            scale_max=1e6 if scaled else 1.0,
        )
        instance = gen_instance(spec)
        cert = factor_general(instance.f, instance.g, instance.h, instance.p, instance.eps)
        ok = cert.strict_u and cert.strict_v and verify_certificate(instance, cert).passed
        return 0 if ok else 1

    failures = sum(map(one, range(total)))
    return failures, total, f"{total} instances across p in {ps}, {failures} failures"


def criterion_2(seed: int = BASE_SEED, per_p: int = 10000) -> Measured:
    return _lp_sweep(seed, per_p, scaled=False)


def criterion_4(seed: int = BASE_SEED, per_p: int = 10000) -> Measured:
    return _lp_sweep(seed + 2, per_p, scaled=True)


# ---------------------------------------------------------------------------
# 3. Sequence pipeline at the eps^2/16 constant
# ---------------------------------------------------------------------------
def criterion_3(seed: int = BASE_SEED, count: int = 10000) -> Measured:
    def one(i: int) -> int:
        knobs = random.Random(seed + 15485863 + 13 * i)
        spec = InstanceSpec(
            kind="seq",
            n=knobs.randint(1, 100),
            eps=math.exp(knobs.uniform(math.log(0.25), math.log(4.0))),
            defect_fraction=knobs.uniform(0.05, 0.99),
            seed=seed + 32452843 + i,
        )
        instance = gen_instance(spec)
        eps = instance.eps
        bad = 0
        for strategy in ("finite", "tail"):
            cert = factor_seq(instance.x, instance.y, instance.z, eps, strategy)
            report = verify_certificate(instance, cert)
            if not report.passed:
                bad += 1
                continue
            if strategy == "finite":
                if not report.norm_v_dist <= eps / 2.0:
                    bad += 1
            else:
                eta = 2.0 * math.sqrt(instance.defect())
                if not (report.norm_v_dist <= eta and eta < eps / 2.0):
                    bad += 1
        return bad

    failures = sum(map(one, range(count)))
    return (
        failures,
        count * 2,
        f"{count} instances x 2 strategies, {failures} failures; "
        "sup bounds eps/2 (finite) and eta (tail) enforced",
    )


# ---------------------------------------------------------------------------
# 5. Tail-weight bound
# ---------------------------------------------------------------------------
def criterion_5(seed: int = BASE_SEED, count: int = 1000) -> Measured:
    rng = random.Random(seed + 5)
    failures = 0
    for _ in range(count):
        n = rng.randint(1, 200)
        a = [0.0 if rng.random() < 0.3 else rng.uniform(0.0, 5.0) for _ in range(n)]
        if not any(x > 0 for x in a):
            a[rng.randrange(n)] = rng.uniform(0.1, 5.0)
        tw = tail_weights(a)
        slack = 2.0 * tw.w[0] - tw.weighted_sum()
        if not slack >= -1e-12:
            failures += 1
    return failures, count, f"{count} sequences, {failures} failures, slack floor -1e-12"


# ---------------------------------------------------------------------------
# 6. Closed ball on the v side for p = 1
# ---------------------------------------------------------------------------
def criterion_6(seed: int = BASE_SEED) -> Measured:
    space = MeasureSpace([1.0])
    instance = LpInstance(
        f=SimpleFunction(space, (1.0,)),
        g=SimpleFunction(space, (0.0,)),
        h=SimpleFunction(space, (0.2,)),
        p=Exponent(1),
        eps=1.0,
    )
    # A hand-built certificate whose v-side distance sits exactly on eps.
    boundary_closed = FactorizationCertificate(
        u=(0.2,), v=(1.0,), radius_u=1.0, radius_v=1.0, strict_v=False
    )
    boundary_open = FactorizationCertificate(
        u=(0.2,), v=(1.0,), radius_u=1.0, radius_v=1.0, strict_v=True
    )
    closed_report = verify_certificate(instance, boundary_closed)
    open_report = verify_certificate(instance, boundary_open)
    solver_cert = factor_countable(
        instance.f, instance.g, instance.h, instance.p, instance.eps
    )
    solver_report = verify_certificate(instance, solver_cert)
    p2_cert = factor_countable(
        instance.f, instance.g, instance.h, Exponent(2), instance.eps
    )
    checks = [
        closed_report.passed,
        closed_report.norm_v_dist == 1.0,
        not open_report.passed,
        open_report.u_side_ok and open_report.product_ok,  # only the ball type flips
        solver_cert.strict_v is False,
        solver_report.passed,
        p2_cert.strict_v is True,
    ]
    failures = len([c for c in checks if not c])
    return failures, len(checks), f"{len(checks)} contract checks, {failures} failures"


# ---------------------------------------------------------------------------
# 7. Verifier independence under tampering
# ---------------------------------------------------------------------------
def _tamper_target(instance, cert, rng) -> Optional[int]:
    """An index whose factors are both nonzero on a positive-measure atom."""
    if isinstance(instance, LpInstance):
        measures = instance.space.measures
    else:
        measures = (1.0,) * len(cert.u)
    candidates = [
        i
        for i, (a, b) in enumerate(zip(cert.u, cert.v))
        if a != 0.0 and b != 0.0 and measures[i] > 0
    ]
    if not candidates:
        return None
    return rng.choice(candidates)


def criterion_7(seed: int = BASE_SEED, count: int = 1000) -> Measured:
    """Honest certificates pass, tampered ones fail; total counts the tampered."""
    rng = random.Random(seed + 7)
    failures = 0
    accepted_tampered = 0
    examined = 0
    for i in range(count):
        if i % 2 == 0:
            spec = InstanceSpec(
                kind="lp",
                n=rng.randint(2, 40),
                eps=1.0,
                defect_fraction=rng.uniform(0.1, 0.9),
                seed=seed + 400_000 + i,
                p=rng.choice([1, 1.5, 2, 3]),
            )
            instance = gen_instance(spec)
            cert = factor_general(
                instance.f, instance.g, instance.h, instance.p, instance.eps
            )
        else:
            spec = InstanceSpec(
                kind="seq",
                n=rng.randint(2, 60),
                eps=1.0,
                defect_fraction=rng.uniform(0.1, 0.9),
                seed=seed + 500_000 + i,
            )
            instance = gen_instance(spec)
            cert = factor_seq(instance.x, instance.y, instance.z, instance.eps)
        if not verify_certificate(instance, cert).passed:
            failures += 1
            continue
        idx = _tamper_target(instance, cert, rng)
        if idx is None:
            continue
        examined += 1
        side = rng.choice(("u", "v"))
        u = list(cert.u)
        v = list(cert.v)
        if side == "u":
            u[idx] *= 1.0 + 1e-3
        else:
            v[idx] *= 1.0 + 1e-3
        tampered = replace(cert, u=u, v=v)
        if verify_certificate(instance, tampered).passed:
            accepted_tampered += 1
    return (
        accepted_tampered + failures,
        examined,
        f"{examined} tampered certificates, {accepted_tampered} wrongly accepted, "
        f"{failures} honest certificates rejected",
    )


class Criterion(NamedTuple):
    run: Callable[..., Measured]
    name: str
    bound: Optional[int]  # runtime bound in seconds, or None
    smoke: Dict[str, int]  # keyword volumes for ``fast`` runs


CRITERIA = {
    1: Criterion(criterion_1, "scalar kernel sweep", 5, {}),
    2: Criterion(criterion_2, "L_p factorization at eps^2/4", 60, {"per_p": 100}),
    3: Criterion(criterion_3, "l1 x c0 factorization at eps^2/16", None, {"count": 100}),
    4: Criterion(
        criterion_4, "uniformity under norm scaling (eps fixed at 1)", None, {"per_p": 100}
    ),
    5: Criterion(criterion_5, "tail-weight sum bound", None, {"count": 100}),
    6: Criterion(criterion_6, "closed v-side ball for countably-valued p = 1", None, {}),
    7: Criterion(criterion_7, "verifier rejects tampered certificates", None, {"count": 60}),
}


def run_criterion(number: int, seed: int = BASE_SEED, fast: bool = False) -> CriterionResult:
    """Time one criterion and judge it: no failures, a nonzero total, in its bound.

    ``fast`` runs the criterion at its smoke volume.
    """
    entry = CRITERIA[number]
    start = time.perf_counter()
    failures, total, detail = entry.run(seed=seed, **(entry.smoke if fast else {}))
    seconds = time.perf_counter() - start
    in_time = True
    if entry.bound is not None:
        in_time = seconds < entry.bound
        detail += f", runtime bound {entry.bound} s"
    passed = failures == 0 and total > 0 and in_time
    return CriterionResult(number, entry.name, passed, detail, seconds, failures, total)


def run_all(
    numbers: Optional[Iterable[int]] = None,
    seed: int = BASE_SEED,
    fast: bool = False,
) -> List[CriterionResult]:
    numbers = sorted(set(numbers) if numbers else CRITERIA.keys())
    return [run_criterion(n, seed=seed, fast=fast) for n in numbers]
