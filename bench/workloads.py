"""The benchmark's workloads: seeded instance pools and one checked operation.

Every workload draws its whole instance pool from ``--seed`` before timing
starts, so the solvers only ever see ready-made inputs, and the same seed
always yields the same pool.  One operation is one solve followed by
``verify_certificate`` and the workload's own promise checks; any exception,
rejected certificate or broken promise counts as a failed operation.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from lpfactor import generate, lp, sequences, verify
from lpfactor.generate import InstanceSpec

PS = (1, 1.5, 2, 3, "inf")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass(frozen=True)
class Workload:
    """A named instance mix.

    ``pool`` instances are generated per run and cycled through, in whole
    passes, by the timed loop.  The traced run solves the pool three times:
    untraced, traced and untraced again.
    """

    name: str
    n: int
    pool: int
    spec: Callable[[random.Random, int, int], tuple]
    solve: Callable

    def instances(self, seed: int) -> list:
        """The pool as (instance, strategy) pairs; strategy is None for LP."""
        rng = random.Random(f"lpfactor-bench:{self.name}:{seed}")
        pool = []
        for i in range(self.pool):
            spec, strategy = self.spec(rng, i, self.n)
            pool.append((generate.gen_instance(spec), strategy))
        return pool


def _lp_sweep_spec(rng: random.Random, i: int, n_max: int):
    # Blocks of five alternate between the two halves of the acceptance
    # mix, so every exponent appears in both.
    scaled = (i // len(PS)) % 2 == 1
    return (
        InstanceSpec(
            kind="lp",
            n=rng.randint(1, n_max),
            eps=1.0 if scaled else _log_uniform(rng, 0.25, 4.0),
            defect_fraction=rng.uniform(0.05, 0.99),
            seed=rng.getrandbits(32),
            p=PS[i % len(PS)],
            scale_min=1e3 if scaled else 1.0,
            scale_max=1e6 if scaled else 1.0,
        ),
        None,
    )


def _lp_5k_spec(rng: random.Random, i: int, n: int):
    return (
        InstanceSpec(
            kind="lp",
            n=n,
            eps=_log_uniform(rng, 0.25, 4.0),
            defect_fraction=rng.uniform(0.05, 0.99),
            seed=rng.getrandbits(32),
            p=PS[i % len(PS)],
            infinite_atoms=2,
        ),
        None,
    )


def _seq_spec(rng: random.Random, i: int, n: int):
    return (
        InstanceSpec(
            kind="seq",
            n=n,
            eps=_log_uniform(rng, 0.25, 4.0),
            defect_fraction=rng.uniform(0.05, 0.99),
            seed=rng.getrandbits(32),
        ),
        ("finite", "tail")[i % 2],
    )


def solve_lp(instance, strategy):
    """factor_general, verified; both sides must be promised strictly."""
    cert = lp.factor_general(
        instance.f, instance.g, instance.h, instance.p, instance.eps
    )
    report = verify.verify_certificate(instance, cert)
    ok = report.passed and cert.strict_u and cert.strict_v
    return cert, ok


def solve_seq(instance, strategy):
    """factor_seq, verified, with the criterion-3 sup bound of its scheme."""
    cert = sequences.factor_seq(
        instance.x, instance.y, instance.z, instance.eps, strategy
    )
    report = verify.verify_certificate(instance, cert)
    eps = instance.eps
    if strategy == "finite":
        sup_ok = report.norm_v_dist <= eps / 2.0
    else:
        eta = 2.0 * math.sqrt(instance.defect())
        sup_ok = report.norm_v_dist <= eta < eps / 2.0
    ok = report.passed and cert.strict_u and cert.strict_v and sup_ok
    return cert, ok


# Pools are sized so that, on a 2-core Xeon, the K_SOLVES = 12 passes the
# timed loop needs take 20 to 30 s, and the traced run's three passes take
# no longer than a timed run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lp-sweep",
            n=50,
            pool=2500,
            spec=_lp_sweep_spec,
            solve=solve_lp,
        ),
        Workload(
            name="lp-5k",
            n=5000,
            pool=20,
            spec=_lp_5k_spec,
            solve=solve_lp,
        ),
        Workload(
            name="seq-2k",
            n=2000,
            pool=20,
            spec=_seq_spec,
            solve=solve_seq,
        ),
    )
}
