"""Seeded generation of feasible instances with an exact target defect.

Instances are drawn from a deterministic PRNG (``random.Random``), then the
perturbation that turns the product into the target is rescaled so the L1
(or l1) defect lands exactly on ``defect_fraction`` times the feasibility
bound of the instance kind.  The same spec therefore always produces the
same instance, byte for byte.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from .instances import LpInstance, SeqInstance
from .measure import INFINITE, Exponent, MeasureSpace, SimpleFunction, check_eps, norm

__all__ = ["InstanceSpec", "gen_instance"]


@dataclass(frozen=True)
class InstanceSpec:
    """What to generate: kind, size, exponent, radius, defect and seed.

    defect_fraction must lie strictly inside (0, 1): the generated defect is
    that fraction of eps^2/4 (LP) or eps^2/16 (sequences).  zero_fraction is
    the chance of a null atom; scale_min/scale_max, when set above 1, draw a
    log-uniform target norm for f (in L_p) and g (in L_q) and rescale both
    while keeping the defect target unchanged, which is what a uniform
    openness stress needs.  infinite_atoms appends that many atoms of
    INFINITE measure on which every function vanishes (except g when p = 1,
    where essential boundedness allows any value).
    """

    kind: str
    n: int
    eps: float
    defect_fraction: float
    seed: int
    p: Optional[Union[float, str]] = None
    zero_fraction: float = 0.1
    scale_min: float = 1.0
    scale_max: float = 1.0
    infinite_atoms: int = 0

    def __post_init__(self):
        if self.kind not in ("lp", "seq"):
            raise ValueError("kind must be 'lp' or 'seq'")
        if not 0.0 < self.defect_fraction < 1.0:
            raise ValueError("defect_fraction must lie strictly in (0, 1)")
        if self.n < 1:
            raise ValueError("need at least one atom")
        check_eps(self.eps)
        if self.kind == "lp" and self.p is None:
            raise ValueError("LP instances need an exponent p")


def _rescaled(values, rng, lo, hi, expo, measures=None):
    """Scale values so their L_expo norm hits a log-uniform draw in [lo, hi]."""
    if hi <= 1.0 and lo <= 1.0:
        return values
    target = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    if measures is None:
        current = math.fsum(abs(c) for c in values)  # only used for l1
    else:
        current = norm(SimpleFunction(MeasureSpace(measures), tuple(values)), expo)
    if current == 0.0 or math.isinf(current):
        return values
    factor = target / current
    return [c * factor for c in values]


def gen_instance(spec: InstanceSpec) -> Union[LpInstance, SeqInstance]:
    rng = random.Random(spec.seed)
    if spec.kind == "seq":
        return _gen_seq(spec, rng)
    return _gen_lp(spec, rng)


def _gen_seq(spec: InstanceSpec, rng: random.Random) -> SeqInstance:
    n = spec.n
    x = [rng.uniform(-3.0, 3.0) if rng.random() > 0.1 else 0.0 for _ in range(n)]
    y = [rng.uniform(-3.0, 3.0) if rng.random() > 0.1 else 0.0 for _ in range(n)]
    x = _rescaled(x, rng, spec.scale_min, spec.scale_max, Exponent(1))
    pert = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    if not any(pert):
        pert[0] = 1.0
    raw = math.fsum(abs(d) for d in pert)
    target = spec.defect_fraction * spec.eps * spec.eps / 16.0
    scale = target / raw
    z = [a * b + scale * d for a, b, d in zip(x, y, pert)]
    return SeqInstance(x=tuple(x), y=tuple(y), z=tuple(z), eps=spec.eps)


def _gen_lp(spec: InstanceSpec, rng: random.Random) -> LpInstance:
    n = spec.n
    p = Exponent(spec.p)
    q = p.conjugate()
    measures = []
    for _ in range(n):
        measures.append(0.0 if rng.random() < spec.zero_fraction else rng.uniform(0.05, 10.0))
    if not any(m > 0 for m in measures):
        measures[0] = rng.uniform(0.05, 10.0)
    f = [rng.uniform(-3.0, 3.0) if rng.random() > 0.1 else 0.0 for _ in range(n)]
    g = [rng.uniform(-3.0, 3.0) if rng.random() > 0.1 else 0.0 for _ in range(n)]
    f = _rescaled(f, rng, spec.scale_min, spec.scale_max, p, measures)
    g = _rescaled(g, rng, spec.scale_min, spec.scale_max, q, measures)

    # Rescale the perturbation so the positive-measure atoms carry exactly
    # the target defect; null atoms may still be perturbed (for free).
    pert = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    raw = math.fsum(abs(d) * m for d, m in zip(pert, measures) if m > 0)
    if raw == 0.0:
        i = next(i for i, m in enumerate(measures) if m > 0)
        pert[i] = 1.0
        raw = measures[i]
    target = spec.defect_fraction * spec.eps * spec.eps / 4.0
    scale = target / raw
    h = [a * b + scale * d for a, b, d in zip(f, g, pert)]

    for _ in range(spec.infinite_atoms):
        measures.append(INFINITE)
        f.append(0.0)
        g.append(rng.uniform(-3.0, 3.0) if q.is_infinite else 0.0)
        h.append(0.0)
    space = MeasureSpace(measures)
    return LpInstance(
        f=SimpleFunction(space, tuple(f)),
        g=SimpleFunction(space, tuple(g)),
        h=SimpleFunction(space, tuple(h)),
        p=p,
        eps=spec.eps,
    )
