"""Independent certificate verification.

Recomputes the product and both norm distances from scratch, using nothing
but the instance, the certificate and the norm definitions; no solver module
is imported here, so a verdict can never inherit a solver bug.  The product
comparison is relative with an absolute fallback for entries below 1, both
at the one tolerance ``PRODUCT_TOL``, which no certificate can set; the
norm comparisons are exact float comparisons against the promised radii,
strict or closed per the certificate's flags.  A NaN product, or a
difference that is not finite (an infinite distance), fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Union

from .certificates import FactorizationCertificate
from .instances import LpInstance, SeqInstance
from .measure import (
    INFINITE,
    SimpleFunction,
    all_finite,
    conjugate,
    fsum_or_inf,
    norm,
)

__all__ = ["VerificationReport", "verify_certificate"]

PRODUCT_TOL = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    product_max_rel_error: float
    norm_u_dist: float
    norm_v_dist: float
    product_ok: bool
    u_side_ok: bool
    v_side_ok: bool
    constant_used: float

    @property
    def passed(self) -> bool:
        return self.product_ok and self.u_side_ok and self.v_side_ok

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "product_max_rel_error": self.product_max_rel_error,
            "norm_u_dist": self.norm_u_dist,
            "norm_v_dist": self.norm_v_dist,
            "bounds_respected": {
                "u_side": self.u_side_ok,
                "v_side": self.v_side_ok,
                "product": self.product_ok,
            },
            "constant_used": self.constant_used,
            "verdict": self.verdict,
        }


def _product_error(u, v, target) -> float:
    worst = 0.0
    for a, b, t in zip(u, v, target):
        err = abs(a * b - t)
        if err == 0.0:
            continue
        scale = abs(t)
        rel = err / scale if scale > 1.0 else err
        if not rel <= worst:
            if rel != rel:  # a NaN product fails outright
                return rel
            worst = rel
    return worst


def _within(dist: float, radius: float, strict: bool) -> bool:
    return dist < radius if strict else dist <= radius


def _verify_lp(instance: LpInstance, certificate: FactorizationCertificate):
    n = len(instance.space)
    if len(certificate.u) != n or len(certificate.v) != n:
        raise ValueError(
            f"certificate length {len(certificate.u)} does not match "
            f"the {n}-atom instance"
        )
    space = instance.space
    prod_err = _product_error(certificate.u, certificate.v, instance.h.coefficients)
    du = tuple(map(sub, certificate.u, instance.f.coefficients))
    dv = tuple(map(sub, certificate.v, instance.g.coefficients))
    q = conjugate(instance.p)
    return prod_err, _distance(space, du, instance.p), _distance(space, dv, q)


def _distance(space, diffs: tuple, p) -> float:
    """The L_p norm of a difference; INFINITE if one overflowed or is NaN."""
    if not all_finite(diffs):
        return INFINITE
    # The rest of the constructor's check cannot fail: diffs is a tuple of
    # floats (a difference with a float is one), and _verify_lp matched its
    # length to the space.
    return norm(SimpleFunction._trusted(space, diffs), p)


def _verify_seq(instance: SeqInstance, certificate: FactorizationCertificate):
    xs, ys, zs = instance.padded()
    if len(certificate.u) < len(xs):
        raise ValueError("certificate is shorter than the instance prefix")
    m = max(len(xs), len(certificate.u))
    ext = lambda s: tuple(s) + (0.0,) * (m - len(s))
    xs, ys, zs = ext(xs), ext(ys), ext(zs)
    cu, cv = ext(certificate.u), ext(certificate.v)
    prod_err = _product_error(cu, cv, zs)
    dist_u = fsum_or_inf(map(abs, map(sub, cu, xs)))
    dist_v = max(map(abs, map(sub, cv, ys)), default=0.0)
    if prod_err != prod_err:  # a NaN factor, whose difference max may drop
        if any(map(math.isnan, map(sub, cu, xs))):
            dist_u = INFINITE
        if any(map(math.isnan, map(sub, cv, ys))):
            dist_v = INFINITE
    return prod_err, dist_u, dist_v


def verify_certificate(
    instance: Union[LpInstance, SeqInstance],
    certificate: FactorizationCertificate,
) -> VerificationReport:
    """Check a certificate against its instance by recomputation.

    Raises ValueError on a shape mismatch between certificate and instance.
    """
    if isinstance(instance, LpInstance):
        prod_err, dist_u, dist_v = _verify_lp(instance, certificate)
    elif isinstance(instance, SeqInstance):
        prod_err, dist_u, dist_v = _verify_seq(instance, certificate)
    else:
        raise ValueError(f"unknown instance type {type(instance).__name__}")
    return VerificationReport(
        product_max_rel_error=prod_err,
        norm_u_dist=dist_u,
        norm_v_dist=dist_v,
        product_ok=prod_err <= PRODUCT_TOL,
        u_side_ok=_within(dist_u, certificate.radius_u, certificate.strict_u),
        v_side_ok=_within(dist_v, certificate.radius_v, certificate.strict_v),
        constant_used=instance.feasibility_bound(),
    )
