"""Factorization of a real number near a known product, with radius bounds.

This is the kernel every other solver calls once per atom: given x, y and a
target z with |z - xy| < rR/4, produce u, v with uv = z, |u - x| < r and
|v - y| < R.  Three constructions cover all cases, tried in a fixed order so
certificates are reproducible:

  1. |x| > r/4:  keep u = x, correct v = z/x.
  2. |y| > R/4:  keep v = y, correct u = z/y.
  3. both small: balance u = sqrt(|z| r / R), v = sqrt(|z| R / r) * sgn z.

Case 1 wins when both 1 and 2 apply; boundaries (|x| = r/4 exactly) fall
through to the next case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FeasibilityError

__all__ = ["ScalarBox", "ScalarFactorPair", "factor_scalar"]


@dataclass(frozen=True)
class ScalarBox:
    """A base point (x, y) and the per-factor radii (r, R) to stay within."""

    x: float
    y: float
    r: float
    R: float

    def __post_init__(self):
        if not (self.r > 0 and self.R > 0):
            raise ValueError("radii r and R must be positive")

    @property
    def reach(self) -> float:
        """The guaranteed half-width rR/4 around xy."""
        return self.r * self.R / 4.0


@dataclass(frozen=True)
class ScalarFactorPair:
    u: float
    v: float
    case: int  # which construction produced the pair (1, 2 or 3)


def _scaled_sqrt(mag: float, num: float, den: float) -> float:
    """sqrt(mag * num / den), robust to intermediate over/underflow."""
    if mag == 0.0:
        return 0.0
    for val in (mag * num / den, mag * (num / den), (mag / den) * num):
        if 0.0 < val < math.inf:
            return math.sqrt(val)
    # Exponent arithmetic as a last resort; saturates at the double range.
    try:
        return math.exp((math.log(mag) + math.log(num) - math.log(den)) / 2.0)
    except OverflowError:
        return math.inf


def _split(x: float, y: float, r: float, R: float, z: float):
    """The kernel on bare floats: (u, v, case), or None if |z - xy| < rR/4 fails.

    Allocates nothing beyond the result, so per-atom loops call it directly.
    """
    if not abs(z - x * y) < r * R / 4.0:
        return None
    if abs(x) > r / 4.0:
        return x, z / x, 1
    if abs(y) > R / 4.0:
        return z / y, y, 2
    mag = abs(z)
    u = _scaled_sqrt(mag, r, R)
    v = _scaled_sqrt(mag, R, r)
    if z < 0:
        v = -v
    elif z == 0:
        v = 0.0  # sgn 0 = 0, so the pair is (0, 0)
    return u, v, 3


def factor_scalar(box: ScalarBox, z: float) -> ScalarFactorPair:
    """Split z into u * v near (box.x, box.y).

    Requires |z - x*y| < r*R/4 strictly; raises FeasibilityError otherwise.
    The returned pair satisfies u*v = z (to rounding), |u - x| < r and
    |v - y| < R.
    """
    x, y, r, R = box.x, box.y, box.r, box.R
    pair = _split(x, y, r, R, z)
    if pair is None:
        raise FeasibilityError(
            abs(z - x * y), r * R / 4.0, context="scalar factorization"
        )
    return ScalarFactorPair(*pair)
