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

``factor_scalar`` is the public kernel for one atom, and ``_split`` its body
on bare floats.  ``countable._solve``, the one solve of ``factor_countable``
and both ``factor_seq`` schemes, runs the per-atom loop ``_split_atoms`` on
flat inputs the scheme's split already holds: the working indices, their
defects |z - xy| and the radii (r, R), each computed by that scheme's own
radius rule.  The loop tests feasibility against the defect it is given and
case 1 inline, and calls ``_split`` for cases 2 and 3.  Where rounding
starves the float radii, ``_checked_pair`` checks the same three
constructions exactly against rational lower bounds of the radii.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def _split_atoms(xs, ys, zs, working, defects, rs, big_rs, exact_radii, label, u, v):
    """Split z = uv at each working atom, writing u[i] and v[i].

    The one per-atom loop, run by ``countable._solve`` for every scheme.
    ``working``, ``defects``, ``rs`` and ``big_rs`` run in step: atom i,
    its defect |z - xy|, which the split already holds, and its radii
    (r, R).  u and v hold x and y at the working atoms on entry, so case 1
    only writes v; cases 2 and 3 go through ``_split``.
    Where the float radii starve the kernel, ``_checked_pair`` takes
    ``exact_radii(d, R)``: rational lower bounds of the true radii.
    """
    inf = math.inf
    for i, d, r, big_r in zip(working, defects, rs, big_rs):
        x = xs[i]
        if 0.0 < r < inf and 0.0 < big_r < inf and d < r * big_r / 4.0:
            if abs(x) > r / 4.0:
                v[i] = zs[i] / x
            else:
                u[i], v[i], _ = _split(x, ys[i], r, big_r, zs[i])
            continue
        r_low, big_low = exact_radii(d, big_r)
        u[i], v[i] = _checked_pair(x, ys[i], zs[i], r_low, big_low, f"{label} {i}")


def _checked_pair(x: float, y: float, z: float, r: Fraction, R: Fraction, context: str):
    """The first construction with |u - x| < r and |v - y| < R, exactly.

    The candidates are exact division by x, then by y, then the balanced
    split (u from logarithms of the exact |z| r / R, v = z / u).  Raises
    FeasibilityError, naming ``context``, when none is within both radii.
    """
    candidates = []
    if x != 0.0:
        candidates.append((x, z / x))
    if y != 0.0:
        candidates.append((z / y, y))
    ratio = Fraction(abs(z)) * r / R
    if ratio > 0:
        log_u = (math.log(ratio.numerator) - math.log(ratio.denominator)) / 2.0
        # Clamp u to the doubles; the exact check decides.  A larger u (up
        # to r/2) gives a smaller |v|, so rounding an underflowed u up is safe.
        u = max(math.exp(min(log_u, 709.78)), 5e-324)
        candidates.append((u, z / u))
    for u, v in candidates:
        if all(
            math.isfinite(a) and abs(Fraction(a) - Fraction(b)) < radius
            for a, b, radius in ((u, x, r), (v, y, R))
        ):
            return u, v
    try:
        bound = float(r * R / 4)
    except OverflowError:
        bound = math.inf
    raise FeasibilityError(abs(z - x * y), bound, context=context)


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
