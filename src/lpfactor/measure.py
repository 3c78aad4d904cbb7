"""Atomic measure spaces, simple functions, Lp norms and support truncation.

Everything downstream works over a fixed finite partition: a measure space is
the ordered tuple of its atoms' nonnegative (possibly infinite) measures, and
a simple function assigns one real coefficient per atom.  The distinguished
value ``INFINITE`` (``math.inf``) is allowed as an atom measure; it is never
produced by arithmetic, and the measure-theoretic convention
``0 * INFINITE = 0`` is applied throughout.

Exponents live in [1, oo], finite ones as exact rationals (``Fraction``) so
that conjugation is an exact involution; float(p), 1/p and the conjugate,
shared by value, are fixed when an exponent is built.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import mul, truediv
from typing import Sequence, Union

INFINITE = math.inf

__all__ = [
    "INFINITE",
    "MeasureSpace",
    "Exponent",
    "SimpleFunction",
    "TruncationResult",
    "conjugate",
    "norm",
    "truncate_support",
]


def fsum_or_inf(terms) -> float:
    """math.fsum, saturating to INFINITE where doubles run out of range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return INFINITE


def l1_defect(defects: Sequence[float], measures: Sequence[float], mask) -> float:
    """The fsum of defect times measure over the masked atoms.

    The mask excludes null atoms before multiplying, so an overflowed defect
    never meets a zero measure as inf * 0.
    """
    return fsum_or_inf(map(mul, compress(defects, mask), compress(measures, mask)))


def pow_or_inf(base: float, expo: float) -> float:
    """base ** expo, saturating to INFINITE instead of raising on overflow."""
    try:
        return base**expo
    except OverflowError:
        return INFINITE


_NONNEGATIVE = (0.0).__le__  # False for NaN as well as for negatives


def check_eps(eps: float) -> None:
    """Raise ValueError unless 0 < eps < oo, the radius every edge accepts."""
    if not 0.0 < eps < INFINITE:  # NaN fails too
        raise ValueError("eps must be positive and finite")


# ---------------------------------------------------------------------------
# Measure spaces
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MeasureSpace:
    """A finite atomic measure space: its atoms' measures, in a fixed order.

    Parameters
    ----------
    measures : tuple of float
        One nonnegative measure per atom; ``INFINITE`` is allowed.
    """

    measures: tuple

    def __post_init__(self):
        measures = tuple(map(float, self.measures))
        object.__setattr__(self, "measures", measures)
        # min ignores a NaN that is not first, but a NaN makes the sum NaN.
        total = sum(measures)
        if min(measures, default=0.0) >= 0.0 and total == total:
            return
        if not all(map(_NONNEGATIVE, measures)):
            bad = next(m for m in measures if not m >= 0)
            raise ValueError(f"atom measure must be >= 0 or INFINITE, got {bad!r}")

    def __len__(self) -> int:
        return len(self.measures)

    @classmethod
    def counting(cls, n: int) -> "MeasureSpace":
        """Counting measure on n atoms; turns L_p into the sequence space l_p."""
        return cls((1.0,) * n)


# ---------------------------------------------------------------------------
# Exponents and conjugation
# ---------------------------------------------------------------------------
# The conjugate of each exponent value built so far; emptied at 256 entries.
_CONJUGATES: dict = {}


@dataclass(frozen=True)
class Exponent:
    """A norm exponent p in [1, oo].

    Finite values are normalized to exact ``Fraction``s (conversion from a
    float is exact), which makes ``conjugate(conjugate(p)) == p`` hold
    exactly rather than merely to rounding.  ``float(p)`` (in double range),
    the rounded ``1/p`` and the conjugate, shared by value, are fixed when built.
    They live in slots that are not dataclass fields, so ``value`` is the only
    field: ``dataclasses.asdict`` never walks the cycle p -> q -> p, and a
    pickle or copy rebuilds the exponent from its value.
    """

    __slots__ = ("value", "_float", "_inverse", "_conjugate")
    value: Union[Fraction, float]

    def __post_init__(self):
        v = self.value
        if isinstance(v, str):
            v = INFINITE if v == "inf" else Fraction(v)
        if not v >= 1:  # NaN and -oo as well
            raise ValueError(f"exponent must lie in [1, oo], got {v}")
        if v == INFINITE:
            v, inverse = INFINITE, 0.0
        else:
            v = Fraction(v)
            inverse = v.denominator / v.numerator  # 1/p, correctly rounded
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "_float", float(v))
        object.__setattr__(self, "_inverse", inverse)
        q = _CONJUGATES.get(v)
        if q is None:
            if len(_CONJUGATES) >= 256:
                _CONJUGATES.clear()
            conj = 1 if v == INFINITE else INFINITE if v == 1 else v / (v - 1)
            _CONJUGATES[conj] = self  # the partner built next finds self
            q = _CONJUGATES[v] = Exponent(conj)
        object.__setattr__(self, "_conjugate", q)

    def __reduce__(self):
        return Exponent, (self.value,)

    @property
    def is_infinite(self) -> bool:
        return self._float == INFINITE

    def __float__(self) -> float:
        return self._float

    def reciprocal(self) -> float:
        """1/p as a float, with 1/oo = 0."""
        return self._inverse

    def conjugate(self) -> "Exponent":
        return self._conjugate

    def to_json(self):
        if self.is_infinite:
            return "inf"
        return self._float


_L1 = Exponent(1)


def conjugate(p: Union[Exponent, float, int, Fraction]) -> Exponent:
    """The Hoelder conjugate q with 1/p + 1/q = 1.

    ``conjugate(1)`` is oo and ``conjugate(oo)`` is 1; the involution is exact
    because finite exponents are handled as rationals.  Calls share one object.
    """
    if not isinstance(p, Exponent):
        p = Exponent(p)
    return p._conjugate


# ---------------------------------------------------------------------------
# Simple functions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimpleFunction:
    """A simple function: one finite real coefficient per atom of a space."""

    space: MeasureSpace
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(map(float, self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.space):
            raise ValueError(
                f"{len(coeffs)} coefficients for {len(self.space)} atoms"
            )
        # A finite sum has finite terms; a sum of finite terms can still
        # overflow, so the scan decides when the sum is not finite.
        if not math.isfinite(sum(coeffs)) and not all(map(math.isfinite, coeffs)):
            bad = next(c for c in coeffs if not math.isfinite(c))
            raise ValueError(f"coefficients must be finite reals, got {bad!r}")

    def __len__(self) -> int:
        return len(self.coefficients)


def _same_space(f: SimpleFunction, g: SimpleFunction) -> None:
    if f.space is not g.space and f.space != g.space:
        raise ValueError("simple functions live on different measure spaces")


def _positions(values: Sequence, value) -> list:
    """The indices at which value occurs, found by C-level scans."""
    found, i = [], -1
    for _ in range(values.count(value)):
        i = values.index(value, i + 1)
        found.append(i)
    return found


def norm(f: SimpleFunction, p: Union[Exponent, float, int, Fraction]) -> float:
    """The L_p norm of a simple function.

    For finite p this is ``(sum |a_n|^p mu(A_n)) ** (1/p)`` with the
    convention ``0 * INFINITE = 0``; a nonzero coefficient on an
    INFINITE-measure atom makes the norm INFINITE, as does a norm beyond
    double range.  For p = oo it is the essential supremum: the largest
    |a_n| over atoms of positive measure.  For p > 1 the largest magnitude
    is factored out before raising to the power, and, should the measures
    still push the sum past the doubles, the largest measure as well, so
    intermediate overflow cannot occur when the norm itself is representable.
    """
    if not isinstance(p, Exponent):
        p = Exponent(p)
    return _norm(f.coefficients, f.space.measures, p)


def _norm(coeffs: Sequence[float], measures: Sequence[float], p: Exponent) -> float:
    """``norm`` on a coefficient tuple and the measures of its space."""
    # Measures are >= 0 and never NaN, so a measure is positive exactly when
    # it is truthy: the measures select the live atoms themselves.
    if p.is_infinite:
        return max(compress(map(abs, coeffs), measures), default=0.0)
    live = measures
    infinite = _positions(measures, INFINITE)
    if infinite:
        live = list(measures)
        for i in infinite:
            if coeffs[i] != 0.0:
                return INFINITE
            live[i] = False  # 0 * INFINITE = 0: the atom drops out
    mags = list(compress(map(abs, coeffs), live))
    live_measures = compress(measures, live)
    pf = float(p)
    if pf == 1.0:
        return fsum_or_inf(map(mul, mags, live_measures))
    scale = max(mags, default=0.0)
    if scale == 0.0:
        return 0.0
    ratios = map(truediv, mags, repeat(scale))
    total = fsum_or_inf(map(mul, map(pow, ratios, repeat(pf)), live_measures))
    if math.isinf(total):
        # Each term is at most its measure, so the measures overflowed the
        # sum: factor out the largest one on the support too.  The rescaled
        # sum lies in [1, n], and the product overflows only with the norm.
        live_measures = list(compress(measures, live))
        top = max(compress(live_measures, mags))
        ratios = map(truediv, mags, repeat(scale))
        shares = map(truediv, live_measures, repeat(top))
        total = math.fsum(map(mul, map(pow, ratios, repeat(pf)), shares))
        return scale * total ** (1.0 / pf) * top ** (1.0 / pf)
    return scale * total ** (1.0 / pf)


# Bounds below this leave a margin of 2^24 to the largest double, far more
# than the few roundings between a bound and the norm it dominates.
_SAFE_BOUND = 2.0**1000


def norm_is_finite(
    coeffs: Sequence[float], measures: Sequence[float], p: Exponent
) -> bool:
    """Whether the L_p norm of coefficients on these measures is finite.

    ``||f||_p^p <= max|a_n|^p * mu(supp f) <= |a|_2^p * mu(supp f)``, with
    |a|_2 the Euclidean length of the coefficient vector: when that bound
    sits well inside binary64 the norm is finite, which takes two C-level
    reductions, ``math.hypot`` and ``sum``.  Only when the bound fails (an
    INFINITE atom in the support, or magnitudes near the double range) is
    the norm itself computed, so the verdict is always exactly
    ``not isinf(norm(f, p))``.
    """
    if p.is_infinite:
        return True  # the largest of finitely many finite coefficients
    top = math.hypot(*coeffs)  # at least max |a_n|, and never overflows early
    support = sum(compress(measures, coeffs))
    if pow_or_inf(top, float(p)) * support < _SAFE_BOUND:
        return True
    return not math.isinf(_norm(coeffs, measures, p))


# ---------------------------------------------------------------------------
# Support truncation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TruncationResult:
    """A finite-measure set A on which f is bounded, with a small L1 tail.

    Fields
    ------
    kept_indices : tuple of int, the positions of the atoms of A in the space
    tail_value : float, the integral of |f| outside A
    sup_on_A : float, the largest |f| over A (0 for empty A)
    level : int, the threshold k with A = {1/k <= |f| <= k}
    """

    kept_indices: tuple
    tail_value: float
    sup_on_A: float
    level: int


_EXACT_CEIL = 2.0**52  # each integer up to this bound is a double


def _entry_level(t: float) -> int:
    """The smallest integer k >= 1 with 1/k <= t <= k, for t > 0.

    Exact: ceil on a float is exact, and for t < 1 the answer is the
    ceiling of 1/t, so it never suffers from rounding and never needs a
    correction walk (whose step count would be unbounded at extreme
    magnitudes).  Division rounds monotonically and the integers below 2^52
    are doubles, so a rounded 1/t that is not an integer has the ceiling of
    the exact one; otherwise the ceiling of an integer quotient decides.
    """
    if t >= 1.0:
        # 1/k <= 1 <= t holds for every k; only t <= k binds.
        return math.ceil(t)
    # t <= k holds for every k >= 1; only 1/k <= t, i.e. k >= 1/t, binds.
    r = 1.0 / t
    if r < _EXACT_CEIL:
        k = math.ceil(r)
        if k != r:
            return k
    num, den = t.as_integer_ratio()
    return -(-den // num)


def truncate_support(f: SimpleFunction, eps: float) -> TruncationResult:
    """Find A = {1/k <= |f| <= k} with integral of |f| outside A below eps.

    Uses the smallest k that satisfies the tail bound.  Requires f to be in
    L1 (finite 1-norm); eps must be positive.  The empty set is a valid
    result when the whole 1-norm is already below eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    coeffs = f.coefficients
    if not norm_is_finite(coeffs, f.space.measures, _L1):
        raise ValueError("truncation requires a function with finite 1-norm")
    # Atoms with |f| = 0 never satisfy 1/k <= |f| and never contribute tail;
    # a finite 1-norm keeps every other atom's |f| mu finite.
    support = list(compress(range(len(coeffs)), coeffs))
    mags = list(map(abs, compress(coeffs, coeffs)))
    shares = list(map(mul, mags, compress(f.space.measures, coeffs)))
    ceil = math.ceil  # _entry_level's answer for t >= 1, without the call
    entry = [ceil(t) if t >= 1.0 else _entry_level(t) for t in mags]
    order = sorted(range(len(entry)), key=entry.__getitem__)
    levels = list(map(entry.__getitem__, order))

    # suffix[i] is the tail left once the first i atoms (by level) are kept,
    # summed from the end.
    tail_order = reversed(list(map(shares.__getitem__, order)))
    suffix = list(accumulate(tail_order, initial=0.0))
    suffix.reverse()

    # k* is 1 if even tail(1) is small enough, otherwise the first entry
    # level whose inclusion brings the tail below eps.  tail(k) only drops
    # when k passes an entry level, so those are the only candidates.
    n = len(levels)
    chosen = 1
    i = kept_upto = bisect_right(levels, 1)
    if suffix[i] >= eps:
        while i < n:
            level = levels[i]
            j = bisect_right(levels, level, i)
            if suffix[j] < eps:
                chosen, kept_upto = level, j
                break
            i = j
        else:
            # Unreachable: the tail after the last entry level is 0 < eps.
            raise AssertionError("no truncation level found")
    kept = order[:kept_upto]
    return TruncationResult(
        kept_indices=tuple(sorted(map(support.__getitem__, kept))),
        tail_value=suffix[kept_upto],
        sup_on_A=max(map(mags.__getitem__, kept), default=0.0),
        level=chosen,
    )
