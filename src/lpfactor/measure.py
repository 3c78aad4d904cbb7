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
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from operator import add, le, mul, truediv
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


def all_finite(values: Sequence[float]) -> bool:
    """Whether every float in values is finite.

    A finite sum has finite terms; a sum of finite terms can still
    overflow, so the scan decides when the sum is not finite.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


_NONNEGATIVE = (0.0).__le__  # False for NaN as well as for negatives


def check_eps(eps: float) -> None:
    """Raise ValueError unless 0 < eps < oo, the radius every edge accepts."""
    if not 0.0 < eps < INFINITE:  # NaN fails too
        raise ValueError("eps must be positive and finite")


def defect_bound(eps: float) -> float:
    """eps^2/4, the bound ||h - fg||_1 stays strictly below at radius eps.

    l1 x c0 at eps is L_1 x L_oo at eps/2, so its eps^2/16 is this at eps/2.
    """
    return (eps / 2.0) * (eps / 2.0)  # eps * eps overflows before the bound


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
    def _trusted(cls, measures: tuple) -> "MeasureSpace":
        """The space on measures already checked: a tuple of floats >= 0.

        Skips the constructor's scans; each caller says why they cannot fail.
        """
        space = object.__new__(cls)
        object.__setattr__(space, "measures", measures)
        return space

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
        if not all_finite(coeffs):
            bad = next(c for c in coeffs if not math.isfinite(c))
            raise ValueError(f"coefficients must be finite reals, got {bad!r}")

    def __len__(self) -> int:
        return len(self.coefficients)

    @classmethod
    def _trusted(cls, space: MeasureSpace, coefficients: tuple) -> "SimpleFunction":
        """The function of coefficients already checked: a tuple of finite
        floats, one per atom of ``space``.

        Skips the constructor's scans; each caller says why they cannot fail.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "space", space)
        object.__setattr__(f, "coefficients", coefficients)
        return f


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

    ``truncate_support`` also leaves A as a mask over every atom of the
    space, a list of bools, in ``_kept_mask``: not a field, so equality,
    ``repr`` and ``asdict`` see only the four above.
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

    Linear in the atoms apart from sorting the distinct entry levels: one
    pass groups the shares |f| mu by the level at which their atom enters
    A.  The tail is then summed from the top level down, each level's
    shares from the highest index down, for as long as it stays below eps:
    k is the last level the walk reaches, and the tail the sum of the
    shares above k.  A is the mask of entry levels up to k.
    """
    if not eps > 0:  # NaN fails too
        raise ValueError("eps must be positive")
    coeffs = f.coefficients
    if not norm_is_finite(coeffs, f.space.measures, _L1):
        raise ValueError("truncation requires a function with finite 1-norm")
    # Atoms with |f| = 0 never satisfy 1/k <= |f| (their entry level is
    # oo) and never contribute tail; a finite 1-norm keeps every other
    # atom's |f| mu finite.
    mags = list(map(abs, coeffs))
    ceil = math.ceil  # _entry_level's answer for t >= 1, without the call
    entry = [
        ceil(t) if t >= 1.0 else _entry_level(t) if t else INFINITE for t in mags
    ]
    shares = map(mul, compress(mags, coeffs), compress(f.space.measures, coeffs))
    by_level = {}
    for k, share in zip(compress(entry, coeffs), shares):
        group = by_level.get(k)
        if group is None:
            by_level[k] = [share]
        else:
            group.append(share)

    # tail(k) only drops when k passes an entry level, so the candidates
    # are 1 and the entry levels.  Adding nonnegative shares never lowers
    # a float sum, so tail(k) falls with k and the walk down stops at the
    # first candidate whose tail is not below eps; the top one's is 0.
    candidates = sorted(by_level, reverse=True)
    if not candidates or candidates[-1] != 1:
        candidates.append(1)
    tail = 0.0
    for k in candidates:
        if not tail < eps:
            break
        chosen, tail_value = k, tail
        group = by_level.get(k)
        if group is not None:
            group.reverse()
            tail = reduce(add, group, tail)
    kept = list(map(le, entry, repeat(chosen)))
    result = TruncationResult(
        kept_indices=tuple(compress(range(len(kept)), kept)),
        tail_value=tail_value,
        sup_on_A=max(compress(mags, kept), default=0.0),
        level=chosen,
    )
    object.__setattr__(result, "_kept_mask", kept)
    return result
