"""Factorization in l1 x c0: near-products of sequences, feasibility eps^2/16.

Sequences are finite prefixes with an implicit all-zero tail, which keeps l1
membership automatic and makes the disagreement set finite.  Two weight
schemes are implemented:

  FINITE  per-index weights lambda_k proportional to the defect share, radii
          r_k = lambda_k eps/2 against a flat R = eps/2 on the sup side.
  TAIL    the square-root tail-weight scheme, whose sup-side radii
          R_k = 2 (sum_{n>=k} |z_n - x_n y_n|)^(1/2) shrink to zero along
          the sequence; this is the construction that survives an infinite
          disagreement set, runnable here on any finite prefix.

AUTO resolves to FINITE, which gives the sharper flat sup bound eps/2.

The inputs are padded once; defects, weights and radii are built in C-level
passes, and the per-index loop runs on bare floats: it calls
``scalar._split`` directly, without a ``ScalarBox`` or ``ScalarFactorPair``
per index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import ge, mul, sub, truediv
from typing import Iterable, Sequence

from .certificates import FactorizationCertificate
from .measure import fsum_or_inf
from .countable import AgreementSplit
from .errors import FeasibilityError
from .scalar import _split
from .scalar import factor_scalar  # noqa: F401  (traced here by bench/spans.py)

__all__ = ["TailWeights", "tail_weights", "seq_split", "factor_seq", "STRATEGIES"]

STRATEGIES = ("auto", "finite", "tail")


@dataclass(frozen=True)
class TailWeights:
    """A nonnegative sequence a with w_k = (sum_{n >= k} a_n)^(1/2).

    w is nonincreasing, w_1^2 is the total sum, and the weighted sum
    sum a_n / w_n is at most 2 w_1 (terms with a_n = 0 count as 0 even
    where w_n = 0).
    """

    a: tuple
    w: tuple

    def weighted_sum(self) -> float:
        a = self.a
        return fsum_or_inf(map(truediv, compress(a, a), compress(self.w, a)))


def tail_weights(a: Iterable[float]) -> TailWeights:
    """Square-root tail weights of a nonnegative sequence with a positive entry."""
    a = tuple(map(float, a))
    if not all(map(ge, a, repeat(0.0))):  # x >= 0 fails for NaN too
        raise ValueError("tail weights require nonnegative entries")
    if not any(a):
        raise ValueError("tail weights are undefined for the all-zero sequence")
    # Tail sums; starting from 0.0 adds a[-1] to 0.0 as a running sum does,
    # which turns a trailing -0.0 into 0.0.
    tails = list(accumulate(reversed(a), initial=0.0))[:0:-1]
    tw = TailWeights(a=a, w=tuple(map(math.sqrt, tails)))
    if not tw.weighted_sum() <= 2.0 * tw.w[0] * (1.0 + 1e-12):
        raise AssertionError("tail-weight bound failed; nonnegativity violated?")
    return tw


def _pad(x: Sequence[float], y: Sequence[float], z: Sequence[float]):
    n = max(len(x), len(y), len(z))
    pad = lambda s: tuple(map(float, s)) + (0.0,) * (n - len(s))
    return pad(x), pad(y), pad(z)


def _padded_split(x, y, z, eps, strategy):
    """Validate, pad once and split; see ``seq_split``.

    Returns the padded inputs, the working indices (those with a nonzero
    defect), eta, and lambda_k, r_k and R_k along the working indices, the
    radii as iterators.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if eps <= 0 or math.isinf(eps):
        raise ValueError("eps must be positive and finite")
    xs, ys, zs = padded = _pad(x, y, z)
    diffs = tuple(map(abs, map(sub, zs, map(mul, xs, ys))))
    # Zero terms leave an exact sum unchanged.
    defect = fsum_or_inf(diffs)
    bound = eps * eps / 16.0
    if not defect < bound:
        raise FeasibilityError(defect, bound, context="sequence factorization")
    working = list(compress(range(len(diffs)), diffs))
    if not working:
        return padded, working, 0.0, [], (), ()

    shares = list(compress(diffs, diffs))
    if strategy in ("auto", "finite"):
        eta = defect
        lambdas = list(map(truediv, shares, repeat(eta)))
        rs = map(truediv, map(mul, lambdas, repeat(eps)), repeat(2.0))
        return padded, working, eta, lambdas, rs, repeat(eps / 2.0)
    weights = tail_weights(diffs)
    eta = 2.0 * weights.w[0]
    ws = list(compress(weights.w, diffs))
    lambdas = list(map(truediv, shares, map(mul, repeat(eta), ws)))
    rs = map(mul, lambdas, repeat(eps))
    return padded, working, eta, lambdas, rs, map(mul, repeat(2.0), ws)


def seq_split(
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    eps: float,
    strategy: str = "auto",
) -> AgreementSplit:
    """The agreement set, defect and per-index radii for one sequence instance.

    Raises FeasibilityError unless the l1 defect is strictly below eps^2/16.
    """
    (xs, _, _), working, eta, lambdas, rs, big_rs = _padded_split(
        x, y, z, eps, strategy
    )
    return AgreementSplit(
        agree=frozenset(range(len(xs))).difference(working),
        eta=eta,
        lambdas=dict(zip(working, lambdas)),
        radii=dict(zip(working, zip(rs, big_rs))),
    )


def factor_seq(
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    eps: float,
    strategy: str = "auto",
) -> FactorizationCertificate:
    """Factor z = uv with u within eps of x in l1 and v within eps of y in sup.

    Indices where z already equals xy copy (x_n, y_n) through, so the zero
    tail is preserved and v stays in c0.  Both bounds are strict; the FINITE
    scheme additionally keeps the sup distance at or below eps/2, the TAIL
    scheme below its shrinking radii whose first value is the defect root
    eta = 2 ||z - xy||_1^(1/2).
    """
    (xs, ys, zs), working, eta, _, rs, big_rs = _padded_split(
        x, y, z, eps, strategy
    )
    u = list(xs)
    v = list(ys)
    for i, r, big_r in zip(working, rs, big_rs):
        xi, yi, zi = xs[i], ys[i], zs[i]
        if r > 0 and big_r > 0:
            pair = _split(xi, yi, r, big_r, zi)
            if pair is not None:
                u[i], v[i], _ = pair
                continue
        # Rounding starved an index whose budget holds analytically: r_k
        # underflowed, or the strict bound flipped by one ulp.
        d = Fraction(abs(zi - xi * yi))
        if strategy != "tail":  # FINITE: r_k = d_k / eta * eps / 2
            exact_r = d * Fraction(eps) / (2 * Fraction(eta))
        else:  # r_k = d_k / (eta w_k) * eps, with w_k = R_k / 2
            exact_r = 2 * d * Fraction(eps) / (Fraction(eta) * Fraction(big_r))
        u[i], v[i] = _starved_pair(xi, yi, zi, exact_r, big_r, i)
    return FactorizationCertificate(
        u=tuple(u), v=tuple(v), radius_u=eps, radius_v=eps
    )


def _starved_pair(x: float, y: float, z: float, r: Fraction, big_r: float, i: int):
    """An exact split for an index whose float radii starved the kernel.

    r is the exact r_k, which need not be a double.  The candidates are
    exact division by x, then by y, then the balanced split of the radii
    (u from logarithms, v = z / u); the first that meets |u - x| < r_k and
    |v - y| < R_k, checked exactly, is returned.  Raises FeasibilityError
    when none does.
    """
    big = Fraction(big_r)
    candidates = []
    if x != 0.0:
        candidates.append((x, z / x))
    if y != 0.0:
        candidates.append((z / y, y))
    ratio = Fraction(abs(z)) * r / big
    if ratio > 0:
        log_u = (math.log(ratio.numerator) - math.log(ratio.denominator)) / 2.0
        try:
            u = math.exp(log_u)
        except OverflowError:  # then u exceeds r_k too
            u = 0.0
        if u > 0.0:
            candidates.append((u, z / u))
    for u, v in candidates:
        if _closer(u, x, r) and _closer(v, y, big):
            return u, v
    raise FeasibilityError(
        abs(z - x * y), float(r * big / 4), context=f"sequence index {i}"
    )


def _closer(a: float, b: float, radius: Fraction) -> bool:
    """|a - b| < radius, exactly."""
    return math.isfinite(a) and abs(Fraction(a) - Fraction(b)) < radius
