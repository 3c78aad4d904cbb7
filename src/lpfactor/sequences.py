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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .certificates import FactorizationCertificate
from .measure import fsum_or_inf
from .countable import AgreementSplit
from .errors import FeasibilityError
from .scalar import ScalarBox, factor_scalar

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
        return fsum_or_inf(
            an / wn for an, wn in zip(self.a, self.w) if an != 0.0
        )


def tail_weights(a: Iterable[float]) -> TailWeights:
    """Square-root tail weights of a nonnegative sequence with a positive entry."""
    a = tuple(float(x) for x in a)
    if any(x < 0 or math.isnan(x) for x in a):
        raise ValueError("tail weights require nonnegative entries")
    if not any(x > 0 for x in a):
        raise ValueError("tail weights are undefined for the all-zero sequence")
    w = [0.0] * len(a)
    running = 0.0
    for i in range(len(a) - 1, -1, -1):
        running += a[i]
        w[i] = math.sqrt(running)
    tw = TailWeights(a=a, w=tuple(w))
    if not tw.weighted_sum() <= 2.0 * tw.w[0] * (1.0 + 1e-12):
        raise AssertionError("tail-weight bound failed; nonnegativity violated?")
    return tw


def _pad(x: Sequence[float], y: Sequence[float], z: Sequence[float]):
    n = max(len(x), len(y), len(z))
    pad = lambda s: tuple(float(c) for c in s) + (0.0,) * (n - len(s))
    return pad(x), pad(y), pad(z)


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
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs, ys, zs = _pad(x, y, z)
    diffs = tuple(abs(c - a * b) for a, b, c in zip(xs, ys, zs))
    working = [i for i, d in enumerate(diffs) if d != 0.0]
    defect = fsum_or_inf(diffs[i] for i in working)
    bound = eps * eps / 16.0
    if not defect < bound:
        raise FeasibilityError(defect, bound, context="sequence factorization")
    agree = frozenset(i for i, d in enumerate(diffs) if d == 0.0)
    if not working:
        return AgreementSplit(agree, 0.0, {}, {}, scheme="seq-finite")

    if strategy in ("auto", "finite"):
        eta = defect
        lambdas = {i: diffs[i] / eta for i in working}
        radii = {i: (lambdas[i] * eps / 2.0, eps / 2.0) for i in working}
        return AgreementSplit(agree, eta, lambdas, radii, scheme="seq-finite")

    weights = tail_weights(diffs)
    eta = 2.0 * weights.w[0]
    lambdas = {i: diffs[i] / (eta * weights.w[i]) for i in working}
    radii = {i: (lambdas[i] * eps, 2.0 * weights.w[i]) for i in working}
    return AgreementSplit(agree, eta, lambdas, radii, scheme="seq-tail")


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
    split = seq_split(x, y, z, eps, strategy)
    xs, ys, zs = _pad(x, y, z)
    u = list(xs)
    v = list(ys)
    for i, (r, big_r) in split.radii.items():
        if r > 0 and big_r > 0:
            try:
                pair = factor_scalar(ScalarBox(xs[i], ys[i], r, big_r), zs[i])
                u[i], v[i] = pair.u, pair.v
                continue
            except FeasibilityError:
                pass
        # Rounding starved an index whose budget holds analytically (the
        # weight underflowed, or the strict bound flipped by one ulp);
        # fall back to exact division when the base point allows it.
        if xs[i] != 0.0:
            u[i], v[i] = xs[i], zs[i] / xs[i]
        else:
            raise FeasibilityError(
                abs(zs[i] - xs[i] * ys[i]),
                r * big_r / 4.0,
                context=f"sequence index {i}",
            )
    return FactorizationCertificate(
        u=tuple(u), v=tuple(v), radius_u=eps, radius_v=eps
    )
