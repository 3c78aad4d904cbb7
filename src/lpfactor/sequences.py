"""Factorization in l1 x c0: near-products of sequences, feasibility eps^2/16.

Sequences are finite prefixes with an implicit all-zero tail, which keeps l1
membership automatic and makes the disagreement set finite.  Two weight
schemes are implemented:

  FINITE  the L_1 x L_oo construction of ``countable`` on counting measure
          at radius eps/2.  Since eps^2/16 = (eps/2)^2/4 the feasibility
          bound is the same, and its bounds, l1 below eps/2 and sup at most
          eps/2, imply both strict promises at eps.
  TAIL    the square-root tail-weight scheme, whose sup-side radii
          R_k = 2 (sum_{n>=k} |z_n - x_n y_n|)^(1/2) shrink to zero along
          the sequence; this is the construction that survives an infinite
          disagreement set, runnable here on any finite prefix.

FINITE, the default, gives the sharper flat sup bound eps/2.

The edge checks the scheme and eps and pads the inputs once; both schemes
then run on bare tuples.  TAIL builds its weights and radii in C-level
passes, and ``scalar._split_atoms`` runs the per-index loop on bare floats.
An index whose float radii starve the kernel gets the checked fallback,
against its exact rational r_k; if r_k lies below the smallest double, no
double meets it and FeasibilityError says so.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import ge, mul, sub, truediv
from typing import Iterable, Sequence

from .certificates import FactorizationCertificate
from .countable import AgreementSplit, _agreement, _countable_uv
from .errors import FeasibilityError
from .measure import _L1, check_eps, fsum_or_inf
from .scalar import _split_atoms
from .scalar import factor_scalar  # noqa: F401  (traced here by bench/spans.py)

__all__ = ["TailWeights", "tail_weights", "seq_split", "factor_seq", "STRATEGIES"]

STRATEGIES = ("finite", "tail")


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


@contextmanager
def _edge(x, y, z, eps, strategy):
    """Check the scheme and eps, and yield the inputs padded once.

    A NaN or inf entry makes the defect NaN or inf, which both schemes
    refuse as infeasible; such a refusal leaves the edge as bad input.
    Only eps itself is checked here: FINITE's eps/2 rounds to 0 at
    eps = 5e-324, and the zero bound then refuses, as TAIL's does.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    check_eps(eps)
    padded = _pad(x, y, z)
    try:
        yield padded
    except FeasibilityError:
        if not all(map(math.isfinite, chain(*padded))):
            raise ValueError("coefficients must be finite reals") from None
        raise


def _tail_split(xs, ys, zs, eps):
    """TAIL's working indices, eta, and lambda_k, r_k and R_k along them.

    The radii are iterators.  Raises FeasibilityError unless the l1 defect
    is strictly below eps^2/16.
    """
    diffs = tuple(map(abs, map(sub, zs, map(mul, xs, ys))))
    # Zero terms leave an exact sum unchanged.
    defect = fsum_or_inf(diffs)
    bound = (eps / 4.0) * (eps / 4.0)  # eps * eps overflows before the bound
    if not defect < bound:  # a NaN or inf entry lands here too
        raise FeasibilityError(defect, bound, context="sequence factorization")
    working = list(compress(range(len(diffs)), diffs))
    if not working:
        return working, 0.0, [], (), ()

    shares = list(compress(diffs, diffs))
    weights = tail_weights(diffs)
    eta = 2.0 * weights.w[0]
    ws = list(compress(weights.w, diffs))
    lambdas = list(map(truediv, shares, map(mul, repeat(eta), ws)))
    rs = map(mul, lambdas, repeat(eps))
    return working, eta, lambdas, rs, map(mul, repeat(2.0), ws)


def seq_split(
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    eps: float,
    strategy: str = "finite",
) -> AgreementSplit:
    """The agreement set, defect and per-index radii for one sequence instance.

    FINITE is ``agreement_split`` at p = 1 on counting measure and radius
    eps/2.  Raises FeasibilityError unless the l1 defect is strictly below
    eps^2/16.
    """
    with _edge(x, y, z, eps, strategy) as (xs, ys, zs):
        if strategy == "finite":
            return _agreement(xs, ys, zs, (1.0,) * len(xs), _L1, eps / 2.0)
        working, eta, lambdas, rs, big_rs = _tail_split(xs, ys, zs, eps)
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
    strategy: str = "finite",
) -> FactorizationCertificate:
    """Factor z = uv with u within eps of x in l1 and v within eps of y in sup.

    Indices where z already equals xy copy (x_n, y_n) through, so the zero
    tail is preserved and v stays in c0.  Both bounds are strict.  FINITE,
    ``factor_countable`` at p = 1 on counting measure and radius eps/2,
    keeps the sup distance at or below eps/2; TAIL keeps it below its
    shrinking radii, whose first value is the defect root
    eta = 2 ||z - xy||_1^(1/2).
    """
    with _edge(x, y, z, eps, strategy) as (xs, ys, zs):
        if strategy == "finite":
            u, v = _countable_uv(xs, ys, zs, (1.0,) * len(xs), _L1, eps / 2.0)
            return FactorizationCertificate(u=u, v=v, radius_u=eps, radius_v=eps)
        working, eta, _, rs, big_rs = _tail_split(xs, ys, zs, eps)
        u = list(xs)
        v = list(ys)

        def exact_radii(d, big_r):  # r_k = d_k / (eta w_k) * eps, with w_k = R_k / 2
            r = Fraction(d) * Fraction(eps) / Fraction(eta)
            return 2 * r / Fraction(big_r), Fraction(big_r)

        radii = zip(working, zip(rs, big_rs))
        _split_atoms(xs, ys, zs, radii, exact_radii, "sequence index", u, v)
    return FactorizationCertificate(u=u, v=v, radius_u=eps, radius_v=eps)
