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

``_scheme_split`` checks the scheme, eps and the entries, pads the inputs
once and returns the scheme's split, in the one shape of
``countable._tuple_split``.  Both decide feasibility in one place,
``countable.split_defects`` on counting measure at eps/2, each under its
own context, so the defect and the eps^2/16 bound are the same numbers for
both.  TAIL keeps only its weights, lambdas, radii and exact-radius rule,
built in C-level passes.  ``countable._record`` and ``countable._solve``
serve both schemes.  An index whose float radii starve the kernel gets the
checked fallback, against its exact rational r_k; if r_k lies below the
smallest double, no double meets it and FeasibilityError says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import ge, mul, truediv
from typing import Iterable, Sequence

from .certificates import FactorizationCertificate
from .countable import AgreementSplit, _record, _solve, _tuple_split, split_defects
from .instances import SeqInstance
from .measure import _L1, fsum_or_inf
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


def _scheme_split(x, y, z, eps, strategy):
    """The padded inputs and FINITE's or TAIL's split of them, in one shape.

    The scheme, eps and the entries are checked here, the entries and eps
    by ``SeqInstance``; eps/2 is not: it rounds to 0 at eps = 5e-324, and
    both schemes' zero bound refuses.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    xs, ys, zs = SeqInstance(x, y, z, eps).padded()
    if strategy == "finite":
        split = _tuple_split(xs, ys, zs, (1.0,) * len(xs), _L1, eps / 2.0)
    else:
        split = _tail_split(xs, ys, zs, eps)
    return xs, ys, zs, split


def _tail_split(xs, ys, zs, eps):
    """TAIL's split, in the shape of ``countable._tuple_split``.

    The defect test is FINITE's, ``split_defects`` on counting measure at
    eps/2, whose bound is eps^2/16; only the weights, radii and exact-radius
    rule are TAIL's own.  eta is the defect root 2 ||z - xy||_1^(1/2), not
    the defect.
    """
    defects, outside, _ = split_defects(
        xs, ys, zs, (1.0,) * len(xs), eps / 2.0, "sequence factorization"
    )
    working = list(compress(range(len(outside)), outside))
    if not working:  # nothing to split, so no radius is ever asked for
        return outside, 0.0, [], working, [], [], [], None

    shares = list(compress(defects, outside))
    weights = tail_weights(defects)
    eta = 2.0 * weights.w[0]
    ws = list(compress(weights.w, outside))
    lambdas = list(map(truediv, shares, map(mul, repeat(eta), ws)))
    rs = list(map(mul, lambdas, repeat(eps)))
    big_rs = list(map(mul, repeat(2.0), ws))

    def exact_radii(d, big_r):  # r_k = d_k / (eta w_k) * eps, with w_k = R_k / 2
        r = Fraction(d) * Fraction(eps) / Fraction(eta)
        return 2 * r / Fraction(big_r), Fraction(big_r)

    return outside, eta, lambdas, working, shares, rs, big_rs, exact_radii


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
    return _record(_scheme_split(x, y, z, eps, strategy)[3])


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
    xs, ys, zs, split = _scheme_split(x, y, z, eps, strategy)
    label = "countable atom" if strategy == "finite" else "sequence index"
    u, v = _solve(xs, ys, zs, split, label)
    # Float lists of the padded length, as in factor_countable.
    return FactorizationCertificate._trusted(u, v, eps, eps)
