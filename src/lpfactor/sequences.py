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

The edge checks the scheme, eps and the entries and pads the inputs once;
both schemes then run on bare tuples.  Both decide feasibility in one place,
``countable.split_defects`` on counting measure at eps/2, each under its
own context, so the defect and the eps^2/16 bound are the same numbers for
both.  TAIL keeps only its weights, lambdas and radii, built in C-level
passes, and ``scalar._split_atoms`` runs the per-index loop on bare floats.
An index whose float radii starve the kernel gets the checked fallback,
against its exact rational r_k; if r_k lies below the smallest double, no
double meets it and FeasibilityError says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import ge, mul, truediv
from typing import Iterable, Sequence

from .certificates import FactorizationCertificate
from .countable import AgreementSplit, _agreement, _countable_uv, _split_record
from .countable import split_defects
from .instances import SeqInstance
from .measure import _L1, fsum_or_inf
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


def _edge(x, y, z, eps, strategy):
    """Check the scheme, eps and the entries, and return the inputs padded once.

    The entries and eps get ``SeqInstance``'s checks; eps/2 gets none:
    it rounds to 0 at eps = 5e-324, and both schemes' zero bound refuses.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    return SeqInstance(x, y, z, eps).padded()


def _tail_split(xs, ys, zs, eps):
    """TAIL's mask of working indices, eta, lambda_k, then its flat lists.

    The defect test is FINITE's, ``split_defects`` on counting measure at
    eps/2, whose bound is eps^2/16; only the weights and radii are TAIL's
    own.  The flat lists run in step along the working indices, as
    ``scalar._split_atoms`` takes them: the indices, their defects, r_k and
    R_k.  eta is the defect root 2 ||z - xy||_1^(1/2), not the defect.
    """
    defects, outside, _ = split_defects(
        xs, ys, zs, (1.0,) * len(xs), eps / 2.0, "sequence factorization"
    )
    working = list(compress(range(len(outside)), outside))
    if not working:
        return outside, 0.0, [], working, [], [], []

    shares = list(compress(defects, outside))
    weights = tail_weights(defects)
    eta = 2.0 * weights.w[0]
    ws = list(compress(weights.w, outside))
    lambdas = list(map(truediv, shares, map(mul, repeat(eta), ws)))
    rs = list(map(mul, lambdas, repeat(eps)))
    big_rs = list(map(mul, repeat(2.0), ws))
    return outside, eta, lambdas, working, shares, rs, big_rs


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
    xs, ys, zs = _edge(x, y, z, eps, strategy)
    if strategy == "finite":
        return _agreement(xs, ys, zs, (1.0,) * len(xs), _L1, eps / 2.0)
    outside, eta, lambdas, working, _, rs, big_rs = _tail_split(xs, ys, zs, eps)
    return _split_record(outside, eta, lambdas, working, rs, big_rs)


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
    xs, ys, zs = _edge(x, y, z, eps, strategy)
    if strategy == "finite":
        u, v = _countable_uv(xs, ys, zs, (1.0,) * len(xs), _L1, eps / 2.0)
        # Float lists of the padded length, as in factor_countable.
        return FactorizationCertificate._trusted(u, v, eps, eps)
    _, eta, _, *atoms = _tail_split(xs, ys, zs, eps)
    u = list(xs)
    v = list(ys)

    def exact_radii(d, big_r):  # r_k = d_k / (eta w_k) * eps, with w_k = R_k / 2
        r = Fraction(d) * Fraction(eps) / Fraction(eta)
        return 2 * r / Fraction(big_r), Fraction(big_r)

    _split_atoms(xs, ys, zs, *atoms, exact_radii, "sequence index", u, v)
    # u and v: copies of the padded float tuples, rewritten by the kernel.
    return FactorizationCertificate._trusted(u, v, eps, eps)
