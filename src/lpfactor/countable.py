"""Factorization of near-products of simple functions on a common partition.

Given f in L_p, g in L_q (conjugate exponents) and a target h with
``||h - fg||_1 < eps^2/4``, produce u, v with uv = h, ``||u - f||_p < eps``
and ``||v - g||_q`` within eps (strictly for p > 1, closed for p = 1).

The construction splits the atoms into an agreement set E (targets equal to
the product, or null atoms) copied through verbatim, and distributes the
remaining defect across the other atoms with weights lambda_n proportional
to each atom's share ``|z_n - x_n y_n| mu(A_n)``.  Each such atom then gets
per-atom radii that multiply out to more than four times its defect, and the
scalar kernel does the rest.

With counting measure (all atom measures 1) this specializes to the
sequence spaces l_p x l_q.  At p = 1 and radius eps/2 it is the FINITE
l1 x c0 scheme, since eps^2/16 = (eps/2)^2/4.  TAIL, too, decides
feasibility by ``split_defects``, the one test of every solver.

Every L_p solver enters through one checked edge, ``_lp_inputs``: a
positive finite eps, f, g and h on one space, and membership (f in L_p, g
in L_q, h in L_1) through the cheap sufficient bound of ``norm_is_finite``.
The ``SimpleFunction`` constructors have already checked coefficients and
measures.  ``_solve_checked`` runs that check once and answers p = oo by
the certificate's one swap around a finite-p body on the checked tuples.
Every scheme's split, ``_tuple_split`` here and TAIL's in ``sequences``,
has one shape: E's mask, eta, the weights, flat lists in step over the
atoms outside E of their indices, defects, r_k and R_k, built in C-level
passes, and the scheme's exact-radius rule.  ``_record`` wraps a split in
an ``AgreementSplit``; ``_solve`` copies E and hands the rest to
``scalar._split_atoms`` for the per-atom work on bare floats.  An atom
whose float radii starve the kernel gets the checked fallback, against
rational lower bounds of its true radii; if one lies below the smallest
double, no double meets it and FeasibilityError says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mul, not_, truediv, truth
from typing import Union

from .certificates import FactorizationCertificate
from .errors import FeasibilityError
from .measure import (
    _L1,
    Exponent,
    SimpleFunction,
    _positions,
    _same_space,
    check_eps,
    conjugate,
    defect_bound,
    l1_defect,
    norm,  # noqa: F401  (bench/spans.py traces calls through this name)
    norm_is_finite,
)
from .scalar import _split_atoms
from .scalar import factor_scalar  # noqa: F401  (traced here by bench/spans.py)

__all__ = ["AgreementSplit", "agreement_split", "factor_countable"]


@dataclass(frozen=True)
class AgreementSplit:
    """The agreement set E, the defect eta, and the per-atom weights.

    ``lambdas`` maps atom indices outside E to weights in (0, 1]; ``radii``
    maps the same indices to the (r_k, R_k) pair fed to the scalar kernel.
    """

    agree: frozenset
    eta: float
    lambdas: dict
    radii: dict


def _lp_inputs(f: SimpleFunction, g: SimpleFunction, h: SimpleFunction, p, eps):
    """The checked edge of every L_p solver: (fs, gs, hs, measures, p).

    Coerces p to an ``Exponent`` and raises ValueError unless eps is
    positive and finite, f, g and h share one space, and f is in L_p, g in
    L_q and h in L_1.  Membership is checked before any p = oo swap, so the
    error names the function the caller passed.
    """
    if not isinstance(p, Exponent):
        p = Exponent(p)
    check_eps(eps)
    _same_space(f, g)
    _same_space(f, h)
    fs, gs, hs = f.coefficients, g.coefficients, h.coefficients
    check_memberships(fs, gs, hs, f.space.measures, p)
    return fs, gs, hs, f.space.measures, p


def _solve_checked(body, f, g, h, p, eps) -> FactorizationCertificate:
    """Check the inputs once at the edge, then run a finite-p solver body.

    ``body(fs, gs, hs, space, p, eps)`` works on the checked coefficient
    tuples.  p = oo is answered by the one swap: the body solves (g, f, h)
    at p = 1 and the certificate is transposed.
    """
    fs, gs, hs, _, p = _lp_inputs(f, g, h, p, eps)
    if p.is_infinite:
        return body(gs, fs, hs, f.space, _L1, eps).transposed()
    return body(fs, gs, hs, f.space, p, eps)


def split_defects(fs, gs, hs, measures, eps: float, context: str):
    """The per-atom defects, the mask of atoms outside E, and eta.

    The one feasibility test of every solver.  An atom lies outside E when
    it has a nonzero defect |z_n - x_n y_n| and a nonzero measure; eta =
    ||h - fg||_1 is ``l1_defect`` over those atoms.  Raises
    FeasibilityError, naming ``context``, unless eta < ``defect_bound(eps)``.
    """
    defects = [abs(z - x * y) for x, y, z in zip(fs, gs, hs)]
    outside = list(map(truth, defects))
    for i in _positions(measures, 0.0):  # a null atom lies in E
        outside[i] = False
    eta = l1_defect(defects, measures, outside)
    bound = defect_bound(eps)
    if not eta < bound:
        raise FeasibilityError(eta, bound, context=context)
    return defects, outside, eta


def _power_floor(t: Fraction, expo: float) -> Fraction:
    """A rational lower bound of t^(1/p), within 2^-31 relative; expo = 1/p.

    Why it lies below: expo is 1/p correctly rounded, |log2 t| < 2^12 and
    libm's log2 is within an ulp, so x errs by under 1e-11 < 2^-32, the part
    taken off; libm's pow is within an ulp (2^-52) on [1, 2), below 2^-50.
    """
    x = expo * (math.log2(t.numerator) - math.log2(t.denominator)) - 2.0**-32
    k = math.floor(x)
    return Fraction(2.0 ** (x - k) - 2.0**-50) * Fraction(2) ** k


def copy_pair(x: float, y: float, z: float):
    """The exact split for an atom that needs no correction."""
    if z == x * y:
        return x, y
    # Null atom with a disagreeing target: invisible to every norm, so a
    # balanced exact square root splits it.
    root = math.sqrt(abs(z))
    return root, (math.copysign(root, z) if z != 0 else 0.0)


def copy_pairs(fs, gs, hs, outside):
    """u and v as lists of f and g, with every atom in E split exactly."""
    u = list(fs)
    v = list(gs)
    for i in _positions(outside, False):
        u[i], v[i] = copy_pair(fs[i], gs[i], hs[i])
    return u, v


def check_memberships(fs, gs, hs, measures, p: Exponent) -> None:
    """Raise ValueError unless f is in L_p, g in L_q and h in L_1."""
    for name, coeffs, expo in (("f", fs, p), ("g", gs, conjugate(p)), ("h", hs, _L1)):
        if not norm_is_finite(coeffs, measures, expo):
            raise ValueError(f"{name} has infinite norm; not a member of its space")


def _tuple_split(fs, gs, hs, measures, p: Exponent, eps: float):
    """The split of a checked instance with finite p, on bare tuples.

    Returns the one split shape of every scheme: the mask of atoms outside
    E, eta, the weights lambda_k, the four flat lists in step over the atoms
    outside E that ``scalar._split_atoms`` takes (indices, defects, r_k and
    R_k), and the exact-radius rule of the starved-atom fallback.  The
    weights are lazy, read only when a record is built, so a split serves
    one record or one solve.  Raises FeasibilityError unless eta < eps^2/4.
    """
    defects, outside, eta = split_defects(
        fs, gs, hs, measures, eps, "countable factorization"
    )
    working = list(compress(range(len(outside)), outside))
    working_defects = list(compress(defects, outside))
    # The radius ratio lambda_k / mu(A_k) reduces to |z_k - x_k y_k| / eta:
    # the measure cancels, so compute it that way, immune to the spurious
    # under/overflow a share / eta / mu round trip can suffer.  The scale
    # stays positive on the all-shares-subnormal edge, where eta itself
    # rounds to zero while the atoms still need positive radii.
    scale = max(eta, len(working) * 5e-324)
    ratios = list(map(truediv, working_defects, repeat(scale)))
    inv_q = conjugate(p).reciprocal()
    if inv_q == 0.0:  # p = 1: r_k = lambda_k eps / mu(A_k), R_k = eps
        big_rs = repeat(eps, len(working))
    else:
        big_rs = list(map(mul, repeat(eps), map(pow, ratios, repeat(inv_q))))
        ratios = map(pow, ratios, repeat(p.reciprocal()))
    rs = list(map(mul, repeat(eps), ratios))
    if eta > 0:  # lambda_k = |z_k - x_k y_k| mu(A_k) / eta
        shares = map(mul, working_defects, compress(measures, outside))
        lambdas = map(truediv, shares, repeat(eta))
    else:
        lambdas = repeat(0.0)

    def exact_radii(d, _):  # r = eps (d/scale)^(1/p), R = eps (d/scale)^(1/q)
        eps_q, t = Fraction(eps), Fraction(d) / Fraction(scale)
        if inv_q == 0.0:  # exact, with R = eps
            return eps_q * t, eps_q
        return eps_q * _power_floor(t, p.reciprocal()), eps_q * _power_floor(t, inv_q)

    return outside, eta, lambdas, working, working_defects, rs, big_rs, exact_radii


def _solve(xs, ys, zs, split, label: str):
    """u and v of a split, for every scheme; ``label`` names a refused atom."""
    outside, _, _, *atoms = split
    u, v = copy_pairs(xs, ys, zs, outside)
    _split_atoms(xs, ys, zs, *atoms, label, u, v)
    return u, v


def _record(split) -> AgreementSplit:
    """The ``AgreementSplit`` of a split, the one record of every scheme."""
    outside, eta, lambdas, working, _, rs, big_rs, _ = split
    return AgreementSplit(
        agree=frozenset(compress(range(len(outside)), map(not_, outside))),
        eta=eta,
        lambdas=dict(zip(working, lambdas)),
        radii=dict(zip(working, zip(rs, big_rs))),
    )


def agreement_split(
    f: SimpleFunction,
    g: SimpleFunction,
    h: SimpleFunction,
    p: Union[Exponent, float],
    eps: float,
) -> AgreementSplit:
    """Compute E, eta, the weights and the per-atom radii for one instance.

    Raises FeasibilityError when the defect eta is not strictly below
    eps^2/4.  p must be finite (the p = oo entry point swaps arguments
    before splitting).
    """
    fs, gs, hs, measures, p = _lp_inputs(f, g, h, p, eps)
    if p.is_infinite:
        raise ValueError("agreement_split requires finite p; swap the factors")
    return _record(_tuple_split(fs, gs, hs, measures, p, eps))


def factor_countable(
    f: SimpleFunction,
    g: SimpleFunction,
    h: SimpleFunction,
    p: Union[Exponent, float],
    eps: float,
) -> FactorizationCertificate:
    """Factor h = uv with u within eps of f in L_p and v within eps of g in L_q.

    For p > 1 both bounds are strict; for p = 1 the v-side bound is the
    closed one (``||v - g||_oo <= eps``, flagged via strict_v=False).  p = oo
    is answered by swapping the two factors, solving at p = 1, and swapping
    back; the closed bound then sits on the u side.
    """
    return _solve_checked(_countable, f, g, h, p, eps)


def _countable(fs, gs, hs, space, p: Exponent, eps: float):
    """``factor_countable`` at finite p on checked tuples."""
    split = _tuple_split(fs, gs, hs, space.measures, p, eps)
    u, v = _solve(fs, gs, hs, split, "countable atom")
    # u and v: float lists of one length, the checked tuples' copies
    # rewritten by the kernel, which returns floats.
    return FactorizationCertificate._trusted(u, v, eps, eps, strict_v=p.value != 1)
