"""The full L_p x L_q factorization pipeline for simple functions.

The bounded stage quantizes f and g onto an arithmetic grid, the target h
onto a signed geometric grid, solves the quantized problem with the
countably-valued solver at a reduced radius, and repairs the quantization of
h with a multiplicative correction factor alpha = h/h' in [1, 1/d].  The
general stage first reserves a tail budget gamma, truncates the supports to
a finite-measure set where everything is bounded, runs the bounded stage
there, and extends the factors across the tail by explicit formulas (signed
power splitting for p > 1, a gamma-grid divisor for p = 1).

Parameter selection only has to satisfy strict inequalities, so every
parameter is pinned deterministically: eps1 by 64-step bisection, the grid
steps at half their admissible supremum, and the geometric ratio d at the
midpoint of its feasible interval, kept as an exact rational because the
feasible interval can sit closer to 1 than floating point can represent.
Its bounds are compared as integer ratios; one ``Fraction`` normalizes d.
When a grid is finer than double precision can resolve, quantization
degenerates to the identity, which is exactly the correctly rounded result
of the true grid.

Validation happens at the public edges: the ``SimpleFunction`` and
``MeasureSpace`` constructors check finiteness and measures, both pipelines
enter through ``countable``'s one checked edge (a positive finite eps, one
space, and membership: f in L_p, g in L_q, h in L_1), and p = oo is answered
by the certificate's one swap around a finite-p body on the checked tuples,
so membership is checked once.  Both pipelines hand ``_bounded`` plain
tuples: coefficients, measures, the flagged atoms and the defect already
computed.  ``_bounded`` quantizes with ``quantize_grid`` and
``quantize_geometric`` (coefficient tuples in, coefficient tuples out) and
solves the quantized problem with the public ``factor_countable``, which
checks membership of the quantized functions.  Values built from checked
ones (that inner problem, the envelope, certificates and the parameter
record) go through private constructors that skip the public scans.

The per-atom passes are single loops or comprehensions, not chains of
``map`` over builtins such as ``max``.  The quantizers test each element
once against the level their estimate gives and walk to the right level
only when that test fails; the envelope that steers the truncation is
built in one loop over the atoms outside E, and the core is the mask of
kept atoms that ``truncate_support`` leaves on its result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import and_, not_, truth
from typing import Optional, Sequence, Union

from .certificates import FactorizationCertificate
from .countable import _solve_checked, copy_pair, copy_pairs
from .countable import factor_countable, split_defects
from .errors import FeasibilityError
from .measure import (
    INFINITE,
    Exponent,
    MeasureSpace,
    SimpleFunction,
    check_eps,
    conjugate,
    defect_bound,
    fsum_or_inf,
    l1_defect,
    norm,  # noqa: F401  (bench/spans.py traces calls through this name)
    pow_or_inf,
    truncate_support,
)

__all__ = [
    "QuantizationParams",
    "select_params",
    "quantize_grid",
    "quantize_geometric",
    "snap_to_gamma_grid",
    "factor_bounded",
    "factor_general",
]

_TINY = 5e-324  # smallest positive double; keeps "half the sup bound" positive
_GRID_LIMIT = 2.0**53  # beyond this many grid steps a double cannot resolve one


@dataclass(frozen=True)
class QuantizationParams:
    """Every parameter pinned by one pipeline run.

    m bounds the total measure and |f|, |g|, |h|; eps1 is the quantization
    error budget; delta the arithmetic grid step; d the geometric grid ratio
    (an exact rational in (0, 1), since its distance to 1 may be smaller
    than one double ulp); eps_bar the radius passed to the inner countable
    solve.  gamma, outer_delta and g_sup are set only by the general stage:
    the tail budget, the radius of the inner bounded solve, and the
    essential sup of g off the truncation set (p = 1 only).
    """

    m: float
    eps1: float
    delta: float
    d: Fraction
    eps_bar: float
    gamma: Optional[float] = None
    outer_delta: Optional[float] = None
    g_sup: Optional[float] = None

    def _with_tail(self, gamma, outer_delta, g_sup) -> "QuantizationParams":
        """These parameters with the general stage's three fields set.

        What ``dataclasses.replace`` returns, without its walk over the
        fields: the class has no check to rerun.
        """
        params = object.__new__(QuantizationParams)
        params.__dict__.update(
            self.__dict__, gamma=gamma, outer_delta=outer_delta, g_sup=g_sup
        )
        return params

    def to_json(self) -> dict:
        d_float = float(self.d)
        return {
            "m": self.m,
            "eps1": self.eps1,
            "delta": self.delta,
            "d": d_float,
            "d_exact": f"{self.d.numerator}/{self.d.denominator}",
            "eps_bar": self.eps_bar,
            "gamma": self.gamma,
            "outer_delta": self.outer_delta,
            "g_sup": self.g_sup,
        }


def select_params(
    defect: float,
    m: float,
    p: Union[Exponent, float],
    eps: float,
) -> QuantizationParams:
    """Pick eps1, delta, d and eps_bar for a bounded-stage run.

    Requires defect < eps^2/4 strictly and m >= the sups it is supposed to
    bound (the caller computes m).  eps1 is found by bisection against
    ``eps1 + sqrt(4 defect + 8 eps1) < eps`` and set to half the feasible
    supremum; delta to half its admissible bound; d to the midpoint of its
    feasible interval, computed exactly from integer ratios.  Raises
    ValueError unless 0 < eps < oo and m > 0.
    """
    if not isinstance(p, Exponent):
        p = Exponent(p)
    check_eps(eps)
    bound = defect_bound(eps)
    if not defect < bound:
        raise FeasibilityError(defect, bound, context="parameter selection")
    if not m > 0:  # NaN too
        raise ValueError("m must be positive")

    # Bisection on the admissibility test t + sqrt(4 defect + 8 t) < eps.
    four_defect = 4.0 * defect
    sqrt = math.sqrt
    lo, hi = 0.0, eps
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid + sqrt(four_defect + 8.0 * mid) < eps:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        # Float-boundary defect: no representable budget survives rounding.
        raise FeasibilityError(defect, bound, context="parameter selection")
    eps1 = lo / 2.0
    eps_bar = math.sqrt(4.0 * defect + 8.0 * eps1)

    inv_p = p.reciprocal()
    inv_q = conjugate(p).reciprocal()
    half_sq = 0.5 / m / m  # (2 m^2)^-1 without overflowing m*m first
    delta_bound = eps1 * min(
        pow_or_inf(m, -inv_p), pow_or_inf(m, -inv_q) if inv_q else 1.0, half_sq
    )
    delta = max(delta_bound / 2.0, _TINY)

    # Both constraints on d are 1 - d < s_max, s_max maybe far below one ulp
    # of 1.0: compare s = 1 - d exactly, as integer ratios cross-multiplied.
    m2n, m2d = (k * k for k in m.as_integer_ratio())  # m^2
    # margin > 0 needs no check.  The last accepted lo passed the float test
    # lo + S < eps, with S >= eps_bar its root, so lo + S <= eps - ulp(S)/2
    # exactly; eps1 < lo puts eps - eps1 above S + ulp(S)/2, so it rounds
    # above S.
    margin = eps - eps1 - eps_bar
    growth = pow_or_inf(m, 1.0 + inv_p)
    if math.isinf(growth):
        dn, dd = m2n + m2d, m2d  # m^2 + 1 >= m^(1+1/p) once m >= 1
    else:
        gn, gd = growth.as_integer_ratio()
        rn, rd = (eps - eps1).as_integer_ratio()
        dn, dd = gn * rd + rn * gd, gd * rd
    en, ed = eps1.as_integer_ratio()
    sn, sd = en * m2d, ed * m2n  # s_flat = eps1 / m^2
    an, ad = margin.as_integer_ratio()
    if an * dd * sd < sn * ad * dn:  # s_slope = margin / (growth + eps - eps1)
        sn, sd = an * dd, ad * dn
    # d = 1 - s/2; s <= s_slope <= 1, since margin <= eps - eps1 <= the divisor.
    d = Fraction(2 * sd - sn, 2 * sd)
    return QuantizationParams(m=m, eps1=eps1, delta=delta, d=d, eps_bar=eps_bar)


def quantize_grid(coeffs: Sequence[float], delta: float) -> tuple:
    """Truncate each coefficient toward zero onto the grid {k delta}.

    Pointwise, |f - f'| <= delta and |f'| <= |f|; grid points are fixed.
    Where the grid is finer than double precision resolves (more than 2^53
    steps to reach the value), the coefficient is already the correctly
    rounded grid value and is kept as is.  delta must be positive and finite.
    """
    if not 0.0 < delta < INFINITE:  # NaN too
        raise ValueError("delta must be positive and finite")
    floor = math.floor
    out = []
    push = out.append
    for c in coeffs:
        t = abs(c)
        steps = t / delta
        if steps >= _GRID_LIMIT:
            push(c)
            continue
        k = floor(steps)
        val = k * delta
        if val > t or (k + 1) * delta <= t:  # the rounded quotient missed
            while (k + 1) * delta <= t:
                k += 1
            while k > 0 and k * delta > t:
                k -= 1
            val = k * delta
        push(-val if c < 0.0 else val)  # -0.0 maps to 0.0
    return tuple(out)


def quantize_geometric(
    coeffs: Sequence[float],
    d: Union[float, Fraction],
    m: float,
) -> tuple:
    """Snap |h| down onto the geometric grid {d^n m}, preserving sign.

    Takes and returns the coefficients of h.  Zero stays zero; elsewhere
    1 <= h/h' <= 1/d and |h - h'| <= (1 - d) m.  Requires |h| <= m
    pointwise and 0 < d < 1.  When d is within one double ulp of 1 the grid
    is finer than double precision and the identity is the correctly
    rounded result: the input itself is returned.
    """
    if not 0 < d < 1:
        raise ValueError("d must lie strictly between 0 and 1")
    if not m > 0:  # NaN too
        raise ValueError("m must be positive")
    d_f = float(d)
    if max(map(abs, coeffs), default=0.0) > m:
        c = next(c for c in coeffs if abs(c) > m)
        raise ValueError(f"|h| exceeds the declared bound m: {c!r} > {m!r}")
    if d_f >= 1.0:
        return coeffs
    log, ceil = math.log, math.ceil
    log_d = log(d_f)
    log_m = log(m)
    deepest = _GRID_LIMIT / 2.0
    out = []
    push = out.append
    for c in coeffs:
        t = abs(c)
        if t == 0.0:
            push(0.0)
            continue
        # logs taken separately: t/m may underflow even though both are fine
        s = (log(t) - log_m) / log_d
        if s >= deepest:
            # Grid levels this deep differ by less than a double can hold.
            push(c)
            continue
        j = ceil(s)  # s >= 0, since t <= m
        if j < 1:
            j = 1
        val = m * d_f**j
        if val > t or (j > 1 and m * d_f ** (j - 1) <= t):
            # The estimate missed the least level k with m d^k <= t.
            j = _grid_level(t, m, d_f, j)
            val = m * d_f**j
        if val <= 0.0:
            # d^j underflowed on its own even though the level itself is
            # representable; recover it in log space, or keep t when the
            # level sits below the subnormal floor.
            try:
                val = math.exp(math.log(m) + j * log_d)
            except OverflowError:
                val = 0.0
            if val <= 0.0:
                val = t
        push(-val if c < 0.0 else val)
    return tuple(out)


def _grid_level(t: float, m: float, d: float, j: int) -> int:
    """The least level k >= 1 with m d^k <= t, searched from a guess j.

    Gallops away from j, then bisects, so the number of steps is
    logarithmic in the miss; m d^k does not grow with k, so the level found
    is the least one.
    """

    def settled(k):
        return m * d**k <= t

    step = 1
    if settled(j):
        hi, lo = j, j - 1
        while lo >= 1 and settled(lo):
            hi, step = lo, 2 * step
            lo = j - step
        lo = max(lo, 0)  # level 0 is never taken
    else:
        lo, hi = j, j + 1
        while not settled(hi):  # settles: d^k reaches 0 as k grows
            lo, step = hi, 2 * step
            hi = j + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if settled(mid):
            hi = mid
        else:
            lo = mid
    return hi


def snap_to_gamma_grid(value: float, gamma: float, cap: float) -> float:
    """The off-support divisor for the p = 1 tail extension.

    Values in [0, cap] snap up to the next positive multiple of gamma
    (value in [k gamma, (k+1) gamma) gives (k+1) gamma); values in [-cap, 0)
    snap to -(k+1) gamma for value in [-(k+1) gamma, -k gamma), with the
    grid points k gamma rounded to doubles.  Values beyond the cap in
    magnitude return 1 (they only occur on null atoms).  Any other result is
    at least gamma in magnitude, exactly, and lies within gamma plus one ulp
    of the result from the input: a rounded grid point can land on the
    input, which then snaps one step further.
    """
    if not gamma > 0:  # NaN too
        raise ValueError("gamma must be positive")
    t = abs(value)
    if t > cap:
        return 1.0
    if t / gamma >= _GRID_LIMIT:
        # The grid cannot be resolved at this magnitude; the value itself
        # already satisfies both contracts (|v| >= gamma, |v - g| <= gamma).
        return value
    if value >= 0:
        k = int(t / gamma)
        while (k + 1) * gamma <= t:
            k += 1
        while k > 0 and k * gamma > t:
            k -= 1
    else:
        k = max(0, math.ceil(t / gamma) - 1)
        while k * gamma >= t and k > 0:
            k -= 1
        while (k + 1) * gamma < t:
            k += 1
    return math.copysign((k + 1) * gamma, 1.0 if value >= 0 else -1.0)


def _bounded(fs, gs, hs, measures, core, defect, p, eps, u, v):
    """Quantize, solve and repair on the atoms flagged in ``core``.

    The stage shared by the two public pipelines, on trusted tuples.  Every
    core atom has a nonzero defect and a nonzero measure, ``defect`` is
    their L1 defect, already below eps^2/4, and p is finite.  Writes the
    factors of the core atoms into the lists u and v and returns the
    parameters, or None when no atom is flagged.
    """
    if not any(core):
        return None
    f_c, g_c, h_c, mus = (tuple(compress(xs, core)) for xs in (fs, gs, hs, measures))
    mu_total = fsum_or_inf(mus)
    if math.isinf(mu_total):
        raise ValueError("bounded stage requires finite measure where h != fg")
    # max(max(x), -min(x)) is max |x|, without a pass of abs
    m = max(mu_total, *(max(max(xs), -min(xs)) for xs in (f_c, g_c, h_c))) + 1.0
    params = select_params(defect, m, p, eps)
    f_q = quantize_grid(f_c, params.delta)
    g_q = quantize_grid(g_c, params.delta)
    h_q = quantize_geometric(h_c, params.d, m)
    # Nothing for the constructors to find: the measures are checked ones,
    # with a finite sum, and the quantizers return tuples of floats no
    # larger than their finite inputs or m.  factor_countable still checks
    # membership of the quantized functions.
    space = MeasureSpace._trusted(mus)
    inner = factor_countable(
        SimpleFunction._trusted(space, f_q),
        SimpleFunction._trusted(space, g_q),
        SimpleFunction._trusted(space, h_q),
        p,
        params.eps_bar,
    )
    # alpha = h/h' in [1, 1/d] repairs the geometric quantization of h.
    for i, target, snapped, a, b in zip(
        compress(range(len(u)), core), h_c, h_q, inner.u, inner.v
    ):
        u[i] = (target / snapped if snapped != 0.0 else 1.0) * a
        v[i] = b
    return params


def factor_bounded(
    f: SimpleFunction,
    g: SimpleFunction,
    h: SimpleFunction,
    p: Union[Exponent, float],
    eps: float,
) -> FactorizationCertificate:
    """Bounded finite-measure stage: quantize, solve, repair.

    Requires a finite total measure over the atoms that need correction and
    ``||h - fg||_1 < eps^2/4``.  Atoms where h = fg exactly, and null atoms,
    are routed around the pipeline untouched, so an exact instance returns
    (f, g) verbatim.  Both returned bounds are strict.
    """
    return _solve_checked(_bounded_body, f, g, h, p, eps)


def _bounded_body(fs, gs, hs, space, p, eps):
    """``factor_bounded`` at finite p on checked tuples."""
    measures = space.measures
    _, outside, defect = split_defects(
        fs, gs, hs, measures, eps, "bounded factorization"
    )
    # Atoms in E keep an exact split; the pipeline runs on the others.
    u, v = copy_pairs(fs, gs, hs, outside)
    params = _bounded(fs, gs, hs, measures, outside, defect, p, eps, u, v)
    # u and v: float lists of one length, copies of the checked tuples
    # rewritten with floats by the exact splits and the bounded stage.
    return FactorizationCertificate._trusted(u, v, eps, eps, params=params)


def factor_general(
    f: SimpleFunction,
    g: SimpleFunction,
    h: SimpleFunction,
    p: Union[Exponent, float],
    eps: float,
) -> FactorizationCertificate:
    """General stage: truncate to a bounded core, solve there, extend.

    Picks an inner radius delta with ``||h - fg||_1 < delta^2/4`` and a tail
    budget gamma with delta + 2 gamma < eps, truncates the supports so the
    tails cost less than gamma, runs the bounded stage on the core, and
    extends across the tail: for p > 1 by u = |h|^(1/p),
    v = |h|^(1/q) sgn h, and for p = 1 by a gamma-grid divisor under g with
    u = h/v.  Both returned bounds are strict.
    """
    return _solve_checked(_general, f, g, h, p, eps)


def _general(fs, gs, hs, space, p, eps):
    """``factor_general`` at finite p on checked tuples."""
    measures = space.measures
    defects, outside, defect = split_defects(
        fs, gs, hs, measures, eps, "general factorization"
    )

    u = list(fs)
    v = list(gs)
    if not any(defects):  # h = fg everywhere: the checked f and g
        return FactorizationCertificate._trusted(u, v, eps, eps)

    # Inner radius and tail budget: midpoint of (2 sqrt(defect), eps), then
    # half of gamma's admissible supremum (eps - delta)/2.
    delta = (2.0 * math.sqrt(defect) + eps) / 2.0
    for _ in range(64):
        if defect < delta * delta / 4.0:
            break
        delta = (delta + eps) / 2.0
    gamma = (eps - delta) / 4.0
    if not (defect < delta * delta / 4.0 and delta < eps and gamma > 0):
        # Float-boundary defect: no room left for an inner radius or a tail.
        bound = defect_bound(eps)
        raise FeasibilityError(defect, bound, context="general factorization")

    q = conjugate(p)
    p_f, q_f = float(p), float(q)
    # The envelope steers the truncation.  It is zero off the atoms outside
    # E, which truncate_support ignores: null atoms are invisible to every
    # integral (and their powers may overflow), so they land off the core,
    # where the extensions handle them measure-free.
    # Saturation: a power or the tail budget leaves the double range.
    envelope = [0.0] * len(fs)
    saturated = False
    if q.is_infinite:  # p = 1: control |f| and |h| on the core
        for i in compress(range(len(fs)), outside):
            a, c = abs(fs[i]), abs(hs[i])
            envelope[i] = a if a >= c else c
        tail_budget = min(gamma, gamma * gamma)
    else:
        try:
            for i in compress(range(len(fs)), outside):
                x, y = fs[i], gs[i]
                a, b, c = abs(x) ** p_f, abs(y) ** q_f, abs(hs[i])
                if not (a and b) and (x and not a or y and not b):
                    saturated = True  # a power underflowed to 0
                top = a if a >= b else b
                envelope[i] = top if top >= c else c
        except OverflowError:
            saturated = True
        budgets = (pow_or_inf(gamma, p_f), pow_or_inf(gamma, q_f))
        saturated = saturated or 0.0 in budgets or INFINITE in budgets
        tail_budget = min(budgets)
    # When the exponents push the tail budget or the envelope outside what
    # binary64 can represent, the only truncation whose tails provably cost
    # nothing is the one that keeps every positive-measure atom.
    core = outside
    if not (saturated or tail_budget < 1e-290):
        try:
            # Every envelope value is a finite float: a power that overflows
            # raises and saturates, and |f|, |h| are checked coefficients.
            envelope_f = SimpleFunction._trusted(space, tuple(envelope))
            trunc = truncate_support(envelope_f, tail_budget)
        except ValueError:  # the envelope's integral overflows
            pass
        else:
            core = trunc._kept_mask  # A, over every atom of the space

    core_defect = l1_defect(defects, measures, core)
    params = _bounded(fs, gs, hs, measures, core, core_defect, p, delta, u, v)

    off = map(and_, map(truth, defects), map(not_, core))
    off_atoms = list(compress(range(len(fs)), off))
    g_sup = None
    if q.is_infinite:
        g_sup = max(
            (abs(gs[i]) for i in off_atoms if measures[i] > 0),
            default=0.0,
        )
        for i in off_atoms:
            divisor = snap_to_gamma_grid(gs[i], gamma, g_sup)
            v[i] = divisor
            u[i] = hs[i] / divisor
            if math.isinf(u[i]) and not measures[i]:  # a null atom fits any split
                u[i], v[i] = copy_pair(fs[i], gs[i], hs[i])
    else:
        inv_p, inv_q = 1.0 / p_f, 1.0 / q_f
        for i in off_atoms:
            z = hs[i]
            t = abs(z)
            u[i] = t**inv_p
            v[i] = math.copysign(t**inv_q, z) if z != 0 else 0.0

    if params is not None:
        params = params._with_tail(gamma, delta, g_sup)
    # u and v: float lists of one length, copies of the checked tuples
    # rewritten with floats by the core and the tail extensions.
    return FactorizationCertificate._trusted(u, v, eps, eps, params=params)
