"""Parameter selection, quantization and the bounded/general pipelines."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpfactor
from lpfactor import (
    INFINITE,
    Exponent,
    FeasibilityError,
    InstanceSpec,
    LpInstance,
    MeasureSpace,
    SimpleFunction,
    factor_bounded,
    factor_countable,
    factor_general,
    gen_instance,
    norm,
    quantize_geometric,
    quantize_grid,
    select_params,
    snap_to_gamma_grid,
    verify_certificate,
)
from lpfactor.lp import _grid_level


def build(measures, f, g, h):
    space = MeasureSpace(measures)
    return (
        SimpleFunction(space, tuple(f)),
        SimpleFunction(space, tuple(g)),
        SimpleFunction(space, tuple(h)),
    )


def check_params(params, defect, eps, p):
    """All selected parameters satisfy their defining inequalities."""
    inv_p = Exponent(p).reciprocal()
    inv_q = Exponent(p).conjugate().reciprocal()
    m, eps1, delta, d, eps_bar = (
        params.m,
        params.eps1,
        params.delta,
        params.d,
        params.eps_bar,
    )
    assert eps1 > 0
    assert eps1 + math.sqrt(4 * defect + 8 * eps1) < eps
    assert delta > 0
    assert delta < eps1 * min(
        m**-inv_p, m**-inv_q if inv_q else 1.0, 0.5 / m / m
    ) or delta == 5e-324
    assert 0 < d < 1
    s = 1 - d  # exact rational
    assert s * Fraction(m) * Fraction(m) < Fraction(eps1)
    s_f = float(s)
    growth = m ** (1.0 + inv_p)
    assert eps1 + (s_f / (1 - s_f)) * growth + eps_bar / (1 - s_f) < eps
    assert eps_bar == pytest.approx(math.sqrt(4 * defect + 8 * eps1), rel=1e-15)


class TestSelectParams:
    def test_small_defect_admissible(self):
        # the hand check from the derivation: 0.05 would already do
        assert 0.05 + math.sqrt(4 * 0.01 + 8 * 0.05) < 1.0
        params = select_params(0.01, 5.0, 2, 1.0)
        check_params(params, 0.01, 1.0, 2)

    def test_zero_defect(self):
        params = select_params(0.0, 10.0, 1.5, 1.0)
        check_params(params, 0.0, 1.0, 1.5)

    def test_boundary_defect_rejected(self):
        with pytest.raises(FeasibilityError):
            select_params(0.25, 5.0, 2, 1.0)

    def test_near_boundary_defect(self):
        params = select_params(0.99 * 0.25, 50.0, 3, 1.0)
        check_params(params, 0.99 * 0.25, 1.0, 3)

    def test_p_one_uses_unit_conjugate_bound(self):
        params = select_params(0.01, 4.0, 1, 1.0)
        check_params(params, 0.01, 1.0, 1)

    def test_huge_bound_pushes_d_past_float_resolution(self):
        params = select_params(0.99 * 0.25, 1e7, 2, 1.0)
        check_params(params, 0.99 * 0.25, 1.0, 2)
        assert float(params.d) == 1.0  # yet d < 1 holds exactly
        assert params.d < 1

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(1e-300, 1e300),
        below=st.integers(1, 2**40),
    )
    @example(eps=1.0, below=1)
    @example(eps=1e-150, below=1)
    def test_defect_just_below_the_bound_keeps_a_positive_margin(self, eps, below):
        # 1 - d is bounded by margin = eps - eps1 - eps_bar, which the
        # bisection's exit test keeps positive, so d < 1 on every return.
        bound = (eps / 2.0) * (eps / 2.0)
        defect = max(bound - below * math.ulp(bound), 0.0)
        try:
            params = select_params(defect, 1.0, 2, eps)
        except FeasibilityError:
            return
        assert eps - params.eps1 - params.eps_bar > 0 and params.d < 1

    def test_random_parameter_soundness(self):
        rng = random.Random(31)
        for _ in range(200):
            eps = math.exp(rng.uniform(math.log(0.1), math.log(10)))
            defect = rng.uniform(0.0, 0.999) * eps * eps / 4
            m = math.exp(rng.uniform(0, math.log(1e9)))
            p = rng.choice([1, 1.5, 2, 3, 17])
            params = select_params(defect, max(m, 1.0), p, eps)
            check_params(params, defect, eps, p)


def reference_select_params(defect, m, p, eps):
    """select_params with d in Fraction arithmetic, as it was first written."""
    p = Exponent(p)
    bound = (eps / 2.0) * (eps / 2.0)
    if not defect < bound:
        raise FeasibilityError(defect, bound, context="parameter selection")
    lo, hi = 0.0, eps
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid + math.sqrt(4.0 * defect + 8.0 * mid) < eps:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise FeasibilityError(defect, bound, context="parameter selection")
    eps1 = lo / 2.0
    eps_bar = math.sqrt(4.0 * defect + 8.0 * eps1)
    inv_p = float(Fraction(1) / p.value)
    inv_q = 0.0 if p.value == 1 else float(1 - Fraction(1) / p.value)
    pow_or_inf = lpfactor.measure.pow_or_inf
    delta_bound = eps1 * min(
        pow_or_inf(m, -inv_p), pow_or_inf(m, -inv_q) if inv_q else 1.0, 0.5 / m / m
    )
    delta = max(delta_bound / 2.0, 5e-324)
    m_squared = Fraction(m) ** 2
    s_flat = Fraction(eps1) / m_squared
    margin = eps - eps1 - eps_bar
    if margin <= 0:
        raise FeasibilityError(defect, bound, context="parameter selection")
    growth = pow_or_inf(m, 1.0 + inv_p)
    if math.isinf(growth):
        denom = m_squared + 1
    else:
        denom = Fraction(growth) + Fraction(eps - eps1)
    s_star = min(s_flat, Fraction(margin) / denom, Fraction(1))
    return eps1, delta, 1 - s_star / 2, eps_bar


PS_FINITE = (1, 1.25, 1.5, 2, 3, 7)


@st.composite
def param_draws(draw):
    p = draw(st.sampled_from(PS_FINITE))
    eps = 10.0 ** draw(st.floats(-150.0, 150.0))
    defect = draw(st.floats(0.0, 1.0, exclude_max=True)) * (eps / 2.0) ** 2
    if draw(st.booleans()):
        m = 10.0 ** draw(st.floats(-3.0, 300.0))
    else:  # straddle the m where m^(1 + 1/p) leaves the double range
        edge = math.exp(math.log(sys.float_info.max) / (1.0 + 1.0 / p))
        m = edge * draw(st.floats(0.999999, 1.000001))
    return defect, m, p, eps


class TestSelectParamsMatchesFractionReference:
    @settings(max_examples=400, deadline=None)
    @given(param_draws())
    @example((0.99 * 0.25, 1e7, 2, 1.0))
    @example((0.0, 1e300, 1, 1e-150))
    @example((0.0, 1.0, 1, 1e150))
    @example((0.0, 1e-200, 1, 1e150))  # s = min(..., 1) = 1, d = 1/2
    def test_same_params_bit_for_bit(self, draw):
        defect, m, p, eps = draw
        try:
            expected = reference_select_params(defect, m, p, eps)
        except FeasibilityError:
            with pytest.raises(FeasibilityError):
                select_params(defect, m, p, eps)
            return
        params = select_params(defect, m, p, eps)
        eps1, delta, d, eps_bar = expected
        assert type(params.d) is Fraction and params.d == d
        assert params.d.as_integer_ratio() == d.as_integer_ratio()
        got = (params.m, params.eps1, params.delta, params.eps_bar)
        want = (m, eps1, delta, eps_bar)
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))


class TestQuantizeGrid:
    def test_round_toward_zero(self):
        assert quantize_grid((0.37,), 0.1)[0] == pytest.approx(0.3)

    def test_negative_rounds_toward_zero(self):
        assert quantize_grid((-0.37,), 0.1)[0] == pytest.approx(-0.3)

    def test_grid_points_are_fixed(self):
        delta = 0.1
        values = tuple(k * delta for k in (-5, -3, 0, 1, 4))
        assert quantize_grid(values, delta) == values

    def test_pointwise_error_and_shrinkage(self):
        rng = random.Random(8)
        f = tuple(rng.uniform(-40, 40) for _ in range(200))
        for delta in (1e-6, 0.01, 0.5, 3.0):
            fq = quantize_grid(f, delta)
            for a, b in zip(f, fq):
                assert abs(a - b) <= delta * (1 + 1e-12)
                assert abs(b) <= abs(a)

    def test_upward_fix_up_step(self):
        # int(t / delta) lands one grid step short of the floor of t / delta
        t, delta = 544208.0627891173, 1.6048148406563937e-09
        k = int(t / delta)
        assert k == 339109565167360 and (k + 1) * delta <= t
        (tq,) = quantize_grid((t,), delta)
        assert tq == (k + 1) * delta
        assert tq <= t and t - tq <= delta

    @pytest.mark.parametrize(
        "value, gamma",
        [
            # upward: int(t / gamma) gamma is right, but (k + 1) gamma rounds
            # onto the input, so the value snaps one step further
            (6538956.242703294, 5.962359512103355e-06),
            # downward: ceil(t / gamma) - 1 steps already reach the input
            (-5089728.365640334, 9.469211904765572e-06),
        ],
    )
    def test_gamma_grid_fix_up_steps(self, value, gamma):
        t = abs(value)
        if value > 0:
            k = int(t / gamma)
            assert (k + 1) * gamma == t  # the upward step is taken
        else:
            k = math.ceil(t / gamma) - 1
            assert k * gamma >= t  # the downward step is taken
        snapped = snap_to_gamma_grid(value, gamma, math.inf)
        assert math.copysign(1.0, snapped) == math.copysign(1.0, value)
        assert abs(snapped) >= gamma
        assert abs(snapped - value) <= gamma + math.ulp(snapped)
        if value > 0:
            assert snapped == 6538956.242709258
            assert abs(snapped - value) > gamma  # one rounding past gamma

    def test_subresolution_grid_is_identity(self):
        # more than 2^53 steps to either value: a double cannot tell the
        # nearest grid point from the value itself
        assert quantize_grid((1e6, -3.7), 1e-17) == (1e6, -3.7)


class TestQuantizeGeometric:
    def test_zero_stays_zero(self):
        assert quantize_geometric((0.0,), 0.5, 1.0) == (0.0,)

    def test_snaps_down_to_geometric_level(self):
        out = quantize_geometric((0.75,), 0.5, 1.0)
        assert out[0] == pytest.approx(0.5, rel=1e-15)

    def test_negative_branch(self):
        out = quantize_geometric((-0.75,), 0.5, 1.0)
        assert out[0] == pytest.approx(-0.5, rel=1e-15)

    def test_exceeding_bound_rejected(self):
        with pytest.raises(ValueError):
            quantize_geometric((1.5,), 0.5, 1.0)

    def test_ratio_band_random(self):
        rng = random.Random(77)
        for d in (0.3, 0.9, 0.999, 1 - 1e-9, 1 - 1e-15):
            m = 10.0
            h = tuple(rng.uniform(-m, m) for _ in range(50))
            out = quantize_geometric(h, d, m)
            for a, b in zip(h, out):
                if a == 0:
                    assert b == 0
                    continue
                ratio = a / b
                assert 1.0 - 1e-12 <= ratio <= (1.0 / d) * (1 + 1e-12)
                assert abs(a - b) <= (1 - d) * m * (1 + 1e-9)

    def test_subresolution_ratio_is_identity(self):
        h = (0.123, -7.5)
        d = 1 - Fraction(1, 10**30)
        assert quantize_geometric(h, d, 10.0) is h

    def test_bracket_search_far_from_the_estimate_settles(self):
        # The estimate from logarithms falls more than 10^4 levels short of
        # the first level with m * d^j <= |h|, where d^j is subnormal; the
        # search gallops up to it.
        h = (2.2e-308, -2.2e-308)
        a, b = quantize_geometric(h, 0.9999999999928164, 4565630326465358.0)
        assert 0.0 < a < 4565630326465358.0
        assert b == -a

    def test_underflowed_levels_settle_in_bounded_time(self):
        # At p = 1 this instance reaches the quantizer with d = 1 - 7e-9 and
        # |h| = 5e-324, where d^j has underflowed about 10^9 levels above the
        # level sought, so a walk of one level at a time runs for minutes.
        # The child process puts a hard limit on the wait.
        code = (
            "from lpfactor import *\n"
            "space = MeasureSpace([1.0, 1e3])\n"
            "f = SimpleFunction(space, (1.0, 1e-3))\n"
            "g = SimpleFunction(space, (0.0, 1e-3))\n"
            "h = SimpleFunction(space, (5e-324, 1e-6 + 1e-9))\n"
            "try:\n"
            "    cert = factor_general(f, g, h, 1, 1.0)\n"
            "except FeasibilityError:\n"
            "    print('refused')\n"
            "else:\n"
            "    instance = LpInstance(f, g, h, Exponent(1), 1.0)\n"
            "    print(verify_certificate(instance, cert).verdict)\n"
        )
        src = os.path.dirname(os.path.dirname(lpfactor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() in ("pass", "refused")


def reference_quantize_grid(coeffs, delta):
    """The grid quantizer as first written: both correction walks always run."""
    out = []
    for c in coeffs:
        t = abs(c)
        if t == 0.0:
            out.append(0.0)
            continue
        steps = t / delta
        if steps >= 2.0**53:
            out.append(c)
            continue
        k = int(steps)
        while (k + 1) * delta <= t:
            k += 1
        while k > 0 and k * delta > t:
            k -= 1
        out.append(math.copysign(k * delta, c))
    return tuple(out)


def reference_quantize_geometric(coeffs, d, m):
    """The geometric quantizer as first written, for |h| <= m and 0 < d < 1."""
    d_f = float(d)
    if d_f >= 1.0:
        return coeffs
    log_d, log_m = math.log(d_f), math.log(m)
    out = []
    for c in coeffs:
        t = abs(c)
        if t == 0.0:
            out.append(0.0)
            continue
        s = (math.log(t) - log_m) / log_d
        if s >= 2.0**52:
            out.append(c)
            continue
        j = max(1, math.ceil(s))
        dj = d_f**j
        if m * dj > t or (j > 1 and m * d_f ** (j - 1) <= t):
            j = _grid_level(t, m, d_f, j)
            dj = d_f**j
        val = m * dj
        if val <= 0.0:
            try:
                val = math.exp(math.log(m) + j * log_d)
            except OverflowError:
                val = 0.0
            if val <= 0.0:
                val = t
        out.append(math.copysign(val, c))
    return tuple(out)


def _ulp_neighbours(values):
    return [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


_coefficients = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    max_size=20,
)


class TestQuantizersMatchTheirFirstForm:
    """Output, signed zeros included, is repr-identical to the first form."""

    @given(coeffs=_coefficients, delta=st.floats(min_value=5e-324, max_value=1e300))
    @settings(max_examples=300)
    def test_grid_random(self, coeffs, delta):
        coeffs = tuple(coeffs)
        assert repr(quantize_grid(coeffs, delta)) == repr(
            reference_quantize_grid(coeffs, delta)
        )

    @pytest.mark.parametrize("delta", [0.1, 1.6048148406563937e-09, 3.0, 5e-324])
    def test_grid_edges(self, delta):
        points = [k * delta for k in (1, 2, 3, 7, 10, 339109565167361)]
        coeffs = (
            -0.0, 0.0, -1e-300, 1e-300, -5e-324, 544208.0627891173,
            *_ulp_neighbours(points), *_ulp_neighbours([-x for x in points]),
            2.0**53 * delta, -(2.0**60) * delta, 1e308, -1e308,
        )
        got = quantize_grid(coeffs, delta)
        assert repr(got) == repr(reference_quantize_grid(coeffs, delta))
        if delta > 1e-280:  # a tiny negative lies in the first step
            assert repr(got[:3]) == "(0.0, 0.0, -0.0)"

    @given(
        coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=20),
        d=st.floats(min_value=1e-3, max_value=math.nextafter(1.0, 0.0)),
        m=st.floats(min_value=1.0, max_value=1e300),
    )
    @settings(max_examples=300)
    def test_geometric_random(self, coeffs, d, m):
        coeffs = tuple(c * m for c in coeffs)
        assert repr(quantize_geometric(coeffs, d, m)) == repr(
            reference_quantize_geometric(coeffs, d, m)
        )

    @pytest.mark.parametrize(
        "d, m",
        [(0.5, 1.0), (0.9, 10.0), (0.9999999999928164, 4565630326465358.0),
         (0.9999999998571947, 3.38e163), (1 - 1e-12, 22728.99)],
    )
    def test_geometric_edges(self, d, m):
        levels = [m * d**j for j in (0, 1, 2, 5, 1000)]
        coeffs = (
            -0.0, 0.0, -5e-324, 1e-320, 2.2e-308, -2.2e-308, m, -m,
            *[x for x in _ulp_neighbours(levels) if x <= m],
        )
        got = quantize_geometric(coeffs, d, m)
        assert repr(got) == repr(reference_quantize_geometric(coeffs, d, m))
        assert repr(got[:2]) == "(0.0, 0.0)"

    def test_geometric_ratio_within_an_ulp_of_one_is_the_input(self):
        h = (0.5, -0.0, -3.0)
        d = Fraction(2**60 - 1, 2**60)  # rounds to 1.0
        assert quantize_geometric(h, d, 4.0) is h
        assert reference_quantize_geometric(h, d, 4.0) is h


class TestGammaGrid:
    def test_rounds_up_to_next_level(self):
        assert snap_to_gamma_grid(0.25, 0.1, 1.0) == pytest.approx(0.3)

    def test_negative_side(self):
        assert snap_to_gamma_grid(-0.25, 0.1, 1.0) == pytest.approx(-0.3)
        # negative grid points stay put: -0.2 lies in (k=1) gamma bracket
        assert snap_to_gamma_grid(-0.2, 0.1, 1.0) == pytest.approx(-0.2)

    def test_zero_maps_to_gamma(self):
        assert snap_to_gamma_grid(0.0, 0.1, 1.0) == pytest.approx(0.1)

    def test_beyond_cap_returns_one(self):
        assert snap_to_gamma_grid(5.0, 0.1, 1.0) == 1.0

    def test_never_smaller_than_gamma_and_never_far(self):
        rng = random.Random(5)
        for _ in range(500):
            gamma = rng.uniform(0.01, 2.0)
            cap = rng.uniform(0.0, 10.0)
            val = rng.uniform(-cap, cap) if cap else 0.0
            snapped = snap_to_gamma_grid(val, gamma, cap)
            assert abs(snapped) >= gamma * (1 - 1e-12)
            assert abs(snapped - val) <= gamma * (1 + 1e-12)


class TestFactorBounded:
    def test_exact_product_returns_inputs(self):
        space = MeasureSpace([1, 2])
        f = SimpleFunction(space, (1.5, -2))
        g = SimpleFunction(space, (2, 0.5))
        h = SimpleFunction(space, tuple(map(mul, f.coefficients, g.coefficients)))
        cert = factor_bounded(f, g, h, 2, 1.0)
        assert cert.u == f.coefficients
        assert cert.v == g.coefficients

    def test_two_atom_instance_verifies(self):
        f, g, h = build([1, 1], [1, 2], [1, 1], [1.01, 2.02])
        cert = factor_bounded(f, g, h, 2, 1.0)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        report = verify_certificate(instance, cert)
        assert report.passed
        assert report.norm_u_dist < 1.0 and report.norm_v_dist < 1.0
        prod = [a * b for a, b in zip(cert.u, cert.v)]
        assert prod == pytest.approx(list(h.coefficients), rel=1e-12)

    def test_p_one_essential_bound_on_null_atom(self):
        # |g| tops out on a null atom; m only needs the essential sup
        f, g, h = build([1, 1, 0], [1, 1, 1], [2, 3, 50], [2.05, 3.02, 100])
        cert = factor_bounded(f, g, h, 1, 1.0)
        assert cert.params.m == pytest.approx(4.02)
        assert cert.u[2] == 10.0 and cert.v[2] == 10.0  # balanced null split
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(1), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_quantization_budgets_hold(self):
        # displays: grid errors below eps1 and the quantized target's defect
        # below eps_bar^2/4 before the inner solve
        rng = random.Random(17)
        for p in (1, 1.5, 2, 3):
            q = Exponent(p).conjugate()
            measures = [rng.uniform(0.1, 2.0) for _ in range(12)]
            f, g, h = build(
                measures,
                [rng.uniform(-2, 2) for _ in range(12)],
                [rng.uniform(-2, 2) for _ in range(12)],
                [rng.uniform(-2, 2) for _ in range(12)],
            )
            defect = math.fsum(
                abs(z - x * y) * m
                for x, y, z, m in zip(
                    f.coefficients, g.coefficients, h.coefficients, measures
                )
            )
            if not defect < 0.25:
                continue
            cert = factor_bounded(f, g, h, p, 1.0)
            params = cert.params
            space = f.space
            f_q = SimpleFunction(space, quantize_grid(f.coefficients, params.delta))
            g_q = SimpleFunction(space, quantize_grid(g.coefficients, params.delta))
            h_q = SimpleFunction(
                space, quantize_geometric(h.coefficients, params.d, params.m)
            )
            assert norm_diff(f, f_q, p) < params.eps1
            assert norm_diff(g, g_q, q) < params.eps1
            fg = SimpleFunction(space, tuple(map(mul, f.coefficients, g.coefficients)))
            fq_gq = SimpleFunction(
                space, tuple(map(mul, f_q.coefficients, g_q.coefficients))
            )
            assert norm_diff(fg, fq_gq, 1) < params.eps1
            assert (
                norm_diff(h_q, fq_gq, 1)
                < defect + 2 * params.eps1 + 1e-15
            )
            # correction factor band
            for a, b in zip(h.coefficients, h_q.coefficients):
                alpha = a / b if b != 0 else 1.0
                assert 1 - 1e-12 <= alpha <= float(1 / params.d) * (1 + 1e-12)

    def test_near_boundary_defect_succeeds(self):
        spec = InstanceSpec(
            kind="lp", n=30, eps=1.0, defect_fraction=0.99, seed=11, p=2
        )
        inst = gen_instance(spec)
        cert = factor_bounded(inst.f, inst.g, inst.h, inst.p, inst.eps)
        assert verify_certificate(inst, cert).passed

    def test_p_infinity_by_symmetry(self):
        f, g, h = build([1, 3], [2, 1], [1, 0.5], [2.05, 0.5])
        cert = factor_bounded(f, g, h, INFINITE, 1.0)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(INFINITE), eps=1.0)
        assert verify_certificate(instance, cert).passed


def norm_diff(a, b, p):
    return norm(
        SimpleFunction(a.space, tuple(x - y for x, y in zip(a.coefficients, b.coefficients))),
        p,
    )


class TestFactorGeneral:
    def test_reduces_to_bounded_when_nothing_truncates(self):
        f, g, h = build([1, 1], [1, 2], [1, 1], [1.01, 2.02])
        cert = factor_general(f, g, h, 2, 1.0)
        inner = factor_bounded(f, g, h, 2, cert.params.outer_delta)
        assert cert.u == inner.u
        assert cert.v == inner.v

    def test_small_tail_atom_gets_power_split(self):
        f, g, h = build(
            [1, 1, 1],
            [1, 1, 1e-6],
            [1, 1, 1e-6],
            [1.01, 1.02, 1e-6],
        )
        cert = factor_general(f, g, h, 2, 1.0)
        assert cert.u[2] == pytest.approx(1e-3, rel=1e-12)
        assert cert.v[2] == pytest.approx(1e-3, rel=1e-12)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_p_one_tail_uses_gamma_grid_divisor(self):
        f, g, h = build(
            [1, 1],
            [1, 1e-9],
            [1, 0.25],
            [1.05, 1e-9],
        )
        cert = factor_general(f, g, h, 1, 1.0)
        gamma = cert.params.gamma
        assert cert.params.g_sup == 0.25
        assert cert.v[1] == pytest.approx(4 * gamma)  # 0.25 in [3g, 4g)
        assert cert.u[1] == pytest.approx(1e-9 / (4 * gamma))
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(1), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_infinite_measure_atoms(self):
        for p in (1, 2):
            spec = InstanceSpec(
                kind="lp",
                n=25,
                eps=1.0,
                defect_fraction=0.8,
                seed=21 + p,
                p=p,
                infinite_atoms=2,
            )
            inst = gen_instance(spec)
            assert any(math.isinf(m) for m in inst.space.measures)
            cert = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
            assert verify_certificate(inst, cert).passed
            # copied through: the infinite atoms already agreed
            for i, m in enumerate(inst.space.measures):
                if math.isinf(m):
                    assert cert.u[i] == inst.f.coefficients[i]
                    assert cert.v[i] == inst.g.coefficients[i]

    def test_uniformity_one_sided_scaling(self):
        # replacing (f, g) by (cf, g) and h by c*fg + the same perturbation
        # keeps the instance feasible and solvable at fixed eps
        rng = random.Random(13)
        measures = [rng.uniform(0.2, 5) for _ in range(15)]
        f0 = [rng.uniform(-2, 2) for _ in range(15)]
        g0 = [rng.uniform(-2, 2) for _ in range(15)]
        pert = [rng.uniform(-1, 1) for _ in range(15)]
        raw = math.fsum(abs(d) * m for d, m in zip(pert, measures))
        pert = [d * 0.2 / raw for d in pert]
        for c in (1.0, -10.0, 1e3, 1e6):
            f, g, h = build(
                measures,
                [c * a for a in f0],
                g0,
                [c * a * b + d for a, b, d in zip(f0, g0, pert)],
            )
            cert = factor_general(f, g, h, 2, 1.0)
            instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
            assert verify_certificate(instance, cert).passed

    def test_infeasible_rejected(self):
        f, g, h = build([1.0], [0], [0], [0.25])
        with pytest.raises(FeasibilityError):
            factor_general(f, g, h, 2, 1.0)

    def test_envelope_integral_overflow_keeps_every_live_atom(self):
        # ||f||_2 = 1e155, ||h||_1 = 2.11 and the defect 0.11 is below 1/4,
        # but the envelope |f|^2 mu reaches 1e310: no truncation level can
        # be computed, so the core keeps every live working atom.
        f, g, h = build(
            [1e10, 1.0], [1e150, 1.0], [1e-160, 1.0], [1e150 * 1e-160 + 1e-12, 1.1]
        )
        cert = factor_general(f, g, h, 2, 1.0)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_null_atom_with_huge_value_survives(self):
        # |g|^q overflows a double on the null atom; it must not disturb
        # the truncation, and the off-core split keeps the product exact.
        f, g, h = build([1, 0], [1, 1e200], [1, 0], [1.05, 4.0])
        cert = factor_general(f, g, h, 3, 1.0)
        assert cert.u[1] * cert.v[1] == pytest.approx(4.0, rel=1e-12)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(3), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_null_atom_quotient_overflow_splits_exactly(self):
        # at p = oo the swapped p = 1 tail divides h_0 = 6.5e213 by a
        # gamma-grid divisor near 1e-96; the null atom takes the exact
        # square-root split instead of an infinite u_0
        f, g, h = build([0.0], [0.0], [3.404436456961571e69], [6.54204607355549e213])
        cert = factor_general(f, g, h, "inf", 3.38532990434595e-95)
        assert all(map(math.isfinite, cert.u + cert.v))
        instance = LpInstance(f=f, g=g, h=h, p=Exponent("inf"), eps=3.38532990434595e-95)
        assert verify_certificate(instance, cert).passed

    def test_p_infinity_by_symmetry(self):
        spec = InstanceSpec(
            kind="lp", n=20, eps=1.0, defect_fraction=0.7, seed=5, p="inf"
        )
        inst = gen_instance(spec)
        cert = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
        assert verify_certificate(inst, cert).passed

    def test_certificates_are_deterministic(self):
        spec = InstanceSpec(
            kind="lp", n=35, eps=1.0, defect_fraction=0.9, seed=66, p=1.5
        )
        inst = gen_instance(spec)
        first = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
        second = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
        assert first.u == second.u
        assert first.v == second.v
        assert first.params == second.params


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: select_params(0.0, 0.0, 2, 1.0), "m must be positive"),
        (lambda: select_params(0.0, -1.0, 2, 1.0), "m must be positive"),
        (lambda: quantize_grid((1.0,), 0.0), "delta must be positive"),
        (lambda: quantize_grid((1.0,), -1.0), "delta must be positive"),
        (lambda: quantize_grid((0.0,), math.inf), "delta must be positive and finite"),
        (lambda: quantize_grid((0.0,), math.nan), "delta must be positive and finite"),
        (lambda: quantize_geometric((0.5,), 1, 1.0), "d must lie strictly"),
        (lambda: quantize_geometric((0.5,), 0.0, 1.0), "d must lie strictly"),
        (lambda: quantize_geometric((0.5,), 0.5, 0.0), "m must be positive"),
        (lambda: snap_to_gamma_grid(1.0, 0.0, 2.0), "gamma must be positive"),
        # Each defect share is 1.7e-2, but the measures sum past the doubles.
        (
            lambda: factor_bounded(
                *build([1.7e308, 1.7e308], [0.0, 0.0], [0.0, 0.0], [1e-310, 1e-310]),
                2,
                1.0,
            ),
            "bounded stage requires finite measure",
        ),
    ],
)
def test_public_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def assert_countable_then_general_certify(h, p, eps):
    f, g, h = build([1.0], [0.0], [0.0], [h])
    instance = LpInstance(f=f, g=g, h=h, p=Exponent(p), eps=eps)
    assert verify_certificate(instance, factor_countable(f, g, h, p, eps)).passed
    assert verify_certificate(instance, factor_general(f, g, h, p, eps)).passed


@pytest.mark.xfail(
    raises=FeasibilityError,
    strict=True,
    reason="2 sqrt(defect) rounds to eps, so the inner radius is eps, the tail "
    "budget gamma is 0 and factor_general refuses a feasible instance",
)
@pytest.mark.parametrize("p", [1, 2, INFINITE])
def test_general_refuses_when_the_defect_root_rounds_to_eps(p):
    assert_countable_then_general_certify(math.nextafter(0.25, 0.0), p, 1.0)


@pytest.mark.xfail(
    raises=FeasibilityError,
    strict=True,
    reason="delta^2/4 underflows, the delta guard loop runs, and select_params "
    "finds no representable eps1 for a feasible instance",
)
def test_general_refuses_a_subnormal_defect_at_a_tiny_eps():
    assert_countable_then_general_certify(5e-324, 2, 5.6e-162)


@pytest.mark.parametrize("solve", [factor_general, factor_bounded, factor_countable])
def test_p_infinity_is_the_transposed_p_one_solve(solve):
    # p = oo is answered by solving (g, f, h) at p = 1 and exchanging the
    # roles of u and v, closed-ball flags and parameters included.
    for seed in range(8):
        spec = InstanceSpec(
            kind="lp",
            n=(1, 5, 40)[seed % 3],
            eps=(0.5, 1.0, 2.0)[seed % 3],
            defect_fraction=0.8,
            seed=seed,
            p="inf",
            infinite_atoms=seed % 2,
        )
        inst = gen_instance(spec)
        cert = solve(inst.f, inst.g, inst.h, INFINITE, inst.eps)
        ref = solve(inst.g, inst.f, inst.h, 1, inst.eps)
        assert (cert.u, cert.v) == (ref.v, ref.u)
        assert (cert.radius_u, cert.radius_v) == (ref.radius_v, ref.radius_u)
        assert (cert.strict_u, cert.strict_v) == (ref.strict_v, ref.strict_u)
        assert cert.params == ref.params


@pytest.mark.parametrize("solve", [factor_general, factor_bounded, factor_countable])
def test_p_infinity_checks_membership_once(solve, monkeypatch):
    # The edge checks (f, g, h) at p = oo; the swapped p = 1 solve does not
    # check the same three norms again.
    from lpfactor import countable

    seen = []
    check = countable.check_memberships
    monkeypatch.setattr(
        countable, "check_memberships", lambda *args: seen.append(args) or check(*args)
    )
    spec = InstanceSpec(kind="lp", n=30, eps=1.0, defect_fraction=0.8, seed=4, p="inf")
    inst = gen_instance(spec)
    solve(inst.f, inst.g, inst.h, INFINITE, inst.eps)
    mine = [args for args in seen if args[2] is inst.h.coefficients]
    assert len(mine) == 1
    assert mine[0][0] is inst.f.coefficients and mine[0][4].is_infinite
