"""The three-case scalar factorization kernel."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpfactor import FeasibilityError, ScalarBox, factor_scalar
from lpfactor.scalar import _checked_pair


class TestExamples:
    def test_case_one_keeps_x(self):
        pair = factor_scalar(ScalarBox(2, 3, 1, 1), 6.2)
        assert pair.case == 1
        assert (pair.u, pair.v) == (2.0, 3.1)
        assert abs(pair.v - 3) == pytest.approx(0.1)

    def test_exact_product_returns_the_pair(self):
        pair = factor_scalar(ScalarBox(5, -4, 0.1, 0.1), -20.0)
        assert (pair.u, pair.v) == (5.0, -4.0)

    def test_balanced_case_at_origin(self):
        pair = factor_scalar(ScalarBox(0, 0, 2, 2), 0.9)
        assert pair.case == 3
        assert pair.u == pytest.approx(math.sqrt(0.9), rel=1e-15)
        assert pair.v == pytest.approx(math.sqrt(0.9), rel=1e-15)
        assert pair.u * pair.v == pytest.approx(0.9, rel=1e-12)

    def test_bound_violation_raises(self):
        with pytest.raises(FeasibilityError) as err:
            factor_scalar(ScalarBox(0, 0, 1, 1), 0.3)
        assert err.value.defect == 0.3
        assert err.value.bound == 0.25

    def test_case_two_when_only_y_is_large(self):
        pair = factor_scalar(ScalarBox(0.0, 2.0, 1, 1), 0.2)
        assert pair.case == 2
        assert pair.v == 2.0
        assert pair.u == pytest.approx(0.1)

    def test_boundary_magnitude_falls_through(self):
        # |x| equal to r/4 exactly is not "greater than": case 1 is skipped.
        pair = factor_scalar(ScalarBox(0.25, 0.0, 1.0, 1.0), 0.2)
        assert pair.case == 3

    def test_zero_target_in_balanced_case(self):
        pair = factor_scalar(ScalarBox(0.1, 0.1, 1, 1), 0.0)
        assert pair.case == 3
        assert (pair.u, pair.v) == (0.0, 0.0)

    def test_sign_preserved_in_balanced_case(self):
        pair = factor_scalar(ScalarBox(0, 0, 1, 1), -0.2)
        assert pair.case == 3
        assert pair.u > 0 > pair.v
        assert pair.u * pair.v == pytest.approx(-0.2, rel=1e-12)


class TestGuarantees:
    def test_random_soundness_sweep(self):
        rng = random.Random(7)
        for _ in range(4000):
            x = rng.uniform(-3, 3)
            y = rng.uniform(-3, 3)
            r = rng.choice((0.5, 1.0, 2.0))
            big_r = rng.choice((0.5, 1.0, 2.0))
            reach = r * big_r / 4
            z = x * y + rng.uniform(-reach, reach) * 0.999999
            pair = factor_scalar(ScalarBox(x, y, r, big_r), z)
            assert abs(pair.u * pair.v - z) <= 1e-12 * max(1.0, abs(z))
            assert abs(pair.u - x) < r
            assert abs(pair.v - y) < big_r

    @given(
        x=st.floats(-0.25, 0.25),
        y=st.floats(-0.25, 0.25),
        z=st.floats(-0.2499, 0.2499),
    )
    @settings(max_examples=300)
    def test_balanced_case_containment(self, x, y, z):
        # With |x| <= r/4, |y| <= R/4 and |z - xy| < rR/4 the balanced
        # construction stays strictly inside both radii.
        if not abs(z - x * y) < 0.25:
            return
        pair = factor_scalar(ScalarBox(x, y, 1.0, 1.0), z)
        assert abs(pair.u - x) < 1.0
        assert abs(pair.v - y) < 1.0
        if pair.case == 3 and z != 0:
            assert math.copysign(1, pair.u * pair.v) == math.copysign(1, z)

    def test_quarter_constant_is_conservative(self):
        # z = 0.4 sits outside the guaranteed region rR/4 = 0.25 at the
        # origin, so the API refuses it ...
        with pytest.raises(FeasibilityError):
            factor_scalar(ScalarBox(0, 0, 1, 1), 0.4)
        # ... yet the balanced formulas would still land inside the radii:
        # the guarantee asserts feasibility inside rR/4, never
        # infeasibility outside it.
        u = math.sqrt(0.4 * 1.0 / 1.0)
        v = math.sqrt(0.4 * 1.0 / 1.0)
        assert u * v == pytest.approx(0.4, rel=1e-12)
        assert abs(u) < 1.0 and abs(v) < 1.0

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValueError):
            ScalarBox(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ScalarBox(0, 0, 1.0, -2.0)


class TestCheckedFallback:
    """The starved-atom fallback: the three constructions, checked exactly."""

    def test_first_construction_within_both_radii_wins(self):
        # the radii are rationals far below any double's reach of x * y
        r, R = Fraction(1, 10**400), Fraction(1, 10**5)
        assert _checked_pair(2.0, 3.0, 6.0 + 2**-50, r, R, "here") == (2.0, 3.0 + 2**-51)
        # x = 0 skips exact division by x
        assert _checked_pair(0.0, 4.0, 1e-320, Fraction(1, 10**300), R, "here") == (
            1e-320 / 4.0,
            4.0,
        )

    def test_radius_below_the_least_double_is_refused(self):
        # every candidate puts u_0 at or above 5e-324, beyond r = 1e-330
        with pytest.raises(FeasibilityError, match="in atom 7"):
            _checked_pair(0.0, 1.0, 1e-320, Fraction(1, 10**330), Fraction(10**10), "atom 7")
