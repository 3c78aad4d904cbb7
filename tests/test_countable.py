"""Factorization of countably-valued (finitely atomic) near-products."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpfactor import scalar
from lpfactor.countable import split_defects
from lpfactor import (
    INFINITE,
    Exponent,
    FeasibilityError,
    LpInstance,
    MeasureSpace,
    SimpleFunction,
    agreement_split,
    factor_bounded,
    factor_countable,
    factor_general,
    norm,
    verify_certificate,
)


def build(measures, f, g, h):
    space = MeasureSpace(measures)
    return (
        SimpleFunction(space, tuple(f)),
        SimpleFunction(space, tuple(g)),
        SimpleFunction(space, tuple(h)),
    )


def dist(u, f, p):
    return norm(
        SimpleFunction(f.space, tuple(a - b for a, b in zip(u, f.coefficients))), p
    )


class TestExamples:
    def test_exact_agreement_returns_inputs(self):
        f, g, h = build([1, 2, 3], [1, -2, 0], [4, 0.5, 9], [4, -1, 0])
        cert = factor_countable(f, g, h, 2, 1.0)
        assert cert.u == f.coefficients
        assert cert.v == g.coefficients

    def test_single_atom_chain(self):
        f, g, h = build([1.0], [2], [3], [6.2])
        split = agreement_split(f, g, h, 2, 1.0)
        assert split.eta == pytest.approx(0.2)
        assert split.lambdas == {0: pytest.approx(1.0)}
        r, big_r = split.radii[0]
        assert (r, big_r) == (pytest.approx(1.0), pytest.approx(1.0))
        cert = factor_countable(f, g, h, 2, 1.0)
        assert cert.u == (2.0,)
        assert cert.v == (3.1,)
        assert dist(cert.u, f, 2) == 0.0
        assert dist(cert.v, g, 2) == pytest.approx(0.1)

    def test_null_atom_balanced_split(self):
        f, g, h = build([0.0, 1.0], [5, 1], [0, 1], [4, 1])
        cert = factor_countable(f, g, h, 2, 1.0)
        assert cert.u[0] == 2.0
        assert cert.v[0] == 2.0
        # the null atom is invisible to every norm
        assert dist(cert.u, f, 2) == 0.0
        assert dist(cert.v, g, 2) == 0.0

    def test_two_atom_instance_verifies(self):
        f, g, h = build([1, 4], [1, 1], [1, 1], [1.02, 1.01])
        split = agreement_split(f, g, h, 2, 1.0)
        assert split.eta == pytest.approx(0.06)
        assert split.lambdas[0] == pytest.approx(1 / 3)
        assert split.lambdas[1] == pytest.approx(2 / 3)
        cert = factor_countable(f, g, h, 2, 1.0)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_infeasible_defect_raises(self):
        # the second case: eps^2 = 4e308 overflows, eps^2/4 = 1e308 does not
        for target, eps in ((0.26, 1.0), (1.5e308, 2e154)):
            f, g, h = build([1.0], [0], [0], [target])
            for solve in (factor_countable, factor_bounded, factor_general):
                with pytest.raises(FeasibilityError):
                    solve(f, g, h, 2, eps)

    def test_boundary_defect_raises(self):
        f, g, h = build([1.0], [0], [0], [0.25])
        with pytest.raises(FeasibilityError):
            factor_countable(f, g, h, 2, 1.0)


class TestContracts:
    def test_p_one_promises_closed_ball(self):
        f, g, h = build([1.0], [1], [0], [0.2])
        cert = factor_countable(f, g, h, 1, 1.0)
        assert cert.strict_v is False
        assert cert.strict_u is True

    def test_p_above_one_promises_open_balls(self):
        f, g, h = build([1.0], [1], [0], [0.2])
        cert = factor_countable(f, g, h, 1.5, 1.0)
        assert cert.strict_v is True and cert.strict_u is True

    def test_p_infinity_swaps_and_flags_u_side(self):
        f, g, h = build([1.0, 2.0], [1, 1], [1, 0.5], [1.05, 0.5])
        cert = factor_countable(f, g, h, INFINITE, 1.0)
        assert cert.strict_u is False  # closed ball landed on the sup side
        assert cert.strict_v is True
        prod = [a * b for a, b in zip(cert.u, cert.v)]
        assert prod == pytest.approx(list(h.coefficients), rel=1e-12)
        assert dist(cert.u, f, INFINITE) <= 1.0
        assert dist(cert.v, g, 1) < 1.0

    def test_underflowed_defect_share_still_solvable(self):
        # |z - xy| * mu underflows to 0, so this atom is invisible to the
        # 1-norm; the measure-free radius ratio still hands the kernel a
        # workable box and the product stays exact.
        f, g, h = build([1e-250, 1.0], [1e-200, 1], [1.0, 1], [3e-200, 1.05])
        split = agreement_split(f, g, h, 2, 1.0)
        assert 0 not in split.agree
        assert split.radii[0][0] > 0
        cert = factor_countable(f, g, h, 2, 1.0)
        assert cert.u[0] * cert.v[0] == pytest.approx(3e-200, rel=1e-12)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_starved_radii_fall_back_to_exact_division(self, monkeypatch):
        # d_1 / eta = 1e-320 / 5000 rounds to 0, so both float radii of
        # atom 1 vanish; the checked fallback keeps u_1 = x_1 and divides
        # exactly, within the true radii 1000 (d_1/eta)^(1/3) and ^(2/3).
        calls = []
        checked = scalar._checked_pair

        def spy(*args):
            calls.append(args[-1])
            return checked(*args)

        monkeypatch.setattr(scalar, "_checked_pair", spy)
        f, g, h = build([1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [5001.0, 1e-320])
        cert = factor_countable(f, g, h, 3, 1000.0)
        assert calls == ["countable atom 1"]
        assert (cert.u[1], cert.v[1]) == (1.0, 1e-320)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(3), eps=1000.0)
        assert verify_certificate(instance, cert).passed

    @pytest.mark.parametrize(
        "solve, measures, f, g, h, p, eps",
        [
            # the parent's unchecked fallback broke the u side
            (
                factor_countable,
                [8.459540539565908e282, 5.983108466210933e-19],
                [-4.68693374240696e-159, -3.168159533777339e-187],
                [9.601066020510583e-184, -3.040024821231858e-186],
                [5.065236037866876e-206, 4.0958296506261466e192],
                1,
                3.2638590515886543e87,
            ),
            # ... the v side
            (
                factor_countable,
                [1.9077223516714735e267, 4.8468388484165107e260],
                [-7.754790552999086e52, 8.597160017408028e39],
                [-6.030888929610128e-228, 0.0],
                [-1.940554791952985e-22, -1.6602806956203305e-91],
                "inf",
                4.9011142088491586e123,
            ),
            # ... and, inside factor_general, the u side by 1.6e77 against 1.6e58
            (
                factor_general,
                [3.605911325051425e-185, 2.5005979651891676e261],
                [0.0, -1.7106359205986164e-269],
                [4.594123848879654e-212, 2.0676650393984603e-188],
                [1.8011458737694778e300, -0.0],
                1.5,
                1.6375613332165327e58,
            ),
        ],
    )
    def test_starved_atom_is_checked_against_its_true_radii(
        self, solve, measures, f, g, h, p, eps
    ):
        f, g, h = build(measures, f, g, h)
        cert = solve(f, g, h, p, eps)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(p), eps=eps)
        assert verify_certificate(instance, cert).passed

    def test_underflowed_balanced_split_verifies(self):
        # x_1 = y_1 = 0, r_1 = 1e10 * 1e-320 / 1e10 and R_1 = 1e10: the
        # balanced u_1 = 1e-325 underflows and rounds up to 5e-324 < r_1
        f, g, h = build([1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1e10 + 1.0, 1e-320])
        cert = factor_countable(f, g, h, 1, 1e10)
        assert cert.u[1] == 5e-324
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(1), eps=1e10)
        assert verify_certificate(instance, cert).passed

    @pytest.mark.xfail(
        raises=FeasibilityError,
        strict=True,
        reason="x_1 = 0 and the true r_1 = 1e10 * 1e-320 / (1e19 - 1) lies "
        "below 5e-324, so no double u_1 meets |u_1 - x_1| < r_1",
    )
    def test_starved_radius_below_the_least_double(self):
        f, g, h = build([1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1e19, 1e-320])
        cert = factor_countable(f, g, h, 1, 1e10)
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(1), eps=1e10)
        assert verify_certificate(instance, cert).passed

    def test_membership_enforced(self):
        cases = (
            # f is nonzero on an INFINITE atom: not in L_2
            ([INFINITE, 1.0], (1.0, 1.0), (0.0, 1.0), (0.0, 1.05), (factor_countable,)),
            # ||f||_2^2 = 1e620 overflows binary64
            (
                [1e40, 1.0],
                (1e290, 1.0),
                (0.0, 1.0),
                (1e-300, 1.1),
                (factor_countable, factor_bounded, factor_general),
            ),
        )
        for measures, f, g, h, solvers in cases:
            f, g, h = build(measures, f, g, h)
            for solve in solvers:
                with pytest.raises(ValueError, match="f has infinite norm"):
                    solve(f, g, h, 2, 1.0)


@pytest.mark.parametrize(
    "solve", [factor_countable, factor_bounded, factor_general, agreement_split]
)
@pytest.mark.parametrize("p", [1, 2, INFINITE])
class TestCheckedEdge:
    """The one input contract of the L_p solvers, checked before any work."""

    @pytest.mark.parametrize("eps", [INFINITE, math.nan, 0.0, -1.0])
    def test_eps_must_be_positive_and_finite(self, solve, p, eps):
        f, g, h = build([1.0, 2.0, 3.0], [1.0] * 3, [1.0] * 3, [1.0, 1.0, 1.01])
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            solve(f, g, h, p, eps)

    @pytest.mark.parametrize("measures", [[1.0, 2.0], [1.0, 2.0, 4.0]])
    def test_functions_share_one_space(self, solve, p, measures):
        f, g, h = build([1.0, 2.0, 3.0], [1.0] * 3, [1.0] * 3, [1.0, 1.0, 1.01])
        space = MeasureSpace(measures)
        other = SimpleFunction(space, [1.0] * len(measures))
        for args in ((f, other, h), (f, g, other)):
            with pytest.raises(ValueError, match="different measure spaces"):
                solve(*args, p, 1.0)


@pytest.mark.parametrize(
    "solve", [factor_countable, factor_bounded, factor_general, agreement_split]
)
@pytest.mark.parametrize(
    "p, f, g, name",
    [(INFINITE, (1.0, 0.0), (1.0, 2.0), "g"), (2, (1.0, 3.0), (1.0, 0.0), "f")],
)
def test_membership_is_checked_before_the_swap(solve, p, f, g, name):
    # g is not in L_1 at p = oo, and f not in L_2 at p = 2: nonzero on the
    # INFINITE atom.  The error names the function the caller passed.
    f, g, h = build([1.0, INFINITE], f, g, (1.01, 0.0))
    with pytest.raises(ValueError, match=f"^{name} has infinite norm"):
        solve(f, g, h, p, 1.0)


def random_instance(rng, p, n=None, scale=1.0):
    n = n or rng.randint(1, 50)
    measures = [0.0 if rng.random() < 0.1 else rng.uniform(0.05, 10) for _ in range(n)]
    if not any(measures):
        measures[0] = 1.0
    f = [rng.uniform(-3, 3) * scale for _ in range(n)]
    g = [rng.uniform(-3, 3) for _ in range(n)]
    pert = [rng.uniform(-1, 1) for _ in range(n)]
    raw = math.fsum(abs(d) * m for d, m in zip(pert, measures))
    if raw == 0:
        pert = [1.0] * n
        raw = math.fsum(measures)
    target = rng.uniform(0.1, 0.99) * 0.25
    h = [a * b + d * target / raw for a, b, d in zip(f, g, pert)]
    return build(measures, f, g, h)


class TestProperties:
    def test_exactness_and_bounds_random(self):
        rng = random.Random(12345)
        for trial in range(400):
            p = rng.choice([1, 1.5, 2, 3])
            f, g, h = random_instance(rng, p)
            cert = factor_countable(f, g, h, p, 1.0)
            for a, b, t in zip(cert.u, cert.v, h.coefficients):
                assert abs(a * b - t) <= 1e-9 * max(1.0, abs(t))
            instance = LpInstance(f=f, g=g, h=h, p=Exponent(p), eps=1.0)
            report = verify_certificate(instance, cert)
            assert report.passed, (trial, p, report)
            # the independent verifier, not the solver, certifies the norms
            assert report.norm_u_dist < 1.0
            if p == 1:
                assert report.norm_v_dist <= 1.0
            else:
                assert report.norm_v_dist < 1.0

    def test_weight_normalization(self):
        rng = random.Random(99)
        for _ in range(100):
            p = rng.choice([1, 1.5, 2, 3])
            f, g, h = random_instance(rng, p)
            split = agreement_split(f, g, h, p, 1.0)
            if split.lambdas:
                assert math.fsum(split.lambdas.values()) == pytest.approx(
                    1.0, abs=1e-12
                )
                assert all(0 < lam <= 1 for lam in split.lambdas.values())

    def test_uniformity_under_scaling(self):
        # the eps^2/4 threshold does not care how large f is
        rng = random.Random(7)
        for scale in (1.0, 1e3, 1e6):
            f, g, h = random_instance(rng, 2, n=20, scale=scale)
            cert = factor_countable(f, g, h, 2, 1.0)
            instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
            assert verify_certificate(instance, cert).passed

    def test_counting_measure_specializes_to_sequences(self):
        rng = random.Random(3)
        space = MeasureSpace.counting(30)
        f = SimpleFunction(space, tuple(rng.uniform(-2, 2) for _ in range(30)))
        g = SimpleFunction(space, tuple(rng.uniform(-2, 2) for _ in range(30)))
        pert = [rng.uniform(-1, 1) for _ in range(30)]
        raw = math.fsum(abs(d) for d in pert)
        h = SimpleFunction(
            space,
            tuple(
                a * b + d * 0.2 / raw
                for a, b, d in zip(f.coefficients, g.coefficients, pert)
            ),
        )
        for p in (1, 2, 4, INFINITE):
            cert = factor_countable(f, g, h, p, 1.0)
            instance = LpInstance(f=f, g=g, h=h, p=Exponent(p), eps=1.0)
            assert verify_certificate(instance, cert).passed


def reference_split_defects(fs, gs, hs, measures, eps):
    """split_defects as first written: the masked sum on every space.

    Returns (defects, mask, eta), or the (defect, bound) it refuses with.
    """
    defects = [abs(z - x * y) for x, y, z in zip(fs, gs, hs)]
    outside = [d != 0.0 and mu != 0.0 for d, mu in zip(defects, measures)]
    shares = [d * mu for d, mu, o in zip(defects, measures, outside) if o]
    try:
        eta = math.fsum(shares)
    except OverflowError:
        eta = math.inf
    bound = (eps / 2.0) * (eps / 2.0)
    return (defects, outside, eta) if eta < bound else (eta, bound)


def split_outcome(fs, gs, hs, measures, eps):
    try:
        return split_defects(fs, gs, hs, measures, eps, "countable factorization")
    except FeasibilityError as err:
        return err.defect, err.bound


# Magnitudes up to 1e300 make products and shares overflow.
_floats = st.floats(min_value=-1e300, max_value=1e300)
_positive = st.floats(min_value=5e-324, max_value=1e300)
_atoms = st.tuples(_floats, _floats, _floats)


class TestSplitDefectsMatchesItsFirstForm:
    """``split_defects`` gives repr-identical defects, mask and eta, or the
    same refusal, on spaces with and without null and INFINITE atoms."""

    @pytest.mark.parametrize(
        "measure",
        [_positive, st.one_of(_positive, st.sampled_from([0.0, -0.0, INFINITE]))],
        ids=["positive-finite", "null-and-infinite"],
    )
    @given(data=st.data(), eps=st.floats(min_value=5e-324, max_value=1.7e308))
    @settings(max_examples=250)
    def test_random_spaces(self, measure, data, eps):
        atoms = data.draw(st.lists(st.tuples(_atoms, measure), max_size=12))
        measures = tuple(mu for _, mu in atoms)
        fs, gs, hs = (tuple(c[i] for c, _ in atoms) for i in range(3))
        got = split_outcome(fs, gs, hs, measures, eps)
        assert repr(got) == repr(reference_split_defects(fs, gs, hs, measures, eps))

    @pytest.mark.parametrize(
        "measures",
        [
            (1.0, 1.0, 1.0),
            (1.7e308, 1.7e308, 1.0),
            (1.0, -0.0, 2.0),
            (0.5, INFINITE, 0.0),
            (0.0, 1.0, 2.0),
        ],
    )
    def test_edges(self, measures):
        # an overflowing product, an exact atom, and a subnormal share, on
        # measures whose sum overflows, a -0.0 atom and null atoms; the last
        # space hides the overflowed defect on a null atom
        fs, gs, hs = (1e200, 1.0, 5e-324), (1e200, 2.0, 1.0), (0.0, 2.0, 0.0)
        for eps in (1e-300, 1.0, 1e300):
            got = split_outcome(fs, gs, hs, measures, eps)
            assert repr(got) == repr(reference_split_defects(fs, gs, hs, measures, eps))
