"""Norms, conjugation, products and support truncation."""
import copy
import dataclasses
import math
import pickle
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpfactor import (
    INFINITE,
    Exponent,
    LpInstance,
    MeasureSpace,
    SimpleFunction,
    conjugate,
    norm,
    truncate_support,
)
from lpfactor.measure import _entry_level, norm_is_finite


def sf(measures, coeffs):
    return SimpleFunction(MeasureSpace(measures), tuple(coeffs))


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_is_named(self, bad):
        space = MeasureSpace([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            SimpleFunction(space, (1.0, bad, 2.0))

    def test_first_offending_coefficient_is_named(self):
        space = MeasureSpace([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="got -inf$"):
            SimpleFunction(space, (0.0, -math.inf, math.nan))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
    def test_negative_or_nan_measure_is_named(self, bad):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            MeasureSpace([1.0, INFINITE, bad, 2.0])

    def test_first_offending_measure_is_named(self):
        with pytest.raises(ValueError, match="got nan$"):
            MeasureSpace([0.0, math.nan, -1.0])

    def test_zero_and_infinite_measures_are_valid(self):
        space = MeasureSpace([0.0, -0.0, INFINITE])
        assert space.measures == (0.0, 0.0, INFINITE)

    # The constructors decide with a sum and a min first and scan only when
    # that test fails, so a sum that overflows or goes NaN must neither
    # reject a valid entry nor let an invalid one through.
    def test_finite_coefficients_whose_sum_overflows_are_valid(self):
        space = MeasureSpace([1.0, 1.0])
        for coeffs in ((1.7e308, 1.7e308), (-1.7e308, -1.7e308)):
            assert SimpleFunction(space, coeffs).coefficients == coeffs

    @pytest.mark.parametrize(
        "coeffs, bad",
        [
            ((1.7e308, 1.7e308, math.nan), math.nan),
            ((math.inf, -math.inf), math.inf),
            ((1.0, -math.inf, math.inf), -math.inf),
            ((-1.7e308, -1.7e308, math.inf), math.inf),
        ],
    )
    def test_nonfinite_coefficient_behind_a_nonfinite_sum_is_named(self, coeffs, bad):
        space = MeasureSpace([1.0] * len(coeffs))
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            SimpleFunction(space, coeffs)

    def test_measures_whose_sum_overflows_are_valid(self):
        space = MeasureSpace([1.7e308, 1.7e308, -0.0, INFINITE])
        assert space.measures == (1.7e308, 1.7e308, 0.0, INFINITE)

    @pytest.mark.parametrize(
        "measures, bad",
        [
            ([math.nan, -1.0], math.nan),
            ([1.0, math.nan], math.nan),
            ([INFINITE, math.nan, 2.0], math.nan),
            ([1.7e308, 1.7e308, -1.0], -1.0),
            ([INFINITE, -math.inf], -math.inf),
        ],
    )
    def test_measure_the_min_or_sum_flags_is_named(self, measures, bad):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            MeasureSpace(measures)


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------
class TestNorm:
    def test_zero_function(self):
        f = sf([1.0, INFINITE, 0.0], [0, 0, 0])
        for p in (1, 2, 3.5, INFINITE):
            assert norm(f, p) == 0.0

    def test_two_atom_example(self):
        # direct evaluation: measures (2, 3), f = (1, -1)
        f = sf([2, 3], [1, -1])
        assert norm(f, 1) == 5.0
        assert norm(f, 2) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert norm(f, INFINITE) == 1.0

    def test_esssup_ignores_null_atoms(self):
        f = sf([0.0, 1.0], [100.0, 1.0])
        assert norm(f, INFINITE) == 1.0

    def test_infinite_atom_with_mass(self):
        f = sf([INFINITE, 1.0], [0.5, 1.0])
        assert math.isinf(norm(f, 1))
        assert math.isinf(norm(f, 2))
        # but the essential sup stays finite
        assert norm(f, INFINITE) == 1.0

    def test_zero_times_infinite_is_zero(self):
        f = sf([INFINITE, 2.0], [0.0, 3.0])
        assert norm(f, 1) == 6.0

    def test_counting_measure_is_sequence_norm(self):
        space = MeasureSpace.counting(3)
        f = SimpleFunction(space, (3.0, -4.0, 0.0))
        assert norm(f, 1) == 7.0
        assert norm(f, 2) == 5.0
        assert norm(f, INFINITE) == 4.0

    @pytest.mark.parametrize("p", [2, 3, Fraction(11, 10)])
    def test_measures_beyond_the_doubles_are_scaled_out(self, p):
        # mu(A_1) + mu(A_2) = 3.4e308 overflows; the norm 1e-155 * 3.4e308^(1/p) does not
        measures, coeffs = [1.7e308, 1.7e308], [1e-155, 1e-155]
        expected = 1e-155 * 3.4 ** (1 / float(p)) * 10.0 ** (308 / float(p))
        got = norm(sf(measures, coeffs), p)
        assert got == pytest.approx(expected, rel=1e-13)
        assert norm_is_finite(coeffs, measures, Exponent(p))

    def test_a_norm_beyond_the_doubles_still_saturates(self):
        f = sf([1.7e308, 1.7e308], [1e300, 1e300])
        assert norm(f, 2) == INFINITE and norm(f, 1) == INFINITE
        assert not norm_is_finite(f.coefficients, f.space.measures, Exponent(2))


# ---------------------------------------------------------------------------
# conjugate exponents
# ---------------------------------------------------------------------------
class TestConjugate:
    def test_self_conjugate(self):
        assert conjugate(2).value == 2

    def test_one_and_infinity(self):
        assert conjugate(1).is_infinite
        assert conjugate(INFINITE).value == 1

    def test_four_thirds(self):
        assert conjugate(4).value == Fraction(4, 3)

    def test_involution_exact(self):
        for p in (1, 1.5, 2, 3, 7.25, INFINITE, Fraction(11, 10)):
            assert conjugate(conjugate(p)) == Exponent(p)

    @given(st.floats(min_value=1.0000001, max_value=1e6))
    def test_involution_exact_on_floats(self, p):
        assert conjugate(conjugate(p)).value == Exponent(p).value

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            Exponent(0.5)

    @pytest.mark.parametrize("bad", [-INFINITE, "-inf"])
    def test_rejects_negative_infinity(self, bad):
        with pytest.raises(ValueError):
            Exponent(bad)

    def test_repeated_conjugates_are_one_object(self):
        for p in (1, 1.5, 2, 3, INFINITE, Fraction(11, 10)):
            e = Exponent(p)
            assert e.conjugate() is e.conjugate() is conjugate(e)
            assert conjugate(p) is conjugate(p)

    @pytest.mark.parametrize(
        "p, text, payload",
        [
            (1, "Exponent(value=Fraction(1, 1))", 1.0),
            (1.5, "Exponent(value=Fraction(3, 2))", 1.5),
            (Fraction(11, 10), "Exponent(value=Fraction(11, 10))", 1.1),
            ("inf", "Exponent(value=inf)", "inf"),
            (INFINITE, "Exponent(value=inf)", "inf"),
        ],
    )
    def test_value_semantics(self, p, text, payload):
        e = Exponent(p)
        assert repr(e) == text
        assert e.to_json() == payload
        assert e == Exponent(e.value) and hash(e) == hash((e.value,))
        assert e != Exponent(2) and e != e.value
        for clone in (
            *(pickle.loads(pickle.dumps(e, proto)) for proto in range(6)),
            copy.copy(e),
            copy.deepcopy(e),
        ):
            assert clone == e and hash(clone) == hash(e) and repr(clone) == text
            assert clone.conjugate() == e.conjugate()
            assert float(clone) == float(e) and clone.reciprocal() == e.reciprocal()

    @pytest.mark.parametrize("p", [1, 1.5, 2, INFINITE])
    def test_asdict_holds_only_the_value(self, p):
        e = Exponent(p)
        assert dataclasses.asdict(e) == {"value": e.value}
        assert [f.name for f in dataclasses.fields(e)] == ["value"]
        f = sf([1.0], [1.0])
        instance = LpInstance(f=f, g=f, h=f, p=e, eps=1.0)
        assert dataclasses.asdict(instance)["p"] == {"value": e.value}

    @given(
        st.one_of(
            st.floats(min_value=1.0, max_value=1e300),
            st.fractions(min_value=1, max_value=10**6, max_denominator=10**30),
        )
    )
    @example(1.0000001)
    def test_floats_are_the_exact_values_rounded(self, p):
        e = Exponent(p)
        v = e.value
        assert float(e) == float(v)
        assert e.reciprocal() == v.denominator / v.numerator
        assert conjugate(e).reciprocal() == (v.numerator - v.denominator) / v.numerator
        assert not e.is_infinite and conjugate(conjugate(e)) == e


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------
def oracle_truncation_level(coeffs, measures, eps):
    """Brute force: try k = 1, 2, ... and return the first admissible one.

    Membership 1/k <= |c| <= k is evaluated in exact rational arithmetic,
    matching the set definition rather than any rounding of 1/k.
    """
    from fractions import Fraction

    for k in range(1, 10**7):
        kept = [
            i
            for i, c in enumerate(coeffs)
            if c != 0 and Fraction(1, k) <= Fraction(abs(c)) <= k
        ]
        tail = math.fsum(
            abs(c) * m
            for i, (c, m) in enumerate(zip(coeffs, measures))
            if i not in kept and m > 0
        )
        if tail < eps:
            return k, sorted(kept), tail
    raise AssertionError("oracle found no level")


class TestTruncateSupport:
    def test_three_atom_example(self):
        coeffs, measures, eps = (10.0, 0.5, 0.001), (1.0, 1.0, 1.0), 0.01
        k, kept, tail = oracle_truncation_level(coeffs, measures, eps)
        assert (k, kept, tail) == (10, [0, 1], 0.001)  # oracle-frozen
        res = truncate_support(sf(measures, coeffs), eps)
        assert res.level == k
        assert list(res.kept_indices) == kept
        assert res.kept_indices == (0, 1)
        assert res.tail_value == pytest.approx(tail)
        assert res.sup_on_A == 10.0

    def test_zero_function(self):
        res = truncate_support(sf([1, 2], [0, 0]), 0.5)
        assert res.kept_indices == ()
        assert res.tail_value == 0.0

    def test_infinite_atom_excluded_when_zero_there(self):
        res = truncate_support(sf([INFINITE, 1.0], [0.0, 5.0]), 0.5)
        assert res.kept_indices == (1,)
        assert res.tail_value == 0.0
        assert res.level == 5

    def test_rejects_non_l1(self):
        with pytest.raises(ValueError):
            truncate_support(sf([INFINITE, 1.0], [1.0, 0.0]), 0.5)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_rejects_an_eps_that_is_not_positive(self, eps):
        # A NaN eps used to pass and return an empty A with the whole tail.
        with pytest.raises(ValueError, match="eps must be positive"):
            truncate_support(sf([1.0, 1.0], [3.0, 0.5]), eps)

    def test_level_one_keeps_unit_atoms(self):
        res = truncate_support(sf([1.0, 1.0], [1.0, 1.0]), 3.0)
        assert res.level == 1
        assert res.kept_indices == (0, 1)

    @given(
        coeffs=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.02, 50),
                st.floats(-50, -0.02),
            ),
            min_size=12,
            max_size=12,
        ),
        measures=st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 10)), min_size=12, max_size=12
        ),
        eps=st.floats(0.001, 5.0),
    )
    @settings(max_examples=150)
    def test_postconditions_match_oracle(self, coeffs, measures, eps):
        # Oracle-friendly magnitudes: entry levels stay small enough to
        # enumerate k = 1, 2, ... directly.
        f = sf(measures, coeffs)
        res = truncate_support(f, eps)
        k, kept, tail = oracle_truncation_level(coeffs, measures, eps)
        assert res.level == k
        assert list(res.kept_indices) == kept
        assert res.tail_value == pytest.approx(tail, abs=1e-12)
        assert res.tail_value < eps
        kept_measure = math.fsum(measures[i] for i in res.kept_indices)
        assert math.isfinite(kept_measure)
        assert math.isfinite(res.sup_on_A)

    def test_extreme_magnitudes_meet_postconditions(self):
        # Entry levels around 2^40 are out of the oracle's reach but still
        # exactly predictable: both outliers enter at level 2^40 together.
        f = sf([1.0, 1.0, 1.0], [2.0**40, 2.0**-40, 1.0])
        res = truncate_support(f, 0.5)
        assert res.kept_indices == (0, 1, 2)
        assert res.tail_value == 0.0
        assert res.sup_on_A == 2.0**40
        assert res.level == 2**40


def _sorted_tails(coeffs, measures):
    """The support, |f| on it, its atoms sorted by entry level, their levels,
    and the suffix sums of the shares in that order: the first form of
    ``truncate_support``."""
    support = [i for i, c in enumerate(coeffs) if c != 0.0]
    mags = [abs(coeffs[i]) for i in support]
    shares = [abs(coeffs[i]) * measures[i] for i in support]
    entry = [_entry_level(t) for t in mags]
    order = sorted(range(len(entry)), key=entry.__getitem__)
    levels = [entry[j] for j in order]
    suffix = list(accumulate(reversed([shares[j] for j in order]), initial=0.0))
    suffix.reverse()
    return support, mags, order, levels, suffix


def reference_truncation(coeffs, measures, eps):
    """(kept_indices, tail_value, sup_on_A, level) as first computed: a sort
    of the support by entry level and a search over the sorted levels."""
    support, mags, order, levels, suffix = _sorted_tails(coeffs, measures)
    chosen = 1
    i = kept_upto = bisect_right(levels, 1)
    if suffix[i] >= eps:
        while i < len(levels):
            j = bisect_right(levels, levels[i], i)
            if suffix[j] < eps:
                chosen, kept_upto = levels[i], j
                break
            i = j
    kept = order[:kept_upto]
    return (
        tuple(sorted(support[j] for j in kept)),
        suffix[kept_upto],
        max((mags[j] for j in kept), default=0.0),
        chosen,
    )


# Magnitudes that share entry levels: 2.1, 2.5, 2.9, 3.0, 0.35 and 0.4 enter
# at 3, 0.125, 7.5 and 8.0 at 8; the double nearest 1/3 lies below a third
# and enters at 4.
_TIED = (0.35, 0.4, 1 / 3, 1.0, 2.1, 2.5, 2.9, 3.0, 0.125, 8.0, 7.5)


@st.composite
def truncation_cases(draw):
    """A function in L1 and an eps, often within an ulp of one of its tails."""
    n = draw(st.integers(0, 16))
    measures = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(INFINITE),
                st.sampled_from((1.0, 0.5, 3.0)),
                st.floats(1e-3, 1e3),
            ),
            min_size=n,
            max_size=n,
        )
    )
    magnitude = st.one_of(st.just(0.0), st.sampled_from(_TIED), st.floats(1e-8, 1e8))
    # An INFINITE atom must carry 0 for the 1-norm to be finite.
    coeffs = [
        0.0 if m == INFINITE else draw(magnitude) * draw(st.sampled_from((1.0, -1.0)))
        for m in measures
    ]
    tails = [t for t in _sorted_tails(coeffs, measures)[4] if t > 0.0]
    if tails and draw(st.booleans()):
        tail = draw(st.sampled_from(tails))
        eps = draw(
            st.sampled_from(
                (math.nextafter(tail, 0.0), tail, math.nextafter(tail, INFINITE))
            )
        )
    else:
        eps = draw(st.floats(1e-9, 1e9))
    return coeffs, measures, eps


class TestTruncationMatchesItsFirstForm:
    """The linear selection is repr-identical to the first, sort-based one."""

    @given(case=truncation_cases())
    @example(case=([2.1, 2.9, 0.4, 3.0], [1.0, 1.0, 1.0, 1.0], 0.4))
    @example(case=([0.0, 5.0, -0.0], [INFINITE, 0.0, 2.0], 1.0))
    @example(case=([], [], 1.0))
    @settings(max_examples=400)
    def test_random(self, case):
        coeffs, measures, eps = case
        res = truncate_support(sf(measures, coeffs), eps)
        got = (res.kept_indices, res.tail_value, res.sup_on_A, res.level)
        assert repr(got) == repr(reference_truncation(coeffs, measures, eps))
        # The mask factor_general takes as its core: A over every atom.
        kept = set(res.kept_indices)
        assert res._kept_mask == [i in kept for i in range(len(coeffs))]

    def test_a_tail_equal_to_eps_takes_the_next_level(self):
        coeffs, measures = (2.5, 2.1, 5.0), (1.0, 1.0, 1.0)
        # Levels 3, 3 and 5: tail(3) = 5.0 is not below eps = 5.0, so the
        # level is 5; one ulp more and level 3 is enough.
        at = truncate_support(sf(measures, coeffs), 5.0)
        above = truncate_support(sf(measures, coeffs), math.nextafter(5.0, 6.0))
        assert (at.level, at.kept_indices, at.tail_value) == (5, (0, 1, 2), 0.0)
        assert (above.level, above.kept_indices, above.tail_value) == (3, (0, 1), 5.0)


def _entry_level_reference(t):
    """The entry level in rational arithmetic: max(1, ceil(t), ceil(1/t))."""
    if t >= 1.0:
        return max(1, math.ceil(t))
    return math.ceil(Fraction(1) / Fraction(t))


def _near_reciprocals(k):
    """1/k and its two neighbouring doubles, for an integer k >= 2."""
    t = 1.0 / k
    return [math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)]


_entry_values = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.integers(1, 2**52 - 1).map(lambda m: m * 5e-324),  # subnormals
    st.floats(min_value=2.0**53, max_value=1.7976931348623157e308),
    st.integers(2, 2**64).flatmap(lambda k: st.sampled_from(_near_reciprocals(k))),
)


@given(t=_entry_values)
@example(t=5e-324)
@example(t=math.nextafter(1.0, 0.0))
@example(t=1.0)
@example(t=2.0**53)
@example(t=math.nextafter(2.0**53, math.inf))
@example(t=1.7976931348623157e308)
@example(t=1.0 / 3.0)
@example(t=math.nextafter(1.0 / 3.0, 1.0))
@settings(max_examples=500)
def test_entry_level_is_exact(t):
    k = _entry_level(t)
    assert k == _entry_level_reference(t)
    # k is the least integer with 1/k <= t <= k, checked in rationals.
    assert Fraction(1, k) <= Fraction(t) <= k
    assert k == 1 or not (Fraction(1, k - 1) <= Fraction(t) <= k - 1)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------
_coeff = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def space_and_two_functions(draw, max_atoms=10):
    n = draw(st.integers(1, max_atoms))
    measures = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=n, max_size=n
        )
    )
    space = MeasureSpace(measures)
    f = SimpleFunction(space, tuple(draw(st.lists(_coeff, min_size=n, max_size=n))))
    g = SimpleFunction(space, tuple(draw(st.lists(_coeff, min_size=n, max_size=n))))
    return f, g


@given(
    fg=space_and_two_functions(),
    p=st.sampled_from([1, 1.5, 2, 3, 7, INFINITE]),
)
@settings(max_examples=200)
def test_hoelder_inequality(fg, p):
    f, g = fg
    q = conjugate(p)
    fg = SimpleFunction(f.space, tuple(map(mul, f.coefficients, g.coefficients)))
    lhs = norm(fg, 1)
    rhs = norm(f, p) * norm(g, q)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


@given(
    fg=space_and_two_functions(),
    p=st.sampled_from([1, 1.5, 2, 3, INFINITE]),
)
@settings(max_examples=200)
def test_triangle_inequality(fg, p):
    f, g = fg
    s = SimpleFunction(
        f.space, tuple(a + b for a, b in zip(f.coefficients, g.coefficients))
    )
    assert norm(s, p) <= (norm(f, p) + norm(g, p)) * (1 + 1e-9) + 1e-12


@given(
    fg=space_and_two_functions(),
    p=st.sampled_from([1, 2, 3, INFINITE]),
    c=st.floats(-100, 100, allow_nan=False),
)
@settings(max_examples=200)
def test_absolute_homogeneity(fg, p, c):
    f, _ = fg
    scaled = SimpleFunction(f.space, tuple(c * a for a in f.coefficients))
    assert norm(scaled, p) == pytest.approx(abs(c) * norm(f, p), rel=1e-9, abs=1e-12)


@given(fg=space_and_two_functions(), bump=st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=100)
def test_esssup_blind_to_null_atoms(fg, bump):
    f, _ = fg
    nulls = [i for i, m in enumerate(f.space.measures) if m == 0.0]
    if not nulls:
        return
    before = norm(f, INFINITE)
    coeffs = list(f.coefficients)
    coeffs[nulls[0]] = bump
    assert norm(SimpleFunction(f.space, tuple(coeffs)), INFINITE) == before


def _norm_reference(coeffs, measures, p):
    """The atom-by-atom loop norm, as the vectorized one must reproduce it."""
    if math.isinf(p):
        return max((abs(c) for c, m in zip(coeffs, measures) if m > 0), default=0.0)
    entries = []
    for c, m in zip(coeffs, measures):
        if c == 0.0 or m == 0.0:
            continue
        if math.isinf(m):
            return INFINITE
        entries.append((abs(c), m))
    if not entries:
        return 0.0
    if p == 1:
        try:
            return math.fsum(t * m for t, m in entries)
        except OverflowError:
            return INFINITE
    scale = max(t for t, _ in entries)
    try:
        total = math.fsum((t / scale) ** p * m for t, m in entries)
    except OverflowError:
        total = INFINITE
    if math.isinf(total):
        # The measures overflowed the sum: factor out the largest one too.
        top = max(m for _, m in entries)
        total = math.fsum((t / scale) ** p * (m / top) for t, m in entries)
        return scale * total ** (1.0 / p) * top ** (1.0 / p)
    return scale * total ** (1.0 / p)


_wide = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.7976931348623157e308, max_value=1.7976931348623157e308),
)
_wide_measure = st.one_of(
    st.just(0.0),
    st.just(INFINITE),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)


@st.composite
def wide_function(draw, max_atoms=8):
    n = draw(st.integers(1, max_atoms))
    measures = draw(st.lists(_wide_measure, min_size=n, max_size=n))
    coeffs = draw(st.lists(_wide, min_size=n, max_size=n))
    return sf(measures, coeffs)


@given(f=wide_function(), p=st.sampled_from([1, 1.5, 2, 3, 7, INFINITE]))
@settings(max_examples=500)
def test_norm_matches_loop_reference_bit_for_bit(f, p):
    assert norm(f, p) == _norm_reference(f.coefficients, f.space.measures, float(p))


@given(f=wide_function(), p=st.sampled_from([1, 1.5, 2, 3, 7, INFINITE]))
@example(f=sf([1.0, 1.0], [1.7e308, -1.7e308]), p=1)
@example(f=sf([1.0, 1.0], [1.7e308, -1.7e308]), p=2)
@example(f=sf([1.0, INFINITE], [1e-300, 0.0]), p=3)
@example(f=sf([1.0, INFINITE], [1e-300, 5e-324]), p=1.5)
@example(f=sf([1e308, 1e308], [1.0, 1.0]), p=2)
@example(f=sf([1e-300] * 4, [1e300, 1e300, -1e300, 1e154]), p=7)
@settings(max_examples=500)
def test_norm_is_finite_agrees_with_norm(f, p):
    p = Exponent(p)
    assert norm_is_finite(f.coefficients, f.space.measures, p) == (
        not math.isinf(norm(f, p))
    )
