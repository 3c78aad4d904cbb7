"""Tail weights and the l1 x c0 factorization."""
import math
import random

import pytest

from lpfactor import (
    Exponent,
    FeasibilityError,
    InstanceSpec,
    MeasureSpace,
    SeqInstance,
    SimpleFunction,
    agreement_split,
    factor_countable,
    factor_seq,
    gen_instance,
    seq_split,
    tail_weights,
    verify_certificate,
)
from lpfactor.measure import defect_bound
from test_fuzz import hostile_seq


class TestTailWeights:
    def test_single_mass(self):
        tw = tail_weights([1.0, 0.0, 0.0])
        assert tw.w[0] == 1.0
        assert tw.weighted_sum() == 1.0
        assert tw.weighted_sum() <= 2.0 * tw.w[0]

    def test_geometric_prefix_matches_brute_force(self):
        a = [2.0**-n for n in range(1, 41)]
        tw = tail_weights(a)
        # brute-force oracle for the weighted sum
        oracle = math.fsum(
            a[k] / math.sqrt(math.fsum(a[k:])) for k in range(len(a))
        )
        assert tw.weighted_sum() == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(1.7071, abs=5e-4)
        assert tw.weighted_sum() <= 2.0 * tw.w[0]

    def test_leading_zero(self):
        tw = tail_weights([0.0, 4.0])
        assert tw.w == (2.0, 2.0)
        assert tw.weighted_sum() == 2.0
        assert tw.weighted_sum() <= 2.0 * tw.w[0]

    def test_w_monotone_and_total(self):
        rng = random.Random(4)
        a = [rng.uniform(0, 3) for _ in range(60)]
        a[17] = 1.0
        tw = tail_weights(a)
        assert all(x >= y for x, y in zip(tw.w, tw.w[1:]))
        assert tw.w[0] ** 2 == pytest.approx(math.fsum(a), rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            tail_weights([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tail_weights([1.0, -0.5])


class TestExamples:
    def test_exact_product_is_trivial(self):
        cert = factor_seq((1, 2, 0), (3, 0, 5), (3, 0, 0), 1.0)
        assert cert.u == (1.0, 2.0, 0.0)
        assert cert.v == (3.0, 0.0, 5.0)

    def test_single_entry_finite(self):
        split = seq_split((1,), (1,), (1.05,), 1.0, "finite")
        assert split.eta == pytest.approx(0.05)
        assert split.lambdas == {0: pytest.approx(1.0)}
        assert split.radii[0] == (pytest.approx(0.5), pytest.approx(0.5))
        cert = factor_seq((1,), (1,), (1.05,), 1.0, "finite")
        assert cert.u == (1.0,)
        assert cert.v == (1.05,)
        assert abs(cert.v[0] - 1.0) <= 0.5  # the sharper sup bound

    def test_single_entry_tail(self):
        split = seq_split((1,), (1,), (1.05,), 1.0, "tail")
        assert split.eta == pytest.approx(2 * math.sqrt(0.05))
        assert split.lambdas[0] == pytest.approx(0.5)
        r, big_r = split.radii[0]
        assert r == pytest.approx(0.5)
        assert big_r == pytest.approx(2 * math.sqrt(0.05))
        cert = factor_seq((1,), (1,), (1.05,), 1.0, "tail")
        assert (cert.u, cert.v) == ((1.0,), (1.05,))

    def test_two_entry_tail_weights_positive(self):
        split = seq_split((1, 0.5), (1, 0), (1.02, 0.01), 1.0, "tail")
        assert all(lam > 0 for lam in split.lambdas.values())
        assert all(r > 0 and R > 0 for r, R in split.radii.values())
        assert math.fsum(split.lambdas.values()) <= 1.0 + 1e-12
        cert = factor_seq((1, 0.5), (1, 0), (1.02, 0.01), 1.0, "tail")
        instance = SeqInstance(x=(1, 0.5), y=(1, 0), z=(1.02, 0.01), eps=1.0)
        assert verify_certificate(instance, cert).passed

    def test_infeasible_rejected(self):
        # the second case: eps^2 = 1.96e308 overflows, eps^2/16 does not
        for z, eps, bound in ((0.0625, 1.0, 0.0625), (1e308, 1.4e154, 3.5e153**2)):
            for strategy in ("finite", "tail"):
                with pytest.raises(FeasibilityError) as err:
                    factor_seq((0,), (0,), (z,), eps, strategy)
                assert err.value.bound == bound

    def test_unknown_strategy_rejected(self):
        for strategy in ("greedy", "auto"):
            with pytest.raises(ValueError):
                factor_seq((1,), (1,), (1.01,), 1.0, strategy)

    def test_default_is_finite(self):
        default = factor_seq((1, 2), (1, 1), (1.03, 2.01), 1.0)
        assert default == factor_seq((1, 2), (1, 1), (1.03, 2.01), 1.0, "finite")

    @pytest.mark.parametrize("strategy", ["finite", "tail"])
    @pytest.mark.parametrize(
        "x, y, z",
        [
            ([1.0], [1.0], [math.nan]),
            ([math.inf], [1.0], [1.0]),
            ([1.0, 2.0], [math.inf, 0.0], [1.0, 0.0]),
            ([1.0], [1.0], [-math.inf]),
        ],
    )
    def test_non_finite_entries_rejected(self, x, y, z, strategy):
        # a non-finite entry is bad input, not an infeasible instance
        with pytest.raises(ValueError, match="coefficients must be finite reals"):
            factor_seq(x, y, z, 1.0, strategy)

    def test_infinite_eps_rejected(self):
        # every radius would be infinite, and the kernel's balanced split NaN;
        # a NaN eps is bad input too, not an infeasible instance
        for solve in (factor_seq, seq_split):
            for eps in (math.inf, math.nan):
                with pytest.raises(ValueError, match="eps must be positive and finite"):
                    solve((1,), (1,), (1.05,), eps)

    @pytest.mark.parametrize("strategy", ["finite", "tail"])
    @pytest.mark.parametrize("eps", [5e-324, 1e-323, 1e-320])
    def test_tiny_eps_is_infeasible_not_bad_input(self, eps, strategy):
        # eps^2/16 rounds to 0, so nothing is feasible; at 5e-324 eps/2
        # rounds to 0 as well, which is still a refusal, not a bad eps
        for z in ((1.0,), (1.5,)):
            for solve in (factor_seq, seq_split):
                with pytest.raises(FeasibilityError):
                    solve((1.0,), (1.0,), z, eps, strategy)

    @pytest.mark.parametrize("strategy", ["finite", "tail"])
    @pytest.mark.parametrize(
        "x, y, z, eps",
        [
            # x_1 = y_1 = 0: the tail radii multiply out to 1e-323 in floats,
            # no more than the defect, so the kernel refuses the index.
            ((1.0, 0.0), (0.0, 0.0), (1.0, 1e-323), 5.0),
            # lambda_1 = d_1 / eta underflows to 0 although r_1 = 5e-292;
            # exact division by the subnormal x_1 would put v_1 near 5e142.
            ((1.0, 2e-323), (0.0, -1.75), (1e224, -1e-180), 1e113),
            # the same underflow at x_1 = y_1 = 0
            ((1.0, 0.0), (0.0, 0.0), (1e224, 1e-180), 1e113),
        ],
    )
    def test_starved_index_verifies_with_criterion_3_bound(self, x, y, z, eps, strategy):
        cert = factor_seq(x, y, z, eps, strategy)
        instance = SeqInstance(x=x, y=y, z=z, eps=eps)
        report = verify_certificate(instance, cert)
        assert report.passed
        if strategy == "finite":
            assert report.norm_v_dist <= eps / 2.0
        else:
            eta = 2.0 * math.sqrt(instance.defect())
            assert report.norm_v_dist <= eta < eps / 2.0

    def test_underflowed_weight_falls_back_to_exact_division(self):
        # the second index's weight rounds to zero; exact division must
        # still deliver a verifiable certificate
        x, y, z = (1.0, 1.0), (3.0, 0.0), (5.9, 5e-324)
        cert = factor_seq(x, y, z, 10.0, "finite")
        assert cert.u[1] == 1.0
        assert cert.v[1] == 5e-324
        instance = SeqInstance(x=x, y=y, z=z, eps=10.0)
        assert verify_certificate(instance, cert).passed


def random_seq_instance(rng, n=None):
    n = n or rng.randint(1, 100)
    x = [rng.uniform(-3, 3) for _ in range(n)]
    y = [rng.uniform(-3, 3) for _ in range(n)]
    pert = [rng.uniform(-1, 1) for _ in range(n)]
    raw = math.fsum(abs(d) for d in pert)
    eps = math.exp(rng.uniform(math.log(0.3), math.log(3)))
    target = rng.uniform(0.05, 0.99) * eps * eps / 16
    z = [a * b + d * target / raw for a, b, d in zip(x, y, pert)]
    return tuple(x), tuple(y), tuple(z), eps


class TestProperties:
    def test_both_strategies_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            x, y, z, eps = random_seq_instance(rng)
            for strategy in ("finite", "tail"):
                cert = factor_seq(x, y, z, eps, strategy)
                for a, b, t in zip(cert.u, cert.v, z):
                    assert abs(a * b - t) <= 1e-12 * max(1.0, abs(t))
                du = math.fsum(abs(a - b) for a, b in zip(cert.u, x))
                dv = max(abs(a - b) for a, b in zip(cert.v, y))
                assert du < eps
                assert dv < eps
                if strategy == "finite":
                    assert dv <= eps / 2
                else:
                    eta = 2 * math.sqrt(
                        math.fsum(abs(t - a * b) for a, b, t in zip(x, y, z))
                    )
                    assert dv <= eta < eps / 2

    def test_weight_sums(self):
        rng = random.Random(31337)
        for _ in range(200):
            x, y, z, eps = random_seq_instance(rng)
            finite = seq_split(x, y, z, eps, "finite")
            if finite.lambdas:
                assert math.fsum(finite.lambdas.values()) == pytest.approx(
                    1.0, abs=1e-12
                )
            tail = seq_split(x, y, z, eps, "tail")
            assert math.fsum(tail.lambdas.values()) <= 1.0 + 1e-12

    def test_tail_radii_monotone_from_eta(self):
        rng = random.Random(99)
        for _ in range(100):
            x, y, z, eps = random_seq_instance(rng, n=40)
            split = seq_split(x, y, z, eps, "tail")
            if not split.radii:
                continue
            order = sorted(split.radii)
            big_rs = [split.radii[i][1] for i in order]
            assert all(a >= b for a, b in zip(big_rs, big_rs[1:]))
            assert big_rs[0] == pytest.approx(split.eta, rel=1e-12)

    def test_agreeing_indices_copy_and_preserve_c0(self):
        x = (1.0, 0.0, 2.0, 0.0)
        y = (1.0, 0.5, 0.0, 0.0)
        z = (1.0, 0.0, 0.05, 0.0)  # only index 2 disagrees
        for strategy in ("finite", "tail"):
            cert = factor_seq(x, y, z, 1.0, strategy)
            for i in (0, 1, 3):
                assert cert.u[i] == x[i]
                assert cert.v[i] == y[i]

    def test_shorter_prefixes_are_padded(self):
        cert = factor_seq((1.0,), (1.0, 0.5), (1.05, 0.0, 0.0), 1.0)
        assert len(cert.u) == 3
        assert cert.u[1] == 0.0  # padded x entry copied
        assert cert.v[1] == 0.5  # y entry kept: index agrees after padding


def reference_seq_split(x, y, z, eps, strategy):
    """seq_split as a per-index loop: (agree, eta, lambdas, radii)."""
    n = max(len(x), len(y), len(z))
    pad = lambda s: tuple(float(c) for c in s) + (0.0,) * (n - len(s))
    xs, ys, zs = pad(x), pad(y), pad(z)
    diffs = tuple(abs(c - a * b) for a, b, c in zip(xs, ys, zs))
    working = [i for i, d in enumerate(diffs) if d != 0.0]
    defect = math.fsum(diffs[i] for i in working)
    agree = frozenset(i for i, d in enumerate(diffs) if d == 0.0)
    if not working:
        return agree, 0.0, {}, {}
    if strategy == "finite":
        eta = defect
        lambdas = {i: diffs[i] / eta for i in working}
        radii = {i: (lambdas[i] * eps / 2.0, eps / 2.0) for i in working}
        return agree, eta, lambdas, radii
    w = [0.0] * n
    running = 0.0
    for i in range(n - 1, -1, -1):
        running += diffs[i]
        w[i] = math.sqrt(running)
    eta = 2.0 * w[0]
    lambdas = {i: diffs[i] / (eta * w[i]) for i in working}
    radii = {i: (lambdas[i] * eps, 2.0 * w[i]) for i in working}
    return agree, eta, lambdas, radii


def exact_bits(value):
    """The value with every float as its hex string, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [exact_bits(v) for v in value]
    if isinstance(value, dict):
        return [(k, exact_bits(v)) for k, v in value.items()]
    return value


def reference_cases():
    rng = random.Random(8128)
    for n in (1, 2, 7, 60, 500, 2000, 2000):
        x, y, z, eps = random_seq_instance(rng, n)
        # some indices agree exactly, and the prefixes differ in length:
        # y drops its last entry, where z becomes 0, and z gains zeros
        z = tuple(a * b if rng.random() < 0.2 else c for a, b, c in zip(x, y, z))
        if n > 1:
            y, z = y[:-1], z[:-1] + (0.0,)
        yield x, y, z + (0.0,) * rng.randint(0, 2), eps
    yield (1.0, 1.0), (3.0, 0.0), (5.9, 5e-324), 10.0  # underflowed weight
    yield (1.0, 0.0, 2.0), (1.0, 0.0, 0.5), (1.0, 0.0, 1.0), 1.0  # all agree
    yield (1.0, 2e-323), (0.0, -1.75), (1e224, -1e-180), 1e113


class TestReferenceEquality:
    @pytest.mark.parametrize("strategy", ["finite", "tail"])
    def test_seq_split_matches_per_index_loop(self, strategy):
        for x, y, z, eps in reference_cases():
            split = seq_split(x, y, z, eps, strategy)
            agree, eta, lambdas, radii = reference_seq_split(x, y, z, eps, strategy)
            assert split.agree == agree
            assert exact_bits(split.eta) == exact_bits(eta)
            assert exact_bits(split.lambdas) == exact_bits(lambdas)
            assert exact_bits(split.radii) == exact_bits(radii)

    def test_tail_weights_match_per_index_loop(self):
        for a in ([0.0, 4.0], [1.0, -0.0, 0.0], [5e-324, 0.0, 1e300, 2.5]):
            running, w = 0.0, []
            for v in reversed(a):
                running += v
                w.append(math.sqrt(running))
            assert exact_bits(tail_weights(a).w) == exact_bits(w[::-1])


def counting_instance(x, y, z, eps):
    """The FINITE instance as an L_1 x L_oo one: counting measure, radius eps/2."""
    n = max(len(x), len(y), len(z))
    space = MeasureSpace.counting(n)
    pad = lambda s: SimpleFunction(space, tuple(map(float, s)) + (0.0,) * (n - len(s)))
    return pad(x), pad(y), pad(z), Exponent(1), eps / 2.0


def outcome_bits(solve, view, *args):
    """``view(solve(*args))`` with floats as hex, or the type of the refusal."""
    try:
        return exact_bits(view(solve(*args)))
    except (FeasibilityError, ValueError) as err:
        return type(err)


def factors(cert):
    return cert.u, cert.v


def split_fields(split):
    return split.agree, split.eta, split.lambdas, split.radii


def reduction_cases():
    """Criterion-3-style draws, then hostile draws at the edges of binary64."""
    for i in range(300):
        knobs = random.Random(7919 + i)
        spec = InstanceSpec(
            kind="seq",
            n=knobs.randint(1, 100),
            eps=math.exp(knobs.uniform(math.log(0.25), math.log(4.0))),
            defect_fraction=knobs.uniform(0.05, 0.99),
            seed=104729 + i,
        )
        instance = gen_instance(spec)
        yield instance.x, instance.y, instance.z, instance.eps
    rng = random.Random(7)
    for _ in range(3000):
        instance = hostile_seq(rng)
        if instance is not None:
            yield instance.x, instance.y, instance.z, instance.eps


class TestFiniteIsCountableAtHalfTheRadius:
    """eps^2/16 = (eps/2)^2/4: FINITE l1 x c0 is L_1 x L_oo on counting measure."""

    def test_factor_seq_matches_factor_countable(self):
        for x, y, z, eps in reduction_cases():
            seq = outcome_bits(factor_seq, factors, x, y, z, eps, "finite")
            lp_instance = counting_instance(x, y, z, eps)
            lp = outcome_bits(factor_countable, factors, *lp_instance)
            assert seq == lp, (x, y, z, eps)

    def test_seq_split_matches_agreement_split(self):
        for x, y, z, eps in reduction_cases():
            seq = outcome_bits(seq_split, split_fields, x, y, z, eps, "finite")
            lp_instance = counting_instance(x, y, z, eps)
            lp = outcome_bits(agreement_split, split_fields, *lp_instance)
            assert seq == lp, (x, y, z, eps)


RULE_EPS = (5e-324, 1e-310, 2.0**-1021, 1.0, 1e154, 1e300)


def near_bound_draw(rng, eps):
    """x, y, z with ||z - xy||_1 within a few ulps of eps^2/16 (or 1e308,
    when that bound is inf), or, one time in eight, an overflowing defect."""
    n = rng.randint(1, 5)
    x = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    target = min(defect_bound(eps / 2.0), 1e308) * (1.0 + rng.randint(-3, 3) * 2.0**-52)
    weights = [rng.random() for _ in range(n)]
    total = math.fsum(weights)
    z = [a * b + math.copysign(target * w / total, w - 0.5) for a, b, w in zip(x, y, weights)]
    if rng.random() < 0.125:
        x[0], y[0], z[0] = 1e200, -1e200, 0.0
    return x, y, z


class TestOneFeasibilityRule:
    """FINITE and TAIL decide feasibility by one split at eps/2."""

    @pytest.mark.parametrize("eps", RULE_EPS)
    def test_bound_at_half_the_radius_is_eps_squared_over_16(self, eps):
        quarter = eps / 4.0
        assert defect_bound(eps / 2.0).hex() == (quarter * quarter).hex()
        assert SeqInstance((1.0,), (1.0,), (1.0,), eps).feasibility_bound() == quarter * quarter

    @pytest.mark.parametrize("eps", RULE_EPS)
    def test_finite_and_tail_refuse_alike(self, eps):
        rng = random.Random(f"one rule:{eps!r}")
        refused = 0
        for _ in range(150):
            x, y, z = near_bound_draw(rng, eps)
            instance = SeqInstance(x=x, y=y, z=z, eps=eps)
            outcomes = set()
            for strategy, context in (
                ("finite", "countable factorization"),
                ("tail", "sequence factorization"),
            ):
                for solve in (factor_seq, seq_split):
                    try:
                        solve(x, y, z, eps, strategy)
                    except FeasibilityError as err:
                        assert err.context == context
                        assert err.defect == instance.defect()
                        assert err.bound == instance.feasibility_bound()
                        outcomes.add((err.defect.hex(), err.bound.hex()))
                    else:
                        outcomes.add(None)
            assert len(outcomes) == 1, (x, y, z)
            refused += outcomes != {None}
        assert refused > 0
        if eps >= 1.0:
            assert refused < 150  # feasible draws were compared too
