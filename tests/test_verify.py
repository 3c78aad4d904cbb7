"""The independent verifier and the seeded instance generator."""
import inspect
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import lpfactor
import lpfactor.verify
from lpfactor import (
    Exponent,
    FactorizationCertificate,
    InstanceSpec,
    LpInstance,
    MeasureSpace,
    SeqInstance,
    SimpleFunction,
    factor_countable,
    factor_general,
    factor_seq,
    gen_instance,
    verify_certificate,
)


def single_atom_instance():
    space = MeasureSpace([1.0])
    return LpInstance(
        f=SimpleFunction(space, (2.0,)),
        g=SimpleFunction(space, (3.0,)),
        h=SimpleFunction(space, (6.2,)),
        p=Exponent(2),
        eps=1.0,
    )


class TestVerifier:
    def test_identity_certificate_passes_with_zero_distances(self):
        space = MeasureSpace([1, 2, 3])
        f = SimpleFunction(space, (1, -1, 2))
        g = SimpleFunction(space, (0, 2, 2))
        h = SimpleFunction(space, tuple(a * b for a, b in zip(f.coefficients, g.coefficients)))
        instance = LpInstance(f=f, g=g, h=h, p=Exponent(2), eps=1.0)
        cert = FactorizationCertificate(
            u=f.coefficients, v=g.coefficients, radius_u=1.0, radius_v=1.0
        )
        report = verify_certificate(instance, cert)
        assert report.passed
        assert report.norm_u_dist == 0.0
        assert report.norm_v_dist == 0.0
        assert report.product_max_rel_error == 0.0
        assert report.constant_used == 0.25

    def test_single_atom_distances_recomputed(self):
        cert = FactorizationCertificate(
            u=(2.0,), v=(3.1,), radius_u=1.0, radius_v=1.0
        )
        report = verify_certificate(single_atom_instance(), cert)
        assert report.passed
        assert report.norm_u_dist == 0.0
        assert report.norm_v_dist == pytest.approx(0.1)

    def test_tampered_product_flagged(self):
        cert = FactorizationCertificate(
            u=(2.0 * 1.001,), v=(3.1,), radius_u=1.0, radius_v=1.0
        )
        report = verify_certificate(single_atom_instance(), cert)
        assert not report.passed
        assert not report.product_ok
        assert report.verdict == "fail"

    def test_shape_mismatch_rejected(self):
        cert = FactorizationCertificate(
            u=(2.0, 1.0), v=(3.1, 1.0), radius_u=1.0, radius_v=1.0
        )
        with pytest.raises(ValueError):
            verify_certificate(single_atom_instance(), cert)

    def test_strictness_honored_on_the_boundary(self):
        # v - g is exactly 0.1 here, landing on the radius
        space = MeasureSpace([1.0])
        instance = LpInstance(
            f=SimpleFunction(space, (1.0,)),
            g=SimpleFunction(space, (0.0,)),
            h=SimpleFunction(space, (0.05,)),
            p=Exponent(2),
            eps=1.0,
        )
        at_radius = FactorizationCertificate(
            u=(0.5,), v=(0.1,), radius_u=1.0, radius_v=0.1, strict_v=False
        )
        assert verify_certificate(instance, at_radius).passed
        open_ball = FactorizationCertificate(
            u=(0.5,), v=(0.1,), radius_u=1.0, radius_v=0.1, strict_v=True
        )
        assert not verify_certificate(instance, open_ball).passed

    @pytest.mark.parametrize("v", [(1.0, math.nan), (math.nan, 1.0), (math.nan, 1.5)])
    def test_nan_product_fails_seq(self, v):
        instance = SeqInstance(x=(1.0, 1.0), y=(1.0, 1.0), z=(1.0, 1.0), eps=1.0)
        cert = FactorizationCertificate(u=(1.0, 1.0), v=v, radius_u=1.0, radius_v=1.0)
        report = verify_certificate(instance, cert)
        assert not report.passed and not report.product_ok
        assert math.isnan(report.product_max_rel_error)

    @pytest.mark.parametrize(
        "u, v, dists",
        [
            ((1.0, math.nan), (1.0, 1.0), (math.inf, 0.0)),
            ((1.0, 1.0), (1.0, math.nan), (0.0, math.inf)),
        ],
    )
    def test_nan_factor_is_an_infinite_seq_distance(self, u, v, dists):
        # max drops a NaN that is not its first argument; a side with a NaN
        # difference reads INFINITE, as on LP instances
        instance = SeqInstance(x=(1.0, 1.0), y=(1.0, 1.0), z=(1.0, 1.0), eps=1.0)
        cert = FactorizationCertificate(u=u, v=v, radius_u=1.0, radius_v=1.0)
        report = verify_certificate(instance, cert)
        assert (report.norm_u_dist, report.norm_v_dist) == dists
        assert (report.u_side_ok, report.v_side_ok) == tuple(d == 0.0 for d in dists)

    @pytest.mark.parametrize("v", [(1.0, math.nan), (math.nan, 1.0), (math.nan, 1.5)])
    def test_nan_coefficient_fails_lp(self, v):
        space = MeasureSpace([1.0, 1.0])
        ones = SimpleFunction(space, (1.0, 1.0))
        instance = LpInstance(f=ones, g=ones, h=ones, p=Exponent(2), eps=1.0)
        cert = FactorizationCertificate(u=(1.0, 1.0), v=v, radius_u=1.0, radius_v=1.0)
        report = verify_certificate(instance, cert)
        assert not report.passed and not report.product_ok and not report.v_side_ok
        assert math.isnan(report.product_max_rel_error)
        assert report.norm_v_dist == math.inf and report.norm_u_dist == 0.0

    def test_overflowing_difference_is_an_infinite_distance(self):
        space = MeasureSpace([1.0, 1.0])
        instance = LpInstance(
            f=SimpleFunction(space, (1.0, -1e308)),
            g=SimpleFunction(space, (1.0, -1.0)),
            h=SimpleFunction(space, (1.0, -1e308)),
            p=Exponent(2),
            eps=1.0,
        )
        cert = FactorizationCertificate(
            u=(1.0, 1e308), v=(1.0, -1.0), radius_u=1.0, radius_v=1.0
        )
        report = verify_certificate(instance, cert)
        assert report.norm_u_dist == math.inf and not report.u_side_ok
        assert report.product_ok and report.v_side_ok and not report.passed

    def test_measures_beyond_the_doubles_keep_finite_distances(self):
        # The measures sum past the doubles; the distances, 0.18, do not.
        space = MeasureSpace([1.7e308, 1.7e308])
        zero = SimpleFunction(space, (0.0, 0.0))
        instance = LpInstance(
            f=zero, g=zero, h=SimpleFunction(space, (1e-310, 1e-310)),
            p=Exponent(2), eps=1.0,
        )
        cert = factor_countable(instance.f, instance.g, instance.h, instance.p, 1.0)
        report = verify_certificate(instance, cert)
        assert report.passed
        for dist in (report.norm_u_dist, report.norm_v_dist):
            assert dist == pytest.approx(math.sqrt(1.7e308 * 1e-155 * 1e-155 * 2), rel=1e-13)

    def test_never_imports_solver_code(self):
        source = inspect.getsource(lpfactor.verify)
        for solver_module in ("scalar", "countable", "lp", "sequences", "generate"):
            assert f".{solver_module} import" not in source
            assert f"from lpfactor.{solver_module}" not in source

    def test_seq_null_tail_handled(self):
        instance = SeqInstance(x=(1.0,), y=(1.0,), z=(1.02,), eps=1.0)
        cert = FactorizationCertificate(
            u=(1.0, 0.0), v=(1.02, 0.0), radius_u=1.0, radius_v=1.0
        )
        report = verify_certificate(instance, cert)
        assert report.passed
        assert report.constant_used == 0.0625

    def test_seq_distances_match_per_index_loop(self):
        rng = random.Random(271)
        for n in (1, 30, 2000):
            spec = InstanceSpec(kind="seq", n=n, eps=0.8, defect_fraction=0.7, seed=n)
            inst = gen_instance(spec)
            for strategy in ("finite", "tail"):
                cert = factor_seq(inst.x, inst.y, inst.z, inst.eps, strategy)
                # a longer certificate with a perturbed entry and a null tail
                u = list(cert.u) + [0.0, 1e-3]
                v = list(cert.v) + [-2e-3, 0.0]
                u[rng.randrange(n)] += 1e-7
                cert = FactorizationCertificate(u=u, v=v, radius_u=1.0, radius_v=1.0)
                report = verify_certificate(inst, cert)
                pad = lambda s: tuple(s) + (0.0,) * (len(u) - len(s))
                du = math.fsum(abs(a - b) for a, b in zip(u, pad(inst.x)))
                dv = max((abs(a - b) for a, b in zip(v, pad(inst.y))), default=0.0)
                assert report.norm_u_dist.hex() == du.hex()
                assert report.norm_v_dist.hex() == dv.hex()


class TestJsonInterchange:
    def test_floats_round_trip_exactly(self):
        spec = InstanceSpec(
            kind="lp", n=20, eps=1.0, defect_fraction=0.7, seed=8, p=3,
            infinite_atoms=1,
        )
        inst = gen_instance(spec)
        rebuilt = lpfactor.instance_from_json(
            json.loads(json.dumps(inst.to_json()))
        )
        assert rebuilt.f.coefficients == inst.f.coefficients
        assert rebuilt.h.coefficients == inst.h.coefficients
        assert rebuilt.space.measures == inst.space.measures
        assert math.isinf(rebuilt.space.measures[-1])
        assert rebuilt.p == inst.p

    def test_certificate_round_trip(self):
        cert = FactorizationCertificate(
            u=(1 / 3, 2.0), v=(3.0, -1e-17), radius_u=0.5, radius_v=0.5,
            strict_v=False,
        )
        payload = cert.to_json()
        assert "product_tolerance" not in payload
        back = FactorizationCertificate.from_json(json.loads(json.dumps(payload)))
        assert back == cert

    def test_public_constructors_turn_entries_into_floats(self):
        # Solvers build certificates through a private constructor that
        # skips this conversion; the public ones keep it.
        cert = FactorizationCertificate(
            u=[1, Fraction(1, 3)], v=(2, Fraction(-3, 4)), radius_u=1.0, radius_v=1.0
        )
        assert repr(cert.u) == repr((1.0, 1 / 3))
        assert repr(cert.v) == repr((2.0, -0.75))
        assert repr(cert.transposed().v) == repr(cert.u)
        back = FactorizationCertificate.from_json(
            {"u": [1, 2], "v": [3, 4], "radius_u": 1, "radius_v": 1, "strict_v": True}
        )
        assert repr(back.u + back.v) == repr((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match="factor pair lengths differ"):
            FactorizationCertificate(u=[1], v=[], radius_u=1.0, radius_v=1.0)

    def test_stale_keys_are_ignored(self):
        # older files carry a certificate product_tolerance, a space "units"
        # and an "id" per atom
        payload = single_atom_instance().to_json()
        assert payload["space"] == {"atoms": [{"measure": 1.0}]}
        payload["space"]["units"] = "cm"
        payload["space"]["atoms"][0]["id"] = "a0"
        assert lpfactor.instance_from_json(payload) == single_atom_instance()
        cert = FactorizationCertificate(u=(2.0,), v=(3.1,), radius_u=1.0, radius_v=1.0)
        stale = dict(cert.to_json(), product_tolerance=0.5)
        assert FactorizationCertificate.from_json(stale) == cert


class TestGenerator:
    def test_zero_defect_fraction_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind="lp", n=5, eps=1.0, defect_fraction=0.0, seed=1, p=2)

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind="seq", n=5, eps=1.0, defect_fraction=1.0, seed=1)

    def test_deterministic_byte_identical(self):
        spec = InstanceSpec(kind="lp", n=30, eps=1.0, defect_fraction=0.5, seed=42, p=1.5)
        a = json.dumps(gen_instance(spec).to_json())
        b = json.dumps(gen_instance(spec).to_json())
        assert a == b
        spec_seq = InstanceSpec(kind="seq", n=30, eps=2.0, defect_fraction=0.5, seed=42)
        assert (
            gen_instance(spec_seq).to_json() == gen_instance(spec_seq).to_json()
        )

    def test_defect_lands_on_target(self):
        for kind in ("lp", "seq"):
            spec = InstanceSpec(
                kind=kind,
                n=40,
                eps=1.0,
                defect_fraction=0.99,
                seed=7,
                p=2 if kind == "lp" else None,
            )
            inst = gen_instance(spec)
            measured = inst.defect()  # independent norm recomputation
            bound = inst.feasibility_bound()
            assert 0.989 * bound <= measured <= 0.991 * bound

    def test_scaled_norms_land_in_range(self):
        from lpfactor import norm

        spec = InstanceSpec(
            kind="lp",
            n=25,
            eps=1.0,
            defect_fraction=0.5,
            seed=3,
            p=2,
            scale_min=1e3,
            scale_max=1e6,
        )
        inst = gen_instance(spec)
        assert 1e3 * 0.99 <= norm(inst.f, inst.p) <= 1e6 * 1.01
        assert 1e3 * 0.99 <= norm(inst.g, Exponent(2)) <= 1e6 * 1.01


class TestHighPrecisionAudit:
    def test_report_distances_match_50_digit_recomputation(self):
        from mpmath import mp, mpf, fabs, fsum as mpsum

        mp.dps = 50
        spec = InstanceSpec(
            kind="lp", n=20, eps=1.0, defect_fraction=0.9, seed=404, p=1.5
        )
        inst = gen_instance(spec)
        cert = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
        report = verify_certificate(inst, cert)
        assert report.passed
        p = 1.5
        du = mpsum(
            (fabs(mpf(a) - mpf(b)) ** p) * mpf(m)
            for a, b, m in zip(cert.u, inst.f.coefficients, inst.space.measures)
        ) ** (1 / mpf(p))
        dv = mpsum(
            (fabs(mpf(a) - mpf(b)) ** 3) * mpf(m)
            for a, b, m in zip(cert.v, inst.g.coefficients, inst.space.measures)
        ) ** (mpf(1) / 3)
        assert abs(report.norm_u_dist - float(du)) <= 1e-13 * max(1.0, float(du))
        assert abs(report.norm_v_dist - float(dv)) <= 1e-13 * max(1.0, float(dv))
        assert float(du) < 1.0 and float(dv) < 1.0
        worst = max(
            float(fabs(mpf(a) * mpf(b) - mpf(t)))
            for a, b, t in zip(cert.u, cert.v, inst.h.coefficients)
        )
        assert worst <= 1e-9 * max(1.0, max(abs(t) for t in inst.h.coefficients))

    def test_seq_distances_match_50_digit_recomputation(self):
        from mpmath import mp, mpf, fabs, fsum as mpsum

        mp.dps = 50
        spec = InstanceSpec(kind="seq", n=50, eps=1.0, defect_fraction=0.9, seed=505)
        inst = gen_instance(spec)
        cert = factor_seq(inst.x, inst.y, inst.z, inst.eps, "tail")
        report = verify_certificate(inst, cert)
        assert report.passed
        du = mpsum(fabs(mpf(a) - mpf(b)) for a, b in zip(cert.u, inst.x))
        assert abs(report.norm_u_dist - float(du)) <= 1e-13
        assert float(du) < 1.0


class TestRoundTripAndMutation:
    def test_round_trip_then_mutation_flips(self):
        rng = random.Random(100)
        flipped = 0
        for i in range(60):
            if i % 2 == 0:
                spec = InstanceSpec(
                    kind="lp",
                    n=rng.randint(2, 30),
                    eps=1.0,
                    defect_fraction=rng.uniform(0.2, 0.9),
                    seed=1000 + i,
                    p=rng.choice([1, 1.5, 2, 3]),
                )
                inst = gen_instance(spec)
                cert = factor_general(inst.f, inst.g, inst.h, inst.p, inst.eps)
                measures = inst.space.measures
            else:
                spec = InstanceSpec(
                    kind="seq",
                    n=rng.randint(2, 40),
                    eps=1.0,
                    defect_fraction=rng.uniform(0.2, 0.9),
                    seed=2000 + i,
                )
                inst = gen_instance(spec)
                cert = factor_seq(inst.x, inst.y, inst.z, inst.eps)
                measures = (1.0,) * len(cert.u)
            assert verify_certificate(inst, cert).passed
            targets = [
                j
                for j, (a, b) in enumerate(zip(cert.u, cert.v))
                if a != 0 and b != 0 and measures[j] > 0
            ]
            if not targets:
                continue
            j = rng.choice(targets)
            u = list(cert.u)
            u[j] *= 1.0 + 1e-3
            bad = FactorizationCertificate(
                u=tuple(u),
                v=cert.v,
                radius_u=cert.radius_u,
                radius_v=cert.radius_v,
                strict_u=cert.strict_u,
                strict_v=cert.strict_v,
            )
            assert not verify_certificate(inst, bad).passed
            flipped += 1
        assert flipped > 40

    def test_countable_solver_certificates_verify(self):
        rng = random.Random(5)
        for i in range(40):
            spec = InstanceSpec(
                kind="lp",
                n=rng.randint(1, 25),
                eps=2.0,
                defect_fraction=rng.uniform(0.1, 0.95),
                seed=3000 + i,
                p=rng.choice([1, 1.5, 2, 3, "inf"]),
            )
            inst = gen_instance(spec)
            cert = factor_countable(inst.f, inst.g, inst.h, inst.p, inst.eps)
            assert verify_certificate(inst, cert).passed



def _split_at_infinite_p():
    inst = single_atom_instance()
    return lpfactor.agreement_split(inst.f, inst.g, inst.h, "inf", inst.eps)


def _instance_on_two_spaces():
    f = SimpleFunction(MeasureSpace([1.0]), (1.0,))
    g = SimpleFunction(MeasureSpace([2.0]), (1.0,))
    return LpInstance(f, g, f, Exponent(2), 1.0)


def _one_atom_certificate():
    return FactorizationCertificate(u=(1.0,), v=(1.0,), radius_u=1.0, radius_v=1.0)


def _spec(**changes):
    fields = dict(kind="seq", n=5, eps=1.0, defect_fraction=0.5, seed=1)
    return InstanceSpec(**{**fields, **changes})


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: FactorizationCertificate(
                u=(1.0,), v=(1.0, 2.0), radius_u=1.0, radius_v=1.0
            ),
            "factor pair lengths differ",
        ),
        (_split_at_infinite_p, "requires finite p"),
        (lambda: _spec(kind="xy"), "kind must be"),
        (lambda: _spec(n=0), "at least one atom"),
        (lambda: _spec(eps=0.0), "eps must be positive"),
        (lambda: _spec(eps=math.nan), "eps must be positive and finite"),
        (lambda: _spec(eps=math.inf), "eps must be positive and finite"),
        (lambda: _spec(kind="lp"), "need an exponent p"),
        (_instance_on_two_spaces, "share one measure space"),
        (lambda: lpfactor.instance_from_json({"kind": "matrix"}), "unknown instance kind"),
        (
            lambda: SimpleFunction(MeasureSpace([1.0]), (1.0, 2.0)),
            "2 coefficients for 1 atoms",
        ),
        (
            lambda: lpfactor.truncate_support(single_atom_instance().f, 0.0),
            "eps must be positive",
        ),
        (
            lambda: verify_certificate(
                SeqInstance(x=(1.0, 2.0), y=(1.0, 1.0), z=(1.0, 2.0), eps=1.0),
                _one_atom_certificate(),
            ),
            "shorter than the instance prefix",
        ),
        (
            lambda: verify_certificate(object(), _one_atom_certificate()),
            "unknown instance type",
        ),
        (
            lambda: replace(single_atom_instance(), eps=math.nan),
            "eps must be positive and finite",
        ),
        (
            lambda: SeqInstance(x=(1.0,), y=(1.0,), z=(1.0,), eps=math.inf),
            "eps must be positive and finite",
        ),
        (
            lambda: lpfactor.instance_from_json(
                {"kind": "seq", "x": [1], "y": [1], "z": [1], "eps": math.nan}
            ),
            "eps must be positive and finite",
        ),
        (
            lambda: SeqInstance(x=(1.0, math.nan), y=(1.0,), z=(1.0,), eps=1.0),
            "coefficients must be finite reals",
        ),
    ],
)
def test_public_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
