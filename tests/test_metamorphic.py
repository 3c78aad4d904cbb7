"""Metamorphic relations: input transformations whose effect on the
certificate is known exactly.

Atom permutation.  The constructions treat atoms one at a time, and the
sums that steer them (the defect, the measure total, the norms) are
``math.fsum``s, which do not depend on the order of their terms.  So
relabelling the atoms of an instance must relabel its certificate bit for
bit, and a refusal must stay a refusal of the same type.  One sum is
ordered: ``truncate_support`` adds the tail shares in index order within a
level, so a tail within a few ulps of its budget could pick another level
after a permutation; none of the seeded draws here comes near that.

Atom refinement.  Splitting an atom of measure mu into two atoms of mu/2
with the same coefficients leaves every sum that steers the construction
unchanged: each share d mu becomes two shares d mu/2 whose exact sum is
d mu, the radius ratios d/eta do not see the measure, and the measure
total is the same fsum.  So both copies must get the parent's (u, v) bit
for bit, with the same parameters.  Stated exclusion: a draw whose split
share d mu/2 is subnormal, where halving rounds and eta may move by an ulp.
"""
import math
import random
import sys

import pytest

from lpfactor import (
    InstanceSpec,
    MeasureSpace,
    SimpleFunction,
    factor_countable,
    factor_general,
    factor_seq,
    gen_instance,
)

PS = (1, 1.5, 2, 3, "inf")
SIZES = (1, 2, 9, 60, 400)
DRAWS = 30


def _permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _outcome(solve, *args):
    """The certificate as exact text, or the type of the refusal."""
    try:
        cert = solve(*args)
    except ValueError as exc:  # FeasibilityError is a ValueError
        return type(exc).__name__
    params = cert.params.to_json() if cert.params is not None else None
    return (
        [x.hex() for x in cert.u],
        [x.hex() for x in cert.v],
        (cert.radius_u, cert.radius_v, cert.strict_u, cert.strict_v),
        params,
    )


def _relabelled(outcome, perm):
    """What the outcome of the permuted instance must be."""
    if isinstance(outcome, str):
        return outcome
    u, v, flags, params = outcome
    return [u[i] for i in perm], [v[i] for i in perm], flags, params


def _draws(kind, p=None):
    """Seeded instances of every size, with the radius to solve them at.

    Every third draw is solved at half its radius, where its defect (above
    a quarter of the bound) makes it infeasible.
    """
    rng = random.Random(f"metamorphic:{kind}:{p}")
    for k in range(DRAWS):
        spec = InstanceSpec(
            kind=kind,
            n=SIZES[k % len(SIZES)],
            eps=math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
            defect_fraction=rng.uniform(0.3, 0.99),
            seed=rng.getrandbits(32),
            p=p,
            scale_max=(1.0, 1e6)[k % 2] if kind == "lp" else 1.0,
            scale_min=(1.0, 1e3)[k % 2] if kind == "lp" else 1.0,
            infinite_atoms=k % 3 if kind == "lp" else 0,
        )
        inst = gen_instance(spec)
        yield inst, inst.eps / 2.0 if k % 3 == 2 else inst.eps, rng


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("solve", [factor_countable, factor_general])
def test_lp_solvers_relabel_with_the_atoms(solve, p):
    refused = 0
    for inst, eps, rng in _draws("lp", p):
        perm = _permutation(len(inst.space), rng)
        space = MeasureSpace(tuple(inst.space.measures[i] for i in perm))
        f, g, h = (
            SimpleFunction(space, tuple(fn.coefficients[i] for i in perm))
            for fn in (inst.f, inst.g, inst.h)
        )
        before = _outcome(solve, inst.f, inst.g, inst.h, inst.p, eps)
        assert _outcome(solve, f, g, h, inst.p, eps) == _relabelled(before, perm)
        refused += isinstance(before, str)
    assert 0 < refused < DRAWS  # both kinds of outcome were compared


def test_finite_sequences_relabel_with_the_indices():
    refused = 0
    for inst, eps, rng in _draws("seq"):
        xs, ys, zs = inst.padded()
        perm = _permutation(len(xs), rng)
        permuted = ([s[i] for i in perm] for s in (xs, ys, zs))
        before = _outcome(factor_seq, xs, ys, zs, eps, "finite")
        assert _outcome(factor_seq, *permuted, eps, "finite") == _relabelled(before, perm)
        refused += isinstance(before, str)
    assert 0 < refused < DRAWS


def _refined(inst, k):
    """(f, g, h) with atom k split into two atoms of half its measure."""
    measures = list(inst.space.measures)
    measures[k : k + 1] = [measures[k] / 2.0] * 2
    space = MeasureSpace(tuple(measures))
    return tuple(
        SimpleFunction(space, fn.coefficients[: k + 1] + fn.coefficients[k:])
        for fn in (inst.f, inst.g, inst.h)
    )


def _doubled(outcome, k):
    """What the outcome of the refined instance must be."""
    if isinstance(outcome, str):
        return outcome
    u, v, flags, params = outcome
    return u[: k + 1] + u[k:], v[: k + 1] + v[k:], flags, params


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("solve", [factor_countable, factor_general])
def test_lp_solvers_copy_a_split_atom(solve, p):
    refused = compared = 0
    for inst, eps, rng in _draws("lp", p):
        measures = inst.space.measures
        k = rng.choice([i for i, mu in enumerate(measures) if mu > 0])
        fs, gs, hs = inst.f.coefficients, inst.g.coefficients, inst.h.coefficients
        share = abs(hs[k] - fs[k] * gs[k]) * (measures[k] / 2.0)
        if 0.0 < share < sys.float_info.min:
            continue  # the stated exclusion: a subnormal split share
        before = _outcome(solve, inst.f, inst.g, inst.h, inst.p, eps)
        after = _outcome(solve, *_refined(inst, k), inst.p, eps)
        assert after == _doubled(before, k)
        refused += isinstance(before, str)
        compared += 1
    assert 0 < refused < compared  # both kinds of outcome were compared
