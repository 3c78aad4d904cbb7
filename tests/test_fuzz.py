"""Seeded hostile fuzz: every solver certifies correctly or refuses by type.

The instances sit at the edges of binary64: coefficients and measures over
10^+-300, eps over 10^+-150 (up to 1e160 for sequences), zero coordinates,
null and INFINITE atoms, and per-atom defects spread over 300 orders of
magnitude, so some atoms' float radii underflow and the starved-atom
fallback runs.  A solve must return a certificate that ``verify_certificate``
accepts, or raise ``FeasibilityError``, or raise the documented
"has infinite norm" ``ValueError`` when a function is not in its space.
Refusals of feasible instances are counted, not gated on.

To print the outcome counts:

    PYTHONPATH=src python tests/test_fuzz.py
"""
import math
import random
from collections import Counter

from lpfactor import scalar
from lpfactor import (
    INFINITE,
    Exponent,
    FeasibilityError,
    LpInstance,
    MeasureSpace,
    SeqInstance,
    SimpleFunction,
    factor_countable,
    factor_general,
    factor_seq,
    verify_certificate,
)

SEED = 1
LP_DRAWS = 20000
SEQ_DRAWS = 5000
PS = (1, 1.5, 2, 3, "inf")
LP_SOLVERS = {
    "factor_countable": lambda i: factor_countable(i.f, i.g, i.h, i.p, i.eps),
    "factor_general": lambda i: factor_general(i.f, i.g, i.h, i.p, i.eps),
}
SEQ_SOLVERS = {
    "factor_seq/finite": lambda i: factor_seq(i.x, i.y, i.z, i.eps, "finite"),
    "factor_seq/tail": lambda i: factor_seq(i.x, i.y, i.z, i.eps, "tail"),
}


def _signed(rng, lo, hi):
    """+-10^U(lo, hi), or 0 one time in five."""
    if rng.random() < 0.2:
        return 0.0
    return math.copysign(10.0 ** rng.uniform(lo, hi), rng.random() - 0.5)


def _targets(rng, xs, ys, budget, measures):
    """x y plus defects that spend up to ``budget`` of L1, spread unevenly."""
    weights = [10.0 ** rng.uniform(-300, 0) if rng.random() < 0.7 else 0.0 for _ in xs]
    total = math.fsum(weights) or 1.0
    return [
        x * y + math.copysign(budget * w / total / m, rng.random() - 0.5)
        for x, y, w, m in zip(xs, ys, weights, measures)
    ]


def hostile_lp(rng):
    """An LP instance at the edges of binary64, or None if it has no doubles."""
    n = rng.randint(1, 6)
    measures = [
        rng.choice((0.0, INFINITE)) if rng.random() < 0.2 else 10.0 ** rng.uniform(-300, 300)
        for _ in range(n)
    ]
    f = [_signed(rng, -300, 300) for _ in range(n)]
    g = [_signed(rng, -300, 300) for _ in range(n)]
    eps = 10.0 ** rng.uniform(-150, 150)
    budget = eps * eps / 4.0 * rng.uniform(0.01, 1.0)
    # A null atom's target is free; an INFINITE atom's defect must be zero.
    scales = [1.0 if m in (0.0, INFINITE) else m for m in measures]
    h = _targets(rng, f, g, budget, scales)
    for i, m in enumerate(measures):
        if m == 0.0 and rng.random() < 0.5:
            h[i] = _signed(rng, -300, 300)
        elif m == INFINITE:
            if rng.random() < 0.8:  # mostly members of their spaces
                f[i] = g[i] = 0.0
            h[i] = f[i] * g[i]
    if not all(map(math.isfinite, h)):
        return None
    space = MeasureSpace(measures)
    return LpInstance(
        f=SimpleFunction(space, tuple(f)),
        g=SimpleFunction(space, tuple(g)),
        h=SimpleFunction(space, tuple(h)),
        p=Exponent(rng.choice(PS)),
        eps=eps,
    )


def hostile_seq(rng):
    """A sequence instance at the edges of binary64, or None."""
    n = rng.randint(1, 6)
    x = [_signed(rng, -300, 300) for _ in range(n)]
    y = [_signed(rng, -300, 300) for _ in range(n)]
    eps = 10.0 ** rng.uniform(-150, 160)
    budget = min(eps * eps / 16.0, 1e308) * rng.uniform(0.01, 1.0)
    z = _targets(rng, x, y, budget, [1.0] * n)
    if not all(map(math.isfinite, z)):
        return None
    return SeqInstance(x=tuple(x), y=tuple(y), z=tuple(z), eps=eps)


def outcome(instance, solve):
    """"verified", "wrong", "refused" or "not a member", for one solve.

    Any other exception propagates.
    """
    try:
        cert = solve(instance)
    except FeasibilityError:
        return "refused"
    except ValueError as err:
        if "has infinite norm" not in str(err):
            raise
        return "not a member"
    return "verified" if verify_certificate(instance, cert).passed else "wrong"


def fuzz(seed=SEED, lp_draws=LP_DRAWS, seq_draws=SEQ_DRAWS):
    """Outcome counts keyed by (solver, feasible, outcome)."""
    counts = Counter()
    rng = random.Random(seed)
    draws = [(hostile_lp, LP_SOLVERS)] * lp_draws + [(hostile_seq, SEQ_SOLVERS)] * seq_draws
    for draw, solvers in draws:
        instance = draw(rng)
        if instance is None:
            continue
        feasible = instance.defect() < instance.feasibility_bound()
        for name, solve in solvers.items():
            counts[name, feasible, outcome(instance, solve)] += 1
    return counts


def test_hostile_fuzz_returns_no_wrong_certificate(monkeypatch):
    fallbacks = []
    checked = scalar._checked_pair

    def spy(*args):
        fallbacks.append(args[-1])
        return checked(*args)

    monkeypatch.setattr(scalar, "_checked_pair", spy)
    counts = fuzz()
    wrong = {key: n for key, n in counts.items() if key[2] == "wrong"}
    assert not wrong
    # The draws reach every solver with feasible instances, and the
    # starved-atom fallback from both of its callers.
    for name in (*LP_SOLVERS, *SEQ_SOLVERS):
        assert counts[name, True, "verified"] > 0
    assert {context.rsplit(" ", 1)[0] for context in fallbacks} == {
        "countable atom",
        "sequence index",
    }


if __name__ == "__main__":
    for key, n in sorted(fuzz().items()):
        print(*key, n)
