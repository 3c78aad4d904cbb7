"""Golden digests: the solvers' certificates and parameters, byte for byte.

Each digest is the SHA-256 over a fixed set of seeded instances of the
sorted-key certificate JSON followed by ``params.to_json()`` (or ``null``),
one line per instance; a solver that refuses contributes the name of the
exception instead.  Any change to a digest is a change to what the solvers
emit, so a refactor or a speed-up must leave every digest as it is.

To print the digests of the code as it stands:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json

import pytest

from lpfactor import (
    INFINITE,
    Exponent,
    InstanceSpec,
    LpInstance,
    MeasureSpace,
    SimpleFunction,
    factor_bounded,
    factor_countable,
    factor_general,
    factor_seq,
    gen_instance,
)

PS = (1, 1.5, 2, 3, "inf")
SIZES = (1, 25, 1000)
EPSILONS = (0.3, 1.0, 3.5)
# (infinite-measure atoms, scale range of ||f||_p and ||g||_q)
VARIANTS = ((0, 1.0), (2, 1.0), (0, 1e6), (2, 1e6))
LP_SOLVERS = {
    "factor_general": factor_general,
    "factor_bounded": factor_bounded,
    "factor_countable": factor_countable,
}

GOLDEN = {
    "factor_general/p=1": "8c58958a86659084a96425e1e20d56016e6f7a6a56e2463b176bdb45e3400528",
    "factor_general/p=1.5": "7eedeee9f36f8ae8d3b2871cc5137faa37dd08f627ee3e28e58b05270a42c5cd",
    "factor_general/p=2": "7b5c4063d7bc69601f82d79cef812e66358774f788f8ff4b06e00524745804da",
    "factor_general/p=3": "b23d6aa2cdcafe688aea52473e2e96265e70022cc0534a3f92d1864b1aed71a0",
    "factor_general/p=inf": "c1abfbf686a19ffbeee8f393466aaf9c00bce20d9edd37a8d9ea750310a09c95",
    "factor_bounded/p=1": "89bd4ac9068264a161ab509001b81ef3e54002db0a6c546664cf6089bd0eb6d2",
    "factor_bounded/p=1.5": "3d89edeb4fa871cbe9cd4a37189e46e4134f3e01688f693b83e9f198480fc535",
    "factor_bounded/p=2": "d94e87e326281ed50a872ccd69d8161946429758a2c239902567d64a3053a726",
    "factor_bounded/p=3": "b6f35490246210d3b5bd84bc6947fa0c578d04ca57b42ae944ade55884f63128",
    "factor_bounded/p=inf": "ee9eb3c92c7686d5d5e0893919db88f5c9fb525776ba29cf3cfb3c47ef65006c",
    "factor_countable/p=1": "280552852cdaa7f7e77e623186642756e61e5d18316f2c3cb26d9f078f4cef80",
    "factor_countable/p=1.5": "7e0beac57491f4c6d4792084f23b0ee49994e1f05c69b58cb36d7e815a084bcc",
    "factor_countable/p=2": "7eb2fdee98fbe29cdbb2d70db0fb062671670e0cd76cd4d9e1efeeb46315d27a",
    "factor_countable/p=3": "59db60d7f55487c389a25280378b777991760cffe95454fdc4b6c7ed305ffc2d",
    "factor_countable/p=inf": "5f3869efbaa93f5c8d77545a90e016aa2737726ec457971bc0661f1c3c42e6ae",
    "factor_seq/finite": "e256a970c2bda3d22a17a37dab2f92f047cca800a2185162bfd9710da1580732",
    "factor_seq/tail": "4c3d8b56384fe8b8c25927e3d2697046f40e0dc9259c76a64921ef81e8776aea",
}


def _lp_instances(p):
    for k, n in enumerate(SIZES):
        for v, (infinite, scale) in enumerate(VARIANTS):
            for e, eps in enumerate(EPSILONS):
                yield gen_instance(
                    InstanceSpec(
                        kind="lp",
                        n=n,
                        eps=eps,
                        defect_fraction=(0.1, 0.6, 0.97)[(k + v + e) % 3],
                        seed=1000 * k + 100 * v + e,
                        p=p,
                        scale_min=scale,
                        scale_max=scale,
                        infinite_atoms=infinite,
                    )
                )


# Hand-built edges, as (measures, f, g, h, eps): an exact instance, a null
# atom with a disagreeing target, magnitudes near the ends of binary64, an
# infeasible target, f nonzero on an INFINITE atom, subnormal defects, and
# products that cancel huge against tiny coefficients.
EDGES = (
    ([1.0, 2.0], [1.0, 2.0], [3.0, 0.5], [3.0, 1.0], 1.0),
    ([0.0, 2.0, 1.0], [5.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-7.0, 1.01, 1.0], 1.0),
    (
        [1e-300, 1.0, 3.0],
        [1e150, 1e-3, 2.0],
        [1e-150, 5e3, 1.0],
        [1e-150 + 1e-170, 5.0001, 2.0],
        0.5,
    ),
    ([1.0, 1e300], [1e5, 1e-300], [1e-5, 1.0], [1.0 + 1e-9, 1e-300], 1e-3),
    ([1.0], [2.0], [3.0], [100.0], 1.0),
    ([1.0, INFINITE], [1.0, 1.0], [1.0, 1.0], [1.01, 1.0], 1.0),
    (
        [1.0, 1.0, 1.0],
        [1e-200, 0.0, 3.0],
        [1e-200, 0.0, 1e-3],
        [5e-324, 1e-310, 3e-3 + 1e-4],
        0.1,
    ),
    ([2.0, 0.5], [1e154, 1e-154], [1e-154, 1e154], [1.0 + 1e-20, 1.0], 2.0),
)


def _edge_instances(p):
    for measures, f, g, h, eps in EDGES:
        space = MeasureSpace.from_measures(measures)
        yield LpInstance(
            SimpleFunction(space, tuple(f)),
            SimpleFunction(space, tuple(g)),
            SimpleFunction(space, tuple(h)),
            Exponent(p),
            eps,
        )


def _seq_instances():
    for k, n in enumerate(SIZES):
        for v, scale in enumerate((1.0, 1e6)):
            for e, eps in enumerate(EPSILONS):
                yield gen_instance(
                    InstanceSpec(
                        kind="seq",
                        n=n,
                        eps=eps,
                        defect_fraction=(0.1, 0.6, 0.97)[(k + v + e) % 3],
                        seed=1000 * k + 100 * v + e,
                        scale_min=scale,
                        scale_max=scale,
                    )
                )


def _line(solve) -> bytes:
    try:
        cert = solve()
    except Exception as exc:  # a refusal is part of the behaviour pinned
        return f"error:{type(exc).__name__}\n".encode()
    params = cert.params.to_json() if cert.params is not None else None
    return (
        json.dumps(cert.to_json(), sort_keys=True)
        + json.dumps(params, sort_keys=True)
        + "\n"
    ).encode()


def digest(key: str) -> str:
    solver, arg = key.split("/")
    sha = hashlib.sha256()
    if solver == "factor_seq":
        strategy = arg
        for inst in _seq_instances():
            sha.update(
                _line(lambda: factor_seq(inst.x, inst.y, inst.z, inst.eps, strategy))
            )
    else:
        solve = LP_SOLVERS[solver]
        p = arg.split("=")[1]
        p = p if p == "inf" else float(p)
        for inst in (*_lp_instances(p), *_edge_instances(p)):
            sha.update(_line(lambda: solve(inst.f, inst.g, inst.h, inst.p, inst.eps)))
    return sha.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    assert digest(key) == GOLDEN[key]


if __name__ == "__main__":
    for key in GOLDEN:
        print(f'    "{key}": "{digest(key)}",')
