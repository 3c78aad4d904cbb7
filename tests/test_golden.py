"""Golden digests: the solvers' certificates and parameters, byte for byte.

Each digest is the SHA-256 over a fixed set of seeded instances of the
sorted-key certificate JSON followed by ``params.to_json()`` (or ``null``),
one line per instance; a solver that refuses contributes the name of the
exception instead.  Any change to a digest is a change to what the solvers
emit, so a refactor or a speed-up must leave every digest as it is.

Each digest also has a stream, ``tests/golden/<key>.txt``: one line per
instance with its index, its spec (the non-default ``InstanceSpec`` fields,
or ``edge k`` for a hand-built instance) and the first 16 hex digits of the
SHA-256 of that instance's line, or ``error:<Type>``.  A failure names the
first instance that differs.

To print the digests of the code as it stands, and with ``--write`` to
rewrite the streams as well:

    PYTHONPATH=src python tests/test_golden.py [--write]
"""
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

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
    "factor_general/p=1": "2cab4cd8b33be5ec69a9be952708bc1887e893b3eca4457c0cffbe7d1aa713ec",
    "factor_general/p=1.5": "7de9d55725e624f84da5dbc2339bf7dda0daaa3ebf0afdcf1c84f6d421755405",
    "factor_general/p=2": "0632e97294511ffaf2727e9459032b9df2d96c5fac703e14668580546c560cdb",
    "factor_general/p=3": "6de3ce3f9f664aa8f777cdebc4ca2c30a0d3dc9f0da98c1b54048752759a0f27",
    "factor_general/p=inf": "20a37a91228323fd5f82abbf6cd2929a49e28f247ce21c9c9dbd6e3128019807",
    "factor_bounded/p=1": "58c99436ef7b8aba99462adefea5f6863ac0e8951055b4702ccb34f464966282",
    "factor_bounded/p=1.5": "2e73aa2a01664dde5d1c291c2a15906e1e4b8bfa10a2c8a65dbaeb858f8b7f14",
    "factor_bounded/p=2": "65f933d8924d18d2c09f3b253c9ce31f83ae06c023df68adbf72c830e02861ad",
    "factor_bounded/p=3": "17e659d0bef53daddc758c86afb3d19033318bd3bfa81931ec86c74f7f5f6e7b",
    "factor_bounded/p=inf": "2cf16fdd29e9ecb8075d6bf972a80951a69cfefaf81a9ded6a1a44ac35fa651f",
    "factor_countable/p=1": "af716062e9309cf4b229e8d3862a63c43628fd41d6d504c42b513c8aa7f2baba",
    "factor_countable/p=1.5": "56f5670651f0fb0c61557a4c762df287ff8304843bf53a2a777a2e0761f0f74a",
    "factor_countable/p=2": "3aae042698460dc14160a8b342da84204a608be81764d81a5ecb6fec773a98ce",
    "factor_countable/p=3": "1e096ac986178b0df0920b77b7acb9d278ccb2c6128732fd5e6d5b0880c3aea3",
    "factor_countable/p=inf": "c0d7e71be3a0ebea72d870f82d5b49abbe3990f6775ac2d172b758d8ba22b957",
    "factor_seq/finite": "c6ecc942328156eeb462cf72ed6dd3e44c5d4464212efb2df99fb150ea49efa8",
    "factor_seq/tail": "6c894679df68b58d840bba380098de09cbfad14eced6f55c25c0dab735268c3d",
    "factor_general/n=5000": "6f5e0fa45b4e7e4e775f64fb6bbd8a6f6721d59f6e901424b7690840b138a70c",
}


STREAMS = Path(__file__).with_name("golden")


def _lp_specs(p):
    for k, n in enumerate(SIZES):
        for v, (infinite, scale) in enumerate(VARIANTS):
            for e, eps in enumerate(EPSILONS):
                yield InstanceSpec(
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


def _large_specs():
    """One 5000-atom instance per p, two of its atoms of INFINITE measure."""
    for k, p in enumerate(PS):
        yield InstanceSpec(
            kind="lp",
            n=5000,
            eps=EPSILONS[k % 3],
            defect_fraction=(0.1, 0.6, 0.97)[k % 3],
            seed=5000 + k,
            p=p,
            infinite_atoms=2,
        )


def _edge_instance(edge, p):
    measures, f, g, h, eps = edge
    space = MeasureSpace(measures)
    return LpInstance(
        SimpleFunction(space, tuple(f)),
        SimpleFunction(space, tuple(g)),
        SimpleFunction(space, tuple(h)),
        Exponent(p),
        eps,
    )


def _seq_specs():
    for k, n in enumerate(SIZES):
        for v, scale in enumerate((1.0, 1e6)):
            for e, eps in enumerate(EPSILONS):
                yield InstanceSpec(
                    kind="seq",
                    n=n,
                    eps=eps,
                    defect_fraction=(0.1, 0.6, 0.97)[(k + v + e) % 3],
                    seed=1000 * k + 100 * v + e,
                    scale_min=scale,
                    scale_max=scale,
                )


def _compact(spec: InstanceSpec) -> str:
    """The spec's fields that differ from their defaults, as name=value."""
    return " ".join(
        f"{field.name}={getattr(spec, field.name)}"
        for field in dataclasses.fields(spec)
        if getattr(spec, field.name) != field.default
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


def _cases(key: str):
    """(spec text, instance line) for each instance of a digest, in order."""
    solver, arg = key.split("/")
    if solver == "factor_seq":
        for spec in _seq_specs():
            inst = gen_instance(spec)
            yield _compact(spec), _line(
                lambda: factor_seq(inst.x, inst.y, inst.z, inst.eps, arg)
            )
        return
    if arg == "n=5000":
        solve = factor_general
        cases = [(_compact(spec), gen_instance(spec)) for spec in _large_specs()]
    else:
        solve = LP_SOLVERS[solver]
        p = arg.split("=")[1]
        p = p if p == "inf" else float(p)
        cases = [(_compact(spec), gen_instance(spec)) for spec in _lp_specs(p)]
        cases += [(f"edge {k}", _edge_instance(e, p)) for k, e in enumerate(EDGES)]
    for text, inst in cases:
        yield text, _line(lambda: solve(inst.f, inst.g, inst.h, inst.p, inst.eps))


def stream(key: str):
    """The digest of a key and its stream lines."""
    sha = hashlib.sha256()
    lines = []
    for i, (text, line) in enumerate(_cases(key)):
        sha.update(line)
        short = hashlib.sha256(line).hexdigest()[:16]
        if line.startswith(b"error:"):
            short = line.decode().strip()
        lines.append(f"{i} {text} {short}")
    return sha.hexdigest(), lines


def _stream_path(key: str) -> Path:
    return STREAMS / f"{key}.txt"


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    got_digest, got = stream(key)
    pinned = _stream_path(key).read_text().splitlines()
    for want, line in zip(pinned, got):
        assert line == want, f"{key}: first instance that differs is {want!r}"
    assert len(got) == len(pinned), f"{key}: {len(got)} instances, {len(pinned)} pinned"
    assert got_digest == GOLDEN[key]


if __name__ == "__main__":
    for key in GOLDEN:
        digest, lines = stream(key)
        print(f'    "{key}": "{digest}",')
        if "--write" in sys.argv[1:]:
            path = _stream_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(lines) + "\n")
