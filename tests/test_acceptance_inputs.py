"""The acceptance sweep's input streams, pinned by one digest.

The acceptance tests check totals and zero failures, which any instance
stream would give.  This test records every ``InstanceSpec`` the sweep
generates, every scalar-kernel call ``(x, y, r, R, z)`` and every sequence
handed to ``tail_weights`` in a fast sweep at ``BASE_SEED``, and pins one
SHA-256 over them, so a refactor of the runners (or a parallel sweep) that
reorders, reseeds or drops an instance shows up here.
"""
import hashlib

from lpfactor import acceptance

SWEEP_INPUTS_SHA256 = "560460dc1285dd748f245a1942b7f6a7268eacdbafd2b73c8528f668ea60a8ef"


def _recorded_sweep(monkeypatch, **kwargs):
    digest = hashlib.sha256()

    def feed(tag, text):
        digest.update(f"{tag} {text}\n".encode())

    def wrap(name, describe):
        inner = getattr(acceptance, name)

        def recorder(*args):
            feed(name, describe(*args))
            return inner(*args)

        monkeypatch.setattr(acceptance, name, recorder)

    wrap("gen_instance", repr)
    wrap(
        "factor_scalar",
        lambda box, z: " ".join(map(float.hex, (box.x, box.y, box.r, box.R, z))),
    )
    wrap("tail_weights", lambda a: " ".join(map(float.hex, map(float, a))))
    results = acceptance.run_all(**kwargs)
    return digest.hexdigest(), results


def test_fast_sweep_inputs_are_pinned(monkeypatch):
    digest, results = _recorded_sweep(monkeypatch, fast=True, seed=acceptance.BASE_SEED)
    assert all(result.passed for result in results)
    assert digest == SWEEP_INPUTS_SHA256
