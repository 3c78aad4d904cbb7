"""Acceptance sweep: every guarantee, at full volume and stated tolerance.

Each test runs one criterion and prints its pass/fail line; the same
runners back the ``lpfactor sweep`` subcommand.
"""
from lpfactor import acceptance


def _run(number):
    result = acceptance.run_criterion(number)
    print(result.line())
    return result


def test_criterion_1_scalar_kernel_sweep():
    result = _run(1)
    assert result.failures == 0
    assert result.seconds < 5.0
    assert result.total == 281250
    assert result.passed


def test_criterion_2_lp_constant():
    result = _run(2)
    assert result.failures == 0
    assert result.seconds < 60.0
    assert result.total == 40000
    assert result.passed


def test_criterion_3_sequence_constant():
    result = _run(3)
    assert result.failures == 0
    assert result.total == 20000
    assert result.passed


def test_criterion_4_uniformity_under_scaling():
    result = _run(4)
    assert result.failures == 0
    assert result.total == 40000
    assert result.passed


def test_criterion_5_tail_weight_bound():
    result = _run(5)
    assert result.failures == 0
    assert result.total == 1000
    assert result.passed


def test_criterion_6_closed_ball_contract():
    result = _run(6)
    assert result.failures == 0
    assert result.passed


def test_criterion_7_verifier_independence():
    result = _run(7)
    assert result.failures == 0
    assert result.passed
