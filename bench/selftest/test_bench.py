"""Self-test of the benchmark: tiny runs of every workload.

    python -m pytest -q bench/selftest
"""
import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, solve_lp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, n=min(w.n, 200), pool=10) for name, w in WORKLOADS.items()}
COUNT_SUFFIXES = (".calls", ".refused", ".case1", ".case2", ".case3",
                  ".identity_frac", ".kept_frac")


def _run(name, trace, workloads=TINY, expect_code=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], workloads=workloads)
    assert code == expect_code
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(name, trace, kind):
    lines, result = _run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for metric, unit in expected.items():
        assert printed[metric] == unit
    assert printed["fail_frac"] == "frac"
    assert result["failed"] == 0 and result["correct"]
    assert float(lines[-2].split()[1]) == 0.0  # the fail_frac line


def test_every_rebound_function_is_restored(tmp_path):
    import lpfactor.countable
    import lpfactor.lp

    sites = [(spans.module(site), qualname.split(".")[1])
             for qualname, where in spans.TRACED.items() for site in where]
    before = [getattr(mod, attr) for mod, attr in sites]
    result = harness.trace_run(TINY["lp-5k"], 5, tmp_path)
    assert result["metrics"]["countable.factor_countable.calls"][0] > 0
    assert [getattr(mod, attr) for mod, attr in sites] == before
    assert lpfactor.lp.factor_countable is lpfactor.countable.factor_countable

    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    assert [getattr(mod, attr) for mod, attr in sites] == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = [harness.trace_run(TINY[name], 7, tmp_path)["metrics"] for _ in range(2)]
    counts = [{k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)} for m in runs]
    assert counts[0] and counts[0] == counts[1]


def _raises(instance, strategy):
    raise ValueError("solver broke")


def _rejected(instance, strategy):
    cert, _ = solve_lp(instance, strategy)
    return cert, False


@pytest.mark.parametrize("solve", [_raises, _rejected])
@pytest.mark.parametrize("trace", [0, 1])
def test_failed_operations_fail_the_run(solve, trace):
    broken = {"broken": replace(TINY["lp-5k"], name="broken", solve=solve)}
    lines, result = _run("broken", trace, broken, expect_code=1)
    assert result["failed"] == result["attempted"] >= 10
    assert not result["correct"]
    assert float(lines[-2].split()[1]) == 1.0  # the fail_frac line


def test_p50_takes_the_first_k_solves_only():
    k = harness.K_SOLVES
    passes = [[2.0, 4.0]] * k + [[1.0, 1.0]] * 3
    metrics = harness.end_to_end({"passes": passes, "setup_s": 1.0})
    assert metrics["cert_ms_p50"][0] == 3e3
    assert metrics["certs_per_s"][0] == pytest.approx(1 / 3)
