"""Tests of the benchmark itself: its correctness gate, tracer and contract.

Run with ``python -m pytest bench`` from the repository root (``src`` on
``PYTHONPATH``).
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import feasgame as fg

import run
import workloads as wl
from meter import REF_UNIT_S, Meter, descent_meter, reference_work
from spans import Site, Tracer

BENCH = Path(__file__).resolve().parent
HELD_OUT_SEED = 1


def _declared(section):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[section]], [w["name"] for w in doc["workloads"]]


@pytest.mark.parametrize("name", ["primal-ons", "primal-dual-ogd", "certify"])
def test_held_out_seed_ends_in_verified_certificate(name):
    # iteration counts differ per seed, so only the certificate is checked;
    # dual-descent's held-out seed runs in test_one_run_reports_every_declared_metric
    w = wl.WORKLOADS[name]
    p = wl.run_pass(w, HELD_OUT_SEED)
    assert wl.check(w, HELD_OUT_SEED, p.instance, p.result, p.report) == []


def _fake(outcome, iterations, ok=True):
    """(instance, result, report) as check() reads them."""
    return (SimpleNamespace(horizon=wl.Horizon(10, "mw", 1.0)),
            SimpleNamespace(outcome=outcome, iterations=iterations),
            SimpleNamespace(ok=ok, message="" if ok else "bound too low"))


def test_check_gates_pins_certificates_and_the_horizon():
    w = wl.WORKLOADS["certify"]
    cert = fg.Infeasible(p_bar=np.full(20, 0.05))
    assert wl.check(w, wl.PIN_SEED, *_fake(cert, 2)) == []
    assert wl.check(w, 7, *_fake(cert, 5)) == []
    assert wl.check(w, wl.PIN_SEED, *_fake(cert, 3)) == ["3 iterations, pinned 2"]
    assert wl.check(w, 7, *_fake(cert, 2, ok=False)) == ["certificate rejected: bound too low"]
    assert wl.check(w, 7, *_fake(cert, 11)) == ["11 iterations exceed T*=10"]
    exhausted = fg.Exhausted(best_x=np.full(10, 0.1), best_violation=1.0)
    assert len(wl.check(w, wl.PIN_SEED, *_fake(exhausted, 2))) == 2


def test_horizon_is_the_pinned_full_run_length():
    # these two workloads run to T* by construction, so T* must equal the pin
    for name in ("primal-ons", "primal-dual-ogd"):
        w = wl.WORKLOADS[name]
        assert wl.build(w, wl.PIN_SEED).horizon.T_star == w.iterations


def _small_dual():
    """dual-descent's pipeline on an instance that solves in one iteration;
    n=4 makes verify_certificate prove it by descent rather than on a grid."""
    w = wl.WORKLOADS["dual-descent"]
    small = fg.make_portfolio_risk(4, 8, seed=0)
    return w, wl.Instance(small, None, (), None, wl.horizon(small, w))


def test_spans_cover_a_traced_solve_and_leave_its_outcome_alone():
    w, inst = _small_dual()
    originals = {(s.module, s.attr): getattr(sys.modules[s.module], s.attr)
                 for s in wl.SITES}
    plain = wl.solve(w, inst)
    tracer = Tracer(wl.SITES)
    with tracer:
        traced = wl.solve(w, inst)
        text, report = wl.emit_and_verify(w, inst, traced)
    assert text == wl.emit_and_verify(w, inst, plain)[0]
    assert report.ok
    assert tracer.calls["solvers.loop"] == 1
    assert tracer.calls["descent.optimization_oracle"] == traced.iterations
    assert tracer.counts["descent.minimize_over_domain.inner_iters"] > 0
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_self_times_add_up_to_the_root_span():
    mod = types.ModuleType("bench_fake_layer")
    exec("def leaf():\n    return sum(range(5000))\n"
         "def root():\n    return leaf() + leaf()\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer([Site(mod.__name__, "root", "root"),
                         Site(mod.__name__, "leaf", "leaf")])
        with tracer:
            t0 = time.perf_counter_ns()
            mod.root()
            outer = time.perf_counter_ns() - t0
        assert dict(tracer.calls) == {"root": 1, "leaf": 2}
        assert tracer.self_ns["leaf"] > 0 and tracer.self_ns["root"] > 0
        assert sum(tracer.self_ns.values()) <= outer
    finally:
        del sys.modules[mod.__name__]


def test_meter_reports_the_work_in_reference_units():
    meter = Meter(every=1)

    def twenty_units():
        for _ in range(20):
            reference_work()
            meter()

    meter.time(twenty_units)
    assert len(meter.ref_ns) == 21  # one per unit, one after the run
    assert 15 * REF_UNIT_S < meter.seconds < 25 * REF_UNIT_S
    assert meter.raw[0] > 0 and meter.slowdown > 0


def test_meter_runs_the_reference_every_so_many_units():
    meter = Meter(every=3)
    for _ in range(7):
        meter()
    assert len(meter.ref_ns) == 2


def test_descent_meter_counts_each_evaluation_of_the_certificate_check():
    w, inst = _small_dual()
    result = wl.solve(w, inst)
    original = fg.solvers.minimize_over_domain
    meter = Meter(every=1)
    with descent_meter(meter):
        text, report = wl.emit_and_verify(w, inst, result)
    assert fg.solvers.minimize_over_domain is original
    assert len(meter.ref_ns) > 1
    assert (text, report) == wl.emit_and_verify(w, inst, result)


def test_tracer_restores_the_modules_when_the_block_raises():
    original = fg.solvers.residuals
    with pytest.raises(RuntimeError):
        with Tracer(wl.SITES):
            assert fg.solvers.residuals is not original
            raise RuntimeError
    assert fg.solvers.residuals is original


def test_one_run_reports_every_declared_metric(capsys):
    e2e, names = _declared("end_to_end")
    layers, _ = _declared("per_layer")
    assert names == list(wl.WORKLOADS)
    for trace, declared in ((0, e2e), (1, layers)):
        code = run.main(["--workload", "dual-descent", "--seed", str(HELD_OUT_SEED),
                         "--seconds", "0.1", "--trace", str(trace)])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
        assert sorted(out["metrics"]) == sorted(declared)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
