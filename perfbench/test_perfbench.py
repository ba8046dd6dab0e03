"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The fast tests check the layer and phase accounting, the sieve primes and
BENCHMARK.json.
The tests that use the `traced` fixture spawn one traced operation per
workload and take about half a minute in all.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# layers each workload exists to exercise (every one must record a call)
EXERCISED = {
    "sextic_field": (
        "descent.verify_unit_data", "descent.sextic_split",
        "descent.unit_sieve", "descent.class_unit", "algebra.factor_nf",
        "algebra.residue_split", "algebra.nf_fifth_root",
        "algebra.NFElement.inverse", "algebra.NFElement.norm",
        "algebra.Fq.fifth_power_class", "bforms.binary_resultant",
        "frey.congruence_scan"),
    "verdict_rest": (
        "cli.run_pipeline", "cli.stage.syzygy", "cli.stage.table4",
        "cli.stage.table5", "cli.stage.genus2", "cli.stage.gauss",
        "cli.stage.sqrt5", "cli.stage.solutions", "descent.rational_split",
        "descent.gauss_family", "descent.sqrt5_family", "algebra.factor_nf",
        "padic.verify_table5", "search.rational_points", "kernels.prescreen"),
}


def _fake_module():
    """outer -> inner twice, inner -> leaf, and rec recursing; the clock
    advances one tick per read."""
    ticks = iter(range(10**6))
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.inner = lambda: mod.leaf()

    def outer():
        mod.inner()
        mod.inner()

    def rec(n):
        if n:
            mod.rec(n - 1)

    mod.outer, mod.rec = outer, rec
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.install([(f"fake.{name}", mod, name)
                    for name in ("outer", "inner", "leaf", "rec")])
    return mod, tracer


def test_self_time_is_inclusive_minus_wrapped_children():
    mod, tracer = _fake_module()
    mod.outer()
    m = tracer.metrics(["fake.outer", "fake.inner", "fake.leaf"])
    assert (m["fake.outer.calls"], m["fake.inner.calls"],
            m["fake.leaf.calls"]) == (1, 2, 2)
    assert m["fake.outer.self_s"] == m["fake.outer.s"] - m["fake.inner.s"]
    assert m["fake.inner.self_s"] == m["fake.inner.s"] - m["fake.leaf.s"]
    assert m["fake.leaf.self_s"] == m["fake.leaf.s"] > 0
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert selfs == m["fake.outer.s"] == m["trace.wrapped_s"]


def test_recursion_counts_inclusive_time_once():
    mod, tracer = _fake_module()
    mod.rec(3)
    m = tracer.metrics(["fake.rec"])
    assert m["fake.rec.calls"] == 4
    assert m["fake.rec.s"] == m["fake.rec.self_s"] == m["trace.wrapped_s"]


def _op(started, ready, marks, ended):
    return {"started": started, "ready": ready, "ended": ended,
            "marks": [[name, t] for name, t in marks]}


def test_phases_split_spawn_to_exit():
    r = _op(10.0, 11.0, [("a", 13.0), ("b", 16.0)], 16.5)
    assert run.phases(r) == [("setup", 1.0), ("a", 2.0), ("b", 3.0),
                             ("exit", 0.5)]
    assert sum(t for _, t in run.phases(r)) == r["ended"] - r["started"]


def test_best_phases_take_each_phase_at_its_fastest():
    ops = [_op(0.0, 1.0, [("a", 3.0), ("b", 4.0)], 4.5),
           _op(0.0, 2.0, [("a", 3.0), ("b", 7.0)], 7.25),
           _op(0.0, 1.0, [("a", 2.0)], 2.0)]  # other phases: left out
    assert run.best_phases(ops) == [("setup", 1.0), ("a", 1.0), ("b", 1.0),
                                    ("exit", 0.25)]
    probes = [{"setup_s": 0.5}, None]  # a probe sets up like an operation
    assert run.best_phases(ops, probes)[0] == ("setup", 0.5)


def test_times_are_scaled_by_the_fastest_gauge():
    ops = [dict(_op(0.0, 1.0, [("a", 3.0)], 4.0), setup_s=1.0,
                peak_rss_mb=100.0)]
    probes = [{"setup_s": 0.5, "gauge_s": 2 * run.GAUGE_S},
              {"setup_s": 0.5, "gauge_s": 4 * run.GAUGE_S}, None]
    metrics, measured = run._end_to_end(ops, probes)
    assert measured == {"wall_s": 3.5, "setup_s": 0.5,
                        "gauge_s": 2 * run.GAUGE_S}
    assert metrics == {"wall_s": (1.75, "s"), "setup_s": (0.25, "s"),
                       "peak_rss_mb": (100.0, "MB")}


def test_sieve_primes_are_the_package_default():
    from gfe25 import descent

    assert len(workloads.SIEVE_PRIMES) == 30
    assert workloads.SIEVE_PRIMES == descent.DEFAULT_SIEVE_PRIMES


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["wall_s", "setup_s", "peak_rss_mb"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced operation per workload."""
    out = {}
    for w in workloads.WORKLOADS:
        r = run.spawn(w, workloads.make_inputs(w, 0), True,
                      tmp_path_factory.mktemp(w))
        assert r is not None, f"{w}: the traced operation crashed"
        assert r["problems"] == [], r["problems"]
        out[w] = dict(r["layers"], work_s=r["work_s"])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_exercises_its_layers(traced, workload):
    m = traced[workload]
    for prefix in EXERCISED[workload]:
        assert m[f"{prefix}.calls"] >= 1, prefix
        assert m[f"{prefix}.s"] > 0, prefix
        assert 0 <= m[f"{prefix}.self_s"] <= m[f"{prefix}.s"], prefix
    # the self times partition the time spent inside wrapped calls
    selfs = sum(m[f"{prefix}.self_s"] for prefix in spans.LAYERS)
    assert selfs == pytest.approx(m["trace.wrapped_s"], rel=1e-6)
    assert m["trace.wrapped_s"] <= m["work_s"]


def test_sextic_field_bypasses_cli_padic_and_search(traced):
    m = traced["sextic_field"]
    for prefix in spans.LAYERS:
        if prefix.startswith(("cli.", "padic.", "search.", "kernels.")):
            assert m[f"{prefix}.calls"] == 0, prefix
    assert m["search.candidates"] == 0
