"""Tests of the benchmark itself: inputs, tracer bookkeeping and output checks.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracer as tr
import workloads
import worker

ROOT = Path(__file__).resolve().parents[1]
worker.import_spinpulse(ROOT)

from spinpulse import cli  # noqa: E402
from spinpulse.design import analytic_final_state  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(workload, tmp_path):
    workloads.write_configs(workload, 7, tmp_path / "a")
    workloads.write_configs(workload, 7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", ["cn1000_jitter", "cn1000_2pik", "dense_validate"])
def test_seed_changes_the_inputs(workload):
    assert workloads.config_docs(workload, 1) != workloads.config_docs(workload, 2)


def _originals(points):
    return [(tr._resolve(p.owner), p.attr, vars(tr._resolve(p.owner))[p.attr]) for p in points]


def _small_run(tmp_path: Path) -> None:
    """A few-second mix of CLI commands and library calls touching every wrapped layer."""
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "version": 1,
        "chain": {"n_qubits": 12, "larmor_spacing": 100.0, "cutoff": 1e-6},
        "gate": {"type": "cn", "rabi": 0.14, "equal_epsilon": False},
        "report": {"doubled_probabilities": True, "trace": True},
        "seed": 3,
        "jitter": {"first": 2, "last": 6, "bound": 0.05},
    }))
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps({
        "version": 1,
        "chain": {"n_qubits": 4, "larmor_spacing": 100.0},
        "gate": {"type": "cn", "k": 2, "equal_epsilon": True},
        "sweep": {"spacings": [100.0, 200.0], "rabis": [0.2, 0.3], "threshold": 1e-5},
    }))
    for argv in (
        ["simulate", "--config", str(sim), "--out", str(tmp_path / "s")],
        ["analyze", "--report", str(tmp_path / "s" / "report.json"), "--out", str(tmp_path / "a")],
        ["simulate-exact", "--config", str(exact), "--out", str(tmp_path / "e")],
        ["sweep", "--config", str(exact), "--out", str(tmp_path / "w")],
    ):
        assert cli.main(argv) == 0
    scan = tmp_path / "scan.json"
    scan.write_text(json.dumps({"n_qubits": 20, "larmor_spacing": 100.0, "cutoff": 1e-6,
                                "ks": [2, 5]}))
    workloads._run_2pik(scan, tmp_path / "pik", [])


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _originals(tr.LAYER_POINTS)
    with tr.Tracer(tr.LAYER_POINTS) as tracer:
        assert all(vars(o)[a] is not f for o, a, f in before)
        _small_run(tmp_path)
    assert tracer.calls("sparse_engine.apply_pulse") > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_tracer_restores_after_an_exception():
    before = _originals(tr.LAYER_POINTS)
    with pytest.raises(RuntimeError):
        with tr.Tracer(tr.LAYER_POINTS):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def test_self_times_are_non_negative_and_sum_to_wall(tmp_path):
    with tr.Tracer(tr.LAYER_POINTS) as tracer:
        start = perf_counter()
        _small_run(tmp_path)
        wall = perf_counter() - start
    selfs = [s.self_time for s in tracer.spans.values()]
    assert min(selfs) >= -1e-9
    layers = tr.layer_metrics(tracer, wall)
    assert layers["bench.self_s"] >= 0.0
    assert math.fsum(selfs) + layers["bench.self_s"] == pytest.approx(wall, rel=1e-9, abs=1e-9)
    # every layer the small run exercises shows up with work counted
    for name in ("sparse_engine.states_in", "sparse_engine.ledger_entries",
                 "report.unwanted_records_calls", "report.json_bytes", "design.protocols",
                 "exact_engine.eigh_calls", "error_model.cells"):
        assert layers[name] > 0, name


def test_benchmark_json_names_every_reported_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tr.Tracer(tr.LAYER_POINTS) as tracer:
        pass
    reported = set(tr.layer_metrics(tracer, 0.0))
    reported |= {"check.norm_closure", "check.ref_error", "trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}


def test_best_total_sums_each_steps_shortest_duration():
    plain = [{"step_s": [1.0, 5.0, 0.5]}, {"step_s": [2.0, 4.0, 0.25]}]
    assert run.best_total(plain, "step_s") == pytest.approx(5.25)
    with pytest.raises(run.BenchError):
        run.best_total([{"step_s": [1.0]}, {"step_s": [1.0, 2.0]}], "step_s")


# -- output checks reject corrupted results ----------------------------------


def _pik_case():
    n, k = 20, 3
    c0, c1 = analytic_final_state(n, k)
    return n, k, {0: c0, (1 << (n - 1)) | 1: c1}


def test_norm_closure_rejects_a_scaled_amplitude():
    _, _, amps = _pik_case()
    assert workloads.norm_closure(amps, 0.0).ok
    bad = dict(amps)
    bad[0] *= 1.01
    assert not workloads.norm_closure(bad, 0.0).ok


def test_2pik_check_rejects_scaled_rotated_or_extra_amplitudes():
    n, k, amps = _pik_case()
    ground, target = sorted(amps)
    assert workloads.pik_final_state(n, k, ground, target, amps).ok
    for corrupt in (
        lambda a: a.update({ground: a[ground] * 1.01}),
        lambda a: a.update({target: a[target] * complex(math.cos(1e-6), math.sin(1e-6))}),
        lambda a: a.update({2: 1e-4}),
    ):
        bad = dict(amps)
        corrupt(bad)
        assert not workloads.pik_final_state(n, k, ground, target, bad).ok


def test_round_trip_rejects_a_changed_report():
    saved = {"final_amps": [["0", 0.6, 0.0], ["5", 0.0, 0.8]],
             "generation": {"0": 0, "5": 3}, "leaked": 1e-7}

    class Loaded:
        final_amps = {0: 0.6 + 0j, 5: 0.8j}
        generation = {0: 0, 5: 3}
        leaked = 1e-7

    assert workloads.round_trip(saved, Loaded).ok
    Loaded.final_amps = {0: 0.6 * 1.01 + 0j, 5: 0.8j}
    assert not workloads.round_trip(saved, Loaded).ok


def test_classical_vs_exact_rejects_a_scaled_amplitude():
    exact = {0: 0.6 + 0j, 3: 0.8j}
    assert workloads.classical_vs_exact(dict(exact), exact, 8).ok
    assert not workloads.classical_vs_exact({0: 0.6 * 1.01 + 0j, 3: 0.8j}, exact, 8).ok


def test_exact_vs_budget_rejects_out_of_range_errors():
    assert workloads.exact_vs_budget(3e-5, 1e-5).ok
    assert not workloads.exact_vs_budget(3e-5 * 101, 3e-5).ok
    assert not workloads.exact_vs_budget(0.0, 1e-5).ok
    assert not workloads.exact_vs_budget(1.0, 0.5).ok
