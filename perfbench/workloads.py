"""Benchmark workloads: generated inputs, the calls into spinpulse, and output checks.

BENCHMARK.json gates ``cn200_fig2`` and ``dense_validate``; ``cn1000_jitter``
and ``cn1000_2pik`` run by name only (see NOTES.md, *Noise on a shared VM*).

Every input a workload hands to spinpulse is a file this module writes from
the workload seed (``write_configs``); the program never sees the seed
itself except where a config carries it.  ``run`` drives the program through
its public entry points only: ``spinpulse.cli.main`` for the CLI workloads
and the library API for the 2pik scan.  Every callable is looked up on its
module at call time, so the tracer's wrappers take effect.  ``check``
verifies the artifacts after the timed section; the check functions are
pure, so the benchmark's tests can hand them corrupted data.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 20240809

# criterion-3 spacing grid (N=10, k=8) and criterion-9 sweep grid
SPACING_GRID = [50.0 * (1000.0 / 50.0) ** (i / 15.0) for i in range(16)]
SWEEP_SPACINGS = [150.0 * 2.0**i for i in range(6)]
SWEEP_RABIS = [0.19 + 2e-4 * i for i in range(120)]

COMPARE_SPACINGS = 2  # few enough that several dense passes fit in one run
PIK_N = 1000
PIK_RUNS = 40
PIK_MAX_K = 64


@dataclass
class Check:
    """One checked operation: what was checked, whether it held, and the measured value."""

    name: str
    ok: bool
    value: float


# -- generated inputs ------------------------------------------------------


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def config_docs(workload: str, seed: int) -> dict[str, str]:
    """File name -> text of every input the workload reads, drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "cn1000_jitter":
        return {
            "simulate.json": _dump({
                "version": 1,
                "chain": {"n_qubits": 1000, "larmor_spacing": 100.0, "cutoff": 1e-6},
                "gate": {"type": "cn", "rabi": 0.1, "equal_epsilon": False},
                "report": {"doubled_probabilities": True},
                "seed": seed,
                "jitter": {"first": 10, "last": 40, "bound": 0.05},
            })
        }
    if workload == "cn200_fig2":
        return {
            "simulate.json": _dump({
                "version": 1,
                "chain": {"n_qubits": 200, "larmor_spacing": 100.0, "cutoff": 1e-6},
                "gate": {"type": "cn", "rabi": 0.14, "equal_epsilon": False},
                "report": {"doubled_probabilities": True},
            })
        }
    if workload == "cn1000_2pik":
        ks = rng.sample(range(1, PIK_MAX_K + 1), PIK_RUNS)
        return {
            "scan.json": _dump({
                "n_qubits": PIK_N,
                "larmor_spacing": 100.0,
                "cutoff": 1e-6,
                "ks": ks,
            })
        }
    if workload == "dense_validate":
        spacings = sorted(rng.sample(SPACING_GRID, COMPARE_SPACINGS))
        return {
            "sweep.json": _dump({
                "version": 1,
                "chain": {"n_qubits": 1000, "larmor_spacing": 300.0},
                "sweep": {
                    "spacings": SWEEP_SPACINGS,
                    "rabis": SWEEP_RABIS,
                    "threshold": 1e-5,
                },
            }),
            "compare.json": _dump({
                "version": 1,
                "chain": {"n_qubits": 10, "larmor_spacing": 100.0},
                "gate": {"type": "cn", "k": 8, "equal_epsilon": True},
                "compare": {"vary": "spacing", "values": spacings, "k": 8},
            }),
            "classical.json": _dump({
                "version": 1,
                "chain": {"n_qubits": 3, "larmor_spacing": 10.0, "base_larmor": 15.0},
                "gate": {"type": "cn", "rabi": 0.5, "equal_epsilon": True},
                "engine": {"norm_tol": 1e-9},
            }),
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cn1000_jitter", "cn200_fig2", "cn1000_2pik", "dense_validate")


def write_configs(workload: str, seed: int, config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, text in config_docs(workload, seed).items():
        (config_dir / name).write_text(text)


# -- runs ------------------------------------------------------------------


def _cli(argv: list[str], step_s: list[float]) -> None:
    from spinpulse import cli

    start = perf_counter()
    code = cli.main(argv)
    step_s.append(perf_counter() - start)
    if code != 0:
        raise RuntimeError(f"spinpulse {' '.join(argv)} exited with {code}")


def run(workload: str, config_dir: Path, out_dir: Path, step_s: list[float]) -> dict:
    """Run the workload once (the timed section).

    Appends the duration of each step (a CLI command, or one 2pik run) to
    ``step_s``; every pass of a workload runs the same steps in the same order.
    Returns what the checks need besides the written files.
    """
    c, o = str(config_dir), out_dir
    if workload == "cn1000_jitter":
        _cli(["simulate", "--config", f"{c}/simulate.json", "--out", str(o / "simulate")],
             step_s)
        return {}
    if workload == "cn200_fig2":
        _cli(["simulate", "--config", f"{c}/simulate.json", "--out", str(o / "simulate")],
             step_s)
        _cli(["analyze", "--report", str(o / "simulate" / "report.json"),
              "--out", str(o / "analyze")], step_s)
        return {}
    if workload == "cn1000_2pik":
        return _run_2pik(config_dir / "scan.json", out_dir, step_s)
    if workload == "dense_validate":
        _cli(["sweep", "--config", f"{c}/sweep.json", "--out", str(o / "sweep")], step_s)
        _cli(["compare", "--config", f"{c}/compare.json", "--out", str(o / "compare")],
             step_s)
        for command in ("classical", "simulate-exact"):
            _cli([command, "--config", f"{c}/classical.json",
                  "--out", str(o / command), "--cutoff", "1e-300"], step_s)
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def _run_2pik(scan_path: Path, out_dir: Path, step_s: list[float]) -> dict:
    from spinpulse import chain, design, sparse_engine

    scan = json.loads(scan_path.read_text())
    cfg = chain.ChainConfig(
        n_qubits=scan["n_qubits"], larmor_spacing=scan["larmor_spacing"],
        cutoff=scan["cutoff"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    finals = {}
    for k in scan["ks"]:
        start = perf_counter()
        protocol = design.build_cn_protocol(cfg, k=k, equal_epsilon=True)
        report = sparse_engine.run_protocol(
            sparse_engine.SparseState.from_basis(0), protocol, cfg,
            cutoff=0.5 * scan["cutoff"], trace=True,
        )
        (out_dir / f"trace_k{k}.csv").write_text(report.trace_csv())
        step_s.append(perf_counter() - start)
        finals[k] = (protocol.initial_state, protocol.target_state,
                     dict(report.final_amps), report.leaked)
    return {"n_qubits": cfg.n_qubits, "finals": finals}


# -- checks ----------------------------------------------------------------


def _amps(report_doc: dict) -> dict:
    return {int(s): complex(re, im) for s, re, im in report_doc["final_amps"]}


def norm_closure(final_amps: dict, leaked: float) -> Check:
    """|stored norm + leaked - 1| <= 1e-9 for a sparse report."""
    stored = math.fsum(abs(c) ** 2 for c in final_amps.values())
    dev = abs(stored + leaked - 1.0)
    return Check("norm_closure", dev <= 1e-9, dev)


def pik_final_state(n_qubits: int, k: int, ground: int, target: int,
                    final_amps: dict) -> Check:
    """Two components, each |C|^2 within 1e-10 of 1/2, phase within 1e-9 of the closed form."""
    from spinpulse.design import analytic_final_state

    if set(final_amps) != {ground, target}:
        return Check("2pik", False, math.inf)
    c0, c1 = final_amps[ground], final_amps[target]
    r0, r1 = analytic_final_state(n_qubits, k)
    pop_dev = max(abs(abs(c0) ** 2 - 0.5), abs(abs(c1) ** 2 - 0.5))
    phase_err = max(
        abs(math.remainder(cmath.phase(c) - cmath.phase(r), 2.0 * math.pi))
        for c, r in ((c0, r0), (c1, r1))
    )
    return Check("2pik", pop_dev <= 1e-10 and phase_err <= 1e-9, phase_err)


def round_trip(saved: dict, loaded) -> Check:
    """The report the program loads equals the JSON it saved (amps, ledger, leaked)."""
    generation = {int(s): g for s, g in saved["generation"].items()}
    ok = (
        loaded.final_amps == _amps(saved)
        and loaded.generation == generation
        and loaded.leaked == saved["leaked"]
    )
    return Check("round_trip", ok, 0.0 if ok else 1.0)


def classical_vs_exact(classical: dict, exact: dict, dim: int) -> Check:
    """Per-state probabilities agree within 1e-6 and the classical norm is one within 1e-9."""
    p_c = [abs(classical.get(s, 0j)) ** 2 for s in range(dim)]
    p_e = [abs(exact.get(s, 0j)) ** 2 for s in range(dim)]
    worst = max(abs(a - b) for a, b in zip(p_c, p_e))
    norm_dev = abs(math.fsum(p_c) - 1.0)
    return Check("classical_vs_exact", worst <= 1e-6 and norm_dev <= 1e-9, worst)


def exact_vs_budget(p_exact: float, p_formula: float) -> Check:
    """An exact gate error lies in (0, 1) and within a factor 10 of the closed-form budget."""
    ratio = p_exact / p_formula if p_formula > 0 else math.inf
    ok = 0.0 < p_exact < 1.0 and 0.1 <= ratio <= 10.0
    return Check("exact_vs_budget", ok, ratio)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check(workload: str, out_dir: Path, results: dict) -> list[Check]:
    """Verify one run's artifacts; every returned Check is one attempted operation."""
    if workload in ("cn1000_jitter", "cn200_fig2"):
        doc = _read_json(out_dir / "simulate" / "report.json")
        checks = [norm_closure(_amps(doc), doc["leaked"])]
        if workload == "cn200_fig2":
            from spinpulse.report import RunReport

            loaded = RunReport.load(out_dir / "simulate" / "report.json")
            checks.append(round_trip(doc, loaded))
        return checks
    if workload == "cn1000_2pik":
        n = results["n_qubits"]
        checks = []
        for k, (ground, target, amps, leaked) in results["finals"].items():
            checks.append(norm_closure(amps, leaked))
            checks.append(pik_final_state(n, k, ground, target, amps))
        return checks
    if workload == "dense_validate":
        with open(out_dir / "compare" / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks = [exact_vs_budget(float(r["p_exact"]), float(r["p_formula"])) for r in rows]
        classical = _read_json(out_dir / "classical" / "report.json")
        exact = _read_json(out_dir / "simulate-exact" / "report.json")
        dim = 1 << classical["chain"]["n_qubits"]
        checks.append(classical_vs_exact(_amps(classical), _amps(exact), dim))
        return checks
    raise ValueError(f"unknown workload {workload!r}")
