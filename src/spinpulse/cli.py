"""Command-line front door.

Every command reads a JSON run-config document with a versioned schema;
unknown keys are rejected so a typo cannot silently corrupt a
hundreds-of-pulses run.  A run command writes the JSON run report (and the
per-pulse trace table when traced); "analyze" derives the unwanted-state
table and the band summary from a report.  Reruns with the same config and
seed are byte-identical.

Config document (version 1):

    {
      "version": 1,
      "chain":  {"n_qubits": 200, "larmor_spacing": 100.0,
                 "base_larmor": 1000.0, "coupling": 1.0, "cutoff": 1e-6},
      "gate":   {"type": "cn", "rabi": 0.14, "equal_epsilon": false},
      "engine": {"max_qubits": 14, "step": null, "norm_tol": 1e-9},
      "report": {"doubled_probabilities": true, "trace": false},
      "seed": 0,
      "jitter": {"first": 10, "last": 40, "bound": 0.05},
      "sweep":  {"spacings": {"start": 50, "stop": 1000, "points": 8,
                 "scale": "log"}, "rabis": [...], "threshold": 1e-5},
      "compare": {"vary": "spacing", "values": [...]}
    }

Instead of "gate" and "jitter" a config may name an existing pulse file
via "protocol_file"; every state on its path must fit the chain, and the
run starts at the path's first state (basis state 0 without a path).  The
command picks the engine: "simulate" runs the perturbative one,
"simulate-exact" and "classical" the dense ones.  The
cutoff is interpreted in the reporting convention: with doubled
probabilities the stored pruning threshold is cutoff/2.
"engine.max_qubits" caps both dense engines: it defaults to 14 for the
exact engine and to 8 for the classical one.  It must be a positive
integer, and "engine.step" (null for the default) and "engine.norm_tol"
positive finite numbers.  "gate.k" must be a positive integer, and
"gate.rabi", the sweep threshold and every axis value positive finite
numbers; flags are JSON true or false.
"compare.rabi" or "compare.k" replaces the gate's under "vary": "spacing"
and is refused under "vary": "rabi"; "compare" builds its own unjittered CN
protocol at each value, so it refuses "jitter" and "protocol_file".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .chain import ChainConfig
from .design import build_cn_protocol, perturb_protocol
from .error_model import sweep_threshold_regions, total_error
from .exact_engine import DEFAULT_QUBIT_CAP, run_protocol_exact
from .exceptions import ConfigError, QubitCapError, SpinPulseError
from .oscillator import CLASSICAL_QUBIT_CAP, run_protocol_classical
from .pulses import Protocol
from .report import (
    RunReport, band_classify, excitation_profiles, phase_report, records_csv,
)
from .sparse_engine import SparseState, run_protocol

CONFIG_VERSION = 1

# The two-level reduction drops every flip outside the near-resonant window.
_UNMODELLED = "; far-detuned leakage not modelled (dominant error at 2*pi*k points)"

_SCHEMA = {
    "version": None,
    "chain": {"n_qubits", "larmor_spacing", "base_larmor", "coupling", "cutoff"},
    "gate": {"type", "rabi", "k", "equal_epsilon"},
    "protocol_file": None,
    "engine": {"max_qubits", "step", "norm_tol"},
    "report": {"doubled_probabilities", "trace"},
    "seed": None,
    "jitter": {"first", "last", "bound"},
    "sweep": {"spacings", "rabis", "threshold"},
    "compare": {"vary", "values", "rabi", "k"},
}


def _validate_config(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, allowed in _SCHEMA.items():
        if allowed is None or key not in doc:
            continue
        section = doc[key]
        if not isinstance(section, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        extra = set(section) - allowed
        if extra:
            raise ConfigError(f"unknown keys in {key!r}: {sorted(extra)}")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")


def load_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _validate_config(doc)
    return doc


def chain_from_config(doc: dict) -> ChainConfig:
    chain = doc.get("chain")
    if not chain:
        raise ConfigError("config needs a 'chain' section")
    if "n_qubits" not in chain or "larmor_spacing" not in chain:
        raise ConfigError("chain section needs n_qubits and larmor_spacing")
    try:
        return ChainConfig(**chain)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def protocol_from_config(doc: dict, cfg: ChainConfig, config_dir: Path, seed: int) -> Protocol:
    """The config's protocol file, or its gate with the jitter drawn from ``seed``."""
    if "protocol_file" in doc:
        ignored = {"gate", "jitter"} & set(doc)
        if ignored:
            raise ConfigError(f"protocol_file cannot be combined with {sorted(ignored)}")
        protocol = Protocol.load(config_dir / doc["protocol_file"])
        if max(protocol.path, default=0) >> cfg.n_qubits:
            raise ConfigError(
                f"protocol path state {max(protocol.path)} does not fit in {cfg.n_qubits} qubits"
            )
        return protocol
    gate = doc.get("gate")
    if not gate:
        raise ConfigError("config needs a 'gate' section or a protocol_file")
    protocol = _cn_protocol(cfg, gate, **_drive(gate, "gate"))
    jitter = doc.get("jitter")
    if jitter:
        for field in ("first", "last", "bound"):
            if field not in jitter:
                raise ConfigError(f"jitter section needs {field!r}")
        first, last, bound = jitter["first"], jitter["last"], jitter["bound"]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (first, last)):
            raise ConfigError(f"jitter.first and .last must be integers, got {first!r}, {last!r}")
        numeric = isinstance(bound, (int, float)) and not isinstance(bound, bool)
        if not numeric or not 0 <= bound < math.inf:
            raise ConfigError(f"jitter.bound must be a non-negative finite number, got {bound!r}")
        try:
            protocol = perturb_protocol(protocol, (first, last), bound, seed)
        except ValueError as exc:
            raise ConfigError(f"jitter (first {first}, last {last}, bound {bound!r}): {exc}")
    return protocol


def _cn_protocol(cfg: ChainConfig, gate: dict, **drive) -> Protocol:
    """The CN protocol that config section ``gate`` describes, at ``drive``'s rabi or k."""
    if gate.get("type", "cn") != "cn":
        raise ConfigError(f"unknown gate type {gate.get('type')!r}")
    equal_epsilon = _flag(gate.get("equal_epsilon", True), "gate.equal_epsilon")
    try:
        return build_cn_protocol(cfg, **drive, equal_epsilon=equal_epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _axis_values(axis, name: str) -> list[float]:
    """The spacings or drive strengths of axis ``name``: positive finite numbers."""
    values = _axis_list(axis)
    bad = [v for v in values if not 0.0 < v < math.inf]
    if bad:
        raise ConfigError(f"{name} values must be positive finite numbers, got {bad[0]!r}")
    return values


def _axis_list(axis) -> list[float]:
    if isinstance(axis, list):
        try:
            return [float(v) for v in axis]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"axis values must be numbers: {exc}")
    if isinstance(axis, dict):
        extra = set(axis) - {"start", "stop", "points", "scale"}
        if extra:
            raise ConfigError(f"unknown axis keys: {sorted(extra)}")
        missing = {"start", "stop", "points"} - set(axis)
        if missing:
            raise ConfigError(f"axis needs {sorted(missing)}")
        try:
            start, stop = float(axis["start"]), float(axis["stop"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"axis start and stop must be numbers: {exc}")
        points = axis["points"]
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise ConfigError(f"axis points must be an integer of at least 2, got {points!r}")
        scale = axis.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError(f"axis scale must be 'linear' or 'log', got {scale!r}")
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("a log-scale axis needs positive start and stop")
            ratio = (stop / start) ** (1.0 / (points - 1))
            return [start * ratio**i for i in range(points)]
        step = (stop - start) / (points - 1)
        return [start + step * i for i in range(points)]
    raise ConfigError("axis must be a list or a range object")


def _positive(value, name: str, *, integer: bool = False, optional: bool = False):
    """Config field ``name``, checked to be a positive integer or finite number,
    or None if it is optional."""
    if value is None and optional:
        return None
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not 0 < value < math.inf:
        kind = "a positive integer" if integer else "a positive finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """Config field ``name``, checked to be a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _max_qubits(doc: dict, default: int) -> int:
    """``engine.max_qubits``, checked, or a dense engine's ``default`` cap."""
    value = doc.get("engine", {}).get("max_qubits", default)
    return _positive(value, "engine.max_qubits", integer=True)


def _drive(section: dict, name: str) -> dict:
    """The ``rabi`` and ``k`` that config section ``name`` sets, checked."""
    return {
        key: _positive(section[key], f"{name}.{key}", integer=key == "k", optional=True)
        for key in ("rabi", "k") if key in section
    }


def _run_engine(
    engine: str,
    protocol: Protocol,
    cfg: ChainConfig,
    doc: dict,
    *,
    doubled: bool,
    trace: bool,
    cutoff_raw: float,
    seed: int,
) -> RunReport:
    """Run ``engine``, the run command's: "perturbative", "exact" or "classical",
    from the protocol's initial state."""
    initial = SparseState.from_basis(protocol.initial_state)
    engine_opts = doc.get("engine", {})
    run = dict(cutoff=cutoff_raw, trace=trace, doubled=doubled, seed=seed)
    if engine == "perturbative":
        return run_protocol(initial, protocol, cfg, **run)
    if engine == "exact":
        return run_protocol_exact(
            initial, protocol, cfg, **run,
            cap=_max_qubits(doc, DEFAULT_QUBIT_CAP),
        )
    return run_protocol_classical(
        initial, protocol, cfg, **run,
        cap=_max_qubits(doc, CLASSICAL_QUBIT_CAP),
        step=_positive(engine_opts.get("step"), "engine.step", optional=True),
        norm_tol=_positive(engine_opts.get("norm_tol", 1e-9), "engine.norm_tol"),
    )


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def cmd_simulate(args, engine: str) -> int:
    """Run ``engine`` on the config; write report.json, and trace.csv when traced."""
    doc = load_config(args.config)
    cfg = chain_from_config(doc)
    report_opts = doc.get("report", {})
    doubled = _flag(report_opts.get("doubled_probabilities", False), "report.doubled_probabilities")
    trace = _flag(report_opts.get("trace", False), "report.trace")
    doubled, trace = doubled or args.doubled_probabilities, trace or args.trace
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    cutoff = float(args.cutoff) if args.cutoff is not None else cfg.cutoff
    if not 0.0 < cutoff < 1.0:
        raise ConfigError(f"--cutoff must lie in (0, 1), got {cutoff!r}")
    cutoff_raw = cutoff / 2.0 if doubled else cutoff

    protocol = protocol_from_config(doc, cfg, Path(args.config).parent, seed)
    report = _run_engine(
        engine, protocol, cfg, doc,
        doubled=doubled, trace=trace, cutoff_raw=cutoff_raw, seed=seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "report.json")
    if report.trace is not None:
        _write(out_dir, "trace.csv", report.trace_csv())
    unwanted = len(report.final_amps.keys() - report.wanted_states)
    print(
        f"{engine}: {len(protocol)} pulses, {len(report.final_amps)} stored states, "
        f"{unwanted} unwanted, leaked {report.leaked:.3e}"
        + (_UNMODELLED if engine == "perturbative" else "")
    )
    return 0


def cmd_design(args) -> int:
    doc = load_config(args.config)
    cfg = chain_from_config(doc)
    protocol = protocol_from_config(doc, cfg, Path(args.config).parent, doc.get("seed", 0))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    protocol.save(out_dir / "protocol.json")
    base = protocol.pulses[1].rabi if len(protocol) > 1 else protocol.pulses[0].rabi
    print(f"{protocol.gate}: {len(protocol)} pulses, base rabi {base!r}")
    return 0


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    cfg = chain_from_config(doc)
    sweep = doc.get("sweep")
    if not sweep:
        raise ConfigError("config needs a 'sweep' section")
    for field in ("spacings", "rabis", "threshold"):
        if field not in sweep:
            raise ConfigError(f"sweep section needs {field!r}")
    region = sweep_threshold_regions(
        cfg,
        _axis_values(sweep["spacings"], "sweep.spacings"),
        _axis_values(sweep["rabis"], "sweep.rabis"),
        _positive(sweep["threshold"], "sweep.threshold"),
    )
    out_dir = Path(args.out)
    _write(out_dir, "regions.csv", region.to_csv())
    intervals = {
        repr(dw): [asdict(iv) for iv in row]
        for dw, row in zip(region.spacings, region.intervals)
    }
    _write(out_dir, "intervals.json", json.dumps(intervals, indent=2) + "\n")
    print(
        f"sweep: {len(region.spacings)}x{len(region.rabis)} grid, "
        f"{region.accepted_cells()} accepted cells at threshold {region.threshold!r}"
    )
    return 0


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    cfg = chain_from_config(doc)
    comp = doc.get("compare")
    if not comp:
        raise ConfigError("config needs a 'compare' section")
    vary = comp.get("vary")
    if vary not in ("spacing", "rabi"):
        raise ConfigError("compare.vary must be 'spacing' or 'rabi'")
    values = _axis_values(comp.get("values", []), "compare.values")
    if not values:
        raise ConfigError("compare.values must be non-empty")

    refused = {"jitter", "protocol_file"} & set(doc)
    if refused:
        raise ConfigError(
            f"compare builds an unjittered CN protocol at each value; remove {sorted(refused)}"
        )
    gate = doc.get("gate", {})
    # compare's rabi or k, else the gate's: under vary "spacing" exactly one is set
    drive = {**_drive(gate, "gate"), **_drive(comp, "compare")}
    if vary == "rabi" and {"rabi", "k"} & set(comp):
        raise ConfigError("compare.rabi and compare.k cannot be set when compare.vary is 'rabi'")
    if vary == "spacing" and (drive.get("rabi") is None) == (drive.get("k") is None):
        raise ConfigError("compare.vary 'spacing' needs exactly one of rabi or k (compare or gate)")
    cap = _max_qubits(doc, DEFAULT_QUBIT_CAP)
    lines = [f"{vary},p_exact,p_formula"]
    for value in values:
        if vary == "spacing":
            cfg_i = replace(cfg, larmor_spacing=value, base_larmor=10.0 * value)
            rabi, k = drive.get("rabi"), drive.get("k")
        else:
            cfg_i = cfg
            rabi, k = value, None
        protocol = _cn_protocol(cfg_i, gate, rabi=rabi, k=k)
        base_rabi = protocol.pulses[0].rabi
        ground, target = protocol.initial_state, protocol.target_state
        report = run_protocol_exact(
            SparseState.from_basis(ground), protocol, cfg_i, cutoff=1e-300, cap=cap
        )
        p_exact = 1.0 - report.probability(ground) - report.probability(target)
        p_formula = total_error(cfg_i, base_rabi).probability
        lines.append(f"{value!r},{p_exact!r},{p_formula!r}")
    out_dir = Path(args.out)
    _write(out_dir, "compare.csv", "\n".join(lines) + "\n")
    print(f"compare: {len(values)} points varying {vary}")
    return 0


def cmd_analyze(args) -> int:
    """Write unwanted.csv; bands.json when there are unwanted records; and
    phase.json when asked for."""
    report = RunReport.load(args.report)
    out_dir = Path(args.out)
    records = report.unwanted_records()
    above_ground = excitation_profiles(records, report.chain)
    _write(out_dir, "unwanted.csv", records_csv(records, above_ground))
    if records:
        summary = band_classify(records)
        bands = {
            "split_gap_decades": summary.split_gap,
            "bands": [asdict(b) for b in summary.bands],
        }
        _write(out_dir, "bands.json", json.dumps(bands, indent=2) + "\n")
    if args.phase_with:
        other = RunReport.load(args.phase_with)
        dev = phase_report(report, other)
        _write(
            out_dir,
            "phase.json",
            json.dumps(
                {
                    "phase_reference": dev.phase_reference,
                    "phase_other": dev.phase_other,
                    "deviation_radians": dev.deviation,
                    "relative_deviation": dev.relative_deviation,
                },
                indent=2,
            )
            + "\n",
        )
    print(f"analyze: {len(records)} unwanted records")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpulse",
        description="Resonant-pulse quantum logic on an Ising spin chain",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", required=True, help="output directory")

    for name, engine, help_text in (
        ("simulate", "perturbative", "run the sparse perturbative engine"),
        ("simulate-exact", "exact", "run the exact dense engine"),
        ("classical", "classical", "run the oscillator-pair engine"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        add_common(p_run)
        p_run.add_argument("--cutoff", type=float)
        p_run.add_argument("--doubled-probabilities", action="store_true")
        p_run.add_argument("--seed", type=int)
        p_run.add_argument("--trace", action="store_true")
        p_run.set_defaults(func=lambda a, engine=engine: cmd_simulate(a, engine))

    p_des = sub.add_parser("design", help="build a gate protocol file")
    add_common(p_des)
    p_des.set_defaults(func=cmd_design)

    p_swp = sub.add_parser("sweep", help="error-budget threshold regions")
    add_common(p_swp)
    p_swp.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="exact engine vs error budget")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ana = sub.add_parser("analyze", help="unwanted states, bands and phases of a report")
    p_ana.add_argument("--report", required=True, help="report.json path")
    p_ana.add_argument("--phase-with", help="second report.json for phase comparison")
    p_ana.add_argument("--out", required=True)
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (QubitCapError, SpinPulseError, ValueError) as exc:
        _emit_error(exc)
        return 3
    except OSError as exc:
        _emit_error(exc)
        return 4


def _emit_error(exc: Exception) -> None:
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
