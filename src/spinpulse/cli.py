"""Command-line front door.

Every command but "analyze" reads a JSON run config; "analyze" reads a run
report.  A run command writes the JSON run report; "analyze" derives the
unwanted-state table, the band summary and the per-pulse trace table from a
report.  Reruns with the same config and seed are byte-identical.  The
command picks the engine: "simulate" runs the perturbative one,
"simulate-exact" and "classical" the dense ones.

The fields of a config, a protocol file and a report are listed in
``schema`` (and README, "Input fields"); a malformed one exits with code 2.
The rules that tie fields together are checked here.
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
from .schema import CONFIG, check, read_json
from .sparse_engine import SparseState, run_protocol

# The two-level reduction drops every flip outside the near-resonant window.
_UNMODELLED = "; far-detuned leakage not modelled (dominant error at 2*pi*k points)"


def load_config(path: str | Path) -> tuple[dict, ChainConfig]:
    """The config document at ``path``, checked, and its chain."""
    doc = read_json(path, "config")
    check(doc, CONFIG, "config")
    return doc, ChainConfig(**doc["chain"])


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
    if gate is None:
        raise ConfigError("config needs a 'gate' section or a protocol_file")
    protocol = _cn_protocol(cfg, gate, rabi=gate.get("rabi"), k=gate.get("k"))
    if "jitter" in doc:
        first, last, bound = (doc["jitter"][key] for key in ("first", "last", "bound"))
        try:
            protocol = perturb_protocol(protocol, (first, last), bound, seed)
        except ValueError as exc:
            raise ConfigError(f"jitter (first {first}, last {last}, bound {bound!r}): {exc}")
    return protocol


def _cn_protocol(cfg: ChainConfig, gate: dict, **drive) -> Protocol:
    """The CN protocol that config section ``gate`` describes, at ``drive``'s rabi or k."""
    try:
        return build_cn_protocol(cfg, **drive, equal_epsilon=gate.get("equal_epsilon", True))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _axis_values(axis, name: str) -> list[float]:
    """The values of config axis ``name``: its list, or its range's points."""
    if isinstance(axis, list):
        return [float(v) for v in axis]
    start, stop, points = float(axis["start"]), float(axis["stop"]), axis["points"]
    scale = axis.get("scale", "linear")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{name}: a log-scale axis needs positive start and stop")
        ratio = (stop / start) ** (1.0 / (points - 1))
        values = [start * ratio**i for i in range(points)]
    else:
        step = (stop - start) / (points - 1)
        values = [start + step * i for i in range(points)]
    bad = [v for v in values if not 0.0 < v < math.inf]
    if bad:
        raise ConfigError(f"{name} values must be positive finite numbers, got {bad[0]!r}")
    return values


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def cmd_simulate(args, engine: str) -> int:
    """Run ``engine`` ("perturbative", "exact" or "classical") on the config from
    its protocol's initial state; write report.json."""
    doc, cfg = load_config(args.config)
    report_opts = doc.get("report", {})
    doubled = report_opts.get("doubled_probabilities", False) or args.doubled_probabilities
    trace = report_opts.get("trace", False) or args.trace
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    cutoff = float(args.cutoff) if args.cutoff is not None else cfg.cutoff
    if not 0.0 < cutoff < 1.0:
        raise ConfigError(f"--cutoff must lie in (0, 1), got {cutoff!r}")
    cutoff_raw = cutoff / 2.0 if doubled else cutoff

    protocol = protocol_from_config(doc, cfg, Path(args.config).parent, seed)
    initial = SparseState.from_basis(protocol.initial_state)
    run = dict(cutoff=cutoff_raw, trace=trace, doubled=doubled, seed=seed)
    opts = doc.get("engine", {})
    if engine == "perturbative":
        report = run_protocol(initial, protocol, cfg, **run)
    elif engine == "exact":
        report = run_protocol_exact(
            initial, protocol, cfg, **run, cap=opts.get("max_qubits", DEFAULT_QUBIT_CAP)
        )
    else:
        report = run_protocol_classical(
            initial, protocol, cfg, **run, cap=opts.get("max_qubits", CLASSICAL_QUBIT_CAP),
            step=opts.get("step"), norm_tol=opts.get("norm_tol", 1e-9),
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "report.json")
    unwanted = len(report.final_amps.keys() - report.wanted_states)
    print(
        f"{engine}: {len(protocol)} pulses, {len(report.final_amps)} stored states, "
        f"{unwanted} unwanted, leaked {report.leaked:.3e}"
        + (_UNMODELLED if engine == "perturbative" else "")
    )
    return 0


def cmd_design(args) -> int:
    doc, cfg = load_config(args.config)
    protocol = protocol_from_config(doc, cfg, Path(args.config).parent, doc.get("seed", 0))
    if not protocol.pulses:
        raise ConfigError("design needs a protocol with at least one entry in pulses")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    protocol.save(out_dir / "protocol.json")
    base = protocol.pulses[1].rabi if len(protocol) > 1 else protocol.pulses[0].rabi
    print(f"{protocol.gate}: {len(protocol)} pulses, base rabi {base!r}")
    return 0


def cmd_sweep(args) -> int:
    doc, cfg = load_config(args.config)
    sweep = doc.get("sweep")
    if sweep is None:
        raise ConfigError("config needs a 'sweep' section")
    region = sweep_threshold_regions(
        cfg,
        _axis_values(sweep["spacings"], "sweep.spacings"),
        _axis_values(sweep["rabis"], "sweep.rabis"),
        sweep["threshold"],
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
    doc, cfg = load_config(args.config)
    comp = doc.get("compare")
    if comp is None:
        raise ConfigError("config needs a 'compare' section")
    vary = comp["vary"]
    values = _axis_values(comp["values"], "compare.values")

    refused = {"jitter", "protocol_file"} & set(doc)
    if refused:
        raise ConfigError(
            f"compare builds an unjittered CN protocol at each value; remove {sorted(refused)}"
        )
    gate = doc.get("gate", {})
    # compare's rabi or k, else the gate's: under vary "spacing" exactly one is set
    drive = {key: part[key] for part in (gate, comp) for key in ("rabi", "k") if key in part}
    if vary == "rabi" and {"rabi", "k"} & set(comp):
        raise ConfigError("compare.rabi and compare.k cannot be set when compare.vary is 'rabi'")
    if vary == "spacing" and (drive.get("rabi") is None) == (drive.get("k") is None):
        raise ConfigError("compare.vary 'spacing' needs exactly one of rabi or k (compare or gate)")
    cap = doc.get("engine", {}).get("max_qubits", DEFAULT_QUBIT_CAP)
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
    """Write unwanted.csv; bands.json when there are unwanted records; trace.csv
    when the report has a trace; and phase.json when asked for.  An optional
    table that is not written is removed from ``--out``, so no earlier run's
    copy is left beside the new ones."""
    report = RunReport.load(args.report)
    out_dir = Path(args.out)
    records = report.unwanted_records()
    above_ground = excitation_profiles(records, report.chain)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "unwanted.csv", "w") as fh:
        records_csv(records, above_ground, report.chain.n_qubits, fh)
    if records:
        summary = band_classify(records)
        bands = {
            "split_gap_decades": summary.split_gap,
            "bands": [asdict(b) for b in summary.bands],
        }
        _write(out_dir, "bands.json", json.dumps(bands, indent=2) + "\n")
    else:
        (out_dir / "bands.json").unlink(missing_ok=True)
    if report.trace is not None:
        _write(out_dir, "trace.csv", report.trace_csv())
    else:
        (out_dir / "trace.csv").unlink(missing_ok=True)
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
    else:
        (out_dir / "phase.json").unlink(missing_ok=True)
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
