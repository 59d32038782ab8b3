import io
import json
import math
import random
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

import spinpulse as sp
from spinpulse.cli import main
from spinpulse.report import make_report, records_csv

ANALYSIS_FILES = ("unwanted.csv", "bands.json")


def write_config(path: Path, doc: dict) -> Path:
    cfg_path = path / "run.json"
    cfg_path.write_text(json.dumps(doc, indent=1))
    return cfg_path


def base_config(n=6, rabi=0.2, **extra):
    doc = {
        "version": 1,
        "chain": {"n_qubits": n, "larmor_spacing": 100.0, "cutoff": 1e-6},
        "gate": {"type": "cn", "rabi": rabi, "equal_epsilon": False},
        "seed": 0,
    }
    doc.update(extra)
    return doc


class TestSimulate:
    def test_writes_report_and_tables(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--trace"])
        assert code == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.engine == "perturbative"
        assert report.probability(0) > 0.4
        assert {path.name for path in out.iterdir()} == {"report.json"}
        assert main(["analyze", "--report", str(out / "report.json"),
                     "--out", str(tmp_path / "analysis")]) == 0
        assert (tmp_path / "analysis" / "trace.csv").read_text() == report.trace_csv()

    def test_reruns_are_byte_identical(self, tmp_path):
        # of simulate, and of analyze on each rerun's report
        cfg_path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["analyze", "--report", str(out / "report.json"),
                         "--out", str(out / "analysis")]) == 0
        names = ["report.json"] + [f"analysis/{f}" for f in ANALYSIS_FILES]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_doubled_cutoff_prunes_at_half(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", str(cfg_path), "--out", str(out),
            "--doubled-probabilities",
        ]) == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.doubled is True
        assert report.prune_cutoff == pytest.approx(0.5e-6)

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        doc = base_config()
        doc["tpyo"] = 1
        cfg_path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"]["type"] == "ConfigError"
        assert "tpyo" in record["error"]["message"]

    def test_unknown_section_key_is_an_error(self, tmp_path):
        doc = base_config()
        doc["chain"]["n_qubit"] = 4
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_exact_engine_cap_error(self, tmp_path):
        doc = base_config(n=16, rabi=0.2)
        cfg_path = write_config(tmp_path, doc)
        code = main(["simulate-exact", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_cutoff_flag_overrides_chain_cutoff(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--cutoff", "1e-4"]) == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.prune_cutoff == pytest.approx(1e-4)
        assert all(
            abs(c) ** 2 >= 1e-4 for c in report.final_amps.values()
        )

    def test_engine_flag_selects_exact(self, tmp_path):
        doc = {
            "version": 1,
            "chain": {"n_qubits": 4, "larmor_spacing": 100.0},
            "gate": {"type": "cn", "k": 2},
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate-exact", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sp.RunReport.load(out / "report.json").engine == "exact"

    def test_jitter_section_uses_seed(self, tmp_path):
        doc = base_config(n=12, rabi=0.1)
        doc["jitter"] = {"first": 2, "last": 6, "bound": 0.02}
        cfg_path = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["design", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        proto_a = sp.Protocol.load(out_a / "protocol.json")
        assert proto_a == sp.Protocol.load(out_b / "protocol.json")
        jittered = [p for i, p in enumerate(proto_a.pulses[1:], start=1)
                    if 2 <= i <= 6]
        assert any(p.rabi != 0.1 for p in jittered)

        doc["seed"] = 99
        cfg_path2 = write_config(tmp_path / "a", doc)
        out_c = tmp_path / "c"
        assert main(["design", "--config", str(cfg_path2), "--out", str(out_c)]) == 0
        assert sp.Protocol.load(out_c / "protocol.json") != proto_a

    def test_seed_flag_draws_the_jitter(self, tmp_path):
        # the report names the seed its jitter was drawn from
        doc = base_config(jitter={"first": 2, "last": 6, "bound": 0.02})
        cfg_path = write_config(tmp_path, doc)
        reports = {}
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--seed", str(seed)]) == 0
            reports[seed] = sp.RunReport.load(out / "report.json")
            assert reports[seed].seed == seed
            expected = sp.perturb_protocol(
                sp.build_cn_protocol(sp.ChainConfig(n_qubits=6, larmor_spacing=100.0),
                                     rabi=0.2, equal_epsilon=False),
                (2, 6), 0.02, seed,
            )
            assert reports[seed].protocol == expected
        rabis = {seed: [p.rabi for p in r.protocol.pulses] for seed, r in reports.items()}
        assert rabis[1] != rabis[2]
        assert reports[1].final_amps != reports[2].final_amps

    def test_protocol_file_input(self, tmp_path):
        chain = sp.ChainConfig(n_qubits=5, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(chain, rabi=0.3)
        proto.save(tmp_path / "protocol.json")
        doc = {
            "version": 1,
            "chain": {"n_qubits": 5, "larmor_spacing": 100.0},
            "protocol_file": "protocol.json",
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.probability(proto.target_state) == pytest.approx(0.5, abs=1e-6)

    def test_protocol_file_run_starts_at_its_path(self, tmp_path, capsys):
        # without the opening pi/2-pulse the walk starts on the control-flipped
        # branch and carries all of it to the target
        cmd, cfg_path = _protocol_file_config(tmp_path, lambda d: d.update(
            pulses=d["pulses"][1:], path=d["path"][1:], detunings=d["detunings"][1:],
        ))
        out = tmp_path / "out"
        assert main([cmd, "--config", str(cfg_path), "--out", str(out), "--trace"]) == 0
        report = sp.RunReport.load(out / "report.json")
        proto = report.protocol
        assert proto.initial_state == 1 << 4
        assert report.trace[0].reference_amplitude == 1
        assert report.probability(proto.target_state) > 0.999
        assert report.probability(0) == 0.0
        assert "1 stored states, 0 unwanted" in capsys.readouterr().out

    def test_protocol_file_with_pulse_phase_is_rejected(self, tmp_path, capsys):
        chain = sp.ChainConfig(n_qubits=5, larmor_spacing=100.0)
        doc = sp.build_cn_protocol(chain, rabi=0.3).to_dict()
        doc["pulses"][1]["phase"] = 0.3
        (tmp_path / "protocol.json").write_text(json.dumps(doc))
        cfg_path = write_config(tmp_path, {
            "version": 1,
            "chain": {"n_qubits": 5, "larmor_spacing": 100.0},
            "protocol_file": "protocol.json",
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "phase" in err["error"]["message"]
        assert not out.exists()

    def test_summary_discloses_unmodelled_leakage(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert "far-detuned leakage not modelled" in capsys.readouterr().out


def _sweep_config(tmp_path, spacings):
    doc = base_config(n=10)
    doc["sweep"] = {"spacings": spacings, "rabis": [0.19, 0.21], "threshold": 1e-4}
    return "sweep", write_config(tmp_path, doc)


def _protocol_file_config(tmp_path, edit, command="simulate", **sections):
    """A 5-qubit CN protocol file as edited by ``edit``, and a config naming it."""
    chain = sp.ChainConfig(n_qubits=5, larmor_spacing=100.0)
    doc = sp.build_cn_protocol(chain, rabi=0.3).to_dict()
    edit(doc)
    (tmp_path / "protocol.json").write_text(json.dumps(doc))
    return command, write_config(tmp_path, {
        "version": 1,
        "chain": {"n_qubits": 5, "larmor_spacing": 100.0},
        "protocol_file": "protocol.json",
        **sections,
    })


def _protocol_file_holding(text):
    """A config naming a protocol file that holds ``text``, or none if None."""
    def make(tmp_path):
        command, cfg_path = _protocol_file_config(tmp_path, lambda d: None)
        if text is None:
            (tmp_path / "protocol.json").unlink()
        else:
            (tmp_path / "protocol.json").write_text(text)
        return command, cfg_path
    return make


def _third_pulse(field, value):
    """Edits a protocol file's third pulse to carry ``value`` as ``field``."""
    return lambda p: _protocol_file_config(p, lambda d: d["pulses"][2].update({field: value}))


def _jitter_config(tmp_path, jitter, seed=0):
    # N=6: nine pi-pulses
    return "simulate", write_config(tmp_path, base_config(jitter=jitter, seed=seed))


def _edited_config(command, edit, doc=None):
    """Writes ``doc`` (a 6-qubit simulate config by default) as edited by ``edit``."""
    def make(tmp_path):
        d = json.loads(json.dumps(doc or base_config()))
        edit(d)
        return command, write_config(tmp_path, d)
    return make


def _set(section, key, value):
    return lambda d: d.setdefault(section, {}).update({key: value})


SWEEP = base_config(n=10, sweep={"spacings": [100.0, 200.0], "rabis": [0.19, 0.21],
                                 "threshold": 1e-4})
COMPARE = {
    "version": 1,
    "chain": {"n_qubits": 4, "larmor_spacing": 100.0},
    "gate": {"type": "cn", "k": 3, "equal_epsilon": True},
    "compare": {"vary": "spacing", "values": [100.0, 300.0]},
}

# case -> (writes the inputs and returns (command, config path), word in message)
MALFORMED = {
    "n-qubits-a-string": (_edited_config("simulate", _set("chain", "n_qubits", "6")), "n_qubits"),
    "n-qubits-fractional": (_edited_config("simulate", _set("chain", "n_qubits", 6.5)), "n_qubits"),
    "n-qubits-a-bool": (_edited_config("simulate", _set("chain", "n_qubits", True)), "n_qubits"),
    "spacing-a-string": (
        _edited_config("simulate", _set("chain", "larmor_spacing", "a")), "larmor_spacing"
    ),
    "spacing-nan": (
        _edited_config("simulate", _set("chain", "larmor_spacing", math.nan)), "larmor_spacing"
    ),
    "base-larmor-infinite": (
        _edited_config("simulate", _set("chain", "base_larmor", math.inf)), "base_larmor"
    ),
    "coupling-infinite": (
        _edited_config("simulate", _set("chain", "coupling", math.inf)), "coupling"
    ),
    "gate-rabi-a-string": (_edited_config("simulate", _set("gate", "rabi", "x")), "gate.rabi"),
    "gate-rabi-nan": (_edited_config("simulate", _set("gate", "rabi", math.nan)), "gate.rabi"),
    "gate-k-fractional": (
        _edited_config("simulate", lambda d: d["gate"].update(rabi=None, k=1.5)), "gate.k"
    ),
    "equal-epsilon-a-string": (
        _edited_config("simulate", _set("gate", "equal_epsilon", "no")), "gate.equal_epsilon"
    ),
    "report-trace-a-string": (
        _edited_config("simulate", _set("report", "trace", "no")), "report.trace"
    ),
    "report-doubled-a-number": (
        _edited_config("simulate", _set("report", "doubled_probabilities", 1)),
        "report.doubled_probabilities",
    ),
    "sweep-threshold-a-list": (
        _edited_config("sweep", _set("sweep", "threshold", [1]), SWEEP), "sweep.threshold"
    ),
    "sweep-threshold-a-string": (
        _edited_config("sweep", _set("sweep", "threshold", "x"), SWEEP), "sweep.threshold"
    ),
    "sweep-threshold-nan": (
        _edited_config("sweep", _set("sweep", "threshold", math.nan), SWEEP), "sweep.threshold"
    ),
    "sweep-negative-rabi": (
        _edited_config("sweep", _set("sweep", "rabis", [-0.2, 0.2]), SWEEP), "sweep.rabis"
    ),
    "sweep-zero-spacing": (
        _edited_config("sweep", _set("sweep", "spacings", [0.0, 100.0]), SWEEP), "sweep.spacings"
    ),
    "compare-negative-spacing": (
        _edited_config("compare", _set("compare", "values", [-100.0, 100.0]), COMPARE),
        "compare.values",
    ),
    "compare-without-rabi-or-k": (
        _edited_config("compare", lambda d: d["gate"].pop("k"), COMPARE), "rabi or k"
    ),
    "compare-spacing-key": (
        _edited_config("compare", _set("compare", "spacing", 100.0), COMPARE), "spacing"
    ),
    "compare-vary-rabi-with-k": (
        _edited_config("compare", lambda d: d["compare"].update(vary="rabi", k=3), COMPARE),
        "compare.k",
    ),
    "compare-vary-rabi-with-rabi": (
        _edited_config(
            "compare", lambda d: d["compare"].update(vary="rabi", values=[0.2], rabi=0.2), COMPARE
        ),
        "compare.rabi",
    ),
    "jitter-bound-not-a-number": (
        lambda p: _jitter_config(p, {"first": 2, "last": 6, "bound": "x"}), "jitter.bound"
    ),
    "jitter-bound-negative": (
        lambda p: _jitter_config(p, {"first": 2, "last": 6, "bound": -0.1}), "jitter.bound"
    ),
    "jitter-first-not-an-int": (
        lambda p: _jitter_config(p, {"first": 1.5, "last": 6, "bound": 0.01}), "jitter.first"
    ),
    "jitter-first-after-last": (
        lambda p: _jitter_config(p, {"first": 5, "last": 2, "bound": 0.01}), "jitter"
    ),
    "jitter-past-the-pi-pulses": (
        lambda p: _jitter_config(p, {"first": 2, "last": 10, "bound": 0.01}), "jitter"
    ),
    "jitter-from-pi-pulse-zero": (
        lambda p: _jitter_config(p, {"first": 0, "last": 3, "bound": 0.01}), "jitter"
    ),
    "seed-not-an-int": (
        lambda p: _jitter_config(p, {"first": 2, "last": 6, "bound": 0.01}, seed="abc"), "seed"
    ),
    "axis-without-stop": (
        lambda p: _sweep_config(p, {"start": 100.0, "points": 3}), "stop"
    ),
    "log-axis-from-negative-start": (
        lambda p: _sweep_config(
            p, {"start": -100.0, "stop": 1000.0, "points": 3, "scale": "log"}
        ),
        "log",
    ),
    "protocol-without-pulses": (
        lambda p: _protocol_file_config(p, lambda d: d.pop("pulses")), "pulses"
    ),
    "pulses-not-a-list": (
        lambda p: _protocol_file_config(p, lambda d: d.update(pulses=5)), "pulses"
    ),
    "unknown-pulse-key": (
        lambda p: _protocol_file_config(p, lambda d: d["pulses"][1].update(rabbi=0.3)),
        "rabbi",
    ),
    "non-numeric-axis-start": (
        lambda p: _sweep_config(p, {"start": "a", "stop": 2, "points": 3}), "number"
    ),
    "axis-fractional-points": (
        lambda p: _sweep_config(p, {"start": 100.0, "stop": 200.0, "points": 2.5}), "points"
    ),
    "axis-points-a-string": (
        lambda p: _sweep_config(p, {"start": 100.0, "stop": 200.0, "points": "3"}), "points"
    ),
    "axis-unknown-scale": (
        lambda p: _sweep_config(p, {"start": 100.0, "stop": 200.0, "points": 3, "scale": "ln"}),
        "scale",
    ),
    "non-numeric-axis-list-value": (
        lambda p: _sweep_config(p, [100.0, "a"]), "number"
    ),
    "pulse-frequency-a-string": (_third_pulse("frequency", "abc"), "frequency"),
    "pulse-frequency-infinite": (_third_pulse("frequency", math.inf), "frequency"),
    "pulse-frequency-nan": (_third_pulse("frequency", math.nan), "frequency"),
    "pulse-rabi-nan": (_third_pulse("rabi", math.nan), "rabi"),
    "pulse-rabi-infinite": (_third_pulse("rabi", math.inf), "rabi"),
    "pulse-duration-nan": (_third_pulse("duration", math.nan), "duration"),
    "pulse-duration-infinite": (_third_pulse("duration", math.inf), "duration"),
    "pulse-rabi-beyond-the-float-range": (_third_pulse("rabi", 10**400), "rabi"),
    "protocol-file-with-gate": (
        lambda p: _protocol_file_config(p, lambda d: None, gate={"type": "cn", "rabi": 0.3}),
        "gate",
    ),
    "protocol-file-with-jitter": (
        lambda p: _protocol_file_config(
            p, lambda d: None, jitter={"first": 2, "last": 6, "bound": 0.02}
        ),
        "jitter",
    ),
    "design-protocol-file-with-gate": (
        lambda p: _protocol_file_config(
            p, lambda d: None, "design", gate={"type": "cn", "rabi": 0.3}
        ),
        "gate",
    ),
    "compare-unknown-gate-type": (
        _edited_config("compare", _set("gate", "type", "xyz"), COMPARE), "gate type"
    ),
    "compare-with-jitter": (
        _edited_config(
            "compare", lambda d: d.update(jitter={"first": 1, "last": 2, "bound": 0.01}), COMPARE
        ),
        "jitter",
    ),
    "compare-with-protocol-file": (
        lambda p: _protocol_file_config(p, lambda d: None, "compare", **{
            key: COMPARE[key] for key in ("gate", "compare")
        }),
        "protocol_file",
    ),
    "compare-on-two-qubits": (
        _edited_config("compare", _set("chain", "n_qubits", 2), COMPARE), "qubits"
    ),
    "engine-kind": (_edited_config("simulate", _set("engine", "kind", "exact")), "kind"),
    "protocol-path-not-a-number": (
        lambda p: _protocol_file_config(p, lambda d: d.update(path=["abc"])), "path"
    ),
    "protocol-path-negative": (
        lambda p: _protocol_file_config(p, lambda d: d.update(path=[-1])), "path"
    ),
    "protocol-path-outside-the-chain": (
        lambda p: _protocol_file_config(p, lambda d: d.update(path=["7", "999999"])), "path"
    ),
    "protocol-detuning-not-a-number": (
        lambda p: _protocol_file_config(p, lambda d: d.update(detunings=["x"])), "detunings"
    ),
    "protocol-detuning-beyond-the-float-range": (
        lambda p: _protocol_file_config(p, lambda d: d.update(detunings=[10**400])), "detunings"
    ),
    "protocol-detuning-a-bool": (
        lambda p: _protocol_file_config(p, lambda d: d.update(detunings=[True])), "detunings"
    ),
    "protocol-gate-not-a-string": (
        lambda p: _protocol_file_config(p, lambda d: d.update(gate=5)), "gate"
    ),
    "sweep-spacings-numeric-strings": (
        _edited_config("sweep", _set("sweep", "spacings", ["100", "200"]), SWEEP),
        "sweep.spacings",
    ),
    "sweep-rabis-holding-a-bool": (
        _edited_config("sweep", _set("sweep", "rabis", [True, 0.2]), SWEEP), "sweep.rabis"
    ),
    "jitter-empty": (lambda p: _jitter_config(p, {}), "jitter.first"),
    "simulate-engine-step-not-a-number": (
        _edited_config("simulate", _set("engine", "step", "abc")), "engine.step"
    ),
    "simulate-engine-max-qubits-not-an-int": (
        _edited_config("simulate", _set("engine", "max_qubits", "x")), "engine.max_qubits"
    ),
    "simulate-engine-norm-tol-negative": (
        _edited_config("simulate", _set("engine", "norm_tol", -1)), "engine.norm_tol"
    ),
    "simulate-exact-engine-step-not-a-number": (
        _edited_config("simulate-exact", _set("engine", "step", "abc")), "engine.step"
    ),
    "sweep-report-trace-a-string": (
        _edited_config("sweep", _set("report", "trace", "no"), SWEEP), "report.trace"
    ),
    "sweep-gate-rabi-a-string": (
        _edited_config("sweep", _set("gate", "rabi", "x"), SWEEP), "gate.rabi"
    ),
    "pulse-label-a-number": (_third_pulse("label", 5), "pulses[2].label"),
    "design-on-a-protocol-without-pulses": (
        lambda p: _protocol_file_config(
            p, lambda d: d.update(pulses=[], path=[], detunings=[]), "design"
        ),
        "pulses",
    ),
    "protocol-file-not-json": (_protocol_file_holding("{not json"), "protocol is not valid JSON"),
    "protocol-file-missing": (_protocol_file_holding(None), "protocol file not found"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_config_error(tmp_path, capsys, case):
    make, word = MALFORMED[case]
    command, cfg_path = make(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert word in err["error"]["message"]
    assert not out.exists()


# case -> (command, engine section, key named in the message)
BAD_ENGINE_OPTIONS = {
    "step-zero": ("classical", {"step": 0}, "step"),
    "step-negative": ("classical", {"step": -0.01}, "step"),
    "step-not-a-number": ("classical", {"step": "abc"}, "step"),
    "norm-tol-zero": ("classical", {"norm_tol": 0}, "norm_tol"),
    "classical-max-qubits-not-an-int": ("classical", {"max_qubits": "x"}, "max_qubits"),
    "exact-max-qubits-not-an-int": ("simulate-exact", {"max_qubits": "x"}, "max_qubits"),
    "exact-max-qubits-zero": ("simulate-exact", {"max_qubits": 0}, "max_qubits"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENGINE_OPTIONS))
def test_malformed_engine_option_is_a_config_error(tmp_path, capsys, case):
    command, engine, key = BAD_ENGINE_OPTIONS[case]
    doc = {
        "version": 1,
        "chain": {"n_qubits": 3, "larmor_spacing": 10.0, "base_larmor": 15.0},
        "gate": {"type": "cn", "rabi": 0.5, "equal_epsilon": True},
        "engine": engine,
    }
    out = tmp_path / "out"
    argv = [command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert f"engine.{key}" in err["error"]["message"]
    assert not out.exists()


class TestSimulateExactAndClassical:
    def test_exact_small_chain(self, tmp_path):
        doc = {
            "version": 1,
            "chain": {"n_qubits": 5, "larmor_spacing": 100.0},
            "gate": {"type": "cn", "k": 3, "equal_epsilon": True},
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate-exact", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.engine == "exact"
        assert report.probability(0) == pytest.approx(0.5, abs=0.01)

    def test_classical_runs_protocol_file(self, tmp_path):
        chain = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)
        nu = sp.transition_frequency(0, 1, chain)
        proto = sp.Protocol(
            pulses=(sp.Pulse(frequency=nu, rabi=0.5, duration=math.pi / 0.5),),
            gate="x",
        )
        proto.save(tmp_path / "protocol.json")
        doc = {
            "version": 1,
            "chain": {"n_qubits": 2, "larmor_spacing": 5.0, "base_larmor": 8.0},
            "protocol_file": "protocol.json",
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["classical", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = sp.RunReport.load(out / "report.json")
        assert report.engine == "classical"
        # transfer is complete up to non-resonant leakage, which is sizable
        # at this deliberately small spacing
        assert report.probability(2) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("frequency", [-100.0, -5.0])
    def test_classical_matches_exact_at_negative_frequency(self, tmp_path, frequency):
        # the RK4 step is set by |frequency|: a negative drive must neither
        # turn the norm budget negative nor leave the step too coarse
        proto = sp.Protocol(pulses=(sp.Pulse(frequency=frequency, rabi=0.5,
                                             duration=math.pi / 0.5),))
        proto.save(tmp_path / "protocol.json")
        doc = {
            "version": 1,
            "chain": {"n_qubits": 2, "larmor_spacing": 10.0, "base_larmor": 15.0},
            "protocol_file": "protocol.json",
        }
        cfg_path = write_config(tmp_path, doc)
        reports = []
        for command in ("classical", "simulate-exact"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            reports.append(sp.RunReport.load(out / "report.json"))
        classical, exact = reports
        for s in range(4):
            assert abs(classical.probability(s) - exact.probability(s)) <= 1e-6, s

    def test_classical_engine_honours_max_qubits(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "chain": {"n_qubits": 3, "larmor_spacing": 10.0, "base_larmor": 15.0},
            "gate": {"type": "cn", "rabi": 0.5},
            "engine": {"max_qubits": 2},
        }
        out = tmp_path / "out"
        argv = ["classical", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "QubitCapError"
        assert "classical" in err["error"]["message"]
        assert not out.exists()
        # without max_qubits the classical default of 8 applies
        doc["chain"]["n_qubits"] = 9
        del doc["engine"]
        write_config(tmp_path, doc)
        assert main(argv) == 3
        assert "cap 8" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestDesign:
    def test_large_chain_tenth_revolution(self, tmp_path):
        doc = {
            "version": 1,
            "chain": {"n_qubits": 1000, "larmor_spacing": 100.0},
            "gate": {"type": "cn", "k": 10},
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 0
        proto = sp.Protocol.load(out / "protocol.json")
        assert len(proto) == 1 + 2 * 1000 - 3
        assert abs(proto.pulses[1].rabi - 0.1) < 2e-4


class TestSweep:
    def test_writes_regions_and_intervals(self, tmp_path):
        doc = base_config(n=10)
        doc["sweep"] = {
            "spacings": {"start": 100.0, "stop": 1000.0, "points": 3, "scale": "log"},
            "rabis": {"start": 0.19, "stop": 0.21, "points": 41},
            "threshold": 1e-4,
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        csv_lines = (out / "regions.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "larmor_spacing,rabi,error_probability,accepted"
        assert len(csv_lines) == 1 + 3 * 41
        intervals = json.loads((out / "intervals.json").read_text())
        assert len(intervals) == 3


class TestCompare:
    def test_paired_values(self, tmp_path):
        doc = {
            "version": 1,
            "chain": {"n_qubits": 4, "larmor_spacing": 100.0},
            "gate": {"type": "cn", "k": 3, "equal_epsilon": True},
            "compare": {"vary": "spacing", "values": [100.0, 300.0]},
        }
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")
        assert lines[0] == "spacing,p_exact,p_formula"
        assert len(lines) == 3
        for line in lines[1:]:
            _, p_exact, p_formula = (float(v) for v in line.split(","))
            assert 0 <= p_exact < 1e-3
            assert 0 <= p_formula < 1e-3


class TestAnalyze:
    def test_bands_profiles_and_phase(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(report={"trace": True}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        analysis = tmp_path / "analysis"
        assert main([
            "analyze", "--report", str(out / "report.json"),
            "--phase-with", str(out / "report.json"),
            "--out", str(analysis),
        ]) == 0
        header = (analysis / "unwanted.csv").read_text().split("\n", 1)[0]
        assert header.split(",")[-1] == "energy_above_ground"
        assert (analysis / "bands.json").exists()
        assert not (analysis / "profiles.csv").exists()
        phase = json.loads((analysis / "phase.json").read_text())
        assert phase["deviation_radians"] == 0.0

    @pytest.fixture(scope="class")
    def doubled_run(self, tmp_path_factory):
        """The report of an N=8 doubled simulate run and its analyze directory."""
        tmp_path = tmp_path_factory.mktemp("doubled")
        cfg_path = write_config(tmp_path, base_config(n=8, report={
            "doubled_probabilities": True}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        analysis = tmp_path / "analysis"
        assert main(["analyze", "--report", str(out / "report.json"),
                     "--out", str(analysis)]) == 0
        return sp.RunReport.load(out / "report.json"), analysis

    def test_reproduces_the_simulate_tables(self, doubled_run):
        report, analysis = doubled_run
        records = report.unwanted_records()
        table = (analysis / "unwanted.csv").read_text()
        assert table.count("\n") > 10
        expected = io.StringIO()
        records_csv(records, sp.excitation_profiles(records, report.chain),
                    report.chain.n_qubits, expected)
        assert table == expected.getvalue()
        summary = sp.band_classify(records)
        assert json.loads((analysis / "bands.json").read_text()) == {
            "split_gap_decades": summary.split_gap,
            "bands": [asdict(band) for band in summary.bands],
        }
        assert not (analysis / "profiles.csv").exists()

    def test_last_column_is_the_energy_above_ground(self, doubled_run):
        report, analysis = doubled_run
        records = report.unwanted_records()
        ground = sp.basis_energy(0, report.chain)
        rows = [line.split(",") for line in (analysis / "unwanted.csv").read_text().splitlines()]
        assert rows[0][5] == "energy_above_ground"
        assert len(rows) == len(records) + 1 > 10
        assert [row[5] for row in rows[1:]] == [repr(r.energy - ground) for r in records]
        n = report.chain.n_qubits
        assert [row[0] for row in rows[1:]] == [sp.state_to_string(r.state, n) for r in records]

    def test_memory_beyond_the_records_is_bounded(self, tmp_path, capsys):
        # unwanted.csv is written a chunk of rows at a time: beyond the loaded
        # report, its records and their energies, analyze holds less than a
        # quarter of the table (building it whole holds about twice the table)
        cfg = sp.ChainConfig(n_qubits=200, larmor_spacing=100.0)
        rng = random.Random(11)
        amps = {rng.getrandbits(200): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-2
                for _ in range(4000)}
        generation = {s: rng.randrange(400) for s in amps}
        path = tmp_path / "report.json"
        make_report("perturbative", cfg, None, amps, 1e-3, 10.0, generation).save(path)
        del amps, generation

        def peak(run):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def parts():
            report = sp.RunReport.load(path)
            records = report.unwanted_records()
            return report, records, sp.excitation_profiles(records, report.chain)

        held = peak(parts)
        analyze = peak(lambda: main(["analyze", "--report", str(path),
                                     "--out", str(tmp_path / "analysis")]))
        table = (tmp_path / "analysis" / "unwanted.csv").stat().st_size
        assert "4000 unwanted records" in capsys.readouterr().out
        assert analyze - held <= table / 4


def _keep_only_the_version(doc):
    version = doc["version"]
    doc.clear()
    doc["version"] = version


def _first_state_not_a_number(doc):
    doc["final_amps"][0][0] = "abc"


def _drop_path_and_break_a_frequency(doc):
    protocol = doc["protocol"]
    del protocol["path"]
    protocol["pulses"][1]["frequency"] = "fast"


def _one_trace_row(*row):
    return lambda doc: doc.update(trace=[list(row)])


# case -> (edit of a simulate report.json, word in the message)
MALFORMED_REPORTS = {
    "version-only": (_keep_only_the_version, "engine"),
    "n-qubits-a-string": (lambda d: d["chain"].update(n_qubits="x"), "n_qubits"),
    "state-not-a-number": (_first_state_not_a_number, "final_amps"),
    "protocol-frequency-not-a-number": (_drop_path_and_break_a_frequency, "frequency"),
    "doubled-a-string": (lambda d: d.update(doubled="no"), "doubled"),
    "leaked-a-string": (lambda d: d.update(leaked="x"), "leaked"),
    "time-a-numeric-string": (lambda d: d.update(time="1.0"), "time"),
    "prune-cutoff-a-string": (lambda d: d.update(prune_cutoff="abc"), "prune_cutoff"),
    "seed-a-string": (lambda d: d.update(seed="z"), "seed"),
    "config-hash-a-number": (lambda d: d.update(config_hash=5), "config_hash"),
    "trace-row-time-a-string": (_one_trace_row(0, "a", 1.0, 0.0, 1, [1.0, 0.0]), "trace"),
    "trace-row-index-a-bool": (_one_trace_row(True, 0.0, 1.0, 0.0, 1, None), "trace"),
    "trace-row-norm-nan": (_one_trace_row(0, 0.0, math.nan, 0.0, 1, None), "trace"),
    "trace-row-n-states-a-float": (_one_trace_row(0, 0.0, 1.0, 0.0, 1.5, None), "trace"),
    "trace-row-ref-holds-a-bool": (_one_trace_row(0, 0.0, 1.0, 0.0, 1, [True, 0.0]), "trace"),
    "engine-a-number": (lambda d: d.update(engine=5), "engine"),
    # final_amps[1] is state 2, an unwanted final state of the 6-qubit run
    "generation-a-string": (lambda d: d["generation"].update({"2": "x"}), "generation"),
    "generation-negative": (lambda d: d["generation"].update({"2": -7}), "generation"),
    "generation-a-bool": (lambda d: d["generation"].update({"2": True}), "generation"),
    "amplitude-part-a-bool": (lambda d: d["final_amps"][1].__setitem__(1, True), "final_amps"),
    "amplitude-part-nan": (lambda d: d["final_amps"][1].__setitem__(2, math.nan), "final_amps"),
    "state-negative": (lambda d: d["final_amps"][1].__setitem__(0, "-3"), "final_amps"),
    "state-outside-the-chain": (
        lambda d: d["final_amps"][1].__setitem__(0, "999999"), "final_amps"
    ),
    # read by whole columns, and (an int state) by the field table
    "state-listed-twice": (lambda d: d["final_amps"].append(d["final_amps"][1]), "final_amps"),
    "state-listed-twice-as-an-int": (
        lambda d: d["final_amps"].append([int(d["final_amps"][1][0]), 0.5, 0.0]), "final_amps"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_report_is_a_config_error(tmp_path, capsys, case):
    edit, word = MALFORMED_REPORTS[case]
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(write_config(tmp_path, base_config())),
                 "--out", str(run)]) == 0
    doc = json.loads((run / "report.json").read_text())
    edit(doc)
    (run / "report.json").write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["analyze", "--report", str(run / "report.json"), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert word in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("text, word", [
    ("{not json", "report is not valid JSON"), (b"\xff{", "report is not valid JSON"),
    (None, "report file not found"),
])
def test_unreadable_report_is_a_config_error(tmp_path, capsys, text, word):
    report = tmp_path / "report.json"
    if isinstance(text, bytes):
        report.write_bytes(text)
    elif text is not None:
        report.write_text(text)
    out = tmp_path / "out"
    assert main(["analyze", "--report", str(report), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert word in err["error"]["message"]
    assert not out.exists()


DENSE = {
    "version": 1,
    "chain": {"n_qubits": 3, "larmor_spacing": 10.0, "base_larmor": 15.0},
    "gate": {"type": "cn", "rabi": 0.5, "equal_epsilon": True},
}
RUN_FILES = {"report.json"}
TRACED = {"report": {"trace": True}}

# case -> (command, config, flags, the files the command writes); analyze reads
# the simulate report of its config, which ``{report}`` names
OUTPUTS = {
    "simulate": ("simulate", base_config(), [], RUN_FILES),
    "simulate-traced": ("simulate", base_config(), ["--trace"], RUN_FILES),
    "simulate-exact": ("simulate-exact", DENSE, [], RUN_FILES),
    "simulate-exact-traced": ("simulate-exact", DENSE, ["--trace"], RUN_FILES),
    "classical": ("classical", DENSE, [], RUN_FILES),
    "classical-traced": ("classical", DENSE, ["--trace"], RUN_FILES),
    "analyze": ("analyze", base_config(**TRACED), [], {*ANALYSIS_FILES, "trace.csv"}),
    "analyze-untraced": ("analyze", base_config(), [], set(ANALYSIS_FILES)),
    # at the 2*pi*k points no unwanted state stays above the cutoff
    "analyze-without-records": (
        "analyze", base_config(gate={"type": "cn", "k": 3}, **TRACED), [],
        {"unwanted.csv", "trace.csv"}
    ),
    "analyze-with-phase": (
        "analyze", base_config(**TRACED), ["--phase-with", "{report}"],
        {*ANALYSIS_FILES, "trace.csv", "phase.json"}
    ),
    "design": ("design", base_config(), [], {"protocol.json"}),
    "sweep": ("sweep", SWEEP, [], {"regions.csv", "intervals.json"}),
    "compare": ("compare", COMPARE, [], {"compare.csv"}),
}


def run_case(tmp_path: Path, case: str, out: Path) -> set[str]:
    """Run ``OUTPUTS[case]`` into ``out``; the files it should leave there."""
    command, doc, flags, files = OUTPUTS[case]
    source = ["--config", str(write_config(tmp_path, doc))]
    if command == "analyze":
        run = tmp_path / f"run-{case}"
        assert main(["simulate", *source, "--out", str(run)]) == 0
        report = str(run / "report.json")
        source = ["--report", report]
        flags = [flag.format(report=report) for flag in flags]
    assert main([command, *source, "--out", str(out), *flags]) == 0
    return files


@pytest.mark.parametrize("case", sorted(OUTPUTS))
def test_each_artifact_has_one_producer(tmp_path, case):
    out = tmp_path / "out"
    files = run_case(tmp_path, case, out)
    assert {path.name for path in out.iterdir()} == files


# pairs of cases of one command: a traced run, which writes no more files than an
# untraced one, and analyze cases whose first writes an optional file the second does not
RERUNS = [
    ("simulate-traced", "simulate"),
    ("simulate-exact-traced", "simulate-exact"),
    ("classical-traced", "classical"),
    ("analyze", "analyze-without-records"),
    ("analyze", "analyze-untraced"),
    ("analyze-with-phase", "analyze"),
]


@pytest.mark.parametrize("first, second", RERUNS + [pair[::-1] for pair in RERUNS])
def test_rerun_into_one_directory_leaves_its_own_files(tmp_path, first, second):
    # an optional file a run does not write is removed, not left from the run before
    out = tmp_path / "out"
    run_case(tmp_path, first, out)
    files = run_case(tmp_path, second, out)
    assert {path.name for path in out.iterdir()} == files


@pytest.mark.parametrize("command", ["simulate", "simulate-exact"])
@pytest.mark.parametrize("cutoff", ["nan", "2", "1", "0", "-1e-6", "inf"])
def test_cutoff_outside_the_unit_interval_is_a_config_error(tmp_path, capsys, command, cutoff):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(n=4))
    argv = [command, "--config", str(cfg_path), "--out", str(out), f"--cutoff={cutoff}"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "--cutoff" in err["error"]["message"]
    assert not out.exists()


def test_tiny_cutoff_stays_valid(tmp_path):
    cfg_path = write_config(tmp_path, base_config(n=4))
    out = tmp_path / "out"
    assert main(["simulate-exact", "--config", str(cfg_path), "--out", str(out),
                 "--cutoff", "1e-300"]) == 0
    assert sp.RunReport.load(out / "report.json").prune_cutoff == 1e-300
