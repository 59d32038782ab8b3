import csv
import functools
import io
import json
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinpulse as sp
from spinpulse import report as report_module
from spinpulse.report import (
    UnwantedRecord, accumulated_reference_phase, make_report, records_csv, reporting_cutoff,
    run_pulses,
)
from spinpulse.oscillator import default_step
from spinpulse.sparse_engine import SparseState

CFG = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)


def small_run(trace=False, doubled=False):
    proto = sp.build_cn_protocol(CFG, rabi=0.2, equal_epsilon=False)
    return (
        sp.run_protocol(
            SparseState.from_basis(0), proto, CFG, trace=trace, doubled=doubled,
            seed=3,
        ),
        proto,
    )


def unwanted_table(report):
    """The unwanted.csv that ``analyze`` writes for ``report``."""
    records = report.unwanted_records()
    return csv_text(records, sp.excitation_profiles(records, report.chain), report.chain.n_qubits)


def csv_text(records, above, n_qubits=CFG.n_qubits):
    """What ``records_csv`` writes for ``records``."""
    buf = io.StringIO()
    records_csv(records, above, n_qubits, buf)
    return buf.getvalue()


class TestRunReportSerialization:
    def test_json_round_trip_is_bit_identical(self, tmp_path):
        report, _ = small_run(trace=True)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = sp.RunReport.load(path)
        assert loaded.final_amps == report.final_amps
        assert loaded.generation == report.generation
        assert loaded.leaked == report.leaked
        assert loaded.time == report.time
        assert loaded.trace == report.trace
        assert loaded.chain == report.chain
        assert loaded.config_hash == report.config_hash
        assert loaded.protocol == report.protocol
        assert unwanted_table(loaded) == unwanted_table(report)
        # as earlier versions wrote it: indented, one space a level
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1)
        assert sp.RunReport.load(path) == report

    def test_saved_report_loads_its_protocol(self, tmp_path):
        report, proto = small_run(trace=True)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = sp.RunReport.load(path)
        assert isinstance(loaded.protocol, sp.Protocol)
        assert loaded.protocol == proto
        assert loaded.unwanted_records() == report.unwanted_records()
        assert loaded.wanted_states == {proto.initial_state, proto.target_state}

    def test_saved_ledger_covers_exactly_the_final_states(self, tmp_path):
        report, _ = small_run()
        path = tmp_path / "report.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        assert list(doc["generation"]) == [str(s) for s, _, _ in doc["final_amps"]]
        # the run keeps the ledger of its final states only, as it saves it
        assert list(sp.RunReport.load(path).generation.items()) == list(report.generation.items())

    @pytest.mark.parametrize("read", [sp.RunReport.from_dict, sp.Protocol.from_dict])
    def test_document_that_is_not_an_object_rejected(self, read):
        with pytest.raises(sp.ConfigError, match="must be a JSON object"):
            read([2])

    def test_unknown_version_rejected(self):
        report, _ = small_run()
        doc = report.to_dict()
        for version in (1, 3):
            doc["version"] = version
            with pytest.raises(sp.ConfigError, match="field version"):
                sp.RunReport.from_dict(doc)

    def test_integer_parts_load_as_written_ones(self):
        # a part the writers store as a float, given as a JSON int
        report, _ = small_run()
        doc = json.loads(json.dumps(report.to_dict()))
        doc["final_amps"][0][2] = 0
        loaded = sp.RunReport.from_dict(doc)
        first = next(iter(report.final_amps))
        assert loaded.final_amps == {**report.final_amps, first: report.final_amps[first].real}
        assert list(loaded.generation.items()) == list(report.generation.items())

    @pytest.mark.parametrize("row, value", [
        (0, ""), (0, "٣"), (0, "1_0"), (1, 10**400), (2, -math.inf), (2, "0.5"),
    ])
    def test_malformed_final_state_rows_named(self, row, value):
        report, _ = small_run()
        doc = json.loads(json.dumps(report.to_dict()))
        doc["final_amps"][1][row] = value
        with pytest.raises(sp.ConfigError, match=r"field final_amps\[1\]"):
            sp.RunReport.from_dict(doc)

    @given(
        values=st.lists(
            st.tuples(
                st.integers(0, 63),
                st.floats(-1, 1, allow_nan=False).filter(lambda v: v != 0),
                st.floats(-1, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_arbitrary_amplitudes(self, values):
        amps = {s: complex(re, im) for s, re, im in values}
        report = make_report(
            "perturbative", CFG, None, amps, 1e-7, 3.25, {s: 0 for s in amps}
        )
        again = sp.RunReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert again.final_amps == report.final_amps

    def test_same_seed_reproduces_csv_bytes(self):
        rep_a, _ = small_run(trace=True)
        rep_b, _ = small_run(trace=True)
        assert unwanted_table(rep_a) == unwanted_table(rep_b)
        assert rep_a.trace_csv() == rep_b.trace_csv()
        assert rep_a.config_hash == rep_b.config_hash

    def test_trace_csv_equals_csv_writer(self):
        # the trace lines are joined by hand; csv.writer renders the same
        # bytes for a run's trace, an empty one and rows of edge values
        def written(trace):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["pulse", "time", "norm", "leaked", "n_states", "ref_re", "ref_im"])
            for e in trace:
                ref = e.reference_amplitude
                writer.writerow([e.pulse_index, repr(e.time), repr(e.norm), repr(e.leaked),
                                 e.n_states, "" if ref is None else repr(ref.real),
                                 "" if ref is None else repr(ref.imag)])
            return buf.getvalue()

        run, _ = small_run(trace=True)
        refs = [None, complex(-0.0, 5e-324), complex(1e308, -1e308),
                complex(math.nan, math.inf), complex(-math.inf, -0.0)]
        edges = [report_module.TraceEntry(i, t, EDGE_PARTS[-1 - i], EDGE_PARTS[i - 3], 10 * i, ref)
                 for i, (t, ref) in enumerate(zip(EDGE_PARTS, refs * 2))]
        for trace in (run.trace, [], edges):
            report = make_report("perturbative", CFG, None, {}, 0.0, 1.0, {}, trace=trace)
            assert report.trace_csv() == written(trace)
        assert len(run.trace) > 10
        assert "nan,inf\n" in report.trace_csv() and ",,\n" in report.trace_csv()


def dumped(report) -> bytes:
    """``json.dumps(report.to_dict(), separators=(",", ":"))`` and a newline."""
    return (json.dumps(report.to_dict(), separators=(",", ":")) + "\n").encode()


def saved(report, tmp_path) -> bytes:
    path = tmp_path / "report.json"
    report.save(path)
    return path.read_bytes()


DENSE_CFG = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=15.0)
EDGE_PARTS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, math.nan, math.inf, -math.inf]


@st.composite
def bulk_reports(draw):
    """Reports whose bulk sections hold any float, a ledger entry for each
    state, and trace rows with and without a reference amplitude."""
    n = draw(st.sampled_from([1, 6, 64, 200, 1000]))
    parts = st.one_of(st.sampled_from(EDGE_PARTS), st.floats())
    states = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12, unique=True))
    amps = {s: complex(draw(parts), draw(parts)) for s in states}
    generation = {s: draw(st.integers(0, 10**6)) for s in states}
    trace = draw(st.none() | st.lists(st.builds(
        report_module.TraceEntry, st.integers(0, 10**4), parts, parts, parts,
        st.integers(0, 10**6), st.none() | st.builds(complex, parts, parts)), max_size=5))
    cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0)
    return make_report("perturbative", cfg, None, amps, draw(parts), draw(parts), generation,
                       trace=trace, seed=draw(st.none() | st.integers(0, 10)))


class TestSaveIsJsonDump:
    """``save`` writes the bytes of ``json.dumps(to_dict(), separators=(",", ":"))``
    and a newline, whatever the report holds."""

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("engine", ["perturbative", "exact", "classical"])
    def test_reports_of_each_engine(self, tmp_path, engine, trace):
        proto = sp.build_cn_protocol(DENSE_CFG, rabi=0.5, equal_epsilon=True)
        run = {"perturbative": sp.run_protocol, "exact": sp.run_protocol_exact,
               "classical": sp.run_protocol_classical}[engine]
        report = run(SparseState.from_basis(0), proto, DENSE_CFG, trace=trace, doubled=True)
        assert len(report.final_amps) > 1 and (report.trace is None) != trace
        assert saved(report, tmp_path) == dumped(report)
        report, _ = small_run(trace=trace)
        assert saved(report, tmp_path) == dumped(report)

    def test_empty_sections(self, tmp_path):
        for trace in (None, []):
            report = make_report("perturbative", CFG, None, {}, 1.0, 0.0, {}, trace=trace)
            assert report.to_dict()["final_amps"] == [] and report.to_dict()["generation"] == {}
            assert saved(report, tmp_path) == dumped(report)
        report = make_report("perturbative", CFG, None, {1: 0.5j, 2: 0.5 + 0j}, 0.0, 1.0,
                             {1: 0, 2: 0})
        assert saved(report, tmp_path) == dumped(report)

    def test_edge_parts_and_reference_amplitudes(self, tmp_path):
        amps = {s: complex(re, im) for s, (re, im) in
                enumerate((re, im) for re in EDGE_PARTS for im in EDGE_PARTS[::3])}
        cfg = sp.ChainConfig(n_qubits=7, larmor_spacing=100.0)
        trace = [report_module.TraceEntry(i, t, 1.0 - t, t, i, ref)
                 for i, (t, ref) in enumerate(zip(EDGE_PARTS, [None, 0j, -0.0 - 0.0j, None,
                                                               complex(math.nan, -math.inf)]))]
        report = make_report("perturbative", cfg, None, amps, -0.0, 1e308,
                             dict.fromkeys(amps, 3), trace=trace)
        text = saved(report, tmp_path)
        assert text == dumped(report)
        assert b"NaN" in text and b"-Infinity" in text and b"5e-324" in text

    def test_numpy_and_integer_parts(self, tmp_path):
        # numpy scalars are written by float.__repr__ (json's rule), not as
        # np.float64(...); an int part as json writes one
        amps = {1: np.complex128(0.1 + 0.2j), 2: np.complex128(-0.0 + 5e-324j), 3: 1, 4: 0.5}
        report = make_report("perturbative", CFG, None, amps, 0.0, 1.0, {1: 2, 2: 1, 3: 0, 4: 5})
        text = saved(report, tmp_path)
        assert text == dumped(report) and b"np." not in text

    def test_thousand_qubit_states_over_several_chunks(self, tmp_path):
        rng = random.Random(1000)
        cfg = sp.ChainConfig(n_qubits=1000, larmor_spacing=100.0)
        chunk = report_module.SAVE_CHUNK_ENTRIES
        for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            amps = {rng.getrandbits(1000): complex(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3))
                    for _ in range(count)}
            generation = {s: rng.randrange(2000) for s in amps}
            report = make_report("perturbative", cfg, None, amps, 1e-3, 10.0, generation)
            assert saved(report, tmp_path) == dumped(report)

    @given(report=bulk_reports(), chunk=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_reports(self, report, chunk):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(report_module, "SAVE_CHUNK_ENTRIES", chunk):
            assert saved(report, Path(tmp)) == dumped(report)


@functools.cache
def base_document(name: str) -> str:
    """The JSON text of a saved report: a small run's, or one whose first
    amplitude is 0.5+1e308j."""
    if name == "run":
        report, _ = small_run(trace=True)
    else:
        report = make_report("perturbative", CFG, None, {0: 0.5 + 1e308j, 5: 0.25j}, 0.0, 1.0,
                             {0: 0, 5: 2})
    return dumped(report).decode()


def plant(doc: dict, where: str, row: int, value) -> None:
    """Put ``value`` in a ``final_amps`` row (its state, re or im slot), or
    in ``generation`` as the row-th key or value."""
    if where == "key":
        items = list(doc["generation"].items())
        items[row] = (value, items[row][1])
        doc["generation"] = dict(items)
    elif where == "generation":
        doc["generation"][list(doc["generation"])[row]] = value
    else:
        doc["final_amps"][row][["state", "re", "im"].index(where)] = value


class TestOneBuilder:
    """``from_dict`` builds every report one way, from ``_read_states``: a
    value planted in a saved report either loads or is named by the table."""

    @given(base=st.sampled_from(["run", "overflow"]),
           where=st.sampled_from(["state", "re", "im", "key", "generation"]),
           row=st.integers(0, 1),
           value=st.one_of(st.sampled_from(EDGE_PARTS), st.integers(-3, 70),
                           st.sampled_from([10**400, -(10**400), 2**64]), st.booleans(),
                           st.text("0123456789-. a", max_size=3)))
    @example(base="overflow", where="re", row=0, value=1e308)  # 1e308+1e308j
    @settings(max_examples=150, deadline=None)
    def test_planted_value_loads_or_is_a_config_error(self, base, where, row, value):
        doc = json.loads(base_document(base))
        plant(doc, where, row, value)
        try:
            report = sp.RunReport.from_dict(doc)
        except sp.ConfigError:
            return
        again = sp.RunReport.from_dict(json.loads(dumped(report)))
        assert again == report

    def test_parts_whose_sum_overflows_load(self):
        doc = json.loads(base_document("overflow"))
        plant(doc, "re", 0, 1e308)
        assert sp.RunReport.from_dict(doc).final_amps[0] == complex(1e308, 1e308)


class TestUnwantedRecords:
    def test_sorted_by_generation_then_state(self):
        report, _ = small_run()
        records = report.unwanted_records()
        keys = [(r.generation, r.state) for r in records]
        assert keys == sorted(keys)

    def test_wanted_states_excluded(self):
        report, proto = small_run()
        states = {r.state for r in report.unwanted_records()}
        assert proto.initial_state not in states
        assert proto.target_state not in states

    def test_doubled_flag_scales_probabilities_by_two(self):
        plain, _ = small_run(doubled=False)
        doubled, _ = small_run(doubled=True)
        recs_plain = {r.state: r for r in plain.unwanted_records()}
        recs_doubled = {r.state: r for r in doubled.unwanted_records()}
        assert recs_plain.keys() == recs_doubled.keys()
        for s, rec in recs_plain.items():
            assert recs_doubled[s].probability == pytest.approx(
                2.0 * rec.probability, rel=1e-15
            )
            assert recs_doubled[s].energy == rec.energy
            assert recs_doubled[s].generation == rec.generation

    def test_csv_header_and_decimal_format(self):
        report, _ = small_run()
        lines = unwanted_table(report).split("\n")
        assert lines[0] == (
            "state,probability,generation_pulse,energy,flips,energy_above_ground"
        )
        first = lines[1].split(",")
        assert set(first[0]) <= {"0", "1"}
        assert "." in first[1] and "," not in first[1]
        assert float(first[1]) > 0
        assert "." in first[5] and float(first[5]) > 0

    def test_csv_equals_csv_writer(self):
        # the table is joined by hand, a chunk of rows at a time; csv.writer
        # renders the same bytes for 0, 1, C - 1, C and C + 1 rows
        chunk = report_module.CSV_CHUNK_ROWS
        report, _ = small_run(doubled=True)
        records = report.unwanted_records() + [
            UnwantedRecord(state=0, probability=5e-324, generation=-1, energy=-0.0, flips=0),
            UnwantedRecord(state=63, probability=1.0, generation=12, energy=-1e300, flips=6),
        ]
        rng = random.Random(5)
        while len(records) <= chunk:
            s = rng.randrange(64)
            records.append(UnwantedRecord(
                state=s, probability=10 ** rng.uniform(-300, 0),
                generation=rng.randrange(-1, 400), energy=rng.uniform(-1e4, 1e4),
                flips=rng.randrange(6)))
        above = sp.excitation_profiles(records, report.chain)
        for n in (0, 1, chunk - 1, chunk, chunk + 1):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["state", "probability", "generation_pulse", "energy", "flips",
                             "energy_above_ground"])
            for r, a in zip(records[:n], above[:n]):
                writer.writerow([f"{r.state:06b}", repr(r.probability), r.generation,
                                 repr(r.energy), r.flips, repr(a)])
            assert csv_text(records[:n], above[:n]) == buf.getvalue()
            # the header, then one write per chunk of rows
            writes = []
            records_csv(records[:n], above[:n], 6, mock.Mock(write=writes.append))
            assert len(writes) == 1 + -(-n // chunk)
        out = io.StringIO()
        with pytest.raises(ValueError):
            records_csv(records, above[:-1], 6, out)
        assert out.getvalue() == ""


def _records(probs):
    return [
        UnwantedRecord(
            state=i, probability=p, generation=i, energy=0.0, flips=1,
        )
        for i, p in enumerate(probs)
    ]


class TestBandClassify:
    def test_two_well_separated_bands(self):
        probs = [1.1e-3, 0.9e-3, 1.3e-3] + [1.2e-6, 0.8e-6, 1.0e-6, 1.1e-6]
        summary = sp.band_classify(_records(probs))
        assert len(summary.bands) == 2
        lower, upper = summary.bands
        assert lower.median == pytest.approx(1.05e-6, rel=0.1)
        assert upper.median == pytest.approx(1.1e-3, rel=0.1)
        assert lower.median / upper.median == pytest.approx(1e-3, rel=0.5)
        assert summary.split_gap >= 1.0
        assert lower.count + upper.count == len(probs)

    def test_uniform_probabilities_are_one_band(self):
        summary = sp.band_classify(_records([1e-4] * 10))
        assert len(summary.bands) == 1
        assert summary.split_gap is None

    def test_narrow_spread_is_one_band(self):
        summary = sp.band_classify(_records([1e-4, 2e-4, 4e-4, 8e-4]))
        assert len(summary.bands) == 1

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            sp.band_classify([])


class TestExcitationProfiles:
    def test_ground_state_profile(self):
        recs = _records([1e-3])
        recs[0] = UnwantedRecord(
            state=0, probability=1e-3, generation=0, energy=sp.basis_energy(0, CFG), flips=0,
        )
        above = sp.excitation_profiles(recs, CFG)
        assert above == [pytest.approx(0.0, abs=1e-12)]
        row = csv_text(recs, above).splitlines()[1].split(",")
        assert row[4:] == ["0", repr(above[0])]

    def test_single_flip_energy_matches_transition(self):
        state = 1 << 3
        rec = UnwantedRecord(
            state=state, probability=1e-4, generation=2, energy=sp.basis_energy(state, CFG),
            flips=1,
        )
        [above] = sp.excitation_profiles([rec], CFG)
        assert above == pytest.approx(sp.transition_frequency(0, 3, CFG), rel=1e-12)


class TestPhaseReport:
    def test_identical_runs_have_zero_deviation(self):
        report, _ = small_run(trace=True)
        dev = sp.phase_report(report, report)
        assert dev.deviation == 0.0
        assert dev.relative_deviation == 0.0

    def test_deviation_grows_with_drive_offset(self):
        proto_a = sp.build_cn_protocol(CFG, k=3)
        base = proto_a.pulses[0].rabi
        proto_b = sp.build_cn_protocol(CFG, rabi=base * 1.001)
        proto_c = sp.build_cn_protocol(CFG, rabi=base * 1.01)
        reports = [
            sp.run_protocol(SparseState.from_basis(0), p, CFG, trace=True)
            for p in (proto_a, proto_b, proto_c)
        ]
        near = sp.phase_report(reports[0], reports[1])
        far = sp.phase_report(reports[0], reports[2])
        assert 0.0 < near.deviation < far.deviation

    def test_report_with_zero_pulse_phases_loads(self):
        # reports written while pulses carried a (zero) phase still analyse
        report, _ = small_run(trace=True)
        doc = json.loads(json.dumps(report.to_dict()))
        for pulse in doc["protocol"]["pulses"]:
            pulse["phase"] = 0.0
        loaded = sp.RunReport.from_dict(doc)
        assert accumulated_reference_phase(loaded) == accumulated_reference_phase(report)

    def test_trace_required(self):
        report, _ = small_run(trace=False)
        with pytest.raises(ValueError):
            sp.phase_report(report, report)

    def test_protocol_without_detunings_rejected(self):
        # the phase guide needs each pulse's detuning; without them the run
        # must not read as zero phase
        proto = sp.build_cn_protocol(CFG, rabi=0.2, equal_epsilon=False)
        report = sp.run_protocol(
            SparseState.from_basis(0), sp.Protocol(pulses=proto.pulses), CFG, trace=True
        )
        with pytest.raises(ValueError, match="one detuning per pulse"):
            sp.phase_report(report, report)


ENGINES = [sp.run_protocol, sp.run_protocol_exact, sp.run_protocol_classical]
DENSE_ENGINES = [sp.run_protocol_exact, sp.run_protocol_classical]


class TestSharedRunLoop:
    CFG2 = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)

    def two_pulses(self):
        cfg = self.CFG2
        return sp.Protocol(
            pulses=tuple(
                sp.Pulse(frequency=sp.transition_frequency(0, k, cfg), rabi=0.5,
                         duration=math.pi)
                for k in (1, 0)
            )
        )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda f: f.__name__)
    def test_last_trace_row_describes_the_report(self, engine):
        # norm is the probability at or above the cutoff, leaked the rest
        report = engine(
            SparseState.from_basis(0), self.two_pulses(), self.CFG2,
            cutoff=1e-2, trace=True,
        )
        last = report.trace[-1]
        assert report.leaked > 0.0
        assert (last.norm, last.leaked, last.n_states) == (
            report.stored_norm(), report.leaked, len(report.final_amps)
        )

    @pytest.mark.parametrize("engine", DENSE_ENGINES, ids=lambda f: f.__name__)
    def test_wrong_length_initial_vector_rejected(self, engine):
        with pytest.raises(ValueError, match="initial vector must have length 4"):
            engine(np.ones(3, dtype=complex), self.two_pulses(), self.CFG2)


    @pytest.mark.parametrize("engine", ENGINES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("state", [-1, 5])
    def test_initial_state_outside_the_chain_rejected(self, engine, state):
        with pytest.raises(ValueError, match=f"state {state} does not fit in 2 bits"):
            engine(SparseState.from_basis(state), self.two_pulses(), self.CFG2)

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 500])
    def test_norm_has_the_per_state_sums_bits(self, count):
        # the stored norm is the same float below and above the array threshold
        rng = np.random.default_rng(count)
        amps = {
            s: complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-9.0, 0.0)
            for s in range(count)
        }
        expected = math.fsum(c.real * c.real + c.imag * c.imag for c in amps.values())
        report = make_report("perturbative", CFG, None, amps, 0.0, 0.0, {})
        assert report.stored_norm() == expected


def dense_ledger_run(engine):
    """A run of ``engine`` at N=3 in which final state 5 is stored after pulse
    2, pruned after pulse 3 and stored again after pulse 5, and the ledger
    of every state ever stored, read off the runs of each prefix."""
    cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=15.0)
    a = sp.Pulse(frequency=sp.transition_frequency(0, 0, cfg), rabi=0.5, duration=math.pi / 0.5)
    b = sp.Pulse(frequency=sp.transition_frequency(0, 2, cfg), rabi=0.5, duration=math.pi)
    pulses = [a, b, a, b, a]
    if engine is sp.run_protocol_classical:
        # one step for every prefix, so that each prefix runs as the whole run begins
        step = default_step(cfg, sp.Protocol(pulses=tuple(pulses)), 1e-6)
        engine = functools.partial(engine, step=step, norm_tol=1e-6)
    stored = [list(engine({0: 1.0}, pulses[:i], cfg, cutoff=1e-3).final_amps)
              for i in range(len(pulses) + 1)]
    ledger = {}
    for idx, states in enumerate(stored):
        for s in states:
            ledger.setdefault(s, idx)
    return engine({0: 1.0}, pulses, cfg, cutoff=1e-3), stored, ledger


class TestLedger:
    # CPython hashes ints modulo 2^61 - 1, so 2^k and 2^(k+61) collide;
    # 1 << 3 is stored, left out after pulse 2 and stored again
    VIEWS = [
        [1 << 3, 0],
        [1 << 64, 1 << 3, 1 << 125],
        [1 << 2, 1 << 63, 0],
        [1 << 186, (1 << 64) | 1, 1 << 2, 1 << 3],
    ]

    def test_matches_int_keyed_loop(self):
        assert hash(1 << 3) == hash(1 << 64) == hash(1 << 125) == hash(1 << 186)
        views = self.VIEWS
        proto = sp.Protocol(pulses=tuple(
            sp.Pulse(frequency=1.0, rabi=1.0, duration=1.0) for _ in views[1:]
        ))
        _, _, ledger, _ = run_pulses(
            0, proto, lambda i, pulse: i + 1,
            lambda i: (dict.fromkeys(views[i], 1j), 0.0, float(i)), trace=False,
        )
        reference = dict.fromkeys(views[0], 0)
        for idx, view in enumerate(views[1:], start=1):
            for s in view:
                if s not in reference:
                    reference[s] = idx
        assert list(ledger.items()) == [(s, reference[s]) for s in views[-1]]
        assert ledger[1 << 3] == 0

    @pytest.mark.parametrize("engine", [sp.run_protocol_exact, sp.run_protocol_classical])
    def test_dense_engines_keep_each_final_states_first_crossing(self, engine):
        report, stored, ledger = dense_ledger_run(engine)
        assert [5 in states for states in stored] == [False, False, True, False, False, True]
        assert list(report.generation.items()) == [(s, ledger[s]) for s in report.final_amps]
        assert report.generation == {3: 2, 5: 2, 6: 4}


class TestReportingCutoff:
    CFG = sp.ChainConfig(n_qubits=3, larmor_spacing=100.0, cutoff=1e-6)

    @pytest.mark.parametrize("cutoff", [math.nan, 0.0, -1e-6, 1.0, 2.0, math.inf])
    def test_outside_the_unit_interval_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must lie in"):
            reporting_cutoff(self.CFG, cutoff)
        with pytest.raises(ValueError, match="cutoff must lie in"):
            sp.run_protocol(SparseState.from_basis(0), [], self.CFG, cutoff=cutoff)

    def test_default_and_tiny_cutoff(self):
        assert reporting_cutoff(self.CFG, None) == 1e-6
        assert reporting_cutoff(self.CFG, 1e-300) == 1e-300
