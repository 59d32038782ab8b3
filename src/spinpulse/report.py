"""Run reports: persistence, unwanted-state listings, bands, and phase checks.

A RunReport is the common output of every engine.  It carries the final
sparse amplitudes, the probability removed by pruning (or left below the
reporting cutoff for dense engines), the first-crossing pulse index of every
final state (the first pulse after which it held probability above the
cutoff), the Protocol that was run, and enough provenance to reproduce the
run byte for byte.  Reports serialize to JSON (lossless float round trip).
Each fact has one copy: the unwanted states are one CSV table
(``records_csv``), one row per state, with its energy above ground as the
last column.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, TextIO, TypeVar

import numpy as np

from .chain import (
    ChainConfig, basis_energies, basis_energy, descend, flip_count, pack_states,
)
from .design import spectator_phase_increment
from .exceptions import ConfigError
from .pulses import Protocol, Pulse
from .schema import REPORT, REPORT_FORMAT_VERSION, check, finite_number, read_json


@dataclass(frozen=True)
class TraceEntry:
    """Per-pulse snapshot; entry 0 describes the state before any pulse.

    ``norm`` is the probability at or above the run's cutoff and ``leaked``
    the probability below it, ``n_states`` counts the states at or above the
    cutoff, and ``reference_amplitude`` is the protocol's initial state's
    amplitude (basis state 0 without a path), None when below the cutoff.
    """

    pulse_index: int
    time: float
    norm: float
    leaked: float
    n_states: int
    reference_amplitude: complex | None


class UnwantedRecord(NamedTuple):
    """One unwanted basis state in the final superposition."""

    state: int
    probability: float
    generation: int
    energy: float
    flips: int


@dataclass
class RunReport:
    engine: str
    chain: ChainConfig
    final_amps: dict[int, complex]
    leaked: float
    time: float
    generation: dict[int, int]
    doubled: bool = False
    prune_cutoff: float | None = None
    seed: int | None = None
    protocol: Protocol | None = None
    trace: list[TraceEntry] | None = None
    config_hash: str = ""

    # -- queries -------------------------------------------------------------

    @property
    def convention_factor(self) -> float:
        return 2.0 if self.doubled else 1.0

    def probability(self, state: int) -> float:
        c = self.final_amps.get(state)
        if c is None:
            return 0.0
        return self.convention_factor * (c.real * c.real + c.imag * c.imag)

    def stored_norm(self) -> float:
        return _probability(self.final_amps)

    @property
    def wanted_states(self) -> frozenset[int]:
        """The protocol's initial and target states; none without a path."""
        if self.protocol is None or not self.protocol.path:
            return frozenset()
        return frozenset({self.protocol.initial_state, self.protocol.target_state})

    def unwanted_records(self) -> list[UnwantedRecord]:
        """Final states above cutoff that are not protocol targets, in
        generation order (ties broken by ascending basis index)."""
        wanted = self.wanted_states
        kept = [(s, c) for s, c in self.final_amps.items() if s not in wanted]
        energies = basis_energies([s for s, _ in kept], self.chain)
        factor, generation = self.convention_factor, self.generation
        records = [
            UnwantedRecord(s, factor * (c.real * c.real + c.imag * c.imag),
                           generation[s], energy, flip_count(s))
            for (s, c), energy in zip(kept, energies)
        ]
        records.sort(key=attrgetter("generation", "state"))
        return records

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        doc = self._frame()
        for key, (kind, entries) in self._bulk().items():
            if entries is not None:
                doc[key] = kind(entries)
        return doc

    def _bulk(self) -> dict:
        """The bulk sections of ``to_dict`` (``final_amps``, ``generation`` and
        ``trace``): each key's container type and an iterator of its entries,
        None for a report without a trace."""
        amps, generation = self.final_amps, self.generation
        return {
            "final_amps": (list, ([str(s), c.real, c.imag] for s, c in amps.items())),
            "generation": (dict, ((str(s), generation[s]) for s in amps)),
            "trace": (list, None if self.trace is None else map(_trace_row, self.trace)),
        }

    def _frame(self) -> dict:
        """The document of ``to_dict`` in its order, its bulk sections
        (``final_amps``, ``generation`` and ``trace``) left as None."""
        return {
            "version": REPORT_FORMAT_VERSION,
            "engine": self.engine,
            "chain": asdict(self.chain),
            "final_amps": None,
            "leaked": self.leaked,
            "time": self.time,
            "generation": None,
            "doubled": self.doubled,
            "prune_cutoff": self.prune_cutoff,
            "seed": self.seed,
            "protocol": None if self.protocol is None else self.protocol.to_dict(),
            "trace": None,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """The report of a document as ``to_dict`` writes it; ConfigError
        naming the field if a field is missing or malformed (``schema.REPORT``),
        if ``final_amps`` lists a state twice or outside the chain, or if
        ``generation`` does not list the states of ``final_amps`` as the same
        strings, in the same order.

        The final states and their ledger, the bulk of a report, are read
        once by ``_read_states``; the table walks them only when it declines,
        and then names the malformed value.
        """
        states = _read_states(data) if isinstance(data, dict) else None
        check(data if states is None else {**data, "final_amps": [], "generation": {}},
              REPORT, "report")
        final_amps, generation = states
        if len(final_amps) < len(data["final_amps"]):
            raise ConfigError(f"report field final_amps lists {len(data['final_amps'])} rows "
                              f"but {len(final_amps)} distinct states")
        chain = ChainConfig(**data["chain"])
        if final_amps and max(final_amps) >> chain.n_qubits:
            raise ConfigError(f"report field final_amps holds state {max(final_amps)}, "
                              f"which does not fit in {chain.n_qubits} qubits")
        if generation is None:
            raise ConfigError("report field generation must list the states of final_amps, "
                              "as the same strings in the same order")
        protocol, trace = data["protocol"], data["trace"]
        return cls(
            engine=data["engine"],
            chain=chain,
            final_amps=final_amps,
            leaked=data["leaked"],
            time=data["time"],
            generation=generation,
            doubled=data["doubled"],
            prune_cutoff=data["prune_cutoff"],
            seed=data["seed"],
            protocol=None if protocol is None else Protocol.from_checked(protocol),
            trace=None if trace is None else [
                TraceEntry(i, t, norm, leaked, n, None if ref is None else complex(*ref))
                for i, t, norm, leaked, n, ref in trace
            ],
            config_hash=data["config_hash"],
        )

    def save(self, path: str | Path) -> None:
        """Write ``json.dumps(self.to_dict(), separators=(",", ":"))`` and a
        newline.  A bulk section is encoded ``SAVE_CHUNK_ENTRIES`` entries at a
        time, each chunk by one ``json.dumps`` with its brackets stripped, so
        that a large report's text is never held whole."""
        bulk = self._bulk()
        with open(path, "w") as fh:
            sep = "{"
            for key, value in self._frame().items():
                fh.write(f'{sep}"{key}":')
                sep = ","
                kind, entries = bulk.get(key, (None, None))
                if entries is None:
                    fh.write(_encode(value))
                    continue
                start, end = "{}" if kind is dict else "[]"
                fh.write(start)
                comma = ""
                while chunk := kind(islice(entries, SAVE_CHUNK_ENTRIES)):
                    fh.write(comma + _encode(chunk)[1:-1])
                    comma = ","
                fh.write(end)
            fh.write("}\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(read_json(path, "report"))

    def trace_csv(self) -> str:
        if self.trace is None:
            raise ValueError("run was executed without trace recording")
        # no field needs quoting (ints, float reprs and empty reference
        # columns), so the lines are joined as ``records_csv`` joins them
        lines = ["pulse,time,norm,leaked,n_states,ref_re,ref_im\n"]
        for e in self.trace:
            ref = e.reference_amplitude
            refs = "," if ref is None else f"{ref.real!r},{ref.imag!r}"
            lines.append(
                f"{e.pulse_index},{e.time!r},{e.norm!r},{e.leaked!r},{e.n_states},{refs}\n")
        return "".join(lines)


# entries of a bulk section that ``RunReport.save`` encodes and writes at a time
SAVE_CHUNK_ENTRIES = 256

# ``json.dumps(..., separators=(",", ":"))``, by json's C encoder
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _trace_row(e: TraceEntry) -> list:
    ref = e.reference_amplitude
    return [e.pulse_index, e.time, e.norm, e.leaked, e.n_states,
            None if ref is None else [ref.real, ref.imag]]


def _read_states(data: dict) -> tuple[dict[int, complex], dict[int, int] | None] | None:
    """``final_amps`` and ``generation`` as dicts, read with whole-column
    tests; None when a value fails its ``schema.REPORT`` test (decimal-string
    states, finite numbers, ints >= 0), for the table check to name.  The
    ledger is None unless its keys are the states of ``final_amps`` as the
    same strings in the same order, as ``RunReport.to_dict`` writes them."""
    rows, ledger = data.get("final_amps"), data.get("generation")
    if not isinstance(rows, list) or not isinstance(ledger, dict) or (
            set(map(type, rows)) - {list} or set(map(len, rows)) - {3}):
        return None
    states, re, im = zip(*rows) if rows else ((), (), ())
    texts, generations = states + tuple(ledger), tuple(ledger.values())
    if set(map(type, texts)) - {str} or set(map(type, generations)) - {int} or not all(texts):
        return None
    digits = "".join(texts) or "0"
    # each part by the table's own test, so that finite parts whose sum
    # overflows (1e308 + 1e308) are not declined while the table accepts them
    if not (digits.isdigit() and digits.isascii() and all(map(finite_number, re + im))) \
            or min(generations, default=0) < 0:
        return None
    amps = dict(zip(map(int, states), map(complex, re, im)))
    return amps, dict(zip(amps, generations)) if texts[len(states):] == states else None


# rows of ``records_csv`` formatted and written at a time
CSV_CHUNK_ROWS = 256


def records_csv(records: list[UnwantedRecord], above_ground: list[float], n_qubits: int,
                out: TextIO) -> None:
    """Write the CSV table of unwanted records to the text file ``out``, one
    row each in the given order, ``CSV_CHUNK_ROWS`` rows at a time, so that
    the table is never held whole.  Each state is written as its N-bit
    string (``chain.state_to_string``), formatted with its chunk.

    ``above_ground`` holds each record's energy above the all-zeros ground
    state, as ``excitation_profiles`` returns it; it is the last column.
    """
    if len(records) != len(above_ground):
        raise ValueError(f"{len(records)} records but {len(above_ground)} energies above ground")
    # no field needs quoting (bitstrings, float reprs and ints), so the lines
    # are joined directly, as ``csv.writer`` would write them
    out.write("state,probability,generation_pulse,energy,flips,energy_above_ground\n")
    for i in range(0, len(records), CSV_CHUNK_ROWS):
        chunk = zip(records[i:i + CSV_CHUNK_ROWS], above_ground[i:i + CSV_CHUNK_ROWS])
        out.write("".join(
            f"{r.state:0{n_qubits}b},{r.probability!r},{r.generation},{r.energy!r},{r.flips},"
            f"{above!r}\n"
            for r, above in chunk))


# From this many states on, numpy's fixed cost per call is cheaper than the
# per-state sum (measured: ~3 us against ~0.35 us a state).
_ARRAY_MIN_STATES = 32


def _probability(amps: Mapping[int, complex]) -> float:
    """The stored probability: the exact sum of the per-state |C|^2, rounded
    once by ``math.fsum``, so both branches give the same bits."""
    if len(amps) < _ARRAY_MIN_STATES:
        return math.fsum(c.real * c.real + c.imag * c.imag for c in amps.values())
    c = np.fromiter(amps.values(), complex, len(amps))
    return math.fsum((c.real * c.real + c.imag * c.imag).tolist())


def reporting_cutoff(cfg: ChainConfig, cutoff: float | None) -> float:
    """The probability cutoff of a run, ``cutoff`` or the chain config's;
    ValueError unless 0 < cutoff < 1 (NaN included)."""
    cutoff = cfg.cutoff if cutoff is None else cutoff
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {cutoff!r}")
    return cutoff


State = TypeVar("State")
View = tuple[Mapping[int, complex], float, float]  # (amps, leaked, time)


def run_pulses(
    state: State,
    protocol: Protocol,
    step: Callable[[State, Pulse], State],
    view: Callable[[State], View],
    trace: bool,
) -> tuple[State, View, dict[int, int], list[TraceEntry] | None]:
    """The run loop of every engine: apply each pulse, then look at the state.

    ``step(state, pulse)`` advances an engine's state through one pulse and
    ``view(state)`` returns (amps, leaked, time): the amplitudes at or above
    the cutoff, the probability below it, and the time reached.  The ledger
    ``generation[s]`` is, for each final state s in the final view's order,
    the first pulse index after which s was seen above the cutoff, 0 for the
    start.  Returns the final state, its view, the ledger and the trace rows
    (None unless ``trace``).

    Each pulse logs which states it stored: the packed kernel's ``lineage``
    as the kernel hands it (with its input rows when its input was not a
    kernel output), or else the states the previous pulse did not store.
    ``_first_crossings`` replays the log once, at the end: it rebuilds each
    kernel output's rows with a hash carried from their source rows', and
    searches the final states' keys only for rows that share a hash bucket
    with a final state.
    """
    ref = protocol.initial_state
    shown = view(state)
    log: list = [list(shown[0])]
    rows = [_trace_entry(0, shown, ref)] if trace else None
    for idx, pulse in enumerate(protocol.pulses, start=1):
        before = shown[0]
        state = step(state, pulse)
        shown = view(state)
        amps = shown[0]
        lineage = getattr(amps, "lineage", None)
        log.append([s for s in amps if s not in before] if lineage is None else lineage)
        if rows is not None:
            rows.append(_trace_entry(idx, shown, ref))
    return state, shown, _first_crossings(log, list(shown[0])), rows


def _first_crossings(log: list, final: list[int]) -> dict[int, int]:
    """Replay ``run_pulses``'s log forward: the first pulse at which each
    state of ``final`` was stored, in ``final``'s order.

    Each rebuilt row (``chain.descend``) carries a 64-bit hash, the XOR of
    ``_spin_words`` over its set spins, so a row's hash is its source row's
    XOR the flipped spin's word: one ``take`` and a few operations a row,
    whatever the row width.  Hashes are computed from rows only at a
    hand-over and for the final states.  Only the rows whose hash falls in a
    bucket a final state occupies are searched, each row's ``S`` view being
    its key; a key comparison confirms each, so no hash changes the result.
    """
    if not final:
        return {}
    where = {s: j for j, s in enumerate(final)}
    first = np.full(len(final), -1)
    rows = keys = order = occupied = None
    bits = (16 * len(final) - 1).bit_length()  # at least 16 buckets per final state
    shift = np.uint64(64 - bits)  # a hash's bucket is its top bits
    for idx, entry in enumerate(log):
        if type(entry) is list:
            for s in entry:
                j = where.get(s)
                if j is not None and first[j] < 0:
                    first[j] = idx
            continue
        k, codes, source = entry
        if keys is None:
            width = source.shape[1]
            words = _spin_words(width)
            table = _byte_tables(words)
            packed = pack_states(final, 64 * width)
            occupied = np.zeros(1 << bits, bool)
            occupied[_row_hashes(packed, table) >> shift] = True
            keys = packed.view(f"S{8 * width}").ravel()
            del packed
            order = np.argsort(keys)
            keys = keys[order]
        if source is not None:
            rows, hashes = source, _row_hashes(source, table)
        rows, hashes = descend(rows, k, codes), _descend_hashes(hashes, k, codes, words)
        found = rows.take(np.flatnonzero(occupied[hashes >> shift]), axis=0)
        found = found.view(keys.dtype).ravel()
        pos = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
        hit = order[pos[keys[pos] == found]]
        first[hit[first[hit] < 0]] = idx
    return dict(zip(final, first.tolist()))


def _spin_words(width: int) -> np.ndarray:
    """A fixed 64-bit word for each spin of ``width``-word packed rows, the
    splitmix64 finalizer of its index: a row's replay hash is the XOR of
    the words of its set spins."""
    z = np.arange(1, 64 * width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _descend_hashes(hashes: np.ndarray, k: int, codes: np.ndarray, words: np.ndarray):
    """The replay hashes of ``chain.descend(rows, k, codes)`` from ``hashes``,
    those of ``rows``: the source row's, XOR spin k's word where bit k flips."""
    out = hashes.take(codes >> 1)
    out ^= (codes & 1).astype(np.uint64) * words[k]
    return out


def _byte_tables(words: np.ndarray) -> np.ndarray:
    """(B, 256) tables for rows of B bytes: entry [b, v] is the XOR of the
    words of the spins set in value v at byte b.  A row's bytes run most
    significant first, so byte b holds spins 8 (B - 1 - b) to 8 (B - b) - 1.
    Built by doubling, one array operation per bit."""
    by_byte = words.reshape(-1, 8)[::-1]
    table = np.zeros((len(by_byte), 256), np.uint64)
    for bit in range(8):
        np.bitwise_xor(table[:, :1 << bit], by_byte[:, bit, None], out=table[:, 1 << bit:2 << bit])
    return table


def _row_hashes(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The replay hash of each packed row, from its bytes and ``_byte_tables``:
    one table entry per byte, XORed, in chunks of rows that bound the
    (bytes, rows) index array to 256 KB."""
    data = rows.view(np.uint8)
    start = np.arange(0, table.size, 256)[:, None]  # each byte's table in the flat one
    flat = table.ravel()
    out = np.empty(len(rows), np.uint64)
    step = max(1, (1 << 15) // len(start))
    for i in range(0, len(rows), step):
        np.bitwise_xor.reduce(flat.take(data[i:i + step].T + start), axis=0, out=out[i:i + step])
    return out


def _trace_entry(idx: int, shown: View, ref: int) -> TraceEntry:
    amps, leaked, time = shown
    return TraceEntry(idx, time, _probability(amps), leaked, len(amps), amps.get(ref))


def config_fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_report(
    engine: str,
    cfg: ChainConfig,
    protocol: Protocol | None,
    final_amps: dict[int, complex],
    leaked: float,
    time: float,
    generation: dict[int, int],
    *,
    trace: list[TraceEntry] | None = None,
    doubled: bool = False,
    prune_cutoff: float | None = None,
    seed: int | None = None,
) -> RunReport:
    if protocol is not None and not protocol.pulses:
        protocol = None
    fingerprint = config_fingerprint(
        {
            "engine": engine,
            "chain": asdict(cfg),
            "protocol": None if protocol is None else protocol.to_dict(),
            "seed": seed,
            "doubled": doubled,
            "prune_cutoff": prune_cutoff,
        }
    )
    return RunReport(
        engine=engine,
        chain=cfg,
        final_amps=final_amps,
        leaked=leaked,
        time=time,
        generation=generation,
        doubled=doubled,
        prune_cutoff=prune_cutoff,
        seed=seed,
        protocol=protocol,
        trace=trace,
        config_hash=fingerprint,
    )


# -- band structure ----------------------------------------------------------

@dataclass(frozen=True)
class Band:
    count: int
    low: float
    high: float
    median: float


@dataclass(frozen=True)
class BandSummary:
    bands: tuple[Band, ...]
    split_gap: float | None  # decades between the bands, None for one band


def _band_from_logs(logs: list[float]) -> Band:
    logs = sorted(logs)
    n = len(logs)
    median = logs[n // 2] if n % 2 else 0.5 * (logs[n // 2 - 1] + logs[n // 2])
    return Band(
        count=n,
        low=10.0 ** logs[0],
        high=10.0 ** logs[-1],
        median=10.0 ** median,
    )


def band_classify(records: list[UnwantedRecord]) -> BandSummary:
    """Split records into probability bands at the largest log10 gap.

    One band is reported when the largest gap between adjacent sorted
    log-probabilities is under one decade; otherwise the population splits
    into a lower and an upper band at that gap.
    """
    if not records:
        raise ValueError("no records to classify")
    logs = sorted(math.log10(r.probability) for r in records if r.probability > 0)
    if not logs:
        raise ValueError("all record probabilities are zero")
    gap, pos = 0.0, -1
    for i in range(len(logs) - 1):
        g = logs[i + 1] - logs[i]
        if g > gap:
            gap, pos = g, i
    if gap < 1.0 or pos < 0:
        return BandSummary(bands=(_band_from_logs(logs),), split_gap=None)
    lower, upper = logs[: pos + 1], logs[pos + 1 :]
    return BandSummary(
        bands=(_band_from_logs(lower), _band_from_logs(upper)), split_gap=gap
    )


# -- excitation profiles -----------------------------------------------------

def excitation_profiles(records: list[UnwantedRecord], cfg: ChainConfig) -> list[float]:
    """Each record's energy above the all-zeros ground state, in record order:
    the last column of ``records_csv``."""
    ground = basis_energy(0, cfg)
    return [r.energy - ground for r in records]


# -- phase comparison --------------------------------------------------------

@dataclass(frozen=True)
class PhaseDeviation:
    phase_reference: float
    phase_other: float
    deviation: float       # |phase_other - phase_reference|, radians
    relative_deviation: float


def accumulated_reference_phase(report: RunReport) -> float:
    """Unwrapped phase of the reference-state amplitude over the whole run.

    The wrapped per-pulse phase steps from the trace are lifted to the real
    line using the analytic spectator increment of each pulse as the winding
    guide; the true increment stays within half a turn of the guide whenever
    the run is anywhere near its design point.
    """
    if report.trace is None:
        raise ValueError("phase accumulation needs a run recorded with trace=True")
    proto = report.protocol
    if proto is None:
        raise ValueError("phase accumulation needs protocol metadata")
    if len(report.trace) != len(proto.pulses) + 1:
        raise ValueError("trace length does not match protocol length")
    if len(proto.detunings) != len(proto.pulses):
        raise ValueError("phase accumulation needs one detuning per pulse")
    total = 0.0
    prev = report.trace[0].reference_amplitude
    if prev is None or abs(prev) == 0.0:
        raise ValueError("reference amplitude absent at run start")
    for pulse, detuning, entry in zip(proto.pulses, proto.detunings, report.trace[1:]):
        cur = entry.reference_amplitude
        if cur is None or abs(cur) == 0.0:
            raise ValueError(
                f"reference amplitude fell below cutoff at pulse {entry.pulse_index}"
            )
        step = math.atan2(cur.imag, cur.real) - math.atan2(prev.imag, prev.real)
        guide = spectator_phase_increment(pulse.rabi, detuning, pulse.duration)
        step += 2.0 * math.pi * round((guide - step) / (2.0 * math.pi))
        total += step
        prev = cur
    return total


def phase_report(reference: RunReport, other: RunReport) -> PhaseDeviation:
    """Compare the accumulated reference-state phase of two runs.

    Both runs must trace the same protocol shape (same pulse count and
    detunings); they normally differ only in drive strength.  The relative
    deviation is taken against the first run's accumulated phase.
    """
    phi_ref = accumulated_reference_phase(reference)
    phi_other = accumulated_reference_phase(other)
    dev = abs(phi_other - phi_ref)
    rel = dev / abs(phi_ref) if phi_ref != 0.0 else (0.0 if dev == 0.0 else math.inf)
    return PhaseDeviation(
        phase_reference=phi_ref,
        phase_other=phi_other,
        deviation=dev,
        relative_deviation=rel,
    )
