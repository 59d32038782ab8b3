"""Rectangular rf pulses and ordered pulse sequences (protocols)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError

PROTOCOL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Pulse:
    """One rectangular rf pulse.

    ``frequency`` is the drive frequency, ``rabi`` the drive strength, and
    ``duration`` the length; rabi * duration = pi for a pi-pulse and pi/2
    for a pi/2-pulse.  All three are finite real numbers, rabi and duration
    positive; the frequency may be zero or negative.  Every pulse has drive
    phase zero: no engine models another one.
    """

    frequency: float
    rabi: float
    duration: float
    label: str = ""

    def __post_init__(self):
        for name in ("frequency", "rabi", "duration"):
            value = getattr(self, name)
            if finite_number(value) is None:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.rabi <= 0:
            raise ValueError(f"rabi must be positive, got {self.rabi}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def area(self) -> float:
        return self.rabi * self.duration


@dataclass(frozen=True)
class Protocol:
    """Ordered pulse sequence with optional bookkeeping for gate protocols.

    ``path`` annotates the intended resonant trajectory: path[i] is the basis
    state the on-path amplitude occupies before pulse i, so pulse i moves
    path[i] -> path[i+1].  A run starts at path[0], or at basis state 0
    without a path.  ``detunings`` lists each pulse's detuning from the
    nearest transition of the all-zeros state, which is what the error
    budget and phase bookkeeping need.  Both are empty for ad-hoc sequences.
    """

    pulses: tuple[Pulse, ...]
    gate: str = ""
    path: tuple[int, ...] = ()
    detunings: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.pulses)

    @property
    def initial_state(self) -> int:
        """The basis state a run starts from: path[0], or 0 without a path."""
        return self.path[0] if self.path else 0

    @property
    def target_state(self) -> int | None:
        return self.path[-1] if self.path else None

    def to_dict(self) -> dict:
        return {
            "version": PROTOCOL_FORMAT_VERSION,
            "gate": self.gate,
            "pulses": [
                {
                    "frequency": p.frequency,
                    "rabi": p.rabi,
                    "duration": p.duration,
                    "label": p.label,
                }
                for p in self.pulses
            ],
            "path": [str(s) for s in self.path],
            "detunings": list(self.detunings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Protocol":
        """The protocol of a document as ``to_dict`` writes it; ConfigError
        naming the field if a field is missing or malformed."""
        if not isinstance(data, dict):
            raise ConfigError("protocol must be a JSON object")
        if data.get("version") != PROTOCOL_FORMAT_VERSION:
            raise ConfigError(
                f"unsupported protocol format version {data.get('version')!r}"
            )
        known = {"version", "gate", "pulses", "path", "detunings"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown protocol keys: {sorted(unknown)}")
        try:
            entries = [dict(entry) for entry in data["pulses"]]
        except (KeyError, TypeError, ValueError):
            raise ConfigError("protocol needs 'pulses', a list of pulse objects")
        # Older files carry each pulse's drive phase, which must be zero.
        if any(entry.pop("phase", 0.0) != 0.0 for entry in entries):
            raise ConfigError("non-zero pulse phase is not modelled by any engine")
        try:
            pulses = tuple(Pulse(**entry) for entry in entries)
        except (TypeError, ValueError) as exc:  # a missing or unknown key, or a bad value
            raise ConfigError(f"bad pulse entry: {exc}")
        gate = data.get("gate", "")
        if not isinstance(gate, str):
            raise ConfigError(f"protocol gate must be a string, got {gate!r}")
        return cls(
            pulses=pulses,
            gate=gate,
            path=_entries(data, "path", _basis_state, "non-negative integers"),
            detunings=_entries(data, "detunings", finite_number, "finite numbers"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Protocol":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _basis_state(value) -> int | None:
    """A path entry: a decimal string (as ``to_dict`` writes it) or a non-negative
    int; None otherwise."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    return None


def finite_number(value) -> float | None:
    """A finite real number (not a bool) as a float; None otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


def _entries(data: dict, field: str, parse, kind: str) -> tuple:
    """The list ``data[field]`` (empty if absent), each entry read by ``parse``."""
    values = data.get(field, [])
    if not isinstance(values, list):
        raise ConfigError(f"protocol {field} must be a list, got {values!r}")
    parsed = tuple(map(parse, values))
    if None in parsed:
        bad = values[parsed.index(None)]
        raise ConfigError(f"protocol {field} entries must be {kind}, got {bad!r}")
    return parsed


def as_protocol(pulses: Protocol | list[Pulse] | tuple[Pulse, ...]) -> Protocol:
    """A protocol as is, or a bare pulse sequence wrapped as one."""
    if isinstance(pulses, Protocol):
        return pulses
    return Protocol(pulses=tuple(pulses))
