"""Rectangular rf pulses and ordered pulse sequences (protocols)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .schema import PROTOCOL, PROTOCOL_FORMAT_VERSION, check, finite_number, read_json


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
            if not finite_number(value):
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
        naming the field if a field is missing or malformed (``schema.PROTOCOL``)."""
        check(data, PROTOCOL, "protocol")
        return cls.from_checked(data)

    @classmethod
    def from_checked(cls, data: dict) -> "Protocol":
        """The protocol of a document that ``schema.PROTOCOL`` has checked."""
        return cls(
            pulses=tuple(Pulse(**{k: v for k, v in p.items() if k != "phase"})
                         for p in data["pulses"]),
            gate=data.get("gate", ""),
            path=tuple(map(int, data.get("path", ()))),
            detunings=tuple(map(float, data.get("detunings", ()))),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Protocol":
        return cls.from_dict(read_json(path, "protocol"))


def as_protocol(pulses: Protocol | list[Pulse] | tuple[Pulse, ...]) -> Protocol:
    """A protocol as is, or a bare pulse sequence wrapped as one."""
    if isinstance(pulses, Protocol):
        return pulses
    return Protocol(pulses=tuple(pulses))
