"""The fields of the three JSON documents, and the one checker that reads them.

A run config (``CONFIG``), a protocol file (``PROTOCOL``) and a run report
(``REPORT``) are each one table of fields: each field's kind, its bound, and
whether it may be absent or null.  ``check`` walks a document along its table
and raises ConfigError naming the first malformed field by its dotted path
(``gate.rabi``, ``pulses[2].frequency``); unknown keys are rejected.  The
owning modules build their objects from a checked document, and check the
rules that tie one field to another.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .chain import ChainConfig
from .exceptions import ConfigError

CONFIG_VERSION = 1
PROTOCOL_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 2


class Invalid(Exception):
    """A malformed value; each enclosing container adds its step to ``path``."""

    def __init__(self, problem: str):
        self.problem, self.path = problem, []

    def at(self, step: str) -> "Invalid":
        self.path.append(step)
        return self


def read_json(path: str | Path, document: str):
    """The JSON value in the file at ``path``; ConfigError naming
    ``document`` if the file is missing or does not hold JSON."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{document} file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{document} is not valid JSON: {exc}")


def check(value, kind, document: str) -> None:
    """Check ``value`` against ``kind``; ConfigError naming ``document`` and
    the malformed field."""
    try:
        kind.check(value)
    except Invalid as bad:
        where = "".join(reversed(bad.path)).lstrip(".")
        raise ConfigError(f"{document} field {where} {bad.problem}" if where
                          else f"{document} {bad.problem}") from None


def finite_number(value) -> bool:
    """Whether ``value`` is a finite real number (not a bool)."""
    if value.__class__ is float:  # the common case, tested first
        return -math.inf < value < math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# -- kinds -------------------------------------------------------------------

class Leaf:
    """A JSON value that passes ``test``, as ``name`` says; a test that raises
    (a constructor refusing its arguments) gives its own message."""

    def __init__(self, name: str, test):
        self.name, self.test = name, test

    def check(self, value) -> None:
        try:
            ok = self.test(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise Invalid(f"is malformed: {exc}") from None
        if not ok:
            raise Invalid(f"must be {self.name}, got {value!r}")


def bounded(leaf: Leaf, words: str, holds) -> Leaf:
    """``leaf`` restricted to the values for which ``holds`` is true."""
    test = leaf.test
    return Leaf(f"{leaf.name} ({words})", lambda v: test(v) and holds(v))


def one_of(noun: str, *values) -> Leaf:
    return Leaf(f"a {noun}, one of {list(values)}",
                lambda v: not isinstance(v, bool) and v in values)


def built_by(cls: type) -> Leaf:
    """A JSON object of ``cls``'s keyword arguments, checked by its constructor."""
    return Leaf(f"an object of {cls.__name__} fields",
                lambda v: isinstance(v, dict) and cls(**v) is not None)


def _is_state(v) -> bool:
    if v.__class__ is str:  # as the writers store a state
        return v.isdigit() and v.isascii()
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


BOOL = Leaf("true or false", lambda v: v is True or v is False)
INT = Leaf("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NUMBER = Leaf("a finite number", finite_number)
STRING = Leaf("a string", lambda v: isinstance(v, str))
STATE = Leaf("a basis state (a non-negative integer or its decimal string)", _is_state)
POSITIVE_NUMBER = bounded(NUMBER, "positive", lambda v: v > 0)
POSITIVE_INT = bounded(INT, "positive", lambda v: v > 0)
NON_NEGATIVE_INT = bounded(INT, "non-negative", lambda v: v >= 0)


class Field:
    """An object's field or a row's slot: its kind, whether it may be absent
    (objects only) and whether it may be null."""

    def __init__(self, kind, optional: bool = False, nullable: bool = False):
        self.kind, self.optional, self.nullable = kind, optional, nullable
        self.check = self._or_null if nullable else kind.check

    def _or_null(self, value) -> None:
        if value is not None:
            self.kind.check(value)


def optional(kind, nullable: bool = False) -> Field:
    return Field(kind, optional=True, nullable=nullable)


class Obj:
    """A JSON object of named fields; any other key is rejected."""

    def __init__(self, fields: dict):
        self.fields = {k: f if isinstance(f, Field) else Field(f) for k, f in fields.items()}

    def check(self, value) -> None:
        if not isinstance(value, dict):
            raise Invalid(f"must be a JSON object, got {value!r}")
        if value.keys() - self.fields:
            raise Invalid(f"has unknown keys {sorted(value.keys() - self.fields)}")
        try:
            for name, field in self.fields.items():
                if name in value:
                    field.check(value[name])
                elif not field.optional:
                    raise Invalid("is missing")
        except Invalid as bad:
            raise bad.at(f".{name}")


class ListOf:
    """A JSON list of items of one kind."""

    def __init__(self, item, nonempty: bool = False):
        self.item, self.nonempty = item, nonempty

    def check(self, value) -> None:
        if not isinstance(value, list) or self.nonempty and not value:
            raise Invalid(f"must be a {'non-empty ' * self.nonempty}list, got {value!r}")
        check_item = self.item.check
        try:
            for i, item in enumerate(value):
                check_item(item)
        except Invalid as bad:
            raise bad.at(f"[{i}]")


class Row:
    """A JSON list of fixed length, one field per slot."""

    def __init__(self, *slots):
        self.slots = [s if isinstance(s, Field) else Field(s) for s in slots]
        self.checks = [slot.check for slot in self.slots]

    def check(self, value) -> None:
        if not isinstance(value, list) or len(value) != len(self.checks):
            raise Invalid(f"must be a list of {len(self.checks)} entries, got {value!r}")
        try:
            for i, item in enumerate(value):
                self.checks[i](item)
        except Invalid as bad:
            raise bad.at(f"[{i}]")


class MapOf:
    """A JSON object from keys of one kind to values of another."""

    def __init__(self, key, value):
        self.key, self.value = key, value

    def check(self, value) -> None:
        if not isinstance(value, dict):
            raise Invalid(f"must be a JSON object, got {value!r}")
        check_key, check_value = self.key.check, self.value.check
        try:
            for key, item in value.items():
                check_key(key)
                check_value(item)
        except Invalid as bad:
            raise bad.at(f"[{key!r}]")


class ListOrObj:
    """Either a list of one kind or an object of another."""

    def __init__(self, items: ListOf, obj: Obj):
        self.items, self.obj = items, obj

    def check(self, value) -> None:
        if not isinstance(value, (list, dict)):
            raise Invalid(f"must be a list or an object, got {value!r}")
        (self.items if isinstance(value, list) else self.obj).check(value)


# -- the three documents -----------------------------------------------------

# A list of values, or a range of ``points`` values from ``start`` to ``stop``.
AXIS = ListOrObj(ListOf(POSITIVE_NUMBER, nonempty=True), Obj({
    "start": NUMBER, "stop": NUMBER, "points": bounded(INT, "at least 2", lambda v: v >= 2),
    "scale": optional(one_of("axis scale", "linear", "log")),
}))

DRIVE = {"rabi": optional(POSITIVE_NUMBER, nullable=True),
         "k": optional(POSITIVE_INT, nullable=True)}

CONFIG = Obj({
    "version": one_of("config version", CONFIG_VERSION),
    "chain": built_by(ChainConfig),
    "gate": optional(Obj({
        "type": optional(one_of("gate type", "cn")), **DRIVE, "equal_epsilon": optional(BOOL),
    })),
    "protocol_file": optional(STRING),
    "engine": optional(Obj({
        "max_qubits": optional(POSITIVE_INT),
        "step": optional(POSITIVE_NUMBER, nullable=True),
        "norm_tol": optional(POSITIVE_NUMBER),
    })),
    "report": optional(Obj({"doubled_probabilities": optional(BOOL), "trace": optional(BOOL)})),
    "seed": optional(INT),
    "jitter": optional(Obj({
        "first": INT, "last": INT, "bound": bounded(NUMBER, "non-negative", lambda v: v >= 0),
    })),
    "sweep": optional(Obj({"spacings": AXIS, "rabis": AXIS, "threshold": POSITIVE_NUMBER})),
    "compare": optional(Obj({
        "vary": one_of("compare axis", "spacing", "rabi"), "values": AXIS, **DRIVE,
    })),
})

PULSE = Obj({
    "frequency": NUMBER,
    "rabi": POSITIVE_NUMBER,
    "duration": POSITIVE_NUMBER,
    "label": optional(STRING),
    # Older files carry each pulse's drive phase, which only reads back if zero.
    "phase": optional(bounded(NUMBER, "zero: no engine models a drive phase",
                              lambda v: v == 0)),
})

PROTOCOL = Obj({
    "version": one_of("protocol format version", PROTOCOL_FORMAT_VERSION),
    "gate": optional(STRING),
    "pulses": ListOf(PULSE),
    "path": optional(ListOf(STATE)),
    "detunings": optional(ListOf(NUMBER)),
})

REPORT = Obj({
    # Version 1 stored the whole first-crossing ledger and no config hash.
    "version": one_of("report format version", 1, REPORT_FORMAT_VERSION),
    "engine": one_of("run engine", "perturbative", "exact", "classical"),
    "chain": built_by(ChainConfig),
    "final_amps": ListOf(Row(STATE, NUMBER, NUMBER)),
    "leaked": NUMBER,
    "time": NUMBER,
    "generation": MapOf(STATE, NON_NEGATIVE_INT),
    "doubled": BOOL,
    "prune_cutoff": optional(NUMBER, nullable=True),
    "seed": optional(INT, nullable=True),
    "protocol": optional(PROTOCOL, nullable=True),
    # Rows [pulse, time, norm, leaked, n_states, reference amplitude [re, im]].
    "trace": optional(ListOf(Row(INT, NUMBER, NUMBER, NUMBER, INT,
                                 Field(Row(NUMBER, NUMBER), nullable=True))), nullable=True),
    "config_hash": optional(STRING, nullable=True),
})
