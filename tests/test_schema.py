"""The field tables are complete: every field a writer serializes is declared,
and a value of the wrong kind at any declared leaf is named in the error."""

import copy
import json

import pytest

import spinpulse as sp
from spinpulse import schema
from spinpulse.schema import Field, ListOf, MapOf, Obj, Row
from spinpulse.sparse_engine import SparseState

CFG = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
PROTOCOL = sp.build_cn_protocol(CFG, rabi=0.2, equal_epsilon=False)
# traced and seeded, so every nullable report field holds a value
REPORT = sp.run_protocol(SparseState.from_basis(0), PROTOCOL, CFG, trace=True, seed=3)

KEY, VALUE = "<key>", "<value>"  # steps to a map's first key, and to its value


def leaves(kind, path=()):
    """(path, leaf kind) of every leaf below ``kind``; a path step is a field
    name, a list index, KEY or VALUE."""
    kind = kind.kind if isinstance(kind, Field) else kind
    if isinstance(kind, Obj):
        for name, field in kind.fields.items():
            yield from leaves(field, path + (name,))
    elif isinstance(kind, ListOf):
        yield from leaves(kind.item, path + (0,))
    elif isinstance(kind, Row):
        for i, slot in enumerate(kind.slots):
            yield from leaves(slot, path + (i,))
    elif isinstance(kind, MapOf):
        yield path + (KEY,), kind.key
        yield path + (VALUE,), kind.value
    else:
        yield path, kind


def planted(doc: dict, path: tuple, value):
    """A copy of ``doc`` with ``value`` at ``path``, and the dotted name of
    that field."""
    doc = copy.deepcopy(doc)
    node, where = doc, ""
    for step in path[:-1]:
        where += f"[{step}]" if isinstance(step, int) else f".{step}"
        node = node[step]
    last = path[-1]
    if last in (KEY, VALUE):
        key = next(iter(node))
        if last == KEY:
            node[value] = node.pop(key)
            return doc, f"{where}[{value!r}]".lstrip(".")
        last, where = key, where + f"[{key!r}]"
    else:
        where += f"[{last}]" if isinstance(last, int) else f".{last}"
    node[last] = value
    return doc, where.lstrip(".")


def wrong_kind(leaf):
    # a bool is never an int, a number, a string, a state or a JSON object
    return 1 if leaf is schema.BOOL else True


DOCUMENTS = {
    "report": (schema.REPORT, REPORT.to_dict, sp.RunReport.from_dict),
    "protocol": (schema.PROTOCOL, PROTOCOL.to_dict, sp.Protocol.from_dict),
}
LEAVES = [
    (name, path, leaf)
    for name, (table, _, _) in DOCUMENTS.items()
    for path, leaf in leaves(table)
]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_written_keys_are_the_declared_keys(name):
    table, write, _ = DOCUMENTS[name]
    doc = write()
    assert set(doc) == set(table.fields)
    for pulse in (doc["protocol"] if name == "report" else doc)["pulses"]:
        # older files carry a label and a drive phase, read but never written
        assert set(pulse) == set(schema.PULSE.fields) - {"label", "phase"}


@pytest.mark.parametrize("document, path, leaf", LEAVES,
                         ids=[f"{d}:{'/'.join(map(str, p))}" for d, p, _ in LEAVES])
def test_wrong_kind_at_each_leaf_is_named(document, path, leaf):
    _, write, read = DOCUMENTS[document]
    doc = json.loads(json.dumps(write()))
    read(doc)  # loads as written
    bad, where = planted(doc, path, wrong_kind(leaf))
    with pytest.raises(sp.ConfigError) as info:
        read(bad)
    assert f"{document} field {where} " in str(info.value)
