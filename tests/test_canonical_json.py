"""model._json writes what the stdlib writes, byte for byte.

The reference is oracles.stdlib_json, json.dumps(p, sort_keys=True,
indent=2) + "\\n".  The payloads are every kind the package writes (model
documents, suite reports, each CLI command's --json payload) and
hand-written edge cases.  The writer is checked on every Python, also on
those where _json calls the stdlib instead.
"""

from enum import IntEnum

import pytest

from oracles import stdlib_json
from topobelief import cli, model
from topobelief.model import _document, _json
from topobelief.relational import random_belief_frame
from topobelief.suites import DEFAULT_MATRIX, get_suite, run_suite, soundness_batch


class Opaque:
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


def _shared():
    leaf = [1, {"k": "v"}]
    return {"a": leaf, "b": leaf, "c": [leaf, leaf]}


EDGE_CASES = {
    "empty object": {},
    "empty list": [],
    "nested empties": {"object": {}, "list": [], "both": [[], {}, [[]], {"x": {}}]},
    "empties in a list": [[], {}],
    "quotes and backslashes": {'quote " backslash \\ slash /': 'value " \\ /'},
    "control characters": {"c \x00 \x01 \x1f \n \r \t \b \f \x7f": "\x00\x1f\n\t\x7f"},
    "non-ascii": {"caf\u00e9 \u2603 \u00ff": "na\u00efve \u2603 \u0100"},
    "astral": {"astral \U0001d11e \U0001f600": "\U0001d11e\U0001f600 \U0010ffff"},
    "top-level string": "top-level \u00e9 \U0001d11e",
    "bools beside ints": [True, 1, False, 0, None],
    "bools beside ints, as values": {"true": True, "one": 1, "false": False, "zero": 0},
    "null": None,
    "true": True,
    "int": 7,
    "floats": [0.3, 1e-07, -0.0, 1e16],
    "floats, as values": {"float": 0.3, "tiny": 1e-07, "negative zero": -0.0, "large": 1e16},
    "non-finite floats": [float("nan"), float("inf"), float("-inf")],
    "big int": 2**70,
    "big ints": [2**70, -(2**70), {"big": 2**70}],
    "tuples": (1, (2, 3), [4, ()]),
    "strings only": ["b", "a \u00e9", 'q " \\ \n', "\U0001d11e", ""],
    "ints only": [3, -1, 0, 2**70, -(2**70)],
    "a tuple of ints": (0, 1, 2),
    "bools only": [True, False],
    "strings beside ints": ["a", 1, "b", 2],
    "int and str subclasses": [Level.LOW, Level.HIGH, Tag("tag \u00e9"), {"k": [Level.HIGH]}],
    "objects of scalars": [
        {"b": "}", "a": "{", "c": '}, {"x": [1], \n'},
        {"y": None, "x": 1.5, "z": True, "w": -0.0, "v": float("nan"), "u": 2**70},
        {"\u00e9 }": "\U0001d11e {"},
    ],
    "objects of scalars, nested": {"k": [{"r": [{"b": 1, "a": "x"}, {"c": False}]}]},
    "objects of scalars, number keys": [{2: "int", 1.5: "float", False: "bool"}, {None: 0}],
    "objects and an empty object": [{"a": 1}, {}],
    "objects, one holding a list": [{"a": 1}, {"b": [1, "x"]}],
    "objects beside a scalar": [{"a": 1}, 2],
    "key order": {"b": 1, "a": 2, "B": 3, "": 4, "aa": 5, "\u00e9": 6, "\U0001d11e": 7},
    "number keys": {2: "int", 1.5: "float", False: "bool"},
    "null key": {None: "null"},
    "deep": {"deep": [{"deeper": [{"deepest": [1, [2, [3, []]]]}]}]},
    "shared, not cyclic": _shared(),
}

UNSUPPORTED = {
    "object": Opaque(),
    "object in a list": [1, Opaque()],
    "set": {"a": {1, 2}},
    "bytes": {"a": [b"bytes"]},
    "tuple key": {(1, 2): "tuple key"},
    "unorderable keys": {"a": 1, 2: "b"},
    "object of a list of objects": [{"a": Opaque()}],
    "tuple key in a list of objects": [{"a": 1}, {(1, 2): "tuple key"}],
    "unorderable keys in a list of objects": [{"a": 1, 2: "b"}],
}


@pytest.fixture(autouse=True)
def writer(monkeypatch):
    """_json runs its own writer, whatever the Python."""
    monkeypatch.setattr(model, "_C_INDENT", False)


def _same(payload):
    assert _json(payload) == stdlib_json(payload)


@pytest.mark.parametrize("payload", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(payload):
    _same(payload)


@pytest.mark.parametrize("payload", UNSUPPORTED.values(), ids=UNSUPPORTED)
def test_unsupported_payloads_raise_the_stdlib_type_error(payload):
    with pytest.raises(TypeError) as ours:
        _json(payload)
    with pytest.raises(TypeError) as theirs:
        stdlib_json(payload)
    assert str(ours.value) == str(theirs.value)


def _nested(depth, inner):
    """inner inside depth alternating lists and objects."""
    for level in range(depth):
        inner = [level, inner] if level % 2 else {"level": level, "inner": inner}
    return inner


@pytest.mark.parametrize("depth", [0, 40])
def test_a_cycle_raises_the_stdlib_value_error(depth):
    cycle: list = [1]
    cycle.append({"back": cycle})
    for write in (_json, stdlib_json):
        with pytest.raises(ValueError, match="Circular reference detected"):
            write(_nested(depth, cycle))


def test_deep_payloads():
    _same(_nested(100, "leaf"))


def test_model_documents():
    """Every model the standard batch sweeps, and 50 belief frames."""
    models = list(soundness_batch().swept)
    models += [random_belief_frame(seed, 1 + seed % 6) for seed in range(50)]
    for m in models:
        _same(_document(m))


def test_matrix_reports():
    batch = soundness_batch()
    for name, kind, cls in DEFAULT_MATRIX:
        report = run_suite(get_suite(name), batch, semantics=kind, scenario_class=cls)
        _same(report.to_dict())


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "{sierp}", "--scenario", "x=1;U=0,1", "--formula", "B p & !p"],
        ["valid", "--model", "{sierp}", "--formula", "p"],
        ["valid", "--model", "{sierp}", "--formula", "K p -> p"],
        ["countermodel", "--formula", "!box p -> box !box p", "--exhaustive", "3"],
        ["countermodel", "--formula", "K p -> p", "--exhaustive", "3"],
        ["suite", "--name", "sel", "--exhaustive", "2"],
        ["suite", "--name", "kd45_b", "--exhaustive", "0", "--models", "2"],
        ["convert", "--model", "{pin}"],
        ["decompose", "--model", "{pin}"],
        ["enumerate", "--max-n", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_payloads(sierp_path, pin_path, argv):
    paths = {"{sierp}": sierp_path, "{pin}": pin_path}
    args = cli.build_parser().parse_args([paths.get(a, a) for a in argv] + ["--json"])
    _, payload, _ = args.func(args)
    _same(payload)
