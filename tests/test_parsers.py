"""Robustness of the file parsers: whatever the text, only an
:class:`~mpcost.errors.MpcostError` escapes, and what they accept saves
back canonically."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    assignment_from_json,
    assignment_to_json,
    circuit_from_json,
    circuit_to_json,
    gen_biometric,
    gen_chain,
    gen_matmul,
    gen_random,
    profile_from_json,
    profile_to_json,
)
from mpcost.circuit import COMPUTE_OPS
from mpcost.cost_model import measurements_from_json, prices_from_json
from mpcost.errors import MpcostError, ParseError
from mpcost.profiles import builtin_text

#: An int literal no float holds (``float()`` raises ``OverflowError``).
HUGE = 10**400

_MEASUREMENTS = {
    "schemes": ["a", "y"],
    "measurements": [
        {"op": "add", "scheme": "y", "seconds_per_op": 1e-3, "bytes_per_op": 416},
        {"conversion": ["y", "a"], "seconds_per_op": 2e-3, "bytes_per_op": 512},
    ],
}
_PRICES = {"vm_rate_a": 7.0, "vm_rate_b": 7.0, "net_rate": 6.5, "gb_bytes": 10**9}

#: Each parser, a valid document for it, and its writer (``None`` when
#: the format has none).
PARSERS = {
    "circuit": (circuit_from_json,
                json.loads(circuit_to_json(gen_random(3, n_ops=4))),
                circuit_to_json),
    "profile": (profile_from_json, json.loads(builtin_text("inter-m3.medium")),
                profile_to_json),
    "assignment": (assignment_from_json, {"0": "yao", "1": "arithmetic"},
                   assignment_to_json),
    "measurements": (measurements_from_json, _MEASUREMENTS, None),
    "prices": (prices_from_json, _PRICES, None),
}


def _replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    *parents, leaf = path
    target = doc
    for key in parents:
        target = target[key]
    target[leaf] = value
    return doc


def _paths(doc, prefix=()):
    """The path of every value inside ``doc``, containers included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _parse_or_reject(name, text):
    """Parse ``text``; a rejection must be an ``MpcostError``. What the
    parser accepts must save, load and save again to the same text."""
    parse, _, write = PARSERS[name]
    try:
        parsed = parse(text)
    except MpcostError:
        return
    if write is not None:
        saved = write(parsed)
        assert write(parse(saved)) == saved


# --- the two leaks: huge ints and deep nesting --------------------------------------


@pytest.mark.parametrize("name, path", [
    pytest.param(name, path, id=".".join(map(str, (name, *path))))
    for name, path in [
        ("profile", ("scale",)),
        ("profile", ("ops", "add", "yao", "p")),
        ("profile", ("conversions", "yao->arithmetic", "n")),
        ("measurements", ("measurements", 0, "seconds_per_op")),
        ("measurements", ("measurements", 1, "bytes_per_op")),
        ("prices", ("vm_rate_a",)),
        ("prices", ("net_rate",)),
        ("prices", ("gb_bytes",)),
    ]
])
@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["1e400", "-1e400"])
def test_numbers_too_large_for_a_float_are_parse_errors(name, path, value):
    parse, doc, _ = PARSERS[name]
    with pytest.raises(ParseError):
        parse(json.dumps(_replaced(doc, path, value)))


@pytest.mark.parametrize("name", PARSERS)
@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"a":' * 100_000,
    "1" * 5000,  # over the interpreter's int-string digit limit
], ids=["deep-list", "deep-object", "5000-digits"])
def test_hostile_json_is_a_parse_error(name, text):
    with pytest.raises(ParseError):
        PARSERS[name][0](text)


# --- fuzzing -----------------------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([HUGE, -HUGE, 2**63, -(2**63)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
#: Replacements that a hand-written file could plausibly get wrong.
nasty = st.sampled_from([
    HUGE, -HUGE, math.nan, math.inf, -math.inf, True, False, None, 0, -1, 1e308,
    5e-324, "", "yao", [], {}, [[[]]], {"p": {"n": []}},
]) | json_values


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PARSERS)), value=json_values)
def test_parsers_reject_any_json_value_with_mpcost_errors(name, value):
    _parse_or_reject(name, json.dumps(value))


@st.composite
def one_field_replaced(draw):
    name = draw(st.sampled_from(sorted(PARSERS)))
    doc = PARSERS[name][1]
    path = draw(st.sampled_from(list(_paths(doc))))
    return name, json.dumps(_replaced(doc, path, draw(nasty)))


@settings(max_examples=300, deadline=None)
@given(case=one_field_replaced())
def test_parsers_reject_one_bad_field_with_mpcost_errors(case):
    _parse_or_reject(*case)


@st.composite
def generated_circuits(draw):
    bitwidth = draw(st.sampled_from([1, 8, 32, 64]))
    kind = draw(st.sampled_from(["biometric", "matmul", "chain", "random"]))
    if kind == "biometric":
        rows, attrs = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        return gen_biometric(BiometricSpec(rows, attrs, bitwidth))
    if kind == "matmul":
        return gen_matmul(MatMulSpec(draw(st.integers(1, 3)), bitwidth))
    if kind == "chain":
        op = draw(st.sampled_from([op for op in COMPUTE_OPS if op.arity == 2]))
        return gen_chain(op, draw(st.integers(1, 20)), bitwidth)
    return gen_random(draw(st.integers(0, 2**32)), draw(st.integers(1, 30)),
                      bitwidth=bitwidth)


# The bundled profiles' round trip is test_c08's; the fuzz tests above
# round-trip every variant of one that the parser accepts.
@settings(max_examples=60, deadline=None)
@given(circuit=generated_circuits())
def test_generated_circuits_save_load_save_to_the_same_text(circuit):
    text = circuit_to_json(circuit)
    assert circuit_from_json(text) == circuit
    assert circuit_to_json(circuit_from_json(text)) == text


# --- node-id keys ------------------------------------------------------------------

#: Keys that are not a canonical ASCII decimal node id, most of which
#: ``int()`` reads as one, and a key past the interpreter's digit limit.
NON_CANONICAL_IDS = ["1_0", "05", "00", "+3", "-1", " 2", "2 ", "2\n", "",
                     "٢", "２", pytest.param("1" * 5000, id="5000-digits")]


@pytest.mark.parametrize("key", NON_CANONICAL_IDS)
def test_assignment_keys_must_be_canonical_node_ids(key):
    with pytest.raises(ParseError, match="not a node id"):
        assignment_from_json(json.dumps({key: "yao"}))


def test_two_spellings_of_one_node_id_are_rejected():
    with pytest.raises(ParseError, match="'02'"):
        assignment_from_json('{"02": "boolean", "2": "yao"}')


def test_canonical_node_id_keys_parse():
    assert assignment_from_json('{"0": "yao", "10": "boolean"}') == {
        0: "yao", 10: "boolean"}
