import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcost import (
    Circuit,
    Node,
    OpKind,
    build,
    circuit_from_json,
    circuit_to_json,
    evaluate_plaintext,
    gen_random,
    load_circuit,
    save_circuit,
)
from mpcost.circuit import MAX_BITWIDTH
from mpcost.errors import (
    ArityMismatch,
    DanglingInput,
    InvalidParty,
    MissingInput,
    MpcostError,
    OutAsInput,
    ParseError,
    UnknownNode,
    ValueOutOfRange,
)


def test_build_minimal_adder(adder):
    assert len(adder.nodes) == 4
    assert adder.in_ids == (0, 1)
    assert adder.out_ids == (3,)
    assert adder.op_node_ids == (2,)
    assert adder.bitwidth == 32


def test_build_allows_same_input_twice():
    c = build([("in", []), ("add", [0, 0]), ("out", [1])])
    assert c.nodes[1].inputs == (0, 0)
    assert c.consumer_edges[0] == (1, 1)


def test_build_rejects_missing_inputs():
    with pytest.raises(DanglingInput):
        build([("add", [0, 1])])


def test_build_rejects_forward_reference():
    with pytest.raises(DanglingInput):
        build([("in", []), ("add", [0, 2]), ("out", [1])])


def test_build_rejects_wrong_arity():
    with pytest.raises(ArityMismatch):
        build([("in", []), ("in", []), ("add", [0, 1, 1])])
    with pytest.raises(ArityMismatch):
        build([("in", []), ("mux", [0, 0])])


def test_build_rejects_out_as_input():
    with pytest.raises(OutAsInput):
        build([("in", []), ("out", [0]), ("out", [1])])


def test_build_party_rules():
    build([("in", [], "server"), ("out", [0])])
    with pytest.raises(InvalidParty):
        build([("in", [], "alice"), ("out", [0])])
    with pytest.raises(InvalidParty):
        build([("in", []), ("in", []), ("add", [0, 1], "server")])


def test_topological_order_property_on_random_circuits():
    for seed in range(50):
        c = gen_random(seed, n_ops=1 + seed % 12)
        for node in c.nodes:
            assert all(j < node.id for j in node.inputs)


def test_cycle_detected_on_manual_construction():
    nodes = (
        Node(0, OpKind.IN, ()),
        Node(1, OpKind.ADD, (2, 0)),
        Node(2, OpKind.ADD, (1, 0)),
    )
    with pytest.raises(DanglingInput, match="does not precede"):
        Circuit(nodes)


@pytest.mark.parametrize("nodes, match", [
    ((Node(0, "in", ()),), "op must be an OpKind"),
    ((Node(False, OpKind.IN, ()),), "dense and ascending"),
    ((Node(0, OpKind.IN, ()), Node(1, OpKind.OUT, (2,)),
      Node(2, OpKind.IN, ())), "does not precede"),
    (((0, OpKind.IN, (), None, None),), "expected a Node, got tuple"),
    ([Node(0, OpKind.IN, ()), Node(1, OpKind.OUT, (0,))],
     "nodes must be a tuple of Nodes, got list"),
    ((n for n in (Node(0, OpKind.IN, ()), Node(1, OpKind.OUT, (0,)))),
     "nodes must be a tuple of Nodes, got generator"),
], ids=["string-op", "bool-id", "forward-reference", "plain-tuple", "list",
        "generator"])
def test_direct_construction_checks_every_rule(nodes, match):
    with pytest.raises(MpcostError, match=match):
        Circuit(nodes)


def test_bools_posing_as_ints_are_rejected_by_build():
    with pytest.raises(ParseError, match="True"):
        build([("in", []), ("in", []), ("add", [0, True]), ("out", [2])])
    with pytest.raises(ParseError, match="bitwidth"):
        build([("in", []), ("out", [0])], bitwidth=True)
    with pytest.raises(ParseError, match="1.0"):
        build([("in", []), ("out", [1.0])])
    with pytest.raises(ParseError, match="name"):
        build([("in", [], None, 5), ("out", [0])])


def test_ints_too_long_to_print_are_rejected_with_mpcost_errors(adder):
    huge = 10**5000  # past the interpreter's int-to-string digit limit
    with pytest.raises(ParseError, match="about 10\\^5000"):
        build([("in", []), ("out", [0])], bitwidth=huge)
    with pytest.raises(ParseError, match="about 10\\^5000"):
        Circuit((Node(huge, OpKind.IN, ()),))
    with pytest.raises(DanglingInput, match="about -10\\^5000"):
        build([("in", []), ("out", [-huge])])
    with pytest.raises(ValueOutOfRange, match="about 10\\^5000"):
        evaluate_plaintext(adder, {0: huge, 1: 0})


def test_build_rejects_malformed_entries():
    for entry in [("in",), ("out", 0), 7, ("in", [], None, None, None),
                  ("out", 10**5000)]:
        with pytest.raises(ParseError, match="expected"):
            build([entry])


def test_evaluate_rejects_values_that_are_not_ints(adder):
    for value in (True, 1.5, "1", None):
        with pytest.raises(ParseError, match="not an integer"):
            evaluate_plaintext(adder, {0: value, 1: 0})


def test_evaluate_adder(adder):
    assert evaluate_plaintext(adder, {0: 7, 1: 5}) == {3: 12}


def test_evaluate_modular_wraparound():
    sub = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    assert evaluate_plaintext(sub, {0: 0, 1: 1}) == {3: 2**32 - 1}
    mul = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    assert evaluate_plaintext(mul, {0: 2**31, 1: 2})[3] == 0


def test_evaluate_comparisons_and_mux():
    ge = build([("in", []), ("in", []), ("ge", [0, 1]), ("out", [2])])
    assert evaluate_plaintext(ge, {0: 5, 1: 5}) == {3: 0}  # strictly greater
    assert evaluate_plaintext(ge, {0: 6, 1: 5}) == {3: 1}
    assert evaluate_plaintext(ge, {0: 5, 1: 6}) == {3: 0}
    eq = build([("in", []), ("in", []), ("eq", [0, 1]), ("out", [2])])
    assert evaluate_plaintext(eq, {0: 9, 1: 9}) == {3: 1}
    assert evaluate_plaintext(eq, {0: 9, 1: 8}) == {3: 0}
    # mux inputs: selector, then-value, else-value
    mux = build([
        ("in", []), ("in", []), ("in", []),
        ("mux", [0, 1, 2]), ("out", [3]),
    ])
    assert evaluate_plaintext(mux, {0: 1, 1: 11, 2: 22}) == {4: 11}
    assert evaluate_plaintext(mux, {0: 0, 1: 11, 2: 22}) == {4: 22}
    assert evaluate_plaintext(mux, {0: 7, 1: 11, 2: 22}) == {4: 11}


def test_evaluate_bitwise_ops():
    c = build([
        ("in", []), ("in", []),
        ("and", [0, 1]), ("xor", [0, 1]),
        ("out", [2]), ("out", [3]),
    ])
    out = evaluate_plaintext(c, {0: 0b1100, 1: 0b1010})
    assert out == {4: 0b1000, 5: 0b0110}


def test_evaluate_input_validation(adder):
    with pytest.raises(MissingInput):
        evaluate_plaintext(adder, {0: 1})
    with pytest.raises(ValueOutOfRange):
        evaluate_plaintext(adder, {0: 2**32, 1: 0})
    with pytest.raises(UnknownNode):
        evaluate_plaintext(adder, {0: 1, 1: 2, 2: 3})
    for key in (True, 1.0):  # equal to in node 1's id, but not an int id
        with pytest.raises(UnknownNode, match=repr(key)):
            evaluate_plaintext(adder, {0: 2, key: 5})


def test_evaluate_respects_custom_bitwidth():
    c = build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])],
              bitwidth=8)
    assert evaluate_plaintext(c, {0: 200, 1: 100}) == {3: 44}
    with pytest.raises(ValueOutOfRange):
        evaluate_plaintext(c, {0: 256, 1: 0})


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=2**32 - 1),
    b=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sub_is_inverse_of_add_mod_2_32(a, b):
    sub = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    diff = evaluate_plaintext(sub, {0: a, 1: b})[3]
    assert (diff + b) % 2**32 == a


def test_json_round_trip_is_identity(adder):
    text = circuit_to_json(adder)
    again = circuit_from_json(text)
    assert again == adder
    assert circuit_to_json(again) == text


def test_json_round_trip_random_circuits():
    for seed in range(25):
        c = gen_random(seed, n_ops=1 + seed % 10)
        text = circuit_to_json(c)
        assert circuit_from_json(text) == c
        assert circuit_to_json(circuit_from_json(text)) == text


def test_json_matches_documented_shape(adder):
    doc = json.loads(circuit_to_json(adder))
    assert list(doc) == ["bitwidth", "nodes"]
    assert doc["nodes"][0] == {"id": 0, "op": "in", "inputs": []}
    assert doc["nodes"][2] == {"id": 2, "op": "add", "inputs": [0, 1]}


def test_save_and_load(tmp_path, adder):
    path = tmp_path / "adder.json"
    save_circuit(adder, path)
    assert load_circuit(path) == adder


def test_parse_rejects_unknown_op():
    with pytest.raises(ParseError, match="div"):
        circuit_from_json('{"bitwidth":32,"nodes":[{"id":0,"op":"div","inputs":[]}]}')


def test_parse_rejects_bad_arity():
    bad = ('{"bitwidth":32,"nodes":['
           '{"id":0,"op":"in","inputs":[]},'
           '{"id":1,"op":"in","inputs":[]},'
           '{"id":2,"op":"in","inputs":[]},'
           '{"id":3,"op":"add","inputs":[0,1,2]}]}')
    with pytest.raises(ArityMismatch):
        circuit_from_json(bad)


def test_parse_rejects_sparse_ids():
    bad = '{"bitwidth":32,"nodes":[{"id":1,"op":"in","inputs":[]}]}'
    with pytest.raises(ParseError):
        circuit_from_json(bad)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ParseError):
        circuit_from_json('{"bitwidth":32,"nodes":[],"extra":1}')
    with pytest.raises(ParseError):
        circuit_from_json(
            '{"bitwidth":32,"nodes":[{"id":0,"op":"in","inputs":[],"color":"red"}]}'
        )


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        circuit_from_json("{not json")


@pytest.mark.parametrize("bitwidth", [0, MAX_BITWIDTH + 1, 10**400],
                         ids=["zero", "max+1", "1e400"])
def test_bitwidth_out_of_range_is_rejected(bitwidth):
    entries = [("in", []), ("out", [0])]
    with pytest.raises(ParseError, match="bitwidth"):
        build(entries, bitwidth=bitwidth)
    text = circuit_to_json(build(entries)).replace(
        '"bitwidth":32', f'"bitwidth":{bitwidth}')
    with pytest.raises(ParseError, match="bitwidth"):
        circuit_from_json(text)


def test_widest_bitwidth_loads_and_evaluates():
    wide = build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])],
                 bitwidth=MAX_BITWIDTH)
    assert circuit_from_json(circuit_to_json(wide)) == wide
    top = 2**MAX_BITWIDTH - 1
    assert evaluate_plaintext(wide, {0: top, 1: 2})[3] == 1


@pytest.mark.parametrize("field", ["bitwidth", "id", "inputs"])
def test_parse_rejects_bools_posing_as_ints(field):
    doc = {"bitwidth": 32, "nodes": [
        {"id": 0, "op": "in", "inputs": []},
        {"id": 1, "op": "out", "inputs": [0]},
    ]}
    if field == "bitwidth":
        doc["bitwidth"] = True
    elif field == "id":
        doc["nodes"][0]["id"] = False
    else:
        doc["nodes"][1]["inputs"] = [False]
    with pytest.raises(ParseError):
        circuit_from_json(json.dumps(doc))
