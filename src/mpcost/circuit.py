"""Circuit intermediate representation: a DAG of word-level operations.

A circuit is an ordered list of nodes. Each node applies one operation
to the results of earlier nodes; ``in`` nodes introduce secret inputs
and ``out`` nodes mark values revealed at the end of the protocol.
The node list is required to be topologically ordered (a node may only
reference nodes with smaller ids), which keeps id-based references
unambiguous and makes plaintext evaluation a single forward pass.

All values are unsigned integers reduced mod ``2**bitwidth``. Circuits
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property

from .errors import (
    ArityMismatch,
    DanglingInput,
    InvalidArgument,
    InvalidParty,
    MissingInput,
    OutAsInput,
    ParseError,
    UnknownNode,
    ValueOutOfRange,
    _shown,
)


class OpKind(Enum):
    """Word-level operations a node may perform."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    XOR = "xor"
    MUX = "mux"
    EQ = "eq"
    GE = "ge"
    IN = "in"
    OUT = "out"

    # Members are singletons that compare by identity, so an identity hash
    # is consistent with equality and skips Enum's Python-level __hash__ on
    # every cost-table lookup.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return _ARITY[self]

    def __str__(self) -> str:  # nicer error messages
        return self.value


_ARITY = {
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MUL: 2,
    OpKind.AND: 2,
    OpKind.XOR: 2,
    OpKind.MUX: 3,
    OpKind.EQ: 2,
    OpKind.GE: 2,
    OpKind.IN: 0,
    OpKind.OUT: 1,
}

#: Operations that carry a price tag (everything except in/out).
COMPUTE_OPS = (
    OpKind.ADD,
    OpKind.SUB,
    OpKind.MUL,
    OpKind.AND,
    OpKind.XOR,
    OpKind.MUX,
    OpKind.EQ,
    OpKind.GE,
)

PARTIES = ("server", "client")
#: Widest word a circuit may declare; evaluation masks with ``2**bitwidth``.
MAX_BITWIDTH = 4096

_OP_BY_NAME = {op.value: op for op in OpKind}


def op_from_name(name: str) -> OpKind:
    """Look up an operation by its lowercase wire name, e.g. ``"add"``."""
    try:
        return _OP_BY_NAME[name]
    except KeyError:
        raise ParseError(f"unknown op {name!r}") from None


class _Value:
    """Base of every value class of mpcost: :class:`Circuit`,
    ``CostProfile``, ``CostReport``, ``SolverLimits``, ``BiometricSpec``,
    ``MatMulSpec``, ``PriceSpec`` and ``RawMeasurement``. It stands in for
    a frozen dataclass: importing :mod:`dataclasses` costs every process
    about 13 ms, and building each such class 1.4 ms (Python 3.11,
    2-vCPU x86-64 VM).

    ``__init__`` stores the fields with :meth:`_store`; after that no
    attribute can be set or deleted (``functools.cached_property`` writes
    the instance ``__dict__`` directly). Two instances of one class are
    equal, hash and print by the fields named in ``_compared``. A class
    whose compared fields hold dicts does not hash: ``hash`` of a
    ``CostProfile`` raises ``TypeError``, as its ``op_costs`` and
    ``conversions`` are dicts."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _store(self, **fields) -> None:
        self.__dict__.update(fields)

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={self.__dict__[name]!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Node(namedtuple("Node", "id op inputs party name", defaults=(None, None))):
    """One operation instance inside a circuit (an immutable named tuple).

    ``id`` is an ``int`` and ``op`` an :class:`OpKind`. ``inputs`` is a
    tuple of the ids of the nodes whose results feed this node, in
    positional order (for ``mux``: selector, then-value, else-value).
    ``party`` (``str`` or ``None``) is metadata naming which side supplies
    an input node; ``name`` is an optional label.
    """

    __slots__ = ()


class Circuit(_Value):
    """An immutable, topologically ordered operation DAG. However it is
    made, construction checks every rule of one (:func:`_validate`).

    Facts that depend on the nodes alone are derived on first read and
    kept: each node's op (:attr:`node_ops`) and input ids
    (:attr:`node_inputs`), the in, out and priced node ids, each node's
    consumer edges, the priced op set (:meth:`ops_present`) and the count
    of each priced op (:attr:`op_counts`). So every
    strategy call on one circuit shares them. Each is one tuple of at
    most one entry per node or edge, made once per circuit. Sharing is
    safe: the nodes never change, so two threads that derive one fact
    at once store equal tuples, and none of them enters equality, hash
    or ``repr``."""

    nodes: tuple[Node, ...]
    bitwidth: int
    _compared = ("nodes", "bitwidth")

    def __init__(self, nodes: tuple[Node, ...], bitwidth: int = 32):
        _validate(nodes, bitwidth)
        self._store(nodes=nodes, bitwidth=bitwidth)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_ops(self) -> tuple[OpKind, ...]:
        """Each node's operation, in id order: read once per circuit, as a
        named tuple's field read costs about twice a dataclass's."""
        return tuple([n.op for n in self.nodes])

    @cached_property
    def node_inputs(self) -> tuple[tuple[int, ...], ...]:
        """Each node's input ids, in id order (see :attr:`node_ops`)."""
        return tuple([n.inputs for n in self.nodes])

    @cached_property
    def in_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.op is OpKind.IN)

    @cached_property
    def out_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.op is OpKind.OUT)

    @cached_property
    def op_node_ids(self) -> tuple[int, ...]:
        """Ids of nodes that perform a priced operation (not in/out)."""
        return tuple(
            n.id for n in self.nodes if n.op not in (OpKind.IN, OpKind.OUT)
        )

    @cached_property
    def consumer_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each node id, the ids of nodes consuming it, one entry per
        edge (a node reading the same input twice appears twice)."""
        edges: list[list[int]] = [[] for _ in self.nodes]
        for i, n in enumerate(self.nodes):
            for j in n.inputs:
                edges[j].append(i)
        return tuple(tuple(e) for e in edges)

    def ops_present(self) -> tuple[OpKind, ...]:
        """Distinct priced operations used by this circuit, in
        :data:`COMPUTE_OPS` order."""
        return self._ops_present

    @cached_property
    def _ops_present(self) -> tuple[OpKind, ...]:
        return tuple([op for op, _ in self.op_counts])

    @cached_property
    def op_counts(self) -> tuple[tuple[OpKind, int], ...]:
        """``(op, count)`` per priced operation the circuit uses, in
        :data:`COMPUTE_OPS` order: how many nodes run it."""
        counts = Counter(self.node_ops)
        return tuple([(op, counts[op]) for op in COMPUTE_OPS if op in counts])


def _is_int(x) -> bool:
    """An integer: ``bool`` is an ``int`` subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_count(name: str, x) -> None:
    """Raise :class:`~mpcost.errors.InvalidArgument` unless ``x`` is an
    ``int``, not a ``bool``, of at least 1."""
    if not (_is_int(x) and x >= 1):
        raise InvalidArgument(f"{name} must be an int of at least 1, got {_shown(x)}")


def _check_bitwidth(x, error=InvalidArgument) -> None:
    """Raise ``error`` unless ``x`` is an ``int``, not a ``bool``, in 1..MAX_BITWIDTH."""
    if not (_is_int(x) and 1 <= x <= MAX_BITWIDTH):
        raise error(f"bitwidth must be an int in 1..{MAX_BITWIDTH}, got {_shown(x)}")


def _validate(nodes: tuple[Node, ...], bitwidth: int) -> None:
    """Raise on the first broken rule of a circuit, in one pass in id order."""
    _check_bitwidth(bitwidth, ParseError)
    in_, out = OpKind.IN, OpKind.OUT  # locals: an enum member read is slow
    for i, node in enumerate(nodes):
        if not isinstance(node, Node):
            raise ParseError(f"node {i}: expected a Node, got {type(node).__name__}")
        node_id, op, inputs, party, name = node
        if not _is_int(node_id) or node_id != i:
            raise ParseError(
                f"node ids must be dense and ascending; "
                f"expected {i}, got {_shown(node_id)}"
            )
        if not isinstance(op, OpKind):
            raise ParseError(f"node {i}: op must be an OpKind, got {_shown(op)}")
        if not isinstance(inputs, tuple):
            raise ParseError(f"node {i}: inputs must be a tuple of ids")
        if len(inputs) != op.arity:
            raise ArityMismatch(
                f"node {i}: op {op} takes {op.arity} "
                f"input(s), got {len(inputs)}"
            )
        for j in inputs:
            if not _is_int(j):
                raise ParseError(f"node {i}: input {j!r} is not a node id")
            if not 0 <= j < len(nodes):
                raise DanglingInput(f"node {i} references unknown id {_shown(j)}")
            if j >= i:
                raise DanglingInput(
                    f"node {i} references id {j}, which does not "
                    f"precede it (node list must be topologically ordered)"
                )
            if nodes[j].op is out:
                raise OutAsInput(f"node {i} uses out node {j} as input")
        if party is not None:
            if op is not in_:
                raise InvalidParty(f"node {i}: party label only allowed on in nodes")
            if party not in PARTIES:
                raise InvalidParty(
                    f"node {i}: party must be one of {PARTIES}, "
                    f"got {_shown(party)}"
                )
        if name is not None and not isinstance(name, str):
            raise ParseError(f"node {i}: name must be a string")


def build(
    entries: Iterable[tuple],
    bitwidth: int = 32,
) -> Circuit:
    """Construct a circuit from ``(op, inputs[, party[, name]])`` tuples.
    Ids are assigned densely in iteration order, so each entry may only
    reference entries that came before it.

    ``op`` may be an :class:`OpKind` or its lowercase name.
    """
    nodes: list[Node] = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (tuple, list)) and 2 <= len(entry) <= 4
                and isinstance(entry[1], (tuple, list))):
            raise ParseError(f"entry {i}: expected (op, inputs[, party[, name]])")
        op = entry[0]
        if isinstance(op, str):
            op = op_from_name(op)
        nodes.append(Node(i, op, tuple(entry[1]), *entry[2:]))
    return Circuit(tuple(nodes), bitwidth)


def evaluate_plaintext(
    circuit: Circuit, inputs: Mapping[int, int]
) -> dict[int, int]:
    """Evaluate the circuit over ``Z_{2**bitwidth}`` and return the value of
    every ``out`` node, keyed by node id.

    ``inputs`` must supply one int per ``in`` node. Semantics: add, sub
    and mul wrap modulo ``2**bitwidth``; and/xor are bitwise; ``eq`` yields
    1 when its operands are equal; ``ge`` yields 1 when the first operand
    is strictly greater (unsigned); ``mux(sel, a, b)`` yields ``a`` when
    the selector is nonzero, otherwise ``b``.
    """
    mask = (1 << circuit.bitwidth) - 1
    in_set = set(circuit.in_ids)
    for key in inputs:
        if key not in in_set:
            raise UnknownNode(f"id {key} is not an in node of this circuit")
    for i in circuit.in_ids:
        if i not in inputs:
            raise MissingInput(f"no value supplied for in node {i}")
        v = inputs[i]
        if not _is_int(v):
            raise ParseError(f"value {v!r} for in node {i} is not an integer")
        if not 0 <= v <= mask:
            raise ValueOutOfRange(
                f"value {_shown(v)} for in node {i} does not fit in "
                f"{circuit.bitwidth} bits"
            )

    values: list[int] = [0] * len(circuit.nodes)
    outputs: dict[int, int] = {}
    for node in circuit.nodes:  # node order is topological by construction
        op = node.op
        ins = node.inputs
        if op is OpKind.IN:
            v = inputs[node.id]
        elif op is OpKind.ADD:
            v = (values[ins[0]] + values[ins[1]]) & mask
        elif op is OpKind.SUB:
            v = (values[ins[0]] - values[ins[1]]) & mask
        elif op is OpKind.MUL:
            v = (values[ins[0]] * values[ins[1]]) & mask
        elif op is OpKind.AND:
            v = values[ins[0]] & values[ins[1]]
        elif op is OpKind.XOR:
            v = values[ins[0]] ^ values[ins[1]]
        elif op is OpKind.EQ:
            v = 1 if values[ins[0]] == values[ins[1]] else 0
        elif op is OpKind.GE:
            v = 1 if values[ins[0]] > values[ins[1]] else 0
        elif op is OpKind.MUX:
            v = values[ins[1]] if values[ins[0]] != 0 else values[ins[2]]
        else:  # OUT
            v = values[ins[0]]
            outputs[node.id] = v
        values[node.id] = v
    return outputs


def inputs_by_name(circuit: Circuit) -> dict[str, int]:
    """Map the names of named ``in`` nodes to their ids."""
    return {
        n.name: n.id
        for n in circuit.nodes
        if n.op is OpKind.IN and n.name is not None
    }


# --- JSON wire format -----------------------------------------------------
#
# {"bitwidth":32,"nodes":[{"id":0,"op":"in","inputs":[],"party":"client"},...]}
#
# Op names are lowercase; ids are dense and ascending; "party" and "name"
# are omitted when absent. ``circuit_to_json`` is canonical: re-encoding a
# loaded circuit reproduces the file byte for byte.

_NODE_KEYS = frozenset({"id", "op", "inputs", "party", "name"})


def parse_json(text: str, what: str):
    """The JSON document in ``text``. Every way malformed input makes
    :func:`json.loads` fail raises :class:`ParseError` naming ``what``:
    bad syntax, an integer literal longer than the interpreter's digit
    limit (``ValueError``) and nesting deeper than its recursion limit
    (``RecursionError``)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid {what} JSON: {e}") from None


def parse_node_id(key: str, what: str) -> int:
    """The node id named by ``key``, a key of a ``what`` JSON object.

    Only canonical ASCII decimal ids pass (``"0"``, ``"12"``; not ``"012"``,
    ``"+3"``, ``" 2"`` or ``"1_0"``), so no two keys name one node. Any
    other key, and one longer than the interpreter's digit limit, raises
    :class:`ParseError`.
    """
    if key.isascii() and key.isdigit() and (key == "0" or key[0] != "0"):
        try:
            return int(key)
        except ValueError:  # past the digit limit
            pass
    raise ParseError(f"{what} key {key!r} is not a node id")


def circuit_to_json(circuit: Circuit) -> str:
    nodes = []
    for i, op, inputs, party, name in circuit.nodes:
        obj: dict = {"id": i, "op": op.value, "inputs": list(inputs)}
        if party is not None:
            obj["party"] = party
        if name is not None:
            obj["name"] = name
        nodes.append(obj)
    doc = {"bitwidth": circuit.bitwidth, "nodes": nodes}
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"


def circuit_from_json(text: str) -> Circuit:
    doc = parse_json(text, "circuit")
    if not isinstance(doc, dict):
        raise ParseError("circuit JSON must be an object")
    extra = set(doc) - {"bitwidth", "nodes"}
    if extra:
        raise ParseError(f"unexpected circuit key(s): {sorted(extra)}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise ParseError("circuit JSON must contain a node list")

    nodes: list[Node] = []
    for i, obj in enumerate(raw_nodes):
        if not isinstance(obj, dict):
            raise ParseError(f"node {i} is not an object")
        if not obj.keys() <= _NODE_KEYS:
            raise ParseError(
                f"node {i}: unexpected key(s) {sorted(obj.keys() - _NODE_KEYS)}")
        try:  # the first missing key, in this order, is the one reported
            node_id, op, inputs = obj["id"], obj["op"], obj["inputs"]
        except KeyError as e:
            raise ParseError(f"node {i}: missing {e.args[0]!r}") from None
        if not isinstance(op, str):
            raise ParseError(f"node {i}: op must be a string")
        if not isinstance(inputs, list):
            raise ParseError(f"node {i}: inputs must be a list of ids")
        nodes.append(Node(node_id, op_from_name(op), tuple(inputs),
                          obj.get("party"), obj.get("name")))
    return Circuit(tuple(nodes), doc.get("bitwidth", 32))


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(circuit_to_json(circuit))


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as f:
        return circuit_from_json(f.read())
