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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    CycleDetected,
    DanglingInput,
    InvalidParty,
    MissingInput,
    OutAsInput,
    ParseError,
    UnknownNode,
    ValueOutOfRange,
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


@dataclass(frozen=True)
class Node:
    """One operation instance inside a circuit.

    ``inputs`` lists the ids of the nodes whose results feed this node,
    in positional order (for ``mux``: selector, then-value, else-value).
    ``party`` is metadata naming which side supplies an input node.
    """

    id: int
    op: OpKind
    inputs: tuple[int, ...]
    party: str | None = None
    name: str | None = None


@dataclass(frozen=True)
class Circuit:
    """An immutable, topologically ordered operation DAG."""

    nodes: tuple[Node, ...]
    bitwidth: int = 32

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNode(f"no node with id {node_id}")
        return self.nodes[node_id]

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
        for n in self.nodes:
            for j in n.inputs:
                edges[j].append(n.id)
        return tuple(tuple(e) for e in edges)

    def ops_present(self) -> tuple[OpKind, ...]:
        """Distinct priced operations used by this circuit, in
        :data:`COMPUTE_OPS` order."""
        present = {n.op for n in self.nodes}
        return tuple(op for op in COMPUTE_OPS if op in present)


def _validate(nodes: Sequence[Node], bitwidth: int) -> None:
    if not 1 <= bitwidth <= MAX_BITWIDTH:
        raise ValueError(f"bitwidth must be in 1..{MAX_BITWIDTH}, got {bitwidth}")
    for node in nodes:
        if len(node.inputs) != node.op.arity:
            raise ArityMismatch(
                f"node {node.id}: op {node.op} takes {node.op.arity} "
                f"input(s), got {len(node.inputs)}"
            )
        for j in node.inputs:
            if not 0 <= j < len(nodes):
                raise DanglingInput(f"node {node.id} references unknown id {j}")
            if j >= node.id:
                raise DanglingInput(
                    f"node {node.id} references id {j}, which does not "
                    f"precede it (node list must be topologically ordered)"
                )
            if nodes[j].op is OpKind.OUT:
                raise OutAsInput(f"node {node.id} uses out node {j} as input")
        if node.party is not None:
            if node.op is not OpKind.IN:
                raise InvalidParty(
                    f"node {node.id}: party label only allowed on in nodes"
                )
            if node.party not in PARTIES:
                raise InvalidParty(
                    f"node {node.id}: party must be one of {PARTIES}, "
                    f"got {node.party!r}"
                )


def build(
    entries: Iterable[tuple],
    bitwidth: int = 32,
) -> Circuit:
    """Construct and validate a circuit from ``(op, inputs[, party[, name]])``
    tuples. Ids are assigned densely in iteration order, so each entry may
    only reference entries that came before it.

    ``op`` may be an :class:`OpKind` or its lowercase name.
    """
    nodes: list[Node] = []
    for i, entry in enumerate(entries):
        if not 2 <= len(entry) <= 4:
            raise ValueError(
                f"entry {i}: expected (op, inputs[, party[, name]]), got {entry!r}"
            )
        op = entry[0]
        if isinstance(op, str):
            op = op_from_name(op)
        party = entry[2] if len(entry) > 2 else None
        name = entry[3] if len(entry) > 3 else None
        nodes.append(Node(i, op, tuple(entry[1]), party, name))
    _validate(nodes, bitwidth)
    return Circuit(tuple(nodes), bitwidth)


def topological_order(circuit: Circuit) -> list[int]:
    """Return node ids so that every node appears after all of its inputs.

    Deterministic: among ready nodes the smallest id goes first. For any
    circuit accepted by :func:`build` this is simply ``0..m-1``; the full
    traversal is kept so manually constructed node lists are caught.
    """
    import heapq

    indegree = [len(n.inputs) for n in circuit.nodes]
    ready = [n.id for n in circuit.nodes if indegree[n.id] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in circuit.consumer_edges[i]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(circuit.nodes):
        raise CycleDetected(
            f"only {len(order)} of {len(circuit.nodes)} nodes are reachable "
            f"from the inputs; the graph contains a cycle"
        )
    return order


def evaluate_plaintext(
    circuit: Circuit, inputs: Mapping[int, int]
) -> dict[int, int]:
    """Evaluate the circuit over ``Z_{2**bitwidth}`` and return the value of
    every ``out`` node, keyed by node id.

    ``inputs`` must supply one value per ``in`` node. Semantics: add, sub
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
        if not 0 <= v <= mask:
            raise ValueOutOfRange(
                f"value {v} for in node {i} does not fit in "
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

_NODE_KEYS = {"id", "op", "inputs", "party", "name"}


def _is_int(x) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    for n in circuit.nodes:
        obj: dict = {"id": n.id, "op": n.op.value, "inputs": list(n.inputs)}
        if n.party is not None:
            obj["party"] = n.party
        if n.name is not None:
            obj["name"] = n.name
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
    bitwidth = doc.get("bitwidth", 32)
    if not _is_int(bitwidth) or not 1 <= bitwidth <= MAX_BITWIDTH:
        raise ParseError(f"bitwidth must be an int in 1..{MAX_BITWIDTH}, got {bitwidth!r}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise ParseError("circuit JSON must contain a node list")

    nodes: list[Node] = []
    for i, obj in enumerate(raw_nodes):
        if not isinstance(obj, dict):
            raise ParseError(f"node {i} is not an object")
        extra = set(obj) - _NODE_KEYS
        if extra:
            raise ParseError(f"node {i}: unexpected key(s) {sorted(extra)}")
        for key in ("id", "op", "inputs"):
            if key not in obj:
                raise ParseError(f"node {i}: missing {key!r}")
        if not _is_int(obj["id"]) or obj["id"] != i:
            raise ParseError(
                f"node ids must be dense and ascending; "
                f"expected {i}, got {obj['id']!r}"
            )
        if not isinstance(obj["op"], str):
            raise ParseError(f"node {i}: op must be a string")
        op = op_from_name(obj["op"])
        raw_inputs = obj["inputs"]
        if not isinstance(raw_inputs, list) or not all(
            _is_int(j) for j in raw_inputs
        ):
            raise ParseError(f"node {i}: inputs must be a list of ids")
        party = obj.get("party")
        name = obj.get("name")
        if party is not None and not isinstance(party, str):
            raise ParseError(f"node {i}: party must be a string")
        if name is not None and not isinstance(name, str):
            raise ParseError(f"node {i}: name must be a string")
        nodes.append(Node(i, op, tuple(raw_inputs), party, name))
    _validate(nodes, bitwidth)
    return Circuit(tuple(nodes), bitwidth)


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(circuit_to_json(circuit))


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as f:
        return circuit_from_json(f.read())
