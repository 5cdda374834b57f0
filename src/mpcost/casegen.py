"""Circuit generators: the two case studies, benchmark chains, and seeded
random DAGs for property tests.

The biometric-matching circuit scores a client record against every row
of a server dataset by squared Euclidean distance and folds the rows
down to the minimal distance and its row index. The matrix product
circuit is the schoolbook n^3 algorithm. Both come with input-packing
helpers so a generated circuit can be fed straight into the plaintext
evaluator.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence

from .circuit import (COMPUTE_OPS, Circuit, OpKind, _check_bitwidth, _check_count,
                      _Value, build)
from .cost_model import _is_finite
from .errors import InvalidArgument, NonBinaryOp, _shown


class BiometricSpec(_Value):
    """Dataset shape for biometric matching: ``rows`` server records with
    ``attrs`` attributes each. Each is an ``int`` (not a ``bool``) of at
    least 1, and ``bitwidth`` one in ``1..MAX_BITWIDTH``, else
    :class:`~mpcost.errors.InvalidArgument`."""

    rows: int
    attrs: int
    bitwidth: int
    _compared = ("rows", "attrs", "bitwidth")

    def __init__(self, rows: int = 30, attrs: int = 5, bitwidth: int = 32):
        _check_count("rows", rows)
        _check_count("attrs", attrs)
        _check_bitwidth(bitwidth)
        self._store(rows=rows, attrs=attrs, bitwidth=bitwidth)


class MatMulSpec(_Value):
    """Operand shape for the matrix product: two n-by-n matrices, ``n``
    an ``int`` (not a ``bool``) of at least 1 and ``bitwidth`` one in
    ``1..MAX_BITWIDTH``, else :class:`~mpcost.errors.InvalidArgument`."""

    n: int
    bitwidth: int
    _compared = ("n", "bitwidth")

    def __init__(self, n: int = 5, bitwidth: int = 32):
        _check_count("n", n)
        _check_bitwidth(bitwidth)
        self._store(n=n, bitwidth=bitwidth)


def gen_biometric(spec: BiometricSpec) -> Circuit:
    """Build the biometric matching circuit.

    Inputs: the server's ``rows x attrs`` dataset, the client's ``attrs``
    record, and one server-held constant per row carrying its index. Per
    row the distance is ``sum((s_k - c_k)^2)``; rows are folded with a
    strictly-greater comparison and two multiplexers so that on ties the
    earlier row wins. Two outputs: the minimal distance (``min_dist``)
    and its row index (``min_index``).
    """
    # The server's value (r, k) is node r * attrs + k.
    entries: list[tuple] = [
        (OpKind.IN, [], "server", f"s[{r},{k}]")
        for r in range(spec.rows) for k in range(spec.attrs)
    ]
    client = []
    for k in range(spec.attrs):
        client.append(len(entries))
        entries.append((OpKind.IN, [], "client", f"c[{k}]"))
    index_const = []
    for r in range(spec.rows):
        index_const.append(len(entries))
        entries.append((OpKind.IN, [], "server", f"idx[{r}]"))

    dist = []
    for r in range(spec.rows):
        subs = []
        for k in range(spec.attrs):
            subs.append(len(entries))
            entries.append((OpKind.SUB, [r * spec.attrs + k, client[k]]))
        squares = []
        for k in range(spec.attrs):
            squares.append(len(entries))
            entries.append((OpKind.MUL, [subs[k], subs[k]]))
        acc = squares[0]
        for k in range(1, spec.attrs):
            nxt = len(entries)
            entries.append((OpKind.ADD, [acc, squares[k]]))
            acc = nxt
        dist.append(acc)

    min_dist = dist[0]
    min_index = index_const[0]
    for r in range(1, spec.rows):
        # ge = 1 when the running minimum is strictly above row r
        ge = len(entries)
        entries.append((OpKind.GE, [min_dist, dist[r]]))
        new_dist = len(entries)
        entries.append((OpKind.MUX, [ge, dist[r], min_dist]))
        new_index = len(entries)
        entries.append((OpKind.MUX, [ge, index_const[r], min_index]))
        min_dist, min_index = new_dist, new_index

    entries.append((OpKind.OUT, [min_dist], None, "min_dist"))
    entries.append((OpKind.OUT, [min_index], None, "min_index"))
    return build(entries, bitwidth=spec.bitwidth)


def biometric_inputs(
    spec: BiometricSpec,
    server_rows: Sequence[Sequence[int]],
    client: Sequence[int],
) -> dict[int, int]:
    """Pack a dataset and a client record into evaluator inputs for
    :func:`gen_biometric` (row-index constants included)."""
    if len(server_rows) != spec.rows or any(
        len(row) != spec.attrs for row in server_rows
    ):
        raise InvalidArgument("server data does not match the spec shape")
    if len(client) != spec.attrs:
        raise InvalidArgument("client record does not match the spec shape")
    server = [v for row in server_rows for v in row]
    return dict(enumerate([*server, *client, *range(spec.rows)]))


def gen_matmul(spec: MatMulSpec) -> Circuit:
    """Build the n^3 matrix product circuit for C = A x B.

    A is the server's matrix, B the client's, both row-major. Each of the
    n^2 outputs is a row-times-column inner product (n multiplications
    and n-1 additions).
    """
    n = spec.n
    entries: list[tuple] = []
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a[i][j] = len(entries)
            entries.append((OpKind.IN, [], "server", f"a[{i},{j}]"))
    for i in range(n):
        for j in range(n):
            b[i][j] = len(entries)
            entries.append((OpKind.IN, [], "client", f"b[{i},{j}]"))
    outs = []
    for i in range(n):
        for j in range(n):
            terms = []
            for k in range(n):
                terms.append(len(entries))
                entries.append((OpKind.MUL, [a[i][k], b[k][j]]))
            acc = terms[0]
            for k in range(1, n):
                nxt = len(entries)
                entries.append((OpKind.ADD, [acc, terms[k]]))
                acc = nxt
            outs.append((acc, f"c[{i},{j}]"))
    for acc, name in outs:
        entries.append((OpKind.OUT, [acc], None, name))
    return build(entries, bitwidth=spec.bitwidth)


def matmul_inputs(
    spec: MatMulSpec,
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
) -> dict[int, int]:
    """Pack two matrices into evaluator inputs for :func:`gen_matmul`."""
    n = spec.n
    if len(a) != n or len(b) != n or any(len(r) != n for r in a) or any(
        len(r) != n for r in b
    ):
        raise InvalidArgument("matrices do not match the spec shape")
    return dict(enumerate([v for m in (a, b) for row in m for v in row]))


def gen_chain(op: OpKind, length: int, bitwidth: int = 32) -> Circuit:
    """Build a chain of ``length`` sequential two-input operations, the
    shape used for unit-cost benchmarking. Each link combines the
    previous result with one fresh input, so the chain's depth equals its
    length, an ``int`` (not a ``bool``) of at least 1. ``op`` is a binary
    :class:`OpKind` and ``bitwidth`` an ``int`` in ``1..MAX_BITWIDTH``."""
    if not isinstance(op, OpKind):
        raise InvalidArgument(f"op must be an OpKind, got {_shown(op)}")
    if op.arity != 2:
        raise NonBinaryOp(f"chain links must be binary ops, got {op}")
    _check_count("length", length)
    _check_bitwidth(bitwidth)
    entries: list[tuple] = [(OpKind.IN, [], None, "x[0]")]
    prev = 0
    for i in range(1, length + 1):
        fresh = len(entries)
        entries.append((OpKind.IN, [], None, f"x[{i}]"))
        link = len(entries)
        entries.append((op, [prev, fresh]))
        prev = link
    entries.append((OpKind.OUT, [prev], None, "result"))
    return build(entries, bitwidth=bitwidth)


def gen_random(
    seed: int,
    n_ops: int,
    op_weights: Mapping[OpKind, float] | None = None,
    bitwidth: int = 32,
) -> Circuit:
    """Build a reproducible random DAG with ``n_ops`` priced nodes.

    Operations are drawn from ``op_weights`` (uniform over all priced ops
    by default); every op node draws its inputs from the nodes emitted
    before it, so each is reachable from an input, and every op node
    nobody consumes gets its own ``out`` node. Identical arguments yield
    identical circuits. ``n_ops`` is an ``int`` (not a ``bool``) of at
    least 1, ``bitwidth`` one in ``1..MAX_BITWIDTH`` and ``op_weights``
    ``None`` or a mapping, else :class:`~mpcost.errors.InvalidArgument`.
    """
    _check_count("n_ops", n_ops)
    _check_bitwidth(bitwidth)
    rng = random.Random(seed)
    if op_weights is None:
        ops = list(COMPUTE_OPS)
        weights = [1.0] * len(ops)
    elif not isinstance(op_weights, Mapping):
        raise InvalidArgument(
            f"op_weights must be a mapping or None, got {_shown(op_weights)}")
    else:
        for op, w in op_weights.items():
            if op not in COMPUTE_OPS:
                raise InvalidArgument(f"op_weights: {op} is not a priced op")
            if not _is_finite(w) or w < 0:
                raise InvalidArgument(
                    f"op_weights: the weight of {op} must be a finite, "
                    f"non-negative number"
                )
        ops = [op for op in COMPUTE_OPS if op_weights.get(op, 0) > 0]
        if not ops:
            raise InvalidArgument("op_weights leaves no op to draw from")
        weights = [float(op_weights[op]) for op in ops]
        if not math.isfinite(sum(weights)):
            raise InvalidArgument("op_weights: the total weight is not finite")

    entries: list[tuple] = []
    n_in = rng.randint(1, min(6, n_ops + 1))
    for i in range(n_in):
        party = rng.choice((None, "server", "client"))
        entries.append((OpKind.IN, [], party, None))
    op_ids = []
    for _ in range(n_ops):
        op = rng.choices(ops, weights)[0]
        inputs = [rng.randrange(len(entries)) for _ in range(op.arity)]
        op_ids.append(len(entries))
        entries.append((op, inputs))
    consumed = {j for e in entries for j in e[1]}
    for i in op_ids:
        if i not in consumed:
            entries.append((OpKind.OUT, [i]))
    return build(entries, bitwidth=bitwidth)


def node_count_summary(circuit: Circuit) -> dict[str, int]:
    """Count nodes per operation name (used by the CLI's gen summary)."""
    counts: dict[str, int] = {}
    for node in circuit.nodes:
        counts[node.op.value] = counts.get(node.op.value, 0) + 1
    return counts
