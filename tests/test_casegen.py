import math
import random

import pytest

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    OpKind,
    biometric_inputs,
    evaluate_plaintext,
    gen_biometric,
    gen_chain,
    gen_matmul,
    gen_random,
    matmul_inputs,
)
from mpcost.casegen import node_count_summary
from mpcost.errors import InvalidArgument, NonBinaryOp

MOD = 2**32


def direct_biometric(server_rows, client):
    """Reference min/argmin over squared distances, first index on ties."""
    best_d, best_i = None, None
    for i, row in enumerate(server_rows):
        d = sum(((s - c) % MOD) ** 2 % MOD for s, c in zip(row, client)) % MOD
        if best_d is None or d < best_d:
            best_d, best_i = d, i
    return best_d, best_i


def direct_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % MOD for j in range(n)]
        for i in range(n)
    ]


# --- biometric ------------------------------------------------------------------


def test_biometric_node_counts_default():
    c = gen_biometric(BiometricSpec(30, 5))
    counts = node_count_summary(c)
    assert counts == {
        "in": 185,  # 150 server values + 5 client values + 30 index constants
        "sub": 150,
        "mul": 150,
        "add": 120,
        "ge": 29,
        "mux": 58,
        "out": 2,
    }
    assert len(c.nodes) == 694


@pytest.mark.parametrize("rows,attrs", [(1, 1), (2, 3), (7, 2), (4, 4)])
def test_biometric_node_count_formula(rows, attrs):
    c = gen_biometric(BiometricSpec(rows, attrs))
    counts = node_count_summary(c)
    assert counts["in"] == rows * attrs + attrs + rows
    assert counts["sub"] == rows * attrs
    assert counts["mul"] == rows * attrs
    assert counts.get("add", 0) == rows * (attrs - 1)
    assert counts.get("ge", 0) == rows - 1
    assert counts.get("mux", 0) == 2 * (rows - 1)
    assert counts["out"] == 2


def test_biometric_single_row():
    spec = BiometricSpec(1, 1)
    c = gen_biometric(spec)
    out = evaluate_plaintext(c, biometric_inputs(spec, [[9]], [4]))
    dist, index = (out[i] for i in c.out_ids)
    assert dist == 25
    assert index == 0


def test_biometric_matches_direct_computation():
    spec = BiometricSpec(6, 3)
    c = gen_biometric(spec)
    rng = random.Random(2024)
    for _ in range(100):
        rows = [[rng.randrange(1000) for _ in range(3)] for _ in range(6)]
        client = [rng.randrange(1000) for _ in range(3)]
        out = evaluate_plaintext(c, biometric_inputs(spec, rows, client))
        dist, index = (out[i] for i in c.out_ids)
        assert (dist, index) == direct_biometric(rows, client)


def test_biometric_tie_prefers_earlier_row():
    spec = BiometricSpec(3, 1)
    c = gen_biometric(spec)
    out = evaluate_plaintext(c, biometric_inputs(spec, [[8], [5], [5]], [5]))
    dist, index = (out[i] for i in c.out_ids)
    assert (dist, index) == (0, 1)


def test_biometric_exact_match_row():
    spec = BiometricSpec(5, 4)
    c = gen_biometric(spec)
    rows = [[10 * r + k for k in range(4)] for r in range(5)]
    out = evaluate_plaintext(c, biometric_inputs(spec, rows, rows[3]))
    dist, index = (out[i] for i in c.out_ids)
    assert (dist, index) == (0, 3)


# --- matmul ----------------------------------------------------------------------


def test_matmul_node_counts():
    c = gen_matmul(MatMulSpec(5))
    assert node_count_summary(c) == {"in": 50, "mul": 125, "add": 100, "out": 25}
    assert len(c.nodes) == 300
    single = gen_matmul(MatMulSpec(1))
    assert node_count_summary(single) == {"in": 2, "mul": 1, "out": 1}


def test_matmul_identity_returns_b():
    spec = MatMulSpec(3)
    c = gen_matmul(spec)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    b = [[7, 8, 9], [1, 2, 3], [4, 5, 6]]
    out = evaluate_plaintext(c, matmul_inputs(spec, eye, b))
    values = [out[i] for i in c.out_ids]
    assert values == [v for row in b for v in row]


def test_matmul_matches_direct_computation():
    spec = MatMulSpec(4)
    c = gen_matmul(spec)
    rng = random.Random(99)
    for _ in range(100):
        a = [[rng.randrange(MOD) for _ in range(4)] for _ in range(4)]
        b = [[rng.randrange(MOD) for _ in range(4)] for _ in range(4)]
        out = evaluate_plaintext(c, matmul_inputs(spec, a, b))
        want = direct_matmul(a, b)
        got = [out[i] for i in c.out_ids]
        assert got == [v for row in want for v in row]


# --- chain -----------------------------------------------------------------------


def test_chain_shape():
    c = gen_chain(OpKind.ADD, 1000)
    assert node_count_summary(c) == {"in": 1001, "add": 1000, "out": 1}
    assert len(c.nodes) == 2002


def test_chain_minimal_multiplier():
    c = gen_chain(OpKind.MUL, 1)
    assert node_count_summary(c) == {"in": 2, "mul": 1, "out": 1}
    assert evaluate_plaintext(c, {0: 6, 1: 7}) == {3: 42}


def test_chain_depth_equals_length():
    c = gen_chain(OpKind.XOR, 17)
    depth = [0] * len(c.nodes)
    longest = 0
    for node in c.nodes:
        if node.op in (OpKind.IN, OpKind.OUT):
            continue
        depth[node.id] = 1 + max((depth[j] for j in node.inputs), default=0)
        longest = max(longest, depth[node.id])
    assert longest == 17


def test_chain_rejects_non_binary_ops():
    with pytest.raises(NonBinaryOp):
        gen_chain(OpKind.MUX, 3)
    with pytest.raises(NonBinaryOp):
        gen_chain(OpKind.OUT, 3)


# --- random ----------------------------------------------------------------------


def test_random_is_reproducible():
    assert gen_random(123, 20) == gen_random(123, 20)
    assert gen_random(123, 20) != gen_random(124, 20)


def test_random_circuits_validate_and_reach_outputs():
    for seed in range(50):
        c = gen_random(seed, 1 + seed % 15)
        # build() already validated; check op nodes reach an out node
        reaches = set(c.out_ids)
        for node in reversed(c.nodes):
            if node.id in reaches:
                reaches.update(node.inputs)
        for i in c.op_node_ids:
            assert i in reaches, (seed, i)


def test_random_respects_op_weights():
    weights = {OpKind.ADD: 3.0, OpKind.MUL: 1.0}
    c = gen_random(7, 40, weights)
    ops = {c.nodes[i].op for i in c.op_node_ids}
    assert ops <= {OpKind.ADD, OpKind.MUL}


@pytest.mark.parametrize("weights, named", [
    ({OpKind.ADD: math.inf}, "add"),
    ({OpKind.ADD: math.nan, OpKind.MUL: 1.0}, "add"),
    ({OpKind.ADD: 1.0, OpKind.MUL: -1.0}, "mul"),
    ({OpKind.ADD: True}, "add"),
    ({OpKind.ADD: 10**400}, "add"),
    ({OpKind.ADD: 1.0, OpKind.IN: 1.0}, "in"),
    ({OpKind.ADD: 1.0, OpKind.OUT: 0.0}, "out"),
    ({OpKind.ADD: 1e308, OpKind.MUL: 1e308}, "total"),
])
def test_random_rejects_bad_op_weights(weights, named):
    """Every weight is a finite, non-negative number on a priced op and
    their total is finite, or the call names what is wrong."""
    with pytest.raises(InvalidArgument, match=named):
        gen_random(7, 10, weights)


@pytest.mark.parametrize("n_ops", [2.5, "3", True, 0])
def test_random_rejects_an_n_ops_that_is_not_a_positive_int(n_ops):
    with pytest.raises(InvalidArgument, match="n_ops"):
        gen_random(0, n_ops)
