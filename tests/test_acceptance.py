"""End-to-end acceptance suite.

One test per criterion; each prints a single line with the measured
numbers (run ``pytest tests/test_acceptance.py -v -rA`` to see them all).

Known red: test_c03 requires an at-least-85% cost reduction for the
5x5 matrix product under the inter-m3.large profile, but the bundled
unit tables cannot produce it. The check is kept as stated rather than
loosened to make it green; the all-arithmetic shape of the optimum is
asserted and holds.

Why 37.8% is the model's true optimum there. Under inter-m3.large
(stored units, scale 1e-6) arithmetic has the cheapest add (5.57 against
120.96 for yao) and the cheapest mul (4207.6 against 6677.15 for yao);
boolean is dearer still. Conversion costs are non-negative and in/out
nodes cost nothing. So the all-arithmetic assignment reaches the lower
bound term by term: every op pays its minimum and no conversion is paid.
It comes out 37.82% below pure-Yao.

No other inter profile reaches 85% either (best_of against pure-Yao:
inter-m3.medium 67.1%, inter-c4.large 56.9%, inter-c4.xlarge 30.7%),
while the intra profiles come close or pass it (intra-m3.medium 84.65%,
intra-c4.large 86.10%, intra-c4.xlarge 85.85%, intra-m3.large 75.2%).
That hints the 85% target may come from an intra-region setting or from
other unit tables, but the source that states the bound is not in this
repository, so nothing here settles it. Only a change to the profile
data or to the cost model, with its source, may turn this check green.
"""

import random
import time

import pytest

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    OpKind,
    assignment_to_json,
    best_of,
    biometric_inputs,
    bottom_up,
    build,
    check_feasible,
    circuit_from_json,
    circuit_to_json,
    derive_profile,
    evaluate_plaintext,
    exhaustive_optimal,
    fixed_sharing,
    gen_biometric,
    gen_chain,
    gen_matmul,
    gen_random,
    hill_climbing,
    matmul_inputs,
    profile_from_json,
    profile_to_json,
    top_down,
    total_cost,
)
from mpcost import PriceSpec, RawMeasurement
from mpcost.circuit import COMPUTE_OPS
from mpcost.profiles import BUILTIN_PROFILES, builtin_text, load_builtin
from test_strategy_golden import sweep_totals

MOD = 2**32


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def profiles():
    return {name: load_builtin(name) for name in BUILTIN_PROFILES}


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random circuits with 1..10 priced nodes."""
    return [gen_random(seed, n_ops=1 + seed % 10) for seed in range(200)]


def test_c01_oracle_dominance(corpus, profiles):
    started = time.monotonic()
    failures = []
    for circuit in corpus:
        for prof in profiles.values():
            ex = exhaustive_optimal(circuit, prof)
            pure = fixed_sharing(circuit, prof, "yao")
            heuristics = [
                pure,
                bottom_up(circuit, prof),
                top_down(circuit, prof),
                hill_climbing(circuit, prof, "yao"),
            ]
            for h in heuristics:
                if not ex.report.total <= h.report.total:
                    failures.append((prof.name, h.heuristic))
            if not best_of(circuit, prof).report.total <= pure.report.total:
                failures.append((prof.name, "best_of vs pure-yao"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120
    _line(1, "oracle dominance on 200 circuits x 8 profiles", ok,
          f"{elapsed:.1f}s, {len(failures)} violations")
    assert not failures, failures[:5]
    assert elapsed < 120


def test_c02_hill_climbing_soundness(corpus, profiles):
    started = time.monotonic()
    for circuit in corpus:
        max_passes = len(circuit.nodes) * 3
        for prof in profiles.values():
            result = hill_climbing(circuit, prof, "yao")
            totals = sweep_totals(circuit, prof, "yao", result.iterations)
            assert all(a >= b for a, b in zip(totals, totals[1:])), totals
            assert not result.limit_exceeded
            assert result.iterations < max_passes
            assert check_feasible(circuit, result.assignment, prof) == []
    elapsed = time.monotonic() - started
    _line(2, "hill-climbing monotone, terminating, feasible", elapsed < 60,
          f"{elapsed:.1f}s")
    assert elapsed < 60


def test_c03_matmul_cost_reduction(profiles):
    circuit = gen_matmul(MatMulSpec(5))
    prof = profiles["inter-m3.large"]
    pure = fixed_sharing(circuit, prof, "yao")
    best = best_of(circuit, prof)
    reduction = 1.0 - best.report.total / pure.report.total
    all_arith = all(
        best.assignment[i] == "arithmetic"
        for i in circuit.op_node_ids
        if circuit.nodes[i].op in (OpKind.ADD, OpKind.MUL)
    )
    _line(3, "matmul(5) inter-m3.large reduction vs pure-yao",
          all_arith and reduction >= 0.85,
          f"reduction {reduction:.1%}, target >=85%; "
          f"add/mul all arithmetic: {all_arith}")
    assert all_arith
    assert reduction >= 0.85, (
        f"measured reduction {reduction:.4f} is the model optimum "
        f"(all-arithmetic, {best.report.total:.6e} cents vs pure-yao "
        f"{pure.report.total:.6e} cents) and stays below the 0.85 target"
    )


def test_c04_biometric_cost_reduction(profiles):
    circuit = gen_biometric(BiometricSpec(30, 5))
    prof = profiles["inter-m3.medium"]
    pure = fixed_sharing(circuit, prof, "yao")
    best = best_of(circuit, prof)
    reduction = 1.0 - best.report.total / pure.report.total
    _line(4, "biometric(30,5) inter-m3.medium reduction vs pure-yao",
          reduction >= 0.60, f"reduction {reduction:.2%}, target >=60%")
    assert reduction >= 0.60


def test_c05_intra_region_network_is_exactly_zero(profiles):
    circuits = [
        build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])]),
        gen_matmul(MatMulSpec(3)),
        gen_biometric(BiometricSpec(5, 3)),
        gen_chain(OpKind.MUL, 10),
    ] + [gen_random(seed, n_ops=6) for seed in range(10)]
    checked = 0
    for name in BUILTIN_PROFILES:
        if not name.startswith("intra"):
            continue
        prof = profiles[name]
        for circuit in circuits:
            results = [
                fixed_sharing(circuit, prof, "yao"),
                bottom_up(circuit, prof),
                top_down(circuit, prof),
                hill_climbing(circuit, prof, "yao"),
                best_of(circuit, prof),
            ]
            for result in results:
                assert result.report.total_network == 0.0
                assert all(
                    rec.op_network == 0.0 and rec.conv_network == 0.0
                    for rec in result.report.per_node.values()
                )
                checked += 1
    _line(5, "intra-region network cost identically zero", True,
          f"{checked} optimizer runs")


def test_c06_worked_node_cost(profiles):
    circuit = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    asg = {0: "yao", 1: "yao", 2: "arithmetic", 3: "arithmetic"}
    rec = total_cost(circuit, asg, profiles["inter-m3.medium"]).per_node[2]
    ok = abs(rec.total - 2535.46e-6) < 1e-9
    _line(6, "worked mul/arithmetic node cost", ok,
          f"{rec.total:.8e} cents vs 2.53546e-03 expected")
    assert ok


def test_c07_plaintext_equivalence():
    rng = random.Random(20260808)

    bio_spec = BiometricSpec(30, 5)
    bio = gen_biometric(bio_spec)
    for _ in range(1000):
        rows = [[rng.randrange(MOD) for _ in range(5)] for _ in range(30)]
        client = [rng.randrange(MOD) for _ in range(5)]
        out = evaluate_plaintext(bio, biometric_inputs(bio_spec, rows, client))
        got = tuple(out[i] for i in bio.out_ids)
        best_d, best_i = None, None
        for i, row in enumerate(rows):
            d = 0
            for s, c in zip(row, client):
                d = (d + ((s - c) % MOD) ** 2) % MOD
            if best_d is None or d < best_d:
                best_d, best_i = d, i
        assert got == (best_d, best_i)

    mm_spec = MatMulSpec(5)
    mm = gen_matmul(mm_spec)
    for _ in range(1000):
        a = [[rng.randrange(MOD) for _ in range(5)] for _ in range(5)]
        b = [[rng.randrange(MOD) for _ in range(5)] for _ in range(5)]
        out = evaluate_plaintext(mm, matmul_inputs(mm_spec, a, b))
        got = [out[i] for i in mm.out_ids]
        want = [
            sum(a[i][k] * b[k][j] for k in range(5)) % MOD
            for i in range(5)
            for j in range(5)
        ]
        assert got == want
    _line(7, "plaintext equivalence, 1000 random vectors each", True)


def test_c08_round_trips_are_byte_stable():
    for name in BUILTIN_PROFILES:
        text = builtin_text(name)
        once = profile_to_json(profile_from_json(text))
        assert once == text, name
        assert profile_to_json(profile_from_json(once)) == once

    circuits = [
        gen_biometric(BiometricSpec(30, 5)),
        gen_matmul(MatMulSpec(5)),
        gen_chain(OpKind.ADD, 50),
    ] + [gen_random(seed, n_ops=1 + seed % 12) for seed in range(100)]
    for circuit in circuits:
        text = circuit_to_json(circuit)
        again = circuit_from_json(text)
        assert again == circuit
        assert circuit_to_json(again) == text
    _line(8, "profile and circuit round-trips byte-stable", True,
          f"8 profiles + {len(circuits)} circuits")


def test_c09_derive_profile_formula():
    prices = PriceSpec(vm_rate_a=7.0, vm_rate_b=7.0, net_rate=6.5,
                       gb_bytes=10**9)
    measurements = [
        RawMeasurement.for_op(op, "yao", 1.0, 10**6) for op in COMPUTE_OPS
    ]
    prof = derive_profile(measurements, prices, "worked-example")
    p, n = prof.op_cost_cents(OpKind.ADD, "yao")
    ok = abs(p - 0.0038889) < 1e-7 and n == 0.0065
    _line(9, "derive-profile worked pricing example", ok,
          f"p={p:.7f} n={n}")
    assert abs(p - 0.0038889) < 1e-7
    assert n == 0.0065


def test_c10_case_study_determinism(profiles):
    cases = [gen_biometric(BiometricSpec(30, 5)), gen_matmul(MatMulSpec(5))]
    profs = [profiles["inter-m3.medium"], profiles["intra-m3.large"]]
    runs = 0
    for circuit in cases:
        for prof in profs:
            for _ in range(2):
                blobs = [
                    assignment_to_json(fixed_sharing(circuit, prof, "yao").assignment),
                    assignment_to_json(bottom_up(circuit, prof).assignment),
                    assignment_to_json(top_down(circuit, prof).assignment),
                    assignment_to_json(
                        hill_climbing(circuit, prof, "yao").assignment
                    ),
                    assignment_to_json(best_of(circuit, prof).assignment),
                ]
                if runs % 2 == 0:
                    first = blobs
                else:
                    assert blobs == first
                runs += 1
    _line(10, "case-study assignments byte-identical across runs", True,
          f"{runs} runs")
