import functools
import itertools
import json
import math
import random
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcost import (
    OpKind,
    RawMeasurement,
    SolverLimits,
    assignment_to_json,
    best_of,
    biometric_inputs,
    bottom_up,
    build,
    check_feasible,
    exhaustive_optimal,
    fixed_sharing,
    gen_biometric,
    gen_chain,
    gen_random,
    hill_climbing,
    load_circuit,
    matmul_inputs,
    save_circuit,
    save_profile,
    top_down,
    total_cost,
)
from mpcost import cost_model, optimizer
from mpcost.casegen import BiometricSpec, MatMulSpec, gen_matmul
from mpcost.circuit import COMPUTE_OPS
from mpcost.cli import main
from mpcost.cost_model import Compiled, CostProfile, NodeCost
from mpcost.errors import (
    InvalidArgument,
    MpcostError,
    SearchSpaceTooLarge,
    UnsupportedScheme,
)
from mpcost.profiles import BUILTIN_PROFILES, load_builtin
from test_cost_model import check_exact_report
from test_exact_golden import mux_ladder
from test_strategy_golden import sweep_totals


def brute_force_minimum(circuit, profile):
    """Independent oracle: enumerate every feasible assignment over every
    node (in/out included) with plain itertools, rank them by their exact
    sums (``Compiled.sums``), and return the cheapest, lexicographic on
    ties, with its reported total."""
    domains = [
        [s for s in profile.schemes if profile.supports(node.op, s)]
        for node in circuit.nodes
    ]
    compiled = Compiled(circuit, profile)
    best = None
    for combo in itertools.product(*domains):
        idx = [profile.scheme_index[s] for s in combo]
        key = (sum(compiled.sums(idx)), idx)
        if best is None or key < best:
            best = key
    return compiled.assignment(best[1]), compiled.report(best[1]).total


# --- fixed sharing -------------------------------------------------------------


def test_fixed_yao_is_always_feasible(inter_m3_medium):
    for seed in range(10):
        c = gen_random(seed, n_ops=8)
        result = fixed_sharing(c, inter_m3_medium, "yao")
        assert check_feasible(c, result.assignment, inter_m3_medium) == []
        assert result.heuristic == "fixed:yao"
        # single scheme, so no conversions anywhere
        assert all(
            rec.conv_compute == 0.0 and rec.conv_network == 0.0
            for rec in result.report.per_node.values()
        )


def test_fixed_arithmetic_rejects_sub(inter_m3_medium):
    c = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    with pytest.raises(UnsupportedScheme, match="sub"):
        fixed_sharing(c, inter_m3_medium, "arithmetic")


def test_fixed_arithmetic_adder_total(adder, inter_m3_medium):
    result = fixed_sharing(adder, inter_m3_medium, "arithmetic")
    assert result.report.total == pytest.approx(2.90e-6, abs=1e-15)


def test_fixed_rejects_undeclared_scheme(adder, inter_m3_medium):
    with pytest.raises(UnsupportedScheme):
        fixed_sharing(adder, inter_m3_medium, "shamir")


# --- bottom-up -------------------------------------------------------------------


def test_bottom_up_mul_chain_picks_arithmetic(inter_m3_medium):
    # one mul: arithmetic 2209.86 beats yao 6629.18 and boolean 7609.61
    # (stored units 1e-6 cents), and the free inputs follow the mul
    c = gen_chain(OpKind.MUL, 1)
    result = bottom_up(c, inter_m3_medium)
    assert set(result.assignment.values()) == {"arithmetic"}
    assert result.report.total == pytest.approx(2209.86e-6, rel=1e-12)


def test_bottom_up_single_op_is_per_op_minimum(all_profiles):
    for prof in all_profiles.values():
        for op in (OpKind.ADD, OpKind.MUL, OpKind.SUB, OpKind.GE):
            c = gen_chain(op, 1)
            result = bottom_up(c, prof)
            per_scheme = []
            for s in prof.schemes_for(op):
                p, n = prof.op_cost_cents(op, s)
                per_scheme.append(p + n)
            assert result.report.total == pytest.approx(min(per_scheme), rel=1e-12)


def test_bottom_up_add_chain_all_arithmetic(all_profiles):
    c = gen_chain(OpKind.ADD, 5)
    for prof in all_profiles.values():
        result = bottom_up(c, prof)
        assert set(result.assignment.values()) == {"arithmetic"}, prof.name


def test_bottom_up_unconsumed_input_defaults_to_first_scheme(inter_m3_medium):
    c = build([("in", []), ("in", []), ("in", []), ("add", [0, 1]), ("out", [3])])
    result = bottom_up(c, inter_m3_medium)
    assert result.assignment[2] == "arithmetic"


# --- top-down --------------------------------------------------------------------


def test_top_down_single_op_matches_bottom_up(all_profiles):
    for prof in all_profiles.values():
        for op in (OpKind.ADD, OpKind.MUL, OpKind.GE):
            c = gen_chain(op, 1)
            assert (
                top_down(c, prof).report.total
                == bottom_up(c, prof).report.total
            )


def test_top_down_beats_pure_yao_on_biometric(inter_m3_medium):
    c = gen_biometric(BiometricSpec(10, 3))
    td = top_down(c, inter_m3_medium)
    pure = fixed_sharing(c, inter_m3_medium, "yao")
    assert check_feasible(c, td.assignment, inter_m3_medium) == []
    assert td.report.total <= pure.report.total


def test_top_down_out_nodes_follow_their_input(inter_m3_medium):
    for seed in range(10):
        c = gen_random(seed, n_ops=6)
        result = top_down(c, inter_m3_medium)
        for i in c.out_ids:
            src = c.nodes[i].inputs[0]
            assert result.assignment[i] == result.assignment[src]


# --- hill climbing ----------------------------------------------------------------


def test_hill_climbing_add_chain_stays_in_yao_local_optimum(inter_m3_medium):
    # arithmetic add is far cheaper per op (2.90 vs 114.02 stored units),
    # but flipping one node in a yao chain pays two yao->arithmetic
    # conversions in and one arithmetic->yao out (553.66 together), more
    # than the 111.12 saved. Single-move search therefore stays all-yao
    # while the exact solver reaches all-arithmetic.
    c = gen_chain(OpKind.ADD, 5)
    result = hill_climbing(c, inter_m3_medium, "yao")
    assert set(result.assignment.values()) == {"yao"}
    assert result.iterations == 1
    ex = exhaustive_optimal(c, inter_m3_medium)
    assert set(ex.assignment.values()) == {"arithmetic"}
    assert ex.report.total < result.report.total


def test_hill_climbing_stops_immediately_when_optimal(inter_m3_medium):
    # ge is cheapest under yao and every conversion costs something, so
    # the yao start is already a local (and here global) optimum
    c = build([("in", []), ("in", []), ("ge", [0, 1]), ("out", [2])])
    result = hill_climbing(c, inter_m3_medium, "yao")
    assert result.iterations == 1
    assert set(result.assignment.values()) == {"yao"}


def test_hill_climbing_total_non_increasing(all_profiles):
    for seed in range(20):
        c = gen_random(seed, n_ops=1 + seed % 10)
        for prof in all_profiles.values():
            result = hill_climbing(c, prof, "yao")
            totals = sweep_totals(c, prof, "yao", result.iterations)
            assert totals[-1] == result.report.total
            assert all(a >= b for a, b in zip(totals, totals[1:]))
            assert not result.limit_exceeded
            assert check_feasible(c, result.assignment, prof) == []


def test_hill_climbing_rejects_partial_init(inter_m3_medium):
    c = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    with pytest.raises(UnsupportedScheme, match="does not support op sub"):
        hill_climbing(c, inter_m3_medium, "arithmetic")
    with pytest.raises(UnsupportedScheme, match="is not declared"):
        hill_climbing(c, inter_m3_medium, "no-such-scheme")


def test_hill_climbing_pass_cap_sets_flag(inter_m3_medium):
    c = gen_chain(OpKind.MUL, 1)
    full = hill_climbing(c, inter_m3_medium, "yao")
    assert full.iterations > 1  # needs several sweeps to settle
    capped = hill_climbing(c, inter_m3_medium, "yao",
                           SolverLimits(max_passes=1))
    assert capped.limit_exceeded
    assert capped.iterations == 1
    assert check_feasible(c, capped.assignment, inter_m3_medium) == []


#: Price sets of :func:`stress_profile`: every price 0; prices in {0, 1,
#: 2}; prices near the largest float, where a compute plus a network
#: price, or a sum of a few, overflows to ``inf``; prices below 1e-6.
STRESS_PRICES = {
    "stress-zero": (0.0,),
    "stress-small": (0.0, 1.0, 2.0),
    "stress-huge": (0.0, 9e307, 1.6e308, 1.7e308),
    "stress-tiny": (0.0, 5e-324, 2.2e-308, 3e-12, 1e-9, 9.9e-7),
}


def stress_profile(kind, seed):
    """A seeded profile on 2-4 schemes, one of them universal and the
    others supporting a random subset of the ops, with every price drawn
    from ``STRESS_PRICES[kind]``: exact ties, and sums that overflow."""
    rng = random.Random(seed)
    schemes = ["arithmetic", "boolean", "yao", "extra"]
    rng.shuffle(schemes)
    schemes = tuple(schemes[:rng.randint(2, 4)])
    universal = rng.choice(schemes)
    prices = STRESS_PRICES[kind]
    op_costs = {
        (op, s): (rng.choice(prices), rng.choice(prices))
        for op in COMPUTE_OPS for s in schemes
        if s == universal or rng.random() < 0.5
    }
    conversions = {
        (a, b): (rng.choice(prices), rng.choice(prices))
        for a in schemes for b in schemes if a != b
    }
    return CostProfile(f"{kind}-{seed}", 1.0, schemes, op_costs, conversions)


def profile_named(name, seed):
    """The bundled profile ``name``, or the stress profile of kind
    ``name`` and ``seed``."""
    if name in STRESS_PRICES:
        return stress_profile(name, seed)
    return load_builtin(name)


def reference_hill_climb(circuit, profile, init_scheme, max_passes):
    """Hill climbing as specified, with every sweep visiting every node:
    ``(assignment, iterations, limit_exceeded, sweep_totals)``."""
    compiled = Compiled(circuit, profile)
    n = len(circuit.nodes)
    if max_passes is None:
        max_passes = max(1, n * len(profile.schemes))
    idx = [profile.scheme_index[init_scheme]] * n
    ct = compiled.ct

    def score(i, s):
        cost = compiled.op_t[i][s]
        for j in compiled.inputs[i]:
            cost += ct[idx[j]][s]
        for c in compiled.consumers[i]:
            cost += ct[s][idx[c]]
        return cost

    def total():
        return compiled.report(idx).total

    totals = [total()]
    sweeps = 0
    while True:
        sweeps += 1
        changed = False
        for i in range(n):
            best_scheme, best_cost = idx[i], score(i, idx[i])
            for s in compiled.cands[i]:
                if score(i, s) < best_cost:
                    best_scheme, best_cost = s, score(i, s)
            if best_scheme != idx[i]:
                idx[i] = best_scheme
                changed = True
        totals.append(total())
        if not changed:
            return compiled.assignment(idx), sweeps, False, tuple(totals)
        if sweeps >= max_passes:
            return compiled.assignment(idx), sweeps, True, tuple(totals)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_ops=st.integers(1, 60),
    name=st.sampled_from(BUILTIN_PROFILES + tuple(STRESS_PRICES)),
    max_passes=st.sampled_from([None, 1, 2]),
    init_pick=st.integers(0, 2),
)
def test_hill_climbing_matches_full_sweep_reference(seed, n_ops, name, max_passes,
                                                     init_pick):
    circuit = gen_random(seed, n_ops)
    profile = profile_named(name, seed)
    universal = profile.universal_schemes(circuit.ops_present())
    init = universal[init_pick % len(universal)]
    got = hill_climbing(circuit, profile, init, SolverLimits(max_passes=max_passes))
    want = reference_hill_climb(circuit, profile, init, max_passes)
    assert (got.assignment, got.iterations, got.limit_exceeded) == want[:3]
    totals = sweep_totals(circuit, profile, init, got.iterations)
    assert totals == list(want[3])


# --- exhaustive --------------------------------------------------------------------


def test_exhaustive_minimal_adder(adder, inter_m3_medium):
    result = exhaustive_optimal(adder, inter_m3_medium)
    assert result.assignment == {i: "arithmetic" for i in range(4)}
    assert result.report.total == pytest.approx(2.90e-6, abs=1e-15)


def test_exhaustive_matches_brute_force_enumeration(all_profiles):
    profs = [all_profiles["inter-m3.medium"], all_profiles["intra-c4.large"]]
    for seed in range(14):
        c = gen_random(seed, n_ops=1 + seed % 3)
        if len(c.nodes) > 8:
            continue
        for prof in profs:
            got = exhaustive_optimal(c, prof)
            want_asg, want_total = brute_force_minimum(c, prof)
            assert got.report.total == want_total
            assert got.assignment == want_asg


def test_exhaustive_matmul2_all_arithmetic(inter_m3_medium):
    from mpcost import MatMulSpec, gen_matmul

    c = gen_matmul(MatMulSpec(2))
    result = exhaustive_optimal(c, inter_m3_medium)
    assert set(result.assignment.values()) == {"arithmetic"}


def test_exhaustive_space_cap(inter_m3_medium):
    c = gen_chain(OpKind.ADD, 3)  # 3 op nodes, 27 assignments
    with pytest.raises(SearchSpaceTooLarge) as info:
        exhaustive_optimal(c, inter_m3_medium, SolverLimits(max_space=10))
    assert info.value.space == 27
    exhaustive_optimal(c, inter_m3_medium, SolverLimits(max_space=27))


@pytest.mark.parametrize("field, value", [
    ("max_space", 0), ("max_space", math.nan), ("max_space", 2.5),
    ("max_space", 10.0**7), ("max_space", True), ("max_space", "7"),
    ("max_passes", 0), ("max_passes", math.nan), ("max_passes", 1.0),
    ("max_passes", True), ("max_passes", False),
])
def test_solver_limits_accept_only_positive_ints(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int of at least 1"):
        SolverLimits(**{field: value})


@pytest.mark.parametrize("call", [
    lambda: SolverLimits(max_space=0),
    lambda: SolverLimits(max_passes=-1),
    lambda: RawMeasurement(1.0, 1.0),
    lambda: RawMeasurement(1.0, 1.0, op=OpKind.ADD, scheme="y", source="y",
                           target="a"),
    lambda: gen_chain(OpKind.ADD, 0),
    lambda: gen_random(0, 0),
    lambda: gen_random(0, 3, {OpKind.ADD: 0}),
    lambda: MatMulSpec(0),
    lambda: BiometricSpec(rows=0),
    lambda: biometric_inputs(BiometricSpec(1, 2), [[1]], [1, 2]),
    lambda: matmul_inputs(MatMulSpec(1), [[1]], [[1, 2]]),
    # every count argument, given a bool, a float, a string, 0 and an int
    # too long for repr
    *[functools.partial(count, bad) for count in (
        lambda x: SolverLimits(max_space=x),
        lambda x: SolverLimits(max_passes=x),
        lambda x: gen_random(0, x),
        lambda x: gen_chain(OpKind.ADD, x),
        lambda x: MatMulSpec(n=x),
        lambda x: BiometricSpec(rows=x),
        lambda x: BiometricSpec(attrs=x),
    ) for bad in (True, 2.5, "3", 0, -10**5000)],
    # an op that is not an OpKind, and op weights that are not a mapping
    *[functools.partial(gen_chain, op, 3) for op in ("add", None, 3)],
    *[functools.partial(gen_random, 0, 3, weights)
      for weights in ([1, 2], 0, "add", (1,))],
    # a seed that is not an int, and a measured op that is not an OpKind
    *[functools.partial(gen_random, seed, 3) for seed in ([1], {}, None, True, 1.5)],
    *[functools.partial(RawMeasurement.for_op, op, "y", 1, 1) for op in ("add", 1)],
    # a measurement with one pair set and a field of the other
    *[functools.partial(RawMeasurement, 1.0, 1.0, **fields) for fields in (
        {"op": OpKind.ADD, "scheme": "a", "source": "y"},
        {"op": OpKind.ADD, "scheme": "a", "target": "y"},
        {"source": "a", "target": "b", "op": OpKind.ADD},
        {"source": "a", "target": "b", "scheme": "y"},
    )],
    # every bitwidth argument, given 0, a float, a bool and an int too long
    # for repr
    lambda: gen_chain(OpKind.ADD, 3, bitwidth=0),
    lambda: gen_random(0, 3, bitwidth=2.5),
    lambda: MatMulSpec(2, bitwidth=0),
    lambda: BiometricSpec(bitwidth=True),
    *[functools.partial(bitwidth, -10**5000) for bitwidth in (
        lambda x: gen_chain(OpKind.ADD, 3, bitwidth=x),
        lambda x: gen_random(0, 3, bitwidth=x),
        lambda x: MatMulSpec(bitwidth=x),
        lambda x: BiometricSpec(bitwidth=x),
    )],
])
def test_argument_errors_are_mpcost_errors(call):
    # InvalidArgument is also a ValueError, which these raised before
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, MpcostError)
    assert isinstance(info.value, ValueError)


def test_exhaustive_space_cap_names_huge_spaces(inter_m3_medium):
    # 3**9100 has more digits than str() of an int accepts
    assert "about 10^4341 assignments" in str(SearchSpaceTooLarge(3**9100, 10**7))
    assert "cap is about 10^5000" in str(SearchSpaceTooLarge(10**5001, 10**5000))
    with pytest.raises(SearchSpaceTooLarge) as info:
        exhaustive_optimal(gen_chain(OpKind.ADD, 9100), inter_m3_medium)
    assert info.value.space == 3**9100


def _uniform_profile(like, cost):
    """``like``'s schemes and support with every price set to ``cost``."""
    return CostProfile(
        f"uniform-{cost}", 1.0, like.schemes,
        {k: (cost, cost) for k in like.op_costs},
        {k: (cost, cost) for k in like.conversions},
    )


@pytest.mark.parametrize("length", [12, 14])
def test_exhaustive_all_zero_costs_pick_the_first_assignment(inter_m3_medium, length):
    # every one of the 3**length rows ties at zero
    c = gen_chain(OpKind.ADD, length)
    zero = _uniform_profile(inter_m3_medium, 0.0)
    result = exhaustive_optimal(c, zero)
    assert result.report.total == 0.0
    assert set(result.assignment.values()) == {zero.schemes[0]}


def test_exhaustive_keeps_ties_that_rounding_splits(inter_m3_medium):
    # Prices in tenths of a cent tie in exact arithmetic, but float sums in
    # different orders round apart. The totals are exact, so these rows
    # tie and the first of them wins, as brute force on exact sums says.
    c = build([
        ("in", []), ("sub", [0, 0]), ("mul", [1, 0]), ("eq", [1, 2]),
        ("add", [3, 1]), ("ge", [1, 3]), ("out", [4]), ("out", [5]),
    ])
    a, b, y = "arithmetic", "boolean", "yao"
    prices = {
        ("add", a): (1.0, 0.0), ("add", b): (1.0, 0.0), ("add", y): (2.0, 0.0),
        ("sub", b): (1.0, 2.0), ("sub", y): (1.0, 2.0),
        ("mul", a): (0.0, 1.0), ("mul", b): (1.0, 2.0), ("mul", y): (0.0, 2.0),
        ("eq", b): (0.0, 0.0), ("eq", y): (0.0, 0.0),
        ("ge", b): (1.0, 1.0), ("ge", y): (1.0, 1.0),
    }
    tenths = CostProfile(
        "tenths", 0.1, inter_m3_medium.schemes,
        {
            (op, scheme): prices.get((op.value, scheme), (1.0, 1.0))
            for op, scheme in inter_m3_medium.op_costs
        },
        {
            (a, b): (0.0, 2.0), (a, y): (1.0, 2.0), (b, a): (2.0, 0.0),
            (b, y): (1.0, 0.0), (y, a): (1.0, 0.0), (y, b): (2.0, 2.0),
        },
    )
    got = exhaustive_optimal(c, tenths)
    want_asg, want_total = brute_force_minimum(c, tenths)
    assert got.report.total == want_total
    assert got.assignment == want_asg


def test_exhaustive_prunes_only_outside_the_rounding_band(inter_m3_medium):
    # All-boolean and all-yao both cost 7 tenths of a cent. A float fold
    # read all-boolean as 0.7000000000000001 and all-yao as 0.7, so a
    # float solver kept all-yao. Their exact sums tie, so all-boolean, the
    # first row, wins, and its total is that exact sum rounded.
    c = build([("in", []), ("in", []), ("eq", [0, 0]), ("sub", [1, 2]), ("out", [3])])
    a, b, y = inter_m3_medium.schemes
    prices = {
        ("sub", b): (0.0, 2.0), ("sub", y): (2.0, 1.0),
        ("eq", b): (3.0, 2.0), ("eq", y): (3.0, 1.0),
    }
    tenths = CostProfile(
        "tenths", 0.1, inter_m3_medium.schemes,
        {
            (op, scheme): prices.get((op.value, scheme), (1.0, 1.0))
            for op, scheme in inter_m3_medium.op_costs
        },
        {
            (a, b): (2.0, 2.0), (a, y): (0.0, 3.0), (b, a): (2.0, 0.0),
            (b, y): (1.0, 2.0), (y, a): (2.0, 1.0), (y, b): (3.0, 1.0),
        },
    )
    got = exhaustive_optimal(c, tenths)
    want_asg, want_total = brute_force_minimum(c, tenths)
    assert got.report.total == want_total == 0.7000000000000001
    assert got.assignment == want_asg == {i: b for i in range(5)}


def test_exhaustive_prunes_only_outside_the_rounding_slack():
    # Prices in thousandths of a cent: twenty rows tie at 0.007. A float
    # sum of the dual bound's terms, of either sign, can round above that
    # tie; the search sums them exactly, so it keeps the first row.
    c = build([
        ("in", []), ("in", []), ("in", []), ("xor", [1, 2]), ("ge", [2, 3]),
        ("out", [3]), ("out", [1]),
    ])
    a, b = "arithmetic", "boolean"
    prices = {
        (OpKind.XOR, a): (3.0, 2.0), (OpKind.XOR, b): (1.0, 2.0),
        (OpKind.GE, a): (1.0, 1.0), (OpKind.GE, b): (1.0, 3.0),
    }
    milli = CostProfile(
        "milli", 1e-3, (a, b),
        {(op, s): prices.get((op, s), (5.0, 5.0)) for op in COMPUTE_OPS for s in (a, b)},
        {(a, b): (0.0, 0.0), (b, a): (3.0, 5.0)},
    )
    got = exhaustive_optimal(c, milli)
    want_asg, want_total = brute_force_minimum(c, milli)
    assert got.report.total == want_total
    assert got.assignment == want_asg


def _fan_out(n_adds):
    """One in node feeding each of a chain of ``n_adds`` adds."""
    entries = [("in", []), ("in", []), ("add", [0, 1])]
    entries += [("add", [k, 0]) for k in range(2, n_adds + 1)]
    return build(entries + [("out", [n_adds + 1])])


def _ladder(n_adds):
    """All ``n_adds + 1`` in nodes first, then a chain of adds taking one
    new in node each."""
    entries = [("in", [])] * (n_adds + 1) + [("add", [0, 1])]
    entries += [("add", [n_adds + k, k + 1]) for k in range(1, n_adds)]
    return build(entries + [("out", [2 * n_adds])])


@pytest.mark.parametrize(
    "circuit, uniform, scheme",
    [
        (gen_chain(OpKind.ADD, 12), None, "arithmetic"),
        (_fan_out(14), None, "arithmetic"),
        (_ladder(14), None, "arithmetic"),
        (mux_ladder(10), 1.0, "boolean"),
    ],
    ids=["chain-add-12", "fan-out-14", "ladder-14", "mux-ladder-10"],
)
def test_exhaustive_memory_is_bounded(inter_m3_medium, circuit, uniform, scheme):
    # Under inter-m3.medium arithmetic has the cheapest add and conversions
    # cost extra, so all-arithmetic is the optimum term by term. Under a
    # uniform profile every conversion-free row is optimal; all-boolean is
    # the first, as the mux ladder's eq and mux nodes have no arithmetic.
    # The solver keeps a few floats per node and per edge end, so its
    # memory follows the circuit, not the search space (4**10 on the mux
    # ladder).
    prof = inter_m3_medium if uniform is None else _uniform_profile(inter_m3_medium, uniform)
    tracemalloc.start()
    try:
        result = exhaustive_optimal(circuit, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    want = fixed_sharing(circuit, prof, scheme)
    assert result.assignment == want.assignment
    assert result.report.total == want.report.total


@pytest.mark.parametrize("outs, zero", [(3000, False), (20000, True)],
                         ids=["inter-m3.medium-3000", "all-zero-20000"])
def test_exhaustive_solves_a_wide_star_quickly(inter_m3_medium, outs, zero):
    # One add feeding many out nodes: a search space of 3, but every out
    # node to set. Under inter-m3.medium arithmetic has the cheapest add
    # and every conversion costs extra, so all-arithmetic is the optimum;
    # under the all-zero profile every row ties and all-arithmetic is the
    # first. A solver quadratic in the node count took about 12 s on the
    # first and over 20 s on the second.
    prof = _uniform_profile(inter_m3_medium, 0.0) if zero else inter_m3_medium
    c = build([("in", []), ("in", []), ("add", [0, 1])] + [("out", [2])] * outs)
    start = time.perf_counter()
    result = exhaustive_optimal(c, prof)
    assert time.perf_counter() - start < 3.0
    assert set(result.assignment.values()) == {"arithmetic"}


@pytest.mark.parametrize("name", ["inter-m3.medium", "intra-c4.large"])
def test_exhaustive_matches_brute_force_on_a_mux_ladder(all_profiles, name):
    prof = all_profiles[name]
    got = exhaustive_optimal(mux_ladder(2), prof)
    want_asg, want_total = brute_force_minimum(mux_ladder(2), prof)
    assert got.report.total == want_total
    assert got.assignment == want_asg


def _node_0_splits_the_tie(like):
    """Prices under which two rows of ``_LAST_READS_NODE_0`` tie at 2:
    mul arithmetic and sub yao (0, plus 1 for the conversion, plus 1), and
    all-boolean (1 + 1). Node 0 follows sub, so the first row starts with
    yao and the second with boolean: the second is lexicographically first,
    although its mul comes later in scheme order."""
    a, b, y = like.schemes
    prices = {("mul", a): 0.0, ("mul", b): 1.0, ("sub", b): 1.0, ("sub", y): 1.0}
    conversions = {(a, y): 1.0}
    return CostProfile(
        "node-0-splits-the-tie", 1.0, like.schemes,
        {
            (op, s): (prices.get((op.value, s), 5.0), 0.0)
            for op, s in like.op_costs
        },
        {k: (conversions.get(k, 5.0), 0.0) for k in like.conversions},
    )


#: In node 0 is read only by the last priced node, so it is the last
#: variable of the search but the first entry of the full row.
_LAST_READS_NODE_0 = build([
    ("in", []), ("in", []), ("mul", [1, 1]), ("sub", [2, 0]), ("out", [3]),
])


@pytest.mark.parametrize("make", [
    lambda like: _uniform_profile(like, 0.0),
    lambda like: _uniform_profile(like, 1.0),
    _node_0_splits_the_tie,
], ids=["uniform-0", "uniform-1", "split"])
def test_exhaustive_ties_go_to_the_first_full_row(inter_m3_medium, make):
    prof = make(inter_m3_medium)
    got = exhaustive_optimal(_LAST_READS_NODE_0, prof)
    want_asg, want_total = brute_force_minimum(_LAST_READS_NODE_0, prof)
    assert got.report.total == want_total
    assert got.assignment == want_asg


@st.composite
def small_circuits(draw):
    """DAGs of at most 8 nodes, so brute force over every node stays
    affordable: 1-3 in nodes, priced ops, and 1-3 out nodes on any earlier
    node. So an in node may go unread or feed an out node directly."""
    n_in = draw(st.integers(1, 3))
    entries = [("in", [])] * n_in
    for _ in range(draw(st.integers(1, 7 - n_in))):
        op = draw(st.sampled_from(COMPUTE_OPS))
        inputs = [draw(st.integers(0, len(entries) - 1)) for _ in range(op.arity)]
        entries.append((op.value, inputs))
    sources = len(entries)
    for _ in range(draw(st.integers(1, min(3, 8 - sources)))):
        entries.append(("out", [draw(st.integers(0, sources - 1))]))
    return build(entries)


@st.composite
def random_profiles(draw):
    """2-4 schemes, one of them universal and the others supporting a
    random subset of the ops, priced in mostly zeros, integers, tenths or
    reals at scale 1, 0.1 or 1e-3: ties, near ties and sums that rounding
    splits, which the bundled profiles rarely make."""
    schemes = draw(st.permutations(["arithmetic", "boolean", "yao", "extra"]))
    schemes = tuple(schemes[:draw(st.integers(2, 4))])
    price = draw(st.sampled_from([
        st.sampled_from([0.0, 0.0, 0.0, 1.0]),
        st.integers(0, 5).map(float),
        st.integers(0, 30).map(lambda k: k / 10),
        st.floats(0.0, 10.0),
    ]))
    universal = draw(st.sampled_from(schemes))
    op_costs = {
        (op, s): (draw(price), draw(price))
        for op in COMPUTE_OPS for s in schemes
        if s == universal or draw(st.booleans())
    }
    conversions = {
        (a, b): (draw(price), draw(price))
        for a in schemes for b in schemes if a != b
    }
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    return CostProfile("random", scale, schemes, op_costs, conversions)


_BUNDLED = [load_builtin(name) for name in BUILTIN_PROFILES]
# the uniform profiles make every row, or many rows, tie
_PROPERTY_PROFILES = _BUNDLED + [
    _uniform_profile(_BUNDLED[0], 0.0),
    _uniform_profile(_BUNDLED[0], 1.0),
]


def check_exact_against_brute_force(circuit, prof):
    """``exhaustive_optimal``, checked against brute force, and its pass's
    sums against one fold of its row."""
    got = exhaustive_optimal(circuit, prof)
    want_asg, want_total = brute_force_minimum(circuit, prof)
    assert got.report.total == want_total
    assert got.assignment == want_asg
    compiled = Compiled(circuit, prof)
    sums, row = optimizer.exact_pass(compiled, SolverLimits())
    assert row == compiled.indices(got.assignment)
    assert sums == compiled.sums(row)
    return got


@settings(max_examples=80, deadline=None)
@given(
    circuit=small_circuits(),
    prof=(st.sampled_from(_PROPERTY_PROFILES) | random_profiles()
          | st.builds(stress_profile, st.sampled_from(tuple(STRESS_PRICES)),
                      st.integers(0, 2**32))),
)
def test_exhaustive_is_the_true_minimum(circuit, prof):
    got = check_exact_against_brute_force(circuit, prof)
    universal = prof.universal_schemes(circuit.ops_present())
    heuristics = [fixed_sharing(circuit, prof, s) for s in universal]
    heuristics += [
        bottom_up(circuit, prof),
        top_down(circuit, prof),
        hill_climbing(circuit, prof, universal[0]),
        best_of(circuit, prof),
    ]
    for result in heuristics:
        assert got.report.total <= result.report.total, result.heuristic


@pytest.mark.parametrize("kind", STRESS_PRICES)
def test_exhaustive_ties_and_overflows_follow_brute_force(kind):
    # Stress prices tie rows exactly, or sum them above the float range.
    # The decoded row only caps the answer: a search that dropped a child
    # whose partial total reaches that cap before any leaf led lost the
    # first least row on seeds 6, 9 and 22 here. Under stress-huge, rows
    # that all read inf still differ in their exact sums, so the answer is
    # the true least row, not the first one (float sums tied them all).
    past_the_first = 0
    for seed in range(60):
        rng = random.Random(seed)
        entries = [("in", [])] * rng.randint(1, 2)
        for _ in range(rng.randint(1, 5 - len(entries))):
            op = rng.choice(COMPUTE_OPS)
            entries.append((op.value, [rng.randrange(len(entries))
                                       for _ in range(op.arity)]))
        sources = len(entries)
        for _ in range(rng.randint(1, min(2, 7 - sources))):
            entries.append(("out", [rng.randrange(sources)]))
        circuit, profile = build(entries), stress_profile(kind, seed)
        got = check_exact_against_brute_force(circuit, profile)
        compiled = Compiled(circuit, profile)
        past_the_first += (got.report.total == math.inf and compiled.indices(
            got.assignment) != [cands[0] for cands in compiled.cands])
    assert (past_the_first > 0) is (kind == "stress-huge")


@pytest.mark.parametrize("name", BUILTIN_PROFILES + tuple(STRESS_PRICES))
def test_every_total_is_the_exact_sum_correctly_rounded(name, tmp_path, capsys):
    """Every total is the float nearest the exact (``Fraction``) sum of the
    profile's cent prices: each strategy's, ``best_of``'s and the exact
    solver's report, ``total_cost``'s totals and per-node records, and
    each ``compare`` row, on seeded random circuits under a bundled
    profile or seeded stress profiles."""
    circuit_path, profile_path = tmp_path / "circuit.json", tmp_path / "profile.json"
    for seed in range(12):
        circuit = gen_random(seed, n_ops=1 + (seed * 5) % 24)
        profile = profile_named(name, seed)
        init = optimizer.default_scheme(circuit, profile)
        results = {f"fixed:{s}": fixed_sharing(circuit, profile, s)
                   for s in profile.universal_schemes(circuit.ops_present())}
        results["bottom-up"] = bottom_up(circuit, profile)
        results["top-down"] = top_down(circuit, profile)
        results["hill-climbing"] = hill_climbing(circuit, profile, init)
        results["best"] = best_of(circuit, profile)
        try:
            results["exhaustive"] = exhaustive_optimal(circuit, profile)
        except SearchSpaceTooLarge:
            pass
        for result in results.values():
            check_exact_report(result.report, circuit, profile, result.assignment)
            check_exact_report(total_cost(circuit, result.assignment, profile),
                               circuit, profile, result.assignment)
        save_circuit(circuit, circuit_path)
        save_profile(profile, profile_path)
        assert main(["compare", str(circuit_path), str(profile_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 4 + ("exhaustive" in results)
        for row in rows:
            label = row["heuristic"].replace(f"pure-{init}", f"fixed:{init}")
            report = results[label].report
            assert (row["compute"], row["network"], row["total"]) == (
                report.total_compute, report.total_network, report.total)


def test_exhaustive_dominates_heuristics(all_profiles):
    for seed in range(25):
        c = gen_random(seed, n_ops=1 + seed % 6)
        for prof in all_profiles.values():
            ex = exhaustive_optimal(c, prof)
            for result in (
                fixed_sharing(c, prof, "yao"),
                bottom_up(c, prof),
                top_down(c, prof),
                hill_climbing(c, prof, "yao"),
            ):
                assert ex.report.total <= result.report.total


def test_exhaustive_assignment_invariant_under_profile_scaling(inter_m3_medium):
    from mpcost.cost_model import CostProfile

    scaled = CostProfile(
        "scaled", inter_m3_medium.scale * 12.5, inter_m3_medium.schemes,
        inter_m3_medium.op_costs, inter_m3_medium.conversions,
    )
    for seed in range(10):
        c = gen_random(seed, n_ops=5)
        a = exhaustive_optimal(c, inter_m3_medium).assignment
        b = exhaustive_optimal(c, scaled).assignment
        assert a == b


# --- best-of ---------------------------------------------------------------------------


def test_best_of_bounds(all_profiles):
    for seed in range(15):
        c = gen_random(seed, n_ops=1 + seed % 6)
        for prof in all_profiles.values():
            best = best_of(c, prof)
            pure = fixed_sharing(c, prof, "yao")
            ex = exhaustive_optimal(c, prof)
            assert ex.report.total <= best.report.total <= pure.report.total
            assert check_feasible(c, best.assignment, prof) == []


def test_best_of_records_winner(inter_m3_medium):
    c = gen_chain(OpKind.MUL, 1)
    best = best_of(c, inter_m3_medium)
    # fixed arithmetic and bottom-up tie here; the fixed run wins the tie
    # because it is evaluated first
    assert best.heuristic == "fixed:arithmetic"


def test_best_of_compiles_once_and_builds_records_on_first_read(
        monkeypatch, inter_m3_medium):
    circuit = gen_matmul(MatMulSpec(n=5))
    counts = {"compiled": 0, "records": 0}

    class CountedCompiled(Compiled):
        def __init__(self, *args):
            counts["compiled"] += 1
            super().__init__(*args)

    class CountedNodeCost(NodeCost):
        def __new__(cls, *fields):
            counts["records"] += 1
            return super().__new__(cls, *fields)

    monkeypatch.setattr(optimizer, "Compiled", CountedCompiled)
    monkeypatch.setattr(cost_model, "NodeCost", CountedNodeCost)
    report = best_of(circuit, inter_m3_medium).report
    assert counts == {"compiled": 1, "records": 0}
    # The first read builds the records, one per distinct pair of op price
    # and conversion sum, shared by the nodes that have it; the second
    # reads them.
    per_node = report.per_node
    assert per_node is report.per_node
    assert len(per_node) == len(circuit.nodes)
    assert counts == {"compiled": 1, "records": len(set(per_node.values()))}


def counted_folds(monkeypatch):
    """Patch ``Compiled.sums`` to log each fold as ``(row, records)``."""
    folded = []
    sums = Compiled.sums

    def counted_sums(self, idx, records=None):
        folded.append((list(idx), records))
        return sums(self, idx, records)

    monkeypatch.setattr(Compiled, "sums", counted_sums)
    return folded


def test_best_of_folds_each_candidate_once(monkeypatch, inter_m3_medium):
    circuit = gen_matmul(MatMulSpec(n=5))
    folded = counted_folds(monkeypatch)
    looked_up = []
    row_sums = optimizer.row_sums

    def counted_row_sums(compiled, idx, scored):
        looked_up.append(list(idx))
        return row_sums(compiled, idx, scored)

    monkeypatch.setattr(optimizer, "row_sums", counted_row_sums)
    scored = optimizer.candidates(Compiled(circuit, inter_m3_medium), SolverLimits())
    # Each non-fixed row goes through row_sums once. Bottom-up, top-down
    # and hill climbing all land on the fixed arithmetic row, so they take
    # its uniform fold's sums, and no hill sweep is folded, though hill
    # climbing moved on more than one sweep.
    arithmetic = scored["fixed:arithmetic"][1]
    assert looked_up == [arithmetic] * 3
    assert all(scored[label][1] == arithmetic
               for label in ("bottom-up", "top-down", "hill-climbing"))
    assert scored["hill-climbing"][2]["iterations"] > 2
    assert folded == []
    # best_of folds nothing more: the winner's report reuses its
    # candidate's sums.
    best_of(circuit, inter_m3_medium)
    assert folded == []


def test_hill_climbing_folds_its_row_once_with_records(monkeypatch, inter_m3_medium):
    """No hill sweep is folded: the result's one fold gives the totals and
    the per-node records together, so reading them folds nothing more."""
    circuit = gen_matmul(MatMulSpec(n=5))
    folded = counted_folds(monkeypatch)
    result = hill_climbing(circuit, inter_m3_medium, "yao")
    per_node = result.report.per_node
    assert result.iterations > 2
    assert len(folded) == 1
    row, records = folded[0]
    assert row == Compiled(circuit, inter_m3_medium).indices(result.assignment)
    assert tuple(records) == tuple(per_node.values())


def test_exhaustive_folds_its_cap_then_records_on_read(monkeypatch, inter_m3_medium):
    """The search's cap is the sum of the decoded row's terms, so the only
    fold before a read is the returned row's, without records; the
    per-node records come from one more fold, on first read."""
    circuit = gen_matmul(MatMulSpec(n=2))
    folded = counted_folds(monkeypatch)
    result = exhaustive_optimal(circuit, inter_m3_medium)
    assert [records for _, records in folded] == [None]
    per_node = result.report.per_node
    assert len(folded) == 2
    row, records = folded[1]
    assert row == Compiled(circuit, inter_m3_medium).indices(result.assignment)
    assert tuple(records) == tuple(per_node.values())


def test_compare_folds_no_more_than_its_passes(capsys, monkeypatch, tmp_path,
                                              inter_m3_medium):
    """``compare`` folds what ``candidates`` and ``exact_pass`` fold and
    nothing more, here where the exact row is no candidate's row."""
    circuit = gen_random(17, 8)
    assert (exhaustive_optimal(circuit, inter_m3_medium).report.total
            < best_of(circuit, inter_m3_medium).report.total)
    folded = counted_folds(monkeypatch)
    compiled = Compiled(circuit, inter_m3_medium)
    optimizer.candidates(compiled, SolverLimits())
    optimizer.exact_pass(compiled, SolverLimits())
    passes = folded[:]
    folded.clear()
    path = tmp_path / "random-17.json"
    save_circuit(circuit, path)
    assert main(["compare", str(path), "inter-m3.medium", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][-1]["heuristic"] == "exhaustive"
    assert folded == passes


def first_least(cands, score):
    """The first of ``cands`` with the least ``score``, every one scored
    in full."""
    scores = [score(s) for s in cands]
    return cands[scores.index(min(scores))]


def reference_bottom_up(compiled):
    """Bottom-up as specified: in id order, each node with inputs takes
    the first scheme of least op cost plus conversions from the inputs
    that have a scheme, and a still-open input takes its scheme; an input
    nobody reads takes scheme 0."""
    ct = compiled.ct
    idx = [None] * len(compiled.cands)
    for i, ins in enumerate(compiled.inputs):
        if not ins:
            continue

        def score(s):
            cost = compiled.op_t[i][s]
            for j in ins:
                if idx[j] is not None:
                    cost += ct[idx[j]][s]
            return cost

        idx[i] = first_least(compiled.cands[i], score)
        for j in ins:
            if idx[j] is None:
                idx[j] = idx[i]
    return [0 if s is None else s for s in idx]


def reference_top_down(compiled):
    """Top-down as specified: in reverse id order, each node but an out
    node takes the first scheme of least op cost plus conversions into
    the consumers that have a scheme; an out node then takes its input's."""
    ct = compiled.ct
    ops = compiled.circuit.node_ops
    idx = [None] * len(compiled.cands)
    for i in reversed(range(len(idx))):
        if ops[i] is OpKind.OUT:
            continue

        def score(s):
            cost = compiled.op_t[i][s]
            for c in compiled.consumers[i]:
                if idx[c] is not None:
                    cost += ct[s][idx[c]]
            return cost

        idx[i] = first_least(compiled.cands[i], score)
    for i in compiled.circuit.out_ids:
        idx[i] = idx[compiled.inputs[i][0]]
    return idx


def reference_candidates(compiled, limits):
    """:func:`optimizer.candidates` as specified, with every row folded by
    ``Compiled.sums``, the greedy rows from :func:`reference_bottom_up` and
    :func:`reference_top_down`, and hill climbing run by
    :func:`reference_hill_climb`: every candidate scheme scored in full."""
    circuit, profile = compiled.circuit, compiled.profile
    n = len(circuit.nodes)
    rows = {f"fixed:{name}": [profile.scheme_index[name]] * n
            for name in profile.universal_schemes(circuit.ops_present())}
    rows["bottom-up"] = reference_bottom_up(compiled)
    rows["top-down"] = reference_top_down(compiled)
    scored = {label: (compiled.sums(row), row, {}) for label, row in rows.items()}
    init = optimizer.default_scheme(circuit, profile)
    assignment, iterations, limit_exceeded, _ = reference_hill_climb(
        circuit, profile, init, limits.max_passes)
    row = compiled.indices(assignment)
    scored["hill-climbing"] = (compiled.sums(row), row, {
        "iterations": iterations, "limit_exceeded": limit_exceeded})
    return scored


def shown(scored):
    """Every field of a candidate list."""
    return [
        (label, list(row), list(sums), extra)
        for label, (sums, row, extra) in scored.items()
    ]


def check_candidates(circuit, profile, max_passes=None):
    """``candidates`` equals the reference; returns the declared schemes
    that are not universal on ``circuit``, which have no fixed candidate."""
    compiled = Compiled(circuit, profile)
    limits = SolverLimits(max_passes=max_passes)
    assert shown(optimizer.candidates(compiled, limits)) == shown(
        reference_candidates(compiled, limits))
    universal = profile.universal_schemes(circuit.ops_present())
    return [s for s in profile.schemes if s not in universal]


@pytest.mark.parametrize("name", BUILTIN_PROFILES + tuple(STRESS_PRICES))
def test_candidates_match_a_reference_that_folds_every_row(name):
    """Reusing an earlier candidate's sums for an equal row, and dropping
    a scheme whose partial score reaches the best one, change no field of
    any candidate, on seeded random circuits of 1-60 ops under a bundled
    profile or seeded stress profiles."""
    partial_seen = False
    for seed in range(40):
        circuit = gen_random(seed, n_ops=1 + (seed * 7) % 60)
        partial_seen |= bool(check_candidates(
            circuit, profile_named(name, seed), max_passes=(None, 1, 2)[seed % 3]))
    assert partial_seen  # some circuit has a scheme that is not universal


@pytest.mark.parametrize("make, name, coincide", [
    (lambda: gen_matmul(MatMulSpec(n=5)), "inter-m3.medium", True),
    (lambda: gen_matmul(MatMulSpec(n=5)), "inter-m3.large", True),
    (lambda: gen_matmul(MatMulSpec(n=5)), "intra-c4.large", True),
    (lambda: gen_biometric(BiometricSpec(30, 5)), "inter-m3.medium", True),
    (lambda: gen_biometric(BiometricSpec(30, 5)), "intra-c4.large", False),
], ids=["matmul5-inter-m3.medium", "matmul5-inter-m3.large",
        "matmul5-intra-c4.large", "biometric30x5-inter-m3.medium",
        "biometric30x5-intra-c4.large"])
def test_candidates_match_the_reference_on_the_case_studies(
        all_profiles, make, name, coincide):
    """On matmul(5) the greedy and hill rows coincide with the fixed
    arithmetic row, and on biometric(30, 5) under inter-m3.medium hill
    climbing ends on bottom-up's row; under intra-c4.large no two of its
    candidates share a row."""
    circuit, profile = make(), all_profiles[name]
    check_candidates(circuit, profile)
    rows = [row for _, row, _ in optimizer.candidates(
        Compiled(circuit, profile), SolverLimits()).values()]
    distinct = len({tuple(row) for row in rows})
    assert (distinct < len(rows)) is coincide


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_best_of_on_a_fresh_profile_equals_the_warm_result(all_profiles, name):
    circuits = [gen_matmul(MatMulSpec(n=3)), gen_biometric(BiometricSpec(4, 2)),
                gen_random(7, n_ops=12)]
    warm = all_profiles[name]
    for circuit in circuits:
        best_of(circuit, warm)  # its tables are built by now
        assert repr(best_of(circuit, load_builtin(name))) == repr(
            best_of(circuit, warm))


def one_of_each(ops):
    """A circuit of one ``in`` node and one node per op in ``ops``, each
    reading only the ``in`` node."""
    return build([("in", [])] + [(op, [0] * op.arity) for op in ops])


@pytest.mark.parametrize("name", BUILTIN_PROFILES + tuple(STRESS_PRICES))
def test_uniform_memo_equals_the_uncached_facts_for_every_op_set(name):
    """For every subset of the priced ops, under a bundled profile or
    seeded stress profiles (some without ``yao``), the profile's memo
    holds the uncached universal schemes, a ``fixed:`` candidate per
    universal scheme and the default scheme, and ``default_scheme`` and
    ``candidates`` read them."""
    if name in STRESS_PRICES:
        profiles = [stress_profile(name, seed) for seed in range(20)]
        assert any("yao" not in p.schemes for p in profiles)
    else:
        profiles = [load_builtin(name)]
    subsets = [ops for k in range(len(COMPUTE_OPS) + 1)
               for ops in itertools.combinations(COMPUTE_OPS, k)]
    circuits = [one_of_each(ops) for ops in subsets]
    for profile in profiles:
        for ops, circuit in zip(subsets, circuits):
            assert circuit.ops_present() == ops
            universal = profile.universal_schemes(list(ops))
            default = "yao" if "yao" in universal else universal[0]
            fixed = tuple((f"fixed:{s}", profile.scheme_index[s]) for s in universal)
            expected = (universal, fixed, profile.scheme_index[default])
            assert profile._uniform(ops) == expected
            assert profile._uniform(ops) is profile._uniform(ops)
            assert optimizer.default_scheme(circuit, profile) == default
            labels = list(optimizer.candidates(Compiled(circuit, profile),
                                               SolverLimits()))
            assert labels[:-3] == [label for label, _ in fixed]
        assert len(profile._uniform_memo) == 2 ** len(COMPUTE_OPS)


def test_served_circuit_and_profile_equal_fresh_ones_and_stay_frozen(tmp_path):
    """A circuit and a profile that served ``best_of`` and the single
    strategies, so that every cache of theirs is filled, still compare,
    hash and print as freshly loaded ones do, and no attribute of theirs,
    cached or not, can be set or deleted. (A profile holds its prices in
    dicts, so hashing one raises ``TypeError``, served or fresh.)"""
    path = tmp_path / "biometric.json"
    save_circuit(gen_biometric(BiometricSpec(4, 2)), path)
    circuit, profile = load_circuit(path), load_builtin("inter-m3.medium")
    best_of(circuit, profile)
    fixed_sharing(circuit, profile, "yao")
    hill_climbing(circuit, profile, "boolean")
    optimizer.default_scheme(circuit, profile)
    assert "_ops_present" in circuit.__dict__ and "node_inputs" in circuit.__dict__
    assert profile._uniform_memo
    fresh_circuit, fresh_profile = load_circuit(path), load_builtin("inter-m3.medium")
    for served, fresh in ((circuit, fresh_circuit), (profile, fresh_profile)):
        assert served == fresh
        assert repr(served) == repr(fresh)
    assert hash(circuit) == hash(fresh_circuit)
    for value in (profile, fresh_profile):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    for value, names in ((circuit, ("nodes", "node_inputs", "_ops_present")),
                         (profile, ("name", "scheme_index", "_uniform_memo"))):
        for attr in names + ("new",):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
        for attr in names:
            with pytest.raises(AttributeError):
                delattr(value, attr)


def test_threads_sharing_a_cold_circuit_and_profile_agree():
    """Eight threads that start ``best_of`` together on fresh circuits and
    a fresh profile, filling their caches at once under a short switch
    interval, each get the result a lone call gives."""
    makers = [lambda: gen_matmul(MatMulSpec(n=2)),
              lambda: gen_biometric(BiometricSpec(3, 2)),
              lambda: gen_random(5, n_ops=30), lambda: gen_chain(OpKind.SUB, 9)]
    expected = [repr(best_of(make(), load_builtin("intra-c4.large")))
                for make in makers]
    circuits, profile = [make() for make in makers], load_builtin("intra-c4.large")
    barrier = threading.Barrier(8, timeout=10)
    seen = [None] * 8

    def work(k):
        barrier.wait()
        seen[k] = [repr(best_of(c, profile)) for c in circuits[k % 2:] + circuits]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k, results in enumerate(seen):
        assert results == expected[k % 2:] + expected
    assert len(profile._uniform_memo) == len({c.ops_present() for c in circuits})


@pytest.mark.parametrize("warm", [False, True])
def test_require_support_keeps_its_errors(warm):
    """An undeclared scheme and a declared one that misses an op raise
    :class:`UnsupportedScheme` with the same messages whether or not the
    profile's memo holds the circuit's op set; the second names the first
    node whose op the scheme does not support."""
    c = build([("in", []), ("in", []), ("add", [0, 1]), ("sub", [2, 1]),
               ("eq", [3, 0]), ("out", [4])])
    profile = load_builtin("inter-m3.medium")
    if warm:
        best_of(c, profile)
    for run in (lambda s: fixed_sharing(c, profile, s),
                lambda s: hill_climbing(c, profile, s)):
        with pytest.raises(UnsupportedScheme) as e:
            run("shamir")
        assert type(e.value) is UnsupportedScheme
        assert str(e.value) == (
            "scheme 'shamir' is not declared by profile 'inter-m3.medium'")
        with pytest.raises(UnsupportedScheme) as e:
            run("arithmetic")
        assert type(e.value) is UnsupportedScheme
        assert str(e.value) == "scheme 'arithmetic' does not support op sub (node 3)"
        assert run("boolean").heuristic in ("fixed:boolean", "hill-climbing")


# --- determinism ------------------------------------------------------------------------


def test_all_heuristics_are_deterministic(all_profiles):
    c = gen_random(3, n_ops=9)
    for prof in all_profiles.values():
        runs = []
        for _ in range(2):
            runs.append([
                assignment_to_json(fixed_sharing(c, prof, "yao").assignment),
                assignment_to_json(bottom_up(c, prof).assignment),
                assignment_to_json(top_down(c, prof).assignment),
                assignment_to_json(hill_climbing(c, prof, "yao").assignment),
                assignment_to_json(exhaustive_optimal(c, prof).assignment),
                assignment_to_json(best_of(c, prof).assignment),
            ])
        assert runs[0] == runs[1]
