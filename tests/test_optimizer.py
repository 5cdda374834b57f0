import functools
import itertools
import math
import random
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
    matmul_inputs,
    top_down,
    total_cost,
)
from mpcost import cost_model, optimizer
from mpcost.casegen import BiometricSpec, MatMulSpec, gen_matmul
from mpcost.circuit import COMPUTE_OPS
from mpcost.cost_model import Compiled, CostProfile, NodeCost
from mpcost.errors import (
    InvalidArgument,
    MpcostError,
    SearchSpaceTooLarge,
    UnsupportedScheme,
)
from mpcost.profiles import BUILTIN_PROFILES, load_builtin
from test_exact_golden import mux_ladder
from test_strategy_golden import sweep_totals


def brute_force_minimum(circuit, profile):
    """Independent oracle: enumerate every feasible assignment over every
    node (in/out included) with plain itertools + total_cost, and return
    the cheapest, lexicographic on ties."""
    domains = [
        [s for s in profile.schemes if profile.supports(node.op, s)]
        for node in circuit.nodes
    ]
    best = None
    for combo in itertools.product(*domains):
        asg = dict(enumerate(combo))
        total = total_cost(circuit, asg, profile).total
        key = (total, tuple(profile.scheme_index[s] for s in combo))
        if best is None or key < best[0]:
            best = (key, asg)
    return best[1], best[0][0]


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

    totals = [compiled.total(idx)]
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
        totals.append(compiled.total(idx))
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
    assert [t.hex() for t in totals] == [t.hex() for t in want[3]]


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
    # different orders round apart. Rows whose fast total is a rounding
    # step above the fast minimum must still be rescored: without that
    # slack the solver returns another assignment here.
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
    # All-boolean and all-yao both cost 7 tenths of a cent. Summed as
    # floats, all-boolean reads 0.7000000000000001 and all-yao 0.7, and the
    # search's bound for the yao subtree rounds above 0.7000000000000001:
    # a solver that prunes on the bare float comparison keeps all-boolean.
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
    assert got.report.total == want_total == 0.7
    assert got.assignment == want_asg


def test_exhaustive_prunes_only_outside_the_rounding_slack():
    # Prices in thousandths of a cent: twenty rows tie at 0.007. The
    # search's dual bound is a float sum of terms of either sign, which
    # can round above that tie; a solver that prunes on the bare bound,
    # without its band and slack, returns a later row.
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


def test_exhaustive_solves_a_wide_star_quickly(inter_m3_medium):
    # One add feeding 3,000 out nodes: a search space of 3, but 3,003
    # nodes to set. Arithmetic has the cheapest add and every conversion
    # costs extra, so all-arithmetic is the optimum. A solver quadratic in
    # the node count took about 12 s here.
    c = build([("in", []), ("in", []), ("add", [0, 1])] + [("out", [2])] * 3000)
    start = time.perf_counter()
    result = exhaustive_optimal(c, inter_m3_medium)
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


@settings(max_examples=80, deadline=None)
@given(
    circuit=small_circuits(),
    prof=st.sampled_from(_PROPERTY_PROFILES) | random_profiles(),
)
def test_exhaustive_is_the_true_minimum(circuit, prof):
    got = exhaustive_optimal(circuit, prof)
    want_asg, want_total = brute_force_minimum(circuit, prof)
    assert got.report.total == want_total
    assert got.assignment == want_asg
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
    # The first read builds one record per node, the second reads them.
    assert report.per_node is report.per_node
    assert counts == {"compiled": 1, "records": len(circuit.nodes)}


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
    """Every field of a candidate list, floats by ``.hex()``."""
    return [
        (label, list(row), [x.hex() for x in sums], extra)
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
