import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcost import (
    OpKind,
    PriceSpec,
    RawMeasurement,
    assignment_from_json,
    assignment_to_json,
    build,
    check_feasible,
    derive_profile,
    gen_random,
    load_builtin,
    node_cost,
    profile_from_json,
    profile_to_json,
    total_cost,
)
from mpcost.circuit import COMPUTE_OPS
from mpcost.cost_model import (
    Compiled,
    CostProfile,
    measurements_from_json,
    prices_from_json,
)
from mpcost.errors import (
    DuplicateMeasurement,
    InfeasibleAssignment,
    MissingConversion,
    NegativeCost,
    NegativeInput,
    NoUniversalScheme,
    ParseError,
)
from mpcost.profiles import BUILTIN_PROFILES


def make_profile(scale=1.0, a_add=1.0, a_mul=1.0, y_all=2.0, conv=(0.5, 0.25)):
    """Two-scheme profile: 'a' supports add/mul only, 'y' everything."""
    op_costs = {(op, "y"): (y_all, y_all / 2) for op in COMPUTE_OPS}
    op_costs[(OpKind.ADD, "a")] = (a_add, 0.0)
    op_costs[(OpKind.MUL, "a")] = (a_mul, 0.0)
    conversions = {("a", "y"): conv, ("y", "a"): conv}
    return CostProfile("toy", scale, ("a", "y"), op_costs, conversions)


# --- node_cost / total_cost ---------------------------------------------------


def test_node_cost_worked_example(inter_m3_medium):
    # mul assigned arithmetic with both inputs on yao: operation cost plus
    # two yao->arithmetic conversions, summed from the profile entries
    c = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    asg = {0: "yao", 1: "yao", 2: "arithmetic", 3: "arithmetic"}
    rec = node_cost(c, 2, asg, inter_m3_medium)
    expected = (2134.72 + 75.14 + 2 * (25.39 + 137.41)) * 1e-6
    assert rec.total == pytest.approx(expected, abs=1e-12)
    assert rec.total == pytest.approx(2535.46e-6, abs=1e-9)


def test_node_cost_add_all_arithmetic(inter_m3_medium):
    c = build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])])
    asg = {i: "arithmetic" for i in range(4)}
    rec = node_cost(c, 2, asg, inter_m3_medium)
    assert rec.compute == pytest.approx(2.90e-6, abs=1e-15)
    assert rec.network == 0.0


def test_same_scheme_conversions_are_free(inter_m3_medium):
    c = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    for scheme in ("arithmetic", "boolean", "yao"):
        asg = {i: scheme for i in range(4)}
        rec = node_cost(c, 2, asg, inter_m3_medium)
        assert rec.conv_compute == 0.0
        assert rec.conv_network == 0.0


def test_node_cost_rejects_infeasible_and_unknown(inter_m3_medium):
    c = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    asg = {i: "arithmetic" for i in range(4)}
    with pytest.raises(InfeasibleAssignment):
        node_cost(c, 2, asg, inter_m3_medium)  # sub has no arithmetic protocol
    with pytest.raises(InfeasibleAssignment):
        node_cost(c, 0, {}, inter_m3_medium)
    from mpcost.errors import UnknownNode
    with pytest.raises(UnknownNode):
        node_cost(c, 99, asg, inter_m3_medium)


def test_total_cost_in_out_only_is_zero(inter_m3_medium):
    c = build([("in", []), ("out", [0])])
    report = total_cost(c, {0: "yao", 1: "yao"}, inter_m3_medium)
    assert report.total == 0.0


def test_total_cost_minimal_adder(adder, inter_m3_medium):
    report = total_cost(adder, {i: "arithmetic" for i in range(4)}, inter_m3_medium)
    assert report.total == pytest.approx(2.90e-6, abs=1e-15)
    assert report.total_network == 0.0


def test_total_cost_linear_combination(inter_m3_medium):
    # 25 independent muls and 20 adds, everything arithmetic: the total is
    # the plain linear combination of the per-op entries
    entries = [("in", []), ("in", [])]
    for _ in range(25):
        entries.append(("mul", [0, 1]))
    for _ in range(20):
        entries.append(("add", [0, 1]))
    entries.append(("out", [2]))
    c = build(entries)
    asg = {i: "arithmetic" for i in range(len(c.nodes))}
    report = total_cost(c, asg, inter_m3_medium)
    expected = (25 * (2134.72 + 75.14) + 20 * 2.90) * 1e-6
    assert report.total == pytest.approx(expected, rel=1e-12)
    assert report.total == pytest.approx(55304.5e-6, rel=1e-9)


def test_report_totals_are_consistent(inter_m3_medium):
    c = gen_random(7, n_ops=12)
    asg = {i: "yao" for i in range(len(c.nodes))}
    report = total_cost(c, asg, inter_m3_medium)
    assert report.total == report.total_compute + report.total_network
    per_sum = sum(rec.total for rec in report.per_node.values())
    assert report.total == pytest.approx(per_sum, rel=1e-12)


_BUNDLED = [load_builtin(name) for name in BUILTIN_PROFILES]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), n_ops=st.integers(1, 40),
       prof=st.sampled_from(_BUNDLED + [make_profile()]), data=st.data())
def test_report_and_total_agree_bit_for_bit(seed, n_ops, prof, data):
    compiled = Compiled(gen_random(seed, n_ops), prof)
    idx = [data.draw(st.sampled_from(cands)) for cands in compiled.cands]
    assert compiled.report(idx).total.hex() == compiled.total(idx).hex()


def test_total_cost_scales_linearly_with_profile():
    prof1 = make_profile(scale=1.0)
    prof7 = make_profile(scale=7.0)
    for seed in range(10):
        c = gen_random(seed, n_ops=6)
        asg = {i: "y" for i in range(len(c.nodes))}
        t1 = total_cost(c, asg, prof1).total
        t7 = total_cost(c, asg, prof7).total
        assert t7 == pytest.approx(7.0 * t1, rel=1e-12)


# --- check_feasible ------------------------------------------------------------


def test_compiles_share_the_profile_tables(monkeypatch):
    prof = make_profile()
    first = Compiled(gen_random(1, n_ops=8), prof)
    calls = []
    schemes_for = CostProfile.schemes_for

    def counted(self, op):
        calls.append(op)
        return schemes_for(self, op)

    monkeypatch.setattr(CostProfile, "schemes_for", counted)
    second = Compiled(gen_random(2, n_ops=8), prof)
    assert calls == []
    assert second.ct is first.ct
    assert second.cp is first.cp and second.cn is first.cn
    by_op = {}
    for compiled in (first, second):
        for node, *rows in zip(compiled.circuit.nodes, compiled.op_p,
                               compiled.op_n, compiled.op_t, compiled.cands):
            for row, shared in zip(rows, by_op.setdefault(node.op, rows)):
                assert row is shared


def test_check_feasible_flags_unsupported(inter_m3_medium):
    c = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    asg = {i: "arithmetic" for i in range(4)}
    violations = check_feasible(c, asg, inter_m3_medium)
    assert [v.node for v in violations] == [2]


def test_check_feasible_accepts_all_yao(inter_m3_medium):
    for seed in range(10):
        c = gen_random(seed, n_ops=8)
        asg = {i: "yao" for i in range(len(c.nodes))}
        assert check_feasible(c, asg, inter_m3_medium) == []


def test_check_feasible_requires_totality(adder, inter_m3_medium):
    asg = {0: "yao", 1: "yao", 2: "yao"}  # out node missing
    violations = check_feasible(adder, asg, inter_m3_medium)
    assert [v.node for v in violations] == [3]
    violations = check_feasible(adder, {**asg, 3: "nope"}, inter_m3_medium)
    assert "not in profile" in violations[0].reason


# --- assignment JSON ------------------------------------------------------------


def test_assignment_json_round_trip():
    asg = {2: "yao", 0: "arithmetic", 1: "boolean"}
    text = assignment_to_json(asg)
    assert text == '{"0":"arithmetic","1":"boolean","2":"yao"}\n'
    assert assignment_from_json(text) == asg


# --- profile validation ----------------------------------------------------------


def test_profile_requires_all_conversions():
    op_costs = {(op, "y"): (1.0, 0.0) for op in COMPUTE_OPS}
    op_costs[(OpKind.ADD, "a")] = (1.0, 0.0)
    with pytest.raises(MissingConversion):
        CostProfile("p", 1.0, ("a", "y"), op_costs, {("a", "y"): (0.1, 0.1)})


def test_profile_rejects_negative_costs():
    op_costs = {(op, "y"): (1.0, 0.0) for op in COMPUTE_OPS}
    op_costs[(OpKind.ADD, "y")] = (-1.0, 0.0)
    with pytest.raises(NegativeCost):
        CostProfile("p", 1.0, ("y",), op_costs, {})


def test_profile_requires_universal_scheme():
    op_costs = {(OpKind.ADD, "a"): (1.0, 0.0), (OpKind.MUL, "a"): (1.0, 0.0)}
    with pytest.raises(NoUniversalScheme):
        CostProfile("p", 1.0, ("a",), op_costs, {})


def test_profile_parse_errors():
    with pytest.raises(ParseError):
        profile_from_json("{broken")
    ok = profile_to_json(make_profile())
    with pytest.raises(ParseError):
        profile_from_json(ok.replace('"scale": 1.0', '"scale": 0'))
    # self-conversions are implicit and must not be listed
    with pytest.raises(ParseError):
        profile_from_json(ok.replace('"a->y"', '"a->a"'))
    # in/out never carry cost entries
    with pytest.raises(ParseError):
        profile_from_json(ok.replace('"add"', '"in"'))


_PROFILE_VALUE_PATHS = (
    ("scale",),
    ("ops", "add", "a", "p"),
    ("conversions", "y->a", "n"),
)


def _profile_json_with(path, value):
    """make_profile()'s JSON with the entry at ``path`` set to ``value``
    (``json.dumps`` writes NaN and infinities as ``NaN``/``Infinity``)."""
    doc = json.loads(profile_to_json(make_profile()))
    *parents, leaf = path
    target = doc
    for key in parents:
        target = target[key]
    target[leaf] = value
    return json.dumps(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_values(bad):
    with pytest.raises(ParseError):
        make_profile(scale=bad)
    with pytest.raises(ParseError):
        make_profile(a_add=bad)
    with pytest.raises(ParseError):
        make_profile(conv=(0.5, bad))
    for path in _PROFILE_VALUE_PATHS:
        with pytest.raises(ParseError):
            profile_from_json(_profile_json_with(path, bad))


def test_profile_rejects_bools_posing_as_numbers():
    for path in _PROFILE_VALUE_PATHS:
        with pytest.raises(ParseError):
            profile_from_json(_profile_json_with(path, True))


def test_profile_json_round_trip_is_canonical():
    prof = make_profile(scale=1e-6, conv=(0.5, 0.25))
    text = profile_to_json(prof)
    again = profile_from_json(text)
    assert profile_to_json(again) == text
    assert again.schemes == prof.schemes
    assert again.op_costs == prof.op_costs
    assert again.conversions == prof.conversions


# --- derive_profile ---------------------------------------------------------------


def _full_measurements(seconds=1.0, nbytes=10**6):
    """One measurement per (op, scheme) pair plus both conversions, enough
    for the derived profile to validate."""
    ms = [RawMeasurement.for_op(op, "y", seconds, nbytes) for op in COMPUTE_OPS]
    ms.append(RawMeasurement.for_op(OpKind.ADD, "a", seconds, nbytes))
    ms.append(RawMeasurement.for_conversion("a", "y", seconds, nbytes))
    ms.append(RawMeasurement.for_conversion("y", "a", seconds, nbytes))
    return ms


def test_derive_profile_worked_example():
    # 1 s/op on two 7-cent/hour VMs and 1 MB/op at 6.5 cents/GB
    prices = PriceSpec(vm_rate_a=7.0, vm_rate_b=7.0, net_rate=6.5, gb_bytes=10**9)
    prof = derive_profile(_full_measurements(), prices, "derived")
    p, n = prof.op_cost_cents(OpKind.ADD, "y")
    assert p == pytest.approx(14.0 / 3600.0, abs=1e-12)
    assert p == pytest.approx(0.0038889, abs=1e-7)
    assert n == 0.0065


def test_derive_profile_zero_measurement_is_free():
    prices = PriceSpec(7.0, 7.0, 6.5)
    ms = _full_measurements(seconds=0.0, nbytes=0.0)
    prof = derive_profile(ms, prices, "zero")
    assert prof.op_cost_cents(OpKind.MUL, "y") == (0.0, 0.0)


def test_derive_profile_linearity():
    ms = _full_measurements()
    base = derive_profile(ms, PriceSpec(7.0, 7.0, 6.5), "base")
    doubled = derive_profile(ms, PriceSpec(14.0, 14.0, 6.5), "double")
    p0, n0 = base.op_cost_cents(OpKind.ADD, "y")
    p1, n1 = doubled.op_cost_cents(OpKind.ADD, "y")
    assert p1 == pytest.approx(2 * p0, rel=1e-12)
    assert n1 == n0


@settings(max_examples=60, deadline=None)
@given(
    seconds=st.floats(min_value=0, max_value=100, allow_nan=False),
    rate=st.floats(min_value=0, max_value=1000, allow_nan=False),
)
def test_derive_profile_compute_formula(seconds, rate):
    ms = [RawMeasurement.for_op(op, "y", seconds, 0.0) for op in COMPUTE_OPS]
    prof = derive_profile(ms, PriceSpec(rate, rate, 0.0), "f")
    p, _ = prof.op_cost_cents(OpKind.GE, "y")
    assert math.isclose(p, seconds * 2 * rate / 3600.0, rel_tol=1e-12, abs_tol=0.0)


def test_derive_profile_rejects_duplicates_and_negatives():
    prices = PriceSpec(7.0, 7.0, 6.5)
    ms = _full_measurements()
    with pytest.raises(DuplicateMeasurement):
        derive_profile(ms + [RawMeasurement.for_op(OpKind.ADD, "y", 1, 1)],
                       prices, "dup")
    with pytest.raises(NegativeInput):
        RawMeasurement.for_op(OpKind.ADD, "y", -1.0, 0.0)
    with pytest.raises(NegativeInput):
        PriceSpec(-1.0, 7.0, 6.5)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_derive_profile_rejects_a_bad_scale(scale):
    with pytest.raises(ParseError, match="scale"):
        derive_profile(_full_measurements(), PriceSpec(7.0, 7.0, 6.5), "s", scale=scale)


def test_derive_profile_empty_measurements_fail_validation():
    with pytest.raises(NoUniversalScheme):
        derive_profile([], PriceSpec(7.0, 7.0, 6.5), "empty")


# --- measurement and price files ---------------------------------------------------

_PRICES = {"vm_rate_a": 7.0, "vm_rate_b": 7.0, "net_rate": 6.5}


@pytest.mark.parametrize("key", ["vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true"])
def test_prices_reject_non_finite_and_bool_values(key, value):
    fields = {k: json.dumps(v) for k, v in _PRICES.items()}
    fields[key] = value
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    with pytest.raises(ParseError):
        prices_from_json(text)


def test_prices_accept_integral_gb_bytes():
    assert prices_from_json(json.dumps({**_PRICES, "gb_bytes": 1e9})).gb_bytes == 10**9
    with pytest.raises(ParseError):
        prices_from_json(json.dumps({**_PRICES, "gb_bytes": 1.5}))
    with pytest.raises(ParseError, match="net_rate"):
        prices_from_json(json.dumps({"vm_rate_a": 7.0, "vm_rate_b": 7.0}))


@pytest.mark.parametrize("key", ["seconds_per_op", "bytes_per_op"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true"])
def test_measurements_reject_non_finite_and_bool_values(key, value):
    fields = {"seconds_per_op": "1.0", "bytes_per_op": "100"}
    fields[key] = value
    text = (
        '{"measurements": [{"op": "add", "scheme": "y", '
        + ", ".join(f'"{k}": {v}' for k, v in fields.items())
        + "}]}"
    )
    with pytest.raises(ParseError):
        measurements_from_json(text)


_ADD_YAO = {"op": "add", "scheme": "y", "seconds_per_op": 1.0, "bytes_per_op": 100}
_CONV = {"seconds_per_op": 1.0, "bytes_per_op": 1}


@pytest.mark.parametrize("doc", [
    {"measurements": 5},
    {"measurements": None},
    {"measurements": {"op": "add"}},
    {"measurements": [{**_ADD_YAO, "scheme": ["x"]}]},
    {"measurements": [{**_ADD_YAO, "op": ["add"]}]},
    {"measurements": [{**_ADD_YAO, "op": None}]},
    {"measurements": [{**_CONV, "conversion": [1, 2]}]},
    {"measurements": [{**_CONV, "conversion": ["a"]}]},
    {"measurements": [{**_CONV, "conversion": "a->b"}]},
])
def test_measurements_reject_malformed_structure(doc):
    with pytest.raises(ParseError):
        measurements_from_json(json.dumps(doc))


def test_direct_construction_rejects_non_finite_inputs():
    with pytest.raises(ParseError):
        RawMeasurement.for_op(OpKind.ADD, "y", math.nan, 0.0)
    with pytest.raises(ParseError):
        RawMeasurement.for_conversion("a", "y", 1.0, math.inf)
    with pytest.raises(ParseError):
        PriceSpec(7.0, math.nan, 6.5)
