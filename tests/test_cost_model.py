import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcost import (
    BiometricSpec,
    Circuit,
    CostReport,
    MatMulSpec,
    Node,
    OpKind,
    OptimizeResult,
    PriceSpec,
    RawMeasurement,
    SolverLimits,
    Violation,
    assignment_from_json,
    assignment_to_json,
    bottom_up,
    build,
    check_feasible,
    derive_profile,
    gen_random,
    load_builtin,
    profile_from_json,
    profile_to_json,
    top_down,
    total_cost,
)
from mpcost.circuit import COMPUTE_OPS
from mpcost.cost_model import Compiled, CostProfile, NodeCost
from mpcost.derive import measurements_from_json, prices_from_json
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


# --- per-node cost / total_cost ---------------------------------------------------


def test_node_cost_worked_example(inter_m3_medium):
    # mul assigned arithmetic with both inputs on yao: operation cost plus
    # two yao->arithmetic conversions, summed from the profile entries
    c = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    asg = {0: "yao", 1: "yao", 2: "arithmetic", 3: "arithmetic"}
    rec = total_cost(c, asg, inter_m3_medium).per_node[2]
    expected = (2134.72 + 75.14 + 2 * (25.39 + 137.41)) * 1e-6
    assert rec.total == pytest.approx(expected, abs=1e-12)
    assert rec.total == pytest.approx(2535.46e-6, abs=1e-9)


def test_node_cost_add_all_arithmetic(inter_m3_medium):
    c = build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])])
    asg = {i: "arithmetic" for i in range(4)}
    rec = total_cost(c, asg, inter_m3_medium).per_node[2]
    assert rec.compute == pytest.approx(2.90e-6, abs=1e-15)
    assert rec.network == 0.0


def test_same_scheme_conversions_are_free(inter_m3_medium):
    c = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
    for scheme in ("arithmetic", "boolean", "yao"):
        asg = {i: scheme for i in range(4)}
        rec = total_cost(c, asg, inter_m3_medium).per_node[2]
        assert rec.conv_compute == 0.0
        assert rec.conv_network == 0.0


def test_node_cost_rejects_infeasible(inter_m3_medium):
    c = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    asg = {i: "arithmetic" for i in range(4)}
    with pytest.raises(InfeasibleAssignment):
        total_cost(c, asg, inter_m3_medium)  # sub has no arithmetic protocol
    with pytest.raises(InfeasibleAssignment):
        total_cost(c, {}, inter_m3_medium)


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


def _reference_report(circuit, profile, asg):
    """The evaluator in its plain form, priced straight from the profile's
    stored prices: per node, a conversion sum from 0.0 over every input
    edge, same-scheme edges included at 0.0."""
    scale = float(profile.scale)

    def cents(prices, key):
        p, n = prices.get(key, (0.0, 0.0))  # in/out ops, same-scheme edges
        return float(p) * scale, float(n) * scale

    per_node, tc, tn = {}, 0.0, 0.0
    for node in circuit.nodes:
        s = asg[node.id]
        op_p, op_n = cents(profile.op_costs, (node.op, s))
        conv_p = conv_n = 0.0
        for j in node.inputs:
            p, n = cents(profile.conversions, (asg[j], s))
            conv_p += p
            conv_n += n
        per_node[node.id] = (op_p, op_n, conv_p, conv_n)
        tc += op_p
        tc += conv_p
        tn += op_n
        tn += conv_n
    return per_node, tc, tn, tc + tn


#: Stored prices a random profile draws from, zero among them.
_CENTS = st.sampled_from([0.0, 0.0, 1e-6, 0.25, 1.0, 3.0, 2535.46, 1e9])


@st.composite
def _random_profiles(draw):
    """2-4 schemes, the first supporting every op, the rest a random
    subset; any price, conversions included, may be zero."""
    schemes = tuple("s%d" % k for k in range(draw(st.integers(2, 4))))
    op_costs = {}
    for op in COMPUTE_OPS:
        for k, s in enumerate(schemes):
            if k == 0 or draw(st.booleans()):
                op_costs[(op, s)] = (draw(_CENTS), draw(_CENTS))
    conversions = {(r, s): (draw(_CENTS), draw(_CENTS))
                   for r in schemes for s in schemes if r != s}
    scale = draw(st.sampled_from([1.0, 1e-6, 7]))
    return CostProfile("random", scale, schemes, op_costs, conversions)


def _row(draw, compiled, mode):
    """Scheme indices per node: ``same`` puts every node on one universal
    scheme (every edge same-scheme); ``differ`` gives each node, where it
    can, a scheme none of its inputs has; ``mixed`` draws each freely."""
    profile = compiled.profile
    if mode == "same":
        return [profile.scheme_index[profile.universal_schemes()[0]]] * len(
            compiled.cands)
    idx = []
    for cands, ins in zip(compiled.cands, compiled.inputs):
        if mode == "differ":
            taken = {idx[j] for j in ins}
            cands = [s for s in cands if s not in taken] or cands
        idx.append(draw(st.sampled_from(cands)))
    return idx


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), n_ops=st.integers(1, 30),
       mux_weight=st.sampled_from([0.0, 1.0, 20.0]),
       prof=st.one_of(st.sampled_from(_BUNDLED), _random_profiles()),
       mode=st.sampled_from(["same", "mixed", "differ"]), data=st.data())
def test_total_and_report_match_a_reference_loop_bit_for_bit(
    seed, n_ops, mux_weight, prof, mode, data
):
    weights = {op: 1.0 for op in COMPUTE_OPS}
    weights[OpKind.MUX] = mux_weight  # mux nodes have three inputs
    circuit = gen_random(seed, n_ops, weights)
    compiled = Compiled(circuit, prof)
    idx = _row(data.draw, compiled, mode)
    want_nodes, *want_totals = _reference_report(
        circuit, prof, compiled.assignment(idx))
    # A report that folds the row itself, and one built from given sums
    # on a row its caller changes afterwards: its per-node records are
    # built on first read, from the row as it was.
    row = list(idx)
    reports = [compiled.report(idx), compiled.report(row, compiled.sums(idx))]
    row.clear()
    assert compiled.total(idx).hex() == want_totals[-1].hex()
    for report in reports:
        got_totals = (report.total_compute, report.total_network, report.total)
        assert [x.hex() for x in got_totals] == [x.hex() for x in want_totals]
        assert list(report.per_node) == list(want_nodes)
        for i, rec in report.per_node.items():
            got = (rec.op_compute, rec.op_network, rec.conv_compute,
                   rec.conv_network)
            assert [x.hex() for x in got] == [x.hex() for x in want_nodes[i]]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), n_ops=st.integers(1, 30),
       prof=st.one_of(st.sampled_from(_BUNDLED), _random_profiles()))
def test_uniform_sums_equal_the_fold_bit_for_bit(seed, n_ops, prof):
    compiled = Compiled(gen_random(seed, n_ops), prof)
    n = len(compiled.cands)
    for name in prof.universal_schemes():
        s = prof.scheme_index[name]
        got = compiled.uniform_sums(s)
        assert [x.hex() for x in got] == [x.hex() for x in compiled.sums([s] * n)]


def test_node_cost_contract():
    rec = NodeCost(1.0, 2.0, 0.25, 0.5)
    assert NodeCost._fields == (
        "op_compute", "op_network", "conv_compute", "conv_network"
    )
    assert (rec.compute, rec.network, rec.total) == (1.25, 2.5, 3.75)
    assert repr(rec) == (
        "NodeCost(op_compute=1.0, op_network=2.0, conv_compute=0.25, "
        "conv_network=0.5)"
    )
    for field in NodeCost._fields + ("compute", "total"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0.0)
    with pytest.raises(AttributeError):
        rec.extra = 0.0
    assert rec == NodeCost(1.0, 2.0, 0.25, 0.5)
    assert hash(rec) == hash(NodeCost(1.0, 2.0, 0.25, 0.5))


_EMPTY_REPORT = Compiled(build([("in", [])]), make_profile()).report([0])


@pytest.mark.parametrize("record, expected_repr", [
    (Node(2, OpKind.ADD, (0, 1)),
     "Node(id=2, op=<OpKind.ADD: 'add'>, inputs=(0, 1), party=None, name=None)"),
    (Violation(3, "no scheme assigned"),
     "Violation(node=3, reason='no scheme assigned')"),
    (OptimizeResult({0: "a"}, _EMPTY_REPORT, "fixed:a"),
     "OptimizeResult(assignment={0: 'a'}, report=CostReport(total_compute=0.0, "
     "total_network=0.0, total=0.0), heuristic='fixed:a', iterations=1, "
     "limit_exceeded=False)"),
])
def test_record_contract(record, expected_repr):
    """Node, Violation and OptimizeResult are named tuples, as NodeCost is:
    equal by fields, hashable when their fields are, immutable, and shown
    as their dataclass forms were."""
    cls = type(record)
    assert repr(record) == expected_repr
    copy = cls(*record)
    assert copy == record and copy is not record
    assert copy != cls(*record[:-1], "other")
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    if cls is OptimizeResult:  # its assignment is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)


_ADDER = build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])])


@pytest.mark.parametrize("make, shown, hashable", [
    (lambda: Circuit(_ADDER.nodes, 8), ("nodes", "bitwidth"), True),
    (make_profile, ("name", "scale", "schemes", "op_costs", "conversions"), False),
    (lambda: Compiled(_ADDER, make_profile()).report([1, 1, 1, 1]),
     ("total_compute", "total_network", "total"), True),
    (lambda: SolverLimits(5), ("max_space", "max_passes"), True),
    (lambda: BiometricSpec(4, attrs=2), ("rows", "attrs", "bitwidth"), True),
    (lambda: MatMulSpec(3, bitwidth=8), ("n", "bitwidth"), True),
    (lambda: PriceSpec(7, 10.1, net_rate=6.5),
     ("vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes"), True),
    (lambda: RawMeasurement.for_op(OpKind.ADD, "yao", 1e-3, 416),
     ("seconds_per_op", "bytes_per_op", "op", "scheme", "source", "target"), True),
    (lambda: RawMeasurement.for_conversion("yao", "arithmetic", 2e-3, 512),
     ("seconds_per_op", "bytes_per_op", "op", "scheme", "source", "target"), True),
], ids=["Circuit", "CostProfile", "CostReport", "SolverLimits", "BiometricSpec",
        "MatMulSpec", "PriceSpec", "RawMeasurement-op", "RawMeasurement-conversion"])
def test_value_contract(make, shown, hashable):
    """The value classes behave as frozen dataclasses, which the specs
    were: equal, hashed and shown by their compared fields, and immutable."""
    value, twin = make(), make()
    cls = type(value)
    assert value == twin and value is not twin
    assert value != tuple(getattr(value, name) for name in shown)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in shown) + ")"
    if hashable:
        assert hash(value) == hash(twin)
    else:  # it holds dicts
        with pytest.raises(TypeError):
            hash(value)
    for name in shown:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == twin


def test_reports_compare_by_their_totals_only():
    report = Compiled(_ADDER, make_profile()).report([1, 1, 1, 1])
    totals = report.total_compute, report.total_network, report.total
    assert report == CostReport(*totals, None, ())
    assert report != CostReport(*totals[:2], totals[2] + 1.0, report.compiled,
                                report.row)


@pytest.mark.parametrize("how", ["total_cost", "bottom-up", "top-down"])
def test_read_records_come_from_the_totals_fold(how, inter_m3_medium, monkeypatch):
    c = gen_random(7, n_ops=12)
    folds = []
    fold = Compiled.sums

    def counted(self, idx, records=None):
        folds.append(records is not None)
        return fold(self, idx, records)

    monkeypatch.setattr(Compiled, "sums", counted)
    if how == "total_cost":
        report = total_cost(c, {i: "yao" for i in range(len(c.nodes))},
                            inter_m3_medium)
    else:
        run = bottom_up if how == "bottom-up" else top_down
        report = run(c, inter_m3_medium).report
    assert len(report.per_node) == len(c.nodes)
    assert folds == [True]


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


def test_universal_schemes_intersect_in_declaration_order():
    """Declaration order, any iterable, every scheme for no op, and no
    scheme for a value that is not an op."""
    prof = CostProfile("p", 1.0, ("y", "a", "b"), {
        **{(op, "y"): (1.0, 0.0) for op in COMPUTE_OPS},
        **{(op, "b"): (1.0, 0.0) for op in COMPUTE_OPS if op != OpKind.SUB},
        (OpKind.ADD, "a"): (1.0, 0.0),
    }, {(s, t): (0.0, 0.0) for s in "yab" for t in "yab" if s != t})
    assert prof.universal_schemes() == ("y",)
    assert prof.universal_schemes([OpKind.ADD]) == ("y", "a", "b")
    assert prof.universal_schemes(op for op in (OpKind.MUL, OpKind.IN)) == ("y", "b")
    assert prof.universal_schemes(()) == ("y", "a", "b")
    assert prof.universal_schemes([OpKind.OUT]) == ("y", "a", "b")
    assert prof.universal_schemes(["add"]) == ()
    assert prof.universal_schemes([OpKind.ADD, None]) == ()


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


@pytest.mark.parametrize("name, schemes", [
    ("p", ("a->b", "y")),
    ("p", ("a", 7)),
    ("p", ("a", None)),
    (7, ("a", "y")),
    (None, ("a", "y")),
])
def test_profile_rejects_names_a_file_cannot_hold(name, schemes):
    """The constructor rejects every profile that ``profile_to_json`` would
    write and ``profile_from_json`` would not read back."""
    a, y = schemes
    op_costs = {(op, y): (1.0, 0.0) for op in COMPUTE_OPS}
    with pytest.raises(ParseError):
        CostProfile(name, 1.0, schemes, op_costs,
                    {(a, y): (0.5, 0.5), (y, a): (0.5, 0.5)})


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


@pytest.mark.parametrize("bad", [
    lambda: RawMeasurement.for_op(OpKind.ADD, 1, 1.0, 1.0),
    lambda: RawMeasurement.for_conversion(1, "a", 1.0, 1.0),
    lambda: RawMeasurement.for_conversion("a", b"y", 1.0, 1.0),
], ids=["scheme", "source", "target"])
def test_measurement_rejects_a_scheme_name_that_is_not_a_string(bad):
    """The constructor checks every name, so ``derive_profile`` never sorts
    a mix of names it cannot compare."""
    with pytest.raises(ParseError, match="measurement .*must be a string"):
        derive_profile(_full_measurements() + [bad()], PriceSpec(7.0, 7.0, 6.5), "mix")


_BAD_SCALES = [0.0, -1.0, math.nan, math.inf, True, False,
               pytest.param(10**400, id="huge-int"), pytest.param("1", id="str")]


@pytest.mark.parametrize("scale", _BAD_SCALES)
def test_derive_profile_rejects_a_bad_scale(scale):
    with pytest.raises(ParseError, match="scale"):
        derive_profile(_full_measurements(), PriceSpec(7.0, 7.0, 6.5), "s", scale=scale)


@pytest.mark.parametrize("scale", _BAD_SCALES)
def test_profile_rejects_a_bad_scale(scale):
    good = make_profile()
    with pytest.raises(ParseError, match="scale"):
        CostProfile("s", scale, good.schemes, good.op_costs, good.conversions)


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


@pytest.mark.parametrize("doc, match", [
    ({"measurements": [{**_CONV, "conversion": ["a", "y"], "op": "add",
                        "scheme": "y"}]}, "keys must be"),
    ({"measurements": [{**_ADD_YAO, "typo_key": 1}]}, "keys must be"),
    ({"schemas": ["y"], "measurements": [_ADD_YAO]}, "'schemas'"),
], ids=["conversion-with-op", "typo-key", "schemas"])
def test_measurements_reject_unknown_key_sets(doc, match):
    with pytest.raises(ParseError, match=match):
        measurements_from_json(json.dumps(doc))


def test_direct_construction_rejects_non_finite_inputs():
    with pytest.raises(ParseError):
        RawMeasurement.for_op(OpKind.ADD, "y", math.nan, 0.0)
    with pytest.raises(ParseError):
        RawMeasurement.for_conversion("a", "y", 1.0, math.inf)
    with pytest.raises(ParseError):
        PriceSpec(7.0, math.nan, 6.5)


@pytest.mark.parametrize("gb_bytes", [1.5, 1e9 + 0.5, -2.5])
def test_price_spec_rejects_a_fractional_gb_bytes(gb_bytes):
    with pytest.raises(ParseError, match="gb_bytes must be an integer"):
        PriceSpec(7.0, 7.0, 6.5, gb_bytes=gb_bytes)
    with pytest.raises(ParseError, match="gb_bytes must be an integer"):
        prices_from_json(json.dumps(
            {"vm_rate_a": 7.0, "vm_rate_b": 7.0, "net_rate": 6.5,
             "gb_bytes": gb_bytes}))


# Numbers a direct constructor must refuse with ParseError, as the JSON
# parsers do: a bool posing as a number, an int too large for a float, a
# string.
_BAD_NUMBERS = [True, False, pytest.param(10**400, id="huge-int"),
                pytest.param("1", id="str")]


@pytest.mark.parametrize("where", ["op", "conversion"])
@pytest.mark.parametrize("value", _BAD_NUMBERS)
def test_profile_rejects_a_bad_price(where, value):
    good = make_profile()
    op_costs, conversions = dict(good.op_costs), dict(good.conversions)
    if where == "op":
        op_costs[(OpKind.ADD, "y")] = (value, 0.0)
    else:
        conversions[("a", "y")] = (0.0, value)
    with pytest.raises(ParseError):
        CostProfile("p", 1.0, good.schemes, op_costs, conversions)


@pytest.mark.parametrize("field", ["vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes"])
@pytest.mark.parametrize("value", _BAD_NUMBERS)
def test_price_spec_rejects_a_bad_number(field, value):
    fields = {"vm_rate_a": 7.0, "vm_rate_b": 7.0, "net_rate": 6.5, field: value}
    with pytest.raises(ParseError):
        PriceSpec(**fields)


@pytest.mark.parametrize("field", ["seconds_per_op", "bytes_per_op"])
@pytest.mark.parametrize("value", _BAD_NUMBERS)
def test_measurement_rejects_a_bad_number(field, value):
    fields = {"seconds_per_op": 1.0, "bytes_per_op": 100.0, field: value}
    with pytest.raises(ParseError):
        RawMeasurement(**fields, op=OpKind.ADD, scheme="y")
