"""The bundled profiles are data; these tests pin their load-time shape
and spot-check stored values against the published unit-cost numbers."""

import re

import pytest

from mpcost import OpKind, profile_from_json, profile_to_json
from mpcost.errors import ParseError
from mpcost.profiles import BUILTIN_PROFILES, builtin_text, load_builtin

VMS = ("m3.medium", "m3.large", "c4.large", "c4.xlarge")


def test_expected_profile_set():
    assert BUILTIN_PROFILES == (
        "intra-m3.medium", "intra-m3.large", "intra-c4.large", "intra-c4.xlarge",
        "inter-m3.medium", "inter-m3.large", "inter-c4.large", "inter-c4.xlarge",
    )


def test_unknown_bundled_profile_is_a_parse_error():
    with pytest.raises(ParseError, match="'nope'.*" + re.escape(", ".join(BUILTIN_PROFILES))):
        load_builtin("nope")


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_profiles_load_and_validate(name):
    prof = load_builtin(name)
    assert prof.name == name
    assert prof.schemes == ("arithmetic", "boolean", "yao")
    assert prof.scale == (1e-10 if name.startswith("intra") else 1e-6)


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_support_sets(name):
    prof = load_builtin(name)
    assert prof.schemes_for(OpKind.ADD) == ("arithmetic", "boolean", "yao")
    assert prof.schemes_for(OpKind.MUL) == ("arithmetic", "boolean", "yao")
    for op in (OpKind.SUB, OpKind.AND, OpKind.XOR, OpKind.MUX, OpKind.EQ, OpKind.GE):
        assert prof.schemes_for(op) == ("boolean", "yao")
    assert prof.universal_schemes() == ("boolean", "yao")
    # in/out are free everywhere, and only under a declared scheme
    assert prof.schemes_for(OpKind.IN) == prof.schemes_for(OpKind.OUT) == prof.schemes
    assert not prof.supports(OpKind.IN, "undeclared")
    assert not prof.supports(OpKind.ADD, "undeclared")
    assert prof.op_cost_cents(OpKind.IN, "arithmetic") == (0.0, 0.0)
    assert prof.op_cost_cents(OpKind.OUT, "yao") == (0.0, 0.0)


@pytest.mark.parametrize("name", [n for n in BUILTIN_PROFILES if n.startswith("intra")])
def test_intra_profiles_have_zero_network(name):
    prof = load_builtin(name)
    assert all(n == 0.0 for _, n in prof.op_costs.values())
    assert all(n == 0.0 for _, n in prof.conversions.values())


def test_inter_network_is_shared_across_vms():
    base = load_builtin("inter-m3.medium")
    for vm in VMS[1:]:
        prof = load_builtin(f"inter-{vm}")
        for key, (_, n) in prof.op_costs.items():
            assert n == base.op_costs[key][1], key
        for key, (_, n) in prof.conversions.items():
            assert n == base.conversions[key][1], key


def test_inter_m3_medium_stored_values():
    prof = load_builtin("inter-m3.medium")
    assert prof.op_costs[(OpKind.ADD, "arithmetic")] == (2.90, 0.0)
    assert prof.op_costs[(OpKind.MUL, "arithmetic")] == (2134.72, 75.14)
    assert prof.op_costs[(OpKind.MUL, "yao")] == (339.26, 6289.92)
    assert prof.op_costs[(OpKind.MUL, "boolean")] == (3350.81, 4258.8)
    assert prof.op_costs[(OpKind.GE, "boolean")] == (2233.19, 188.045)
    assert prof.op_costs[(OpKind.EQ, "yao")] == (7.12, 96.72)
    assert prof.conversions[("yao", "arithmetic")] == (25.39, 137.41)
    assert prof.conversions[("arithmetic", "boolean")] == (28.35, 199.94)
    assert prof.conversions[("arithmetic", "yao")] == (28.12, 199.94)
    assert prof.conversions[("boolean", "arithmetic")] == (18.99, 37.57)
    assert prof.conversions[("boolean", "yao")] == (24.07, 66.82)
    assert prof.conversions[("yao", "boolean")] == (14.56, 99.84)


def test_inter_compute_spot_values():
    large = load_builtin("inter-m3.large")
    assert large.op_costs[(OpKind.MUL, "arithmetic")] == (4132.46, 75.14)
    assert large.op_costs[(OpKind.MUL, "yao")] == (387.23, 6289.92)
    assert large.op_costs[(OpKind.ADD, "arithmetic")] == (5.57, 0.0)
    c4l = load_builtin("inter-c4.large")
    assert c4l.op_costs[(OpKind.MUL, "arithmetic")] == (2890.76, 75.14)
    assert c4l.conversions[("arithmetic", "yao")] == (389.98, 199.94)
    c4x = load_builtin("inter-c4.xlarge")
    assert c4x.op_costs[(OpKind.AND, "boolean")] == (5546.53, 67.6)
    assert c4x.op_costs[(OpKind.XOR, "yao")] == (14.16, 0.0)


def test_intra_compute_spot_values():
    med = load_builtin("intra-m3.medium")
    assert med.op_costs[(OpKind.ADD, "arithmetic")] == (21.54, 0.0)
    assert med.op_costs[(OpKind.MUL, "yao")] == (3125.30, 0.0)
    assert med.conversions[("yao", "arithmetic")] == (73.32, 0.0)
    large = load_builtin("intra-m3.large")
    assert large.op_costs[(OpKind.MUL, "arithmetic")] == (781.58, 0.0)
    c4l = load_builtin("intra-c4.large")
    assert c4l.op_costs[(OpKind.GE, "yao")] == (21.28, 0.0)
    c4x = load_builtin("intra-c4.xlarge")
    assert c4x.op_costs[(OpKind.MUL, "yao")] == (4959.0, 0.0)
    assert c4x.conversions[("boolean", "arithmetic")] == (144.09, 0.0)


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_shipped_files_are_canonical(name):
    text = builtin_text(name)
    prof = profile_from_json(text)
    assert profile_to_json(prof) == text
    assert profile_from_json(profile_to_json(prof)) == prof
