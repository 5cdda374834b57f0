import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    best_of,
    bottom_up,
    build,
    circuit_to_json,
    exhaustive_optimal,
    fixed_sharing,
    gen_biometric,
    gen_matmul,
    gen_random,
    hill_climbing,
    load_builtin,
    load_circuit,
    load_profile,
    save_circuit,
    top_down,
)
from mpcost import cost_model, derive
from mpcost.circuit import COMPUTE_OPS
from mpcost.cli import main
from mpcost.cost_model import Compiled, NodeCost
from mpcost.optimizer import default_scheme
from mpcost.profiles import BUILTIN_PROFILES, builtin_text

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def adder_path(tmp_path, adder):
    path = tmp_path / "adder.json"
    save_circuit(adder, path)
    return str(path)


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "inter-m3.medium.json"
    path.write_text(builtin_text("inter-m3.medium"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_exhaustive_adder(capsys, adder_path, profile_path):
    code, out, _ = run(
        capsys, "optimize", adder_path, profile_path,
        "--heuristic", "exhaustive", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["heuristic"] == "exhaustive"
    assert set(doc["assignment"].values()) == {"arithmetic"}
    assert doc["report"]["total"] == pytest.approx(2.90e-6, abs=1e-15)
    assert doc["unit"] == "cent"


def test_optimize_accepts_builtin_profile_names(capsys, adder_path):
    code, out, _ = run(
        capsys, "optimize", adder_path, "inter-m3.medium",
        "--heuristic", "exhaustive", "--json",
    )
    assert code == 0
    assert json.loads(out)["report"]["total"] == pytest.approx(2.90e-6, abs=1e-15)


def test_optimize_unit_scaling(capsys, adder_path):
    code, out, _ = run(
        capsys, "optimize", adder_path, "inter-m3.medium",
        "--heuristic", "exhaustive", "--json", "--unit", "milli-cent",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unit"] == "milli-cent"
    assert doc["report"]["total"] == pytest.approx(2.90e-3, rel=1e-12)


def test_optimize_text_output_has_table_and_assignment(capsys, adder_path):
    code, out, _ = run(capsys, "optimize", adder_path, "inter-m3.medium")
    assert code == 0
    assert "compute" in out and "network" in out and "total" in out
    assert 'assignment: {"0":' in out
    assert "report: {" in out


def test_optimize_pure_yao_intra_has_zero_network(capsys, tmp_path):
    circuit = gen_biometric(BiometricSpec(4, 2))
    path = tmp_path / "bio.json"
    save_circuit(circuit, path)
    code, out, _ = run(
        capsys, "optimize", str(path), "intra-m3.medium",
        "--heuristic", "pure", "--scheme", "yao", "--json",
    )
    assert code == 0
    assert json.loads(out)["report"]["total_network"] == 0.0


#: sha256 of ``mpcost optimize CIRCUIT PROFILE --json`` on the case
#: studies, recorded when per-node records were frozen dataclasses.
_OPTIMIZE_JSON_SHA256 = {
    ("matmul-5", "inter-m3.medium"):
        "a4d8eb9c0767e946919c827861c2956c74b26e446457b172b276fae611a4c69b",
    ("matmul-5", "intra-c4.large"):
        "d742719e01cd3bbae135f34bf31cd0ba819066241007c2e500736a739b105ada",
    ("biometric-30x5", "inter-m3.large"):
        "ceacdf47f682399515439e837ebf4413b608986f1673c2051c68cd4df9c7b26e",
    ("biometric-30x5", "intra-c4.large"):
        "7f4bb4a8fa0aaa4370f1a8aeeac2921b99847a58f7e3f5c8081d90e7a06e906e",
}


@pytest.mark.parametrize("label, profile", sorted(_OPTIMIZE_JSON_SHA256))
def test_optimize_json_per_node_output_is_unchanged(capsys, tmp_path, label,
                                                    profile):
    circuit = {
        "matmul-5": lambda: gen_matmul(MatMulSpec(5)),
        "biometric-30x5": lambda: gen_biometric(BiometricSpec(rows=30, attrs=5)),
    }[label]()
    path = tmp_path / "circuit.json"
    save_circuit(circuit, path)
    code, out, _ = run(capsys, "optimize", str(path), profile, "--json")
    assert code == 0
    assert len(json.loads(out)["report"]["per_node"]) == len(circuit.nodes)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _OPTIMIZE_JSON_SHA256[label, profile]


def test_optimize_writes_out_file(capsys, adder_path, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "optimize", adder_path, "inter-m3.medium",
        "--heuristic", "best", "--json", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["heuristic"] == "fixed:arithmetic"


def test_unknown_heuristic_exits_1_with_usage(capsys, adder_path):
    code, _, err = run(
        capsys, "optimize", adder_path, "inter-m3.medium",
        "--heuristic", "magic",
    )
    assert code == 1
    assert "usage" in err


def test_unsupported_scheme_exits_2(capsys, tmp_path):
    from mpcost import build, save_circuit

    sub = build([("in", []), ("in", []), ("sub", [0, 1]), ("out", [2])])
    path = tmp_path / "sub.json"
    save_circuit(sub, path)
    code, _, err = run(
        capsys, "optimize", str(path), "inter-m3.medium",
        "--heuristic", "pure", "--scheme", "arithmetic",
    )
    assert code == 2
    assert "does not support" in err


@pytest.mark.parametrize("heuristic", [
    "pure", "bottom-up", "top-down", "hill", "exhaustive", "best"])
def test_scheme_applies_only_to_pure_and_hill(capsys, adder_path, heuristic):
    code, out, err = run(
        capsys, "optimize", adder_path, "inter-m3.medium",
        "--heuristic", heuristic, "--scheme", "boolean", "--json",
    )
    if heuristic in ("pure", "hill"):
        adder = load_circuit(adder_path)
        profile = load_builtin("inter-m3.medium")
        want = (fixed_sharing(adder, profile, "boolean") if heuristic == "pure"
                else hill_climbing(adder, profile, "boolean"))
        assert code == 0
        assert json.loads(out)["heuristic"] == want.heuristic
        assert json.loads(out)["report"]["total"] == want.report.total
    else:
        assert (code, out) == (1, "")
        assert "--scheme applies only to --heuristic pure and hill" in err


def test_search_space_cap_exits_3(capsys, tmp_path):
    circuit = gen_matmul(MatMulSpec(2))
    path = tmp_path / "mm2.json"
    save_circuit(circuit, path)
    code, _, err = run(
        capsys, "optimize", str(path), "inter-m3.medium",
        "--heuristic", "exhaustive", "--max-space", "100",
    )
    assert code == 3
    assert "531441" in err


def test_bad_circuit_file_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"bitwidth":32,"nodes":[{"id":0,"op":"div","inputs":[]}]}')
    code, _, err = run(capsys, "optimize", str(path), "inter-m3.medium")
    assert code == 1
    assert "div" in err


def test_compare_reports_winner_and_reduction(capsys, tmp_path):
    circuit = gen_matmul(MatMulSpec(2))
    path = tmp_path / "mm2.json"
    save_circuit(circuit, path)
    code, out, _ = run(
        capsys, "compare", str(path), "inter-m3.medium", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    labels = [r["heuristic"] for r in doc["rows"]]
    assert labels == ["pure-yao", "hill-climbing", "top-down", "bottom-up",
                      "exhaustive"]
    pure = doc["rows"][0]
    assert pure["reduction"] == 0.0
    best_total = min(r["total"] for r in doc["rows"])
    for row in doc["rows"]:
        assert row["winner"] == (row["total"] == best_total)
        assert row["reduction"] == pytest.approx(
            1 - row["total"] / pure["total"], rel=1e-12
        )


def test_compare_skips_exhaustive_over_cap(capsys, tmp_path):
    circuit = gen_matmul(MatMulSpec(3))  # 3^36 assignments
    path = tmp_path / "mm3.json"
    save_circuit(circuit, path)
    code, out, _ = run(
        capsys, "compare", str(path), "inter-m3.medium", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["heuristic"] for r in doc["rows"]] == [
        "pure-yao", "hill-climbing", "top-down", "bottom-up"
    ]
    assert doc["notices"] and "skipped" in doc["notices"][0]


def test_compare_intra_network_column_is_zero(capsys, tmp_path):
    circuit = gen_matmul(MatMulSpec(2))
    path = tmp_path / "mm2.json"
    save_circuit(circuit, path)
    code, out, _ = run(capsys, "compare", str(path), "intra-m3.large", "--json")
    assert code == 0
    assert all(r["network"] == 0.0 for r in json.loads(out)["rows"])


def test_gen_matmul_counts(capsys, tmp_path):
    out_path = tmp_path / "mm.json"
    code, _, err = run(capsys, "gen", "matmul", "--n", "5", "--out", str(out_path))
    assert code == 0
    assert "300 nodes" in err
    circuit = load_circuit(out_path)
    assert len(circuit.nodes) == 300


def test_gen_chain_counts(capsys, tmp_path):
    out_path = tmp_path / "chain.json"
    code, _, err = run(
        capsys, "gen", "chain", "--op", "add", "--len", "1000",
        "--out", str(out_path),
    )
    assert code == 0
    assert "2002 nodes" in err
    assert len(load_circuit(out_path).nodes) == 2002


def test_gen_biometric_minimal(capsys, tmp_path):
    out_path = tmp_path / "bio.json"
    code, _, err = run(
        capsys, "gen", "biometric", "--rows", "1", "--attrs", "1",
        "--out", str(out_path),
    )
    assert code == 0
    circuit = load_circuit(out_path)
    assert len(circuit.out_ids) == 2


def test_gen_random_seed_and_weights(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "gen", "random", "--seed", "5", "--n-ops", "12",
            "--op-weights", "add=2,mul=1", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_gen_bad_params_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "matmul", "--n", "0")
    assert code == 1
    code, _, _ = run(capsys, "gen", "chain", "--op", "mux", "--len", "3")
    assert code == 1
    out_path = tmp_path / "wide.json"
    code, _, err = run(capsys, "gen", "chain", "--op", "add", "--len", "3",
                       "--bitwidth", "100000000000000000000", "--out", str(out_path))
    assert code == 1
    assert err.startswith("error: ") and "bitwidth" in err
    assert not out_path.exists()


@pytest.mark.parametrize("weights", ["add=inf", "add=1,mul=nan", "add=1,mul=-1",
                                     "add=1,in=1", "add=1e308,mul=1e308"])
def test_gen_random_rejects_bad_op_weights(capsys, tmp_path, weights):
    out_path = tmp_path / "random.json"
    code, out, err = run(capsys, "gen", "random", "--n-ops", "4",
                         "--op-weights", weights, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: op_weights: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_eval_adder_by_id(capsys, adder_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text('{"0": 7, "1": 5}')
    code, out, _ = run(capsys, "eval", adder_path, str(inputs))
    assert code == 0
    assert json.loads(out) == {"3": 12}


def test_eval_matmul_identity_by_name(capsys, tmp_path):
    spec = MatMulSpec(2)
    circuit = gen_matmul(spec)
    path = tmp_path / "mm.json"
    save_circuit(circuit, path)
    values = {}
    for i in range(2):
        for j in range(2):
            values[f"a[{i},{j}]"] = 1 if i == j else 0
            values[f"b[{i},{j}]"] = 10 * i + j + 1
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(values))
    code, out, _ = run(capsys, "eval", str(path), str(inputs))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"c[0,0]": 1, "c[0,1]": 2, "c[1,0]": 11, "c[1,1]": 12}


def test_eval_biometric_exact_match(capsys, tmp_path):
    from mpcost import biometric_inputs

    spec = BiometricSpec(5, 2)
    circuit = gen_biometric(spec)
    path = tmp_path / "bio.json"
    save_circuit(circuit, path)
    rows = [[r, r + 1] for r in range(5)]
    packed = biometric_inputs(spec, rows, rows[3])
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({str(k): v for k, v in packed.items()}))
    code, out, _ = run(capsys, "eval", str(path), str(inputs))
    assert code == 0
    assert json.loads(out) == {"min_dist": 0, "min_index": 3}


def test_eval_missing_input_exits_1(capsys, adder_path, tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text('{"0": 7}')
    code, _, err = run(capsys, "eval", adder_path, str(inputs))
    assert code == 1
    assert "no value" in err


@pytest.mark.parametrize("value", [True, 1.5, "7", None])
def test_eval_input_values_must_be_ints(capsys, adder_path, tmp_path, value):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"0": 7, "1": value}))
    code, out, err = run(capsys, "eval", adder_path, str(inputs))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not an integer" in err


@pytest.mark.parametrize("key", [
    "1_0", "01", "+1", " 1", pytest.param("1" * 5000, id="5000-digits")])
def test_eval_input_keys_must_be_names_or_canonical_ids(capsys, adder_path, tmp_path, key):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"0": 7, key: 5}))
    code, out, err = run(capsys, "eval", adder_path, str(inputs))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a node id" in err


_HUGE_SCALE = builtin_text("inter-m3.medium").replace(
    '"scale": 1e-06', '"scale": 1' + "0" * 400)
_ADDER_TEXT = circuit_to_json(
    build([("in", []), ("in", []), ("add", [0, 1]), ("out", [2])]))
_HUGE_BITWIDTH = _ADDER_TEXT.replace('"bitwidth":32', '"bitwidth":1' + "0" * 400)


@pytest.mark.parametrize("command, bad_file, text", [
    ("optimize", "circuit", "[" * 100_000),
    ("optimize", "profile", _HUGE_SCALE),
    ("eval", "inputs", "[" * 100_000),
    ("eval", "circuit", _HUGE_BITWIDTH),
], ids=["deep-circuit", "huge-scale", "deep-inputs", "huge-bitwidth"])
def test_hostile_input_files_exit_1_with_one_error_line(
        capsys, tmp_path, adder_path, profile_path, command, bad_file, text):
    assert text not in (builtin_text("inter-m3.medium"), _ADDER_TEXT)
    files = {"circuit": adder_path, "profile": profile_path,
             "inputs": str(tmp_path / "inputs.json")}
    Path(files["inputs"]).write_text('{"0": 1, "1": 2}')  # valid for the adder
    files[bad_file] = str(tmp_path / "bad.json")
    Path(files[bad_file]).write_text(text)
    second = files["profile"] if command == "optimize" else files["inputs"]
    code, out, err = run(capsys, command, files["circuit"], second)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_derive_profile_round_trip(capsys, tmp_path):
    from mpcost.circuit import COMPUTE_OPS

    measurements = {
        "schemes": ["arithmetic", "yao"],
        "measurements": (
            [{"op": op.value, "scheme": "yao",
              "seconds_per_op": 1.0, "bytes_per_op": 10**6}
             for op in COMPUTE_OPS]
            + [{"op": "add", "scheme": "arithmetic",
                "seconds_per_op": 0.5, "bytes_per_op": 0}]
            + [{"conversion": ["arithmetic", "yao"],
                "seconds_per_op": 0.1, "bytes_per_op": 100},
               {"conversion": ["yao", "arithmetic"],
                "seconds_per_op": 0.1, "bytes_per_op": 100}]
        ),
    }
    m_path = tmp_path / "measure.json"
    m_path.write_text(json.dumps(measurements))
    p_path = tmp_path / "prices.json"
    p_path.write_text(
        '{"vm_rate_a": 7.0, "vm_rate_b": 7.0, "net_rate": 6.5,'
        ' "gb_bytes": 1000000000}'
    )
    out_path = tmp_path / "derived.json"
    code, _, _ = run(
        capsys, "derive-profile", str(m_path), str(p_path),
        "--name", "bench", "--out", str(out_path),
    )
    assert code == 0
    prof = load_profile(out_path)
    from mpcost import OpKind

    p, n = prof.op_cost_cents(OpKind.ADD, "yao")
    assert p == pytest.approx(0.0038889, abs=1e-7)
    assert n == 0.0065
    assert prof.schemes == ("arithmetic", "yao")


_SPELLED_MEASUREMENTS = json.dumps({
    "schemes": ["arithmetic", "yao"],
    "measurements": (
        [{"op": op.value, "scheme": "yao", "seconds_per_op": 1e-3,
          "bytes_per_op": "BYTES"} for op in COMPUTE_OPS]
        + [{"conversion": pair, "seconds_per_op": 2e-3, "bytes_per_op": "BYTES"}
           for pair in (["arithmetic", "yao"], ["yao", "arithmetic"])]
    ),
})
_SPELLED_PRICES = json.dumps({"vm_rate_a": "RATE", "vm_rate_b": "RATE",
                              "net_rate": 6.5, "gb_bytes": "GB"})


@pytest.mark.parametrize("field, as_int, as_float", [
    ("RATE", "7", "7.0"),
    ("GB", "1000000000", "1e9"),
    ("BYTES", "416", "416.0"),
])
def test_int_and_float_spellings_derive_the_same_profile(capsys, tmp_path, field,
                                                         as_int, as_float):
    """The parsers hand raw JSON numbers to the constructors, so an int and
    a float spelling of one value must give the same profile, byte for byte."""
    outputs, profiles = [], []
    for spelling in (as_int, as_float):
        numbers = {"BYTES": "416", "RATE": "7.0", "GB": "1000000000",
                   field: spelling}
        texts = []
        for text in (_SPELLED_MEASUREMENTS, _SPELLED_PRICES):
            for token, number in numbers.items():
                text = text.replace(f'"{token}"', number)
            texts.append(text)
        m_path, p_path = tmp_path / "m.json", tmp_path / "p.json"
        m_path.write_text(texts[0])
        p_path.write_text(texts[1])
        code, out, _ = run(capsys, "derive-profile", str(m_path), str(p_path))
        assert code == 0
        outputs.append(out)
        measurements, schemes = derive.measurements_from_json(texts[0])
        profiles.append(derive.derive_profile(
            measurements, derive.prices_from_json(texts[1]), "derived",
            schemes=schemes))
    assert outputs[0] == outputs[1]
    assert profiles[0] == profiles[1]


def test_derive_profile_empty_measurements_exit_1(capsys, tmp_path):
    m_path = tmp_path / "measure.json"
    m_path.write_text('{"measurements": []}')
    p_path = tmp_path / "prices.json"
    p_path.write_text('{"vm_rate_a": 7, "vm_rate_b": 7, "net_rate": 6.5}')
    code, _, err = run(capsys, "derive-profile", str(m_path), str(p_path))
    assert code == 1
    assert "schemes" in err


def test_derive_profile_malformed_measurements_exit_1(capsys, tmp_path):
    m_path = tmp_path / "measure.json"
    m_path.write_text('{"measurements": [{"op": "add", "scheme": ["x"], '
                      '"seconds_per_op": 1, "bytes_per_op": 1}]}')
    p_path = tmp_path / "prices.json"
    p_path.write_text('{"vm_rate_a": 7, "vm_rate_b": 7, "net_rate": 6.5}')
    code, _, err = run(capsys, "derive-profile", str(m_path), str(p_path))
    assert code == 1
    assert err.startswith("error: measurement 0:")


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_derive_profile_rejects_a_bad_scale(capsys, tmp_path, scale):
    m_path = tmp_path / "measure.json"
    m_path.write_text('{"measurements": [{"op": "add", "scheme": "yao", '
                      '"seconds_per_op": 1, "bytes_per_op": 1}]}')
    p_path = tmp_path / "prices.json"
    p_path.write_text('{"vm_rate_a": 7, "vm_rate_b": 7, "net_rate": 6.5}')
    code, out, err = run(capsys, "derive-profile", str(m_path), str(p_path),
                         "--scale", scale)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "scale" in err


def test_derive_profile_rejects_a_scheme_that_cannot_be_saved(capsys, tmp_path):
    """A scheme name holding '->' would make a conversion key that no
    profile file can hold, so no profile is derived and no file written."""
    measurements = {"measurements": (
        [{"op": op.value, "scheme": "z", "seconds_per_op": 1, "bytes_per_op": 1}
         for op in COMPUTE_OPS]
        + [{"op": "add", "scheme": "x->y", "seconds_per_op": 1, "bytes_per_op": 1}]
        + [{"conversion": pair, "seconds_per_op": 1, "bytes_per_op": 1}
           for pair in (["x->y", "z"], ["z", "x->y"])]
    )}
    m_path = tmp_path / "measure.json"
    m_path.write_text(json.dumps(measurements))
    p_path = tmp_path / "prices.json"
    p_path.write_text('{"vm_rate_a": 7, "vm_rate_b": 7, "net_rate": 6.5}')
    out_path = tmp_path / "derived.json"
    code, _, err = run(capsys, "derive-profile", str(m_path), str(p_path),
                       "--out", str(out_path))
    assert code == 1
    assert err.startswith("error: ") and "'x->y'" in err
    assert not out_path.exists()


def test_profiles_list(capsys):
    code, out, _ = run(capsys, "profiles", "list")
    assert code == 0
    assert out.split() == list(BUILTIN_PROFILES)


def test_module_entry_point(adder_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mpcost", "optimize", adder_path,
         "inter-m3.medium", "--heuristic", "exhaustive", "--json"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["heuristic"] == "exhaustive"


def test_no_command_exits_1(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def _no_yao_profile(tmp_path):
    """A derived profile without yao: arithmetic runs add/mul only,
    boolean runs everything."""
    from mpcost import PriceSpec, RawMeasurement, derive_profile, save_profile
    from mpcost.circuit import COMPUTE_OPS, OpKind

    ms = [RawMeasurement.for_op(op, "boolean", 1.0, 100) for op in COMPUTE_OPS]
    ms += [RawMeasurement.for_op(op, "arithmetic", 0.5, 0)
           for op in (OpKind.ADD, OpKind.MUL)]
    ms += [RawMeasurement.for_conversion("arithmetic", "boolean", 0.1, 10),
           RawMeasurement.for_conversion("boolean", "arithmetic", 0.1, 10)]
    path = tmp_path / "ab.json"
    save_profile(derive_profile(ms, PriceSpec(7.0, 7.0, 6.5), "ab"), path)
    return str(path)


def test_compare_without_yao_uses_the_first_universal_scheme(capsys, tmp_path):
    profile = _no_yao_profile(tmp_path)
    mm2 = tmp_path / "mm2.json"
    save_circuit(gen_matmul(MatMulSpec(2)), mm2)
    bio = tmp_path / "bio.json"
    save_circuit(gen_biometric(BiometricSpec(2, 2)), bio)
    # arithmetic covers matmul's add/mul; biometric needs boolean
    for path, baseline in ((mm2, "arithmetic"), (bio, "boolean")):
        code, out, err = run(capsys, "compare", str(path), profile, "--json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert rows[0]["heuristic"] == f"pure-{baseline}"
        assert rows[0]["reduction"] == 0.0
        code, out, _ = run(capsys, "compare", str(path), profile)
        assert code == 0
        assert f"vs pure-{baseline}" in out
        code, out, err = run(
            capsys, "optimize", str(path), profile, "--heuristic", "pure", "--json"
        )
        assert code == 0, err
        assert json.loads(out)["heuristic"] == f"fixed:{baseline}"
        for heuristic in ("hill", "best"):
            code, _, err = run(
                capsys, "optimize", str(path), profile, "--heuristic", heuristic
            )
            assert code == 0, err


# --- one compile per command, and compare against the strategies --------------


@pytest.mark.parametrize("argv", [
    ("compare",),
    ("optimize", "--heuristic", "exhaustive"),
    ("optimize",),
], ids=["compare", "optimize-exhaustive", "optimize-best"])
def test_each_command_compiles_once(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "mm2.json"
    save_circuit(gen_matmul(MatMulSpec(2)), path)
    calls = []
    init = Compiled.__init__

    def counted_init(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(Compiled, "__init__", counted_init)
    command, *options = argv
    code, out, err = run(capsys, command, str(path), "inter-m3.medium",
                         *options, "--json")
    assert code == 0, err
    if command == "compare":  # the exact row runs on the same compiled form
        assert json.loads(out)["rows"][-1]["heuristic"] == "exhaustive"
    assert len(calls) == 1


def test_compare_builds_no_per_node_record(capsys, monkeypatch, tmp_path):
    path = tmp_path / "mm3.json"
    save_circuit(gen_matmul(MatMulSpec(3)), path)
    built = []

    class CountedNodeCost(NodeCost):
        def __new__(cls, *fields):
            built.append(1)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(cost_model, "NodeCost", CountedNodeCost)
    code, out, err = run(capsys, "compare", str(path), "inter-m3.medium",
                         "--json")
    assert code == 0, err
    assert len(json.loads(out)["rows"]) == 4  # the exact solver is skipped
    assert built == []


def test_compare_rows_equal_the_strategies_results(capsys, tmp_path):
    circuits = {
        "matmul-5": gen_matmul(MatMulSpec(5)),
        "biometric-30x5": gen_biometric(BiometricSpec(30, 5)),
        **{f"random-{seed}": gen_random(seed, n_ops=9) for seed in (1, 2, 3)},
    }
    exact_rows = 0
    for label, circuit in circuits.items():
        path = tmp_path / f"{label}.json"
        save_circuit(circuit, path)
        for name in BUILTIN_PROFILES:
            profile = load_builtin(name)
            code, out, err = run(capsys, "compare", str(path), name, "--json")
            assert code == 0, err
            totals = {r["heuristic"]: repr(r["total"]) for r in json.loads(out)["rows"]}
            baseline = default_scheme(circuit, profile)
            expected = {
                f"pure-{baseline}": fixed_sharing(circuit, profile, baseline),
                "hill-climbing": hill_climbing(circuit, profile, baseline),
                "top-down": top_down(circuit, profile),
                "bottom-up": bottom_up(circuit, profile),
            }
            heuristic_totals = [r.report.total for r in expected.values()]
            if "exhaustive" in totals:
                expected["exhaustive"] = exhaustive_optimal(circuit, profile)
                exact_rows += 1
            assert totals == {k: repr(r.report.total) for k, r in expected.items()}
            assert repr(min(heuristic_totals)) == repr(
                best_of(circuit, profile).report.total)
    assert exact_rows == 3 * len(BUILTIN_PROFILES)  # the random circuits
