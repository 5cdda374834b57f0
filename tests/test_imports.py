"""What an mpcost process imports.

mpcost never loads numpy: every strategy, the exact solver included, runs
in plain Python. ``optimize`` and ``compare`` load neither the circuit
generators, nor profile derivation, nor ``importlib.resources``, nor
``typing`` (the records are ``collections.namedtuple`` classes); no
command, ``gen`` and ``derive-profile`` included, loads ``dataclasses`` or
``inspect``. Each case runs in a fresh interpreter, so no earlier import in
the test session can hide a module-level one; one case makes ``import
numpy`` fail outright.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mpcost import MatMulSpec, OpKind, gen_chain, gen_matmul, save_circuit

REPO_ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
import json, sys
import mpcost, mpcost.cli
from mpcost import OpKind, SolverLimits, exhaustive_optimal, gen_chain, load_builtin
from mpcost.errors import SearchSpaceTooLarge

case, path, out = sys.argv[1:]
code = None
if case in ("optimize", "compare"):
    code = mpcost.cli.main([case, path, "inter-m3.medium", "--json", "--out", out])
elif case == "exact-over-cap":
    try:
        exhaustive_optimal(gen_chain(OpKind.ADD, 3), load_builtin("inter-m3.medium"),
                           SolverLimits(max_space=26))
    except SearchSpaceTooLarge:
        code = 3
elif case == "exact":
    exhaustive_optimal(gen_chain(OpKind.ADD, 3), load_builtin("inter-m3.medium"))
    code = 0
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def matmul5(tmp_path_factory):
    path = tmp_path_factory.mktemp("circuits") / "matmul5.json"
    save_circuit(gen_matmul(MatMulSpec(5)), path)
    return path


def run_child(case, circuit, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, case, str(circuit), str(tmp_path / "out.json")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "case, code",
    [("import", None), ("optimize", 0), ("compare", 0), ("exact-over-cap", 3),
     ("exact", 0)],
)
def test_numpy_is_not_loaded(case, code, matmul5, tmp_path):
    assert run_child(case, matmul5, tmp_path) == {"code": code, "numpy": False}


WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import mpcost, mpcost.cli
from mpcost import exhaustive_optimal, load_builtin, load_circuit

path, out = sys.argv[1:]
codes = [mpcost.cli.main([cmd, path, "inter-m3.medium", "--json", "--out", out])
         for cmd in ("optimize", "compare")]
codes.append(mpcost.cli.main(["optimize", path, "inter-m3.medium",
                              "--heuristic", "exhaustive", "--out", out]))
exhaustive_optimal(load_circuit(path), load_builtin("inter-m3.medium"))
print(codes)
"""


def test_runs_where_numpy_cannot_be_imported(tmp_path):
    # an exact-small circuit: compare runs the exact solver on it
    path = tmp_path / "chain.json"
    save_circuit(gen_chain(OpKind.ADD, 12), path)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, str(path), str(tmp_path / "out.json")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0]"]


COLD_START = """\
import json, sys
import mpcost, mpcost.cli

UNUSED = ("mpcost.casegen", "mpcost.derive", "importlib.resources", "typing")
path, out, measurements, prices = sys.argv[1:]
seen = {"import": [m for m in UNUSED if m in sys.modules]}
for cmd in ("optimize", "compare"):
    code = mpcost.cli.main([cmd, path, "inter-m3.medium", "--json", "--out", out])
    seen[cmd] = [code] + [m for m in UNUSED if m in sys.modules]
seen["gen"] = [mpcost.cli.main(["gen", "matmul", "--n", "2", "--out", out]),
               mpcost.load_circuit(out) == mpcost.gen_matmul(mpcost.MatMulSpec(2))]
seen["derive-profile"] = [
    mpcost.cli.main(["derive-profile", measurements, prices, "--out", out]),
    mpcost.load_profile(out).schemes]
seen["after gen and derive-profile"] = [
    m for m in ("dataclasses", "inspect") if m in sys.modules]
seen["lazy"] = [mpcost.gen_matmul is mpcost.casegen.gen_matmul,
                mpcost.derive_profile is mpcost.derive.derive_profile]
namespace = {}
exec("from mpcost import *", namespace)
seen["star"] = sorted(set(mpcost.__all__) - set(namespace))
print(json.dumps(seen))
"""


def test_optimize_and_compare_load_only_what_they_run(matmul5, tmp_path):
    measurements = tmp_path / "measurements.json"
    measurements.write_text(json.dumps({"measurements": [
        {"op": op, "scheme": "y", "seconds_per_op": 1e-3, "bytes_per_op": 416}
        for op in ("add", "sub", "mul", "and", "xor", "mux", "eq", "ge")]}))
    prices = tmp_path / "prices.json"
    prices.write_text(json.dumps({"vm_rate_a": 7, "vm_rate_b": 7, "net_rate": 6}))
    # -S: no site hook may import a module for mpcost
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, str(matmul5),
         str(tmp_path / "out.json"), str(measurements), str(prices)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "optimize": [0], "compare": [0],
        "gen": [0, True], "derive-profile": [0, ["y"]],
        "after gen and derive-profile": [],
        "lazy": [True, True], "star": [],
    }
