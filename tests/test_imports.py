"""numpy stays off the start-up path.

Only the exact solver's enumeration uses numpy, and it imports it after
the search-space check. Each case runs in a fresh interpreter, so no
earlier import in the test session can hide a module-level one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mpcost import MatMulSpec, gen_matmul, save_circuit

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
    [("import", None), ("optimize", 0), ("compare", 0), ("exact-over-cap", 3)],
)
def test_numpy_is_not_loaded(case, code, matmul5, tmp_path):
    assert run_child(case, matmul5, tmp_path) == {"code": code, "numpy": False}


def test_the_enumerator_loads_numpy(matmul5, tmp_path):
    # the control case: the child does see numpy once it is imported
    assert run_child("exact", matmul5, tmp_path) == {"code": 0, "numpy": True}
