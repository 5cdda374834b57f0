"""The exact solver's results, pinned byte for byte.

``tests/data/exact_golden.json`` holds, per (circuit, profile) case, a
sha256 prefix of ``assignment_to_json`` and the ``repr`` of the total
that :func:`mpcost.exhaustive_optimal` returns. The cases are:

* the c01 corpus (``gen_random(seed, 1 + seed % 10)``, seeds 0-199)
  under every bundled profile;
* the exact-small benchmark circuits of seeds 0-3 under every bundled
  profile;
* the first 20 corpus circuits under two uniform profiles (every price
  0, every price 1), where many or all assignments tie;
* mux ladders of 8 and 10 rungs under every bundled profile: each rung's
  two in nodes feed both its eq and its mux, so the cost graph has a
  cycle per rung, and every eq but the first is read by nobody.

Re-record only when a change of results is intended::

    PYTHONPATH=src python tests/test_exact_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    OpKind,
    assignment_to_json,
    build,
    exhaustive_optimal,
    gen_biometric,
    gen_chain,
    gen_matmul,
    gen_random,
)
from mpcost import optimizer
from mpcost.cost_model import CostProfile
from mpcost.profiles import BUILTIN_PROFILES, load_builtin

GOLDEN = Path(__file__).resolve().parent / "data" / "exact_golden.json"


def uniform_profile(like: CostProfile, cost: float) -> CostProfile:
    """``like``'s schemes and support with every price set to ``cost``."""
    return CostProfile(
        f"uniform-{cost}", 1.0, like.schemes,
        {k: (cost, cost) for k in like.op_costs},
        {k: (cost, cost) for k in like.conversions},
    )


def exact_small_circuits() -> dict:
    """The circuits of the exact-small benchmark workload, seeds 0-3."""
    out = {
        "matmul-2": gen_matmul(MatMulSpec(n=2)),
        "biometric-2x2": gen_biometric(BiometricSpec(rows=2, attrs=2)),
        "chain-add-12": gen_chain(OpKind.ADD, 12),
        "chain-mul-12": gen_chain(OpKind.MUL, 12),
    }
    for seed in range(4):
        rng = random.Random(seed)
        for n_ops in (8, 11):
            sub_seed = rng.randrange(2**31)
            out[f"random-{sub_seed}-{n_ops}"] = gen_random(sub_seed, n_ops)
    return out


def mux_ladder(k: int):
    """In nodes ``i_j, i'_j``, ``f_j = eq(i_j, i'_j)``, ``l_1 = mux(f_1,
    i_1, i'_1)`` and ``l_j = mux(l_{j-1}, i_j, i'_j)`` for ``j = 2..k``."""
    entries = [("in", [])] * (2 * k)
    entries += [("eq", [2 * j, 2 * j + 1]) for j in range(k)]
    entries.append(("mux", [2 * k, 0, 1]))
    entries += [("mux", [3 * k + j - 1, 2 * j, 2 * j + 1]) for j in range(1, k)]
    return build(entries + [("out", [len(entries) - 1])])


def groups() -> dict:
    """Case groups: name -> (circuits by label, profiles)."""
    bundled = [load_builtin(name) for name in BUILTIN_PROFILES]
    corpus = {f"c01-{s}": gen_random(s, n_ops=1 + s % 10) for s in range(200)}
    out = {
        f"c01/{p.name}": (corpus, [p]) for p in bundled
    }
    out["exact-small"] = (exact_small_circuits(), bundled)
    first20 = {label: corpus[label] for label in list(corpus)[:20]}
    out["uniform"] = (
        first20, [uniform_profile(bundled[0], 0.0), uniform_profile(bundled[0], 1.0)]
    )
    out["mux-ladder"] = ({f"mux-ladder-{k}": mux_ladder(k) for k in (8, 10)}, bundled)
    return out


def results(group: str) -> dict:
    circuits, profiles = groups()[group]
    out = {}
    for label, circuit in circuits.items():
        for profile in profiles:
            result = exhaustive_optimal(circuit, profile)
            digest = hashlib.sha256(
                assignment_to_json(result.assignment).encode()
            ).hexdigest()[:16]
            out[f"{label} {profile.name}"] = [digest, repr(result.report.total)]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", list(groups()))
def test_exact_solver_matches_the_golden_record(golden, group):
    assert results(group) == golden[group]


@pytest.mark.parametrize("group", ["c01/inter-m3.medium", "uniform"])
def test_the_solver_is_exact_without_the_dual_ascent(golden, group, monkeypatch):
    # With no sweep every message is zero, so the search runs on its
    # weakest bound: each node's least operation cost, edges at zero.
    monkeypatch.setattr(optimizer, "_DUAL_SWEEPS", 0)
    assert results(group) == golden[group]


def test_golden_covers_every_group(golden):
    assert sorted(golden) == sorted(groups())


if __name__ == "__main__":
    # One line per case keeps diffs readable.
    blocks = []
    for group in groups():
        cases = results(group)
        blocks.append(
            f"{json.dumps(group)}: {{\n"
            + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
            + "\n}"
        )
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
