"""Every strategy's output, pinned byte for byte.

``tests/data/strategy_golden.json`` holds, for the two case studies and
twenty seeded random circuits under each bundled profile, what every
strategy returns: a sha256 prefix of ``assignment_to_json``, ``repr`` of
the three totals, a sha256 prefix over the per-node breakdown, the hill-climbing
sweep totals (rebuilt by :func:`sweep_totals`) and iterations, and
``best_of``'s label. The exact solver is pinned too wherever its search
space is small.

Re-record only when a change of results is intended::

    PYTHONPATH=src python tests/test_strategy_golden.py
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from mpcost import (
    BiometricSpec,
    MatMulSpec,
    SolverLimits,
    assignment_to_json,
    best_of,
    bottom_up,
    exhaustive_optimal,
    fixed_sharing,
    gen_biometric,
    gen_matmul,
    gen_random,
    hill_climbing,
    top_down,
)
from mpcost.optimizer import default_scheme
from mpcost.profiles import BUILTIN_PROFILES, load_builtin

GOLDEN = Path(__file__).resolve().parent / "data" / "strategy_golden.json"
#: The exact solver is pinned on circuits with at most this many assignments.
EXACT_SPACE = 3**9


def circuits():
    out = {
        "matmul-5": lambda: gen_matmul(MatMulSpec(n=5)),
        "biometric-30x5": lambda: gen_biometric(BiometricSpec(rows=30, attrs=5)),
    }
    for seed in range(20):
        n_ops = 8 + 8 * (seed % 5)
        out[f"random-{seed}-{n_ops}"] = lambda s=seed, n=n_ops: gen_random(s, n)
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_totals(circuit, profile, init, iterations) -> list:
    """The total before hill climbing's first sweep from ``init`` and after
    each of its ``iterations`` sweeps: the fixed start's total, then the
    totals of the runs capped at ``max_passes=k`` for ``k`` in
    ``1..iterations``."""
    return [fixed_sharing(circuit, profile, init).report.total] + [
        hill_climbing(circuit, profile, init, SolverLimits(max_passes=k)).report.total
        for k in range(1, iterations + 1)
    ]


def _record(result, totals=()) -> list:
    """One strategy's output as ``[heuristic, assignment digest, per-node
    digest, total, total_compute, total_network, iterations,
    limit_exceeded, sweep totals]``, floats as ``repr``; ``totals`` are
    :func:`sweep_totals` for a hill-climbing result, else empty."""
    report = result.report
    per_node = "".join(
        f"{i} {r.op_compute!r} {r.op_network!r} {r.conv_compute!r} "
        f"{r.conv_network!r}\n"
        for i, r in report.per_node.items()
    )
    return [
        result.heuristic,
        _sha(assignment_to_json(result.assignment)),
        _sha(per_node),
        repr(report.total),
        repr(report.total_compute),
        repr(report.total_network),
        result.iterations,
        result.limit_exceeded,
        [repr(t) for t in totals],
    ]


def strategy_outputs(circuit, profile) -> dict:
    universal = profile.universal_schemes(circuit.ops_present())
    out = {}
    for s in universal:
        out[f"fixed:{s}"] = _record(fixed_sharing(circuit, profile, s))
        hill = hill_climbing(circuit, profile, s)
        out[f"hill:{s}"] = _record(
            hill, sweep_totals(circuit, profile, s, hill.iterations))
    out["bottom-up"] = _record(bottom_up(circuit, profile))
    out["top-down"] = _record(top_down(circuit, profile))
    best = best_of(circuit, profile)
    totals = ()
    if best.heuristic == "hill-climbing":
        totals = sweep_totals(circuit, profile, default_scheme(circuit, profile),
                              best.iterations)
    out["best"] = _record(best, totals)
    space = math.prod(
        len(profile.schemes_for(circuit.nodes[i].op)) for i in circuit.op_node_ids
    )
    if space <= EXACT_SPACE:
        out["exhaustive"] = _record(exhaustive_optimal(circuit, profile))
    return out


def outputs_for(label: str) -> dict:
    circuit = circuits()[label]()
    return {
        name: strategy_outputs(circuit, load_builtin(name))
        for name in BUILTIN_PROFILES
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", list(circuits()))
def test_strategies_match_the_golden_record(golden, label):
    assert outputs_for(label) == golden[label]


def test_golden_covers_every_circuit(golden):
    assert sorted(golden) == sorted(circuits())


if __name__ == "__main__":
    # One line per (circuit, profile) pair keeps diffs readable.
    lines = []
    for label in circuits():
        per_profile = outputs_for(label)
        lines.append(
            f"{json.dumps(label)}: {{\n"
            + ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(doc, sort_keys=True)}"
                for name, doc in per_profile.items()
            )
            + "\n}"
        )
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
