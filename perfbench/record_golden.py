"""Record the assignment digests that benchmark runs are compared against.

    python3 perfbench/record_golden.py --seeds 0-31

For every (circuit, profile) pair of every workload at the given seeds it
runs each strategy once, untraced: a fixed assignment per universal
scheme, bottom-up, top-down, hill climbing from ``best_of``'s default
start, ``best_of`` and, where the enumerator accepts the circuit, the
exhaustive solver. The sha256 of each ``assignment_to_json`` goes into
``golden_digests.json``, keyed by circuit content, profile and strategy,
so a seed's circuits match whichever run produces them. A run reports
digests that differ from these as ``digest_mismatches``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpcost  # noqa: E402

import workloads  # noqa: E402
from measure import circuit_sha, digest, golden_key  # noqa: E402

GOLDEN = HERE / "golden_digests.json"


def strategies(circuit, profile) -> dict:
    """Strategy label -> result, for every strategy a benchmark run digests."""
    universal = profile.universal_schemes(circuit.ops_present())
    results = [mpcost.fixed_sharing(circuit, profile, s) for s in universal]
    results.append(mpcost.bottom_up(circuit, profile))
    results.append(mpcost.top_down(circuit, profile))
    init = "yao" if "yao" in universal else universal[0]
    results.append(mpcost.hill_climbing(circuit, profile, init))
    out = {r.heuristic: r for r in results}
    out["best"] = mpcost.best_of(circuit, profile)
    try:
        out["exhaustive"] = mpcost.exhaustive_optimal(circuit, profile)
    except (mpcost.errors.SearchSpaceTooLarge, ValueError):
        # Over the cap. On the largest circuits the cap's error message
        # itself fails with ValueError; a benchmark run reports that defect.
        pass
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-31"))
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = doc["digests"]
    done = set()
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            workload = workloads.build(name, seed)
            for pair in workload.pairs:
                circuit = workload.circuits[pair.circuit]
                sha = circuit_sha(mpcost.circuit_to_json(circuit))
                if (sha, pair.profile) in done:
                    continue
                done.add((sha, pair.profile))
                profile = mpcost.load_builtin(pair.profile)
                for strategy, result in strategies(circuit, profile).items():
                    digests[golden_key(sha, pair.profile, strategy)] = digest(
                        result.assignment)
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    doc["digests"] = dict(sorted(digests.items()))
    GOLDEN.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
