"""The benchmark's workloads: which circuits run under which profiles.

Every workload is a list of (circuit, profile) pairs made from the seed.
The program only ever sees the generated circuit files and the names of
bundled profiles.

* ``case-studies``: the paper's two evaluated circuits in both deployment
  regimes. Each call does little search work, so interpreter start,
  import, profile load and CLI output dominate. The seed does not change
  these circuits.
* ``large-synthetic``: three 34k-43k-node circuits (wide and shallow,
  random with high fan-out, deep). The greedy passes, hill climbing,
  ``total_cost`` and JSON output do nearly all the work; the exact
  solver is bypassed. It runs on request only, because a run takes over
  a minute.
* ``exact-small``: circuits small enough for the enumerator, which then
  dominates time and memory, and whose optimum measures how far
  ``best_of`` is from the true minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpcost
from mpcost import OpKind

#: Priced ops of the large random circuit (about 34k nodes in total).
LARGE_RANDOM_OPS = 26000
#: Priced-op counts of the seeded random circuits in the exact-small
#: corpus. The counts are fixed so that a seed changes a circuit's shape
#: but not its size, which would move the timings from seed to seed.
EXACT_RANDOM_OPS = (8, 11)
#: The seed that names the default inputs (used by the benchmark's tests).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Pair:
    circuit: str  # label of a circuit in Workload.circuits
    profile: str  # bundled profile name


@dataclass
class Workload:
    name: str
    circuits: dict[str, mpcost.Circuit]
    pairs: list[Pair]


def case_studies(seed: int) -> Workload:
    circuits = {
        "matmul-5": mpcost.gen_matmul(mpcost.MatMulSpec(n=5)),
        "biometric-30x5": mpcost.gen_biometric(mpcost.BiometricSpec(rows=30, attrs=5)),
    }
    profiles = ("inter-m3.medium", "inter-m3.large", "intra-c4.large")
    pairs = [Pair(c, p) for c in circuits for p in profiles]
    return Workload("case-studies", circuits, pairs)


def large_synthetic(seed: int) -> Workload:
    random_label = f"random-{seed}-{LARGE_RANDOM_OPS}"
    circuits = {
        "biometric-1000x10": mpcost.gen_biometric(
            mpcost.BiometricSpec(rows=1000, attrs=10)
        ),
        random_label: mpcost.gen_random(seed, LARGE_RANDOM_OPS),
        "chain-mul-20000": mpcost.gen_chain(OpKind.MUL, 20000),
    }
    pairs = [
        Pair("biometric-1000x10", "inter-m3.medium"),
        Pair(random_label, "intra-c4.large"),
        Pair("chain-mul-20000", "inter-m3.medium"),
    ]
    return Workload("large-synthetic", circuits, pairs)


def exact_small(seed: int) -> Workload:
    circuits = {
        "matmul-2": mpcost.gen_matmul(mpcost.MatMulSpec(n=2)),
        "biometric-2x2": mpcost.gen_biometric(mpcost.BiometricSpec(rows=2, attrs=2)),
        "chain-add-12": mpcost.gen_chain(OpKind.ADD, 12),
        "chain-mul-12": mpcost.gen_chain(OpKind.MUL, 12),
    }
    rng = random.Random(seed)
    for n_ops in EXACT_RANDOM_OPS:
        sub_seed = rng.randrange(2**31)
        circuits[f"random-{sub_seed}-{n_ops}"] = mpcost.gen_random(sub_seed, n_ops)
    profiles = ("inter-m3.medium", "intra-c4.large")
    pairs = [Pair(c, p) for c in circuits for p in profiles]
    return Workload("exact-small", circuits, pairs)


WORKLOADS = {
    "case-studies": case_studies,
    "large-synthetic": large_synthetic,
    "exact-small": exact_small,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
