"""How close do the heuristics get to the true optimum?

On circuits with few priced nodes the exact solver finds the true
optimum (its space cap counts the priced nodes only, so 10 priced nodes
mean at most 3^10, and its bounded search visits only a few of the
rows). This script measures each heuristic's gap to that optimum over a
bag of random circuits.

Run: python demos/04_exact_vs_heuristics.py
"""

from mpcost import (
    SolverLimits,
    best_of,
    bottom_up,
    exhaustive_optimal,
    fixed_sharing,
    gen_random,
    hill_climbing,
    load_builtin,
    top_down,
)

profile = load_builtin("inter-m3.medium")
limits = SolverLimits(max_space=10**6)

strategies = {
    "pure-yao": lambda c: fixed_sharing(c, profile, "yao"),
    "bottom-up": lambda c: bottom_up(c, profile),
    "top-down": lambda c: top_down(c, profile),
    "hill": lambda c: hill_climbing(c, profile, "yao", limits),
    "best-of": lambda c: best_of(c, profile, limits),
}

n = 120
gaps = {name: [] for name in strategies}
optimal_hits = {name: 0 for name in strategies}
for seed in range(n):
    circuit = gen_random(seed, n_ops=1 + seed % 10)
    optimum = exhaustive_optimal(circuit, profile, limits).report.total
    for name, run in strategies.items():
        total = run(circuit).report.total
        assert total >= optimum  # the oracle bound, by construction
        gaps[name].append(0.0 if optimum == 0 else total / optimum - 1.0)
        if total == optimum:
            optimal_hits[name] += 1

print(f"{n} random circuits, 1..10 priced nodes, {profile.name}\n")
print(f"{'strategy':<12}{'mean gap':>12}{'worst gap':>12}{'optimal':>10}")
for name in strategies:
    values = gaps[name]
    print(f"{name:<12}{sum(values) / n:>11.1%}{max(values):>11.1%}"
          f"{optimal_hits[name]:>7}/{n}")

print("""
The gap is (heuristic total / optimal total) - 1; 'optimal' counts runs
that matched the exact solver's cost. best-of never does worse than any
single strategy because it keeps the cheapest of their answers.""")
