"""Scheme-assignment strategies.

Four heuristics (fixed scheme, bottom-up, top-down, hill climbing), a
meta-selector that keeps the cheapest of their results, and an exact
enumeration solver that serves as the correctness oracle on small
circuits.

The heuristics work on scheme indices over a
:class:`mpcost.cost_model.Compiled` form of the circuit and profile.
Only the exact solver uses numpy, and it imports it once the search
space has passed its cap.

Determinism: every strategy breaks ties the same way, schemes in the
profile's declaration order first, then ascending node id. Reports sum
their terms in one fixed order, so totals from different strategies
(including the exact solver) compare without tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import Circuit, OpKind
from .cost_model import (
    Assignment,
    Compiled,
    CostProfile,
    CostReport,
    total_cost,
)
from .errors import SearchSpaceTooLarge, UnsupportedScheme

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SolverLimits:
    """Caps that keep the solvers bounded.

    ``max_space`` limits the exact solver's enumeration (the product of
    the candidate-scheme counts over the priced nodes). ``max_passes``
    caps hill-climbing sweeps; ``None`` means ``m * len(schemes)``.
    """

    max_space: int = 10**7
    max_passes: int | None = None

    def __post_init__(self):
        if self.max_space < 1:
            raise ValueError("max_space must be positive")
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be positive")


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one optimization run.

    ``iterations`` counts hill-climbing sweeps (1 for the other
    strategies). ``sweep_totals`` records the total cost in cents before
    the first sweep and after each sweep; ``limit_exceeded`` is set when
    hill climbing was cut off by ``max_passes`` while still improving.
    """

    assignment: Assignment
    report: CostReport
    heuristic: str
    iterations: int = 1
    limit_exceeded: bool = False
    sweep_totals: tuple[float, ...] = ()


def default_scheme(circuit: Circuit, profile: CostProfile) -> str:
    """The uniform scheme used as the pure baseline and as the default
    hill-climbing start: ``"yao"`` when it supports every operation in the
    circuit, otherwise the first declared scheme that does."""
    universal = profile.universal_schemes(circuit.ops_present())
    return "yao" if "yao" in universal else universal[0]


def _require_support(compiled: Compiled, scheme: str) -> int:
    """Index of ``scheme``, which must support every node's operation."""
    profile = compiled.profile
    s = profile.scheme_index.get(scheme)
    if s is None:
        raise UnsupportedScheme(
            f"scheme {scheme!r} is not declared by profile {profile.name!r}"
        )
    for node, cands in zip(compiled.circuit.nodes, compiled.cands):
        if s not in cands:
            raise UnsupportedScheme(
                f"scheme {scheme!r} does not support op {node.op} (node {node.id})"
            )
    return s


def _result(
    compiled: Compiled, idx: list[int], heuristic: str, **extra
) -> OptimizeResult:
    return OptimizeResult(
        compiled.assignment(idx), compiled.report(idx), heuristic, **extra
    )


def fixed_sharing(
    circuit: Circuit, profile: CostProfile, scheme: str
) -> OptimizeResult:
    """Assign one scheme to every node.

    The scheme must support every operation in the circuit; with a single
    scheme there are no conversions, so the report's conversion columns
    are exactly zero.
    """
    compiled = Compiled(circuit, profile)
    s = _require_support(compiled, scheme)
    return _result(compiled, [s] * len(circuit.nodes), f"fixed:{scheme}")


def bottom_up(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in topological order.

    Each priced node (and each ``out`` node) picks the supported scheme
    minimizing its own operation cost plus the conversions from inputs
    that already have a scheme. ``in`` nodes are free and unconstrained,
    so they are left open and adopt the scheme of the first consumer that
    gets processed, which makes that edge conversion-free.
    """
    compiled = Compiled(circuit, profile)
    ct = compiled.ct
    idx: list = [None] * len(circuit.nodes)
    for node in circuit.nodes:  # node order is topological
        if node.op is OpKind.IN:
            continue
        i = node.id
        row = compiled.op_t[i]
        ins = compiled.inputs[i]
        best_scheme = None
        best_cost = None
        for s in compiled.cands[i]:
            cost = row[s]
            for j in ins:
                src = idx[j]
                if src is not None:
                    cost += ct[src][s]
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_scheme = s
        idx[i] = best_scheme
        for j in ins:
            if idx[j] is None:  # a still-open in node
                idx[j] = best_scheme
    for i in circuit.in_ids:  # ins nobody consumes
        if idx[i] is None:
            idx[i] = 0
    return _result(compiled, idx, "bottom-up")


def top_down(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in reverse topological order.

    Each node picks the supported scheme minimizing its own operation
    cost plus the conversions of its result into the consumers assigned
    so far. ``out`` nodes are skipped during the pass and finalized to
    their input's scheme at the end (which makes that edge free).
    """
    compiled = Compiled(circuit, profile)
    ct = compiled.ct
    idx: list = [None] * len(circuit.nodes)
    for node in reversed(circuit.nodes):
        if node.op is OpKind.OUT:
            continue
        i = node.id
        row = compiled.op_t[i]
        consumers = compiled.consumers[i]
        best_scheme = None
        best_cost = None
        for s in compiled.cands[i]:
            cost = row[s]
            conv = ct[s]
            for c in consumers:
                dst = idx[c]
                if dst is not None:
                    cost += conv[dst]
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_scheme = s
        idx[i] = best_scheme
    for i in circuit.out_ids:
        idx[i] = idx[compiled.inputs[i][0]]
    return _result(compiled, idx, "top-down")


def hill_climbing(
    circuit: Circuit,
    profile: CostProfile,
    init_scheme: str,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Local search from a uniform starting assignment.

    Every node starts on ``init_scheme`` (which must support all ops in
    the circuit). Sweeps visit nodes in ascending id order; a node moves
    to the scheme minimizing the cost terms it participates in (its
    operation cost, conversions from its inputs and conversions into its
    consumers), and only on strict improvement. A move then changes the
    circuit total by exactly the score difference, so the total is
    non-increasing across sweeps. The search stops after a sweep with no
    change or after ``max_passes`` sweeps.
    """
    limits = limits or SolverLimits()
    compiled = Compiled(circuit, profile)
    init = _require_support(compiled, init_scheme)
    max_passes = limits.max_passes
    if max_passes is None:
        max_passes = max(1, len(circuit.nodes) * len(profile.schemes))

    idx = [init] * len(circuit.nodes)
    ct = compiled.ct
    nodes = list(zip(
        range(len(idx)), compiled.op_t, compiled.cands, compiled.inputs,
        compiled.consumers,
    ))

    def score(s: int, row, ins, consumers) -> float:
        cost = row[s]
        for j in ins:
            cost += ct[idx[j]][s]
        conv = ct[s]
        for c in consumers:
            cost += conv[idx[c]]
        return cost

    sweep_totals = [compiled.total(idx)]
    sweeps = 0
    limit_exceeded = False
    while True:
        sweeps += 1
        changed = False
        for i, row, cands, ins, consumers in nodes:
            current = idx[i]
            best_scheme = current
            best_cost = score(current, row, ins, consumers)
            for s in cands:
                if s == current:
                    continue
                cost = score(s, row, ins, consumers)
                if cost < best_cost:
                    best_cost = cost
                    best_scheme = s
            if best_scheme != current:
                idx[i] = best_scheme
                changed = True
        sweep_totals.append(compiled.total(idx))
        if not changed:
            break
        if sweeps >= max_passes:
            limit_exceeded = True
            break
    return _result(
        compiled, idx, "hill-climbing",
        iterations=sweeps,
        limit_exceeded=limit_exceeded,
        sweep_totals=tuple(sweep_totals),
    )


# --- exact solver ------------------------------------------------------------


def total_cents_vector(
    circuit: Circuit, profile: CostProfile, schemes: np.ndarray
) -> np.ndarray:
    """Total cost in cents for a batch of assignments.

    ``schemes`` has shape ``(k, m)`` holding a scheme index per node for
    each of ``k`` assignments (all must be feasible). The accumulation
    order per assignment matches :meth:`mpcost.cost_model.Compiled.total`
    term for term, so the results are bit-identical to the scalar path.
    """
    import numpy as np

    op_p, op_n, conv_p, conv_n = (np.array(t) for t in profile.cent_tables())
    k = schemes.shape[0]
    tc = np.zeros(k)
    tn = np.zeros(k)
    for node in circuit.nodes:
        gi = schemes[:, node.id]
        row = profile.op_row(node.op)
        cc = np.zeros(k)
        cn = np.zeros(k)
        for j in node.inputs:
            gj = schemes[:, j]
            cc = cc + conv_p[gj, gi]
            cn = cn + conv_n[gj, gi]
        tc = tc + op_p[row, gi]
        tc = tc + cc
        tn = tn + op_n[row, gi]
        tn = tn + cn
    return tc + tn


#: Rows of the search space the exact solver scores together. Its arrays
#: are sized by this, not by the search space.
_CHUNK_ROWS = 1 << 16
#: Cells of the ``(rows, nodes)`` scheme matrix rebuilt at once for the
#: rows that the exact solver rescores, so circuits with many free in/out
#: nodes stay within the same bound.
_ROW_CELLS = 1 << 20


def _in_objective(conv_total: np.ndarray, targets) -> np.ndarray:
    """Summed conversion cost out of an ``in`` node under each scheme.

    ``targets`` holds, per consuming edge, a scheme index or an array of
    them (arrays share one length ``k``); the result has shape
    ``(n_schemes, k)``, or ``(n_schemes, 1)`` when all are scalars.
    """
    import numpy as np

    acc = np.zeros((conv_total.shape[0], 1))
    for t in targets:
        acc = acc + conv_total[:, np.atleast_1d(t)]
    return acc


def _full_rows(
    circuit: Circuit,
    conv_total: np.ndarray,
    in_edges: list[tuple[int, list[int]]],
    op_schemes: np.ndarray,
) -> np.ndarray:
    """Complete rows of priced-node schemes with the best in/out schemes.

    ``op_schemes`` has shape ``(k, n_priced)``. Each ``in`` node takes the
    first scheme minimizing its summed conversions into its non-``out``
    consumers (scheme 0 when it has none), each ``out`` node the first
    scheme minimizing its incoming conversion.
    """
    import numpy as np

    rows = np.zeros((op_schemes.shape[0], len(circuit.nodes)), dtype=np.int64)
    rows[:, list(circuit.op_node_ids)] = op_schemes
    for i, edges in in_edges:
        objective = _in_objective(conv_total, [rows[:, c] for c in edges])
        rows[:, i] = np.argmin(objective, axis=0)  # first minimum wins
    for i in circuit.out_ids:
        src = rows[:, circuit.nodes[i].inputs[0]]
        rows[:, i] = np.argmin(conv_total[src, :], axis=1)
    return rows


def exhaustive_optimal(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Exact minimum-cost assignment by enumeration.

    The enumeration ranges over the priced nodes only: ``in`` and ``out``
    nodes are free under every scheme and their cost terms touch nothing
    but their own edges, so for any fixed choice on the priced nodes each
    of them can be settled independently and exactly (an ``in`` node
    minimizes its summed conversions into consumers, an ``out`` node its
    single incoming conversion). The search-space size checked against
    ``max_space`` is therefore the product of candidate counts over
    priced nodes, e.g. ``3**k`` for ``k`` add/mul nodes under the bundled
    profiles.

    The space is scanned in chunks of at most ``_CHUNK_ROWS`` rows, so
    memory stays bounded and only the time grows with the space. A fast
    total sums the factored cost terms: each priced node's operation, each
    edge between priced nodes, and each ``in`` node's cheapest fan-out.
    Both it and :func:`total_cents_vector` are float sums of the same
    ``N`` non-negative addends, each within a relative ``N * eps`` of the
    exact sum, so every row whose exact total ties the minimum has a fast
    total within ``1 + 8 * N * eps`` of the smallest fast total. Only
    those rows are rebuilt in full and rescored exactly.

    Ties are broken lexicographically: schemes in declaration order,
    nodes by ascending id.
    """
    limits = limits or SolverLimits()
    nodes = circuit.nodes
    op_ids = circuit.op_node_ids
    domains = [
        [profile.scheme_index[s] for s in profile.schemes_for(nodes[i].op)]
        for i in op_ids
    ]
    space = math.prod(len(d) for d in domains)
    if space > limits.max_space:
        raise SearchSpaceTooLarge(space, limits.max_space)

    import numpy as np  # only the enumeration needs it

    domains = [np.array(d) for d in domains]
    op_p, op_n, conv_p, conv_n = (np.array(t) for t in profile.cent_tables())
    op_total = op_p + op_n
    conv_total = conv_p + conv_n
    position = {node_id: p for p, node_id in enumerate(op_ids)}
    in_edges = []
    for i in circuit.in_ids:
        edges = [
            c for c in circuit.consumer_edges[i] if nodes[c].op is not OpKind.OUT
        ]
        if edges:
            in_edges.append((i, edges))

    # The row index is mixed-radix over the priced nodes with more than one
    # candidate, the lowest id most significant. Its trailing ("low")
    # digits whose radix product fits a chunk are scanned inside each
    # chunk; the leading ("high") digits stay fixed within a chunk.
    free = [p for p, d in enumerate(domains) if len(d) > 1]
    block, n_low = 1, 0
    for p in reversed(free):
        if block * len(domains[p]) > _CHUNK_ROWS:
            break
        block *= len(domains[p])
        n_low += 1
    high, low = free[: len(free) - n_low], free[len(free) - n_low :]
    low_stride = {}
    stride = block
    for p in low:
        stride //= len(domains[p])
        low_stride[p] = stride

    def low_digits(p, rows):
        return (rows // low_stride[p]) % len(domains[p])

    # The cost terms, as (kind, positions of the priced nodes, op row).
    terms = []
    for i in op_ids:
        terms.append(("op", (position[i],), profile.op_row(nodes[i].op)))
        for j in nodes[i].inputs:
            if j in position:
                terms.append(("conv", (position[j], position[i]), None))
    for _, edges in in_edges:
        terms.append(("in", tuple(position[c] for c in edges), None))

    schemes: list = [int(d[0]) for d in domains]  # high digits are set per chunk

    def group_cost(group, grid_schemes):
        total = 0.0
        for kind, ps, row in group:
            s = [grid_schemes.get(p, schemes[p]) for p in ps]
            if kind == "op":
                total = total + op_total[row, s[0]]
            elif kind == "conv":
                total = total + conv_total[s[0], s[1]]
            else:
                total = total + _in_objective(conv_total, s).min(axis=0)
        return total

    # Terms grouped by whether they touch a high digit and by the low
    # digits they touch. A group's cost is tabulated over the joint grid
    # of its low digits and gathered into the block's rows by grid index;
    # groups without high digits are summed once, the others per chunk.
    high_set, low_set = set(high), set(low)
    groups: dict[tuple[bool, tuple[int, ...]], list] = {}
    for kind, ps, row in terms:
        key = (not high_set.isdisjoint(ps), tuple(sorted(low_set.intersection(ps))))
        groups.setdefault(key, []).append((kind, ps, row))

    local = np.arange(block)
    base = np.zeros(block)
    per_chunk = []
    for (touches_high, grid_ps), group in groups.items():
        size = math.prod(len(domains[p]) for p in grid_ps)
        cells = np.arange(size)
        grid_schemes, index, stride = {}, None, size
        for p in grid_ps:
            stride //= len(domains[p])
            grid_schemes[p] = domains[p][(cells // stride) % len(domains[p])]
            digits = low_digits(p, local) * stride
            index = digits if index is None else index + digits
        if touches_high:
            per_chunk.append((group, grid_schemes, index))
        else:
            cost = group_cost(group, grid_schemes)
            base += cost if index is None else cost[index]

    n_addends = 2 * (len(op_ids) + sum(len(nodes[i].inputs) for i in op_ids))
    band = 1.0 + 8 * n_addends * sys.float_info.epsilon
    batch = max(1, _ROW_CELLS // len(nodes))
    fast_min = math.inf
    best_total = None
    best_row = None
    for chunk in range(space // block):
        rest = chunk
        for p in reversed(high):
            rest, digit = divmod(rest, len(domains[p]))
            schemes[p] = int(domains[p][digit])
        fast = base.copy()
        for group, grid_schemes, index in per_chunk:
            cost = group_cost(group, grid_schemes)
            fast += cost if index is None else cost[index]
        fast_min = min(fast_min, float(fast.min()))
        near = np.flatnonzero(fast <= fast_min * band)
        for start in range(0, len(near), batch):
            picked = near[start : start + batch]
            op_schemes = np.empty((len(picked), len(op_ids)), dtype=np.int64)
            for p, d in enumerate(domains):
                if p in low_set:
                    op_schemes[:, p] = d[low_digits(p, picked)]
                else:
                    op_schemes[:, p] = schemes[p]
            rows = _full_rows(circuit, conv_total, in_edges, op_schemes)
            totals = total_cents_vector(circuit, profile, rows)
            lowest = totals.min()
            if best_total is not None and lowest > best_total:
                continue
            ties = rows[totals == lowest]
            row = ties[np.lexsort(ties[:, ::-1].T)[0]].tolist()  # node 0 first
            if best_total is None or lowest < best_total or row < best_row:
                best_total, best_row = lowest, row

    assignment = {i: profile.schemes[s] for i, s in enumerate(best_row)}
    return OptimizeResult(
        assignment, total_cost(circuit, assignment, profile), "exhaustive"
    )


# --- meta-selector -----------------------------------------------------------


def best_of(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
    hill_init: str | None = None,
) -> OptimizeResult:
    """Run every heuristic and keep the cheapest result.

    Candidates, in tie-break order: a fixed assignment for each scheme
    that supports every operation in the circuit, bottom-up, top-down,
    and hill climbing. Hill climbing starts from ``hill_init``, by default
    :func:`default_scheme`. The winning candidate's result (including its
    ``heuristic`` label) is returned unchanged.
    """
    limits = limits or SolverLimits()
    universal = profile.universal_schemes(circuit.ops_present())
    results = [fixed_sharing(circuit, profile, s) for s in universal]
    results.append(bottom_up(circuit, profile))
    results.append(top_down(circuit, profile))
    if hill_init is None:
        hill_init = default_scheme(circuit, profile)
    results.append(hill_climbing(circuit, profile, hill_init, limits))
    best = results[0]
    for r in results[1:]:
        if r.report.total < best.report.total:
            best = r
    return best
