"""Scheme-assignment strategies.

Four heuristics (fixed scheme, bottom-up, top-down, hill climbing), a
meta-selector that keeps the cheapest of their results, and an exact
solver (variable elimination plus a bounded depth-first search) that
serves as the correctness oracle on small circuits.

Every strategy works on scheme indices over a
:class:`mpcost.cost_model.Compiled` form of the circuit and profile, in
plain Python, and scores assignments with its one evaluator,
:meth:`~mpcost.cost_model.Compiled.total`.

Determinism: every strategy breaks ties the same way, schemes in the
profile's declaration order first, then ascending node id. Reports sum
their terms in one fixed order, so totals from different strategies
(including the exact solver) compare without tolerance.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .circuit import Circuit, OpKind
from .cost_model import (
    Assignment,
    Compiled,
    CostProfile,
    CostReport,
    total_cost,  # noqa: F401  (unused; perfbench's tracer patches it here)
)
from .errors import SearchSpaceTooLarge, UnsupportedScheme


@dataclass(frozen=True)
class SolverLimits:
    """Caps that keep the solvers bounded.

    ``max_space`` limits the exact solver's search space (the product of
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
    return _preferred(profile.universal_schemes(circuit.ops_present()))


def _preferred(universal: tuple[str, ...]) -> str:
    """:func:`default_scheme` among the circuit's ``universal`` schemes."""
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


# Each public strategy compiles, runs its pass (scheme indices over a
# given ``Compiled``) and reports. ``candidates`` runs every heuristic pass
# on one compiled form; ``best_of`` and ``mpcost compare`` read it, and
# ``compare`` runs ``exact_pass`` on that same form.


def fixed_sharing(
    circuit: Circuit, profile: CostProfile, scheme: str
) -> OptimizeResult:
    """Assign one scheme to every node.

    The scheme must support every operation in the circuit; with a single
    scheme there are no conversions, so the report's conversion columns
    are exactly zero.
    """
    compiled = Compiled(circuit, profile)
    idx = [_require_support(compiled, scheme)] * len(circuit.nodes)
    return _result(compiled, idx, f"fixed:{scheme}")


def bottom_up(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in topological order.

    Each priced node (and each ``out`` node) picks the supported scheme
    minimizing its own operation cost plus the conversions from inputs
    that already have a scheme. ``in`` nodes are free and unconstrained,
    so they are left open and adopt the scheme of the first consumer that
    gets processed, which makes that edge conversion-free.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, bottom_up_pass(compiled), "bottom-up")


def bottom_up_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`bottom_up`."""
    circuit = compiled.circuit
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
    return idx


def top_down(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in reverse topological order.

    Each node picks the supported scheme minimizing its own operation
    cost plus the conversions of its result into the consumers assigned
    so far. ``out`` nodes are skipped during the pass and finalized to
    their input's scheme at the end (which makes that edge free).
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, top_down_pass(compiled), "top-down")


def top_down_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`top_down`."""
    circuit = compiled.circuit
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
    return idx


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

    A sweep skips a node when neither it nor any of its inputs or
    consumers has moved since its last visit: its terms are unchanged,
    so it would not move. The result is the one a sweep over every node
    gives.
    """
    compiled = Compiled(circuit, profile)
    idx, extra = hill_pass(compiled, init_scheme, limits or SolverLimits())
    return _result(compiled, idx, "hill-climbing", **extra)


def hill_pass(
    compiled: Compiled,
    init_scheme: str,
    limits: SolverLimits,
    init_total: float | None = None,
) -> tuple[list[int], dict]:
    """Scheme indices of :func:`hill_climbing`, and its ``iterations``,
    ``limit_exceeded`` and ``sweep_totals`` as keyword arguments of
    :class:`OptimizeResult`. ``init_total``, when given, is the
    :meth:`~mpcost.cost_model.Compiled.total` of the uniform start, which
    a caller has already scored."""
    init = _require_support(compiled, init_scheme)
    n = len(compiled.circuit.nodes)
    max_passes = limits.max_passes
    if max_passes is None:
        max_passes = max(1, n * len(compiled.profile.schemes))

    idx = [init] * n
    ct = compiled.ct
    nodes = list(zip(
        range(n), compiled.op_t, compiled.cands, compiled.inputs,
        compiled.consumers,
    ))
    # A node's score reads only its own, its inputs' and its consumers'
    # schemes. A node none of these moved for since its last visit is at
    # the same first minimum and would not move, so it is skipped.
    stale = [True] * n
    sweep_totals = [compiled.total(idx) if init_total is None else init_total]
    sweeps = 0
    limit_exceeded = False
    while True:
        sweeps += 1
        changed = False
        for i, row, cands, ins, consumers in nodes:
            if not stale[i]:
                continue
            stale[i] = False
            # Score each scheme; the node keeps its own unless another is
            # strictly cheaper, else the first least one wins.
            best_scheme = current = idx[i]
            best_cost = math.inf
            for s in cands:
                cost = row[s]
                for j in ins:
                    cost += ct[idx[j]][s]
                conv = ct[s]
                for c in consumers:
                    cost += conv[idx[c]]
                if cost < best_cost or (cost == best_cost and s == current):
                    best_cost = cost
                    best_scheme = s
            if best_scheme != current:
                idx[i] = best_scheme
                changed = True
                for j in ins:
                    stale[j] = True
                for c in consumers:
                    stale[c] = True
        if not changed:
            sweep_totals.append(sweep_totals[-1])  # the same assignment
            break
        sweep_totals.append(compiled.total(idx))
        if sweeps >= max_passes:
            limit_exceeded = True
            break
    return idx, {
        "iterations": sweeps,
        "limit_exceeded": limit_exceeded,
        "sweep_totals": tuple(sweep_totals),
    }


# --- exact solver ------------------------------------------------------------

#: Most cells in one elimination table of the exact solver.
_TABLE_CELLS = 2**14


def exhaustive_optimal(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Exact minimum-cost assignment, found by :func:`exact_pass`.

    Contract. A full row holds a scheme index per node id, ``in`` and
    ``out`` nodes included. The result is the feasible full row with the
    least :meth:`~mpcost.cost_model.Compiled.total`; ties go to the
    lexicographically first row (scheme index, node 0 first). The search
    space checked against ``max_space``, before any solver work, is the
    product of the candidate counts over the priced nodes, e.g. ``3**k``
    for ``k`` add/mul nodes under the bundled profiles; above it the call
    raises :class:`SearchSpaceTooLarge`.
    """
    compiled = Compiled(circuit, profile)
    idx = exact_pass(compiled, limits or SolverLimits())
    return _result(compiled, idx, "exhaustive")


def exact_pass(compiled: Compiled, limits: SolverLimits) -> list[int]:
    """Scheme indices of :func:`exhaustive_optimal`, which states the
    contract.

    Method. The cost is a sum of factors: each priced node's operation
    and each edge's conversion. The variables are the nodes with more than
    one candidate that a factor touches, ``in`` and ``out`` nodes included;
    every other node keeps its first candidate. The elimination order is
    fixed on the factors' scopes before any table is built: each step
    takes the variable whose table (it and its neighbours) has the fewest
    cells, so an ``in`` node that feeds many nodes goes after them.
    Min-sum variable elimination in that order gives the cost-to-go of
    every prefix of the reverse order: the messages later variables sent
    into it. A bucket whose table would exceed ``_TABLE_CELLS`` cells sends
    one message per factor instead (Dechter's mini-buckets), which bounds
    the cost-to-go from below, so no table outgrows that cap. A depth-first
    search then sets the variables in the reverse order, cheapest bound
    first, and scores each leaf row with ``Compiled.total``.

    Pruning. Prices are non-negative, and rounded ``+`` and ``min`` are
    monotone. A subtree's float bound ``b`` is thus at most the float sum
    of the factors of any row ``r`` in it, within ``1 + N*eps`` of the
    exact sum of the ``N`` addends of ``Compiled.total(r)``, which is
    itself within ``1 + N*eps`` of that exact sum. So ``b > best * band``
    with ``band = 1 + 8*N*eps`` (slack included for rounding the product)
    proves that every row in the subtree costs more than the incumbent
    ``best``, and the subtree goes. Otherwise a subtree goes when a key
    no row in it can undercut is not below the incumbent's
    ``(total, row)``: the key's total is
    :meth:`~mpcost.cost_model.Compiled.least_total` over the schemes each
    node may still take, and its row takes each node's least such scheme.
    This settles degenerate ties, such as an all-zero profile, without
    visiting every tied row.
    """
    circuit = compiled.circuit
    nodes = circuit.nodes
    ct, inputs, cands = compiled.ct, compiled.inputs, compiled.cands
    space = math.prod(len(cands[i]) for i in circuit.op_node_ids)
    if space > limits.max_space:
        raise SearchSpaceTooLarge(space, limits.max_space)

    # The factors' cells and node ids; a node with more than one candidate
    # that one touches is a variable.
    def conv(s: int, t: int) -> float:
        return ct[s][t]

    terms = [(compiled.op_t[p].__getitem__, (p,)) for p in circuit.op_node_ids]
    terms += [(conv, (j, p)) for p, ins in enumerate(inputs) for j in ins]
    row = [cands[i][0] for i in range(len(nodes))]  # the current path's row
    adj = {}  # the variables' interaction graph
    for _, members in terms:
        scope = {x for x in members if len(cands[x]) > 1}
        for x in scope:
            adj.setdefault(x, set()).update(scope - {x})

    def cells(scope) -> int:
        return math.prod(len(cands[x]) for x in scope)

    order = []  # the variables' node ids, last eliminated first
    table_cells = {x: cells(adj[x] | {x}) for x in adj}
    while adj:
        x = min(adj, key=lambda x: (table_cells[x], -x))
        neighbours = adj.pop(x)
        for y in neighbours:
            adj[y] |= neighbours
            adj[y] -= {x, y}
            table_cells[y] = cells(adj[y] | {y})
        order.insert(0, x)
    pos = {node: v for v, node in enumerate(order)}
    dom = [cands[node] for node in order]
    n = len(order)
    a = [0] * n  # per variable, the position of its scheme in its domain

    def factor(scope: tuple, table: list) -> tuple:
        strides, size = [], 1
        for v in reversed(scope):
            strides.insert(0, size)
            size *= len(dom[v])
        return scope, strides, table

    def value(f: tuple) -> float:
        scope, strides, table = f
        k = 0
        for v, stride in zip(scope, strides):
            k += a[v] * stride
        return table[k]

    def spread(f: tuple, joint: tuple) -> list:
        """``f``'s table laid out over ``joint``, a superset of its scope."""
        where = dict(zip(f[0], f[1]))
        offsets = [0]
        for w in joint:
            steps = [k * where.get(w, 0) for k in range(len(dom[w]))]
            offsets = [o + step for o in offsets for step in steps]
        return [f[2][o] for o in offsets]

    own = [[] for _ in range(n)]  # the cost's factors, by last variable
    fixed_cost = 0.0  # the factors without a variable

    for cell, members in terms:
        options = [dom[pos[x]] if x in pos else (row[x],) for x in members]
        table = [cell(*args) for args in itertools.product(*options)]
        scope = tuple(pos[x] for x in members if x in pos)
        if scope:
            own[max(scope)].append(factor(scope, table))
        else:
            fixed_cost += table[0]

    # Eliminate the last variable first; it is the largest in every scope
    # in its bucket. A message belongs to the cost-to-go at every depth from
    # its scope's last variable (or 0) up to, not including, its sender.
    inbox = [list(fs) for fs in own]
    togo = [[] for _ in range(n)]
    for v in reversed(range(n)):
        reach = {w for f in inbox[v] for w in f[0]}
        fits = cells(order[w] for w in reach) <= _TABLE_CELLS
        for fs in [inbox[v]] if fits else [[f] for f in inbox[v]]:
            scope = tuple(sorted({w for f in fs for w in f[0]} - {v}))
            joint = scope + (v,)
            total = spread(fs[0], joint)
            for f in fs[1:]:
                total = [x + y for x, y in zip(total, spread(f, joint))]
            m = len(dom[v])
            message = factor(scope, [min(total[k:k + m]) for k in range(0, len(total), m)])
            if scope:
                inbox[scope[-1]].append(message)
            for d in range(scope[-1] if scope else 0, v):
                togo[d].append(message)

    n_addends = 2 * (len(nodes) + sum(map(len, inputs)))
    band = 1.0 + 8 * n_addends * sys.float_info.epsilon
    best_total, best_row = math.inf, None

    def expand(d: int, path_cost: float) -> list:
        """Children of variable ``d`` as ``(bound, position, path cost)``,
        cheapest last."""
        children = []
        for k in range(len(dom[d])):
            a[d] = k
            cost = path_cost
            for f in own[d]:
                cost += value(f)
            bound = cost
            for f in togo[d]:
                bound += value(f)
            children.append((bound, k, cost))
        children.sort(reverse=True)
        return children

    def lower_key(d: int) -> tuple:
        """``(total, row)`` no row below the depth-``d`` path undercuts."""
        options = [(s,) for s in row]
        for v in range(d + 1, n):
            options[order[v]] = dom[v]
        return compiled.least_total(options), [opts[0] for opts in options]

    stack = [expand(0, fixed_cost)] if n else [[(fixed_cost, 0, fixed_cost)]]
    while stack:
        d = len(stack) - 1
        if not stack[-1]:
            stack.pop()
            continue
        bound, k, cost = stack[-1].pop()
        if bound > best_total * band:
            stack.pop()  # its remaining siblings cost at least as much
            continue
        if n:
            a[d] = k
            row[order[d]] = dom[d][k]
        if best_row is not None and lower_key(d) >= (best_total, best_row):
            continue
        if d + 1 < n:
            stack.append(expand(d + 1, cost))
        else:
            total = compiled.total(row)
            if best_row is None or (total, row) < (best_total, best_row):
                best_total, best_row = total, row[:]
    return best_row


# --- meta-selector -----------------------------------------------------------


def candidates(
    compiled: Compiled, limits: SolverLimits, hill_init: str | None = None
) -> dict[str, tuple[float, list[int], dict]]:
    """Every heuristic's result on ``compiled`` as label -> ``(total, scheme
    indices, OptimizeResult keyword arguments)``, in tie-break order: a
    ``fixed:<scheme>`` run for each scheme that supports every operation
    in the circuit, ``bottom-up``, ``top-down`` and ``hill-climbing`` from
    ``hill_init`` (by default :func:`default_scheme`).

    Each is scored once with :meth:`~mpcost.cost_model.Compiled.total`:
    hill climbing starts from the score of its start when that is a fixed
    candidate, and its last sweep total is its own score.
    """
    profile = compiled.profile
    universal = profile.universal_schemes(compiled.circuit.ops_present())
    n = len(compiled.circuit.nodes)
    # Universal schemes support every node's op, so no per-node check.
    runs = {f"fixed:{s}": [profile.scheme_index[s]] * n for s in universal}
    runs["bottom-up"] = bottom_up_pass(compiled)
    runs["top-down"] = top_down_pass(compiled)
    scored = {label: (compiled.total(idx), idx, {}) for label, idx in runs.items()}
    if hill_init is None:
        hill_init = _preferred(universal)
    start = scored.get(f"fixed:{hill_init}", (None,))[0]
    idx, extra = hill_pass(compiled, hill_init, limits, start)
    scored["hill-climbing"] = (extra["sweep_totals"][-1], idx, extra)
    return scored


def best_of(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
    hill_init: str | None = None,
) -> OptimizeResult:
    """Run every heuristic and keep the cheapest result.

    The candidates are those of :func:`candidates`, on one compiled form.
    The first candidate with the least total wins, and its result
    (including its ``heuristic`` label) is what that strategy's own
    function returns. Only the winner gets a per-node report.
    ``exhaustive_optimal`` is not a candidate.
    """
    compiled = Compiled(circuit, profile)
    scored = candidates(compiled, limits or SolverLimits(), hill_init)
    label = min(scored, key=lambda k: scored[k][0])  # the first least
    _, idx, extra = scored[label]
    return _result(compiled, idx, label, **extra)
