"""Scheme-assignment strategies.

Four heuristics (fixed scheme, bottom-up, top-down, hill climbing), a
meta-selector that keeps the cheapest of their results, and an exact
solver (a depth-first search bounded by the LP dual) that serves as the
correctness oracle on small circuits.

Every strategy works on scheme indices over a
:class:`mpcost.cost_model.Compiled` form of the circuit and profile, in
plain Python, and scores assignments with its one fold,
:meth:`~mpcost.cost_model.Compiled.sums`.

Determinism: every strategy breaks ties the same way, schemes in the
profile's declaration order first, then ascending node id. Totals are
exact sums of ints, so totals from different strategies (including the
exact solver) compare without tolerance, and a report's float total is
the one nearest the exact sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import add

from .circuit import Circuit, OpKind, _check_count, _Value
from .cost_model import (
    Compiled,
    CostProfile,
    total_cost,  # noqa: F401  (unused; perfbench's tracer patches it here)
)
from .errors import SearchSpaceTooLarge, UnsupportedScheme


class SolverLimits(_Value):
    """Caps that keep the solvers bounded.

    ``max_space`` limits the exact solver's search space (the product of
    the candidate-scheme counts over the priced nodes). ``max_passes``
    caps hill-climbing sweeps; ``None`` means the circuit's node count
    times the profile's scheme count (at least 1). Each
    cap is an ``int`` (not a ``bool``) of at least 1, else the constructor
    raises :class:`~mpcost.errors.InvalidArgument` (a ``ValueError``).
    """

    max_space: int
    max_passes: int | None
    _compared = ("max_space", "max_passes")

    def __init__(self, max_space: int = 10**7, max_passes: int | None = None):
        _check_count("max_space", max_space)
        if max_passes is not None:
            _check_count("max_passes", max_passes)
        self._store(max_space=max_space, max_passes=max_passes)


#: The limits a strategy called without any runs under (the class is
#: immutable, so one instance serves every call).
_DEFAULT_LIMITS = SolverLimits()


class OptimizeResult(namedtuple(
        "OptimizeResult",
        "assignment report heuristic iterations limit_exceeded",
        defaults=(1, False))):
    """Outcome of one optimization run (an immutable named tuple).

    ``assignment`` maps node ids to scheme names, ``report`` is its
    :class:`~mpcost.cost_model.CostReport` and ``heuristic`` the label of
    the strategy that produced it. ``iterations`` counts hill-climbing
    sweeps (1 for the other strategies); ``limit_exceeded`` is set when
    hill climbing was cut off by ``max_passes`` while still improving.
    """

    __slots__ = ()


def default_scheme(circuit: Circuit, profile: CostProfile) -> str:
    """The uniform scheme used as the pure baseline and as the default
    hill-climbing start: ``"yao"`` when it supports every operation in the
    circuit, otherwise the first declared scheme that does."""
    return profile.schemes[profile._uniform(circuit.ops_present()).start]


def _require_support(compiled: Compiled, scheme: str) -> int:
    """Index of ``scheme``, which must support every node's operation,
    that is, be one of the circuit's universal schemes. The error names
    the first node it does not support."""
    circuit, profile = compiled.circuit, compiled.profile
    s = profile.scheme_index.get(scheme)
    if s is None:
        raise UnsupportedScheme(
            f"scheme {scheme!r} is not declared by profile {profile.name!r}"
        )
    if scheme not in profile._uniform(circuit.ops_present()).universal:
        node = next(node for node, cands in zip(circuit.nodes, compiled.cands)
                    if s not in cands)
        raise UnsupportedScheme(
            f"scheme {scheme!r} does not support op {node.op} (node {node.id})"
        )
    return s


def _result(
    compiled: Compiled, idx: list[int], heuristic: str, sums=None, **extra
) -> OptimizeResult:
    """The result of ``idx``, with ``sums`` as in
    :meth:`~mpcost.cost_model.Compiled.report`."""
    return OptimizeResult(
        compiled.assignment(idx), compiled.report(idx, sums), heuristic, **extra
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
    s = _require_support(compiled, scheme)
    return _result(compiled, [s] * len(circuit.nodes), f"fixed:{scheme}",
                   compiled.uniform_sums(s))


def bottom_up(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in topological order.

    Each priced node (and each ``out`` node) picks the supported scheme
    minimizing its own operation cost plus the conversions from inputs
    that already have a scheme. ``in`` nodes are free and unconstrained,
    so they are left open and adopt the scheme of the first consumer that
    gets processed, which makes that edge conversion-free.

    Ties go to the first least scheme. A scheme whose op cost alone is
    not below the least score so far is not scored further: prices are
    non-negative, and a rounded add of a non-negative addend never lowers
    a sum, so its full score could not be below either. The first
    scheme is the start (it wins when every score is ``inf``), so the
    pass gives what scoring every scheme in full gives.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, bottom_up_pass(compiled), "bottom-up")


def bottom_up_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`bottom_up`."""
    ct = compiled.ct
    inf = math.inf
    n = len(compiled.cands)
    idx: list = [None] * n
    # Node order is topological, and only in nodes have no inputs.
    for i, row, cands, ins in zip(
        range(n), compiled.op_t, compiled.cands, compiled.inputs
    ):
        if not ins:
            continue
        best_scheme = cands[0]
        best_cost = inf
        for s in cands:
            cost = row[s]
            if cost >= best_cost:
                continue
            for j in ins:
                src = idx[j]
                if src is not None:
                    cost += ct[src][s]
            if cost < best_cost:
                best_cost = cost
                best_scheme = s
        idx[i] = best_scheme
        for j in ins:
            if idx[j] is None:  # a still-open in node
                idx[j] = best_scheme
    for i in compiled.circuit.in_ids:  # ins nobody consumes
        if idx[i] is None:
            idx[i] = 0
    return idx


def top_down(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in reverse topological order.

    Each node picks the supported scheme minimizing its own operation
    cost plus the conversions of its result into the consumers assigned
    so far. ``out`` nodes are skipped during the pass and finalized to
    their input's scheme at the end (which makes that edge free).

    Ties and pruning are as in :func:`bottom_up`: a scheme whose op cost
    is not below the least score so far goes unscored.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, top_down_pass(compiled), "top-down")


def top_down_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`top_down`."""
    circuit = compiled.circuit
    ct = compiled.ct
    inf = math.inf
    out = OpKind.OUT  # a local: reading an enum member costs about 0.2 us
    n = len(circuit.nodes)
    idx: list = [None] * n
    for i, op, row, cands, consumers in zip(
        reversed(range(n)), reversed(circuit.node_ops), reversed(compiled.op_t),
        reversed(compiled.cands), reversed(compiled.consumers),
    ):
        if op is out:
            continue
        best_scheme = cands[0]
        best_cost = inf
        for s in cands:
            cost = row[s]
            if cost >= best_cost:
                continue
            conv = ct[s]
            for c in consumers:
                dst = idx[c]
                if dst is not None:
                    cost += conv[dst]
            if cost < best_cost:
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
    so it would not move. A visit scores the node's own scheme first, in
    full, then the others in ascending order, and drops one as soon as
    its op cost, or its op cost plus its input conversions, reaches the
    best score so far: every addend is non-negative and a rounded add of
    a non-negative addend never lowers a sum, so a partial score is at
    most the full one, and that scheme could not be strictly cheaper.
    The result is the one a sweep that scores every scheme of every node
    in full gives.
    """
    compiled = Compiled(circuit, profile)
    s = _require_support(compiled, init_scheme)
    idx, extra = hill_pass(compiled, s, limits or _DEFAULT_LIMITS)
    return _result(compiled, idx, "hill-climbing", **extra)


def hill_pass(
    compiled: Compiled, init: int, limits: SolverLimits
) -> tuple[list[int], dict]:
    """Scheme indices of :func:`hill_climbing` from every node on scheme
    ``init``, and the result's ``iterations`` and ``limit_exceeded`` as
    keyword arguments of :class:`OptimizeResult`."""
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
    sweeps = 0
    limit_exceeded = False
    while True:
        sweeps += 1
        changed = False
        for i, row, cands, ins, consumers in nodes:
            if not stale[i]:
                continue
            stale[i] = False
            # The node keeps its own scheme unless another is strictly
            # cheaper, else the first least one wins. So its own score is
            # the bound, and a scheme whose partial score reaches it goes.
            best_scheme = current = idx[i]
            best_cost = row[current]
            for j in ins:
                best_cost += ct[idx[j]][current]
            conv = ct[current]
            for c in consumers:
                best_cost += conv[idx[c]]
            for s in cands:
                cost = row[s]
                if cost >= best_cost or s == current:
                    continue
                for j in ins:
                    cost += ct[idx[j]][s]
                if cost >= best_cost:
                    continue
                conv = ct[s]
                for c in consumers:
                    cost += conv[idx[c]]
                if cost < best_cost:
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
            break
        if sweeps >= max_passes:
            limit_exceeded = True
            break
    return idx, {"iterations": sweeps, "limit_exceeded": limit_exceeded}


# --- exact solver ------------------------------------------------------------

#: Most sweeps of the exact solver's dual ascent.
_DUAL_SWEEPS = 8


def exhaustive_optimal(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Exact minimum-cost assignment, found by :func:`exact_pass`.

    Contract. A full row holds a scheme index per node id, ``in`` and
    ``out`` nodes included. The result is the feasible full row with the
    least exact total of :meth:`~mpcost.cost_model.Compiled.sums`; ties,
    which are exact, go to the lexicographically first row (scheme
    index, node 0 first). The search space checked against
    ``max_space``, before any solver work, is the product of the
    candidate counts over the priced nodes, e.g. ``3**k`` for ``k``
    add/mul nodes under the bundled profiles; above it the call raises
    :class:`SearchSpaceTooLarge`. The report reuses the pass's sums and
    builds per-node records only when they are read.
    """
    compiled = Compiled(circuit, profile)
    sums, idx = exact_pass(compiled, limits or _DEFAULT_LIMITS)
    return _result(compiled, idx, "exhaustive", sums)


def exact_pass(
    compiled: Compiled, limits: SolverLimits
) -> tuple[tuple[int, int], list[int]]:
    """The :meth:`~mpcost.cost_model.Compiled.sums` and scheme indices of
    :func:`exhaustive_optimal`'s row, whose docstring states the contract.

    Method. The cost is pairwise: a unary term per node (its op price)
    and a conversion price per edge; a node no term touches (an ``in``
    node nobody reads) keeps its first candidate. An ascent on the LP
    dual (EMPLP: Globerson and Jaakkola, NIPS 2007), in floats on
    ``op_t`` and ``ct``, keeps a message per edge end. Per edge ``(j,
    u)`` a sweep sets ``m_j(r) = (min_s [ct[r][s] + w_u(s)] - w_j(r)) /
    2`` and ``m_u`` alike, where ``w_v`` is the belief ``b_v`` (the unary
    term plus the messages into ``v``) less the edge's own message. It
    stops when the dual bound ``sum_v min b_v`` stops rising, or after
    ``_DUAL_SWEEPS`` sweeps.

    The search is exact. Any messages leave each row's cost at ``sum_v
    b_v + sum_e t_e``, with ``t_e(r, s) = c_e(r, s) - m_j(r) - m_u(s)``.
    So every term is an int in units of ``2**-e2`` cents, the exact
    prices (:class:`~mpcost.cost_model._Exact`) shifted up from ``2**-e``
    and each float message exactly: ``e2`` is the least exponent, at or
    above ``e``, that makes every message an int. Where the ascent
    overflowed, the messages are zero. The decoded row (in id order, each
    node's least ``b_u`` plus ``t_e`` over its in-edges) costs ``cap``,
    the sum of its terms. A depth-first search sets the nodes in id order,
    schemes ascending, so rows come in lexicographic order; each stack
    entry carries ``g``, the sum of its path's node terms, which at a
    leaf is the row's exact total. Each node past the path's end adds at
    least ``l_u = min b_u + sum_e min t_e`` over its in-edges, so ``g +
    sum_u l_u`` bounds every row below. Order breaks ties: the first leaf
    costing ``cap`` or less leads, and a later one replaces it only by
    costing strictly less. So a child goes when its bound exceeds
    ``cap`` before a leaf leads, and when it reaches the leader's total
    after. Before a leaf leads, a row costing ``cap`` may be the first
    least one, so ties with the cap stay.
    """
    op_t, inputs, cands, ct = (
        compiled.op_t, compiled.inputs, compiled.cands, compiled.ct
    )
    space = math.prod(len(cands[i]) for i in compiled.circuit.op_node_ids)
    if space > limits.max_space:
        raise SearchSpaceTooLarge(space, limits.max_space)

    n = len(cands)
    first = [c[0] for c in cands]
    nodes = [u for u in range(n) if inputs[u] or compiled.consumers[u]]
    # Per node, its in-edges, each with a message to either end.
    into = [[(j, [0.0] * len(ct), [0.0] * len(ct)) for j in ins] if ins else ()
            for ins in inputs]
    edges = [(j, u, mj, mu) for u in nodes for j, mj, mu in into[u]]
    tables = {}  # per pair of ``cands``, ``ct`` over it by rows and by columns
    for rs, ss in {(cands[j], cands[u]) for j, u, _, _ in edges}:
        tables[rs, ss] = ([[ct[r][s] for s in ss] for r in rs],
                          [[ct[r][s] for r in rs] for s in ss])

    b = {u: list(op_t[u]) for u in nodes}  # the beliefs, kept up to date
    last = -math.inf
    for _ in range(_DUAL_SWEEPS):
        for j, u, mj, mu in edges:
            bj, bu, rs, ss = b[j], b[u], cands[j], cands[u]
            by_row, by_col = tables[rs, ss]
            wj = [bj[r] - mj[r] for r in rs]
            wu = [bu[s] - mu[s] for s in ss]
            for r, w, conv in zip(rs, wj, by_row):
                mj[r] = m = 0.5 * (min(map(add, conv, wu)) - w)
                bj[r] = w + m
            for s, w, conv in zip(ss, wu, by_col):
                mu[s] = m = 0.5 * (min(map(add, conv, wj)) - w)
                bu[s] = w + m
        bound = sum([min([b[u][s] for s in cands[u]]) for u in nodes])
        if bound <= last:
            break
        last = bound

    # The terms as ints in units of ``2**-e2``, the beliefs summed afresh,
    # and per position in ``nodes`` the sum of ``l_u`` from there on.
    exact = compiled.profile._exact
    e, k, mask = exact.e, exact.k, exact.mask
    messages = [ms for edge in edges for ms in edge[2:]]
    if all([math.isfinite(m) for ms in messages for m in ms]):
        ratios = [[m.as_integer_ratio() for m in ms] for ms in messages]
    else:
        ratios = [[(0, 1)] * len(ms) for ms in messages]
    e2 = max([e] + [den.bit_length() - 1 for rs in ratios for _, den in rs])
    for ms, rs in zip(messages, ratios):
        ms[:] = [num << (e2 - den.bit_length() + 1) for num, den in rs]
    up = e2 - e
    ci = [[((x >> k) + (x & mask)) << up for x in row] for row in exact.cx]
    b = {u: [0 if x is None else ((x >> k) + (x & mask)) << up
             for x in compiled.op_x[u]] for u in nodes}
    for j, u, mj, mu in edges:
        b[j] = list(map(add, b[j], mj))
        b[u] = list(map(add, b[u], mu))
    rest = [0] * (len(nodes) + 1)
    for p in reversed(range(len(nodes))):
        u = nodes[p]
        low = min([b[u][s] for s in cands[u]])
        for j, mj, mu in into[u]:
            low += min([ci[r][s] - mj[r] - mu[s] for r in cands[j] for s in cands[u]])
        rest[p] = low + rest[p + 1]

    best_row = first[:]
    best = 0  # the decoded row's total, the cap until a leaf leads
    for u in nodes:
        ins = [(best_row[j], mj, mu) for j, mj, mu in into[u]]
        terms = [b[u][s] + sum([ci[r][s] - mj[r] - mu[s] for r, mj, mu in ins])
                 for s in cands[u]]
        least = min(terms)
        best_row[u] = cands[u][terms.index(least)]
        best += least

    row = first[:]
    led = False
    stack = [(0, s, 0) for s in reversed(cands[nodes[0]])] if nodes else []
    while stack:
        p, s, g = stack.pop()
        u = nodes[p]
        row[u] = s
        g += b[u][s]
        for j, mj, mu in into[u]:
            r = row[j]
            g += ci[r][s] - mj[r] - mu[s]
        p += 1
        # A tie loses to a leader, which comes first, but not to the cap.
        low = g + rest[p]
        if low > best or led and low == best:
            continue
        if p == len(nodes):
            best, best_row, led = g, row[:], True
            continue
        stack.extend((p, t, g) for t in reversed(cands[nodes[p]]))
    return compiled.sums(best_row), best_row


# --- meta-selector -----------------------------------------------------------


def candidates(
    compiled: Compiled, limits: SolverLimits
) -> dict[str, tuple[tuple[int, int], list[int], dict]]:
    """Every heuristic's result on ``compiled`` as label -> ``(sums, scheme
    indices, OptimizeResult keyword arguments)``, in tie-break order: a
    ``fixed:<scheme>`` run for each scheme that supports every operation
    in the circuit, ``bottom-up``, ``top-down`` and ``hill-climbing`` from
    :func:`default_scheme`.

    ``sums`` are each row's exact
    :meth:`~mpcost.cost_model.Compiled.sums`, and each distinct row is
    folded once: a fixed row by
    :meth:`~mpcost.cost_model.Compiled.uniform_sums`, any other row only
    when no earlier candidate holds it (:func:`row_sums`).
    """
    _, fixed, start = compiled.profile._uniform(compiled.circuit.ops_present())
    n = len(compiled.circuit.nodes)
    scored = {}
    # Universal schemes support every node's op, so no per-node check.
    for label, s in fixed:
        scored[label] = (compiled.uniform_sums(s), [s] * n, {})
    for label, (idx, extra) in (
        ("bottom-up", (bottom_up_pass(compiled), {})),
        ("top-down", (top_down_pass(compiled), {})),
        ("hill-climbing", hill_pass(compiled, start, limits)),
    ):
        scored[label] = (row_sums(compiled, idx, scored), idx, extra)
    return scored


def row_sums(
    compiled: Compiled, idx: list[int], scored: dict
) -> tuple[int, int]:
    """:meth:`~mpcost.cost_model.Compiled.sums` of ``idx``: those of the
    first candidate in ``scored`` (as :func:`candidates` returns them)
    whose row equals ``idx``, else one fold."""
    for sums, row, _ in scored.values():
        if row == idx:
            return sums
    return compiled.sums(idx)


def best_of(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Run every heuristic and keep the cheapest result.

    The candidates are those of :func:`candidates`, on one compiled form.
    The first candidate with the least exact total wins, and its result
    (including its ``heuristic`` label) is what that strategy's own
    function returns. Its report reuses the winner's sums, so no row is
    summed twice, and builds per-node records only when they are read.
    ``exhaustive_optimal`` is not a candidate.
    """
    compiled = Compiled(circuit, profile)
    scored = candidates(compiled, limits or _DEFAULT_LIMITS)
    label = None
    for key, (sums, _, _) in scored.items():  # the first least total
        total = sums[0] + sums[1]
        if label is None or total < best:
            label, best = key, total
    sums, idx, extra = scored[label]
    return _result(compiled, idx, label, sums, **extra)
