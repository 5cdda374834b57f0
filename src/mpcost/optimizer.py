"""Scheme-assignment strategies.

Four heuristics (fixed scheme, bottom-up, top-down, hill climbing), a
meta-selector that keeps the cheapest of their results, and an exact
solver (a depth-first search bounded by the LP dual) that serves as the
correctness oracle on small circuits.

Every strategy works on scheme indices over a
:class:`mpcost.cost_model.Compiled` form of the circuit and profile, in
plain Python, and scores assignments with its one fold,
:meth:`~mpcost.cost_model.Compiled.sums`.

From its pass to its result, a strategy's outcome is one flat run,
``(label, sums, row, iterations, limit_exceeded)`` (see
:func:`candidates`), and ``_result(compiled, *run)`` reports it.

Determinism: every strategy breaks ties the same way, schemes in the
profile's declaration order first, then ascending node id. Totals are
exact sums of ints, so totals from different strategies (including the
exact solver) compare without tolerance, and a report's float total is
the one nearest the exact sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice
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
    s = profile._index_of(scheme)
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


def _result(compiled: Compiled, label: str, sums, row: list[int],
            iterations: int = 1, limit_exceeded: bool = False) -> OptimizeResult:
    """The result of a run, as ``_result(compiled, *run)``. ``sums`` is as
    in :meth:`~mpcost.cost_model.Compiled.report`: ``None`` folds ``row``
    once, for the totals alone."""
    return OptimizeResult(compiled.assignment(row), compiled.report(row, sums),
                          label, iterations, limit_exceeded)


# Each public strategy compiles, runs its pass (scheme indices over a
# given ``Compiled``) and reports its run. ``mpcost compare`` reads every
# run of ``candidates`` and adds ``exact_pass``'s on the same form.


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
    return _result(compiled, f"fixed:{scheme}", compiled.uniform_sums(s),
                   [s] * len(circuit.nodes))


def bottom_up(circuit: Circuit, profile: CostProfile) -> OptimizeResult:
    """Greedy pass in topological order.

    Each priced node (and each ``out`` node) picks the supported scheme
    minimizing its own operation cost plus the conversions from inputs
    that already have a scheme. ``in`` nodes are free and unconstrained,
    so they are left open and adopt the scheme of the first consumer that
    gets processed, which makes that edge conversion-free.

    Ties go to the first least scheme. A node scores only its choices
    (``Compiled.choices``): its supported schemes less those that another
    beats whatever schemes its neighbours take, which could not be the
    first least. A node left with one choice takes it unscored. A scheme
    whose op cost alone is not below the least score so far is not
    scored further: prices are non-negative, and a rounded add of a
    non-negative addend never lowers a sum, so its full score could not
    be below either. The first choice is the start (it wins when every
    score is ``inf``, and then no scheme was dropped), so the pass gives
    what scoring every supported scheme in full gives.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, "bottom-up", None, bottom_up_pass(compiled))


def bottom_up_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`bottom_up`."""
    ct = compiled.ct
    inf = math.inf
    n = len(compiled.inputs)
    idx: list = [None] * n
    # Node order is topological, and only in nodes have no inputs: the
    # walk starts past the leading ones, which stay open.
    for i, row, choices, ins in islice(zip(
        range(n), compiled.op_t, compiled.choices, compiled.inputs
    ), compiled.circuit._first_fed, None):
        if not ins:
            continue
        best_scheme = choices[0]
        if len(choices) > 1:
            best_cost = inf
            for s in choices:
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

    Ties, choices and pruning are as in :func:`bottom_up`: a node scores
    only its choices, takes a lone one unscored, and a scheme whose op
    cost is not below the least score so far goes unscored.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, "top-down", None, top_down_pass(compiled))


def top_down_pass(compiled: Compiled) -> list[int]:
    """Scheme indices of :func:`top_down`."""
    circuit = compiled.circuit
    ct = compiled.ct
    inf = math.inf
    out = OpKind.OUT  # a local: reading an enum member costs about 0.2 us
    n = len(circuit.nodes)
    idx: list = [None] * n
    for i, op, row, choices, consumers in zip(
        reversed(range(n)), reversed(circuit.node_ops), reversed(compiled.op_t),
        reversed(compiled.choices), reversed(compiled.consumers),
    ):
        if op is out:
            continue
        best_scheme = choices[0]
        if len(choices) > 1:
            best_cost = inf
            for s in choices:
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
    so it would not move. The first sweep skips every ``in`` node: its
    consumers come later in id order and are still on ``init``, so its
    own score is 0.0 and no scheme is strictly cheaper. A visit scores
    only the node's choices, as in :func:`bottom_up`: some choice is
    always strictly cheaper than a dropped scheme, so a dropped scheme
    is never the first least, and a node on one (as ``init`` may be)
    always moves. So a node left with one choice moves to it on its
    first visit if it is not there, unscored, and never moves again: a
    later visit, when a neighbour moves, takes the same choice.
    Any other visit scores the node's own scheme first, in full, then
    the other choices in ascending order, and drops one as soon as its
    op cost, or its op cost plus its input conversions, reaches the best
    score so far: every addend is non-negative and a rounded add of a
    non-negative addend never lowers a sum, so a partial score is at
    most the full one, and that scheme could not be strictly cheaper.
    The result is the one a sweep that scores every supported scheme of
    every node in full gives.
    """
    compiled = Compiled(circuit, profile)
    s = _require_support(compiled, init_scheme)
    return _result(compiled, "hill-climbing", None,
                   *hill_pass(compiled, s, limits or _DEFAULT_LIMITS))


def hill_pass(
    compiled: Compiled, init: int, limits: SolverLimits
) -> tuple[list[int], int, bool]:
    """``(row, iterations, limit_exceeded)``, the last three fields of
    :func:`hill_climbing`'s run from every node on scheme ``init``."""
    n = len(compiled.circuit.nodes)
    max_passes = limits.max_passes
    if max_passes is None:
        max_passes = max(1, n * len(compiled.profile.schemes))

    idx = [init] * n
    ct = compiled.ct
    op_t, choices = compiled.op_t, compiled.choices
    inputs, consumers = compiled.inputs, compiled.consumers
    # A node's score reads only its own, its inputs' and its consumers'
    # schemes. A node none of these moved for since its last visit is at
    # the same first minimum and would not move, so it is skipped. An in
    # node, the one kind without inputs, would not move in the first
    # sweep (see the docstring). A sweep finds each next stale node with
    # list.index, a scan in C, and the True at n ends it.
    stale = [*map(bool, inputs), True]
    sweeps = 0
    limit_exceeded = False
    while True:
        sweeps += 1
        changed = False
        i = stale.index(True)
        while i < n:
            stale[i] = False
            current = idx[i]
            node_choices, ins, cons = choices[i], inputs[i], consumers[i]
            if len(node_choices) == 1:
                best_scheme = node_choices[0]
            else:
                # The node keeps its own scheme unless another is strictly
                # cheaper, else the first least one wins. So its own score
                # is the bound, and a scheme whose partial score reaches
                # it goes.
                row = op_t[i]
                best_scheme = current
                best_cost = row[current]
                for j in ins:
                    best_cost += ct[idx[j]][current]
                conv = ct[current]
                for c in cons:
                    best_cost += conv[idx[c]]
                for s in node_choices:
                    cost = row[s]
                    if cost >= best_cost or s == current:
                        continue
                    for j in ins:
                        cost += ct[idx[j]][s]
                    if cost >= best_cost:
                        continue
                    conv = ct[s]
                    for c in cons:
                        cost += conv[idx[c]]
                    if cost < best_cost:
                        best_cost = cost
                        best_scheme = s
            if best_scheme != current:
                idx[i] = best_scheme
                changed = True
                for j in ins:
                    stale[j] = True
                for c in cons:
                    stale[c] = True
            i = stale.index(True, i + 1)
        if not changed:
            break
        if sweeps >= max_passes:
            limit_exceeded = True
            break
    return idx, sweeps, limit_exceeded


# --- exact solver ------------------------------------------------------------

#: Most sweeps of the exact solver's dual ascent.
_DUAL_SWEEPS = 8

#: Bits below the cent unit ``2**-e`` in the exact solver's terms. A
#: message update halves with ``>> 1``, which rounds down and so loosens
#: the dual bound; these bits keep that loss far below any price step.
#: Without them the search popped more (89,350 against 88,272 over 20
#: seeded random(40) circuits under the 8 bundled profiles).
_GUARD = 64


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
    :class:`SearchSpaceTooLarge`. The report reuses the pass's sums.
    """
    compiled = Compiled(circuit, profile)
    return _result(compiled, "exhaustive",
                   *exact_pass(compiled, limits or _DEFAULT_LIMITS))


def exact_pass(
    compiled: Compiled, limits: SolverLimits
) -> tuple[tuple[int, int], list[int]]:
    """The :meth:`~mpcost.cost_model.Compiled.sums` and scheme indices of
    :func:`exhaustive_optimal`'s row, whose docstring states the contract.

    Method. The cost is pairwise: a unary term per node (its op price)
    and a conversion price per edge; a node no term touches (an ``in``
    node nobody reads) keeps its first candidate. Every term is an int in
    units of ``2**-(e + _GUARD)`` cents: the exact prices
    (:class:`~mpcost.cost_model._Exact`), compute plus network, shifted up
    by ``_GUARD`` bits. An ascent on the LP dual (EMPLP: Globerson and
    Jaakkola, NIPS 2007), on those ints, keeps an int message per edge
    end. Per edge ``(j, u)`` a sweep sets ``m_j(r) = (min_s [c_e(r, s) +
    w_u(s)] - w_j(r)) >> 1`` and ``m_u`` alike, where ``w_v`` is the
    belief ``b_v`` (the unary term plus the messages into ``v``) less the
    edge's own message; the beliefs are kept exact as the messages
    change. It stops when the dual bound ``sum_v min b_v`` stops rising,
    or after ``_DUAL_SWEEPS`` sweeps.

    The search is exact. Any messages leave each row's cost at ``sum_v
    b_v + sum_e t_e``, with ``t_e(r, s) = c_e(r, s) - m_j(r) - m_u(s)``,
    and all of these are exact ints. The decoded row (in id order, each
    node's least ``b_u`` plus ``t_e`` over its in-edges) costs ``cap``,
    the sum of its terms. A depth-first search sets the nodes in id order,
    schemes ascending, so rows come in lexicographic order; each stack
    entry carries ``g``, the sum of its path's node terms, which at a
    leaf is the row's exact total. Each node past the path's end adds at
    least ``l_u = min b_u + sum_e min t_e`` over its in-edges, so ``g +
    sum_u l_u`` bounds every row below. Order breaks ties: ``best`` starts
    at ``cap + 1`` and then holds the leader's total, and a leaf leads
    only by costing less than ``best``. Totals are ints, so the first
    leaf costing ``cap`` or less leads, a later one replaces it only by
    costing strictly less, and a child goes when its bound reaches
    ``best``.
    """
    inputs, cands = compiled.inputs, compiled.cands
    space = math.prod(len(cands[i]) for i in compiled.circuit.op_node_ids)
    if space > limits.max_space:
        raise SearchSpaceTooLarge(space, limits.max_space)

    exact = compiled.profile._exact

    def term(x):  # a packed price as one int term (0 where unsupported)
        return 0 if x is None else sum(exact.parts(x)) << _GUARD

    ci = [list(map(term, row)) for row in exact.cx]
    unary = {op: list(map(term, row)) for op, row in exact.op_x.items()}
    n = len(cands)
    first = [c[0] for c in cands]
    nodes = [u for u in range(n) if inputs[u] or compiled.consumers[u]]
    # Per node, its in-edges, each with a message to either end.
    into = [[(j, [0] * len(ci), [0] * len(ci)) for j in ins] if ins else ()
            for ins in inputs]
    edges = [(j, u, mj, mu) for u in nodes for j, mj, mu in into[u]]
    tables = {}  # per pair of ``cands``, ``ci`` over it by rows and by columns
    for rs, ss in {(cands[j], cands[u]) for j, u, _, _ in edges}:
        tables[rs, ss] = ([[ci[r][s] for s in ss] for r in rs],
                          [[ci[r][s] for r in rs] for s in ss])

    ops = compiled.circuit.node_ops
    b = {u: unary[ops[u]][:] for u in nodes}  # the beliefs, kept up to date
    last = None
    for _ in range(_DUAL_SWEEPS):
        for j, u, mj, mu in edges:
            bj, bu, rs, ss = b[j], b[u], cands[j], cands[u]
            by_row, by_col = tables[rs, ss]
            wj = [bj[r] - mj[r] for r in rs]
            wu = [bu[s] - mu[s] for s in ss]
            for r, w, conv in zip(rs, wj, by_row):
                mj[r] = m = (min(map(add, conv, wu)) - w) >> 1
                bj[r] = w + m
            for s, w, conv in zip(ss, wu, by_col):
                mu[s] = m = (min(map(add, conv, wj)) - w) >> 1
                bu[s] = w + m
        bound = sum([min([b[u][s] for s in cands[u]]) for u in nodes])
        if last is not None and bound <= last:
            break
        last = bound

    # Per position in ``nodes``, the sum of ``l_u`` from there on.
    rest = [0] * (len(nodes) + 1)
    for p in reversed(range(len(nodes))):
        u = nodes[p]
        low = min([b[u][s] for s in cands[u]])
        for j, mj, mu in into[u]:
            low += min([ci[r][s] - mj[r] - mu[s] for r in cands[j] for s in cands[u]])
        rest[p] = low + rest[p + 1]

    row = first[:]
    best = 1  # one more than the decoded row's total, until a leaf leads
    for u in nodes:
        ins = [(row[j], mj, mu) for j, mj, mu in into[u]]
        terms = [b[u][s] + sum([ci[r][s] - mj[r] - mu[s] for r, mj, mu in ins])
                 for s in cands[u]]
        least = min(terms)
        row[u] = cands[u][terms.index(least)]
        best += least
    best_row = row[:]

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
        if g + rest[p] >= best:
            continue
        if p == len(nodes):
            best, best_row = g, row[:]
            continue
        stack.extend((p, t, g) for t in reversed(cands[nodes[p]]))
    return compiled.sums(best_row), best_row


# --- meta-selector -----------------------------------------------------------


def candidates(
    compiled: Compiled, limits: SolverLimits
) -> Iterator[tuple[str, tuple[int, int], list[int], int, bool]]:
    """Every heuristic's run on ``compiled``, in tie-break order: a
    ``fixed:<scheme>`` run for each scheme that supports every operation
    in the circuit, ``bottom-up``, ``top-down`` and ``hill-climbing``
    from :func:`default_scheme`. A run is the flat record ``(label, sums,
    row, iterations, limit_exceeded)``: the row's exact
    :meth:`~mpcost.cost_model.Compiled.sums`, its scheme indices, and
    hill climbing's sweeps and cut-off (``1, False`` for the others).
    ``_result(compiled, *run)`` is what that strategy's function returns.

    It is a generator, and a pass runs only when its run is asked for:
    :func:`best_of` stops reading once no later run can win, and
    ``mpcost compare`` reads every run. Each distinct row is folded once,
    a fixed row by :meth:`~mpcost.cost_model.Compiled.uniform_sums`; any
    other takes the sums of the first earlier run with an equal row.
    """
    _, fixed, start = compiled.profile._uniform(compiled.circuit.ops_present())
    n = len(compiled.circuit.nodes)
    runs = []
    # Universal schemes support every node's op, so no per-node check.
    for label, s in fixed:
        runs.append((label, compiled.uniform_sums(s), [s] * n, 1, False))
        yield runs[-1]
    for label in ("bottom-up", "top-down", "hill-climbing"):
        if label == "hill-climbing":
            row, iterations, limit_exceeded = hill_pass(compiled, start, limits)
        else:
            run_pass = bottom_up_pass if label == "bottom-up" else top_down_pass
            row, iterations, limit_exceeded = run_pass(compiled), 1, False
        # A plain loop: a generator expression here slowed best_of by 2-3%.
        for run in runs:
            if run[2] == row:
                sums = run[1]
                break
        else:
            sums = compiled.sums(row)
        runs.append((label, sums, row, iterations, limit_exceeded))
        yield runs[-1]


def best_of(
    circuit: Circuit,
    profile: CostProfile,
    limits: SolverLimits | None = None,
) -> OptimizeResult:
    """Run the heuristics and keep the cheapest result.

    The candidates are the runs of :func:`candidates`, on one compiled
    form. The first run with the least exact total wins, and its
    ``_result(compiled, *run)``, ``heuristic`` label included, is what
    that strategy's own function returns; its report reuses the run's
    sums, so no row is summed twice. ``exhaustive_optimal`` is not one.

    The run stops as soon as the leader's exact total equals the floor,
    the sum of each node's least op price (``least`` of
    :class:`~mpcost.cost_model._Exact`). No row costs less, as no
    conversion is negative, and a later candidate that ties loses to the
    leader. So the passes left unrun could not change the result: its
    row, label, sums, ``iterations``, ``limit_exceeded`` and report are
    those that running every pass gives.
    """
    compiled = Compiled(circuit, profile)
    least = profile._exact.least
    floor = 0
    for op, count in circuit.op_counts:
        floor += count * least[op]
    winner = None
    for run in candidates(compiled, limits or _DEFAULT_LIMITS):
        tc, tn = run[1]
        if winner is None or tc + tn < best:
            winner, best = run, tc + tn
            if best == floor:
                break
    return _result(compiled, *winner)
