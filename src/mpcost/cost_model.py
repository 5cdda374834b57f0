"""Monetary cost model for scheme-assigned circuits.

A :class:`CostProfile` prices every (operation, scheme) pair and every
ordered scheme conversion for one deployment (VM model and placement).
Profile files keep the raw benchmark numbers together with a ``scale``
factor; everything this module reports is in cents (stored value times
scale), so profiles with different scales compare directly.

The cost of a node is the price of running its operation under its
assigned scheme plus, for each input edge, the price of converting the
input's value from the producer's scheme into the consumer's. Converting
a scheme to itself is free. ``in`` and ``out`` nodes run under any
scheme at zero operation cost; they still pay (or cause) conversions
like any other node.

Strategies price many assignments of one circuit, so they first compile
the circuit and the profile into a :class:`Compiled` form: per node, rows
indexed by scheme position, and conversion matrices. A profile's prices
are read once, into one exact form that holds every cent price as an int
over one power of two per profile, so a sum of prices is exact and its
order does not matter. The float rows (``op_t``, ``ct``) that steer the
greedy passes and hill climbing are read off it. :meth:`Compiled.sums`
adds the ints, and every total and report comes from it: every
strategy, the exact solver included, is ranked by its exact sums, and a
report rounds each total once, to the float nearest the exact sum. A
:class:`CostReport` builds its per-node records only when they are read.

Deriving a profile from raw measurements lives in :mod:`mpcost.derive`.

All cost functions are pure and profiles are immutable, so everything
here is safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import islice

from .circuit import (
    COMPUTE_OPS,
    Circuit,
    OpKind,
    _is_int,
    _Value,
    op_from_name,
    parse_json,
    parse_node_id,
)
from .errors import (
    InfeasibleAssignment,
    MissingConversion,
    NegativeCost,
    NoUniversalScheme,
    ParseError,
)

#: The scheme identifiers used by the bundled profiles. Profiles may
#: declare any scheme set; the declaration order is the canonical order
#: used for every deterministic tie-break.
ARITHMETIC = "arithmetic"
BOOLEAN = "boolean"
YAO = "yao"

#: Assignment: node id -> scheme identifier.
Assignment = dict[int, str]


#: Most consumer edges of a node shape whose choices
#: :meth:`CostProfile._choices` works out and keeps; a shape of more
#: keeps every supported scheme. Every node of the bundled case studies
#: has at most 30.
_CHOICE_FANOUT = 32


class _Uniform(namedtuple("_Uniform", "universal fixed start")):
    """What a profile's schemes give a circuit that uses a given priced op
    set: its ``universal`` schemes (:meth:`CostProfile.universal_schemes`),
    the ``fixed`` candidates, a ``("fixed:<scheme>", index)`` pair per
    universal scheme, and ``start``, the index of the default scheme:
    ``"yao"`` when it is universal, otherwise the first universal one."""

    __slots__ = ()


class _Exact(namedtuple("_Exact", "e k op_x cx unit mask step least")):
    """A profile's cent prices as exact ints: each is ``price * 2**e``,
    with ``e`` the least exponent that makes every one an integer.

    A price's compute and network parts are packed into one int,
    ``compute << k | network``, so adding packed prices adds both parts
    at once. ``k`` is the widest part's bit length plus 64, so a sum of
    fewer than ``2**64`` packed prices keeps its network part below bit
    ``k``. ``op_x`` maps each op kind to its packed price per scheme
    (``None`` where the scheme does not support it, ``0`` for ``in`` and
    ``out``), and ``cx`` is the packed conversion matrix ``[src][dst]``.
    ``unit`` is ``2**e``, ``mask`` is ``2**k - 1`` and ``step`` is the
    float ``2.0**-e`` where that is normal (``e <= 1022``), else 0.

    ``least`` maps each op kind to its least unpacked price (compute plus
    network) over the schemes that support it, ``0`` for ``in`` and
    ``out``. Every row pays at least that per node and no conversion is
    negative, so the sum of ``count * least[op]`` over a circuit's
    :attr:`~mpcost.circuit.Circuit.op_counts` bounds every row's exact
    total from below.
    """

    __slots__ = ()

    def parts(self, x: int) -> tuple[int, int]:
        """The compute and network parts of a packed sum ``x``."""
        return x >> self.k, x & self.mask

    def cents(self, x: int) -> float:
        """``x / 2**e``, correctly rounded; ``inf`` above the float range.
        While ``step`` is nonzero, ``float(x) * step`` gives it faster than
        int true division: ``float`` of an int rounds correctly, and
        scaling by a normal ``step`` is exact, as the result is normal too.
        """
        if self.step:
            try:
                return float(x) * self.step
            except OverflowError:
                pass
        try:
            return x / self.unit
        except OverflowError:
            return math.inf


def _exact_cents(price, scale: float) -> tuple[int, int]:
    """``(numerator, power-of-two denominator)`` of the cent value of a
    stored ``price``: ``float(price) * scale`` where that is finite, else
    the exact product, an integer as it lies above the float range."""
    cents = float(price) * scale
    if math.isfinite(cents):
        return cents.as_integer_ratio()
    (a, b), (c, d) = float(price).as_integer_ratio(), scale.as_integer_ratio()
    return a * c // (b * d), 1


class CostProfile(_Value):
    """Unit costs for one deployment scenario.

    ``schemes`` is a tuple of names. The dict ``op_costs`` maps the
    tuple ``(op, scheme)`` to the tuple ``(compute, network)`` in stored
    units; an absent pair means the scheme does not support the op.
    ``conversions`` maps every ordered pair of distinct schemes to its
    ``(compute, network)`` conversion price. ``scale`` converts stored
    units to cents.

    The exact cent prices (:attr:`_exact`) and the float tables read off
    them (:attr:`_tables`) are built once, by the constructor's check for
    a universal scheme, and shared: every :class:`Compiled` under the
    profile holds the same row lists, tuples and matrices, so they are
    read-only.

    The profile also keeps :attr:`scheme_index` and, per priced op set a
    circuit uses, the facts every strategy call on such a circuit needs
    (:meth:`_uniform`): its universal schemes, the fixed candidates and
    the default scheme. That memo is keyed by an ordered subset of
    :data:`~mpcost.circuit.COMPUTE_OPS`, so it holds at most ``2**8``
    entries. A second memo keeps, per node shape ``(op, n_in, n_cons)``,
    the schemes a heuristic pass scores at such a node (:meth:`_choices`).
    It keys only shapes of at most ``_CHOICE_FANOUT`` consumer edges, and
    ``n_in`` is the op's arity, so it holds at most ``10 * 33`` entries.
    Sharing is safe: an entry depends only on the prices, which
    never change, so a write is idempotent (two threads that fill one
    key at once store equal values), and none of these caches enters
    equality, hash or ``repr``.
    """

    name: str
    scale: float
    schemes: tuple[str, ...]
    op_costs: dict[tuple[OpKind, str], tuple[float, float]]
    conversions: dict[tuple[str, str], tuple[float, float]]
    _compared = ("name", "scale", "schemes", "op_costs", "conversions")

    def __init__(self, name, scale, schemes, op_costs, conversions):
        self._store(name=name, scale=scale, schemes=schemes, op_costs=op_costs,
                    conversions=conversions)
        if not isinstance(self.name, str):
            raise ParseError("profile name must be a string")
        # A list of schemes could change once checked, leaving
        # scheme_index stale.
        for field, kind in (("schemes", tuple), ("op_costs", dict),
                            ("conversions", dict)):
            if not isinstance(getattr(self, field), kind):
                raise ParseError(
                    f"profile {self.name!r}: {field} must be a {kind.__name__}")
        if not self.schemes:
            raise NoUniversalScheme(f"profile {self.name!r} declares no schemes")
        for s in self.schemes:
            if not isinstance(s, str) or "->" in s:
                raise ParseError(
                    f"profile {self.name!r}: scheme {s!r} must be a string "
                    f"without '->'"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ParseError(f"profile {self.name!r} has duplicate scheme names")
        _check_scale(self.name, self.scale)
        known = set(self.schemes)
        for key, price in self.op_costs.items():
            op, scheme = _check_pair(self.name, "op_costs key", key)
            if op not in COMPUTE_OPS:
                raise ParseError(
                    f"profile {self.name!r}: op {op} cannot carry a cost entry"
                )
            if scheme not in known:
                raise ParseError(
                    f"profile {self.name!r}: cost entry for undeclared "
                    f"scheme {scheme!r}"
                )
            _check_price(self.name, f"cost for ({op}, {scheme})", price)
        for key, price in self.conversions.items():
            src, dst = _check_pair(self.name, "conversions key", key)
            if src not in known or dst not in known:
                raise ParseError(
                    f"profile {self.name!r}: conversion {src}->{dst} uses an "
                    f"undeclared scheme"
                )
            if src == dst:
                raise ParseError(
                    f"profile {self.name!r}: self-conversion {src}->{dst} is "
                    f"implicit (zero) and must not be listed"
                )
            _check_price(self.name, f"conversion cost {src}->{dst}", price)
        for src in self.schemes:
            for dst in self.schemes:
                if src != dst and (src, dst) not in self.conversions:
                    raise MissingConversion(
                        f"profile {self.name!r}: no conversion {src}->{dst}"
                    )
        if not self.universal_schemes():
            raise NoUniversalScheme(
                f"profile {self.name!r}: no scheme supports every operation"
            )

    # -- support --------------------------------------------------------

    def supports(self, op: OpKind, scheme: str) -> bool:
        """``scheme`` is declared and prices ``op``; ``in`` and ``out`` take
        every scheme."""
        return self._index_of(scheme) in self._tables[1].get(op, ())

    def _index_of(self, scheme) -> int | None:
        """The index of ``scheme``, or ``None`` if it is not declared:
        every declared name is a ``str``, so no value of another type,
        hashable or not, is one."""
        return self.scheme_index.get(scheme) if isinstance(scheme, str) else None

    def schemes_for(self, op: OpKind) -> tuple[str, ...]:
        """Schemes supporting ``op``, in canonical (declaration) order."""
        return tuple([self.schemes[i] for i in self._tables[1].get(op, ())])

    def universal_schemes(
        self, ops: Iterable[OpKind] = COMPUTE_OPS
    ) -> tuple[str, ...]:
        """Schemes that support every op in ``ops`` (default: all priced
        ops), in declaration order: the intersection of the ops' candidate
        indices in :attr:`_tables`. A value that is not an
        :class:`~mpcost.circuit.OpKind` has no candidates."""
        cands = self._tables[1]
        keep = set(range(len(self.schemes))).intersection(
            *[cands.get(op, ()) for op in ops])
        return tuple([self.schemes[i] for i in sorted(keep)])

    def _uniform(self, ops: tuple[OpKind, ...]) -> _Uniform:
        """The :class:`_Uniform` facts of a circuit whose
        :meth:`~mpcost.circuit.Circuit.ops_present` is ``ops``, kept per
        ``ops`` (see the class docstring)."""
        found = self._uniform_memo.get(ops)
        if found is None:
            universal = self.universal_schemes(ops)
            index = self.scheme_index
            fixed = tuple([(f"fixed:{name}", index[name]) for name in universal])
            start = index[YAO if YAO in universal else universal[0]]
            found = self._uniform_memo[ops] = _Uniform(universal, fixed, start)
        return found

    @cached_property
    def _uniform_memo(self) -> dict:
        return {}

    def _choices(self, shape: tuple[OpKind, int, int]) -> tuple[int, ...]:
        """The choices at a node of ``shape``, ``(op, n_in, n_cons)``: the
        indices of the schemes supporting ``op``, less each scheme ``t``
        that another beats whatever schemes the node's neighbours take,
        kept per shape (see the class docstring). ``n_in`` and ``n_cons``
        count the node's input and consumer edges.

        Let ``U(s)`` be ``s``'s op price, plus its dearest conversion in
        added ``n_in`` times, plus its dearest conversion out added
        ``n_cons`` times, added left to right in floats. ``t`` goes when
        some ``U(s)`` is below ``t``'s op price. That is exact for the
        greedy passes and hill climbing. Round-to-nearest addition is
        monotone and no price is negative, so each score a pass computes
        for ``s``, full or partial, is at most ``U(s)``, and each score
        of ``t`` is at least its op price. So ``t`` is never the first
        least scheme nor a strict improvement, and the first least of the
        rest is the first least of all. An ``in`` or ``out`` node (op
        price 0) keeps every scheme, and so does an overflowing ``U``.

        The result is the ``cands`` tuple of :attr:`_tables` itself when
        nothing goes. A shape of more than ``_CHOICE_FANOUT`` consumer
        edges keeps its ``cands``, unstored, which bounds the memo.
        """
        found = self._choices_memo.get(shape)
        if found is None:
            op, n_in, n_cons = shape
            op_t, cands, ct = self._tables
            found = cands[op]
            if n_cons > _CHOICE_FANOUT:
                return found
            row = op_t[op]
            least = math.inf
            for s in found:
                u = row[s]
                dearest = max([conv[s] for conv in ct])
                for _ in range(n_in):
                    u += dearest
                dearest = max(ct[s])
                for _ in range(n_cons):
                    u += dearest
                least = min(least, u)
            kept = tuple([t for t in found if row[t] <= least])
            if len(kept) < len(found):
                found = kept
            self._choices_memo[shape] = found
        return found

    @cached_property
    def _choices_memo(self) -> dict:
        return {}

    @cached_property
    def scheme_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.schemes)}

    # -- cent-denominated lookup tables ----------------------------------

    @cached_property
    def _tables(self) -> tuple[dict, dict, list]:
        """The float cent tables ``(op_t, cands, ct)``, read off
        :attr:`_exact`: per op kind, its summed cost under each scheme
        (``inf`` where the scheme does not support it) and the ascending
        indices of the schemes that do; and the conversion matrix
        ``[src][dst]`` of summed cost. A sum is the float sum of its two
        parts' :meth:`_Exact.cents`, so it is ``float(p) * scale +
        float(n) * scale``, ``inf`` where that overflows.
        """
        exact = self._exact
        parts, cents = exact.parts, exact.cents

        def summed(x):
            if x is None:
                return math.inf
            p, n = parts(x)
            return cents(p) + cents(n)

        op_t = {op: list(map(summed, row)) for op, row in exact.op_x.items()}
        cands = {op: tuple([j for j, x in enumerate(row) if x is not None])
                 for op, row in exact.op_x.items()}
        return op_t, cands, [list(map(summed, row)) for row in exact.cx]

    @cached_property
    def _exact(self) -> _Exact:
        """The profile's cent prices as the ints of :class:`_Exact` (see
        :func:`_exact_cents` for a price whose float overflows): the one
        form in which the profile's prices are read."""
        ns = len(self.schemes)
        scale = float(self.scale)
        index = self.scheme_index
        ops = {key: [_exact_cents(x, scale) for x in price]
               for key, price in self.op_costs.items()}
        convs = {key: [_exact_cents(x, scale) for x in price]
                 for key, price in self.conversions.items()}
        both = (ops, convs)
        e = max([den.bit_length() - 1 for prices in both
                 for price in prices.values() for _, den in price], default=0)
        for prices in both:
            for key, price in prices.items():
                prices[key] = [num << (e - den.bit_length() + 1)
                               for num, den in price]
        k = 64 + max([x.bit_length() for prices in both
                      for price in prices.values() for x in price], default=0)
        op_x = {op: [0 if op in (OpKind.IN, OpKind.OUT) else None] * ns
                for op in OpKind}
        for (op, scheme), (p, n) in ops.items():
            op_x[op][index[scheme]] = p << k | n
        cx = [[0] * ns for _ in range(ns)]
        for (src, dst), (p, n) in convs.items():
            cx[index[src]][index[dst]] = p << k | n
        mask = (1 << k) - 1
        # An op no scheme supports fails the constructor's universal check.
        least = {op: min([(x >> k) + (x & mask) for x in row if x is not None],
                         default=0)
                 for op, row in op_x.items()}
        return _Exact(e, k, op_x, cx, 1 << e, mask,
                      2.0 ** -e if e <= 1022 else 0.0, least)

    def op_cost_cents(self, op: OpKind, scheme: str) -> tuple[float, float]:
        """(compute, network) cents for running ``op`` under ``scheme``."""
        if not self.supports(op, scheme):
            raise InfeasibleAssignment(
                f"scheme {scheme!r} does not support op {op} "
                f"in profile {self.name!r}"
            )
        exact = self._exact
        x = exact.op_x[op][self.scheme_index[scheme]]
        return tuple(map(exact.cents, exact.parts(x)))

    def conv_cost_cents(self, src: str, dst: str) -> tuple[float, float]:
        """(compute, network) cents for re-sharing a value from ``src`` to
        ``dst``. Zero when the schemes coincide."""
        i, j = self._index_of(src), self._index_of(dst)
        if i is None or j is None:
            raise InfeasibleAssignment(
                f"scheme {(src if i is None else dst)!r} is not declared by "
                f"profile {self.name!r}"
            )
        exact = self._exact
        return tuple(map(exact.cents, exact.parts(exact.cx[i][j])))


def _is_finite(x) -> bool:
    """``x`` is a JSON number (an int that is not a bool, or a float) that
    converts to a finite float: not NaN, infinite or too large."""
    try:
        return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:
        return False


def _check_scale(name: str, scale) -> None:
    """Raise :class:`ParseError` unless ``scale`` is a positive
    :func:`_is_finite` number."""
    if not _is_finite(scale) or scale <= 0:
        raise ParseError(f"profile {name!r} scale must be positive and finite")


def _check_pair(name: str, what: str, x) -> tuple:
    """``x``; raise :class:`ParseError` naming ``what`` unless it is a
    pair (a ``tuple`` of two)."""
    if not (isinstance(x, tuple) and len(x) == 2):
        raise ParseError(f"profile {name!r}: {what} {x!r} is not a pair")
    return x


def _check_price(name: str, what: str, price) -> None:
    """Raise :class:`ParseError` unless ``price`` is a ``(compute,
    network)`` pair whose halves are :func:`_is_finite`, then
    :class:`NegativeCost` if either is negative."""
    p, n = _check_pair(name, what, price)
    if not (_is_finite(p) and _is_finite(n)):
        raise ParseError(f"profile {name!r}: {what} is not a finite number")
    if p < 0 or n < 0:
        raise NegativeCost(f"profile {name!r}: negative {what}")


# --- per-node and total cost ------------------------------------------------


class NodeCost(namedtuple(
        "NodeCost", "op_compute op_network conv_compute conv_network")):
    """Cost breakdown for one node, in cents (an immutable named tuple of
    four floats, each the float nearest its exact sum)."""

    __slots__ = ()

    @property
    def compute(self) -> float:
        return self.op_compute + self.conv_compute

    @property
    def network(self) -> float:
        return self.op_network + self.conv_network

    @property
    def total(self) -> float:
        return self.compute + self.network


class CostReport(_Value):
    """Total cost of an assigned circuit, in cents, and its per-node
    breakdown. Reports compare by their three totals. Each total, and each
    field of a per-node record, is the float nearest the exact sum of its
    cent prices (``inf`` above the float range), so ``total`` need not
    equal ``total_compute + total_network`` in the last bit.

    ``per_node`` maps each node id to its :class:`NodeCost`. It is built
    on first read, from the report's compiled form and row, and then kept.
    A node's record holds its op price and the sum of its conversions in,
    each part the float nearest its exact sum; nodes whose exact sums are
    equal share one record.
    """

    total_compute: float
    total_network: float
    total: float
    compiled: Compiled
    row: tuple[int, ...]
    _compared = ("total_compute", "total_network", "total")

    def __init__(self, total_compute, total_network, total, compiled, row):
        self._store(total_compute=total_compute, total_network=total_network,
                    total=total, compiled=compiled, row=row)

    @cached_property
    def per_node(self) -> dict[int, NodeCost]:
        compiled, idx = self.compiled, self.row
        cx = compiled.cx
        exact = compiled.profile._exact
        parts, cents = exact.parts, exact.cents
        made = {}  # a record per pair of packed op and conversion sums
        per_node = {}
        for i, (s, row, ins) in enumerate(
                zip(idx, compiled.op_x, compiled.inputs)):
            op = row[s]
            conv = 0
            for j in ins:
                r = idx[j]
                if r != s:
                    conv += cx[r][s]
            record = made.get((op, conv))
            if record is None:
                record = made[op, conv] = NodeCost(
                    *map(cents, parts(op)), *map(cents, parts(conv)))
            per_node[i] = record
        return per_node


class Violation(namedtuple("Violation", "node reason")):
    """One feasibility problem found by :func:`check_feasible` (an
    immutable named tuple): the ``node`` id, or the assignment key that
    is no node id, and the ``reason`` text."""

    __slots__ = ()


class Compiled:
    """A circuit priced under one profile, for work on scheme indices.

    An assignment here is a list holding, per node id, the position of
    its scheme in ``profile.schemes``. Per node, ``op_t`` holds the float
    cent row of its operation's summed cost, ``op_x`` the same prices
    exactly (the packed ints of :class:`_Exact`), and :attr:`cands` the
    indices of the schemes supporting it, ascending. ``ct`` and ``cx``
    are the float and packed conversion matrices ``[src][dst]``.
    ``inputs`` and ``consumers`` give each node's input ids and its
    consumers' ids, one entry per edge.

    :attr:`choices` holds, per node, the schemes the greedy passes and
    hill climbing score there: its ``cands`` less the schemes that can
    never win at a node of its shape (:meth:`CostProfile._choices`), the
    ``cands`` tuple itself where its shape drops none. The exact solver
    and the support checks read ``cands``. Each of the four per-node
    lists is built on first read, so a ``best_of`` call, which runs only
    the passes, builds no ``cands``, one whose fixed row is at the floor
    builds none, and the exact solver builds no ``op_t``.

    The rows, ``cands`` and ``choices`` tuples and matrices are the
    profile's own, built once per profile and shared by every compile
    under it (a compile only indexes them per node or per shape), so
    they are read-only.

    Every total comes from the one fold :meth:`sums`. It adds ints, so
    the same assignment gives the same exact sums however it is
    evaluated, and two totals compare exactly. The float rows serve the
    passes that only steer a search. A fold builds no per-node record;
    :attr:`CostReport.per_node` does, when it is read.
    """

    def __init__(self, circuit: Circuit, profile: CostProfile):
        self.circuit = circuit
        self.profile = profile
        self.ct = profile._tables[2]
        self.cx = profile._exact.cx
        self.inputs = circuit.node_inputs
        self.consumers = circuit.consumer_edges

    @cached_property
    def op_t(self) -> list[list[float]]:
        """Per node, the float cent row of its op."""
        return list(map(self.profile._tables[0].__getitem__,
                        self.circuit.node_ops))

    @cached_property
    def op_x(self) -> list[list[int | None]]:
        """Per node, the packed exact row of its op."""
        return list(map(self.profile._exact.op_x.__getitem__,
                        self.circuit.node_ops))

    @cached_property
    def cands(self) -> list[tuple[int, ...]]:
        """Per node, the profile's ``cands`` tuple of its op."""
        return list(map(self.profile._tables[1].__getitem__,
                        self.circuit.node_ops))

    @cached_property
    def choices(self) -> list[tuple[int, ...]]:
        """Per node, its profile's choices at the node's shape."""
        shapes, at = self.circuit._shapes
        per_shape = list(map(self.profile._choices, shapes))
        return list(map(per_shape.__getitem__, at))

    def indices(self, assignment: Mapping[int, str]) -> list[int]:
        """Scheme indices of a name assignment; raises
        :class:`InfeasibleAssignment` on the first violation
        :func:`check_feasible` finds."""
        for v in check_feasible(self.circuit, assignment, self.profile):
            raise InfeasibleAssignment(f"node {v.node}: {v.reason}")
        index = self.profile.scheme_index
        return [index[assignment[i]] for i in range(len(self.circuit.nodes))]

    def assignment(self, idx: Sequence[int]) -> Assignment:
        names = self.profile.schemes
        return {i: names[s] for i, s in enumerate(idx)}

    def sums(self, idx: Sequence[int]) -> tuple[int, int]:
        """Exact total compute and network cost of ``idx``, as ints in
        units of ``2**-e`` cents (:class:`_Exact`): the one fold every
        total comes from. It adds one packed int per op and per
        converting edge; a same-scheme edge costs nothing and is skipped.
        It starts at the first node with inputs
        (:attr:`~mpcost.circuit.Circuit._first_fed`): the ``in`` nodes
        before it have op price 0 and no edges, so they add 0.
        """
        cx = self.cx
        t = 0
        for s, row, ins in islice(zip(idx, self.op_x, self.inputs),
                                  self.circuit._first_fed, None):
            t += row[s]
            for j in ins:
                r = idx[j]
                if r != s:
                    t += cx[r][s]
        return self.profile._exact.parts(t)

    def uniform_sums(self, s: int) -> tuple[int, int]:
        """:meth:`sums` of the row that puts every node on scheme ``s``,
        which must support every node's operation: such a row has only
        same-scheme edges, so its sums are each priced op's count
        (:attr:`~mpcost.circuit.Circuit.op_counts`) times its price."""
        exact = self.profile._exact
        op_x = exact.op_x
        t = 0
        for op, count in self.circuit.op_counts:
            t += count * op_x[op][s]
        return exact.parts(t)

    def report(
        self, idx: Sequence[int], sums: tuple[int, int] | None = None
    ) -> CostReport:
        """Cost report of ``idx``. ``sums``, when given, must be
        :meth:`sums` of ``idx``, which a caller has already computed;
        without it, one fold gives them. Each total is the float nearest
        its exact sum, as :meth:`_Exact.cents` gives it, and the per-node
        records are built when the report's ``per_node`` is first read."""
        tc, tn = self.sums(idx) if sums is None else sums
        cents = self.profile._exact.cents
        return CostReport(cents(tc), cents(tn), cents(tc + tn), self,
                          tuple(idx))


def total_cost(
    circuit: Circuit,
    assignment: Mapping[int, str],
    profile: CostProfile,
) -> CostReport:
    """Total and per-node cost of an assigned circuit: ``per_node[i]`` is
    node ``i``'s operation under its scheme plus one conversion per input
    edge whose producer uses a different scheme."""
    compiled = Compiled(circuit, profile)
    return compiled.report(compiled.indices(assignment))


def check_feasible(
    circuit: Circuit,
    assignment: Mapping[int, str],
    profile: CostProfile,
) -> list[Violation]:
    """Return one violation per node whose assignment is missing, names an
    undeclared scheme, or uses a scheme that does not support the node's
    operation, then one per assignment key that is not a node id of the
    circuit. Empty list means the assignment is feasible."""
    violations = []
    for node in circuit.nodes:
        scheme = assignment.get(node.id)
        if scheme is None:
            violations.append(Violation(node.id, "no scheme assigned"))
        elif profile._index_of(scheme) is None:
            violations.append(
                Violation(node.id, f"scheme {scheme!r} not in profile")
            )
        elif not profile.supports(node.op, scheme):
            violations.append(
                Violation(
                    node.id,
                    f"scheme {scheme!r} does not support op {node.op}",
                )
            )
    n = len(circuit.nodes)
    for key in assignment:
        if not (_is_int(key) and 0 <= key < n):
            violations.append(Violation(key, "key is not a node id"))
    return violations


def assignment_to_json(assignment: Mapping[int, str]) -> str:
    """Canonical JSON for an assignment: node ids ascending, compact."""
    doc = {str(k): assignment[k] for k in sorted(assignment)}
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"


def assignment_from_json(text: str) -> Assignment:
    doc = parse_json(text, "assignment")
    if not isinstance(doc, dict):
        raise ParseError("assignment JSON must be an object")
    out: Assignment = {}
    for key, value in doc.items():
        node_id = parse_node_id(key, "assignment")
        if not isinstance(value, str):
            raise ParseError(f"assignment for node {key} must be a scheme name")
        out[node_id] = value
    return out


# --- profile JSON -------------------------------------------------------------
#
# {
#   "name": "inter-m3.medium",
#   "scale": 1e-06,
#   "schemes": ["arithmetic", "boolean", "yao"],
#   "ops": {"add": {"arithmetic": {"p": 2.9, "n": 0.0}, ...}, ...},
#   "conversions": {"arithmetic->boolean": {"p": 28.35, "n": 199.94}, ...}
# }
#
# A missing (op, scheme) entry encodes non-support. in/out carry no entries:
# they are free under every scheme. ``profile_to_json`` is canonical
# (fixed key order, floats everywhere), so save -> load -> save is stable.
# The parsers here check shape only; the constructors check every number.


def profile_to_json(profile: CostProfile) -> str:
    ops: dict = {}
    for op in COMPUTE_OPS:
        entries = {}
        for scheme in profile.schemes:
            cost = profile.op_costs.get((op, scheme))
            if cost is not None:
                entries[scheme] = {"p": float(cost[0]), "n": float(cost[1])}
        if entries:
            ops[op.value] = entries
    conversions = {}
    for src in profile.schemes:
        for dst in profile.schemes:
            if src != dst:
                p, n = profile.conversions[(src, dst)]
                conversions[f"{src}->{dst}"] = {"p": float(p), "n": float(n)}
    doc = {
        "name": profile.name,
        "scale": float(profile.scale),
        "schemes": list(profile.schemes),
        "ops": ops,
        "conversions": conversions,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _parse_cost_entry(obj, where: str) -> tuple:
    if not isinstance(obj, dict) or set(obj) != {"p", "n"}:
        raise ParseError(f"{where}: expected an object with keys 'p' and 'n'")
    return obj["p"], obj["n"]


def profile_from_json(text: str) -> CostProfile:
    doc = parse_json(text, "profile")
    if not isinstance(doc, dict):
        raise ParseError("profile JSON must be an object")
    extra = set(doc) - {"name", "scale", "schemes", "ops", "conversions"}
    if extra:
        raise ParseError(f"unexpected profile key(s): {sorted(extra)}")
    for key in ("name", "scale", "schemes", "ops", "conversions"):
        if key not in doc:
            raise ParseError(f"profile JSON missing {key!r}")
    schemes = doc["schemes"]
    if not isinstance(schemes, list):
        raise ParseError("profile schemes must be a list of names")
    if not isinstance(doc["ops"], dict):
        raise ParseError("profile ops must be an object")
    op_costs: dict[tuple[OpKind, str], tuple[float, float]] = {}
    for op_name, per_scheme in doc["ops"].items():
        op = op_from_name(op_name)
        if not isinstance(per_scheme, dict):
            raise ParseError(f"ops[{op_name!r}] must be an object")
        for scheme, entry in per_scheme.items():
            op_costs[(op, scheme)] = _parse_cost_entry(
                entry, f"ops[{op_name!r}][{scheme!r}]"
            )
    if not isinstance(doc["conversions"], dict):
        raise ParseError("profile conversions must be an object")
    conversions: dict[tuple[str, str], tuple[float, float]] = {}
    for key, entry in doc["conversions"].items():
        if not isinstance(key, str) or key.count("->") != 1:
            raise ParseError(f"conversion key {key!r} must look like 'a->b'")
        src, dst = key.split("->")
        conversions[(src, dst)] = _parse_cost_entry(
            entry, f"conversions[{key!r}]"
        )
    return CostProfile(doc["name"], doc["scale"], tuple(schemes), op_costs, conversions)


def save_profile(profile: CostProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(profile_to_json(profile))


def load_profile(path) -> CostProfile:
    with open(path, "r", encoding="utf-8") as f:
        return profile_from_json(f.read())
