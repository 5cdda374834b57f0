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
the circuit and the profile into a :class:`Compiled` form: plain Python
float rows per node and conversion matrices, indexed by scheme position.
:meth:`Compiled.sums` is the one fold that every total and report comes
from: every strategy, the exact solver included, scores assignments with
it, and it builds the per-node records of a :class:`CostReport` either
in the fold that gives the report's totals or, when a strategy already
has those, only when they are read.

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


class CostProfile(_Value):
    """Unit costs for one deployment scenario.

    ``op_costs`` maps ``(op, scheme)`` to ``(compute, network)`` in stored
    units; an absent pair means the scheme does not support the op.
    ``conversions`` maps every ordered pair of distinct schemes to its
    ``(compute, network)`` conversion price. ``scale`` converts stored
    units to cents.

    The cent tables derived from these prices are built once, by the
    constructor's check for a universal scheme, and shared: every
    :class:`Compiled` under the profile holds the same row lists, tuples
    and matrices, so they are read-only.
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
        for (op, scheme), price in self.op_costs.items():
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
        for (src, dst), price in self.conversions.items():
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
        return self.scheme_index.get(scheme) in self._tables[3].get(op, ())

    def schemes_for(self, op: OpKind) -> tuple[str, ...]:
        """Schemes supporting ``op``, in canonical (declaration) order."""
        return tuple([self.schemes[i] for i in self._tables[3].get(op, ())])

    def universal_schemes(
        self, ops: Iterable[OpKind] = COMPUTE_OPS
    ) -> tuple[str, ...]:
        """Schemes that support every op in ``ops`` (default: all priced
        ops), in declaration order: the intersection of the ops' candidate
        indices in :attr:`_tables`. A value that is not an
        :class:`~mpcost.circuit.OpKind` has no candidates."""
        cands = self._tables[3]
        keep = set(range(len(self.schemes))).intersection(
            *[cands.get(op, ()) for op in ops])
        return tuple([self.schemes[i] for i in sorted(keep)])

    @cached_property
    def scheme_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.schemes)}

    # -- cent-denominated lookup tables ----------------------------------

    @cached_property
    def _tables(self) -> tuple[dict, dict, dict, dict, list, list, list]:
        """The cent tables ``(op_p, op_n, op_t, cands, cp, cn, ct)``.

        Per op kind, ``op_p``, ``op_n`` and ``op_t`` hold its compute,
        network and summed cost under each scheme (``inf`` where the scheme
        does not support it) and ``cands`` the ascending indices of the
        schemes that do. ``cp``, ``cn`` and ``ct`` are the conversion
        matrices ``[src][dst]`` of compute, network and summed cost.

        They are the single source of cost values for the scalar accessors
        below and for every :class:`Compiled` under this profile, so the
        same assignment always yields bit-identical sums.
        """
        ns = len(self.schemes)
        scale = float(self.scale)
        index = self.scheme_index
        op_p, op_n, cands = {}, {}, {}
        for op in OpKind:
            free = 0.0 if op in (OpKind.IN, OpKind.OUT) else math.inf
            op_p[op] = [free] * ns
            op_n[op] = [free] * ns
            cands[op] = tuple(j for j, s in enumerate(self.schemes)
                              if free == 0.0 or (op, s) in self.op_costs)
        for (op, scheme), (p, n) in self.op_costs.items():
            op_p[op][index[scheme]] = float(p) * scale
            op_n[op][index[scheme]] = float(n) * scale
        cp = [[0.0] * ns for _ in range(ns)]
        cn = [[0.0] * ns for _ in range(ns)]
        for (src, dst), (p, n) in self.conversions.items():
            cp[index[src]][index[dst]] = float(p) * scale
            cn[index[src]][index[dst]] = float(n) * scale
        op_t = {op: [p + n for p, n in zip(op_p[op], op_n[op])] for op in OpKind}
        ct = [[p + n for p, n in zip(rp, rn)] for rp, rn in zip(cp, cn)]
        return op_p, op_n, op_t, cands, cp, cn, ct

    def op_cost_cents(self, op: OpKind, scheme: str) -> tuple[float, float]:
        """(compute, network) cents for running ``op`` under ``scheme``."""
        if not self.supports(op, scheme):
            raise InfeasibleAssignment(
                f"scheme {scheme!r} does not support op {op} "
                f"in profile {self.name!r}"
            )
        op_p, op_n, *_ = self._tables
        j = self.scheme_index[scheme]
        return op_p[op][j], op_n[op][j]

    def conv_cost_cents(self, src: str, dst: str) -> tuple[float, float]:
        """(compute, network) cents for re-sharing a value from ``src`` to
        ``dst``. Zero when the schemes coincide."""
        try:
            i, j = self.scheme_index[src], self.scheme_index[dst]
        except KeyError as e:
            raise InfeasibleAssignment(
                f"scheme {e.args[0]!r} is not declared by profile {self.name!r}"
            ) from None
        *_, cp, cn, _ = self._tables
        return cp[i][j], cn[i][j]


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


def _check_price(name: str, what: str, price) -> None:
    """Raise :class:`ParseError` unless both halves of the ``(compute,
    network)`` ``price`` are :func:`_is_finite`, then :class:`NegativeCost`
    if either is negative."""
    p, n = price
    if not (_is_finite(p) and _is_finite(n)):
        raise ParseError(f"profile {name!r}: {what} is not a finite number")
    if p < 0 or n < 0:
        raise NegativeCost(f"profile {name!r}: negative {what}")


# --- per-node and total cost ------------------------------------------------


class NodeCost(namedtuple(
        "NodeCost", "op_compute op_network conv_compute conv_network")):
    """Cost breakdown for one node, in cents (an immutable named tuple of
    four floats)."""

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
    breakdown. Reports compare by their three totals.

    ``per_node`` maps each node id to its :class:`NodeCost`. It holds the
    ``records`` of the fold that gave the totals when that fold kept them;
    otherwise it is built on first read, by that fold run again on the
    report's compiled form and row, and then kept.
    """

    total_compute: float
    total_network: float
    total: float
    compiled: Compiled
    row: tuple[int, ...]
    records: list[NodeCost] | None
    _compared = ("total_compute", "total_network", "total")

    def __init__(self, total_compute, total_network, total, compiled, row,
                 records=None):
        self._store(total_compute=total_compute, total_network=total_network,
                    total=total, compiled=compiled, row=row, records=records)

    @cached_property
    def per_node(self) -> dict[int, NodeCost]:
        records = self.records
        if records is None:
            records = []
            self.compiled.sums(self.row, records)
        return dict(enumerate(records))


class Violation(namedtuple("Violation", "node reason")):
    """One feasibility problem found by :func:`check_feasible` (an
    immutable named tuple): the ``node`` id and the ``reason`` text."""

    __slots__ = ()


class Compiled:
    """A circuit priced under one profile, for work on scheme indices.

    An assignment here is a list holding, per node id, the position of
    its scheme in ``profile.schemes``. Per node, ``op_p``, ``op_n`` and
    ``op_t`` hold the cent rows of its operation's compute, network and
    summed cost and ``cands`` the indices of the schemes supporting it,
    ascending. ``cp``, ``cn`` and ``ct`` are the conversion matrices
    ``[src][dst]`` of compute, network and summed cost. ``inputs`` and
    ``consumers`` give each node's input ids and its consumers' ids, one
    entry per edge.

    The rows, ``cands`` tuples and matrices are the profile's own, built
    once per profile and shared by every compile under it (a compile only
    indexes them per node), so they are read-only.

    Every total comes from the one fold :meth:`sums`, which sums its terms
    in the order of :class:`NodeCost`, so the same assignment gives the
    same floats however it is evaluated. A sum leaves out the conversion
    addends of edges whose ends share a scheme: each is ``ct[s][s] ==
    0.0`` (a profile may not price a self-conversion), and adding ``0.0``
    changes no bit of a sum that starts at ``0.0`` and adds only
    non-negative prices (never ``-0.0``). So a row on one scheme sums its
    op costs alone (:meth:`uniform_sums`).
    """

    __slots__ = ("circuit", "profile", "op_p", "op_n", "op_t", "cands",
                 "cp", "cn", "ct", "inputs", "consumers")

    def __init__(self, circuit: Circuit, profile: CostProfile):
        op_p, op_n, op_t, cands, self.cp, self.cn, self.ct = profile._tables
        ops = circuit.node_ops
        self.circuit = circuit
        self.profile = profile
        self.op_p = list(map(op_p.__getitem__, ops))
        self.op_n = list(map(op_n.__getitem__, ops))
        self.op_t = list(map(op_t.__getitem__, ops))
        self.cands = list(map(cands.__getitem__, ops))
        self.inputs = tuple([node.inputs for node in circuit.nodes])
        self.consumers = circuit.consumer_edges

    def indices(self, assignment: Mapping[int, str]) -> list[int]:
        """Scheme indices of a name assignment; raises
        :class:`InfeasibleAssignment` on the first violation
        :func:`check_feasible` finds."""
        for v in check_feasible(self.circuit, assignment, self.profile):
            raise InfeasibleAssignment(f"node {v.node}: {v.reason}")
        index = self.profile.scheme_index
        return [index[assignment[i]] for i in range(len(self.cands))]

    def assignment(self, idx: Sequence[int]) -> Assignment:
        return dict(enumerate(map(self.profile.schemes.__getitem__, idx)))

    def sums(
        self, idx: Sequence[int], records: list | None = None
    ) -> tuple[float, float]:
        """Total compute and network cost in cents of ``idx``, the one fold
        every total and report comes from. When ``records`` is a list,
        each node's :class:`NodeCost` is appended to it, in id order.

        Same-scheme edges add nothing and are skipped (see the class
        docstring), so each sum, and each record, is the one over every
        edge, bit for bit.
        """
        cp, cn = self.cp, self.cn
        tc = 0.0
        tn = 0.0
        for s, rp, rn, ins in zip(idx, self.op_p, self.op_n, self.inputs):
            conv_p = 0.0
            conv_n = 0.0
            for j in ins:
                r = idx[j]
                if r != s:
                    conv_p += cp[r][s]
                    conv_n += cn[r][s]
            if records is not None:
                records.append(NodeCost(rp[s], rn[s], conv_p, conv_n))
            tc += rp[s]
            tc += conv_p
            tn += rn[s]
            tn += conv_n
        return tc, tn

    def uniform_sums(self, s: int) -> tuple[float, float]:
        """:meth:`sums` of the row that puts every node on scheme ``s``,
        which must support every node's operation, bit for bit: such a row
        has only same-scheme edges, so the fold adds only the op costs."""
        tc = 0.0
        tn = 0.0
        for rp, rn in zip(self.op_p, self.op_n):
            tc += rp[s]
            tn += rn[s]
        return tc, tn

    def total(self, idx: Sequence[int]) -> float:
        """Total cost in cents of ``idx``, without the per-node breakdown."""
        tc, tn = self.sums(idx)
        return tc + tn

    def report(
        self, idx: Sequence[int], sums: tuple[float, float] | None = None
    ) -> CostReport:
        """Cost report of ``idx``. ``sums``, when given, must be
        :meth:`sums` of ``idx``, which a caller has already computed; the
        per-node records are then built only when the report's
        ``per_node`` is first read. Without ``sums``, one fold gives both
        the totals and the records."""
        records = None
        if sums is None:
            records = []
            sums = self.sums(idx, records)
        tc, tn = sums
        return CostReport(tc, tn, tc + tn, self, tuple(idx), records)


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
    operation. Empty list means the assignment is feasible."""
    violations = []
    for node in circuit.nodes:
        scheme = assignment.get(node.id)
        if scheme is None:
            violations.append(Violation(node.id, "no scheme assigned"))
        elif scheme not in profile.scheme_index:
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
