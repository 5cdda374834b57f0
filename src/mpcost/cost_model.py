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
:meth:`Compiled.total` is the one evaluator of a total that every
strategy, the exact solver included, scores assignments with.

All cost functions are pure and profiles are immutable, so everything
here is safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .circuit import (
    COMPUTE_OPS,
    Circuit,
    OpKind,
    op_from_name,
    parse_json,
    parse_node_id,
)
from .errors import (
    DuplicateMeasurement,
    InfeasibleAssignment,
    MissingConversion,
    NegativeCost,
    NegativeInput,
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


@dataclass(frozen=True)
class CostProfile:
    """Unit costs for one deployment scenario.

    ``op_costs`` maps ``(op, scheme)`` to ``(compute, network)`` in stored
    units; an absent pair means the scheme does not support the op.
    ``conversions`` maps every ordered pair of distinct schemes to its
    ``(compute, network)`` conversion price. ``scale`` converts stored
    units to cents.

    The cent tables derived from these prices are built once, on first
    use, and shared: every :class:`Compiled` under the profile holds the
    same row lists, tuples and matrices, so they are read-only.
    """

    name: str
    scale: float
    schemes: tuple[str, ...]
    op_costs: dict[tuple[OpKind, str], tuple[float, float]]
    conversions: dict[tuple[str, str], tuple[float, float]]

    def __post_init__(self):
        if not self.schemes:
            raise NoUniversalScheme(f"profile {self.name!r} declares no schemes")
        if len(set(self.schemes)) != len(self.schemes):
            raise ParseError(f"profile {self.name!r} has duplicate scheme names")
        _check_scale(self.name, self.scale)
        known = set(self.schemes)
        for (op, scheme), (p, n) in self.op_costs.items():
            if op not in COMPUTE_OPS:
                raise ParseError(
                    f"profile {self.name!r}: op {op} cannot carry a cost entry"
                )
            if scheme not in known:
                raise ParseError(
                    f"profile {self.name!r}: cost entry for undeclared "
                    f"scheme {scheme!r}"
                )
            if not (math.isfinite(p) and math.isfinite(n)):
                raise ParseError(
                    f"profile {self.name!r}: non-finite cost for ({op}, {scheme})"
                )
            if p < 0 or n < 0:
                raise NegativeCost(
                    f"profile {self.name!r}: negative cost for ({op}, {scheme})"
                )
        for (src, dst), (p, n) in self.conversions.items():
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
            if not (math.isfinite(p) and math.isfinite(n)):
                raise ParseError(
                    f"profile {self.name!r}: non-finite conversion cost "
                    f"{src}->{dst}"
                )
            if p < 0 or n < 0:
                raise NegativeCost(
                    f"profile {self.name!r}: negative conversion cost "
                    f"{src}->{dst}"
                )
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
        if op in (OpKind.IN, OpKind.OUT):
            return scheme in self.scheme_index
        return (op, scheme) in self.op_costs

    def schemes_for(self, op: OpKind) -> tuple[str, ...]:
        """Schemes supporting ``op``, in canonical (declaration) order."""
        return tuple(s for s in self.schemes if self.supports(op, s))

    def universal_schemes(
        self, ops: Iterable[OpKind] = COMPUTE_OPS
    ) -> tuple[str, ...]:
        """Schemes that support every op in ``ops`` (default: all priced ops)."""
        ops = tuple(ops)
        return tuple(
            s for s in self.schemes if all(self.supports(op, s) for op in ops)
        )

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
            cands[op] = tuple(index[s] for s in self.schemes_for(op))
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


def _check_scale(name: str, scale) -> None:
    """Raise :class:`ParseError` unless ``scale`` is positive and finite."""
    if not (isinstance(scale, (int, float)) and 0 < scale < math.inf):
        raise ParseError(f"profile {name!r} scale must be positive and finite")


# --- per-node and total cost ------------------------------------------------


@dataclass(frozen=True)
class NodeCost:
    """Cost breakdown for one node, in cents."""

    op_compute: float
    op_network: float
    conv_compute: float
    conv_network: float

    @property
    def compute(self) -> float:
        return self.op_compute + self.conv_compute

    @property
    def network(self) -> float:
        return self.op_network + self.conv_network

    @property
    def total(self) -> float:
        return self.compute + self.network


@dataclass(frozen=True)
class CostReport:
    """Total and per-node cost of an assigned circuit, in cents."""

    per_node: dict[int, NodeCost]
    total_compute: float
    total_network: float
    total: float


@dataclass(frozen=True)
class Violation:
    """One feasibility problem found by :func:`check_feasible`."""

    node: int
    reason: str


def node_cost(
    circuit: Circuit,
    node_id: int,
    assignment: Mapping[int, str],
    profile: CostProfile,
) -> NodeCost:
    """Cost of one node: its operation under the assigned scheme plus one
    conversion per input edge whose producer uses a different scheme."""
    node = circuit.node(node_id)
    try:
        scheme = assignment[node_id]
    except KeyError:
        raise InfeasibleAssignment(f"node {node_id} has no assigned scheme") from None
    op_p, op_n = profile.op_cost_cents(node.op, scheme)
    conv_p = 0.0
    conv_n = 0.0
    for j in node.inputs:
        try:
            src = assignment[j]
        except KeyError:
            raise InfeasibleAssignment(
                f"input node {j} of node {node_id} has no assigned scheme"
            ) from None
        p, n = profile.conv_cost_cents(src, scheme)
        conv_p += p
        conv_n += n
    return NodeCost(op_p, op_n, conv_p, conv_n)


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

    Every total sums its terms in the order of :class:`NodeCost`, so the
    same assignment gives the same floats however it is evaluated.
    """

    __slots__ = ("circuit", "profile", "op_p", "op_n", "op_t", "cands",
                 "cp", "cn", "ct", "inputs", "consumers")

    def __init__(self, circuit: Circuit, profile: CostProfile):
        op_p, op_n, op_t, cands, self.cp, self.cn, self.ct = profile._tables
        ops = [node.op for node in circuit.nodes]
        self.circuit = circuit
        self.profile = profile
        self.op_p = [op_p[op] for op in ops]
        self.op_n = [op_n[op] for op in ops]
        self.op_t = [op_t[op] for op in ops]
        self.cands = [cands[op] for op in ops]
        self.inputs = tuple(node.inputs for node in circuit.nodes)
        self.consumers = circuit.consumer_edges

    def indices(self, assignment: Mapping[int, str]) -> list[int]:
        """Scheme indices of a name assignment; raises
        :class:`InfeasibleAssignment` on the first node that is unassigned
        or whose scheme does not support its operation."""
        index = self.profile.scheme_index
        out = []
        for node, cands in zip(self.circuit.nodes, self.cands):
            try:
                scheme = assignment[node.id]
            except KeyError:
                raise InfeasibleAssignment(
                    f"node {node.id} has no assigned scheme"
                ) from None
            s = index.get(scheme)
            if s not in cands:
                raise InfeasibleAssignment(
                    f"scheme {scheme!r} does not support op {node.op} "
                    f"in profile {self.profile.name!r}"
                )
            out.append(s)
        return out

    def assignment(self, idx: Sequence[int]) -> Assignment:
        schemes = self.profile.schemes
        return {i: schemes[s] for i, s in enumerate(idx)}

    def total(self, idx: Sequence[int]) -> float:
        """Total cost in cents of ``idx``, without the per-node breakdown."""
        cp, cn = self.cp, self.cn
        tc = 0.0
        tn = 0.0
        for s, rp, rn, ins in zip(idx, self.op_p, self.op_n, self.inputs):
            conv_p = 0.0
            conv_n = 0.0
            for j in ins:
                r = idx[j]
                conv_p += cp[r][s]
                conv_n += cn[r][s]
            tc += rp[s]
            tc += conv_p
            tn += rn[s]
            tn += conv_n
        return tc + tn

    def least_total(self, options: Sequence[Sequence[int]]) -> float:
        """A float that no row drawn from ``options`` (per node, the scheme
        indices it may take) has a smaller :meth:`total` than.

        It is :meth:`total` itself, run on a relabelled copy in which node
        ``i``'s one scheme is ``i`` and every addend (an operation's cost,
        a conversion along one edge) is its least value over the options.
        Rounded ``+`` is monotone, so every partial sum of that run is at
        most the same partial sum for any such row.
        """
        least = object.__new__(Compiled)
        least.inputs = self.inputs
        least.op_p, least.op_n, least.cp, least.cn = (
            [{} for _ in options] for _ in range(4)
        )
        for i, (opts, ins) in enumerate(zip(options, self.inputs)):
            least.op_p[i][i] = min(self.op_p[i][s] for s in opts)
            least.op_n[i][i] = min(self.op_n[i][s] for s in opts)
            for j in ins:
                pairs = [(r, s) for r in options[j] for s in opts]
                least.cp[j][i] = min(self.cp[r][s] for r, s in pairs)
                least.cn[j][i] = min(self.cn[r][s] for r, s in pairs)
        return least.total(range(len(options)))

    def report(self, idx: Sequence[int]) -> CostReport:
        """Total and per-node cost of ``idx``, summed like :meth:`total`."""
        cp, cn = self.cp, self.cn
        per_node: dict[int, NodeCost] = {}
        tc = 0.0
        tn = 0.0
        for i, (s, rp, rn, ins) in enumerate(
            zip(idx, self.op_p, self.op_n, self.inputs)
        ):
            conv_p = 0.0
            conv_n = 0.0
            for j in ins:
                r = idx[j]
                conv_p += cp[r][s]
                conv_n += cn[r][s]
            per_node[i] = NodeCost(rp[s], rn[s], conv_p, conv_n)
            tc += rp[s]
            tc += conv_p
            tn += rn[s]
            tn += conv_n
        return CostReport(per_node, tc, tn, tc + tn)


def total_cost(
    circuit: Circuit,
    assignment: Mapping[int, str],
    profile: CostProfile,
) -> CostReport:
    """Total and per-node cost (:func:`node_cost` for every node) of an
    assigned circuit."""
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


# --- deriving profiles from raw measurements ---------------------------------


@dataclass(frozen=True)
class PriceSpec:
    """Cloud price sheet used to turn measured seconds and bytes into cents.

    ``vm_rate_a``/``vm_rate_b`` are the two parties' VM prices in cents per
    hour (both machines run for the full protocol, so compute cost uses
    their sum). ``net_rate`` is cents per GB transferred; ``gb_bytes``
    fixes the GB convention (decimal by default).
    """

    vm_rate_a: float
    vm_rate_b: float
    net_rate: float
    gb_bytes: int = 10**9

    def __post_init__(self):
        rates = (self.vm_rate_a, self.vm_rate_b, self.net_rate)
        if not all(math.isfinite(r) for r in rates):
            raise ParseError("price rates must be finite")
        if min(rates) < 0:
            raise NegativeInput("price rates must be non-negative")
        if self.gb_bytes <= 0:
            raise NegativeInput("gb_bytes must be positive")


@dataclass(frozen=True)
class RawMeasurement:
    """Externally measured per-operation averages.

    Exactly one of (``op``, ``scheme``) or (``source``, ``target``) must be
    set, describing either an operation benchmark or a conversion
    benchmark. Values are averages over a benchmark run: wall seconds per
    operation and bytes transferred per operation.
    """

    seconds_per_op: float
    bytes_per_op: float
    op: OpKind | None = None
    scheme: str | None = None
    source: str | None = None
    target: str | None = None

    def __post_init__(self):
        is_op = self.op is not None and self.scheme is not None
        is_conv = self.source is not None and self.target is not None
        if is_op == is_conv:
            raise ValueError(
                "measurement must set either (op, scheme) or (source, target)"
            )
        if not (math.isfinite(self.seconds_per_op)
                and math.isfinite(self.bytes_per_op)):
            raise ParseError("measured seconds and bytes must be finite")
        if self.seconds_per_op < 0 or self.bytes_per_op < 0:
            raise NegativeInput("measured seconds and bytes must be non-negative")

    @classmethod
    def for_op(cls, op: OpKind, scheme: str, seconds_per_op: float,
               bytes_per_op: float) -> "RawMeasurement":
        return cls(seconds_per_op, bytes_per_op, op=op, scheme=scheme)

    @classmethod
    def for_conversion(cls, source: str, target: str, seconds_per_op: float,
                       bytes_per_op: float) -> "RawMeasurement":
        return cls(seconds_per_op, bytes_per_op, source=source, target=target)

    @property
    def is_conversion(self) -> bool:
        return self.source is not None


def derive_profile(
    measurements: Sequence[RawMeasurement],
    prices: PriceSpec,
    name: str,
    scale: float = 1.0,
    schemes: Sequence[str] | None = None,
) -> CostProfile:
    """Price raw measurements with a cloud price sheet.

    For every measurement, compute cost is
    ``seconds_per_op * (vm_rate_a + vm_rate_b) / 3600`` cents and network
    cost is ``bytes_per_op * net_rate / gb_bytes`` cents; both are divided
    by ``scale`` for storage. ``schemes`` fixes the canonical scheme order
    (default: sorted order of the schemes that appear).

    The resulting profile must pass full validation, so the measurement
    set has to cover every conversion pair and leave at least one scheme
    supporting every operation.
    """
    _check_scale(name, scale)
    op_costs: dict[tuple[OpKind, str], tuple[float, float]] = {}
    conversions: dict[tuple[str, str], tuple[float, float]] = {}
    seen: set[str] = set()
    for m in measurements:
        p_cents = m.seconds_per_op * (prices.vm_rate_a + prices.vm_rate_b) / 3600.0
        n_cents = m.bytes_per_op * prices.net_rate / prices.gb_bytes
        entry = (p_cents / scale, n_cents / scale)
        if m.is_conversion:
            key = (m.source, m.target)
            if key in conversions:
                raise DuplicateMeasurement(
                    f"duplicate conversion measurement {m.source}->{m.target}"
                )
            conversions[key] = entry
            seen.update(key)
        else:
            key = (m.op, m.scheme)
            if key in op_costs:
                raise DuplicateMeasurement(
                    f"duplicate measurement for ({m.op}, {m.scheme})"
                )
            op_costs[key] = entry
            seen.add(m.scheme)
    if schemes is None:
        schemes = tuple(sorted(seen))
    return CostProfile(name, scale, tuple(schemes), op_costs, conversions)


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
# A missing (op, scheme) entry encodes non-support. in/out never appear:
# they are free under every scheme. ``profile_to_json`` is canonical
# (fixed key order, floats everywhere), so save -> load -> save is stable.


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


def _is_number(x) -> bool:
    """A JSON number: int or float, but not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite_float(x) -> float | None:
    """``x`` as a float, or ``None`` when it is not a JSON number, is NaN
    or infinite, or is an int too large for a float."""
    if not _is_number(x):
        return None
    try:
        f = float(x)
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


def _parse_cost_entry(obj, where: str) -> tuple[float, float]:
    if not isinstance(obj, dict) or set(obj) != {"p", "n"}:
        raise ParseError(f"{where}: expected an object with keys 'p' and 'n'")
    p, n = _finite_float(obj["p"]), _finite_float(obj["n"])
    if p is None or n is None:
        raise ParseError(f"{where}: costs must be finite numbers")
    return p, n


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
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError("profile name must be a string")
    scale = _finite_float(doc["scale"])
    if scale is None or scale <= 0:
        raise ParseError("profile scale must be a positive finite number")
    schemes = doc["schemes"]
    if not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes):
        raise ParseError("profile schemes must be a list of names")
    if not isinstance(doc["ops"], dict):
        raise ParseError("profile ops must be an object")
    op_costs: dict[tuple[OpKind, str], tuple[float, float]] = {}
    for op_name, per_scheme in doc["ops"].items():
        op = op_from_name(op_name)
        if op not in COMPUTE_OPS:
            raise ParseError(
                f"op {op_name!r} is implicit (free) and must not be priced"
            )
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
    return CostProfile(name, scale, tuple(schemes), op_costs, conversions)


def save_profile(profile: CostProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(profile_to_json(profile))


def load_profile(path) -> CostProfile:
    with open(path, "r", encoding="utf-8") as f:
        return profile_from_json(f.read())


# --- measurement / price JSON --------------------------------------------------


def measurements_from_json(text: str) -> tuple[list[RawMeasurement], list[str] | None]:
    """Parse a measurement file. Returns the measurements and the declared
    scheme order (``None`` when the file leaves it implicit).

    Format::

        {"schemes": ["arithmetic", "yao"],
         "measurements": [
           {"op": "add", "scheme": "yao", "seconds_per_op": 1e-3, "bytes_per_op": 416},
           {"conversion": ["yao", "arithmetic"], "seconds_per_op": 2e-3, "bytes_per_op": 512}
         ]}
    """
    doc = parse_json(text, "measurements")
    if not isinstance(doc, dict) or "measurements" not in doc:
        raise ParseError("measurements JSON must contain a 'measurements' list")
    schemes = doc.get("schemes")
    if schemes is not None and (
        not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes)
    ):
        raise ParseError("'schemes' must be a list of names")
    if not isinstance(doc["measurements"], list):
        raise ParseError("'measurements' must be a list")
    out = []
    for i, obj in enumerate(doc["measurements"]):
        if not isinstance(obj, dict):
            raise ParseError(f"measurement {i} is not an object")
        is_conversion = "conversion" in obj
        names = (obj["conversion"] if is_conversion
                 else [obj.get("op"), obj.get("scheme")])
        if not (isinstance(names, list) and len(names) == 2
                and all(isinstance(name, str) for name in names)):
            raise ParseError(
                f"measurement {i}: needs an 'op' and a 'scheme' name, or a "
                f"'conversion' pair of scheme names"
            )
        seconds = _finite_float(obj.get("seconds_per_op"))
        nbytes = _finite_float(obj.get("bytes_per_op"))
        if seconds is None or nbytes is None:
            raise ParseError(
                f"measurement {i}: needs finite numeric seconds_per_op and "
                f"bytes_per_op"
            )
        if is_conversion:
            out.append(RawMeasurement.for_conversion(*names, seconds, nbytes))
        else:
            op, scheme = names
            out.append(
                RawMeasurement.for_op(op_from_name(op), scheme, seconds, nbytes)
            )
    return out, schemes


def prices_from_json(text: str) -> PriceSpec:
    """Parse a price sheet: ``{"vm_rate_a": .., "vm_rate_b": .., "net_rate": ..,
    "gb_bytes": ..}`` with ``gb_bytes`` optional (default ``10**9``)."""
    doc = parse_json(text, "prices")
    if not isinstance(doc, dict):
        raise ParseError("prices JSON must be an object")
    extra = set(doc) - {"vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes"}
    if extra:
        raise ParseError(f"unexpected price key(s): {sorted(extra)}")
    rates = {}
    for key in ("vm_rate_a", "vm_rate_b", "net_rate"):
        if key not in doc:
            raise ParseError(f"invalid price sheet: missing {key!r}")
        rates[key] = _finite_float(doc[key])
        if rates[key] is None:
            raise ParseError(f"invalid price sheet: {key} must be a finite number")
    gb_bytes = doc.get("gb_bytes", 10**9)
    if isinstance(gb_bytes, float) and gb_bytes.is_integer():
        gb_bytes = int(gb_bytes)
    if isinstance(gb_bytes, bool) or not isinstance(gb_bytes, int):
        raise ParseError("invalid price sheet: gb_bytes must be an integer")
    if _finite_float(gb_bytes) is None:  # derive_profile divides by it
        raise ParseError("invalid price sheet: gb_bytes is too large")
    return PriceSpec(**rates, gb_bytes=gb_bytes)


def load_measurements(path) -> tuple[list[RawMeasurement], list[str] | None]:
    with open(path, "r", encoding="utf-8") as f:
        return measurements_from_json(f.read())


def load_prices(path) -> PriceSpec:
    with open(path, "r", encoding="utf-8") as f:
        return prices_from_json(f.read())
