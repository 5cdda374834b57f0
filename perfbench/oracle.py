"""Independent re-evaluation of the paper's cost formula.

    cost(node) = op_compute + op_network
               + sum over input edges of (conv_compute + conv_network)

The circuit and the profile are read straight from their JSON files, and
the terms are summed with ``math.fsum``; nothing here calls into mpcost,
so a defect in its cost model cannot hide itself.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

#: Relative tolerance between a reported total and the re-evaluation.
REL_TOL = 1e-9


class Infeasible(Exception):
    """The assignment leaves a node unassigned or uses an unsupported scheme."""


class CostOracle:
    def __init__(self, circuit_path, profile_path):
        with open(circuit_path, encoding="utf-8") as f:
            nodes = json.load(f)["nodes"]
        self.nodes = [(n["op"], tuple(n["inputs"])) for n in nodes]
        with open(profile_path, encoding="utf-8") as f:
            doc = json.load(f)
        scale = doc["scale"]
        self.op_terms = {
            (op, scheme): (e["p"] * scale, e["n"] * scale)
            for op, per_scheme in doc["ops"].items()
            for scheme, e in per_scheme.items()
        }
        self.conv_terms = {
            tuple(key.split("->")): (e["p"] * scale, e["n"] * scale)
            for key, e in doc["conversions"].items()
        }
        self.schemes = frozenset(doc["schemes"])

    def total(self, assignment: Mapping[int, str]) -> float:
        """Total cost in cents of ``assignment`` (node id -> scheme)."""
        if len(assignment) != len(self.nodes):
            raise Infeasible(
                f"{len(assignment)} assigned nodes, circuit has {len(self.nodes)}"
            )
        terms = []
        for node_id, (op, inputs) in enumerate(self.nodes):
            scheme = assignment.get(node_id)
            if scheme not in self.schemes:
                raise Infeasible(f"node {node_id}: scheme {scheme!r}")
            if op not in ("in", "out"):
                try:
                    terms.extend(self.op_terms[(op, scheme)])
                except KeyError:
                    raise Infeasible(f"node {node_id}: {scheme} cannot run {op}") from None
            for j in inputs:
                src = assignment[j]
                if src != scheme:
                    terms.extend(self.conv_terms[(src, scheme)])
        return math.fsum(terms)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
