"""Normalising wall times for the speed the machine has at the moment.

On a shared 2-vCPU VM the same call runs up to 1.65 times slower for
minutes at a time. That made run-to-run medians of raw wall time spread
by 20-36%. Two probes taken next to every timed call track those phases.
Neither probe runs any mpcost code, so a change to the package moves the
normalised figures exactly as it moves the wall times.

* ``calibrate()`` times a fixed pure-Python kernel. It does the same kind
  of work as mpcost's hot loops: dict lookups by tuple, tuple building,
  ``math.fsum``. In-process time is scaled by ``KERNEL_REF_S`` / kernel
  time.
* ``BASE_ARGV`` starts the interpreter and imports what the CLI imports
  besides mpcost. A CLI process's wall time is split in two. The part that
  matches a base process just measured is replaced by ``BASE_REF_S``. The
  rest, which is mpcost's import and work, is scaled like in-process time.

The two constants are the probes' times on a 2-vCPU x86-64 VM in its fast
phase (Python 3.11, numpy 2.4), so figures read as seconds on that
machine.
"""

from __future__ import annotations

import math
import sys
import time

KERNEL_REF_S = 0.0013
BASE_REF_S = 0.155
BASE_ARGV = [sys.executable, "-c", "import argparse, dataclasses, json, numpy"]

_SCHEMES = ("arithmetic", "boolean", "yao")
_OP_TERMS = {
    (op, s): (0.5 + i + j, 0.25 * (i + 2 * j))
    for i, op in enumerate(("add", "mul"))
    for j, s in enumerate(_SCHEMES)
}
_CONV_TERMS = {
    (s, t): (0.01 * (i + 1), 0.02 * (j + 1))
    for i, s in enumerate(_SCHEMES)
    for j, t in enumerate(_SCHEMES)
    if s != t
}
_NODES = [("in", ())] + [
    (("mul", "add")[i % 2], (i - 1, max(0, i - 7))) for i in range(1, 2000)
]
_ASSIGNMENT = {i: _SCHEMES[(i * 7) % 3] for i in range(len(_NODES))}


def _kernel() -> float:
    terms = []
    for node_id, (op, inputs) in enumerate(_NODES):
        scheme = _ASSIGNMENT[node_id]
        if op != "in":
            terms.extend(_OP_TERMS[(op, scheme)])
        for j in inputs:
            src = _ASSIGNMENT[j]
            if src != scheme:
                terms.extend(_CONV_TERMS[(src, scheme)])
    return math.fsum(terms)


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
