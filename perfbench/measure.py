"""One benchmark run: prepare a workload, measure it, check every output.

Load model: one client in a closed loop. Every call, CLI process or
in-process, starts only after the previous one has finished; nothing runs
in parallel.

Untraced run (end-to-end metrics), per round and pair, each call repeated
while cheap and timed with the speed probes of ``speed.py``:
  * in-process ``mpcost.best_of`` on the already loaded circuit/profile,
  * ``python -m mpcost optimize <c> <p> --heuristic best --json``,
  * ``python -m mpcost compare <c> <p> --json``.
Traced run (per-layer metrics, raw wall times), per round and pair:
  * the same in-process ``best_of`` untraced, as the overhead baseline,
  * ``mpcost.cli.main(["optimize", ..., "--out", file])`` in-process, traced,
  * ``mpcost.exhaustive_optimal`` in-process, traced, under tracemalloc.
Both runs first time ``SETUP_REPS`` fresh interpreters per pair that
import the package, load the profile and load the circuit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import mpcost
import mpcost.cli

import speed
import workloads
from oracle import CostOracle, Infeasible, close
from tracing import Tracer

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
#: Within a round, a pair's cheap operation repeats until its calls add up
#: to MIN_OP_S (at most MAX_OP_REPS calls); slow ones run once.
MIN_OP_S = 0.3
MAX_OP_REPS = 100

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import mpcost, mpcost.cli
t1 = time.perf_counter()
profile = mpcost.load_builtin(sys.argv[1])
t2 = time.perf_counter()
circuit = mpcost.load_circuit(sys.argv[2])
t3 = time.perf_counter()
print(json.dumps({"import": t1 - t0, "load_builtin": t2 - t1,
                  "load_circuit": t3 - t2, "nodes": len(circuit.nodes)}))
"""


@dataclass
class Child:
    wall: float
    returncode: int
    stdout: bytes
    stderr: str
    maxrss_mib: float


@dataclass
class PairState:
    """Everything the benchmark holds for one (circuit, profile) pair."""

    label: str
    profile_name: str
    path: Path
    circuit: mpcost.Circuit
    profile: mpcost.CostProfile
    oracle: CostOracle
    circuit_sha: str
    yao_total: float = 0.0
    best_total: float | None = None
    exact_total: float | None = None  # from compare's exhaustive row
    candidates: dict = field(default_factory=dict)  # strategy -> total

    @property
    def name(self) -> str:
        return f"{self.label}/{self.profile_name}"


def _alarm(signum, frame):
    raise TimeoutError


def digest(assignment) -> str:
    return hashlib.sha256(mpcost.assignment_to_json(assignment).encode()).hexdigest()


def circuit_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_key(circuit_sha: str, profile: str, strategy: str) -> str:
    """Key of a recorded digest: circuit content, not workload or seed."""
    return f"{circuit_sha}/{profile}/{strategy}"


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def summed_quartiles(per_pair: dict[str, list[float]]) -> dict:
    """A figure summed over pairs: the sum of each pair's median (and
    quartiles) over the run's samples. Per-pair medians shrug off a slow
    stretch of the machine that a median of round totals would not."""
    parts = [quartiles(values) for values in per_pair.values()]
    out = {key: math.fsum(p[key] for p in parts) for key in ("value", "q1", "q3")}
    out["n"] = min(p["n"] for p in parts)
    return out


def geomean(values: list[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def cost_ratio(pairs: list[PairState]) -> float:
    """Geometric mean over profiles of the summed ``best_of`` totals over
    the summed pure-yao totals. Summing within a profile keeps a seeded
    8-op circuit from swinging the figure the way a per-pair mean would;
    the mean across profiles keeps the intra profiles, priced 10^4 times
    lower, from vanishing in a single sum."""
    sums: dict[str, list[float]] = {}
    for pair in pairs:
        best, yao = sums.setdefault(pair.profile_name, [0.0, 0.0])
        sums[pair.profile_name] = [best + pair.best_total, yao + pair.yao_total]
    return geomean([best / yao for best, yao in sums.values()])


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 traced: bool, work: Path):
        self.src = root / "src"
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[dict] = []
        self.check_failures = 0
        self.digests: dict[str, str] = {}
        # figure -> pair name (or "*" for a whole-workload figure) -> samples
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.pairs: list[PairState] = []
        self.round_peak_mib = 0.0
        self.kernel_s = speed.calibrate()  # the latest calibration
        self.base_s = 0.0  # the latest base-process wall time
        self.golden = self._load_golden()
        self.digest_keys: dict[str, str] = {}  # digest key -> golden key

    # -- bookkeeping ----------------------------------------------------------

    def _load_golden(self) -> dict:
        path = Path(__file__).with_name("golden_digests.json")
        with open(path, encoding="utf-8") as f:
            return json.load(f)["digests"]

    def sample(self, name: str, value: float, pair: PairState | None = None) -> None:
        key = pair.name if pair is not None else "*"
        self.samples.setdefault(name, {}).setdefault(key, []).append(value)

    def op(self) -> None:
        self.attempted += 1

    # -- speed normalisation (see speed.py) ---------------------------------------

    def speed_factor(self) -> float:
        """Reference kernel time over the mean of the calibrations taken
        just before and just after the calls being timed."""
        before, self.kernel_s = self.kernel_s, speed.calibrate()
        self.sample("machine.kernel_s", self.kernel_s)
        return speed.KERNEL_REF_S * 2.0 / (before + self.kernel_s)

    def scale_inprocess(self, wall: float, factor: float) -> float:
        return wall * factor

    def scale_process(self, wall: float, factor: float) -> float:
        """The part a base process takes counts at its reference time."""
        return speed.BASE_REF_S + (wall - self.base_s) * factor

    def measure_base(self) -> None:
        self.base_s = self.run_child(speed.BASE_ARGV).wall
        self.sample("machine.base_s", self.base_s)

    def fail(self, op: str, pair: PairState, kind: str, detail: str) -> None:
        """Record a failed operation. ``kind`` is exit, exception, json or
        check; only a failed check means the program returned a wrong result."""
        if kind == "check":
            self.check_failures += 1
        self.failures.append({"op_id": self.attempted, "op": op, "pair": pair.name,
                              "kind": kind, "detail": detail[-2000:]})

    def failed_ops(self) -> int:
        """Operations with at least one failure (a check can fail twice)."""
        return len({f["op_id"] for f in self.failures})

    def record_digest(self, pair: PairState, strategy: str, assignment) -> None:
        key = f"{self.workload_name}/{pair.name}/{strategy}"
        value = digest(assignment)
        if self.digests.setdefault(key, value) != value:
            self.fail("digest", pair, "check",
                      f"{strategy} gave two different assignments in one run")
        self.digest_keys[key] = golden_key(pair.circuit_sha, pair.profile_name, strategy)

    def check_assignment(self, pair: PairState, what: str, assignment,
                         total: float) -> list[str]:
        """Feasibility (mpcost.check_feasible) and the reported total
        against the independent cost re-evaluation."""
        problems = []
        violations = mpcost.check_feasible(pair.circuit, assignment, pair.profile)
        if violations:
            problems.append(f"{what}: {len(violations)} infeasible nodes")
        try:
            expected = pair.oracle.total(assignment)
        except Infeasible as e:
            problems.append(f"{what}: {e}")
        else:
            if not close(total, expected):
                problems.append(f"{what}: total {total!r} != re-evaluated {expected!r}")
        return problems

    # -- processes --------------------------------------------------------------

    def run_child(self, argv: list[str]) -> Child:
        out_path = self.work / "child.stdout"
        err_path = self.work / "child.stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env,
                                    cwd=self.work)
            old = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # stopped from outside: take the child along
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall,
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0,
        )

    def mpcost_argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "mpcost", *args]

    # -- preparation ------------------------------------------------------------

    def prepare(self) -> None:
        workload = workloads.build(self.workload_name, self.seed)
        paths, shas = {}, {}
        for label, circuit in workload.circuits.items():
            if self.traced:
                with self.tracer.installed("prep", 0):
                    text = mpcost.circuit_to_json(circuit)
            else:
                text = mpcost.circuit_to_json(circuit)
            paths[label] = self.work / f"{label}.json"
            paths[label].write_text(text, encoding="utf-8")
            shas[label] = circuit_sha(text)
        profiles = {}
        for pair in workload.pairs:
            if pair.profile not in profiles:
                profiles[pair.profile] = mpcost.load_builtin(pair.profile)
            oracle = CostOracle(
                paths[pair.circuit],
                self.src / "mpcost" / "profiles" / "data" / f"{pair.profile}.json",
            )
            self.pairs.append(
                PairState(pair.circuit, pair.profile, paths[pair.circuit],
                          workload.circuits[pair.circuit], profiles[pair.profile],
                          oracle, shas[pair.circuit])
            )
        # The pure-yao baseline for cost_ratio; it also warms the loaded
        # circuit and profile before anything is timed.
        for pair in self.pairs:
            self.op()
            result = mpcost.fixed_sharing(pair.circuit, pair.profile, "yao")
            pair.yao_total = result.report.total
            self.record_digest(pair, "fixed:yao", result.assignment)
            for problem in self.check_assignment(pair, "fixed:yao", result.assignment,
                                                 result.report.total):
                self.fail("baseline", pair, "check", problem)
        # Fill the bytecode cache once so no timed process compiles.
        self.run_child([sys.executable, "-c", "import mpcost.cli"])

    # -- set-up -------------------------------------------------------------------

    def setup_phase(self) -> None:
        for _ in range(SETUP_REPS):
            self.measure_base()
            for pair in self.pairs:
                self.op()
                child = self.run_child([sys.executable, "-c", SETUP_CHILD,
                                        pair.profile_name, str(pair.path)])
                if child.returncode != 0:
                    self.fail("setup", pair, "exit", child.stderr)
                    continue
                try:
                    doc = json.loads(child.stdout)
                except json.JSONDecodeError as e:
                    self.fail("setup", pair, "json", str(e))
                    continue
                if doc["nodes"] != len(pair.circuit.nodes):
                    self.fail("setup", pair, "check",
                              f"loaded {doc['nodes']} nodes, expected "
                              f"{len(pair.circuit.nodes)}")
                if not self.traced:
                    factor = self.speed_factor()
                    self.sample("setup_s", self.scale_process(child.wall, factor), pair)
                    self.sample("setup_s.wall", child.wall, pair)
                    continue
                inner = doc["import"] + doc["load_builtin"] + doc["load_circuit"]
                self.sample("cli.import_s", doc["import"], pair)
                self.sample("profiles.load_builtin_s", doc["load_builtin"], pair)
                self.sample("circuit.load_circuit_s", doc["load_circuit"], pair)
                self.sample("trace.process_s", child.wall - inner, pair)

    # -- operations ---------------------------------------------------------------

    def best_of_inprocess(self, pair: PairState) -> float:
        """Untraced library call; returns its wall time."""
        self.op()
        start = time.perf_counter()
        try:
            result = mpcost.best_of(pair.circuit, pair.profile)
        except Exception as e:  # any exception is a failed operation
            elapsed = time.perf_counter() - start
            self.fail("best_of", pair, "exception", repr(e))
            return elapsed
        elapsed = time.perf_counter() - start
        pair.best_total = result.report.total
        self.record_digest(pair, "best", result.assignment)
        for problem in self.check_assignment(pair, "best_of", result.assignment,
                                             result.report.total):
            self.fail("best_of", pair, "check", problem)
        return elapsed

    def check_optimize_doc(self, op: str, pair: PairState, raw: bytes) -> None:
        try:
            doc = json.loads(raw)
            assignment = {int(k): v for k, v in doc["assignment"].items()}
            total = doc["report"]["total"]
        except (json.JSONDecodeError, KeyError, ValueError, AttributeError) as e:
            self.fail(op, pair, "json", repr(e))
            return
        problems = self.check_assignment(pair, op, assignment, total)
        if pair.best_total is not None and total != pair.best_total:
            problems.append(
                f"{op}: CLI total {total!r} != in-process best_of {pair.best_total!r}"
            )
        for problem in problems:
            self.fail(op, pair, "check", problem)

    def optimize_cli(self, pair: PairState) -> float:
        self.op()
        child = self.run_child(self.mpcost_argv(
            "optimize", str(pair.path), pair.profile_name, "--heuristic", "best", "--json"))
        if child.returncode != 0:
            self.fail("optimize", pair, "exit",
                      f"exit {child.returncode}: {child.stderr}")
        else:
            self.check_optimize_doc("optimize", pair, child.stdout)
        self.round_peak_mib = max(self.round_peak_mib, child.maxrss_mib)
        return child.wall

    def compare_cli(self, pair: PairState) -> float:
        """Every call counts, failed ones too: the user waited for them."""
        self.op()
        child = self.run_child(self.mpcost_argv(
            "compare", str(pair.path), pair.profile_name, "--json"))
        self.round_peak_mib = max(self.round_peak_mib, child.maxrss_mib)
        pair.exact_total = None
        if child.returncode != 0:
            self.fail("compare", pair, "exit",
                      f"exit {child.returncode}: {child.stderr}")
            return child.wall
        try:
            rows = {r["heuristic"]: r["total"] for r in json.loads(child.stdout)["rows"]}
            yao = rows["pure-yao"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            self.fail("compare", pair, "json", repr(e))
            return child.wall
        problems = []
        if not close(yao, pair.yao_total):
            problems.append(f"compare: pure-yao {yao!r} != re-evaluated {pair.yao_total!r}")
        exact = rows.get("exhaustive")
        if exact is None and self.workload_name == "exact-small":
            problems.append("compare: exhaustive row missing on exact-small")
        if exact is not None:
            beaten = [h for h, t in rows.items() if t < exact]
            if pair.best_total is not None and pair.best_total < exact:
                beaten.append("best_of")
            if beaten:
                problems.append(f"compare: {beaten} cheaper than exhaustive {exact!r}")
        for problem in problems:
            self.fail("compare", pair, "check", problem)
        pair.exact_total = exact
        return child.wall

    def optimize_traced(self, pair: PairState, rnd: int) -> dict:
        """In-process ``cli.main optimize`` under the tracer; checks every
        strategy result the wrappers saw."""
        self.op()
        out = self.work / "optimize.json"
        try:
            with self.tracer.installed("optimize", rnd):
                with self.tracer.span("cli.main"):
                    code = mpcost.cli.main([
                        "optimize", str(pair.path), pair.profile_name,
                        "--heuristic", "best", "--json", "--out", str(out)])
        except Exception as e:  # any exception is a failed operation
            code = repr(e)
        results = self.tracer.take_results()
        if code != 0:
            self.fail("optimize", pair, "exit", f"cli.main returned {code}")
            return {"output_bytes": 0, "sweeps": 0}
        raw = out.read_bytes()
        self.check_optimize_doc("optimize", pair, raw)
        with self.tracer.installed("check", rnd):
            for r in results:
                self.record_digest(pair, r.strategy, r.assignment)
                pair.candidates[r.strategy] = r.total
                for problem in self.check_assignment(pair, r.strategy, r.assignment,
                                                     r.total):
                    self.fail("optimize", pair, "check", problem)
        sweeps = sum(r.iterations for r in results if r.strategy == "hill-climbing")
        return {"output_bytes": len(raw), "sweeps": sweeps}

    def exact_traced(self, pair: PairState, rnd: int) -> dict:
        """In-process exhaustive solver under the tracer and tracemalloc."""
        self.op()
        tracemalloc.start()
        try:
            with self.tracer.installed("exact", rnd):
                result = mpcost.exhaustive_optimal(pair.circuit, pair.profile)
        except mpcost.errors.SearchSpaceTooLarge:
            result = None  # the cap is the designed bypass, not a failure
        except Exception as e:  # any other exception is a failed operation
            result = None
            self.fail("exact", pair, "exception", repr(e))
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        self.tracer.take_results()
        if result is None:
            return {"peak_mib": peak, "exact_total": None}
        self.record_digest(pair, "exhaustive", result.assignment)
        problems = self.check_assignment(pair, "exhaustive", result.assignment,
                                         result.report.total)
        beaten = [s for s, t in pair.candidates.items() if t < result.report.total]
        if beaten:
            problems.append(f"exhaustive: {beaten} cheaper than the optimum")
        for problem in problems:
            self.fail("exact", pair, "check", problem)
        return {"peak_mib": peak, "exact_total": result.report.total}

    # -- rounds -------------------------------------------------------------------

    def repeated(self, name: str, pair: PairState, op, scale) -> None:
        """Run ``op`` (it returns its wall time) once, or while cheap until
        MIN_OP_S, with a calibration after each call; sample each wall
        time and its value ``scale``d by the median calibration."""
        walls, kernels = [], [self.kernel_s]
        while not walls or (sum(walls) < MIN_OP_S and len(walls) < MAX_OP_REPS):
            walls.append(op(pair))
            kernels.append(speed.calibrate())
            self.sample("machine.kernel_s", kernels[-1])
        self.kernel_s = kernels[-1]
        factor = speed.KERNEL_REF_S / statistics.median(kernels)
        for wall in walls:
            self.sample(name, scale(wall, factor), pair)
            self.sample(name + ".wall", wall, pair)

    def untraced_round(self, rnd: int) -> None:
        self.round_peak_mib = 0.0
        for pair in self.pairs:
            self.measure_base()
            self.repeated("best_of_s", pair, self.best_of_inprocess,
                          self.scale_inprocess)
            self.repeated("optimize_s", pair, self.optimize_cli, self.scale_process)
            self.repeated("compare_s", pair, self.compare_cli, self.scale_process)
        self.sample("peak_rss_mib", self.round_peak_mib)
        if all(pair.best_total is not None for pair in self.pairs):
            self.sample("cost_ratio", cost_ratio(self.pairs))
        if all(p.best_total is not None and p.exact_total for p in self.pairs):
            self.sample("best_over_exact",
                        geomean([p.best_total / p.exact_total for p in self.pairs]))

    def traced_round(self, rnd: int) -> None:
        base = 0.0
        output_bytes = 0
        sweeps = 0
        exact_peak = 0.0
        over_exact = []
        for pair in self.pairs:
            base += self.best_of_inprocess(pair)
            traced = self.optimize_traced(pair, rnd)
            output_bytes += traced["output_bytes"]
            sweeps += traced["sweeps"]
            exact = self.exact_traced(pair, rnd)
            exact_peak = max(exact_peak, exact["peak_mib"])
            if exact["exact_total"] is not None and pair.best_total is not None:
                over_exact.append(pair.best_total / exact["exact_total"])
        t = self.tracer

        def total(name, op="optimize"):
            return math.fsum(t.spans[i].duration for i in t.select(name, op, rnd))

        def self_total(name, op="optimize"):
            return math.fsum(t.self_time(i) for i in t.select(name, op, rnd))

        best_total = total("optimizer.best_of")
        winner = 0.0
        for i in t.select("optimizer.best_of", "optimize", rnd):
            winner += next(
                (s.duration for s in t.spans
                 if s.parent == i and s.label == t.spans[i].label),
                0.0,
            )
        values = {
            "cli.main_s": total("cli.main"),
            "cli.self_s": self_total("cli.main"),
            "cli.output_bytes": output_bytes,
            "optimizer.fixed_sharing_s": total("optimizer.fixed_sharing"),
            "optimizer.bottom_up_s": total("optimizer.bottom_up"),
            "optimizer.top_down_s": total("optimizer.top_down"),
            "optimizer.hill_climbing_s": total("optimizer.hill_climbing"),
            "optimizer.hill_climbing.self_s": self_total("optimizer.hill_climbing"),
            "optimizer.hill_climbing.sweeps": sweeps,
            "cost_model.total_cost_s": total("cost_model.total_cost"),
            "cost_model.total_cost_calls": len(
                t.select("cost_model.total_cost", "optimize", rnd)),
            "cost_model.lookups": t.lookups.get(("optimize", rnd), 0),
            "cost_model.check_feasible_s": total("cost_model.check_feasible", "check"),
            "optimizer.best_of_s": best_total,
            "optimizer.best_of.winner_share": winner / best_total if best_total else 0.0,
            "trace.best_of.unattributed_s": self_total("optimizer.best_of"),
            "trace.overhead_share": best_total / base - 1.0 if base else 0.0,
            "optimizer.exhaustive_optimal_s": total("optimizer.exhaustive_optimal", "exact"),
            "optimizer.exhaustive_optimal.peak_mib": exact_peak,
        }
        for name, value in values.items():
            self.sample(name, value)
        if over_exact and len(over_exact) == len(self.pairs):
            self.sample("best_over_exact", geomean(over_exact))

    # -- the run --------------------------------------------------------------------

    def measure(self) -> None:
        self.prepare()
        self.setup_phase()
        deadline = time.perf_counter() + self.seconds
        rnd = 0
        while True:
            # At least one round; another only if about half of it fits.
            rnd += 1
            start = time.perf_counter()
            if self.traced:
                self.traced_round(rnd)
            else:
                self.untraced_round(rnd)
            now = time.perf_counter()
            if deadline - now < (now - start) / 2:
                break

    def static_metrics(self) -> dict[str, float]:
        """Per-layer figures that do not change between rounds."""
        spaces = [
            math.prod(len(p.profile.schemes_for(p.circuit.nodes[i].op))
                      for i in p.circuit.op_node_ids)
            for p in self.pairs
        ]
        to_json = self.tracer.select("circuit.circuit_to_json", "prep", 0)
        return {
            "circuit.nodes": sum(len(p.circuit.nodes) for p in self.pairs),
            "circuit.circuit_to_json_s": math.fsum(
                self.tracer.spans[i].duration for i in to_json),
            "optimizer.exhaustive_optimal.log10_space": math.log10(sum(spaces)),
        }

    def digest_summary(self) -> dict[str, int]:
        mismatches = unrecorded = 0
        for key, value in self.digests.items():
            golden = self.golden.get(self.digest_keys[key])
            if golden is None:
                unrecorded += 1
            elif golden != value:
                mismatches += 1
        return {"digest_mismatches": mismatches, "digest_unrecorded": unrecorded}

    def report(self) -> dict:
        """Every figure the run measured, with quartiles and sample counts."""
        metrics = {name: summed_quartiles(per_pair)
                   for name, per_pair in self.samples.items()}
        if self.traced:
            for name, value in self.static_metrics().items():
                metrics[name] = {"value": value, "q1": value, "q3": value, "n": 1}
        return {
            "metrics": metrics,
            "attempted": self.attempted,
            "failed": self.failed_ops(),
            "failures": self.failures,
            "digests": self.digests,
            **self.digest_summary(),
        }
