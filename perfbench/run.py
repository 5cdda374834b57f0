"""mpcost benchmark: CLI and library wall time, assignment cost quality and
per-module timings, with every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload case-studies --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (a separate, traced run). The metric names, units and workloads
are declared in ``BENCHMARK.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it are a table of every figure with its quartiles and
sample count, and the failed operations. ``--report FILE`` also writes
the full run (metadata, quartiles, failures, assignment digests and, when
traced, every span) as JSON.

The benchmark measures the sources in ``src/`` next to this directory and
exits with status 2 when they are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
#: Figures printed in the table and report but not declared in
#: BENCHMARK.json: raw wall times (``<metric>.wall``), the speed probes,
#: and figures that exist on one workload only or can be 0.
REPORT_ONLY_UNITS = {
    "best_over_exact": "ratio",
    "failed_ops": "share",
    "machine.kernel_s": "s",
    "machine.base_s": "s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of BENCHMARK.json's workloads, or large-synthetic")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path,
                        help="also write the full run as JSON to this file")
    return parser.parse_args(argv)


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mpcost").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def print_table(report: dict, units: dict) -> None:
    print(f"{'metric':<42}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, m in report["metrics"].items():
        print(f"{name:<42}{m['value']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}"
              f"{m['n']:>5}  {units[name]}")
    print(f"failed operations: {report['failed']} of {report['attempted']}")
    for f in report["failures"]:
        detail = " ".join(f["detail"].split())
        print(f"  {f['op']} {f['pair']} [{f['kind']}]: {detail[-300:]}")
    print(f"assignment digests: {len(report['digests'])}, "
          f"differing from the recorded ones: {report['digest_mismatches']}, "
          f"not recorded: {report['digest_unrecorded']}")


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if not (SRC / "mpcost" / "__init__.py").is_file():
        print(f"perfbench: no mpcost package under {SRC}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # needs mpcost on the path

    if args.workload not in measure.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Stopped from outside: unwind, so the running child is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        run = measure.Run(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
        run.measure()
        report = run.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["metrics"]["failed_ops"] = measure.quartiles(
        [report["failed"] / report["attempted"]])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    units.update({f"{m['name']}.wall": m["unit"] for m in spec["end_to_end"]})
    missing = [m["name"] for m in declared if m["name"] not in report["metrics"]]
    report["meta"] = run_metadata(args)
    print("run: " + json.dumps(report["meta"]))
    print_table(report, units)
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    if args.report:
        if args.trace:
            report["spans"] = run.tracer.to_json()
        args.report.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": run.check_failures == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": report["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
