"""Command-line front end.

Subcommands: ``optimize``, ``compare``, ``gen``, ``eval``,
``derive-profile`` and ``profiles list``. Wherever a profile is
expected, either a JSON file path or the name of a bundled profile
(``mpcost profiles list``) is accepted.

Exit codes are stable: 0 success, 1 parse/validation problems (including
usage errors), 2 infeasible or unsupported scheme requests, 3 exhaustive
search-space cap exceeded.

A process pays only for the command it runs: ``gen`` and
``derive-profile`` import their modules when they run, and :func:`main`
adds arguments only to the invoked subcommand's parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import profiles as builtin_profiles
from .circuit import (
    Circuit,
    circuit_to_json,
    evaluate_plaintext,
    inputs_by_name,
    load_circuit,
    op_from_name,
    parse_json,
    parse_node_id,
)
from .cost_model import (
    Compiled,
    CostProfile,
    CostReport,
    assignment_to_json,
    load_profile,
    profile_to_json,
)
from .errors import (
    InfeasibleAssignment,
    InvalidArgument,
    MpcostError,
    ParseError,
    SearchSpaceTooLarge,
    UnsupportedScheme,
)
from .optimizer import (
    SolverLimits,
    best_of,
    bottom_up,
    candidates,
    default_scheme,
    exact_pass,
    exhaustive_optimal,
    fixed_sharing,
    hill_climbing,
    top_down,
)

HEURISTICS = ("pure", "bottom-up", "top-down", "hill", "exhaustive", "best")
UNIT_FACTOR = {"cent": 1.0, "milli-cent": 1e3, "micro-cent": 1e6}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_profile(value: str) -> CostProfile:
    if os.path.exists(value):
        return load_profile(value)
    if value in builtin_profiles.BUILTIN_PROFILES:
        return builtin_profiles.load_builtin(value)
    raise ParseError(
        f"{value!r} is neither a profile file nor a bundled profile "
        f"(available: {', '.join(builtin_profiles.BUILTIN_PROFILES)})"
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report_dict(report: CostReport, factor: float, per_node: bool) -> dict:
    doc = {
        "total_compute": report.total_compute * factor,
        "total_network": report.total_network * factor,
        "total": report.total * factor,
    }
    if per_node:
        doc["per_node"] = {
            str(i): {
                "op_compute": rec.op_compute * factor,
                "op_network": rec.op_network * factor,
                "conv_compute": rec.conv_compute * factor,
                "conv_network": rec.conv_network * factor,
            }
            for i, rec in report.per_node.items()
        }
    return doc


def _run_heuristic(args, circuit: Circuit, profile: CostProfile):
    name = args.heuristic
    if args.scheme is not None and name not in ("pure", "hill"):
        raise InvalidArgument(
            f"--scheme applies only to --heuristic pure and hill, not {name}")
    limits = SolverLimits(
        max_space=args.max_space,
        max_passes=args.max_passes,
    )
    if name == "pure":
        scheme = args.scheme or default_scheme(circuit, profile)
        return fixed_sharing(circuit, profile, scheme)
    if name == "bottom-up":
        return bottom_up(circuit, profile)
    if name == "top-down":
        return top_down(circuit, profile)
    if name == "hill":
        init = args.scheme or default_scheme(circuit, profile)
        return hill_climbing(circuit, profile, init, limits)
    if name == "exhaustive":
        return exhaustive_optimal(circuit, profile, limits)
    return best_of(circuit, profile, limits)


def cmd_optimize(args) -> int:
    circuit = load_circuit(args.circuit)
    profile = _resolve_profile(args.profile)
    result = _run_heuristic(args, circuit, profile)
    factor = UNIT_FACTOR[args.unit]
    report = result.report
    if args.json:
        doc = {
            "heuristic": result.heuristic,
            "iterations": result.iterations,
            "limit_exceeded": result.limit_exceeded,
            "unit": args.unit,
            "assignment": {str(k): result.assignment[k] for k in sorted(result.assignment)},
            "report": _report_dict(report, factor, per_node=True),
        }
        _emit(json.dumps(doc) + "\n", args.out)
        return 0
    lines = [
        f"heuristic: {result.heuristic}    iterations: {result.iterations}"
        + ("    (pass limit hit)" if result.limit_exceeded else ""),
        f"{'':14}{'compute':>16}{'network':>16}{'total':>16}",
        f"{'cost (' + args.unit + ')':14}"
        f"{report.total_compute * factor:>16.6e}"
        f"{report.total_network * factor:>16.6e}"
        f"{report.total * factor:>16.6e}",
        "assignment: " + assignment_to_json(result.assignment).rstrip("\n"),
        "report: " + json.dumps(_report_dict(report, factor, per_node=False)),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    circuit = load_circuit(args.circuit)
    profile = _resolve_profile(args.profile)
    limits = SolverLimits(max_space=args.max_space, max_passes=args.max_passes)
    baseline = default_scheme(circuit, profile)
    compiled = Compiled(circuit, profile)
    # Each row keeps the sums it was scored with, the exact row those of
    # its search. No row needs per-node records.
    runs = candidates(compiled, limits)
    labels = [f"pure-{baseline}", "hill-climbing", "top-down", "bottom-up"]
    notices = []
    try:
        runs["exhaustive"] = (*exact_pass(compiled, limits), {})
        labels.append("exhaustive")
    except SearchSpaceTooLarge as e:
        notices.append(f"exhaustive skipped: {e}")
    runs[f"pure-{baseline}"] = runs[f"fixed:{baseline}"]
    reports = []
    for label in labels:
        sums, idx, _ = runs[label]
        reports.append((label, compiled.report(idx, sums), sum(sums)))

    pure_total = reports[0][1].total
    best_total = min(exact for _, _, exact in reports)  # exact sums rank
    factor = UNIT_FACTOR[args.unit]
    rows = [
        {
            "heuristic": label,
            "compute": rep.total_compute * factor,
            "network": rep.total_network * factor,
            "total": rep.total * factor,
            # vs the pure baseline, in [0, 1]
            "reduction": 0.0 if pure_total == 0 else 1.0 - rep.total / pure_total,
            "winner": exact == best_total,
        }
        for label, rep, exact in reports
    ]

    if args.json:
        doc = {"unit": args.unit, "rows": rows, "notices": notices}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    header = (
        f"{'technique':<16}{'compute':>16}{'network':>16}{'total':>16}"
        f"{'vs pure-' + baseline:>14}"
    )
    lines = [f"unit: {args.unit}", header]
    for r in rows:
        mark = "*" if r["winner"] else " "
        lines.append(
            f"{mark}{r['heuristic']:<15}{r['compute']:>16.6e}{r['network']:>16.6e}"
            f"{r['total']:>16.6e}{100 * r['reduction']:>13.2f}%"
        )
    lines.extend(notices)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    from .casegen import (
        BiometricSpec,
        MatMulSpec,
        gen_biometric,
        gen_chain,
        gen_matmul,
        gen_random,
        node_count_summary,
    )

    if args.kind == "biometric":
        circuit = gen_biometric(
            BiometricSpec(rows=args.rows, attrs=args.attrs, bitwidth=args.bitwidth)
        )
    elif args.kind == "matmul":
        circuit = gen_matmul(MatMulSpec(n=args.n, bitwidth=args.bitwidth))
    elif args.kind == "chain":
        circuit = gen_chain(op_from_name(args.op), args.len, bitwidth=args.bitwidth)
    else:
        weights = None
        if args.op_weights:
            weights = {}
            for item in args.op_weights.split(","):
                name, _, value = item.partition("=")
                try:
                    weight = float(value)  # value is "" when item has no "="
                except ValueError:
                    raise InvalidArgument(
                        f"op_weights: {item!r} is not op=weight with a numeric weight"
                    ) from None
                try:
                    op = op_from_name(name.strip())
                except ParseError:
                    raise InvalidArgument(
                        f"op_weights: unknown op {name.strip()!r} in {item!r}"
                    ) from None
                weights[op] = weight
        circuit = gen_random(args.seed, args.n_ops, weights, bitwidth=args.bitwidth)
    _emit(circuit_to_json(circuit), args.out)
    counts = node_count_summary(circuit)
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"{len(circuit.nodes)} nodes ({summary})", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    circuit = load_circuit(args.circuit)
    with open(args.inputs, "r", encoding="utf-8") as f:
        doc = parse_json(f.read(), "inputs")
    if not isinstance(doc, dict):
        raise ParseError("inputs JSON must map in-node ids or names to integers")
    by_name = inputs_by_name(circuit)
    inputs: dict[int, int] = {}
    for key, value in doc.items():
        if key in by_name:
            inputs[by_name[key]] = value
        else:
            inputs[parse_node_id(key, "inputs")] = value
    outputs = evaluate_plaintext(circuit, inputs)
    doc_out = {}
    for i in circuit.out_ids:
        label = circuit.nodes[i].name or str(i)
        doc_out[label] = outputs[i]
    _emit(json.dumps(doc_out, indent=2) + "\n", args.out)
    return 0


def cmd_derive_profile(args) -> int:
    from .derive import derive_profile, load_measurements, load_prices

    measurements, schemes = load_measurements(args.measurements)
    prices = load_prices(args.prices)
    profile = derive_profile(
        measurements, prices, args.name, scale=args.scale, schemes=schemes
    )
    _emit(profile_to_json(profile), args.out)
    return 0


def cmd_profiles_list(args) -> int:
    for name in builtin_profiles.builtin_names():
        print(name)
    return 0


def _add_limits(p) -> None:
    defaults = SolverLimits()
    p.add_argument("--max-space", type=int, default=defaults.max_space,
                   help="cap on the exhaustive search-space size")
    p.add_argument("--max-passes", type=int, default=defaults.max_passes,
                   help="cap on hill-climbing sweeps")


def _add_output(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a single JSON document")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--unit", choices=sorted(UNIT_FACTOR), default="cent",
                   help="unit for reported costs (default: cent)")


def _optimize_arguments(p) -> None:
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("profile", help="profile JSON file or bundled profile name")
    p.add_argument("--heuristic", choices=HEURISTICS, default="best")
    p.add_argument("--scheme",
                   help="scheme for 'pure' and the starting point for 'hill'")
    _add_limits(p)
    _add_output(p)
    p.set_defaults(func=cmd_optimize)


def _compare_arguments(p) -> None:
    p.add_argument("circuit")
    p.add_argument("profile")
    _add_limits(p)
    _add_output(p)
    p.set_defaults(func=cmd_compare)


def _gen_arguments(p) -> None:
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("biometric", help="nearest-record matching circuit")
    g.add_argument("--rows", type=int, default=30)
    g.add_argument("--attrs", type=int, default=5)
    g = gen_sub.add_parser("matmul", help="n-by-n matrix product circuit")
    g.add_argument("--n", type=int, default=5)
    g = gen_sub.add_parser("chain", help="sequential benchmark chain")
    g.add_argument("--op", required=True)
    g.add_argument("--len", type=int, required=True)
    g = gen_sub.add_parser("random", help="seeded random DAG")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-ops", type=int, default=10)
    g.add_argument("--op-weights",
                   help="comma list like 'add=3,mul=1' (default: uniform)")
    for g in gen_sub.choices.values():
        g.add_argument("--bitwidth", type=int, default=32)
        g.add_argument("--out", help="write the circuit here instead of stdout")
        g.set_defaults(func=cmd_gen)


def _eval_arguments(p) -> None:
    p.add_argument("circuit")
    p.add_argument("inputs", help="JSON mapping in-node ids or names to values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)


def _derive_profile_arguments(p) -> None:
    p.add_argument("measurements")
    p.add_argument("prices")
    p.add_argument("--name", default="derived")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_derive_profile)


def _profiles_arguments(p) -> None:
    prof_sub = p.add_subparsers(dest="profiles_command", required=True)
    g = prof_sub.add_parser("list", help="list bundled profile names")
    g.set_defaults(func=cmd_profiles_list)


#: Subcommand -> (help line, function adding its arguments), in listing order.
COMMANDS = {
    "optimize": ("assign schemes with one strategy", _optimize_arguments),
    "compare": ("run all strategies and tabulate them", _compare_arguments),
    "gen": ("generate a circuit", _gen_arguments),
    "eval": ("run the plaintext evaluator", _eval_arguments),
    "derive-profile": ("price raw measurements into a profile",
                       _derive_profile_arguments),
    "profiles": ("bundled profile utilities", _profiles_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser. It lists every subcommand, but gives only
    ``command``'s parser its arguments, or every parser when ``command`` is
    ``None``: argparse reads the terminal size on each ``add_argument``."""
    parser = _Parser(
        prog="mpcost",
        description="Assign secret-sharing schemes to circuit nodes so the "
        "modeled cloud cost (compute + network) is minimal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Anything but a command first (--help, a misspelt command) is parsed,
    # and reported, by the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except SearchSpaceTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (InfeasibleAssignment, UnsupportedScheme) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MpcostError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
