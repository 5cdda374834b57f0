"""Cost profiles: bundled data, per-node pricing, and deriving your own.

Run: python demos/02_cost_profiles.py
"""

from mpcost import (
    OpKind,
    PriceSpec,
    RawMeasurement,
    build,
    builtin_names,
    derive_profile,
    load_builtin,
    total_cost,
)
from mpcost.circuit import COMPUTE_OPS

print("bundled profiles:", ", ".join(builtin_names()))

profile = load_builtin("inter-m3.medium")
print(f"\n{profile.name}: schemes {profile.schemes}, scale {profile.scale}")
print("mul under each scheme (compute, network) in cents:")
for scheme in profile.schemes_for(OpKind.MUL):
    print(f"  {scheme:>10}:", profile.op_cost_cents(OpKind.MUL, scheme))
print("yao -> arithmetic conversion:", profile.conv_cost_cents("yao", "arithmetic"))

# Pricing an assigned circuit: each node pays its operation plus one
# conversion per input edge whose producer uses a different scheme, and
# the report keeps that breakdown per node.
circuit = build([("in", []), ("in", []), ("mul", [0, 1]), ("out", [2])])
assignment = {0: "yao", 1: "yao", 2: "arithmetic", 3: "arithmetic"}
report = total_cost(circuit, assignment, profile)
rec = report.per_node[2]
print("\nmul on arithmetic with yao inputs:")
print(f"  op      (compute, network) = ({rec.op_compute:.3e}, {rec.op_network:.3e})")
print(f"  convert (compute, network) = ({rec.conv_compute:.3e}, {rec.conv_network:.3e})")
print(f"  node total: {rec.total:.6e} cents")
print(f"  circuit total: {report.total:.6e} cents")

# Deriving a profile: externally measured per-op seconds and bytes are
# priced with a VM-hour and per-GB rate sheet.
prices = PriceSpec(vm_rate_a=7.0, vm_rate_b=10.1, net_rate=6.5)
measurements = [
    RawMeasurement.for_op(op, "yao", seconds_per_op=1e-3, bytes_per_op=4160)
    for op in COMPUTE_OPS
]
measurements += [
    RawMeasurement.for_op(OpKind.ADD, "arithmetic", 1e-5, 0),
    RawMeasurement.for_op(OpKind.MUL, "arithmetic", 4e-4, 96),
    RawMeasurement.for_conversion("arithmetic", "yao", 2e-4, 2500),
    RawMeasurement.for_conversion("yao", "arithmetic", 2e-4, 1700),
]
derived = derive_profile(measurements, prices, name="my-cloud")
p, n = derived.op_cost_cents(OpKind.MUL, "arithmetic")
print(f"\nderived profile '{derived.name}': mul/arithmetic = "
      f"({p:.3e}, {n:.3e}) cents")
