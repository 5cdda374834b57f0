"""Build, inspect, evaluate and serialize circuits.

Run: python demos/01_circuits.py
"""

from mpcost import (
    build,
    circuit_from_json,
    circuit_to_json,
    evaluate_plaintext,
)

# A circuit is a list of (op, inputs[, party[, name]]) entries; ids are
# assigned in order, and an entry may only reference earlier entries.
# This one computes (x + y) * (x - y) for a server x and a client y.
circuit = build([
    ("in", [], "server", "x"),
    ("in", [], "client", "y"),
    ("add", [0, 1]),
    ("sub", [0, 1]),
    ("mul", [2, 3]),
    ("out", [4], None, "difference_of_squares"),
])

print("nodes:")
for node in circuit.nodes:
    label = f"  {node.id}: {node.op.value}{list(node.inputs)}"
    if node.name:
        label += f"  ({node.name})"
    print(label)

# Every node reads only earlier ids, so the id order is a topological order.
print("\ntopological order:", [node.id for node in circuit.nodes])

# Evaluation is plain modular arithmetic: values live in Z_{2^bitwidth}.
outputs = evaluate_plaintext(circuit, {0: 20, 1: 3})
print("20^2 - 3^2 =", outputs[5])

# Wrap-around at the bit width, here 2^32
outputs = evaluate_plaintext(circuit, {0: 0, 1: 1})
print("0^2 - 1^2 mod 2^32 =", outputs[5])

# The JSON form is canonical: encoding a decoded circuit reproduces the
# text byte for byte, which keeps files diff-friendly.
text = circuit_to_json(circuit)
print("\nJSON:", text.strip()[:80], "...")
assert circuit_from_json(text) == circuit
assert circuit_to_json(circuit_from_json(text)) == text
print("round trip: stable")
