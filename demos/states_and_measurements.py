"""
States, gates, and general measurements
=======================================

A tour of the math layer through small programs: dense state vectors,
the standard gate library, and measurement families {A_i} that need not
be projective — the only requirement is completeness,
sum_i A_i^dag A_i = I.  Each program runs on the simulator with ``run``
(one seeded outcome) or ``enumerate_branches`` (every outcome with its
exact probability and post-measurement state).
"""
import numpy as np

import qcasm


def show(state):
    """Amplitudes rounded for printing; + 0 turns -0 into 0."""
    return np.round(state.amplitudes, 6) + 0


# ---------------------------------------------------------------------------
# States: wire 1 is the most significant bit of the basis index.
# ---------------------------------------------------------------------------

plus = qcasm.make_state("plus", 1)
print("|+> amplitudes:", show(plus))

# A two-wire basis state written as a bitstring.  "10" puts wire 1 in
# |1> and wire 2 in |0>, which is basis index 2.
ten = qcasm.make_state("10", 2)
print("|10> has amplitude 1 at index", int(np.argmax(np.abs(ten.amplitudes))))

# ---------------------------------------------------------------------------
# Unitaries are the one-outcome measurement families.
# ---------------------------------------------------------------------------

H = qcasm.std_gate("H")
print("\nH has", len(H.outcomes), "outcome; its label is", H.outcomes[0].label)

# A Bell pair: H on wire 1, then CNOT on wires (1, 2).  With no
# measurement the program has one branch, of probability 1.
BELL = "ket 00 on 1, 2; H(1); CNOT(1, 2)"
bell = qcasm.run(qcasm.parse(BELL))
print("Bell state amplitudes:", show(bell.state))

# ---------------------------------------------------------------------------
# The standard single-qubit measurement SM and the parity measurement PM.
# Each branch carries the outcome read, its probability and the state
# that outcome leaves.
# ---------------------------------------------------------------------------

for b in qcasm.enumerate_branches(qcasm.parse(BELL + "; a := SM(1)")).branches:
    print(f"P(SM on wire 1 reads {b.store['a']}) = {b.probability:.3f}, "
          f"state after: {show(b.state)}")

parity = qcasm.enumerate_branches(qcasm.parse(BELL + "; e := PM(1, 2)"))
print("PM on the Bell pair:",
      {b.store["e"]: round(b.probability, 3) for b in parity.branches},
      "pruned mass", parity.pruned_mass)

# ---------------------------------------------------------------------------
# A custom non-projective family: amplitude damping with rate g.
# Completeness A0^dag A0 + A1^dag A1 = I holds, yet neither operator is
# a projector.  validate_family checks the completeness sum for us.
# ---------------------------------------------------------------------------

g = 0.3
damp = qcasm.make_family("damp", 1, [
    (0, [[1, 0], [0, np.sqrt(1 - g)]]),
    (1, [[0, np.sqrt(g)], [0, 0]]),
])
print("\ndamp is complete:", qcasm.validate_family(damp) is None)

# A program uses a family that a registry holds.
registry = qcasm.Registry()
registry.register_family(damp)
decay = qcasm.enumerate_branches(qcasm.parse("ket 1 on 1; d := damp(1)"), registry=registry)
for b in decay.branches:
    print(f"damp on |1> reads {b.store['d']} with probability {b.probability:.3f}, "
          f"state after: {show(b.state)}")

# An incomplete family is rejected outright, naming the offending entry.
try:
    qcasm.make_family("lossy", 1, [(0, [[1, 0], [0, 0.5]])])
except qcasm.QcasmError as exc:
    print("incomplete family rejected:", exc)

# ---------------------------------------------------------------------------
# Registries also hold named input states, and build controlled forms.
# ---------------------------------------------------------------------------

registry.register_family(qcasm.unitary_family("T", np.diag([1, np.exp(1j * np.pi / 4)])))
registry.register_state("psi", np.array([0.6, 0.8]))
print("\nregistry resolves T:", registry.family("T").name)
print("registry resolves cT (controlled build):", registry.family("cT").arity, "wires")
psi = qcasm.run(qcasm.parse("psi on 1; T(1)"), registry=registry)
print("T on psi:", show(psi.state))
