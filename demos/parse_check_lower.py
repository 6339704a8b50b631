"""
From program text to a scheduled circuit
========================================

Parse a program, pretty-print it back, catch well-formedness mistakes,
then lower the teleportation program to a generalized circuit and look
at its gates, prerequisite order, decomposition tree, and schedules.
"""
from importlib import resources

import qcasm
from qcasm import circuit

# ---------------------------------------------------------------------------
# Parsing and pretty-printing.
# ---------------------------------------------------------------------------

source = """
# surface sugar: loops, binders, and guarded phases
param n = 3
forall i in [1, n]: H(i);
for k = 2 to n: CNOT(k - 1, k);
p := SM(1);
if p = 1 then (-1)^p Z(2)
"""
program = qcasm.parse(source)
print("pretty-printed:")
print(" ", qcasm.pretty(program).replace("\n", "\n  "))

# Elaboration unrolls loops and binders and resolves every parameter.
ground = qcasm.elaborate(program)
print("\nafter elaboration:")
print(" ", qcasm.pretty(ground).replace("\n", "\n  "))

# ---------------------------------------------------------------------------
# Static checking: every diagnostic carries the violated clause.
# ---------------------------------------------------------------------------

broken = qcasm.parse("p := SM(1) || q := SM(1)")   # both gates touch wire 1
_, diagnostics = qcasm.check_program(broken)
for d in diagnostics:
    print("\ndiagnostic:", d.render())

# ---------------------------------------------------------------------------
# Lowering the teleportation program.
# ---------------------------------------------------------------------------

# prepare() elaborates, lowers and schedules once, the path that every
# entry point and every CLI subcommand takes; the result holds the
# circuit, its decomposition tree and the greedy schedule.
programs = resources.files("qcasm") / "programs"
teleport = qcasm.parse((programs / "teleport.qcasm").read_text())
registry = qcasm.load_registry(str(programs / "teleport_demo.json"))
prep = qcasm.prepare(teleport, None, registry)
circ = prep.circuit

print(f"\nteleport lowers to {len(circ.gates)} gates on {circ.width} wires:")
for gid in circ.gids:
    gate = circ.gate(gid)
    after = ", ".join(f"{a}.{b}" for a, b in sorted(circ.prereq[gid])) or "-"
    print(f"  {gid[0]}.{gid[1]}: {gate.label:<14} after: {after}")

# The decomposition tree records how sequential and parallel composition
# built the program; canonicalizing flattens redundant grouping.
print("\ncanonical decomposition:", circuit.tree_text(qcasm.canonicalize(prep.tree)))

# Schedules: the greedy one fires everything as early as possible; the
# full enumeration lists every legal division into bouts.
print("greedy schedule:", prep.schedule)
print("legal schedules:", len(qcasm.all_schedules(circ)))

# A DOT rendering for graphviz, classical dependencies dashed.
print("\nDOT output starts with:")
print("  " + qcasm.to_dot(circ).splitlines()[0])
