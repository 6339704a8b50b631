"""A deferred-measurement oracle for the branch walk and the sampler.

Blass and Gurevich ("Quantum circuits with classical channels and the
principle of deferred measurements") give the programs that qcasm runs
an independent semantics, as measurement-free programs on more wires:

- each gate that can measure, with operators A_i on its wires, becomes
  the isometry |psi>|0> -> sum_i A_i |psi>|i> onto fresh ancilla wires
  that hold its label;
- each guard becomes a control on the ancillas of the labels it reads.

One dense run of the mapped program holds every branch at once.  Its
projection on one assignment of the ancillas is that branch's state,
unnormalized, and its squared norm is the branch's probability.

The oracle reads the circuit's gates (ids, wires, output variables,
guards and families) and the firing order from ``prepare``, and the
input state from ``PreparedProgram.input_state``.  It applies operators
by its own tensor contraction and evaluates guards with its own
evaluator, so it shares no code with the branch walk, the lattice walk,
pruning or the sampler.
"""
import itertools
import operator

import numpy as np
import pytest

from qcasm import ast as A
from qcasm import qmath as Q
from qcasm import sim as S

from conftest import corpus_program

OPS = {"=": operator.eq, "<": operator.lt, "xor": operator.xor, "+": operator.add,
       "-": operator.sub, "*": operator.mul, "mod": operator.mod, "div": operator.floordiv,
       "and": lambda a, b: a and b, "or": lambda a, b: a or b}


def evaluate(e, store: dict):
    """A guard expression's value on the outcome labels in ``store``."""
    if isinstance(e, A.IntLit):
        return e.value
    if isinstance(e, A.Name):
        return store[e.ident]
    if isinstance(e, A.UnOp):
        value = evaluate(e.operand, store)
        return not value if e.op == "not" else -value
    return OPS[e.op](evaluate(e.left, store), evaluate(e.right, store))


def names(e) -> set:
    if isinstance(e, A.Name):
        return {e.ident}
    if isinstance(e, A.UnOp):
        return names(e.operand)
    if isinstance(e, A.BinOp):
        return names(e.left) | names(e.right)
    return set()


def contract(psi: np.ndarray, op: np.ndarray, axes: list[int]) -> np.ndarray:
    """``op`` applied to the ``axes`` of the tensor ``psi``, the first
    axis the most significant bit of the operator's index."""
    k = len(axes)
    out = np.tensordot(op.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def deferred_branches(prep: S.PreparedProgram) -> dict:
    """{outcome assignment: (probability, store, unnormalized state)} of
    every assignment of the ancillas with probability above PRUNE_EPS,
    from one run of the measurement-free program."""
    width = prep.circuit.width
    gates = [gate for _step, gate in prep.firing]
    registers, axis = {}, width  # gate id -> its ancilla axes
    for g in gates:
        labels = [label for f in g.families for label in f.labels]
        if any(len(f.outcomes) > 1 for f in g.families):
            registers[g.gid] = list(range(axis, axis + max(1, max(labels).bit_length())))
            axis = registers[g.gid][-1] + 1
    producer = {g.out: g for g in gates if g.out is not None}

    def label_range(g) -> list[int]:
        return sorted({label for f in g.families for label in f.labels})

    def select(g, store: dict):
        for i, guard in enumerate(g.guards):
            if evaluate(guard, store):
                return g.families[i]
        return g.families[-1]

    def fixed(store: dict, gate_of: dict) -> tuple:
        """The index of ``psi`` that fixes the registers of the gates in
        ``gate_of`` to their labels in ``store``."""
        index = [slice(None)] * axis
        for var, g in gate_of.items():
            for a, bit in zip(registers[g.gid], Q.index_bits(store[var], len(registers[g.gid]))):
                index[a] = bit
        return tuple(index)

    psi = np.zeros((2,) * axis, complex)
    psi[(Ellipsis,) + (0,) * (axis - width)] = prep.input_state().amplitudes.reshape((2,) * width)
    wires = lambda g: [w - 1 for w in g.wires]  # noqa: E731
    for g in gates:
        read = sorted(set().union(*(names(e) for e in g.guards)))
        # a name that no measuring gate produces holds the one label of a unitary
        gate_of = {v: producer[v] for v in read if producer[v].gid in registers}
        constant = {v: producer[v].families[0].outcomes[0].label for v in read if v not in gate_of}
        for labels in itertools.product(*(label_range(gate_of[v]) for v in gate_of)):
            store = {**constant, **dict(zip(gate_of, labels))}
            fam = select(g, store)
            index = fixed(store, gate_of)
            if g.gid not in registers:  # a control: the selected unitary on this slice
                psi[index] = contract(psi[index], fam.outcomes[0].operator,
                                      wires(g)).copy()
                continue
            # an isometry onto the gate's own register, which holds |0>
            reg = registers[g.gid]
            ground = list(index)
            for a in reg:
                ground[a] = 0
            start = psi[tuple(ground)].copy()
            psi[tuple(ground)] = 0
            sub = [a for a in range(axis) if not isinstance(index[a], int) and a not in reg]
            for oc in fam.outcomes:
                target = list(index)
                for a, bit in zip(reg, Q.index_bits(oc.label, len(reg))):
                    target[a] = bit
                psi[tuple(target)] = contract(start, oc.operator,
                                              [sub.index(w) for w in wires(g)])
    branches = {}
    for labels in itertools.product(*(label_range(g) for g in gates if g.gid in registers)):
        store, key = {}, []
        got = dict(zip([g.gid for g in gates if g.gid in registers], labels))
        for g in gates:
            label = got[g.gid] if g.gid in registers else \
                select(g, {v: store[v] for v in set().union(*(names(e) for e in g.guards))}
                       ).outcomes[0].label
            key.append((g.gid, label))
            if g.out is not None:
                store[g.out] = label
        index = [slice(None)] * width
        for g in gates:
            if g.gid in registers:
                index += list(Q.index_bits(got[g.gid], len(registers[g.gid])))
        state = psi[tuple(index)].reshape(-1)
        p = float(np.vdot(state, state).real)
        if p > Q.PRUNE_EPS:
            branches[tuple(sorted(key))] = (p, store, state)
    return branches


CASES = [pytest.param("teleport", {}, "tele", id="teleport")]
CASES += [pytest.param(name, {"c": c, "t": t}, None, id=f"{name} c={c} t={t}")
          for name in ("cnot_mb", "cnot_mb_liberal") for c in (0, 1) for t in (0, 1)]
CASES += [pytest.param("phase_est", {}, "pe", id="phase_est"),
          pytest.param("phase_est", {}, "pe 0.3", id="phase_est phase 0.3")]


def phase_registry(phase: float) -> Q.Registry:
    """U = diag(1, e^(2 pi i phase)) and its eigenstate |1>: a phase
    that three readout wires cannot hold spreads the readout over all
    eight labels, with unequal probabilities."""
    reg = Q.Registry()
    reg.register_family(Q.unitary_family("U", np.diag([1.0, np.exp(2j * np.pi * phase)])))
    reg.register_state("psi", [0.0, 1.0])
    return reg


@pytest.fixture
def prepared(request, tele_registry, pe_registry):
    name, bindings, registry = request.param
    registry = {"tele": tele_registry, "pe": pe_registry, "pe 0.3": phase_registry(0.3),
                None: None}[registry]
    return S.prepare(corpus_program(name), bindings, registry)


@pytest.mark.parametrize("prepared", [c.values for c in CASES], ids=[c.id for c in CASES],
                         indirect=True)
def test_enumeration_matches_the_deferred_measurement_run(prepared):
    oracle = deferred_branches(prepared)
    enum = S.enumerate_branches(prepared)
    assert {b.outcomes for b in enum.branches} == set(oracle)
    assert abs(sum(p for p, _, _ in oracle.values()) - 1.0) <= Q.ATOL
    for b in enum.branches:
        p, store, state = oracle[b.outcomes]
        assert abs(b.probability - p) <= Q.ATOL
        assert b.store == store
        overlap = abs(np.vdot(state, b.state.amplitudes)) / np.sqrt(p)
        assert abs(overlap - 1.0) <= Q.ATOL


# Upper 1e-4 quantiles of the chi-squared distribution, by degrees of freedom.
CHI2_BOUND = {0: 1e-9, 1: 15.14, 2: 18.42, 3: 21.11, 4: 23.51, 5: 25.74, 6: 27.86, 7: 29.88}


@pytest.mark.parametrize("prepared", [c.values for c in CASES], ids=[c.id for c in CASES],
                         indirect=True)
def test_sampled_counts_fit_the_deferred_measurement_run(prepared):
    shots = 2000
    oracle = deferred_branches(prepared)
    counts = S.sample_distribution(prepared, shots, seed=17)
    assert set(counts) <= set(oracle) and sum(counts.values()) == shots
    chi2 = sum((counts.get(key, 0) - shots * p) ** 2 / (shots * p)
               for key, (p, _, _) in oracle.items())
    assert chi2 <= CHI2_BOUND[len(oracle) - 1]
