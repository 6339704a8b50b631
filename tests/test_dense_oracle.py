"""Random programs against a dense reference simulator.

Hypothesis builds short programs on at most 8 wires from library gates
of both operator structures (gather and dense), with ``c`` controls,
guards, explicit else branches, phase prefixes and wires in any order.
The reference applies each gate as a full 2**w x 2**w matrix, embedded
with ``np.kron`` and a basis permutation, and follows every measurement
outcome.  Its gate matrices are written out here from their
definitions, not taken from qcasm, so a defect in the library or in a
kernel cannot be shared with the oracle.  The same checks run again
with every scratch buffer of the simulator's walk filled with NaN, so a
kernel that leaves an entry of its output unwritten fails them.
"""
import contextlib
import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.parser import parse

MAX_WIDTH = 8
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]])
Z = np.diag([1, -1])
SWAP = np.eye(4)[[0, 2, 1, 3]]
SM = {0: np.diag([1, 0]), 1: np.diag([0, 1])}
PM = {0: np.diag([1, 0, 0, 1]), 1: np.diag([0, 1, 1, 0])}


def rotation(k: int) -> np.ndarray:
    return np.diag([1, np.exp(2j * np.pi / 2**k)])


def controlled(u: np.ndarray) -> np.ndarray:
    d = len(u)
    return np.block([[np.eye(d), np.zeros((d, d))], [np.zeros((d, d)), u]])


def mark(n: int, m: int) -> np.ndarray:
    op = np.eye(2 ** (n + 1))
    return op[[i ^ (i >> 1 == m) for i in range(2 ** (n + 1))]]


def reflect0(n: int) -> np.ndarray:
    return 2 * np.outer(np.eye(2**n)[0], np.eye(2**n)[0]) - np.eye(2**n)


def kron_embed(op: np.ndarray, wires: tuple[int, ...], width: int) -> np.ndarray:
    """``op`` on ``wires`` (wire 1 most significant): kron with the
    identity on the other wires, then permuted to natural wire order."""
    rest = [w for w in range(1, width + 1) if w not in wires]
    full = np.kron(op, np.eye(2 ** len(rest)))
    order = np.array(list(wires) + rest)
    bits = (np.arange(2**width)[:, None] >> (width - np.arange(1, width + 1))) & 1
    perm = bits[:, order - 1] @ (1 << np.arange(width - 1, -1, -1))
    return full[np.ix_(perm, perm)]


def unitaries(arity: int) -> list:
    """(program text, matrix) of library unitaries on ``arity`` wires."""
    out = []
    if arity == 1:
        out += [("H", H), ("X", X), ("Z", Z)]
        out += [(f"R_{k}", rotation(k)) for k in (1, 2, 3, 4)]
    if arity == 2:
        out += [("CNOT", controlled(X)), ("SWAP", SWAP), ("cH", controlled(H)),
                ("cZ", controlled(Z))]
        out += [(f"cR_{k}", controlled(rotation(k))) for k in (2, 3)]
    if arity == 3:
        out.append(("ccX", controlled(controlled(X))))
    if 2 <= arity <= 4:
        n = arity - 1
        out += [(f"mark_({n}, {m})", mark(n, m)) for m in range(2**n)]
    out.append((f"reflect0_{arity}", reflect0(arity)))
    return out


@st.composite
def programs(draw, measure: bool):
    """(text, width, steps): a step is (wires, output variable or None,
    select), where select(store) gives the applied {label: operator}."""
    width = draw(st.integers(2, MAX_WIDTH))
    bits = "".join(draw(st.sampled_from("01")) for _ in range(width))
    lines = [f"ket {bits} on {', '.join(map(str, range(1, width + 1)))}"]
    steps = []
    bound: list[str] = []
    for i in range(draw(st.integers(1, 7))):
        if measure and draw(st.booleans()):
            name, ops, arity = draw(st.sampled_from([("SM", SM, 1), ("PM", PM, 2)]))
            wires = tuple(draw(st.permutations(range(1, width + 1)))[:arity])
            lines.append(f"m{i} := {name}({', '.join(map(str, wires))})")
            steps.append((wires, f"m{i}", lambda store, ops=ops: ops))
            bound.append(f"m{i}")
            continue
        arity = draw(st.integers(1, min(3, width)))
        wires = tuple(draw(st.permutations(range(1, width + 1)))[:arity])
        on = f"({', '.join(map(str, wires))})"
        name, u = draw(st.sampled_from(unitaries(arity)))
        form = draw(st.sampled_from(["plain", "bound", "guard", "else", "phase", "guarded phase"]
                                    if bound else ["plain", "bound"]))
        v = draw(st.sampled_from(bound)) if bound else None
        out = None
        if form == "plain":
            lines.append(name + on)
            select = (lambda store, u=u: {0: u})
        elif form == "bound":
            out = f"u{i}"
            lines.append(f"{out} := {name}{on}")
            select = (lambda store, u=u: {0: u})
        elif form == "guard":
            lines.append(f"if {v} = 1 then {name}{on}")
            select = (lambda store, u=u, v=v:
                      {0: u if store[v] == 1 else np.eye(len(u))})
        elif form == "else":
            other, w = draw(st.sampled_from(unitaries(arity)))
            lines.append(f"if {v} = 0 then {name}{on} else {other}{on}")
            select = (lambda store, u=u, w=w, v=v: {0: u if store[v] == 0 else w})
        elif form == "phase":
            lines.append(f"(-1)^{v} {name}{on}")
            select = (lambda store, u=u, v=v: {0: (-1) ** store[v] * u})
        else:
            g = draw(st.sampled_from(bound))
            lines.append(f"if {g} = 1 then (-1)^{v} {name}{on}")
            select = (lambda store, u=u, v=v, g=g:
                      {0: (-1) ** store[v] * u if store[g] == 1 else np.eye(len(u))})
        if out is not None:
            bound.append(out)
        steps.append((wires, out, select))
    return ";\n".join(lines) + "\n", width, steps


def reference_branches(width: int, bits_index: int, steps) -> dict:
    """Every outcome assignment whose outcomes each have probability above
    PRUNE_EPS: store -> (probability, normalized state)."""
    start = np.zeros(2**width, dtype=complex)
    start[bits_index] = 1.0
    live = [({}, start)]
    for wires, out, select in steps:
        nxt = []
        for store, vec in live:
            for label, op in select(store).items():
                new = kron_embed(op, wires, width) @ vec
                if np.vdot(new, new).real <= Q.PRUNE_EPS * np.vdot(vec, vec).real:
                    continue  # the outcome's probability given the path so far
                nxt.append((store if out is None else {**store, out: label}, new))
        live = nxt
    return {tuple(sorted(store.items())): (np.vdot(vec, vec).real, vec / np.linalg.norm(vec))
            for store, vec in live}


def ket_index(text: str) -> int:
    return int(text.split()[1], 2)


def check_run_and_enumerate(case, seed):
    text, width, steps = case
    want = reference_branches(width, ket_index(text), steps)
    prep = S.prepare(parse(text))
    assert prep.circuit.width == width
    enum = S.enumerate_branches(prep)
    got = {tuple(sorted(b.store.items())): b for b in enum.branches}
    assert set(got) == set(want), text
    for key, b in got.items():
        p, state = want[key]
        assert abs(b.probability - p) <= Q.ATOL, text
        assert np.abs(b.state.amplitudes - state).max() <= Q.ATOL, text
    r = S.run(prep, seed=seed)
    p, state = want[tuple(sorted(r.store.items()))]
    assert abs(r.probability - min(p, 1.0)) <= Q.ATOL, text
    assert np.abs(r.state.amplitudes - state).max() <= Q.ATOL, text


def check_program_unitary(case):
    text, width, steps = case
    want = np.eye(2**width)
    store = {}
    for wires, out, select in steps:
        want = kron_embed(select(store)[0], wires, width) @ want
        if out is not None:
            store[out] = 0
    got = S.program_unitary(parse(text))
    assert np.abs(got - want).max() <= Q.ATOL, text


@contextlib.contextmanager
def poisoned_scratch():
    """Fill every scratch buffer the walk takes with NaN, so an output
    entry that a kernel leaves unwritten shows up in the result."""
    scratch = S._scratch
    taken = []

    def poisoned(spare, size):
        buf = scratch(spare, size)
        buf.fill(np.nan)
        taken.append(size)
        return buf

    with mock.patch.object(S, "_scratch", poisoned):
        yield taken


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(measure=True), st.integers(0, 2**16))
def test_run_and_enumerate_match_dense_reference(case, seed):
    check_run_and_enumerate(case, seed)


def check_sample_tallies_runs(case, seed):
    """sample_distribution equals the tally of single runs, in the order
    of each key's first shot, with clean and with poisoned buffers."""
    text = case[0]
    prep = S.prepare(parse(text))
    tally: dict = {}
    for k in range(12):
        key = S.run(prep, seed=seed + k).outcomes
        tally[key] = tally.get(key, 0) + 1
    assert list(S.sample_distribution(prep, 12, seed).items()) == list(tally.items()), text
    with poisoned_scratch():
        assert list(S.sample_distribution(prep, 12, seed).items()) == list(tally.items()), text


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(measure=True), st.integers(0, 2**16))
def test_sampler_tallies_single_runs(case, seed):
    check_sample_tallies_runs(case, seed)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(measure=False))
def test_program_unitary_matches_dense_reference(case):
    check_program_unitary(case)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(measure=True), programs(measure=False), st.integers(0, 2**16))
def test_kernels_write_every_entry_of_a_scratch_buffer(measured, unitary, seed):
    with poisoned_scratch():
        check_run_and_enumerate(measured, seed)
        check_program_unitary(unitary)


def test_poisoned_scratch_reaches_every_entry_point():
    # H is dense, CNOT a gather that moves rows and SM a measurement: each
    # is written into a scratch buffer, by run, enumerate and the unitary.
    # The last SM outcome a walk follows is a diagonal, so it scales the
    # state in place: run takes no buffer for SM, enumerate one.
    text = "ket 01 on 1, 2;\nH(1);\nCNOT(1, 2);\nm := SM(2)\n"
    steps = [((1,), None, lambda store: {0: H}),
             ((1, 2), None, lambda store: {0: controlled(X)}),
             ((2,), "m", lambda store: SM)]
    with poisoned_scratch() as taken:
        check_run_and_enumerate((text, 2, steps), 0)
        assert len(taken) == 2 + 3  # H and CNOT, twice; SM outcome 0 in enumerate
        check_program_unitary((text.replace(";\nm := SM(2)", ""), 2, steps[:2]))
        assert len(taken) == 5 + 4 * 2  # H and CNOT on each basis column
