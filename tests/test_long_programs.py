"""Programs longer than Python's recursion limit.

Every entry point walks gates, branches and schedules on explicit
stacks, so a program of a few thousand gates runs at the default
recursion limit.  The oracle is closed-form: H applied an odd number of
times is H, so the final read-out of |0> gives 0 and 1 with probability
1/2 each.

Long paths of library gates also show the norm's drift bound at work:
the path keeps probability 1 exactly and its state stays within
UNIT_NORM_SLACK of norm 1.  The walk's memory is bounded here too,
traced with tracemalloc.
"""
import collections
import math
import sys
import tracemalloc

import numpy as np
import pytest

from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.cli import main
from qcasm.parser import parse

from conftest import PROGRAMS

H_COUNT = 1499  # odd, so the chain of H gates composes to H
UNITARY_TEXT = f"for i = 1 to {H_COUNT}: H(1)\n"
MEASURED_TEXT = UNITARY_TEXT.rstrip() + ";\nb := SM(1)\n"
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.fixture(autouse=True)
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.fixture(scope="module")
def measured():
    return S.prepare(parse(MEASURED_TEXT))


def test_long_program_runs(measured):
    assert len(measured.firing) == H_COUNT + 1
    result = S.run(measured, seed=5)
    b = result.store["b"]
    assert len(result.trace) == H_COUNT + 1
    assert abs(result.probability - 0.5) < Q.ATOL
    assert abs(abs(result.state.amplitudes[b]) - 1.0) < Q.ATOL


def test_long_program_enumerates_two_halves(measured):
    enum = S.enumerate_branches(measured)
    assert [b.store for b in enum.branches] == [{"b": 0}, {"b": 1}]
    assert all(abs(b.probability - 0.5) < Q.ATOL for b in enum.branches)
    assert enum.pruned_mass == 0.0


def test_long_program_samples_and_checks_schedules(measured):
    counts = S.sample_distribution(measured, shots=40, seed=3)
    assert sum(counts.values()) == 40
    assert {dict(key)[(1, H_COUNT)] for key in counts} <= {0, 1}
    assert S.check_schedule_independence(measured) == 1


def test_sampler_memory_is_linear_in_program_length():
    # The walk keeps each outcome prefix as a link to its parent, and the
    # sampler builds the sorted outcome key once per leaf of the sampled
    # tree.  Keys built per node made the first shot through this chain
    # peak at 64 MiB.
    prep = S.prepare(parse("for i = 1 to 3999: H(1);\nb := SM(1)\n"))
    tracemalloc.start()
    try:
        counts = S.sample_distribution(prep, shots=20, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert counts == collections.Counter(S.run(prep, seed=8 + k).outcomes for k in range(20))
    assert len(counts) == 2


def test_long_measurement_free_program_composes_to_h():
    u = S.program_unitary(parse(UNITARY_TEXT))
    assert np.allclose(u, HADAMARD, atol=Q.ATOL)


@pytest.mark.parametrize("argv,first_line", [
    (["enumerate"], "{"),
    (["schedules", "--verify"], "1 schedules (verified equivalent)"),
])
def test_long_program_cli(tmp_path, capsys, argv, first_line):
    path = tmp_path / "long.qcasm"
    path.write_text(MEASURED_TEXT)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[0] == first_line


def test_deep_prerequisite_chain_out_of_gate_order():
    # The CNOT is gate (1, 0), first in gate-id order, yet every H on
    # wire 2 is one of its prerequisites.
    prep = S.prepare(parse(f"for i = 1 to {H_COUNT}: H(2);\nCNOT(1, 2)\n"))
    assert len(prep.circuit.closure()[(1, 0)]) == H_COUNT
    assert C.all_schedules(prep.circuit) == [prep.schedule]
    result = S.run(prep, seed=1)
    assert len(result.trace) == H_COUNT + 1


QFT16_TEXT = (PROGRAMS / "qft.qcasm").read_text().replace(
    "param n = 3\n", f"param n = 3\nket {12345:016b} on 1..n;\n")
UNITARY_PATHS = [
    pytest.param("for k = 1 to 10000: H(1)\n", {}, id="10000 H"),
    pytest.param("for k = 1 to 5000: {H(1); H(2); cR_2(2, 1)}\n", {}, id="5000 H H cR_2"),
    pytest.param(QFT16_TEXT, {"n": 16}, id="qft n=16"),
]


@pytest.mark.parametrize("text, bindings", UNITARY_PATHS)
def test_a_unitary_path_has_probability_one_and_keeps_its_norm(text, bindings, monkeypatch):
    # Library gates fire with probability 1 exactly and no norm pass, but
    # for the few that the drift bound of each path asks for.
    prep = S.prepare(parse(text), bindings)
    passes = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: passes.append(a.size) or vdot(a, b))
    result = S.run(prep, seed=1)
    amps = result.state.amplitudes
    assert result.probability == 1.0
    assert abs(vdot(amps, amps).real - 1.0) <= Q.UNIT_NORM_SLACK
    assert 0 < len(passes) <= len(prep.firing) // 50


def test_without_the_drift_guard_the_norm_leaves_the_slack(monkeypatch):
    # The guard is what keeps the norm: with no norm pass the deviation
    # of the long loop grows past UNIT_NORM_SLACK.
    prep = S.prepare(parse("for k = 1 to 5000: {H(1); H(2); cR_2(2, 1)}\n"))
    monkeypatch.setattr(Q, "UNIT_NORM_SLACK", math.inf)
    amps = S.run(prep, seed=1).state.amplitudes
    assert abs(np.vdot(amps, amps).real - 1.0) > 1e-13


def test_a_registered_family_complete_only_within_atol_is_renormalized():
    reg = Q.Registry()
    reg.register_family(Q.unitary_family("L", np.diag([1.0, 1.0 - 1e-10])))
    result = S.run(parse("plus on 1;\nfor k = 1 to 2000: L(1)\n"), registry=reg)
    amps = result.state.amplitudes
    # the squared norm of each outcome is its probability, and each
    # outcome is divided by its norm
    assert 1.0 - 2000 * 1e-10 < result.probability < 1.0 - 1000 * 1e-10
    assert abs(np.vdot(amps, amps).real - 1.0) <= Q.UNIT_NORM_SLACK


def walk_peak(prep: S.PreparedProgram, entry) -> int:
    """The traced peak of ``entry(prep)`` after its input state is built."""
    make = prep.input_state

    def input_state():
        state = make()
        tracemalloc.reset_peak()
        return state

    prep.input_state = input_state
    tracemalloc.start()
    try:
        entry(prep)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del prep.input_state


def test_a_measuring_gate_adds_no_state_to_the_peak_of_a_run():
    # Gathers on 16 wires, one of them a diagonal on a middle wire: the
    # walk holds the state and one scratch buffer (and numpy's ufunc
    # buffer, a fixed 256 KiB).  A run makes the vector of the outcome it
    # draws only, in place for a diagonal, so a measurement adds no
    # state-sized array: only the bookkeeping of two more gates, far
    # below a sixteenth of the 1 MiB state.
    unitary = "plus on 8 and plus on 16;\nX(1); CNOT(8, 1); cR_2(8, 16)"
    run = lambda prep: S.run(prep, seed=3)  # noqa: E731
    plain = walk_peak(S.prepare(parse(unitary)), run)
    measured = walk_peak(S.prepare(parse(unitary + ";\nb := SM(8); c := PM(16, 1)")), run)
    assert 2 * 2**20 <= plain < 3 * 2**20
    assert measured < plain + 2**16
