"""Programs longer than Python's recursion limit.

Every entry point walks gates, branches and schedules on explicit
stacks, so a program of a few thousand gates runs at the default
recursion limit.  The oracle is closed-form: H applied an odd number of
times is H, so the final read-out of |0> gives 0 and 1 with probability
1/2 each.
"""
import collections
import sys
import tracemalloc

import numpy as np
import pytest

from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.cli import main
from qcasm.parser import parse

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
