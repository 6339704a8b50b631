"""``program_unitary`` walks blocks of basis columns as extra wires; here
it is held to the one-walk-per-column construction it replaced.

The reference walks the program once from each basis ket
(``make_state``) and stacks the leaves as columns.  With library gates,
whose products do not depend on how many columns share a walk, the
batched matrix must equal it byte for byte; a dense registry gate on
several wires is a BLAS product over a wider operand, which may round
differently in the last bit.
"""
import tracemalloc

import numpy as np
import pytest

from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.parser import parse

from conftest import corpus_program


def per_column(prep: S.PreparedProgram) -> np.ndarray:
    def only(gate, fam, probabilities, prob, slot):
        return [(0, None)]

    width = prep.circuit.width
    return np.stack([next(S._walk(prep, Q.make_state(format(j, f"0{width}b"), width),
                                  only))[0].amplitudes
                     for j in range(2**width)], axis=1)


def library_program(width: int) -> str:
    """H, X, Z, CNOT, SWAP, cR_k, cH, ccX, mark and reflect0 on scattered
    wires, and a guard on the output of a unitary."""
    w = width
    lines = [f"H({i})" for i in range(1, w + 1, 2)]
    lines += [f"CNOT({w}, 1)", f"SWAP(2, {w - 1})", f"cR_3(1, {w})", "X(3)",
              f"cR_2({w - 1}, 1)", f"x := H({w})", f"if x = 0 then CNOT(2, 4) else SWAP(2, 4)",
              f"H({w - 1})", f"cR_4({w}, {w - 3})", "Z(2)",
              f"cH({w}, 2)", f"ccX(1, {w}, 3)", f"mark_(2, 1)(3, 1, {w})", "reflect0_3(2, 4, 1)"]
    return ";\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(1, 10))
def test_qft_is_byte_equal_to_the_per_column_walks(n):
    prep = S.prepare(corpus_program("qft"), {"n": n})
    got = S.program_unitary(prep)
    assert got.dtype == np.complex128 and got.shape == (2**n, 2**n)
    assert got.tobytes() == per_column(prep).tobytes()


@pytest.mark.parametrize("width", range(4, 9))
def test_library_gates_are_byte_equal_to_the_per_column_walks(width):
    prep = S.prepare(parse(library_program(width)))
    assert prep.circuit.width == width
    assert S.program_unitary(prep).tobytes() == per_column(prep).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_dense_registry_gates_match_the_per_column_walks(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(4, 8))
    reg = Q.Registry()
    lines = []
    for name in "ABCDEFGH":
        arity = int(rng.integers(1, 4))
        m = rng.normal(size=(2**arity, 2**arity)) + 1j * rng.normal(size=(2**arity, 2**arity))
        reg.register_family(Q.unitary_family(name, np.linalg.qr(m)[0]))
        wires = rng.permutation(np.arange(1, width + 1))[:arity]
        lines.append(f"{name}({', '.join(str(int(w)) for w in wires)})")
    prep = S.prepare(parse(";\n".join(lines) + "\n"), registry=reg)
    got = S.program_unitary(prep)
    assert np.abs(got - per_column(prep)).max() <= 1e-15
    assert Q.is_unitary_matrix(got)


@pytest.mark.parametrize("n", range(1, 10))
def test_number_of_walks(monkeypatch, n):
    calls = []
    walk = S._walk

    def spy(prep, state, follow):
        calls.append(state.width)
        return walk(prep, state, follow)

    monkeypatch.setattr(S, "_walk", spy)
    S.program_unitary(corpus_program("qft"), {"n": n})
    # one column per walk up to width 3, then 4 walks (even n) or 8 (odd n)
    expected = 2**n if n <= 3 else 4 if n % 2 == 0 else 8
    assert len(calls) == expected
    # the 2**n / expected columns of a walk are its trailing wires
    assert set(calls) == {2 * n - (expected.bit_length() - 1)}


@pytest.mark.parametrize("n", [9, 10])
def test_peak_memory_is_two_matrices(n):
    # A walk holds at most four states of a quarter of the matrix each
    # (its state, the scratch buffer and a dense kernel's transposed copy
    # and product), next to the matrix being filled.
    prep = S.prepare(corpus_program("qft"), {"n": n})
    tracemalloc.start()
    try:
        got = S.program_unitary(prep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * got.nbytes
