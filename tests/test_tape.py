"""The gate tape: kernels bound once, guards compiled once, and walks
that fire from them.

``bind_operator`` is compared byte for byte with a plain reference: a
dense operator by ``np.tensordot`` and ``np.moveaxis`` on the (2,)*w
view, a gather row by row by slices of that view, with every index
worked out at the call.  Compiled guards fail only when called.  Walks
of one prepared program, and of the copies that ``with_schedule``
makes, which share its tape, must give identical bytes and must never
write the input state.
"""
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcasm import ast as A
from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.errors import QmathError, SimulationError
from qcasm.parser import parse

from conftest import corpus_program
from test_qmath import library_families, structured_operators

LIBRARY = [oc.operator for f in library_families() for oc in f.outcomes]


def reference(amps: np.ndarray, op: np.ndarray | Q.Structure, wires, width) -> np.ndarray:
    """``op`` on ``wires`` of ``amps``, every view and index computed here."""
    k = len(wires)
    kind, matrix, data, _ = op if isinstance(op, Q.Structure) else ("dense", op, None, False)
    if kind == "dense":
        axes = [w - 1 for w in wires]
        res = np.tensordot(matrix.reshape((2,) * (2 * k)), amps.reshape((2,) * width),
                           axes=(range(k, 2 * k), axes))
        return np.moveaxis(res, range(k), axes).reshape(-1)
    base, moves = data
    out = np.empty_like(amps)
    if base == 1:
        out[...] = amps
    elif base is not None:
        np.multiply(amps, base, out=out)
    # a trailing axis of 1 keeps a row of one amplitude a view
    src = amps.reshape((2,) * width + (1,))
    dst = out.reshape((2,) * width + (1,))

    def row(bits):
        index = [slice(None)] * (width + 1)
        for w, b in zip(wires, bits):
            index[w - 1] = b
        return tuple(index)

    for r, c, factor in moves:
        if factor is None:
            dst[row(r)] = src[row(c)]
        else:
            np.multiply(src[row(c)], factor, out=dst[row(r)])
    return out


@st.composite
def kernel_cases(draw):
    """(operator, wires, width, state seed): a library operator or a
    random one of each structure, in C or Fortran order, on wires in
    any order."""
    width = draw(st.integers(1, 8))
    fits = [op for op in LIBRARY if len(op) <= 2**width]
    if draw(st.booleans()):
        op = draw(st.sampled_from(fits))
    else:
        k = draw(st.integers(1, min(3, width)))
        ops = structured_operators(np.random.default_rng(draw(st.integers(0, 2**16))), 2**k)
        op = draw(st.sampled_from(ops))[1].astype(complex)
    if draw(st.booleans()):
        op = np.asfortranarray(op)
    k = len(op).bit_length() - 1
    wires = tuple(draw(st.permutations(range(1, width + 1)))[:k])
    return op, wires, width, draw(st.integers(0, 2**16))


def state(seed: int, width: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    # exact signed zeros, which a multiply by 1 would not keep
    amps[rng.random(2**width) < 0.25] = complex(-0.0, -0.0)
    return amps


@settings(derandomize=True, max_examples=400, deadline=None)
@given(kernel_cases())
@example((Q._SWAP, (2, 1), 2, 0))                          # k == width, reversed
@example((Q.controlled(Q._rotation(2)), (4, 1), 4, 1))     # in-place diagonal
@example((Q.fourier_matrix(3), (6, 2, 4), 8, 2))           # dense, non-adjacent
@example((Q._mark_matrix(2, 3), (3, 1, 2), 3, 3))          # k == width, gather
def test_bound_kernel_matches_reference(case):
    op, wires, width, seed = case
    st_ = Q.structure(op)
    for applied in (Q.Structure("dense", op, None), st_):
        kernel = Q.bind_operator(applied, wires, width)
        # one binding serves every state it is called on
        for amps in (state(seed, width), state(seed + 1, width)):
            want = reference(amps, applied, wires, width).tobytes()
            before = amps.tobytes()
            assert kernel(amps).tobytes() == want
            buf = np.full(amps.shape, np.nan, dtype=complex)
            assert kernel(amps, buf) is buf and buf.tobytes() == want
            assert amps.tobytes() == before
            assert Q.bind_operator(applied, wires, width)(amps).tobytes() == want
            if applied.diagonal:
                assert kernel(amps, amps) is amps and amps.tobytes() == want
            else:
                with pytest.raises(QmathError, match="in place"):
                    kernel(amps, amps)


def test_binding_checks_wires_and_shape_once():
    with pytest.raises(Q.InvalidStateError, match="distinct"):
        Q.bind_operator(Q.structure(Q._SWAP), (1, 1), 2)
    with pytest.raises(Q.InvalidStateError, match="out of range"):
        Q.bind_operator(Q.structure(Q._H), (3,), 2)
    with pytest.raises(Q.InvalidFamilyError, match="does not act on 2 wires"):
        Q.bind_operator(Q.structure(Q._H), (1, 2), 2)
    with pytest.raises(Q.InvalidFamilyError, match="arity 2 applied to 1"):
        Q.bind_outcomes(Q.std_gate("PM"), (1,), 2)


# ---------------------------------------------------------------------------
# compiled guards
# ---------------------------------------------------------------------------

def expression(text: str) -> A.Expr:
    return parse(f"zzz(0) := {text}").body.value


@pytest.mark.parametrize("e, store, message", [
    (expression("u + 1"), {}, "variable 'u' has no value"),
    (expression("p div 0"), {"p": 1}, "div by zero"),
    (expression("f(p) = 1"), {"p": 2}, "dynamic function value 'f(2)' has no value"),
    (expression("2 ^ (2 ^ 14)"), {}, "result exceeds"),
    ("not an expression", {}, "cannot evaluate"),
])
def test_compiling_defers_every_error_to_the_call(e, store, message):
    # A walk compiles the guards of every gate before it fires any, so
    # a guard that a walk never evaluates must not fail it.
    guard = A.compile_expr(e)
    with pytest.raises(SimulationError, match=re.escape(message)):
        guard(store)


# ---------------------------------------------------------------------------
# walks from the tape
# ---------------------------------------------------------------------------

def branch_bytes(enum: S.Enumeration) -> list:
    return [(b.outcomes, b.probability, sorted(b.store.items()), b.state.amplitudes.tobytes())
            for b in enum.branches]


def test_schedule_copies_share_the_tape_and_repeat_bytes(tele_registry):
    prep = S.prepare(corpus_program("teleport"), registry=tele_registry)
    assert prep.tape == {}  # nothing is compiled before the first walk
    first = branch_bytes(S.enumerate_branches(prep))
    kernels = {gid: dict(t.bound) for gid, t in prep.tape.items()}
    assert branch_bytes(S.enumerate_branches(prep)) == first
    for schedule in C.all_schedules(prep.circuit):
        copy = prep.with_schedule(schedule)
        assert copy.tape is prep.tape
        fresh = S.prepare(corpus_program("teleport"), registry=tele_registry,
                          schedule=schedule)
        want = branch_bytes(S.enumerate_branches(fresh))
        assert branch_bytes(S.enumerate_branches(copy)) == want
        assert branch_bytes(S.enumerate_branches(copy)) == want
    # the second walk and the copies bound nothing again
    assert {gid: dict(t.bound) for gid, t in prep.tape.items()} == kernels
    runs = [S.run(prep, seed=3) for _ in range(2)]
    assert runs[0].state.amplitudes.tobytes() == runs[1].state.amplitudes.tobytes()
    assert S.sample_distribution(prep, 50, seed=2) == S.sample_distribution(prep, 50, seed=2)


def test_unitary_walks_bind_at_their_own_width():
    prep = S.prepare(corpus_program("qft"), {"n": 4})
    u = S.program_unitary(prep)
    assert S.program_unitary(prep).tobytes() == u.tobytes()
    widths = {w for t in prep.tape.values() for _i, w in t.bound}
    assert widths == {4 + 2}  # the gate wires plus two column wires
    S.run(prep, seed=0)
    widths = {w for t in prep.tape.values() for _i, w in t.bound}
    assert widths == {4, 6}


def test_schedule_check_builds_one_input_state_and_never_writes_it(monkeypatch,
                                                                   tele_registry):
    built = []
    make = S.initial_state

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(S, "initial_state", recording)
    prep = S.prepare(corpus_program("teleport"), registry=tele_registry)
    count = S.check_schedule_independence(prep)
    assert count == len(C.all_schedules(prep.circuit)) > 1
    assert len(built) == 1
    (s,) = built
    assert not s.amplitudes.flags.writeable
    assert s.amplitudes.tobytes() == make(prep.program, tele_registry,
                                          prep.circuit.width).amplitudes.tobytes()


def lattice_bytes(table: dict) -> list:
    """``branch_bytes`` of a branch table of the schedule check's lattice walk."""
    return sorted((S._outcomes(path), p, sorted(store.items()), amps.tobytes())
                  for p, store, amps, _drift, path in table.values())


def last_ideal(prep, schedules):
    """The one ideal of the lattice walk's last level."""
    *_, last = S._lattice(prep, schedules, 0.0, Q.ATOL)
    (ideal,) = last.values()
    return ideal


def chain_schedule(chain) -> C.Schedule:
    gids = []
    while chain is not None:
        chain, gid = chain
        gids.append(gid)
    return tuple((gid,) for gid in reversed(gids))


@pytest.mark.parametrize("name, bindings", [("cnot_mb", {"c": 1, "t": 0}),
                                            ("grover", {"n": 2, "N": 4, "m": 3})])
def test_verify_final_table_is_the_enumeration_along_its_chain(name, bindings, monkeypatch):
    # the last ideal's table, made over every edge of the lattice or over
    # the edges of one schedule, has the bytes of an enumeration along
    # the chain that made it, and each walk builds one input state and
    # never writes it
    built = []
    make = S.initial_state
    monkeypatch.setattr(S, "initial_state", lambda *a, **k: built.append(make(*a, **k)) or built[-1])
    prep = S.prepare(corpus_program(name), bindings)
    fresh = make(prep.program, prep.registry, prep.circuit.width).amplitudes.tobytes()
    schedules = list(itertools.islice(C.all_schedules(prep.circuit), 0, None, 37))
    for s in [None, *schedules]:
        built.clear()
        ideal = last_ideal(prep, None if s is None else [s])
        (state,) = built
        assert not state.amplitudes.flags.writeable and state.amplitudes.tobytes() == fresh
        chain = chain_schedule(ideal.chain)
        if s is not None:
            assert chain == tuple((gid,) for bout in s for gid in bout)
        assert lattice_bytes(ideal.table) == branch_bytes(
            S.enumerate_branches(prep, schedule=chain if s is None else s))
    assert len(schedules) > 4


def test_classical_pass_compiles_once_and_copies_share_it(monkeypatch):
    compiled = []
    compile_ = S._compile_classical
    monkeypatch.setattr(S, "_compile_classical",
                        lambda r: compiled.append(r) or compile_(r))
    prep = S.prepare(parse("H(1); p := SM(1); f(p + 1) := 7; "
                           "if p = 1 then zzz := f(2) * 2 else zzz := 0"))
    assert prep.classical is None  # nothing runs before the first walk
    stores = [b.store for b in S.enumerate_branches(prep).branches]
    assert stores == [{"p": 0, "f(1)": 7, "zzz": 0}, {"p": 1, "f(2)": 7, "zzz": 14}]
    assert S.enumerate_branches(prep).branches[1].store == stores[1]
    assert S.sample_distribution(prep, 20, seed=1)
    copy = prep.with_schedule(prep.schedule)
    assert copy.classical is prep.classical
    assert S.run(copy, seed=0).store in stores
    # the whole body is compiled once, on its first run
    assert compiled.count(prep.program.body) == 1
