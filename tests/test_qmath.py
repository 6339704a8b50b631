"""States, measurement families, and operator embedding.

The embedding oracle here is deliberately naive: it builds the full
2**w x 2**w matrix of "op acting on these wires" entry by entry from the
definition (wire 1 is the most significant bit), and every stride-based
code path is compared against it on small widths.
"""
import itertools
import math

import numpy as np
import pytest

from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.errors import (ImpossibleBranchError, InvalidFamilyError,
                          InvalidStateError, QmathError, RegistryError,
                          UnknownNameError)
from qcasm.parser import parse


def embed_oracle(op: np.ndarray, wires: tuple[int, ...], width: int) -> np.ndarray:
    """Full matrix of op applied to the given wires, from first principles."""
    dim = 2**width
    rest = [w for w in range(1, width + 1) if w not in wires]
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ib = Q.index_bits(i, width)
        for j in range(dim):
            jb = Q.index_bits(j, width)
            if any(ib[w - 1] != jb[w - 1] for w in rest):
                continue
            row = Q.basis_index([ib[w - 1] for w in wires])
            col = Q.basis_index([jb[w - 1] for w in wires])
            full[i, j] = op[row, col]
    return full


def random_state(rng: np.random.Generator, width: int) -> Q.QuantumState:
    amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return Q.QuantumState(width, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# basis conventions
# ---------------------------------------------------------------------------

def test_basis_index_wire1_most_significant():
    assert Q.basis_index([1, 0]) == 2
    assert Q.basis_index([0, 1]) == 1
    assert Q.basis_index([1, 0, 1]) == 5
    assert Q.basis_index([]) == 0


def test_index_bits_roundtrip():
    for width in (1, 2, 3, 5):
        for i in range(2**width):
            assert Q.basis_index(Q.index_bits(i, width)) == i


def test_basis_state_is_one_hot():
    v = Q.basis_state([1, 1, 0])
    assert v[6] == 1.0 and np.count_nonzero(v) == 1


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_state_validation():
    good = Q.QuantumState(1, np.array([1.0, 0.0], dtype=complex))
    assert good.width == 1
    with pytest.raises(InvalidStateError):
        Q.QuantumState(1, np.array([1.0, 1.0], dtype=complex))  # norm 2
    with pytest.raises(InvalidStateError):
        Q.QuantumState(2, np.array([1.0, 0.0], dtype=complex))  # wrong size
    with pytest.raises(InvalidStateError):
        Q.QuantumState(1, np.array([np.nan, 0.0], dtype=complex))


def test_state_amplitudes_read_only():
    s = Q.make_state("0", 1)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


def test_make_state_bitstring_and_names():
    s = Q.make_state("10", 2)
    assert s.amplitudes[2] == 1.0
    bell = Q.make_state("bell00", 2)
    assert np.allclose(bell.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))
    plus = Q.make_state("plus", 1)
    assert np.allclose(plus.amplitudes, np.array([1, 1]) / math.sqrt(2))
    minus = Q.make_state("minus", 1)
    assert np.allclose(minus.amplitudes, np.array([1, -1]) / math.sqrt(2))
    with pytest.raises(UnknownNameError):
        Q.make_state("no_such_state", 1)
    with pytest.raises(InvalidStateError):
        Q.make_state("011", 2)  # width mismatch


def test_make_state_amplitude_list_renormalizes():
    eps = 3e-7
    s = Q.make_state([1.0 + eps, 0.0], 1)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15
    with pytest.raises(InvalidStateError):
        Q.make_state([0.5, 0.5], 1)  # norm far from 1
    with pytest.raises(InvalidStateError):
        Q.make_state([1.0, 0.0, 0.0], 1)


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(11)
    s = random_state(rng, 2)
    rotated = Q.QuantumState(2, s.amplitudes * np.exp(0.7j))
    assert abs(Q.fidelity_up_to_phase(s, rotated) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# standard gates against frozen matrices
# ---------------------------------------------------------------------------

S2 = 1 / math.sqrt(2)
FROZEN = {
    "I": [[1, 0], [0, 1]],
    "H": [[S2, S2], [S2, -S2]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_std_unitaries(name):
    fam = Q.std_gate(name)
    assert fam.is_unitary and fam.labels == (0,)
    assert np.allclose(fam.outcomes[0].operator, np.array(FROZEN[name]))


@pytest.mark.parametrize("k", range(1, 9))
def test_rotation_gates(k):
    fam = Q.std_gate("R", [k])
    expected = np.diag([1.0, np.exp(2j * np.pi / 2**k)])
    assert np.allclose(fam.outcomes[0].operator, expected, atol=1e-12)


def test_rotation_angles_are_exact_powers_of_two():
    # 2 pi / 2**k is taken by its exponent; for every k whose 2**k is a
    # finite float it has the bytes of the division, and past that the
    # phase rounds to 1 with no 2**k built
    for k in range(1, 1024):
        op = Q.std_gate("R", [k]).outcomes[0].operator
        assert op.tobytes() == np.array([[1, 0], [0, np.exp(2j * np.pi / 2**k)]],
                                        dtype=complex).tobytes()
    for k in (2000, 10**9, 10**100):
        assert (Q.std_gate("R", [k]).outcomes[0].operator == np.eye(2)).all()


def test_rotation_low_orders():
    assert np.allclose(Q.std_gate("R", [1]).outcomes[0].operator, np.diag([1, -1]))
    assert np.allclose(Q.std_gate("R", [2]).outcomes[0].operator, np.diag([1, 1j]))


@pytest.mark.parametrize("n", range(1, 7))
def test_fourier_matrix_formula(n):
    N = 2**n
    w = np.exp(2j * np.pi / N)
    oracle = np.array([[w ** (j * k) for k in range(N)] for j in range(N)]) / math.sqrt(N)
    F = Q.std_gate("QFT", [n]).outcomes[0].operator
    assert np.abs(F - oracle).max() < 1e-12
    Fdg = Q.std_gate("QFTdg", [n]).outcomes[0].operator
    assert np.abs(Fdg - oracle.conj().T).max() < 1e-12
    assert Q.is_unitary_matrix(F)


def test_fourier_size_limit():
    with pytest.raises(InvalidFamilyError):
        Q.fourier_matrix(13)
    with pytest.raises(InvalidFamilyError):
        Q.fourier_matrix(0)


def test_qft1_is_hadamard():
    assert np.allclose(Q.std_gate("QFT", [1]).outcomes[0].operator,
                       Q.std_gate("H").outcomes[0].operator)


def test_controlled_structure():
    u = np.array([[0, 1], [1, 0]])
    cu = Q.controlled(u)
    assert np.allclose(cu[:2, :2], np.eye(2))
    assert np.allclose(cu[2:, 2:], u)
    assert np.allclose(cu[:2, 2:], 0) and np.allclose(cu[2:, :2], 0)
    cr2 = Q.controlled(Q.std_gate("R", [2]).outcomes[0].operator)
    assert np.allclose(cr2, np.diag([1, 1, 1, 1j]))


@pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (2, 3), (3, 5)])
def test_mark_gate_flips_flag_exactly_at_m(n, m):
    op = Q.std_gate("mark", [n, m]).outcomes[0].operator
    for x in range(2**n):
        for q in (0, 1):
            src = Q.basis_index(list(Q.index_bits(x, n)) + [q])
            dst = Q.basis_index(list(Q.index_bits(x, n)) + [q ^ (1 if x == m else 0)])
            col = op[:, src]
            assert col[dst] == 1.0 and np.count_nonzero(col) == 1


def test_mark_target_range():
    with pytest.raises(InvalidFamilyError):
        Q.std_gate("mark", [2, 4])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflect0_diagonal(n):
    op = Q.std_gate("reflect0", [n]).outcomes[0].operator
    expected = -np.eye(2**n)
    expected[0, 0] = 1.0
    assert np.allclose(op, expected)


def test_sm_projectors():
    sm = Q.std_gate("SM")
    assert sm.labels == (0, 1)
    assert np.allclose(sm.operator(0), np.diag([1, 0]))
    assert np.allclose(sm.operator(1), np.diag([0, 1]))
    assert not sm.is_unitary


def test_pm_projects_on_parity():
    pm = Q.std_gate("PM")
    assert np.allclose(pm.operator(0), np.diag([1, 0, 0, 1]))
    assert np.allclose(pm.operator(1), np.diag([0, 1, 1, 0]))


def test_std_gate_param_counts():
    with pytest.raises(InvalidFamilyError):
        Q.std_gate("H", [1])
    with pytest.raises(InvalidFamilyError):
        Q.std_gate("R")
    with pytest.raises(UnknownNameError):
        Q.std_gate("BOGUS")


# ---------------------------------------------------------------------------
# family validation and constructors
# ---------------------------------------------------------------------------

def test_validate_family_complete_is_none():
    assert Q.validate_family(Q.std_gate("SM")) is None
    assert Q.validate_family(Q.std_gate("PM")) is None
    assert Q.validate_family(Q.std_gate("QFT", [3])) is None


LIBRARY_GRID = (
    [(name, ()) for name in ("I", "H", "X", "Y", "Z", "SWAP", "CNOT", "SM", "PM")]
    + [("R", (k,)) for k in range(1, 13)]
    + [(name, (n,)) for name in ("QFT", "QFTdg") for n in range(1, 7)]
    + [("mark", (n, m)) for n in range(1, 6) for m in range(2**n)]
    + [("reflect0", (n,)) for n in range(1, 7)]
)


def test_library_families_are_complete():
    # The library builds its families, their c forms and the identity
    # defaults without the completeness check, so the check runs here.
    reg = Q.Registry()
    for name, params in LIBRARY_GRID:
        fam = reg.family(name, params)
        assert Q.validate_family(fam) is None, fam.name
        if fam.is_unitary:
            cfam = reg.family("c" + name, params)
            assert cfam.name == "c" + fam.name
            assert Q.validate_family(cfam) is None, cfam.name
    for arity in range(1, 5):
        assert Q.validate_family(Q.identity_family(arity)) is None


def test_validate_family_reports_worst_entry():
    fam = Q.MeasurementFamily("lossy", 1, (Q.Outcome(0, np.diag([1.0, 0.5])),))
    diag = Q.validate_family(fam)
    assert diag is not None
    assert diag.entry == (1, 1)
    assert abs(diag.max_deviation - 0.75) < 1e-15
    assert "lossy" in diag.message


def test_make_family_enforces_completeness():
    with pytest.raises(InvalidFamilyError):
        Q.make_family("lossy", 1, [(0, np.diag([1.0, 0.5]))])
    ok = Q.make_family("sm2", 1, [(0, np.diag([1, 0])), (1, np.diag([0, 1]))])
    assert ok.labels == (0, 1)


def test_family_structural_validation():
    with pytest.raises(InvalidFamilyError):
        Q.MeasurementFamily("dup", 1, (Q.Outcome(0, np.eye(2) / 2),
                                       Q.Outcome(0, np.eye(2) / 2)))
    with pytest.raises(InvalidFamilyError):
        Q.MeasurementFamily("neg", 1, (Q.Outcome(-1, np.eye(2)),))
    with pytest.raises(InvalidFamilyError):
        Q.MeasurementFamily("dim", 2, (Q.Outcome(0, np.eye(2)),))
    with pytest.raises(InvalidFamilyError):
        Q.MeasurementFamily("shape", 1, (Q.Outcome(0, np.ones((2, 3))),))


def test_unitary_family_rejects_nonunitary():
    with pytest.raises(InvalidFamilyError):
        Q.unitary_family("bad", np.array([[1, 0], [0, 0.5]]))


def test_scaled_family_unit_scalar_only():
    x = Q.std_gate("X")
    neg = Q.scaled_family(x, -1)
    assert np.allclose(neg.outcomes[0].operator, -np.array(FROZEN["X"]))
    assert Q.validate_family(neg) is None
    phase = Q.scaled_family(x, np.exp(0.3j))
    assert Q.validate_family(phase) is None
    with pytest.raises(InvalidFamilyError):
        Q.scaled_family(x, 2.0)


def test_family_power():
    x = Q.std_gate("X")
    assert np.allclose(Q.family_power(x, 2).outcomes[0].operator, np.eye(2))
    r3 = Q.std_gate("R", [3])
    assert np.allclose(Q.family_power(r3, 4).outcomes[0].operator,
                       np.diag([1, -1]), atol=1e-12)
    with pytest.raises(InvalidFamilyError):
        Q.family_power(Q.std_gate("SM"), 2)


def test_family_equality_and_hash():
    a = Q.std_gate("X")
    b = Q.std_gate("X")
    assert a == b and hash(a) == hash(b)
    assert a != Q.std_gate("Z")
    assert a != Q.scaled_family(a, -1)
    sm = Q.std_gate("SM")
    assert sm == Q.std_gate("SM") and sm != Q.std_gate("PM")
    assert sm != Q.MeasurementFamily("SM", 1, tuple(reversed(sm.outcomes)))


def test_outcome_equality_and_hash():
    x = Q.std_gate("X").outcomes[0]
    same = Q.std_gate("X").outcomes[0]
    assert x is not same and x == same and hash(x) == hash(same)
    assert x != Q.std_gate("Z").outcomes[0]
    assert x != Q.Outcome(1, x.operator)
    assert x != Q.Outcome(0, np.eye(4)) and x != "X"
    assert len({x, same, Q.std_gate("Z").outcomes[0]}) == 2


# ---------------------------------------------------------------------------
# applying operators: stride embedding vs the naive oracle
# ---------------------------------------------------------------------------

def structured_operators(rng: np.random.Generator, dim: int) -> list:
    """(kind it must get, operator): a general diagonal (zeros and
    repeats), a diagonal of phases, the identity, a monomial with phases,
    a permutation that moves every row and the two operators of a reset
    family, besides a dense operator."""
    def phases(n):
        # unit phases, with repeats and with 1 among them
        return rng.choice([1, -1, 1j, np.exp(0.3j), np.exp(rng.uniform(0, 6) * 1j)], size=n)
    perm = rng.permutation(dim)
    if (perm == np.arange(dim)).all():
        perm = perm[::-1]
    return [
        ("dense", rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))),
        ("gather", np.diag(rng.choice([0, 1, -1, 0.5j, rng.normal() + 1j], size=dim))),
        ("gather", np.diag(phases(dim))),
        ("gather", np.eye(dim)),
        ("gather", np.eye(dim)[perm] * phases(dim)[:, None]),
        ("gather", np.eye(dim)[np.roll(np.arange(dim), 1)]),
        # |0><0| and |0><1| on the first wire of the gate: complete, and
        # neither diagonal nor one nonzero per column
        ("gather", np.kron([[1, 0], [0, 0]], np.eye(dim // 2))),
        ("gather", np.kron([[0, 1], [0, 0]], np.eye(dim // 2))),
    ]


def test_apply_operator_matches_oracle():
    rng = np.random.default_rng(2024)
    cases = [
        (1, (1,)), (2, (1,)), (2, (2,)), (2, (1, 2)), (2, (2, 1)),
        (3, (2,)), (3, (3, 1)), (3, (1, 3)), (3, (2, 3, 1)),
        (4, (3,)), (4, (4, 2)), (4, (1, 4, 2)),
    ]
    for width, wires in cases:
        s = random_state(rng, width)
        for kind, op in structured_operators(rng, 2**len(wires)):
            st = Q.structure(op.astype(complex))
            assert st.kind == kind, (width, wires, op)
            want = embed_oracle(op, wires, width) @ s.amplitudes
            for applied in (Q.Structure("dense", op, None), st):  # dense is the reference
                got = Q.bind_operator(applied, wires, width)(s.amplitudes)
                assert np.abs(got - want).max() < 1e-12, (width, wires, op)
                assert_kernel_paths_agree(s.amplitudes, applied, wires, width)
    # every wire order up to width 4, for these operators and the library's
    library = library_families()
    for width in (1, 2, 3, 4):
        s = random_state(rng, width)
        for k in range(1, min(3, width) + 1):
            ops = [op.astype(complex) for _kind, op in structured_operators(rng, 2**k)]
            ops += [oc.operator for f in library if f.arity == k for oc in f.outcomes]
            for op in ops:
                st = Q.structure(op)
                for wires in itertools.permutations(range(1, width + 1), k):
                    for applied in (Q.Structure("dense", op, None), st):
                        assert_kernel_paths_agree(s.amplitudes, applied, wires, width)


def assert_kernel_paths_agree(amps, op, wires, width):
    """Writing into a buffer, and in place for a diagonal, gives the
    bytes of the allocating path, which leaves ``amps`` unchanged."""
    before = amps.tobytes()
    want = Q.bind_operator(op, wires, width)(amps).tobytes()
    assert amps.tobytes() == before
    buf = np.full(amps.shape, np.nan, dtype=complex)
    assert Q.bind_operator(op, wires, width)(amps, buf) is buf
    assert buf.tobytes() == want, (wires, op)
    own = amps.copy()
    if op.diagonal:
        assert Q.bind_operator(op, wires, width)(own, own) is own
        assert own.tobytes() == want, (wires, op)
    else:
        with pytest.raises(QmathError, match="in place"):
            Q.bind_operator(op, wires, width)(own, own)


def library_families() -> list:
    """Every library gate and measurement at small parameters, the
    controlled forms the c prefix makes and the phase-scaled forms a
    phase prefix makes."""
    reg = Q.Registry()
    fams = [Q.std_gate(name) for name in ("I", "H", "X", "Y", "Z", "SWAP", "CNOT", "SM", "PM")]
    fams += [Q.std_gate(name, (n,)) for name in ("R", "QFT", "QFTdg", "reflect0")
             for n in (1, 2, 3)]
    fams += [Q.std_gate("mark", (n, m)) for n in (1, 2) for m in range(2**n)]
    fams += [reg.family(name, params) for name, params in
             (("cR", (2,)), ("cR", (3,)), ("cH", ()), ("cZ", ()), ("ccX", ()))]
    return fams + [Q.scaled_family(f, phase) for f in fams if f.is_unitary
                   for phase in (-1, 1j)]


def test_apply_unitary_preserves_norm():
    rng = np.random.default_rng(5)
    s = random_state(rng, 3)
    h = Q.std_gate("H")
    fired = Q.bind_outcomes(h, (2,), 3)(s.amplitudes)
    assert fired.probabilities == (1.0,)
    vec, _drift = fired.post(0)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    with pytest.raises(InvalidFamilyError):
        Q.unitary_family("U", np.array([[1, 0], [0, 0.5]]))


def test_cnot_on_nonadjacent_wires():
    # CNOT(3, 1) on |001> flips wire 1: expect |101>
    s = Q.make_state("001", 3)
    cnot = Q.std_gate("CNOT").outcomes[0].structure
    t = Q.QuantumState(3, Q.bind_operator(cnot, (3, 1), 3)(s.amplitudes))
    assert np.allclose(t.amplitudes, Q.basis_state([1, 0, 1]))


def test_outcome_probability_and_collapse():
    plus = Q.make_state("plus", 1)
    sm = Q.std_gate("SM")
    fired = Q.bind_outcomes(sm, (1,), 1)(plus.amplitudes)
    p0, p1 = fired.probabilities
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
    vec, drift = fired.post(0)
    assert np.allclose(vec, [1, 0]) and drift == 0.0
    zero = Q.make_state("0", 1)
    fired = Q.bind_outcomes(sm, (1,), 1)(zero.amplitudes)
    assert fired.probabilities == (1.0, 0.0)
    with pytest.raises(ImpossibleBranchError):
        fired.post(1)


def test_post_state_is_frozen_and_normalized_without_revalidation():
    # Probabilities come from the marginal, before any vector is made; a
    # followed outcome is divided by the square root of its probability.
    rng = np.random.default_rng(5)
    s = random_state(rng, 3)
    pm = Q.std_gate("PM")
    fired = Q.bind_outcomes(pm, (3, 1), 3)(s.amplitudes)
    for i, p in enumerate(fired.probabilities):
        raw = Q.bind_operator(pm.outcomes[i].structure, (3, 1), 3)(s.amplitudes)
        assert abs(p - np.vdot(raw, raw).real) <= 1e-15
        vec, drift = fired.post(i)
        assert drift == 0.0 and abs(np.linalg.norm(vec) - 1.0) <= 1e-15
        assert np.allclose(vec, raw / np.linalg.norm(raw))
    # Handed over with scratch, an outcome is written into a buffer, but
    # the last one made, a diagonal, scales the state itself in place.
    own = s.amplitudes.copy()
    buffers = []
    fired = Q.bind_outcomes(pm, (3, 1), 3)(own, lambda: buffers.append(np.empty(8, complex))
                                           or buffers[-1])
    first, _ = fired.post(0)
    last, _ = fired.post(1, last=True)
    assert first is buffers[0] and last is own and len(buffers) == 1
    # the walk freezes each post-measurement state it hands out
    for b in S.enumerate_branches(parse("ket 000 on 1, 2, 3; H(1); H(3); e := PM(3, 1)")).branches:
        assert not b.state.amplitudes.flags.writeable
        assert abs(np.linalg.norm(b.state.amplitudes) - 1.0) <= Q.ATOL
    # states built from outside input are still checked in full
    with pytest.raises(InvalidStateError):
        Q.QuantumState(1, np.array([0.6, 0.6], dtype=complex))
    with pytest.raises(InvalidStateError):
        Q.QuantumState(1, np.array([np.inf, 0.0], dtype=complex))
    with pytest.raises(InvalidStateError):
        Q.make_state([np.nan, 1.0], 1)
    # an operator whose product overflows (to inf + nan j) never makes a
    # post-measurement state: its nan probability is rejected like one
    # above 1, for a single-outcome family and for a measuring one
    huge = Q.MeasurementFamily("huge", 1, (Q.Outcome(0, np.full((2, 2), 1.5e308)),))
    plus = Q.make_state("plus", 1).amplitudes
    with np.errstate(all="ignore"), pytest.raises(InvalidFamilyError, match="nan"):
        Q.bind_outcomes(huge, (1,), 1)(plus)
    huge2 = Q.MeasurementFamily("huge2", 1, (Q.Outcome(0, np.full((2, 2), 1.5e308)),
                                             Q.Outcome(1, np.eye(2))))
    with np.errstate(all="ignore"), pytest.raises(InvalidFamilyError, match="not at most 1"):
        Q.bind_outcomes(huge2, (1,), 1)(plus)


def test_exact_unitary_has_a_norm_pass_only_when_its_drift_bound_passes_the_slack():
    rng = np.random.default_rng(8)
    s = random_state(rng, 3)
    h = Q.std_gate("H")
    assert h.exact
    fire = Q.bind_outcomes(h, (2,), 3)
    want = Q.bind_operator(h.outcomes[0].structure, (2,), 3)(s.amplitudes).tobytes()
    # Probability 1 with no pass; the vector is not divided, and its
    # drift bound grows by 2**k units of roundoff.
    fired = fire(s.amplitudes)
    assert fired.probabilities == (1.0,)
    vec, drift = fired.post(0, 3e-14)
    assert vec.tobytes() == want and drift == 3e-14 + 2 * Q.ROUNDOFF
    # Past the slack, a norm pass reads the deviation itself, which is
    # far below half the slack here, so the vector is still not divided.
    vec, drift = fire(s.amplitudes).post(0, Q.UNIT_NORM_SLACK)
    assert vec.tobytes() == want
    assert drift == abs(np.vdot(vec, vec).real - 1.0) <= Q.UNIT_NORM_SLACK / 2
    # A state that has drifted by more than half the slack is divided.
    off = s.amplitudes * (1 + 1e-13)
    vec, drift = fire(off).post(0, Q.UNIT_NORM_SLACK)
    assert drift == 0.0 and abs(np.vdot(vec, vec).real - 1.0) <= 1e-15
    # Complete within ATOL but not within UNIT_NORM_SLACK: a checked
    # family keeps its norm pass, reports its squared norm as its
    # probability and has each outcome divided, so the norm does not
    # drift over many gates.
    lossy = Q.unitary_family("lossy", np.diag([1.0, 1.0 - 1e-10]))
    assert not lossy.exact
    fire = Q.bind_outcomes(lossy, (1,), 1)
    t = Q.make_state("plus", 1).amplitudes
    for _ in range(2000):
        fired = fire(t)
        assert fired.probabilities[0] < 1.0
        t, drift = fired.post(0)
        assert drift == 0.0
    assert abs(np.linalg.norm(t) - 1.0) < 1e-13


def test_exact_families_are_library_unitaries_and_their_c_and_negated_forms():
    reg = Q.Registry()
    for f in library_families():
        assert f.exact == (f.is_unitary and not f.name.startswith("(1j)")), f.name
    assert reg.family("ccX").exact and reg.family("cR", (3,)).exact
    assert Q.scaled_family(Q.std_gate("X"), -1.0).exact
    # a checked family is never exact, nor is anything built from one
    u = Q.unitary_family("U", np.diag([1.0, 1j]))
    assert not u.exact and not Q.family_power(Q.std_gate("H"), 2).exact
    reg.register_family(Q.MeasurementFamily("V", 1, (Q.Outcome(0, np.eye(2)),), exact=True))
    reg.register_family(u)
    assert not reg.family("V").exact and not reg.family("cU").exact
    with pytest.raises(InvalidFamilyError, match="single-outcome"):
        Q.MeasurementFamily("M", 1, Q.std_gate("SM").outcomes, exact=True)


def random_measurement(rng: np.random.Generator, k: int, gather: bool) -> Q.MeasurementFamily:
    """A complete family of 2 or 3 outcomes on k wires: gathers (phased
    projectors on a partition of the basis, one of them permuted) or
    dense Kraus operators cut from a random isometry."""
    d = 2**k
    n = int(rng.integers(2, 4))
    if gather:
        part = rng.integers(0, n, size=d)
        ops = [np.diag((part == i) * np.exp(2j * np.pi * rng.random(d))) for i in range(n)]
        ops[0] = ops[0][rng.permutation(d)]
    else:
        g = rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d))
        q, _ = np.linalg.qr(g)
        ops = [q[i * d:(i + 1) * d] for i in range(n)]
    return Q.make_family("M", k, list(enumerate(ops)))


@pytest.mark.parametrize("gather", [True, False])
def test_probabilities_are_the_squared_norms_of_the_outcome_vectors(gather):
    # Marginal and reduced-density-matrix probabilities against the
    # squared norm of each outcome vector, on every layout: gate wires in
    # any order, short and long trailing runs of other wires.
    rng = np.random.default_rng(11 + gather)
    for width, k in [(1, 1), (3, 1), (3, 2), (4, 3), (5, 2), (12, 1), (12, 2)]:
        s = random_state(rng, width)
        for _ in range(3):
            wires = tuple(int(w) for w in rng.permutation(np.arange(1, width + 1))[:k])
            f = random_measurement(rng, k, gather)
            fired = Q.bind_outcomes(f, wires, width)(s.amplitudes)
            assert len(fired.probabilities) == len(f.outcomes)
            for i, (oc, p) in enumerate(zip(f.outcomes, fired.probabilities)):
                raw = embed_oracle(oc.operator, wires, width) @ s.amplitudes if width <= 5 \
                    else Q.bind_operator(oc.structure, wires, width)(s.amplitudes)
                assert abs(p - np.vdot(raw, raw).real) <= 1e-13, (width, wires)
                if p > Q.PRUNE_EPS:
                    vec, _ = fired.post(i)
                    assert np.allclose(vec, raw / math.sqrt(p), atol=1e-13)


def test_parity_measurement_on_bell():
    bell = Q.make_state("bell00", 2)
    even, odd = Q.bind_outcomes(Q.std_gate("PM"), (1, 2), 2)(bell.amplitudes).probabilities
    assert abs(even - 1.0) < 1e-12
    assert odd < 1e-15


def test_check_wires():
    with pytest.raises(Q.InvalidStateError):
        Q.check_wires((0,))
    with pytest.raises(Q.InvalidStateError):
        Q.check_wires((1, 1))
    with pytest.raises(Q.InvalidStateError):
        Q.check_wires((25,), width=24)
    assert Q.check_wires([2, 1]) == (2, 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_user_families_shadow_std():
    reg = Q.Registry()
    reg.register_family(Q.unitary_family("H", np.eye(2)))
    assert np.allclose(reg.family("H").outcomes[0].operator, np.eye(2))
    fresh = Q.Registry()
    assert np.allclose(fresh.family("H").outcomes[0].operator, np.array(FROZEN["H"]))


def test_registry_controlled_resolution():
    reg = Q.Registry()
    cx = reg.family("cX")
    assert np.allclose(cx.outcomes[0].operator, np.array(FROZEN["CNOT"]))
    ccx = reg.family("ccX")
    oracle = np.eye(8)
    oracle[6:, 6:] = np.array(FROZEN["X"])
    assert np.allclose(ccx.outcomes[0].operator, oracle)
    with pytest.raises(InvalidFamilyError):
        reg.family("cSM")  # only single-outcome families have a controlled form
    with pytest.raises(UnknownNameError):
        reg.family("cNOPE")


def test_registry_rejects_underscored_names():
    reg = Q.Registry()
    with pytest.raises(RegistryError):
        reg.register_family(Q.unitary_family("my_gate", np.eye(2)))


def test_registry_states():
    reg = Q.Registry()
    reg.register_state("psi", [0.6, 0.8j])
    s = Q.make_state("psi", 1, reg)
    assert np.allclose(s.amplitudes, [0.6, 0.8j])
    with pytest.raises(RegistryError):
        reg.register_state("odd", [1.0, 0.0, 0.0])


def test_load_registry_families_and_states():
    doc = [
        {"name": "G", "arity": 1,
         "outcomes": [{"label": 0, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]},
        {"name": "phi", "qubits": 1, "amplitudes": [[1, 0], [0, 0]]},
    ]
    reg = Q.load_registry(doc)
    assert np.allclose(reg.family("G").outcomes[0].operator, np.array(FROZEN["X"]))
    assert np.allclose(Q.make_state("phi", 1, reg).amplitudes, [1, 0])
    with pytest.raises(RegistryError):
        Q.load_registry([{"name": "broken"}])
    with pytest.raises(InvalidFamilyError):
        Q.load_registry([{"name": "B", "arity": 1,
                          "outcomes": [{"label": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]}])


def test_load_registry_checks_each_family_once(monkeypatch):
    checked = []
    check = Q.validate_family
    monkeypatch.setattr(Q, "validate_family", lambda f: checked.append(f.name) or check(f))
    reg = Q.load_registry([{"name": "G", "arity": 1, "outcomes": [
        {"label": 0, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]}])
    assert checked == ["G"] and "G" in reg.families
    # A defective entry: outcome 0 keeps only half the amplitude of |1>.
    checked.clear()
    with pytest.raises(InvalidFamilyError) as exc:
        Q.load_registry([{"name": "lossy", "arity": 1, "outcomes": [
            {"label": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]}]}])
    assert str(exc.value) == ("lossy: operators do not sum to identity "
                              "(deviation 0.75 at entry (1, 1))")
    assert checked == ["lossy"]


def test_each_family_operator_is_copied_once(monkeypatch):
    # _as_operator makes the one read-only copy a family keeps.
    copied = []
    coerce = Q._as_operator
    monkeypatch.setattr(Q, "_as_operator",
                        lambda m, context: copied.append(context) or coerce(m, context))
    Q.unitary_family("U", np.eye(4))
    assert copied == ["U"]
    copied.clear()
    Q.Registry().family("cX")
    assert copied == ["X", "cX"]


def test_valid_operator_is_tested_for_finiteness_once(monkeypatch):
    # MeasurementFamily tests each operator it keeps; unitary_family's own
    # test only orders the errors of a matrix whose dimension is bad.
    tested = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: tested.append(a.shape) or isfinite(a))
    Q.unitary_family("U", np.eye(4))
    assert tested == [(4, 4)]


@pytest.mark.parametrize("matrix,message", [
    (np.ones((2, 3)), "U: operator must be square, got shape (2, 3)"),
    (np.ones(4), "U: operator must be square, got shape (4,)"),
    (np.full((3, 2), np.nan), "U: operator must be square, got shape (3, 2)"),
    (np.full((3, 3), np.nan), "U: operator has non-finite entries"),
    (np.full((2, 2), np.inf), "U: operator has non-finite entries"),
    (np.eye(3), "U: operator dimension 3 is not a power of two"),
    (np.zeros((0, 0)), "U: operator dimension 0 is not a power of two"),
    (np.eye(1), "arity must be >= 1, got 0"),
    (np.full((1, 1), np.nan), "U: operator has non-finite entries"),
])
def test_unitary_family_reports_the_first_defect(matrix, message):
    with pytest.raises(InvalidFamilyError) as exc:
        Q.unitary_family("U", matrix)
    assert str(exc.value) == message


def test_knows_gate():
    reg = Q.Registry()
    assert reg.knows_gate("H") and reg.knows_gate("PM") and reg.knows_gate("cX")
    assert not reg.knows_gate("zeta")
