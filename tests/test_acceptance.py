"""Sign-off suite: one test per headline guarantee of the package.

Every expected value here is computed by an inline closed-form oracle
(basis vectors, the DFT formula, the rotation-count sine formula, a
brute-force ordered-partition enumerator) and compared against the
simulator with explicit tolerances.  Each test prints a PASS line with
the measured numbers; run with -s to see them.
"""
import itertools
import math
import time

import numpy as np
import pytest

from qcasm import ast as A
from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.parser import parse

from conftest import CORPUS, FIXTURES, corpus_program

TOL = 1e-9


def readings(branch_or_result) -> tuple[int, ...]:
    """Final single-qubit readout bits, most significant wire first."""
    entries = [t for t in branch_or_result.trace if t.mq == "SM"]
    return tuple(t.answer for t in sorted(entries, key=lambda t: t.wq))


# ---------------------------------------------------------------------------
# 1. measurement-based CNOT branch table
# ---------------------------------------------------------------------------

def test_measurement_based_cnot_branch_table():
    started = time.perf_counter()
    prog = corpus_program("cnot_mb")
    for c, t in itertools.product((0, 1), repeat=2):
        enum = S.enumerate_branches(prog, bindings={"c": c, "t": t})
        assert len(enum.branches) == 8, (c, t)
        for b in enum.branches:
            assert abs(b.probability - 0.125) <= TOL, (c, t, b.probability)
            target = Q.QuantumState(3, Q.basis_state([c, b.store["r"], c ^ t]))
            fid = Q.fidelity_up_to_phase(b.state, target)
            assert fid >= 1 - TOL, (c, t, b.store, fid)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS cnot: 4 inputs x 8 branches at 0.125 +- {TOL}, "
          f"states |c,r,c^t|, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. teleportation of random states
# ---------------------------------------------------------------------------

def test_teleportation_of_random_states():
    started = time.perf_counter()
    prog = corpus_program("teleport")
    worst_fid, worst_prob = 1.0, 0.0
    for k in range(20):
        rng = np.random.default_rng(k)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        registry = Q.Registry()
        registry.register_state("psi", psi)
        enum = S.enumerate_branches(prog, registry=registry)
        assert len(enum.branches) == 4, k
        for b in enum.branches:
            worst_prob = max(worst_prob, abs(b.probability - 0.25))
            assert abs(b.probability - 0.25) <= TOL, (k, b.probability)
            p, q = b.store["p"], b.store["q"]
            expected = np.kron(np.kron(Q.basis_state([p]), Q.basis_state([q])), psi)
            fid = Q.fidelity_up_to_phase(b.state, Q.QuantumState(3, expected))
            worst_fid = min(worst_fid, fid)
            assert fid >= 1 - TOL, (k, b.store, fid)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS teleport: 20 random states, worst |p-0.25| = {worst_prob:.2e}, "
          f"worst wire-3 fidelity = {worst_fid:.12f}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. Fourier-transform program equals the DFT matrix
# ---------------------------------------------------------------------------

def dft_matrix(n: int) -> np.ndarray:
    dim = 2**n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def test_fourier_program_matches_dft_matrix():
    started = time.perf_counter()
    prog = corpus_program("qft")
    worst = 0.0
    for n in range(1, 5):
        u = S.program_unitary(prog, bindings={"n": n})
        err = np.abs(u - dft_matrix(n)).max()
        worst = max(worst, err)
        assert err <= TOL, (n, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS qft: n=1..4, max entry error {worst:.2e}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 4. phase estimation reads every exact phase
# ---------------------------------------------------------------------------

def test_phase_estimation_reads_exact_phases():
    prog = corpus_program("phase_est")
    checked = 0
    worst = 0.0
    for n in range(1, 5):
        dim = 2**n
        for j in range(dim):
            registry = Q.Registry()
            registry.register_family(Q.unitary_family(
                "U", np.diag([1.0, np.exp(2j * np.pi * j / dim)])))
            registry.register_state("psi", np.array([0.0, 1.0], dtype=complex))
            enum = S.enumerate_branches(prog, bindings={"n": n, "m": 1},
                                        registry=registry)
            table = {}
            for b in enum.branches:
                key = readings(b)
                table[key] = table.get(key, 0.0) + b.probability
            expected = Q.index_bits(j, n)
            got = table.get(expected, 0.0)
            worst = max(worst, abs(got - 1.0))
            assert abs(got - 1.0) <= TOL, (n, j, table)
            checked += 1
    print(f"PASS phase estimation: {checked} exact phases over n=1..4, "
          f"worst |prob-1| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Grover search concentrates on the marked item
# ---------------------------------------------------------------------------

def test_grover_finds_marked_item():
    prog = corpus_program("grover")

    # n=2: a single round is exact.
    enum = S.enumerate_branches(prog, bindings={"n": 2, "N": 4, "m": 3})
    hit = sum(b.probability for b in enum.branches if readings(b) == (1, 1))
    assert abs(hit - 1.0) <= TOL, hit

    # n=3, marked item 5, two rounds: success equals the rotation formula
    # sin^2((2k+1) asin(1/sqrt(N))) with k = 2, N = 8.
    enum3 = S.enumerate_branches(prog, bindings={"n": 3, "N": 8, "m": 5})
    hit3 = sum(b.probability for b in enum3.branches if readings(b) == (1, 0, 1))
    analytic = math.sin(5 * math.asin(1 / math.sqrt(8))) ** 2
    assert abs(analytic - 0.9453125) < 1e-15
    assert hit3 >= 0.94
    assert abs(hit3 - analytic) <= TOL, (hit3, analytic)
    print(f"PASS grover: n=2 exact hit {hit:.12f}; "
          f"n=3 two rounds {hit3:.10f} vs analytic {analytic:.10f}")


# ---------------------------------------------------------------------------
# 6. every legal schedule gives the same branch distribution
# ---------------------------------------------------------------------------

def test_branch_distribution_is_schedule_independent(tele_registry):
    teleport = A.elaborate(corpus_program("teleport"), None, tele_registry)
    n_tele = S.check_schedule_independence(teleport, registry=tele_registry,
                                           atol=TOL)
    assert n_tele == 13

    body = A.elaborate(corpus_program("cnot_mb")).body
    prefix = A.Program((), None, A.Sequential(body.parts[:3]))
    assert len(C.lower(prefix).gates) == 4
    n_cnot = S.check_schedule_independence(prefix, atol=TOL)
    assert n_cnot == 7
    print(f"PASS schedule independence: teleport {n_tele} schedules, "
          f"4-gate cnot prefix {n_cnot} schedules, identical distributions")


# ---------------------------------------------------------------------------
# 7. lowering agrees with brute-force oracles
# ---------------------------------------------------------------------------

def ordered_partitions(pool: frozenset):
    if not pool:
        yield ()
        return
    items = sorted(pool)
    for r in range(1, len(items) + 1):
        for head in itertools.combinations(items, r):
            for tail in ordered_partitions(pool - set(head)):
                yield (tuple(head),) + tail


def oracle_schedules(circ) -> set:
    good = set()
    for cand in ordered_partitions(frozenset(circ.gids)):
        try:
            C.check_schedule(circ, cand)
        except Exception:
            continue
        good.add(cand)
    return good


def test_lowering_matches_brute_force_oracles(pe_registry):
    # (a) the series-parallel order extends the prerequisite closure
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        prog = A.elaborate(corpus_program(name), bindings.get(name), reg)
        circ, tree = C._lower(prog)
        pairs = C.sp_pairs(tree)
        for gid, preds in circ.closure().items():
            for p in preds:
                assert (p, gid) in pairs, (name, p, gid)

    # (b) decomposition trees are invariant under re-bracing
    grouped = A.elaborate(parse("{H(1); X(2)}; {Y(3); {H(1)}}"))
    flat = A.elaborate(parse("H(1); {X(2); Y(3); H(1)}"))
    assert C.canonicalize(C.decomposition(grouped)) == \
        C.canonicalize(C.decomposition(flat))
    strict = A.elaborate(corpus_program("cnot_mb"))
    liberal = A.elaborate(corpus_program("cnot_mb_liberal"))
    assert C.lower(strict) == C.lower(liberal)

    # (c) all_schedules is exactly the ordered-partition oracle (<= 5 gates)
    small = [
        A.elaborate(parse("H(1) || H(2); X(1)")),
        A.elaborate(parse("H(1) || X(2) || Y(3)")),
        A.elaborate(corpus_program("qft"), {"n": 2}),
        A.Program((), None,
                  A.Sequential(A.elaborate(corpus_program("cnot_mb")).body.parts[:3])),
    ]
    counts = []
    for prog in small:
        circ = C.lower(prog)
        assert len(circ.gates) <= 5
        got = C.all_schedules(circ)
        assert set(got) == oracle_schedules(circ)
        assert len(got) == len(set(got))
        counts.append(len(got))
    print(f"PASS lowering oracles: closure refined on {len(CORPUS)} programs, "
          f"re-bracing invariant, schedule counts {counts} match brute force")


# ---------------------------------------------------------------------------
# 8. sampler statistics match the enumerated distribution
# ---------------------------------------------------------------------------

def test_sampler_matches_enumerated_distribution():
    started = time.perf_counter()
    prog = corpus_program("cnot_mb")
    shots = 80_000
    enum = S.enumerate_branches(prog, bindings={"c": 0, "t": 0})
    expected = {b.outcomes: b.probability for b in enum.branches}
    counts = S.sample_distribution(prog, shots, seed=0,
                                   bindings={"c": 0, "t": 0})
    assert sum(counts.values()) == shots
    assert set(counts) <= set(expected)
    worst = 0.0
    for key, prob in expected.items():
        freq = counts.get(key, 0) / shots
        worst = max(worst, abs(freq - prob))
        assert abs(freq - prob) <= 0.006, (key, freq, prob)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS sampler: {shots} shots over {len(expected)} outcomes, "
          f"worst |freq-prob| = {worst:.4f} <= 0.006, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. well-formedness: corpus accepted, mutated fixtures rejected
# ---------------------------------------------------------------------------

EXPECTED_CLAUSE = {
    "overlap": "parallel-disjoint-wires",
    "unbound": "unbound-channel-variable",
    "duplicate": "duplicate-output-variable",
    "measure": "measurement-outside-gate-rule",
}


def test_corpus_accepted_and_mutants_rejected(tele_registry, pe_registry):
    registries = {"teleport": tele_registry, "phase_est": pe_registry}
    for name in CORPUS:
        prog, diags = C.check_program(corpus_program(name), None,
                                      registries.get(name))
        assert prog is not None and diags == [], (name, diags)

    fixtures = sorted(FIXTURES.glob("*.qcasm"))
    assert len(fixtures) == 12
    for path in fixtures:
        expected = EXPECTED_CLAUSE[path.stem.split("_")[0]]
        prog, diags = C.check_program(parse(path.read_text()))
        messages = [d.render() for d in diags]
        assert any(expected in m for m in messages), (path.name, messages)
    print(f"PASS well-formedness: {len(CORPUS)} programs accepted, "
          f"12 mutants rejected with the expected clause tags")
