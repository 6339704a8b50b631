"""Seeded runs, exhaustive branch enumeration, classical-pass semantics,
composite operators, and the JSON renderings.

The composite-operator oracle multiplies naively embedded full matrices;
the embedding is rebuilt here from the basis convention (wire 1 is the
most significant bit) rather than shared with the code under test.
"""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcasm import ast as A
from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.errors import (ImpossibleBranchError, ScheduleError, SimulationError,
                          UnknownNameError)
from qcasm.parser import parse

from conftest import corpus_program, corpus_text


def ground(text: str, bindings=None, registry=None) -> A.Program:
    return A.elaborate(parse(text), bindings, registry)


def embed(op: np.ndarray, wires: tuple[int, ...], width: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def test_initial_state_basis_bits():
    prog = ground(corpus_text("cnot_mb"), {"c": 1, "t": 0})
    s = S.initial_state(prog)
    assert s.width == 3
    assert np.allclose(s.amplitudes, Q.basis_state([1, 0, 0]))


def test_initial_state_declaration_order_is_permuted():
    prog = ground("ket 1 on 2 and ket 0 on 1;\nH(1)")
    s = S.initial_state(prog)
    assert np.allclose(s.amplitudes, Q.basis_state([0, 1]))


def test_initial_state_block_on_reversed_wires():
    reg = Q.Registry()
    reg.register_state("asym", [0.0, 0.6, 0.8, 0.0])
    prog = ground("asym on 2, 1;\nH(1)")
    s = S.initial_state(prog, reg)
    # block bit 1 rides wire 2, block bit 2 rides wire 1
    expected = np.zeros(4, dtype=complex)
    expected[Q.basis_index([1, 0])] = 0.6
    expected[Q.basis_index([0, 1])] = 0.8
    assert np.allclose(s.amplitudes, expected)


def test_initial_state_pads_undeclared_wires():
    reg = Q.Registry()
    reg.register_state("psi", [0.6, 0.8])
    prog = ground("psi on 2;\nH(3)")
    s = S.initial_state(prog, reg)
    expected = np.zeros(8, dtype=complex)
    expected[Q.basis_index([0, 0, 0])] = 0.6
    expected[Q.basis_index([0, 1, 0])] = 0.8
    assert np.allclose(s.amplitudes, expected)


def test_initial_state_no_declaration_is_all_zeros():
    s = S.initial_state(ground("H(1); H(2)"))
    assert s.amplitudes[0] == 1.0


def test_initial_state_unknown_name():
    prog = ground("mystery on 1;\nH(1)")
    with pytest.raises(UnknownNameError):
        S.initial_state(prog)


def test_initial_state_width_cap():
    with pytest.raises(SimulationError, match="limit"):
        S.initial_state(ground("H(1)"), width=Q.MAX_WIDTH + 1)


# ---------------------------------------------------------------------------
# seeded runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic(tele_registry):
    prog = corpus_program("teleport")
    a = S.run(prog, seed=5, registry=tele_registry)
    b = S.run(prog, seed=5, registry=tele_registry)
    assert a.outcomes == b.outcomes
    assert a.store == b.store
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
    assert a.probability == b.probability


def test_walk_hands_out_frozen_states_of_their_own(monkeypatch, tele_registry):
    # The walk writes gates in place and recycles dead arrays, so every
    # state it returns must be frozen and share memory with no other.
    prep = S.prepare(ground("ket 101 on 1, 2, 3; H(1); cR_2(2, 1); Z(3); "
                            "CNOT(3, 2); p := SM(2); if p = 1 then X(1)"))
    runs = [S.run(prep, seed=seed) for seed in (0, 1, 0, 1)]
    assert runs[0].state.amplitudes.tobytes() == runs[2].state.amplitudes.tobytes()
    assert runs[1].state.amplitudes.tobytes() == runs[3].state.amplitudes.tobytes()
    states = [r.state.amplitudes for r in runs]
    states += [b.state.amplitudes for b in S.enumerate_branches(
        corpus_program("teleport"), registry=tele_registry).branches]
    states += [b.state.amplitudes for b in S.enumerate_branches(
        corpus_program("cnot_mb"), bindings={"c": 1, "t": 0}).branches]
    leaves = []
    walk = S._walk

    def spy(*args):
        for item in walk(*args):
            if not isinstance(item, float):
                leaves.append(item[0].amplitudes)
            yield item

    monkeypatch.setattr(S, "_walk", spy)
    u = S.program_unitary(corpus_program("qft"), bindings={"n": 3})
    assert np.array_equal(u, np.stack(leaves, axis=1))
    states += leaves
    assert len(states) == 4 + 4 + 8 + 8
    for i, a in enumerate(states):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in states[i + 1:])


def test_operators_are_classified_once_when_first_applied(monkeypatch):
    classified = []
    classify = Q.structure
    monkeypatch.setattr(Q, "structure", lambda op: classified.append(op) or classify(op))
    prog = A.elaborate(corpus_program("qft"), {"n": 8})
    A.elaborate(corpus_program("grover"), {"n": 6, "N": 64, "m": 45})
    assert classified == []
    prep = S.prepare(prog)
    S.run(prep, seed=1)
    S.run(prep, seed=2)
    fired = {id(oc.operator) for g in prep.circuit.gates for oc in g.families[0].outcomes}
    # H, SWAP and cR_2 .. cR_8; the R_k that cR_k is built from never fire
    assert len(fired) == 9
    assert sorted(map(id, classified)) == sorted(fired)


def test_run_seeds_cover_branches(tele_registry):
    prog = corpus_program("teleport")
    seen = {S.run(prog, seed=s, registry=tele_registry).outcomes for s in range(40)}
    assert len(seen) == 4


def test_run_outcomes_sorted_by_gate(tele_registry):
    r = S.run(corpus_program("teleport"), seed=0, registry=tele_registry)
    gids = [g for g, _ in r.outcomes]
    assert gids == sorted(gids)
    assert abs(r.probability - 0.25) < 1e-9


def test_run_agrees_with_enumeration(tele_registry):
    prog = corpus_program("teleport")
    enum = S.enumerate_branches(prog, registry=tele_registry)
    table = {b.outcomes: b for b in enum.branches}
    for seed in range(10):
        r = S.run(prog, seed=seed, registry=tele_registry)
        b = table[r.outcomes]
        assert abs(r.probability - b.probability) < 1e-12
        assert r.store == b.store
        assert np.allclose(r.state.amplitudes, b.state.amplitudes)


def test_run_accepts_alternative_schedules(tele_registry):
    prog = corpus_program("teleport")
    circ = C.lower(A.elaborate(prog))
    for sched in C.all_schedules(circ):
        r = S.run(prog, seed=3, registry=tele_registry, schedule=sched)
        assert r.schedule == sched
    bad = tuple(reversed(C.greedy_schedule(A.elaborate(prog))))
    with pytest.raises(ScheduleError):
        S.run(prog, registry=tele_registry, schedule=bad)


def test_prepare_trusts_its_own_schedule_and_checks_any_other(monkeypatch, tele_registry):
    checked = []
    check = C.check_schedule
    monkeypatch.setattr(C, "check_schedule", lambda c, s: checked.append(s) or check(c, s))
    prep = S.prepare(corpus_program("teleport"), registry=tele_registry)
    assert checked == []
    assert [gate.gid for _step, gate in prep.firing] == [g for bout in prep.schedule for g in bout]
    bad = tuple(reversed(prep.schedule))
    with pytest.raises(ScheduleError):
        S.prepare(corpus_program("teleport"), registry=tele_registry, schedule=bad)
    with pytest.raises(ScheduleError):
        prep.with_schedule(bad)
    with pytest.raises(ScheduleError):
        S.PreparedProgram(prep.program, prep.registry, prep.circuit, prep.tree, bad)
    assert checked == [bad] * 3
    last = C.all_schedules(prep.circuit)[-1]
    copy = prep.with_schedule(last)
    assert checked[-1] == last and copy.schedule == last
    assert [(step, gate.gid) for step, gate in copy.firing] == [
        (step, g) for step, bout in enumerate(last, start=1) for g in bout]


def test_firing_order_within_bout_is_by_gate_id(tele_registry):
    prep = S.prepare(corpus_program("teleport"), registry=tele_registry)
    steps = [(step, gate.gid) for step, gate in prep.firing]
    assert steps == [(1, (1, 0)), (2, (1, 1)), (3, (1, 2)), (3, (2, 1)),
                     (4, (3, 0)), (5, (3, 1))]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_teleport_enumeration(tele_registry):
    psi = np.array([0.6, 0.8j])
    enum = S.enumerate_branches(corpus_program("teleport"), registry=tele_registry)
    assert len(enum.branches) == 4
    assert enum.pruned_mass == 0.0
    assert abs(enum.total_probability - 1.0) < 1e-12
    stores = set()
    for b in enum.branches:
        assert abs(b.probability - 0.25) < 1e-9
        p, q = b.store["p"], b.store["q"]
        stores.add((p, q))
        expected = np.kron(np.kron(Q.basis_state([p]), Q.basis_state([q])), psi)
        fid = Q.fidelity_up_to_phase(b.state, Q.QuantumState(3, expected))
        assert fid > 1 - 1e-12
    assert stores == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("c,t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_cnot_enumeration(c, t):
    enum = S.enumerate_branches(corpus_program("cnot_mb"), bindings={"c": c, "t": t})
    assert len(enum.branches) == 8
    for b in enum.branches:
        assert abs(b.probability - 0.125) < 1e-9
        r = b.store["r"]
        expected = Q.basis_state([c, r, c ^ t])
        fid = Q.fidelity_up_to_phase(b.state, Q.QuantumState(3, expected))
        assert fid > 1 - 1e-12


def test_enumeration_sorted_and_named(tele_registry):
    enum = S.enumerate_branches(corpus_program("teleport"), registry=tele_registry)
    keys = [b.outcomes for b in enum.branches]
    assert keys == sorted(keys)
    named = enum.named()
    assert len(named) == 4
    assert all(abs(p - 0.25) < 1e-9 for p in named.values())
    assert (("p", 0), ("q", 1)) in named


def test_min_prob_prunes_mass(tele_registry):
    prog = corpus_program("teleport")
    enum = S.enumerate_branches(prog, registry=tele_registry, min_prob=0.3)
    assert enum.branches == ()
    assert abs(enum.pruned_mass - 1.0) < 1e-9
    enum = S.enumerate_branches(prog, registry=tele_registry, min_prob=0.2)
    assert len(enum.branches) == 4
    assert abs(enum.total_probability + enum.pruned_mass - 1.0) < 1e-9


def test_zero_probability_outcomes_dropped_silently():
    enum = S.enumerate_branches(ground("p := SM(1)"))
    assert len(enum.branches) == 1
    assert enum.branches[0].store == {"p": 0}
    assert enum.pruned_mass == 0.0
    assert abs(enum.branches[0].probability - 1.0) < 1e-12


def test_max_branches_cap(tele_registry):
    with pytest.raises(SimulationError, match="branches"):
        S.enumerate_branches(corpus_program("teleport"), registry=tele_registry,
                             max_branches=3)


def test_total_plus_pruned_is_one():
    prog = ground("H(1); H(2); H(3); output SM(1); output SM(2); output SM(3)")
    enum = S.enumerate_branches(prog, min_prob=0.0)
    assert len(enum.branches) == 8
    assert abs(enum.total_probability + enum.pruned_mass - 1.0) < 1e-9
    enum = S.enumerate_branches(prog, min_prob=0.13)
    assert enum.branches == ()
    assert abs(enum.pruned_mass - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# trace protocol
# ---------------------------------------------------------------------------

def test_trace_records_selected_family(tele_registry):
    enum = S.enumerate_branches(corpus_program("teleport"), registry=tele_registry)
    by_store = {(b.store["p"], b.store["q"]): b for b in enum.branches}
    b = by_store[(0, 1)]
    assert [t.step for t in b.trace] == [1, 2, 3, 3, 4, 5]
    x_entry = b.trace[4]
    assert (x_entry.mq, x_entry.wq, x_entry.answer) == ("X", (3,), 0)
    z_entry = b.trace[5]
    assert z_entry.mq == "I"
    b0 = by_store[(0, 0)]
    assert b0.trace[4].mq == "I" and b0.trace[5].mq == "I"
    assert b0.trace[0].mq == "CNOT" and b0.trace[2].mq == "SM"


def test_anonymous_outcomes_appear_in_trace():
    enum = S.enumerate_branches(ground("H(1); output SM(1)"))
    assert len(enum.branches) == 2
    for b in enum.branches:
        assert b.store == {}
        readings = [t.answer for t in b.trace if t.mq == "SM"]
        assert readings in ([0], [1])
        assert b.outcomes[-1][1] == readings[0]


# ---------------------------------------------------------------------------
# classical pass
# ---------------------------------------------------------------------------

def test_sequential_classical_fold():
    enum = S.enumerate_branches(ground("p := SM(1); zzz := p + 1; yyy := zzz * 2"))
    (b,) = enum.branches
    assert b.store == {"p": 0, "zzz": 1, "yyy": 2}


def test_dynamic_function_location():
    enum = S.enumerate_branches(ground("p := SM(1); f(p + 1) := 7"))
    (b,) = enum.branches
    assert b.store == {"p": 0, "f(1)": 7}


def test_parallel_snapshot_semantics():
    enum = S.enumerate_branches(ground("zzz := 1; {aaa := zzz + 1} || {zzz := 5}"))
    (b,) = enum.branches
    assert b.store == {"zzz": 5, "aaa": 2}


def test_parallel_write_clash():
    with pytest.raises(SimulationError, match="different values"):
        S.run(ground("{zzz := 1} || {zzz := 2}"))


def test_parallel_consistent_writes_allowed():
    r = S.run(ground("{zzz := 1} || {zzz := 1}"))
    assert r.store == {"zzz": 1}


def test_classical_conditional_branches():
    enum = S.enumerate_branches(ground(
        "p := SM(1); if p = 1 then zzz := 1 else zzz := 2"))
    (b,) = enum.branches
    assert b.store["zzz"] == 2
    enum = S.enumerate_branches(ground("p := SM(1); if p = 1 then zzz := 1"))
    (b,) = enum.branches
    assert "zzz" not in b.store


def test_classical_sees_measurement_results():
    enum = S.enumerate_branches(ground(
        "H(1); p := SM(1); zzz := p * 10"))
    assert {b.store["zzz"] for b in enum.branches} == {0, 10}


def test_guard_must_be_boolean():
    with pytest.raises(SimulationError, match="truth value"):
        S.run(ground("p := SM(1); if p then zzz := 1"))
    with pytest.raises(SimulationError, match="truth value"):
        S.run(ground("p := SM(1); if p then X(2)"))


def test_dynamic_argument_must_be_integer():
    # comparisons produce truth values, which cannot index a location
    with pytest.raises(SimulationError, match="integer"):
        S.run(ground("zzz := 1 < 2; f(zzz) := 3"))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_single_shot_matches_run(tele_registry):
    prog = corpus_program("teleport")
    for seed in (0, 7, 123):
        counts = S.sample_distribution(prog, shots=1, seed=seed, registry=tele_registry)
        assert counts == {S.run(prog, seed=seed, registry=tele_registry).outcomes: 1}


def test_sample_counts_total(tele_registry):
    counts = S.sample_distribution(corpus_program("teleport"), shots=200,
                                   seed=1, registry=tele_registry)
    assert sum(counts.values()) == 200
    assert len(counts) == 4
    assert all(30 <= c <= 80 for c in counts.values())


def test_pick_never_returns_an_impossible_outcome():
    # u inside the mass of a leading impossible outcome: move on to the next
    # positive one instead of returning one that cannot be collapsed.
    assert S._pick((5e-13, 1 - 5e-13), 1e-13) == 1
    # u inside the mass of a later impossible outcome: the previous positive one.
    assert S._pick((0.5, 1e-13, 0.5), 0.5 + 5e-14) == 0
    with pytest.raises(ImpossibleBranchError):
        S._pick((1e-13, 0.0), 0.5)


# Masses of one family's outcomes: zero, impossible (at most PRUNE_EPS)
# or positive, in any order; and draws anywhere in [0, 1].
MASSES = st.lists(st.one_of(st.just(0.0), st.floats(0.0, Q.PRUNE_EPS),
                            st.sampled_from([0.25, 0.5, 1 / 3, 1.0]), st.floats(0.0, 1.0)),
                  min_size=1, max_size=6)


@given(MASSES, st.lists(st.floats(0.0, 1.0), max_size=4))
@example([1e-13, 0.5, 0.5], [])
@example([0.5, 0.0, 1e-13, 0.5], [])
@example([0.25, 0.75, 1e-12], [])
@example([0.0, 1.0, 0.0], [])
def test_cdf_lookup_of_many_draws_matches_pick(masses, us):
    # The sampler looks up all the draws at a node with np.searchsorted on
    # the table that _pick bisects; besides the given draws, try each
    # cumulative boundary, one ulp below it, 0 and the total mass.
    if all(m <= Q.PRUNE_EPS for m in masses):
        with pytest.raises(ImpossibleBranchError):
            S._cdf(masses)
        return
    cdf = S._cdf(masses)
    cum = np.array(cdf[0])
    us = np.concatenate([us, cum, np.nextafter(cum, -np.inf), [0.0, 1.0]])
    picks = S._pick_all(cdf, us)
    assert picks.tolist() == [S._pick(masses, float(u)) for u in us]
    assert all(masses[i] > Q.PRUNE_EPS for i in picks)


@pytest.mark.parametrize("seed", [0, 2**40 + 3, -7])
@pytest.mark.parametrize("m", [0, 1, 2, 97, 4000])
def test_getrandbits_skips_the_words_of_random_calls(seed, m):
    # sample_distribution skips the draws of m gates with one
    # getrandbits(64 * m) call: CPython's Mersenne Twister takes one
    # 32-bit word per 32 bits asked and two per random().
    a, b = random.Random(seed), random.Random(seed)
    if m:
        a.getrandbits(64 * m)
    for _ in range(m):
        b.random()
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("name, bindings, registry", [
    ("grover", {"n": 4, "N": 16, "m": 6}, None),
    ("cnot_mb", {"c": 0, "t": 1}, None),
    ("teleport", None, "tele"),
    ("phase_est", None, "pe"),
])
def test_sample_distribution_tallies_single_runs(name, bindings, registry,
                                                 tele_registry, pe_registry):
    # Shot k draws from Random(seed + k) as run does, one draw per gate,
    # though the sampler reads only the draws of measuring gates and skips
    # the others; so the counts are exactly the tally of the individual
    # runs.
    reg = {"tele": tele_registry, "pe": pe_registry, None: None}[registry]
    prep = S.prepare(corpus_program(name), bindings, reg)
    tally: dict = {}
    for k in range(300):
        outcomes = S.run(prep, seed=40 + k).outcomes
        tally[outcomes] = tally.get(outcomes, 0) + 1
    assert S.sample_distribution(prep, 300, seed=40) == tally


@pytest.mark.parametrize("name, bindings", [("grover", {"n": 4, "N": 16, "m": 11}),
                                            ("cnot_mb", {"c": 1, "t": 0})])
def test_sampler_chunk_size_does_not_change_counts(monkeypatch, name, bindings):
    # Each chunk of shots is its own walk of the outcome tree; the chunks'
    # counts, merged in order, must give the same dict in the same order
    # as one chunk of every shot.
    prep = S.prepare(corpus_program(name), bindings)
    measuring = sum(any(len(f.outcomes) > 1 for f in gate.families)
                    for _step, gate in prep.firing)
    draws, sizes = S._draws, []
    monkeypatch.setattr(S, "_draws", lambda seed, shots, skips:
                        sizes.append(shots) or draws(seed, shots, skips))
    whole = S.sample_distribution(prep, 120, seed=4)
    assert sizes == [120]
    for per_chunk, chunks in [(1, [1] * 120), (7, [7] * 17 + [1])]:
        sizes.clear()
        monkeypatch.setattr(S, "SAMPLE_CHUNK_DRAWS", per_chunk * measuring)
        assert list(S.sample_distribution(prep, 120, seed=4).items()) == list(whole.items())
        assert sizes == chunks


@pytest.mark.parametrize("budget", [0, 256, 1024])
@pytest.mark.parametrize("name, bindings", [("grover", {"n": 4, "N": 16, "m": 11}),
                                            ("cnot_mb", {"c": 1, "t": 0})])
def test_sampler_state_cache_budget_does_not_change_counts(monkeypatch, name, bindings,
                                                           budget):
    # The sampler's memory budget is SAMPLE_CHUNK_DRAWS, the draws held at
    # once: for 120 shots, 0 gives one shot per chunk, 256 two chunks of
    # unequal size and 1024 one chunk; each must reproduce the default
    # budget's counts in the same order.
    prog = corpus_program(name)
    whole = S.sample_distribution(prog, 120, seed=4, bindings=bindings)
    monkeypatch.setattr(S, "SAMPLE_CHUNK_DRAWS", budget)
    counts = S.sample_distribution(prog, 120, seed=4, bindings=bindings)
    assert list(counts.items()) == list(whole.items())


@pytest.mark.parametrize("shots", [-5, 2.5, True, "3", None])
def test_sample_distribution_rejects_bad_shot_counts(shots):
    with pytest.raises(SimulationError, match="shots must be a non-negative integer"):
        S.sample_distribution(parse("H(1); b := SM(1)"), shots)


def test_zero_shots_give_no_counts():
    assert S.sample_distribution(parse("H(1); b := SM(1)"), 0) == {}


# ---------------------------------------------------------------------------
# schedule independence
# ---------------------------------------------------------------------------

def test_schedule_independence_teleport(tele_registry):
    assert S.check_schedule_independence(corpus_program("teleport"),
                                         registry=tele_registry) == 13


def test_schedule_independence_needs_schedules(tele_registry):
    with pytest.raises(SimulationError, match="no schedules"):
        S.check_schedule_independence(corpus_program("teleport"),
                                      registry=tele_registry, schedules=[])


# ---------------------------------------------------------------------------
# composite operators
# ---------------------------------------------------------------------------

def test_program_unitary_matches_embedded_product():
    prog = ground("H(1); CNOT(1, 3); SWAP(2, 3); Z(2)")
    got = S.program_unitary(prog)
    h = Q.std_gate("H").outcomes[0].operator
    cnot = Q.std_gate("CNOT").outcomes[0].operator
    swap = Q.std_gate("SWAP").outcomes[0].operator
    z = Q.std_gate("Z").outcomes[0].operator
    oracle = (embed(z, (2,), 3) @ embed(swap, (2, 3), 3)
              @ embed(cnot, (1, 3), 3) @ embed(h, (1,), 3))
    assert np.abs(got - oracle).max() < 1e-12


def test_program_unitary_random_circuits():
    rng = np.random.default_rng(99)
    reg = Q.Registry()
    ops = {}
    for name, arity in (("A", 1), ("B", 1), ("D", 2)):
        dim = 2**arity
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(m)
        ops[name] = u
        reg.register_family(Q.unitary_family(name, u))
    prog = ground("A(2); D(3, 1); B(2); D(1, 2)", registry=reg)
    got = S.program_unitary(prog, registry=reg)
    oracle = (embed(ops["D"], (1, 2), 3) @ embed(ops["B"], (2,), 3)
              @ embed(ops["D"], (3, 1), 3) @ embed(ops["A"], (2,), 3))
    assert np.abs(got - oracle).max() < 1e-10
    assert Q.is_unitary_matrix(got)


def test_program_unitary_uses_guard_store():
    prog = ground("x := H(1); if x = 0 then X(2)")
    got = S.program_unitary(prog)
    h = Q.std_gate("H").outcomes[0].operator
    x = Q.std_gate("X").outcomes[0].operator
    oracle = embed(x, (2,), 2) @ embed(h, (1,), 2)
    assert np.abs(got - oracle).max() < 1e-12


def test_program_unitary_of_a_prepared_program():
    prep = S.prepare(corpus_program("qft"), {"n": 3})
    got = S.program_unitary(prep)
    assert got.tobytes() == S.program_unitary(corpus_program("qft"), {"n": 3}).tobytes()
    with pytest.raises(SimulationError, match="prepared program takes no bindings"):
        S.program_unitary(prep, bindings={"n": 3})
    with pytest.raises(SimulationError, match="prepared program takes no bindings"):
        S.program_unitary(prep, registry=Q.Registry())


def test_program_unitary_rejects_measurements():
    with pytest.raises(SimulationError, match="composite"):
        S.program_unitary(ground("p := SM(1)"))


def test_program_unitary_width_cap():
    with pytest.raises(SimulationError, match="width"):
        S.program_unitary(ground(f"H({S.UNITARY_MAX_WIDTH + 1})"))


def test_qft_unitary_matches_library_matrix():
    got = S.program_unitary(corpus_program("qft"), bindings={"n": 3})
    want = Q.fourier_matrix(3)
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def test_float_format_round_trips():
    for x in (1 / 3, 0.1, 1e-300, 123456789.123456789, 0.125, -0.0,
              math.pi, 2.0, 1e22):
        assert json.loads(S.emit_json(x)) == x
    assert S.emit_json(1 / 3) == "0.33333333333333331"
    assert S.emit_json(0.125) == "0.125"


def test_emit_json_rejects_non_finite():
    with pytest.raises(SimulationError):
        S.emit_json(float("nan"))
    with pytest.raises(SimulationError):
        S.emit_json([float("inf")])


def test_emit_json_renders_pair_arrays_like_nested_lists():
    rng = np.random.default_rng(17)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e22,
               1.0, -1.0, 1 / 3, np.finfo(float).max, -np.finfo(float).max]
    chunk = S.EMIT_CHUNK_ROWS
    for m in (1, 2, 5, 37, 300, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        arr = rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-20, 20, size=(m, 2))
        picks = rng.integers(0, len(special), size=m)
        arr[:, rng.integers(0, 2)] = np.array(special)[picks]
        for indent in (0, 1, 2, 5):
            assert S.emit_json(arr, indent) == S.emit_json(arr.tolist(), indent)
        doc = {"state": {"width": 1, "amplitudes": arr}}
        assert S.emit_json(doc) == S.emit_json({"state": {"width": 1,
                                                          "amplitudes": arr.tolist()}})
    # A list holding pair arrays lays them out as it lays out nested lists.
    short = np.array([[0.5, -0.25]])
    assert S.emit_json([short]) == S.emit_json([short.tolist()]) \
        == "[\n  [\n    [0.5, -0.25]\n  ]\n]"
    long = rng.normal(size=(chunk + 3, 2))
    for held in ([short, long, 3, short], (long, "x"), [[long, short]]):
        as_lists = json.loads(json.dumps(held, default=np.ndarray.tolist))
        for indent in (0, 3):
            assert S.emit_json(held, indent) == S.emit_json(as_lists, indent)
    empty = np.zeros((0, 2))
    assert S.emit_json(empty) == S.emit_json([]) == "[]"
    assert S.emit_json([empty, 1]) == S.emit_json([[], 1])
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.zeros((4, 2))
        arr[2, 1] = bad
        with pytest.raises(SimulationError, match="non-finite"):
            S.emit_json(arr)
    with pytest.raises(SimulationError, match="non-finite"):  # past the double range
        S.emit_json(np.array([[np.longdouble("1e400"), 0.0]], dtype=np.longdouble))
    with pytest.raises(SimulationError, match="ndarray"):
        S.emit_json(np.zeros((2, 3)))


def test_emit_json_scalars():
    assert S.emit_json(True) == "true"
    assert S.emit_json(None) == "null"
    assert S.emit_json(7) == "7"
    assert S.emit_json("a\"b") == '"a\\"b"'
    assert S.emit_json({}) == "{}"
    assert S.emit_json([]) == "[]"


def test_emit_json_layout():
    text = S.emit_json({"xs": [1, 2, 3], "nested": {"k": 0.5}})
    assert json.loads(text) == {"xs": [1, 2, 3], "nested": {"k": 0.5}}
    assert '"xs": [1, 2, 3]' in text  # short scalar lists stay on one line


def test_run_result_json_shape(tele_registry):
    r = S.run(corpus_program("teleport"), seed=0, registry=tele_registry)
    doc = S.run_result_json(r)
    text = S.emit_json(doc)
    parsed = json.loads(text)
    assert set(parsed) == {"schedule", "probability", "outcomes", "store",
                           "trace", "state"}
    assert parsed["state"]["width"] == 3
    assert len(parsed["state"]["amplitudes"]) == 8
    assert parsed["trace"][0]["mq"] == "CNOT"
    # byte determinism
    r2 = S.run(corpus_program("teleport"), seed=0, registry=tele_registry)
    assert S.emit_json(S.run_result_json(r2)) == text


def test_enumeration_json_shape(tele_registry):
    enum = S.enumerate_branches(corpus_program("teleport"), registry=tele_registry)
    doc = S.enumeration_json(enum)
    assert len(doc["branches"]) == 4
    assert "state" in doc["branches"][0]
    assert abs(doc["total_probability"] - 1.0) < 1e-12
    slim = S.enumeration_json(enum, with_states=False)
    assert "state" not in slim["branches"][0]
    json.loads(S.emit_json(doc))
