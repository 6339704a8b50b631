"""Schedule independence checked over the lattice of order ideals.

``check_schedule_independence`` fires each edge of the lattice of order
ideals of the prerequisite order once, instead of enumerating the
program once per schedule.  The reference here is that enumeration: one
``enumerate_branches`` walk per schedule, each compared with the first.
Both must give the same verdict and the same count on the shipped
programs and on random ones, and both must refuse a kernel that is
wrong in a way that makes the firing order matter.
"""
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings

from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm import sim as S
from qcasm.errors import CapExceededError, ScheduleError, SimulationError
from qcasm.parser import parse

from conftest import PROGRAMS, corpus_program
from test_dense_oracle import programs

MAX_REFERENCE_SCHEDULES = 1000


def reference_check(prep: S.PreparedProgram, schedules=None, min_prob: float = 0.0,
                    atol: float = Q.ATOL) -> int:
    """Enumerate under every schedule and compare each branch table with
    the first schedule's: the same outcome assignments, probabilities
    within atol, equal stores and ``np.allclose`` final states."""
    if schedules is None:
        schedules = C.all_schedules(prep.circuit)
    if not schedules:
        raise SimulationError("no schedules to compare")
    reference = None
    for schedule in schedules:
        enum = S._enumerate(prep.with_schedule(schedule), min_prob)
        table = {b.outcomes: b for b in enum.branches}
        if reference is None:
            reference = table
            continue
        if set(table) != set(reference):
            raise SimulationError(f"schedule {schedule}: different outcome assignments")
        for key, b in table.items():
            r = reference[key]
            if abs(b.probability - r.probability) > atol or b.store != r.store \
                    or not np.allclose(b.state.amplitudes, r.state.amplitudes, atol=atol):
                raise SimulationError(f"schedule {schedule}: branch {key} differs")
    return len(schedules)


def verdict(check, *args, **kwargs):
    try:
        return "same", check(*args, **kwargs)
    except SimulationError:
        return "differ", None


def registry(name: str) -> Q.Registry:
    return Q.load_registry(PROGRAMS / name, into=Q.Registry())


SHIPPED = [
    ("teleport", None, "teleport_demo.json"),
    ("cnot_mb", None, None),
    ("cnot_mb", {"c": 1, "t": 0}, None),
    ("cnot_mb_liberal", {"c": 1, "t": 1}, None),
    ("phase_est", None, "phase_est_demo.json"),
    ("phase_est", {"n": 2}, "phase_est_demo.json"),
    *[("qft", {"n": n}, None) for n in range(1, 5)],
    *[("grover", {"n": n, "N": 2**n, "m": m}, None) for n, m in ((1, 1), (2, 3))],
]  # every shipped program at the sizes that have at most 1000 schedules


@pytest.mark.parametrize("name, bindings, registry_file", SHIPPED)
def test_lattice_and_reference_agree_on_shipped_programs(name, bindings, registry_file):
    prep = S.prepare(corpus_program(name), bindings,
                     registry(registry_file) if registry_file else None)
    count = len(C.all_schedules(prep.circuit, max_count=MAX_REFERENCE_SCHEDULES))
    assert verdict(S.check_schedule_independence, prep) == ("same", count)
    assert verdict(reference_check, prep) == ("same", count)


@pytest.mark.parametrize("name, bindings, count", [
    ("teleport", None, 13), ("cnot_mb", {"c": 1, "t": 0}, 287),
    ("grover", {"n": 2, "N": 4, "m": 3}, 507), ("qft", {"n": 4}, 195)])
def test_schedules_are_counted_over_the_ideals(name, bindings, count):
    reg = registry("teleport_demo.json") if name == "teleport" else None
    prep = S.prepare(corpus_program(name), bindings, reg)
    assert S.check_schedule_independence(prep) == count == len(C.all_schedules(prep.circuit))


def test_branches_below_min_prob_are_pruned_as_enumeration_prunes_them():
    # H R_3 H |0> reads 0 with probability 0.854 and 1 with 0.146
    prep = S.prepare(parse("H(1); R_3(1); H(1); b := SM(1) || X(2)"))
    *_, last = S._lattice(prep, None, 0.2, Q.ATOL)
    (ideal,) = last.values()
    assert [store for _p, store, _amps, _drift, _path in ideal.table.values()] == [{"b": 0}]
    assert S.check_schedule_independence(prep, min_prob=0.2) == 9
    assert reference_check(prep, min_prob=0.2) == 9 == len(C.all_schedules(prep.circuit))


def test_qft6_is_checked_without_listing_its_schedules():
    prep = S.prepare(corpus_program("qft"), {"n": 6})
    assert S.check_schedule_independence(prep) == 66_929_059


@seed(20171)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(measure=True))
def test_lattice_and_reference_agree_on_random_programs(case):
    text, _width, _steps = case
    prep = S.prepare(parse(text))
    lattice = verdict(S.check_schedule_independence, prep)
    try:
        schedules = C.all_schedules(prep.circuit, max_count=MAX_REFERENCE_SCHEDULES)
    except CapExceededError:
        assert lattice[0] == "same" and lattice[1] > MAX_REFERENCE_SCHEDULES
        return
    assert lattice == verdict(reference_check, prep, schedules) == ("same", len(schedules))
    # a given list is checked on its own edges and counted as given
    assert S.check_schedule_independence(prep, schedules=schedules[::3]) == len(schedules[::3])


def swapping_x():
    """``bind_outcomes`` whose ``X`` also swaps wires 1 and 2 of the state."""
    bind = S.bind_outcomes

    def bind_outcomes(f, wires, width):
        fire = bind(f, wires, width)
        if f.name != "X":
            return fire

        def swapped(amps, scratch=None):
            fired = fire(amps, scratch)

            def post(i, drift=0.0, last=False):
                vec, drift = fired.post(i, drift, last)
                return np.ascontiguousarray(
                    vec.reshape((2,) * width).swapaxes(0, 1)).reshape(-1), drift
            return types.SimpleNamespace(probabilities=fired.probabilities, post=post)
        return swapped
    return bind_outcomes


@pytest.mark.parametrize("text, detail", [
    ("X(1) || H(2)", "different final states"),
    ("X(1) || b := SM(2)", "different outcome assignments"),
    ("H(3); X(1) || b := SM(2) || Z(3)", "different outcome assignments"),
])
def test_a_kernel_that_swaps_wires_fails_both_checks(monkeypatch, text, detail):
    monkeypatch.setattr(S, "bind_outcomes", swapping_x())
    prep = S.prepare(parse(text))
    assert verdict(reference_check, prep)[0] == "differ"
    with pytest.raises(SimulationError, match=r"the order of gates \(1, 0\) and \(2, 0\) "
                                              r"matters: the ideal \[\(1, 0\), \(2, 0\)\]"):
        S.check_schedule_independence(prep)
    with pytest.raises(SimulationError, match=detail):
        S.check_schedule_independence(prep, schedules=C.all_schedules(prep.circuit))


def test_a_given_list_checks_only_its_own_edges(monkeypatch):
    monkeypatch.setattr(S, "bind_outcomes", swapping_x())
    prep = S.prepare(parse("X(1) || H(2)"))
    x_first = [(((1, 0), (2, 0)),), (((1, 0),), ((2, 0),))]
    h_first = (((2, 0),), ((1, 0),))
    assert sorted(C.all_schedules(prep.circuit)) == sorted([*x_first, h_first])
    assert S.check_schedule_independence(prep, schedules=x_first) == 2
    with pytest.raises(SimulationError, match="different final states"):
        S.check_schedule_independence(prep, schedules=[*x_first, h_first])


def test_a_given_list_is_checked_schedule_by_schedule():
    prep = S.prepare(parse("H(1); X(1)"))
    with pytest.raises(ScheduleError, match="prerequisite"):
        S.check_schedule_independence(prep, schedules=[(((1, 0),), ((1, 1),)),
                                                       (((1, 1),), ((1, 0),))])


@pytest.mark.parametrize("text", ["zzz := 1 || zzz := 2", "H(1); zzz := 1 || zzz := 2"])
def test_the_classical_pass_runs_on_the_last_ideal(text):
    prep = S.prepare(parse(text))
    for check in (S.check_schedule_independence, reference_check):
        with pytest.raises(SimulationError, match="parallel rules write different values"):
            check(prep)
