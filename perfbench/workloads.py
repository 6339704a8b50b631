"""The three workloads: their requests and closed-form oracles.

A workload is a cycle of requests, and a request is a list of steps.  A
step calls into qcasm the way a user does (``qcasm.cli.main(argv)`` with
stdout captured in memory, or one API call) and returns its output; its
oracle then checks that output outside the timed interval.  Oracles
compute their expectations with numpy and json, not with qcasm, so they
cannot share a defect with the code they check and add no spans to the
layer trace.  The one exception, reading the Grover readout gate ids,
runs in the oracle of the first, untraced request.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

TOL = 1e-9


class OracleError(AssertionError):
    """An output disagrees with its closed-form oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@dataclass
class Step:
    call: Callable[[], object]
    oracle: Callable[[object], None]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def cli_step(argv: list[str], check_text: Callable[[str], None]) -> Step:
    """A ``qcasm.cli.main(argv)`` call whose stdout must satisfy ``check_text``.

    A step's inputs never change, so its output must repeat byte for
    byte: an output equal to one the oracle already passed is accepted
    without parsing it again.
    """
    passed: set[str] = set()

    def call() -> CliOutput:
        import qcasm.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qcasm.cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())

    def oracle(result: CliOutput) -> None:
        _require(result.code == 0,
                 f"qcasm {' '.join(argv)} exited {result.code}: {result.stderr.strip()}")
        if result.stdout in passed:
            return
        check_text(result.stdout)
        passed.add(result.stdout)

    return Step(call, oracle)


def _amplitudes(doc) -> np.ndarray:
    pairs = np.asarray(doc["amplitudes"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _fidelity(amps: np.ndarray, index: int) -> float:
    """|<index|amps>|, the overlap with a basis state up to global phase."""
    return float(abs(amps[index]))


def dft_column(n: int, j: int) -> np.ndarray:
    """Column j of the 2**n-point Fourier matrix, entries w^(jk)/sqrt(2**n)."""
    dim = 2 ** n
    k = np.arange(dim)
    return np.exp(2j * np.pi * ((j * k) % dim) / dim) / math.sqrt(dim)


def dft_matrix(n: int) -> np.ndarray:
    return np.stack([dft_column(n, j) for j in range(2 ** n)], axis=1)


def grover_hit_probability(n: int) -> float:
    """sin^2((2r+1) asin(2^(-n/2))) for r = floor(pi/4 sqrt(2^n)) rounds."""
    rounds = math.floor(math.pi / 4 * math.sqrt(2 ** n))
    return math.sin((2 * rounds + 1) * math.asin(2 ** (-n / 2))) ** 2


def grover_gate_count(n: int) -> int:
    """n + 1 Hadamards, r rounds of mark, n H, reflect, n H, then n readouts."""
    rounds = math.floor(math.pi / 4 * math.sqrt(2 ** n))
    return (n + 1) + rounds * (2 * n + 2) + n


# ---------------------------------------------------------------------------
# qft-run
# ---------------------------------------------------------------------------

def _qft_run(d: Path, p: dict) -> list[list[Step]]:
    n, j = inputs.QFT_N, p["qft_j"]
    expected = dft_column(n, j)

    def check(text: str) -> None:
        state = json.loads(text)["state"]
        _require(state["width"] == n, f"width {state['width']} != {n}")
        amps = _amplitudes(state)
        _require(amps.shape == expected.shape, f"{amps.size} amplitudes, want {expected.size}")
        err = float(np.abs(amps - expected).max())
        _require(err <= TOL, f"amplitudes differ from DFT column {j} by {err:.3e}")

    return [[cli_step(["run", str(d / "qft_ket.qcasm"), "--param", f"n={n}"], check)]]


# ---------------------------------------------------------------------------
# grover-sample
# ---------------------------------------------------------------------------

def readout_gates(program: Path, bindings: dict) -> list[tuple[int, int]]:
    """Gate ids of the single-qubit readouts, ordered by wire.

    Gate ids are assigned by lowering, so they are read from qcasm, once,
    by the oracle of the first request, which is neither timed nor traced.
    """
    import qcasm
    circ = qcasm.lower(qcasm.elaborate(qcasm.parse(program.read_text()), bindings))
    sm = [g for g in circ.gates if g.families[0].name == "SM"]
    return [g.gid for g in sorted(sm, key=lambda g: g.wires)]


def _grover_sample(d: Path, p: dict) -> list[list[Step]]:
    n, shots, m = inputs.GROVER_N, inputs.GROVER_SHOTS, p["grover_m"]
    bindings = {"n": n, "N": 2 ** n, "m": m}
    readouts: list[tuple[int, int]] = []
    hit = grover_hit_probability(n)
    sigma = math.sqrt(shots * hit * (1 - hit))

    def check(text: str) -> None:
        rows = json.loads(text)["counts"]
        _require(sum(r["count"] for r in rows) == shots, "counts do not sum to the shots")
        best = max(rows, key=lambda r: r["count"])
        answers = {tuple(o["gate"]): o["answer"] for o in best["outcomes"]}
        if not readouts:
            readouts.extend(readout_gates(d / "grover.qcasm", bindings))
        value = 0
        for gid in readouts:
            value = 2 * value + answers[gid]
        _require(value == m, f"most frequent readout {value}, marked item {m}")
        _require(abs(best["count"] - shots * hit) <= 5 * sigma,
                 f"{best['count']} hits, expected {shots * hit:.1f} +- 5 x {sigma:.2f}")

    argv = ["run", str(d / "grover.qcasm")]
    for k, v in bindings.items():
        argv += ["--param", f"{k}={v}"]
    argv += ["--shots", str(shots)]
    return [[cli_step(argv + ["--seed", str(seed)], check)] for seed in p["grover_seeds"]]


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

def _check_ok_line(n: int):
    want = f"ok: {grover_gate_count(n)} gates on {n + 1} wires\n"

    def check(text: str) -> None:
        _require(text == want, f"check printed {text!r}, want {want!r}")
    return check


def _check_schedule_listing(count: int, verified: bool):
    head = f"{count} schedules" + (" (verified equivalent)" if verified else "")

    def check(text: str) -> None:
        lines = text.splitlines()
        _require(lines[0] == head, f"schedules printed {lines[0]!r}, want {head!r}")
        _require(len(lines) == count + 1, f"{len(lines) - 1} schedules listed, want {count}")
    return check


def _branches(text: str) -> list[dict]:
    doc = json.loads(text)
    _require(abs(doc["total_probability"] - 1.0) <= TOL, "branch mass is not 1")
    return doc["branches"]


def _check_teleport(psi: np.ndarray):
    def check(text: str) -> None:
        branches = _branches(text)
        _require(len(branches) == 4, f"{len(branches)} teleport branches, want 4")
        for b in branches:
            _require(abs(b["probability"] - 0.25) <= TOL, f"branch probability {b['probability']}")
            bits = np.zeros(4)
            bits[2 * b["store"]["p"] + b["store"]["q"]] = 1.0
            want = np.kron(bits, psi)
            fid = abs(np.vdot(want, _amplitudes(b["state"])))
            _require(fid >= 1 - TOL, f"teleported fidelity {fid} with store {b['store']}")
    return check


def _check_cnot(c: int, t: int):
    def check(text: str) -> None:
        branches = _branches(text)
        _require(len(branches) == 8, f"{len(branches)} CNOT branches, want 8")
        for b in branches:
            _require(abs(b["probability"] - 0.125) <= TOL, f"branch probability {b['probability']}")
            index = 4 * c + 2 * b["store"]["r"] + (c ^ t)
            fid = _fidelity(_amplitudes(b["state"]), index)
            _require(fid >= 1 - TOL, f"state is not |{c},{b['store']['r']},{c ^ t}>: {fid}")
    return check


def _check_phase(k: int, n: int):
    def check(text: str) -> None:
        mass = 0.0
        for b in _branches(text):
            # The last wire holds the eigenstate |1>; the readout wires
            # above it must read k.
            amps = _amplitudes(b["state"])
            index = int(np.argmax(np.abs(amps)))
            if index >> 1 == k and _fidelity(amps, index) >= 1 - TOL:
                mass += b["probability"]
        _require(abs(mass - 1.0) <= TOL, f"readout {k:0{n}b} has probability {mass}")
    return check


def _unitary_step(path: Path, n: int) -> Step:
    expected = dft_matrix(n)

    def call() -> np.ndarray:
        import qcasm
        return qcasm.program_unitary(qcasm.parse(path.read_text()), bindings={"n": n})

    def oracle(u) -> None:
        _require(isinstance(u, np.ndarray) and u.shape == expected.shape,
                 "program_unitary returned no matrix of the DFT's shape")
        err = float(np.abs(u - expected).max())
        _require(err <= TOL, f"program_unitary differs from the DFT by {err:.3e}")

    return Step(call, oracle)


def _verify_suite(d: Path, p: dict) -> list[list[Step]]:
    c, t = p["cnot"]
    k, pn = p["phase_k"], inputs.PHASE_N
    cn = inputs.CHECK_GROVER_N
    psi = np.array([complex(*a) for a in p["psi"]])
    tele = ["--registry", str(d / "teleport_psi.json")]
    cnot = ["--param", f"c={c}", "--param", f"t={t}"]
    return [[
        cli_step(["check", str(d / "grover.qcasm"), "--param", f"n={cn}",
                  "--param", f"N={2 ** cn}", "--param", f"m={p['check_m']}"],
                 _check_ok_line(cn)),
        cli_step(["schedules", "--verify", str(d / "teleport.qcasm"), *tele],
                 _check_schedule_listing(13, True)),
        cli_step(["enumerate", str(d / "teleport.qcasm"), *tele], _check_teleport(psi)),
        cli_step(["enumerate", str(d / "cnot_mb.qcasm"), *cnot], _check_cnot(c, t)),
        cli_step(["enumerate", str(d / "cnot_mb_liberal.qcasm"), *cnot], _check_cnot(c, t)),
        cli_step(["enumerate", str(d / "phase_est.qcasm"), "--param", f"n={pn}",
                  "--param", "m=1", "--registry", str(d / "phase_est_u.json")],
                 _check_phase(k, pn)),
        cli_step(["schedules", str(d / "qft.qcasm"), "--param", "n=4"],
                 _check_schedule_listing(195, False)),
        _unitary_step(d / "qft.qcasm", 5),
    ]]


WORKLOADS = {
    "qft-run": _qft_run,
    "grover-sample": _grover_sample,
    "verify-suite": _verify_suite,
}


def build(name: str, d: Path, p: dict) -> list[list[Step]]:
    """The cycle of requests of workload ``name`` on the inputs in ``d``."""
    return WORKLOADS[name](d, p)


def corrupt(output):
    """A wrong copy of a step's output: the last integer in a text is
    incremented; a matrix has one entry moved by 1e-6."""
    if isinstance(output, CliOutput):
        text = output.stdout
        last = list(re.finditer(r"\d+", text))[-1]
        text = text[:last.start()] + str(int(last.group()) + 1) + text[last.end():]
        return CliOutput(output.code, text, output.stderr)
    wrong = np.array(output)
    wrong.flat[0] += 1e-6
    return wrong
