"""Seeded input generator.

Every input a workload gives the program is made here from the seed:
copies of the shipped programs, the ``--param`` values and the registry
JSON files.  The same seed writes byte-identical files.  The small-domain
parameters (the Grover marked items m, the CNOT inputs (c, t) and the
phase numerator k) and the QFT basis index j are affine in the seed with
multipliers coprime to their domain sizes, so seeds s and s + 1 always
differ in each of them; psi is drawn from ``random.Random(seed)``.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

QFT_N = 16
GROVER_N = 6
GROVER_SHOTS = 1000
# Which shots miss the marked item depends on the shot seed, and each
# distinct miss grows the sampler's prefix trie, so the work of one
# request varies with it by about +-15%.  A run cycles through this many
# shot seeds so that its median varies less from seed to seed.
GROVER_SEEDS = 8
CHECK_GROVER_N = 7
PHASE_N = 4


def params_for(seed: int) -> dict:
    """The workload parameters that ``seed`` selects."""
    rng = random.Random(seed)
    # Odd j keeps every output amplitude a generic complex number, so the
    # JSON emit costs the same on every seed.
    j = 2 * ((7919 * seed + 1234) % 2 ** (QFT_N - 1)) + 1
    c, t = divmod((seed + 1) % 4, 2)
    re0, im0, re1, im1 = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(re0 * re0 + im0 * im0 + re1 * re1 + im1 * im1)
    return {
        "seed": seed,
        "qft_j": j,
        "grover_m": (37 * seed + 11) % 2 ** GROVER_N,
        "grover_seeds": [rng.randrange(2 ** 31) for _ in range(GROVER_SEEDS)],
        "check_m": (53 * seed + 5) % 2 ** CHECK_GROVER_N,
        "cnot": [c, t],
        "psi": [[re0 / norm, im0 / norm], [re1 / norm, im1 / norm]],
        "phase_k": (5 * seed + 3) % 2 ** PHASE_N,
    }


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def generate(seed: int, programs: Path, out: Path) -> dict:
    """Write every input for ``seed`` into the directory ``out``.

    ``programs`` is the directory of shipped ``.qcasm`` files that are
    copied.  Returns the parameters, which are also written to
    ``params.json``.
    """
    p = params_for(seed)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("qft", "grover", "teleport", "cnot_mb", "cnot_mb_liberal", "phase_est"):
        text = (programs / f"{name}.qcasm").read_text(encoding="utf-8")
        (out / f"{name}.qcasm").write_text(text, encoding="utf-8")
    qft = (programs / "qft.qcasm").read_text(encoding="utf-8")
    head = "param n = 3\n"
    if head not in qft:
        raise ValueError("qft.qcasm no longer declares 'param n = 3'")
    ket = f"ket {p['qft_j']:0{QFT_N}b} on 1..n;\n"
    (out / "qft_ket.qcasm").write_text(qft.replace(head, head + ket), encoding="utf-8")
    _dump(out / "teleport_psi.json",
          [{"name": "psi", "qubits": 1, "amplitudes": p["psi"]}])
    angle = 2 * math.pi * p["phase_k"] / 2 ** PHASE_N
    _dump(out / "phase_est_u.json", [
        {"name": "U", "arity": 1, "outcomes": [{"label": 0, "matrix": [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [math.cos(angle), math.sin(angle)]]]}]},
        {"name": "psi", "qubits": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
    ])
    _dump(out / "params.json", p)
    return p
