"""The vectorized '%.17g' formatter behind ``sim.emit_json``.

The rows of every pair array (a (rows, 2) float array, such as a state's
amplitudes) are formatted by numpy (qcasm.floatfmt), with a '%.17g'
fallback for each value the numpy path cannot settle.  These tests compare
the text with '%.17g' element for element: on arbitrary doubles, on a
seeded batch, and on the cases that stress the fast path (powers of ten
and their neighbours, exact ties, the switches between fixed and exponent
form, roundings that carry into a new leading digit).  They also check
that documents of many small arrays, and arrays over several blocks of
rows, render as their nested-list forms do.
"""
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcasm import sim as S

from conftest import corpus_program

MAX = np.finfo(float).max


def formatted(values) -> list[str]:
    """The text that emit_json gives each value of ``values``, in order."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if n % 2:
        v = np.append(v, 0.0)
    lines = S.emit_json(v.reshape(-1, 2)).splitlines()[1:-1]
    texts = [t for line in lines for t in line.strip().rstrip(",")[1:-1].split(", ")]
    return texts[:n]


def percent_g(values) -> list[str]:
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


def fallbacks(monkeypatch, render) -> int:
    """How many values ``render()`` formats with the '%.17g' fallback."""
    calls = []
    real = S._fmt_float
    monkeypatch.setattr(S, "_fmt_float", lambda x: calls.append(x) or real(x))
    render()
    monkeypatch.setattr(S, "_fmt_float", real)
    return len(calls)


def powers_of_ten() -> np.ndarray:
    p = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def edge_values() -> np.ndarray:
    rng = np.random.default_rng(5)
    m = rng.integers(1, 2**21, size=3000).astype(float)
    ties = np.ldexp(m, rng.integers(-90, 60, size=3000))  # few bits: many exact ties
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, MAX,
               2.0**-25,  # 2.98023223876953125e-08: 18 digits, an exact tie at 17
               1e-4, 1e-5, 1e16, 1e17, 9.99999999999999999e-5, 0.1, 1 / 3, 2 / 3, 0.5,
               1.0, 10.0, 100.0, 123.0, 1.5, 12345678901234567.0, 1e15, 1e22, 1e23]
    switches = []
    for x in (1e-4, 1e-5, 1e16, 1e17, 1.0):  # fixed/exponent switches; 1 - ulp carries
        switches += [x, np.nextafter(x, 0), np.nextafter(x, np.inf)]
    v = np.concatenate([special, switches, powers_of_ten(), ties])
    return np.concatenate([v, -v])


def test_formatter_matches_percent_g_on_edge_values(monkeypatch):
    v = edge_values()
    assert formatted(v) == percent_g(v)
    assert formatted([-0.0, 0.0]) == ["-0", "0"]
    # The fallback is reached: 1e23 is the double just below 10**23, whose
    # log10 rounds up, so its scaled integer part has 16 digits.
    assert fallbacks(monkeypatch, lambda: formatted([1e23])) == 1
    # So are an exact tie at 17 digits and a fixed form with two integer
    # digits.
    assert fallbacks(monkeypatch, lambda: formatted([2.0**-25, 12.5])) == 2
    assert fallbacks(monkeypatch, lambda: formatted(v)) > 0


def test_formatter_matches_percent_g_on_a_seeded_batch():
    rng = np.random.default_rng(20240617)
    bits = rng.integers(0, 2**64, size=80_000, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=60_000) * 10.0 ** rng.integers(-30, 30, size=60_000)
    n = 8
    phase = rng.uniform(0, 2 * np.pi, size=30_000)
    amps = np.concatenate([np.cos(phase), np.sin(phase)]) / 2 ** (n / 2)  # like qft
    v = np.concatenate([bits[np.isfinite(bits)], scaled, amps])
    assert formatted(v) == percent_g(v)


finite_doubles = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_doubles, min_size=1, max_size=40))
def test_formatter_matches_percent_g_on_arbitrary_doubles(values):
    assert formatted(values) == percent_g(values)


def test_qft_run_document_needs_no_fallback(monkeypatch):
    r = S.run(corpus_program("qft"), seed=3, bindings={"n": 8})
    state = S.run_result_json(r)["state"]
    assert fallbacks(monkeypatch, lambda: S.emit_json(state)) == 0


def as_lists(doc):
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_lists(v) for v in doc]
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    return doc


def test_many_small_arrays_render_like_nested_lists():
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 5e-324, -1e-310, 2.5e-7, -3e-5, 1.0, -1.0, 12.5, 1e20,
                     -123456.789, 1 / 3])
    branches = []
    for b in range(40):
        rows = int(rng.integers(1, 34))
        amps = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-8, 3, size=(rows, 2))
        picks = rng.random((rows, 2)) < 0.4
        amps[picks] = rng.choice(pool, size=int(picks.sum()))
        branches.append({"probability": float(rng.random()), "outcomes": [[b, "0"]],
                         "state": {"width": rows, "amplitudes": amps}})
    doc = {"branches": branches, "pruned_mass": 0.0, "spare": [amps, 7, amps[:1]]}
    assert S.emit_json(doc) == S.emit_json(as_lists(doc))


def test_state_over_several_blocks_renders_like_nested_lists():
    k = np.arange(2**16)
    amps = np.exp(2j * np.pi * k * 12345 / 2**16) / 2**8
    amps[::7] = 0
    big = amps.view(np.float64).reshape(-1, 2)
    assert len(big) > 3 * S.EMIT_CHUNK_ROWS
    small = np.array([[0.5, -0.25], [-0.0, 1e-300]])
    doc = {"before": small, "state": {"width": 16, "amplitudes": big}, "after": [small]}
    assert S.emit_json(doc) == S.emit_json(as_lists(doc))
