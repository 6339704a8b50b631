"""Dense state vectors, general measurement families, and the gate library.

Conventions used throughout the package:

* A state on w wires is a vector of 2**w complex amplitudes.  Wire 1 is the
  most significant bit, so the basis vector |b1 b2 .. bw> sits at index
  sum(b_i * 2**(w-i)).
* A measurement family is an ordered list of labelled operators {A_i} on k
  qubits satisfying the completeness condition sum_i A_i^dagger A_i = I.
  Outcome i occurs with probability ||A_i |s>||**2 and collapses the state
  to A_i |s> / ||A_i |s>||.  A unitary gate is the one-outcome special case.
* Gates act on arbitrary distinct wires; the full 2**w x 2**w matrix is
  never materialized.  Each operator is classified from its exact zero
  pattern (``structure``) the first time it is applied.
  ``bind_operator`` checks the wires once and binds the kernel of that
  kind, with its views, slices and axes, to the wires and the state's
  width, and ``bind_outcomes`` binds every outcome of a family so.
  That is the one way an operator reaches a state.  The kinds:
  - a *gather*, at most one nonzero per row (R_k, cR_k, Z, reflect0, I,
    X, CNOT, SWAP, mark, the SM and PM projectors), makes each output
    row a factor times one input row: one pass copies the state, or
    scales it by the most common factor of the rows that read
    themselves, then each other row is one strided slice copy, or an
    in-place multiply where its factor is not 1 (one quarter of the
    state for cR_k), on the (2,)*w view with no transpose;
  - anything else (H, QFT_n, most user families) is *dense*: the
    operator contracts the gate's axes by ``tensordot``'s own steps (a
    transposed copy of the state and one ``np.dot``), with the axes
    worked out at bind time.
  Each kind writes a new vector or a buffer the caller passes, and a
  diagonal gather (every row reads itself) can scale the state in
  place; the three paths give the same bytes.  The simulator's walk
  uses the last two (``bind_outcomes`` with a scratch buffer), so a
  gather allocates no state-sized array there (a dense gate keeps the
  transposed copy and the product).
* Library families (``STD_GATES``, ``I_k``) and every ``c`` form are
  complete by construction (a ``c`` form exactly as complete as the
  family it controls) and are built without the completeness check;
  ``make_family``, ``unitary_family``, ``family_power`` and
  ``register_family`` keep it.  A single-outcome family whose operator
  is unitary by construction (a library gate, the ``c`` form of one, or
  either negated) is marked ``exact``.
* Firing a family (``bind_outcomes``) takes two steps, the measurement
  postulate read from the marginal of |s|**2 on the gate's wires:
  first every outcome's probability, then the post-measurement vector
  of each outcome the caller follows, and of no other.
  - An ``exact`` family has probability 1 exactly, with no pass over
    the state.  Its vector is not divided, but each path keeps a bound
    on the drift of its norm (2**k units of roundoff per k-wire gate),
    and once that bound passes ``UNIT_NORM_SLACK`` one norm pass reads
    the drift itself, so every state stays within ``UNIT_NORM_SLACK``
    of norm 1.
  - Any other single-outcome family (a registered one, ``unitary_family``,
    ``family_power``) is unitary only within ``ATOL``: its vector is
    made first, and its probability is its squared norm (a norm pass).
  - A measuring family takes every probability from one read pass:
    p_i = sum_c E_i[c] m_c, with m the marginal of |s|**2 on the gate's
    wires, when every effect E_i = A_i^+ A_i is diagonal (every outcome
    a gather: SM, PM), and otherwise p_i = Tr(E_i rho) with rho the
    reduced density matrix on those wires.  A followed outcome's vector
    is A_i |s> / sqrt(p_i), and the last one made from a state that the
    caller hands over scales it in place when A_i is a diagonal.
  A norm pass divides its vector when the squared norm is off 1 by more
  than half of ``UNIT_NORM_SLACK``, so an operator that is unitary only
  within ``ATOL`` cannot let the norm drift over many gates.
"""
from __future__ import annotations

import functools
import json
import math
import os
import string
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    ImpossibleBranchError,
    InvalidFamilyError,
    InvalidStateError,
    QmathError,
    RegistryError,
    UnknownNameError,
)

# Numeric contract shared by the whole package.
ATOL = 1e-9              # completeness / unitarity / normalization tolerance
PRUNE_EPS = 1e-12        # below this, an outcome is an impossible branch
INPUT_STATE_ATOL = 1e-6  # accepted norm slack for user amplitude lists
UNIT_NORM_SLACK = 1e-13  # every state a walk holds is this close to norm 1
ROUNDOFF = 2.0**-52      # the norm drift charged per dimension of an exact gate
MAX_WIDTH = 24           # hard cap on circuit width (2**24 amplitudes)

_COMPLEX = np.complex128


def _as_operator(matrix, context: str) -> np.ndarray:
    """Coerce to a finite, square, complex, read-only array."""
    op = np.asarray(matrix, dtype=_COMPLEX)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise InvalidFamilyError(f"{context}: operator must be square, got shape {op.shape}")
    if not np.isfinite(op).all():
        raise InvalidFamilyError(f"{context}: operator has non-finite entries")
    op = op.copy()
    op.setflags(write=False)
    return op


def check_wires(wires: Sequence[int], width: int | None = None) -> tuple[int, ...]:
    """Validate a wire tuple: positive, pairwise distinct, within width."""
    ws = tuple(int(w) for w in wires)
    if any(w < 1 for w in ws):
        raise InvalidStateError(f"wire indices must be >= 1, got {ws}")
    if len(set(ws)) != len(ws):
        raise InvalidStateError(f"wire indices must be pairwise distinct, got {ws}")
    if width is not None and any(w > width for w in ws):
        raise InvalidStateError(f"wire index out of range for width {width}: {ws}")
    return ws


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized pure state on ``width`` wires (2**width amplitudes)."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (1 <= self.width <= MAX_WIDTH):
            raise InvalidStateError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        amps = np.asarray(self.amplitudes, dtype=_COMPLEX)
        if amps.shape != (2**self.width,):
            raise InvalidStateError(
                f"state of width {self.width} needs {2**self.width} amplitudes, got {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise InvalidStateError("state has non-finite amplitudes")
        if abs(np.linalg.norm(amps) - 1.0) > ATOL:
            raise InvalidStateError(f"state is not normalized: |norm - 1| = {abs(np.linalg.norm(amps) - 1.0):.3e}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _unchecked(cls, width: int, amplitudes: np.ndarray) -> "QuantumState":
        """Wrap a state the package derived itself and knows to be finite
        and normalized: the array is frozen in place, with no validation
        pass and no copy, so the caller must hold no other reference.
        The simulator's walk writes its arrays in place or reuses them
        as scratch until it wraps one here, and never writes it again."""
        amplitudes.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "width", width)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state


class Structure(NamedTuple):
    """An operator with the structure ``bind_operator`` exploits.

    ``kind`` is "gather" (at most one nonzero per row) or "dense", and
    ``matrix`` is the operator itself.  In a gather, row r of the output
    is factor * row c of the input; a zero row reads its own row times
    0.  ``data`` is (base, moves): a move (bits of r, bits of c, factor
    or None for 1) for each row r except those with c = r and factor
    ``base``.  ``base`` is the most common factor among the rows with
    c = r (1 among equally common ones), or None when there are none.
    Bits are in the order of the gate's wire arguments.  For "dense",
    ``data`` is None.  ``diagonal`` is true for a gather whose every row
    reads itself: it only scales rows, so it can be applied in place."""

    kind: str
    matrix: np.ndarray
    data: object
    diagonal: bool = False


def structure(op: np.ndarray) -> Structure:
    """Classify a square 2**k operator by its exact zero pattern.  Exact
    zeros make the gather kernel compute the same products as the dense
    one, so only the order of the float operations can differ."""
    nz = op != 0
    if (np.count_nonzero(nz, axis=1) > 1).any():
        return Structure("dense", op, None)
    rows = np.arange(len(op))
    cols = np.where(nz.any(axis=1), nz.argmax(axis=1), rows)
    gathered = list(zip(rows.tolist(), cols.tolist(), op[rows, cols].tolist()))
    kept = Counter(f for row, col, f in gathered if col == row)
    # on a tie, 1: its rows are then not touched in place
    base = max(kept, key=lambda f: (kept[f], f == 1)) if kept else None
    k = len(op).bit_length() - 1
    moves = tuple((index_bits(row, k), index_bits(col, k), None if f == 1 else f)
                  for row, col, f in gathered if col != row or f != base)
    return Structure("gather", op, (base, moves), bool((cols == rows).all()))


@dataclass(frozen=True, eq=False)
class Outcome:
    """One labelled operator of a measurement family.  Two outcomes are
    equal when their labels are and their operators are entrywise."""

    label: int
    operator: np.ndarray

    @functools.cached_property
    def structure(self) -> Structure:
        """The operator classified by ``structure``, on first use."""
        return structure(self.operator)

    def __eq__(self, other):
        if not isinstance(other, Outcome):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.operator, other.operator)

    def __hash__(self):
        return hash((self.label, np.shape(self.operator)))


@dataclass(frozen=True)
class FamilyDiagnostic:
    """Completeness defect report: worst entry of |sum A_i^+ A_i - I|."""

    message: str
    max_deviation: float
    entry: tuple[int, int]


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """Ordered family of labelled k-qubit operators.

    Structural invariants (square operators of one dimension, distinct
    integer labels, finite entries) are enforced here; completeness is the
    job of validate_family / make_family so that defective candidates can
    still be inspected.  ``exact`` marks a single-outcome family whose
    operator is unitary by construction (see the module docstring): it
    fires with probability 1 and no norm pass.
    """

    name: str
    arity: int
    outcomes: tuple[Outcome, ...]
    exact: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.arity < 1:
            raise InvalidFamilyError(f"arity must be >= 1, got {self.arity}")
        if self.arity > MAX_WIDTH:
            raise InvalidFamilyError(f"{self.name}: arity {self.arity} exceeds the maximum width {MAX_WIDTH}")
        if not self.outcomes:
            raise InvalidFamilyError("family needs at least one outcome")
        if self.exact and len(self.outcomes) != 1:
            raise InvalidFamilyError(f"{self.name}: only a single-outcome family is exact")
        dim = 2**self.arity
        fixed = []
        for oc in self.outcomes:
            label = int(oc.label)
            if label < 0:
                raise InvalidFamilyError(f"{self.name}: outcome labels must be non-negative, got {label}")
            op = _as_operator(oc.operator, self.name)
            if op.shape != (dim, dim):
                raise InvalidFamilyError(
                    f"{self.name}: dimension mismatch, arity {self.arity} needs {dim}x{dim} operators"
                )
            fixed.append(Outcome(label, op))
        labels = [oc.label for oc in fixed]
        if len(set(labels)) != len(labels):
            raise InvalidFamilyError(f"{self.name}: outcome labels must be distinct, got {labels}")
        object.__setattr__(self, "outcomes", tuple(fixed))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(oc.label for oc in self.outcomes)

    @property
    def is_unitary(self) -> bool:
        """True for the degenerate single-outcome (plain gate) case."""
        return len(self.outcomes) == 1

    @functools.cached_property
    def effects(self) -> np.ndarray:
        """The effects E_i = A_i^+ A_i of the outcomes, stacked in family
        order, computed on first use."""
        ops = np.array([oc.operator for oc in self.outcomes])
        return np.conj(ops.transpose(0, 2, 1)) @ ops

    def outcome(self, label: int) -> Outcome:
        for oc in self.outcomes:
            if oc.label == label:
                return oc
        raise InvalidFamilyError(f"{self.name}: unknown outcome label {label}")

    def operator(self, label: int) -> np.ndarray:
        return self.outcome(label).operator

    def __eq__(self, other):
        if not isinstance(other, MeasurementFamily):
            return NotImplemented
        return self.name == other.name and self.arity == other.arity \
            and self.outcomes == other.outcomes

    def __hash__(self):
        return hash((self.name, self.arity, self.labels))


def validate_family(f: MeasurementFamily) -> FamilyDiagnostic | None:
    """Return None when sum_i A_i^+ A_i = I within tolerance, else a defect report."""
    dim = 2**f.arity
    total = np.zeros((dim, dim), dtype=_COMPLEX)
    for oc in f.outcomes:
        total += oc.operator.conj().T @ oc.operator
    deviation = np.abs(total - np.eye(dim))
    worst = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    worst_val = float(deviation[worst])
    if worst_val <= ATOL:
        return None
    return FamilyDiagnostic(
        message=f"{f.name}: operators do not sum to identity "
        f"(deviation {worst_val:.6g} at entry {tuple(int(i) for i in worst)})",
        max_deviation=worst_val,
        entry=(int(worst[0]), int(worst[1])),
    )


def make_family(name: str, arity: int, outcomes: Iterable[tuple[int, object]]) -> MeasurementFamily:
    """Construct a family and reject it unless completeness holds."""
    fam = MeasurementFamily(name, arity, tuple(Outcome(int(l), op) for l, op in outcomes))
    defect = validate_family(fam)
    if defect is not None:
        raise InvalidFamilyError(defect.message)
    return fam


def unitary_family(name: str, matrix) -> MeasurementFamily:
    """Wrap a unitary matrix as the degenerate one-outcome family (label 0)."""
    op = np.asarray(matrix, dtype=_COMPLEX)  # MeasurementFamily makes the one copy
    k = 1  # MeasurementFamily reports a non-square or non-finite matrix first
    if op.ndim == 2 and op.shape[0] == op.shape[1]:
        k = op.shape[0].bit_length() - 1
        # Only a bad dimension needs this finiteness test, to order the errors.
        if (k < 1 or 2**k != op.shape[0]) and not np.isfinite(op).all():
            k = 1
        elif 2**k != op.shape[0]:
            raise InvalidFamilyError(f"{name}: operator dimension {op.shape[0]} is not a power of two")
    return make_family(name, k, [(0, op)])


def _unchecked_unitary(name: str, matrix: np.ndarray, exact: bool = True) -> MeasurementFamily:
    """A one-outcome family whose matrix is unitary by construction (up
    to rounding far below ATOL), built without make_family's O(d**3)
    completeness check: a library gate, whose builders the tests check
    on a grid of parameters, or the controlled form of a family that
    is already checked, since controlled(U)^+ controlled(U) - I is
    diag(0, U^+ U - I) and so deviates exactly as much as U.  The
    controlled form of a checked family that is not ``exact`` passes
    ``exact=False``."""
    return MeasurementFamily(name, len(matrix).bit_length() - 1, (Outcome(0, matrix),), exact)


def scaled_family(f: MeasurementFamily, scalar: complex, name: str | None = None) -> MeasurementFamily:
    """Multiply every operator by a unit-modulus scalar (completeness is
    kept).  An ``exact`` family stays exact when negated (or scaled by
    1), since those products are exact."""
    if abs(abs(scalar) - 1.0) > ATOL:
        raise InvalidFamilyError(f"family scalars must have modulus 1, got |{scalar}| = {abs(scalar)}")
    return MeasurementFamily(
        name if name is not None else f"({scalar})*{f.name}",
        f.arity,
        tuple(Outcome(oc.label, scalar * oc.operator) for oc in f.outcomes),
        f.exact and scalar in (1, -1),
    )


def family_power(f: MeasurementFamily, exponent: int, name: str | None = None) -> MeasurementFamily:
    """Matrix power of a one-outcome family (used for gates raised to 2**i)."""
    if not f.is_unitary:
        raise InvalidFamilyError(f"{f.name}: only single-outcome families can be raised to a power")
    if exponent < 0:
        raise InvalidFamilyError(f"{f.name}: negative gate power {exponent}")
    op = np.linalg.matrix_power(f.outcomes[0].operator, exponent)
    return unitary_family(name if name is not None else f"{f.name}^{exponent}", op)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

BUILTIN_STATES: dict[str, np.ndarray] = {
    "bell00": np.array([1, 0, 0, 1], dtype=_COMPLEX) / math.sqrt(2),
    "plus": np.array([1, 1], dtype=_COMPLEX) / math.sqrt(2),
    "minus": np.array([1, -1], dtype=_COMPLEX) / math.sqrt(2),
}

StateDescriptor = Union[str, Sequence[complex]]


def basis_index(bits: Sequence[int]) -> int:
    """Index of |b1 .. bw> with wire 1 as the most significant bit."""
    idx = 0
    for b in bits:
        idx = idx * 2 + int(b)
    return idx


def index_bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def basis_state(bits: Sequence[int]) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=_COMPLEX)
    vec[basis_index(bits)] = 1.0
    return vec


def make_state(spec: StateDescriptor, width: int, registry: "Registry | None" = None) -> QuantumState:
    """Build a normalized state of the given width from a descriptor.

    Descriptors: a bitstring ("0", "1", "011", ...) selecting a basis ket, a
    registered name (builtins bell00/plus/minus plus user registry entries),
    or an explicit amplitude list of length 2**width whose norm is within
    1e-6 of 1 (it is renormalized exactly).
    """
    if isinstance(spec, str):
        if spec and all(c in "01" for c in spec):
            if len(spec) != width:
                raise InvalidStateError(f"ket {spec!r} has width {len(spec)}, expected {width}")
            return QuantumState(width, basis_state([int(c) for c in spec]))
        amps = None
        if registry is not None:
            amps = registry.states.get(spec)
        if amps is None:
            amps = BUILTIN_STATES.get(spec)
        if amps is None:
            raise UnknownNameError(f"unknown state name {spec!r}")
        got = int(math.log2(len(amps)))
        if got != width:
            raise InvalidStateError(f"state {spec!r} has width {got}, expected {width}")
        return QuantumState(width, amps)
    amps = np.asarray(list(spec), dtype=_COMPLEX)
    if amps.shape != (2**width,):
        raise InvalidStateError(f"amplitude list of length {amps.size} does not fit width {width}")
    if not np.isfinite(amps).all():
        raise InvalidStateError("amplitude list has non-finite entries")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > INPUT_STATE_ATOL:
        raise InvalidStateError(f"amplitude list norm {norm} is not within {INPUT_STATE_ATOL} of 1")
    return QuantumState(width, amps / norm)


# ---------------------------------------------------------------------------
# applying operators to selected wires
# ---------------------------------------------------------------------------

def _layout(wires: tuple[int, ...], width: int):
    """The (2,)*width view with each run of non-gate wires merged into one
    axis, so the j-th gate wire in ascending order is axis 2j+1.  Returns
    that shape and the order of the gate wires within it (indices into
    ``wires``)."""
    order = tuple(sorted(range(len(wires)), key=wires.__getitem__))
    shape, start = [], 0
    for j in order:
        shape += [2 ** (wires[j] - 1 - start), 2]
        start = wires[j]
    shape.append(2 ** (width - start))
    return tuple(shape), order


_ALL = slice(None)


def bind_operator(op: Structure, wires: Sequence[int], width: int
                  ) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray]:
    """The kernel of ``op`` on ``wires`` of a ``width``-wire state, by
    its kind (see the module docstring), with the wires and shape
    checked and the views, slices and axes computed here, once.
    ``kernel(amps, out)`` returns a new vector, or ``out``: ``amps``
    itself for a diagonal, then scaled in place, else a buffer that does
    not overlap ``amps``, every entry of which is written.  The three
    paths compute the same products, so they give the same bytes."""
    ws = check_wires(wires, width)
    k = len(ws)
    kind, matrix, data, diagonal = op
    if matrix.shape != (2**k, 2**k):
        raise InvalidFamilyError(f"operator of shape {matrix.shape} does not act on {k} wires")
    if kind == "dense":
        # np.tensordot's own steps, with its axes worked out here: the
        # gate's axes go first, the operator multiplies them by np.dot,
        # and the product's axes go back to wire order.  The operator
        # goes through tensordot's reshapes too, so np.dot sees the
        # memory order that tensordot hands it (a Fortran-ordered
        # operator stays one), which BLAS may round differently.
        matrix = matrix.reshape((2,) * (2 * k)).reshape(2**k, 2**k)
        shape = (2,) * width
        axes = [w - 1 for w in ws]
        order = axes + [a for a in range(width) if a not in axes]
        back = tuple(sorted(range(width), key=order.__getitem__))
        rows = (2**k, 2 ** (width - k))

        def dense(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if out is amps:
                raise QmathError("only a diagonal operator is applied in place")
            res = np.dot(matrix, amps.reshape(shape).transpose(order).reshape(rows))
            res = res.reshape(shape).transpose(back)
            if out is None:
                return res.reshape(-1)
            out.reshape(shape)[...] = res
            return out
        return dense

    base, moves = data
    view, order = _layout(ws, width)

    def at(bits):
        return (*[i for j in order for i in (_ALL, bits[j])], _ALL)

    reads = [at(col) for _row, col, _f in moves]
    writes = [(at(row), factor) for row, _col, factor in moves]
    # In place, rows of factor 1 are not touched.  The moved rows are
    # saved before the state is scaled by a base other than 1, and so is
    # a row of one amplitude (a gate on every wire), which numpy rounds
    # differently when it multiplies it in place.  So every row gets the
    # bytes that the other paths compute.
    save = base != 1 or k == width

    def gather(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is amps and not diagonal:
            raise QmathError("only a diagonal operator is applied in place")
        src = amps.reshape(view)
        read = [src[r] for r in reads]
        if out is amps:
            if save:
                read = [r.copy() for r in read]
            if base != 1:
                np.multiply(amps, base, out=amps)
        else:
            # One pass writes every row that is not moved, then each move
            # writes its slice: 1/2**k of the state.
            if out is None:
                out = np.empty(amps.shape, _COMPLEX)
            if base == 1:
                out[...] = amps
            elif base is not None:
                np.multiply(amps, base, out=out)
        dst = out.reshape(view)
        for (row, factor), r in zip(writes, read):
            if factor is None:
                dst[row] = r
            else:
                np.multiply(r, factor, out=dst[row])
        return out
    return gather


def is_unitary_matrix(op: np.ndarray, atol: float = ATOL) -> bool:
    op = np.asarray(op, dtype=_COMPLEX)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    return bool(np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))) <= atol)


def _probabilities(f: MeasurementFamily, ws: tuple[int, ...], width: int
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The probabilities of a measuring family's outcomes on ``ws``, as
    ``probabilities(amps)``: one read pass over the state, whatever the
    number of outcomes.

    When every outcome is a gather, every effect E_i = A_i^+ A_i is
    diagonal, and p_i = sum_c E_i[c] m_c, where m_c sums |amps|**2 over
    the slice in which the gate's wires read c.  m comes from one
    ``einsum`` over the float view of the state; in a state of more than
    2048 amplitudes, a trailing run of at most 2048 floats is kept as an
    output axis and summed after, so that einsum's inner loop stays
    long.  Otherwise p_i = Tr(E_i rho) for the reduced density matrix
    rho on the gate's wires, which the dot products of the 2**k slices
    give, in the transposed copy that a dense operator makes too.  c and
    the rows of rho count in the order of the gate's wire arguments, as
    operators do."""
    k = len(ws)
    view, order = _layout(ws, width)
    gate_axes = [2 * order.index(j) + 1 for j in range(k)]
    effects = f.effects
    if all(oc.structure.kind == "gather" for oc in f.outcomes):
        weights = effects.diagonal(0, 1, 2).real
        shape = (*view[:-1], 2 * view[-1])
        tail = shape[-1] <= 2048 < 2**width
        axes = string.ascii_letters[:len(shape)]
        kept = "".join(axes[a] for a in gate_axes) + (axes[-1] if tail else "")
        subscripts = f"{axes},{axes}->{kept}"

        def diagonal(amps: np.ndarray) -> np.ndarray:
            floats = amps.view(np.float64).reshape(shape)
            m = np.einsum(subscripts, floats, floats)
            return weights @ (m.sum(axis=-1) if tail else m).reshape(-1)
        return diagonal
    weights = effects.conj().reshape(len(effects), -1)
    to_rows = gate_axes + list(range(0, 2 * k + 1, 2))
    dim = 2**k

    def reduced(amps: np.ndarray) -> np.ndarray:
        rows = amps.reshape(view).transpose(to_rows).reshape(dim, -1)
        rho = np.empty((dim, dim), _COMPLEX)
        for c in range(dim):
            for d in range(c, dim):
                rho[c, d] = np.vdot(rows[d], rows[c])
                rho[d, c] = rho[c, d].conjugate()
        return (weights @ rho.reshape(-1)).real
    return reduced


class _Bound(NamedTuple):
    """A family's outcomes bound to wires of a state width."""
    family: MeasurementFamily
    kernels: tuple[Callable, ...]
    diagonal: tuple[bool, ...]
    measure: Callable[[np.ndarray], np.ndarray] | None  # a measuring family's probabilities
    charge: float  # the drift bound an exact family's outcome adds


class Fired:
    """A family fired on one state by ``bind_outcomes``' ``fire``.
    ``probabilities`` holds each outcome's probability in family order,
    clamped to [0, 1]; ``post`` makes the post-measurement vector of an
    outcome that the caller follows.  ``fire`` has rejected a
    probability above 1 + ATOL and a non-finite one, so every vector
    made is finite."""

    __slots__ = ("probabilities", "_bound", "_amps", "_scratch", "_raw", "_vector")

    def __init__(self, bound: _Bound, amps: np.ndarray,
                 scratch: Callable[[], np.ndarray] | None):
        self._bound, self._amps, self._scratch = bound, amps, scratch
        f = bound.family
        if bound.measure is not None:
            raw = bound.measure(amps).tolist()
        elif f.exact:
            self.probabilities = (1.0,)
            return
        else:
            # unitary only within ATOL: the vector first, then its norm
            self._vector = vec = self._apply(0, True)
            raw = [float(np.vdot(vec, vec).real)]
        for p in raw:
            if not p <= 1.0 + ATOL:  # also true for nan
                raise InvalidFamilyError(f"{f.name}: outcome probability {p} is not at most 1")
        self._raw = raw
        self.probabilities = tuple(min(max(p, 0.0), 1.0) for p in raw)

    def _apply(self, i: int, last: bool) -> np.ndarray:
        """A_i |amps>: a new vector without scratch; with it, ``amps``
        itself scaled in place for the ``last`` outcome when that is a
        diagonal, else the buffer that ``scratch()`` returns."""
        kernel, scratch = self._bound.kernels[i], self._scratch
        if scratch is None:
            return kernel(self._amps, None)
        return kernel(self._amps, self._amps if last and self._bound.diagonal[i] else scratch())

    def post(self, i: int, drift: float = 0.0, last: bool = False) -> tuple[np.ndarray, float]:
        """Outcome i's post-measurement amplitudes and the drift bound of
        their norm, given ``drift``, that of the state fired on.  With
        the ``scratch`` that ``fire`` was given, the caller hands the
        state over and ``last`` says that no other outcome is made from
        it after this one.  An outcome of probability below PRUNE_EPS is
        an ``ImpossibleBranchError``.

        A measuring outcome is A_i |s> / sqrt(p_i), divided in place, with
        p_i the unclamped probability.  An exact outcome is not divided:
        it adds ``charge`` to the drift bound, and once the bound passes
        UNIT_NORM_SLACK a norm pass reads the drift itself.  A norm pass
        divides its vector only when the squared norm is off 1 by more
        than UNIT_NORM_SLACK / 2, and its drift bound is then that
        deviation (0 after a division)."""
        bound = self._bound
        if self.probabilities[i] < PRUNE_EPS:
            raise ImpossibleBranchError(
                f"{bound.family.name}: outcome {bound.family.outcomes[i].label} has "
                f"probability {self.probabilities[i]:.3e} below {PRUNE_EPS}")
        if bound.measure is not None:
            return _scaled(self._apply(i, last), self._raw[i]), 0.0
        if bound.family.exact:
            vec = self._apply(0, last)
            drift += bound.charge
            if drift <= UNIT_NORM_SLACK:
                return vec, drift
            norm2 = float(np.vdot(vec, vec).real)
        else:
            vec, norm2 = self._vector, self._raw[0]
        deviation = abs(norm2 - 1.0)
        if deviation <= UNIT_NORM_SLACK / 2:
            return vec, deviation
        return _scaled(vec, norm2), 0.0


def _scaled(vec: np.ndarray, norm2: float) -> np.ndarray:
    """``vec`` divided in place by the square root of ``norm2``: each
    float is multiplied by the reciprocal, which is faster than a
    complex division and within an ulp of it."""
    floats = vec.view(np.float64)
    np.multiply(floats, 1.0 / math.sqrt(norm2), out=floats)
    return vec


def bind_outcomes(f: MeasurementFamily, wires: Sequence[int], width: int
                  ) -> Callable[..., Fired]:
    """The outcomes of ``f`` on ``wires`` of a ``width``-wire state, each
    outcome's kernel bound once (``bind_operator``), and for a measuring
    family the read pass of its probabilities (``_probabilities``):
    ``fire(amps, scratch=None)`` returns the ``Fired`` family on the raw
    amplitude array ``amps``, whose ``post`` makes the vectors.
    Without ``scratch`` each vector is new and ``amps`` is never
    written.  With it, the caller owns ``amps`` and hands it over: the
    last outcome made from it scales it in place when its operator is a
    diagonal, and every other outcome is written into the buffer that
    ``scratch()`` returns."""
    ws = check_wires(wires, width)
    if len(ws) != f.arity:
        raise InvalidFamilyError(f"{f.name}: family of arity {f.arity} applied to {len(ws)} wires")
    structures = [oc.structure for oc in f.outcomes]
    bound = _Bound(f, tuple(bind_operator(st, ws, width) for st in structures),
                   tuple(st.diagonal for st in structures),
                   None if f.is_unitary else _probabilities(f, ws, width),
                   2**len(ws) * ROUNDOFF)

    def fire(amps: np.ndarray, scratch: Callable[[], np.ndarray] | None = None) -> Fired:
        return Fired(bound, amps, scratch)
    return fire


def fidelity_up_to_phase(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|, which ignores any global phase difference."""
    if a.width != b.width:
        raise InvalidStateError(f"fidelity of states with widths {a.width} and {b.width}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


# ---------------------------------------------------------------------------
# gate library
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_I2 = np.eye(2, dtype=_COMPLEX)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=_COMPLEX)
_X = np.array([[0, 1], [1, 0]], dtype=_COMPLEX)
_Y = np.array([[0, -1j], [1j, 0]], dtype=_COMPLEX)
_Z = np.array([[1, 0], [0, -1]], dtype=_COMPLEX)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=_COMPLEX
)


def controlled(u) -> np.ndarray:
    """Controlled version of a unitary: block diag(I, U), first qubit controls.

    ``u`` is the operator of a family already checked to be complete."""
    d = len(u)
    out = np.eye(2 * d, dtype=_COMPLEX)
    out[d:, d:] = u
    return out


def _rotation(k: int) -> np.ndarray:
    # diag(1, e^{2 pi i / 2^k}); k = 1 gives Z.
    if k < 1:
        raise InvalidFamilyError(f"R_k needs k >= 1, got {k}")
    # 2 pi / 2**k by its exponent: exact, with no integer 2**k to build
    return np.array([[1, 0], [0, np.exp(1j * math.ldexp(2 * math.pi, -k))]], dtype=_COMPLEX)


def fourier_matrix(n: int) -> np.ndarray:
    """The 2**n-dimensional Fourier matrix, entries w^(jk)/sqrt(2**n)."""
    if not (1 <= n <= 12):
        raise InvalidFamilyError(f"QFT_n supports n in 1..12, got {n}")
    dim = 2**n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def _mark_matrix(n: int, m: int) -> np.ndarray:
    # Flip the last wire exactly on the marked n-bit basis string:
    # |x>|q> -> |x>|q xor [x = m]>.
    if n < 1:
        raise InvalidFamilyError(f"mark needs n >= 1, got {n}")
    if not (0 <= m < 2**n):
        raise InvalidFamilyError(f"mark: marked index {m} out of range for {n} wires")
    dim = 2 ** (n + 1)
    op = np.eye(dim, dtype=_COMPLEX)
    op[[2 * m, 2 * m + 1]] = op[[2 * m + 1, 2 * m]]
    return op


def _reflect0_matrix(n: int) -> np.ndarray:
    # 2|0..0><0..0| - I on n wires.
    if n < 1:
        raise InvalidFamilyError(f"reflect0 needs n >= 1, got {n}")
    diag = -np.ones(2**n, dtype=_COMPLEX)
    diag[0] = 1.0
    return np.diag(diag)


_SM = MeasurementFamily(
    "SM", 1, (Outcome(0, np.diag([1.0, 0.0]).astype(_COMPLEX)), Outcome(1, np.diag([0.0, 1.0]).astype(_COMPLEX)))
)
_PM_EVEN = np.diag([1.0, 0.0, 0.0, 1.0]).astype(_COMPLEX)
_PM_ODD = np.diag([0.0, 1.0, 1.0, 0.0]).astype(_COMPLEX)
_PM = MeasurementFamily("PM", 2, (Outcome(0, _PM_EVEN), Outcome(1, _PM_ODD)))


def identity_family(arity: int) -> MeasurementFamily:
    """Identity gate on ``arity`` wires (the implicit else branch of guards)."""
    return _unchecked_unitary("I" if arity == 1 else f"I_{arity}", np.eye(2**arity, dtype=_COMPLEX))


# The gate library: name -> (number of integer parameters, builder that
# takes those parameters and returns the family).
STD_GATES: dict[str, tuple[int, Callable[..., MeasurementFamily]]] = {
    "I": (0, lambda: identity_family(1)),
    "H": (0, lambda: _unchecked_unitary("H", _H)),
    "X": (0, lambda: _unchecked_unitary("X", _X)),
    "Y": (0, lambda: _unchecked_unitary("Y", _Y)),
    "Z": (0, lambda: _unchecked_unitary("Z", _Z)),
    "SWAP": (0, lambda: _unchecked_unitary("SWAP", _SWAP)),
    "CNOT": (0, lambda: _unchecked_unitary("CNOT", controlled(_X))),
    "SM": (0, lambda: _SM),
    "PM": (0, lambda: _PM),
    "R": (1, lambda k: _unchecked_unitary(f"R_{k}", _rotation(k))),
    "QFT": (1, lambda n: _unchecked_unitary(f"QFT_{n}", fourier_matrix(n))),
    "QFTdg": (1, lambda n: _unchecked_unitary(f"QFTdg_{n}", fourier_matrix(n).conj().T)),
    "mark": (2, lambda n, m: _unchecked_unitary(f"mark_({n},{m})", _mark_matrix(n, m))),
    "reflect0": (1, lambda n: _unchecked_unitary(f"reflect0_{n}", _reflect0_matrix(n))),
}


def std_gate(name: str, params: Sequence[int] = ()) -> MeasurementFamily:
    """Look up a library gate or measurement by name and integer parameters.

    Single-outcome entries: I, H, X, Y, Z, SWAP, CNOT, R_k, QFT_n, QFTdg_n,
    mark_(n, m) (flip wire n+1 on the marked basis string) and reflect0_n
    (2|0..0><0..0| - I).  Measurements: SM (basis read-out) and PM (parity).
    """
    params = tuple(int(p) for p in params)
    if name not in STD_GATES:
        raise UnknownNameError(f"unknown gate or measurement {name!r}")
    want, build = STD_GATES[name]
    if len(params) != want:
        raise InvalidFamilyError(f"{name} takes {want} parameter(s), got {len(params)}")
    return build(*params)


# ---------------------------------------------------------------------------
# registry of user families and states
# ---------------------------------------------------------------------------

@dataclass
class Registry:
    """User-registered measurement families and named states.

    Resolution order for gate names: user family, then library gate, then a
    single leading "c" is stripped and the rest resolved as a controlled
    unitary.  User names must not contain underscores (the underscore
    separates a gate name from its parameter subscript in program text).
    """

    families: dict[str, MeasurementFamily] = field(default_factory=dict)
    states: dict[str, np.ndarray] = field(default_factory=dict)

    def register_family(self, fam: MeasurementFamily) -> None:
        """Add ``fam`` once it passes the completeness check; a registered
        family is trusted to be complete only within ATOL, so it is
        never ``exact``."""
        defect = validate_family(fam)
        if defect is not None:
            raise InvalidFamilyError(defect.message)
        if "_" in fam.name:
            raise RegistryError(f"family name {fam.name!r} must not contain underscores")
        self.families[fam.name] = replace(fam, exact=False) if fam.exact else fam

    def register_state(self, name: str, amplitudes) -> None:
        amps = np.asarray(list(amplitudes), dtype=_COMPLEX)
        width = int(math.log2(amps.size)) if amps.size else 0
        if amps.size == 0 or 2**width != amps.size:
            raise RegistryError(f"state {name!r}: amplitude count {amps.size} is not a power of two")
        self.states[name] = make_state(amps, width).amplitudes

    def family(self, name: str, params: Sequence[int] = ()) -> MeasurementFamily:
        """Resolve a gate/measurement name, recursing through "c" prefixes."""
        if name in self.families:
            if params:
                raise RegistryError(f"registered family {name!r} takes no parameters")
            return self.families[name]
        if name in STD_GATES:
            return std_gate(name, params)
        if name.startswith("c") and len(name) > 1:
            base = self.family(name[1:], params)
            if not base.is_unitary:
                raise InvalidFamilyError(f"cannot control the multi-outcome family {base.name!r}")
            # complete exactly when base is (see _unchecked_unitary)
            return _unchecked_unitary("c" + base.name, controlled(base.outcomes[0].operator),
                                      base.exact)
        raise UnknownNameError(f"unknown gate or measurement {name!r}")

    def knows_gate(self, name: str) -> bool:
        base = name
        while base.startswith("c") and base not in self.families and base not in STD_GATES:
            base = base[1:]
        return bool(base) and (base in self.families or base in STD_GATES)


def _complex_from_pair(pair, context: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise RegistryError(f"{context}: expected [re, im], got {pair!r}")
    re, im = pair
    return complex(float(re), float(im))


def load_registry(source, into: Registry | None = None) -> Registry:
    """Load user gates/families and states from a JSON document.

    A document is one entry or a list of entries.  A family entry is
    {"name": str, "arity": int, "outcomes": [{"label": int, "matrix":
    [[[re, im], ...], ...]}, ...]} with row-major matrices; a state entry is
    {"name": str, "qubits": int, "amplitudes": [[re, im], ...]}.
    ``source`` may be a path, a JSON string, or an already-parsed object.
    An entry with a missing field or one of the wrong type is a
    ``RegistryError`` that names the entry.
    """
    reg = into if into is not None else Registry()
    if isinstance(source, (str, os.PathLike)) and os.path.exists(os.fspath(source)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    entries = doc if isinstance(doc, list) else [doc]
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise RegistryError(f"registry entry must be an object with a string name: {entry!r}")
        name = entry["name"]
        if "outcomes" not in entry and "amplitudes" not in entry:
            raise RegistryError(f"registry entry {name!r} has neither outcomes nor amplitudes")
        try:
            if "outcomes" in entry:
                arity = int(entry.get("arity", 0))
                outcomes = tuple(Outcome(int(oc["label"]), np.array(
                    [[_complex_from_pair(cell, name) for cell in row] for row in oc["matrix"]],
                    dtype=_COMPLEX)) for oc in entry["outcomes"])
            else:
                amps = [_complex_from_pair(pair, name) for pair in entry["amplitudes"]]
                qubits = int(entry["qubits"]) if "qubits" in entry else None
        except KeyError as e:
            raise RegistryError(f"registry entry {name!r}: missing field {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise RegistryError(f"registry entry {name!r}: {e}") from None
        if "outcomes" in entry:
            # register_family checks completeness, once.
            reg.register_family(MeasurementFamily(name, arity, outcomes))
        else:
            if qubits is not None and 2 ** qubits != len(amps):
                raise RegistryError(f"state {name!r}: qubits field does not match amplitude count")
            reg.register_state(name, amps)
    return reg
