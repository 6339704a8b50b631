"""qcasm: a specification language for measurement-based quantum circuits.

Programs interleave quantum gate rules (general measurements with
classically guarded outcome branching) with classical assignments and
conditionals, composed sequentially and in parallel.  The package
parses and checks programs, lowers them to generalized circuits with
series-parallel schedules, and executes them on a dense state-vector
simulator, either sampling one run from a seed or enumerating every
branch with exact probabilities.

    >>> import qcasm
    >>> p = qcasm.parse("H(1); b := SM(1)")
    >>> e = qcasm.enumerate_branches(qcasm.elaborate(p, {}, qcasm.Registry()))
    >>> [(b.store["b"], round(b.probability, 3)) for b in e.branches]
    [(0, 0.5), (1, 0.5)]
"""

from .ast import Program, elaborate
from .circuit import (DecompLeaf, DecompNode, Gate, GeneralizedCircuit,
                      all_schedules, canonicalize, check_program, check_schedule,
                      decomposition, greedy_schedule, lower, schedule_from_order,
                      sp_pairs, to_dot, well_formed)
from .errors import (CapExceededError, Diagnostic, ElaborationError,
                     ImpossibleBranchError, LoweringError, ParseError,
                     QcasmError, ScheduleError, SimulationError)
from .parser import parse, pretty
from .qmath import (ATOL, MAX_WIDTH, PRUNE_EPS, MeasurementFamily, Outcome,
                    QuantumState, Registry, load_registry, make_family,
                    make_state, std_gate, unitary_family, validate_family)
from .sim import (Branch, Enumeration, QueryTraceEntry, RunResult,
                  check_schedule_independence, enumerate_branches, initial_state,
                  prepare, program_unitary, run, sample_distribution)

__version__ = "0.1.0"

__all__ = [
    "ATOL", "MAX_WIDTH", "PRUNE_EPS",
    "Branch", "CapExceededError", "DecompLeaf", "DecompNode",
    "Diagnostic", "ElaborationError", "Enumeration", "Gate",
    "GeneralizedCircuit", "ImpossibleBranchError", "LoweringError",
    "MeasurementFamily", "Outcome", "ParseError", "Program", "QcasmError",
    "QuantumState", "QueryTraceEntry", "Registry", "RunResult",
    "ScheduleError", "SimulationError",
    "all_schedules", "canonicalize", "check_program", "check_schedule",
    "check_schedule_independence", "decomposition", "elaborate",
    "enumerate_branches", "greedy_schedule", "initial_state", "load_registry",
    "lower", "make_family", "make_state", "parse", "prepare", "pretty",
    "program_unitary", "run", "sample_distribution", "schedule_from_order",
    "sp_pairs", "std_gate", "to_dot", "unitary_family", "validate_family",
    "well_formed",
]
