"""Shared error types and the diagnostic record used across the package."""
from __future__ import annotations

from dataclasses import dataclass


class QcasmError(Exception):
    """Base class for all errors raised by this package; ``line`` and
    ``column`` are the source position of the failure where it is known."""

    line: int | None = None
    column: int | None = None

    def diagnostics(self) -> list[Diagnostic]:
        """The lines that report this error: here one ``error: message``,
        with the position if known; subclasses add a clause or a list."""
        return [Diagnostic("error", str(self), line=self.line, column=self.column)]


class QmathError(QcasmError):
    """Linear-algebra layer failure (bad state, family, or wire tuple)."""


class InvalidStateError(QmathError):
    pass


class InvalidFamilyError(QmathError):
    pass


class ImpossibleBranchError(QmathError):
    """Collapse requested on an outcome whose probability is below threshold."""


class UnknownNameError(QmathError):
    """Gate, family, or state name not found among builtins or the registry."""


class RegistryError(QmathError):
    """Malformed registry document."""


class ParseError(QcasmError):
    """Raised on any syntactically invalid source; carries a position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column

    def diagnostics(self) -> list[Diagnostic]:
        return [Diagnostic("error", self.message, line=self.line, column=self.column)]


class ElaborationError(QcasmError):
    """Raised when a program cannot be reduced to ground form.

    ``clause`` is set when the failure corresponds to a well-formedness
    clause (e.g. a measurement name used inside a classical expression).
    """

    def __init__(self, message: str, clause: str | None = None):
        super().__init__(message)
        self.clause = clause

    def diagnostics(self) -> list[Diagnostic]:
        return [Diagnostic("error", str(self), line=self.line, column=self.column,
                           clause=self.clause)]


class LoweringError(QcasmError):
    pass


class IllFormedError(LoweringError):
    """A ground program that breaks well-formedness clauses: it reports
    their diagnostics, and ``str(e)`` joins them in one line."""

    def __init__(self, found: list[Diagnostic]):
        super().__init__("program is not well formed: "
                         + "; ".join(d.render() for d in found))
        self.found = found

    def diagnostics(self) -> list[Diagnostic]:
        return list(self.found)


class ScheduleError(QcasmError):
    """Schedule does not match the circuit or violates prerequisites."""


class CapExceededError(QcasmError):
    """Exhaustive enumeration requested for a circuit above the size cap."""


class SimulationError(QcasmError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    """One reportable defect: severity, message, and optional location data.

    ``clause`` names the violated well-formedness rule (machine readable);
    ``path`` locates the offending subrule inside the program body.
    """

    severity: str
    message: str
    line: int | None = None
    column: int | None = None
    clause: str | None = None
    path: str | None = None

    def render(self) -> str:
        loc = f"{self.line}:{self.column}: " if self.line is not None else ""
        where = f" [at {self.path}]" if self.path else ""
        tag = f" ({self.clause})" if self.clause else ""
        return f"{loc}{self.severity}: {self.message}{tag}{where}"
