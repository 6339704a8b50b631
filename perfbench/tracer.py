"""Outside-in layer trace of qcasm.

``Tracer.install()`` replaces qcasm functions with span-recording
wrappers.  A wrapper goes on every module attribute that binds the
function (``qcasm.sim.collapse`` and ``qcasm.qmath.collapse`` alike), so
calls from any module are seen.  A span records its id, name, start,
end, parent span, request id and the last span id opened before it
closed, so its descendants are exactly the spans with ids in between.
Spans are kept in flat in-memory columns and written out at the end.

Self time of a span is its duration minus the time its child spans
cover; per-layer metrics are self times and counts divided by the
number of traced requests.  ``qmath.apply_bytes`` (32 * 2**width per
apply: one read and one write of the state) and ``qmath.peak_state_bytes``
(16 * 2**width of the widest state) are computed from the widths seen,
not measured.
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute).  Several functions may share a span
# name; ``circuit.lower`` wraps ``_lower``, the entry that both the CLI
# and ``prepare`` call.  ``sim._enumerate`` is the branch walk shared by
# ``enumerate_branches`` and ``check_schedule_independence``, so its time
# is enumeration time whichever entry point called it.
SPANS = [
    ("cli.main", "qcasm.cli", "main"),
    ("parser.parse", "qcasm.parser", "parse"),
    ("ast.elaborate", "qcasm.ast", "elaborate"),
    ("ast.check_program", "qcasm.ast", "check_program"),
    ("qmath.validate_family", "qcasm.qmath", "validate_family"),
    ("circuit.lower", "qcasm.circuit", "_lower"),
    ("circuit.schedule", "qcasm.circuit", "greedy_schedule"),
    ("circuit.schedule", "qcasm.circuit", "check_schedule"),
    ("circuit.all_schedules", "qcasm.circuit", "all_schedules"),
    ("sim.prepare", "qcasm.sim", "prepare"),
    ("sim.initial_state", "qcasm.sim", "initial_state"),
    ("qmath.apply_operator", "qcasm.qmath", "apply_operator"),
    ("qmath.outcome_probability", "qcasm.qmath", "outcome_probability"),
    ("qmath.collapse", "qcasm.qmath", "collapse"),
    ("sim.run", "qcasm.sim", "run"),
    ("sim.sample_distribution", "qcasm.sim", "sample_distribution"),
    ("sim.enumerate_branches", "qcasm.sim", "enumerate_branches"),
    ("sim.enumerate_branches", "qcasm.sim", "_enumerate"),
    ("sim.check_schedule_independence", "qcasm.sim", "check_schedule_independence"),
    ("sim.program_unitary", "qcasm.sim", "program_unitary"),
]

# Self-time metrics, in report order; each is "<span name>_s".
SELF_TIMES = [
    "cli.main", "parser.parse", "ast.elaborate", "ast.check_program",
    "qmath.validate_family", "circuit.lower", "circuit.schedule",
    "circuit.all_schedules", "sim.prepare", "sim.initial_state",
    "qmath.apply_operator", "qmath.outcome_probability", "qmath.collapse",
    "qmath.state_validate", "sim.run", "sim.sample_distribution",
    "sim.enumerate_branches", "sim.check_schedule_independence",
    "sim.program_unitary", "sim.emit_json",
]

# Call-count metrics: metric name -> span name.
CALLS = {
    "parser.parse_calls": "parser.parse",
    "ast.elaborate_calls": "ast.elaborate",
    "qmath.validate_family_calls": "qmath.validate_family",
    "circuit.lower_calls": "circuit.lower",
    "sim.prepare_calls": "sim.prepare",
    "qmath.apply_operator_calls": "qmath.apply_operator",
    "qmath.collapse_calls": "qmath.collapse",
    "qmath.state_validations": "qmath.state_validate",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {k: array(t) for k, t in (
            ("id", "q"), ("name", "i"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("request", "q"), ("last", "q"))}
        self.request = 0
        self._next = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # Facts read from call arguments and results, per traced run.
        self.apply_bytes = 0
        self.peak_width = 0
        self.emit_bytes = 0
        self.schedules_listed = 0
        self.branches = 0
        self.fired = 0
        self.samples: list[tuple[dict, tuple, int, int]] = []
        self._unitary_spans: list[tuple[int, int]] = []
        self._last_prep = None

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args, sid)``
        runs once the span has closed."""
        nid = self._name_id(name)
        c = self.cols
        add_id, add_name, add_start, add_end, add_parent, add_request, add_last = (
            c[k].append for k in ("id", "name", "start", "end", "parent", "request", "last"))
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                add_id(sid)
                add_name(nid)
                add_start(start)
                add_end(end)
                add_parent(parent)
                add_request(self.request)
                add_last(self._next - 1)
            if after is not None:
                after(result, args, sid)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qcasm" or mod_name.startswith("qcasm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import qcasm.qmath
        import qcasm.sim
        hooks = {
            "apply_operator": self._after_apply,
            "all_schedules": self._after_all_schedules,
            "prepare": self._after_prepare,
            "run": self._after_run,
            "sample_distribution": self._after_sample,
            "_enumerate": self._after_enumerate,
            "program_unitary": self._after_unitary,
        }
        # A function that a later version of qcasm no longer has is left
        # out, and its metrics read 0.
        for name, module, attr in SPANS:
            original = getattr(sys.modules[module], attr, None)
            if original is not None:
                self._rebind(original, self.wrap(name, original, hooks.get(attr)))

        state_cls = qcasm.qmath.QuantumState
        post_init = getattr(state_cls, "__post_init__", None)
        if post_init is not None:
            self._restore.append((state_cls, "__post_init__", post_init))
            state_cls.__post_init__ = self.wrap("qmath.state_validate", post_init,
                                                self._after_state)

        # Only the outermost emit_json call is a span: while it runs, the
        # module attribute that its recursion looks up is the original.
        emit = qcasm.sim.emit_json
        recorded = self.wrap("sim.emit_json", emit, self._after_emit)

        def outermost(*args, **kwargs):
            qcasm.sim.emit_json = emit
            try:
                return recorded(*args, **kwargs)
            finally:
                qcasm.sim.emit_json = outermost
        self._rebind(emit, outermost)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- hooks -----------------------------------------------------------

    def _after_apply(self, result, args, sid):
        width = args[3]
        self.apply_bytes += 32 << width
        self.peak_width = max(self.peak_width, width)

    def _after_state(self, result, args, sid):
        self.peak_width = max(self.peak_width, args[0].width)

    def _after_emit(self, result, args, sid):
        self.emit_bytes += len(result.encode())

    def _after_all_schedules(self, result, args, sid):
        self.schedules_listed += len(result)

    def _after_prepare(self, result, args, sid):
        self._last_prep = result

    def _after_run(self, result, args, sid):
        self.fired += len(result.trace)

    def _after_sample(self, result, args, sid):
        order = tuple(gate.gid for _step, gate in self._last_prep.firing)
        self.samples.append((result, order, sid, self._next - 1))
        self.fired += sum(n * len(key) for key, n in result.items())

    def _after_enumerate(self, result, args, sid):
        self.branches += len(result.branches)
        # Gates fired along the branch tree: one per distinct trace prefix.
        self.fired += len({b.trace[:i] for b in result.branches
                           for i in range(1, len(b.trace) + 1)})

    def _after_unitary(self, result, args, sid):
        self._unitary_spans.append((sid, self._next - 1))

    # -- results ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0)
                for k, v in self.cols.items()}

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request self times and counts over ``requests`` traced requests."""
        s = self.spans()
        n_names = len(self.names)
        ids = s["id"].astype(np.int64)
        duration = s["end"] - s["start"]
        child = np.zeros(self._next)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent].astype(np.int64), duration[has_parent])
        self_time = duration - child[ids]
        names = s["name"].astype(np.int64)
        by_name = np.bincount(names, weights=self_time, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)

        def name_id(name):
            return self._ids.get(name)

        out: dict[str, float] = {}
        for name in SELF_TIMES:
            nid = name_id(name)
            out[f"{name}_s"] = float(by_name[nid]) / requests if nid is not None else 0.0
        for metric, name in CALLS.items():
            nid = name_id(name)
            out[metric] = float(calls[nid]) / requests if nid is not None else 0.0
        out["circuit.schedules_listed"] = self.schedules_listed / requests
        out["sim.branches"] = self.branches / requests
        out["sim.emit_bytes"] = self.emit_bytes / requests

        apply_id = name_id("qmath.apply_operator")
        collapse_id = name_id("qmath.collapse")
        fired = self.fired
        for sid, last in self._unitary_spans:
            inside = (ids > sid) & (ids <= last)
            fired += int(np.count_nonzero(inside & (names == apply_id)))
        applies = out["qmath.apply_operator_calls"] * requests
        out["qmath.applies_per_fired_gate"] = applies / fired if fired else 0.0
        out["qmath.apply_bytes"] = self.apply_bytes / requests
        out["qmath.peak_state_bytes"] = float(16 << self.peak_width) if self.peak_width else 0.0

        prefixes = collapses = 0
        for counts, order, sid, last in self.samples:
            rank = {gid: i for i, gid in enumerate(order)}
            seen = set()
            for key in counts:
                labels = tuple(label for _gid, label in sorted(key, key=lambda e: rank[e[0]]))
                seen.update(labels[:i] for i in range(1, len(labels) + 1))
            prefixes += len(seen)
            inside = (ids > sid) & (ids <= last)
            collapses += int(np.count_nonzero(inside & (names == collapse_id)))
        out["sim.sample_reuse_ratio"] = prefixes / collapses if collapses else 0.0
        return out

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
