"""Command-line front end.

    qcasm check PROGRAM [--param n=3 ...] [--registry FILE ...]
    qcasm lower PROGRAM [--format json|dot|text]
    qcasm run PROGRAM [--seed N] [--shots N] [--schedule greedy|K]
    qcasm enumerate PROGRAM [--min-prob P] [--schedule greedy|K]
    qcasm schedules PROGRAM [--verify] [--max N]
    qcasm canon PROGRAM [--format text|json]

PROGRAM is a file path or "-" for stdin.  --param NAME=INT binds a
program parameter and may repeat; --registry FILE loads measurement
families and states from JSON and may repeat.  Every subcommand gets
its program from ``sim.prepare`` and reports a rejected one with the
same lines on stderr (``line:col: error: message (clause) [at path]``,
the parts that are known).  Exit status: 0 on success, 1 when the
program is rejected or execution fails, 2 for usage and file errors.
Outputs are deterministic: the same inputs and seed produce identical
bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import circuit, sim
from .errors import QcasmError
from .parser import parse
from .qmath import Registry, load_registry


@functools.cache  # built once per process: main() only reads it
def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcasm",
        description="Check, lower, schedule, and simulate measurement-based "
                    "quantum circuit programs.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("program", help="program file, or - for stdin")
        p.add_argument("--param", action="append", default=[], metavar="NAME=INT",
                       help="bind a program parameter (repeatable)")
        p.add_argument("--registry", action="append", default=[], metavar="FILE",
                       help="load families/states from a JSON registry (repeatable)")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        return p

    common(sub.add_parser("check", help="parse and check well-formedness"))

    p = common(sub.add_parser("lower", help="lower to a generalized circuit"))
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")

    p = common(sub.add_parser("run", help="sample an execution"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shots", type=int, default=1,
                   help="with more than one shot, report outcome counts")
    p.add_argument("--schedule", default="greedy", metavar="greedy|K",
                   help="greedy layering, or index K into the schedule listing")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = common(sub.add_parser("enumerate", help="enumerate all branches"))
    p.add_argument("--min-prob", type=float, default=0.0,
                   help="prune branches below this probability")
    p.add_argument("--schedule", default="greedy", metavar="greedy|K")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--no-states", action="store_true",
                   help="omit final state vectors from the output")

    p = common(sub.add_parser("schedules", help="list the schedules of the circuit"))
    p.add_argument("--max", type=int, default=1000, metavar="N",
                   help="refuse to list more than N schedules")
    p.add_argument("--verify", action="store_true",
                   help="also check that every schedule yields the same branches")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = common(sub.add_parser("canon", help="print the canonical decomposition tree"))
    p.add_argument("--format", choices=("json", "text"), default="text")
    return top


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_params(pairs: list[str]) -> dict[str, int]:
    bindings: dict[str, int] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise _UsageError(f"--param wants NAME=INT, got {pair!r}")
        try:
            bindings[name] = int(value)
        except ValueError:
            raise _UsageError(f"--param {name}: {value!r} is not an integer") from None
    return bindings


def _load_registries(paths: list[str]) -> Registry:
    registry = Registry()
    for path in paths:
        if not os.path.exists(path):
            raise _UsageError(f"registry file not found: {path}")
        try:
            load_registry(path, into=registry)
        except json.JSONDecodeError as e:
            raise _UsageError(f"registry {path} is not valid JSON: {e}") from None
    return registry


class _UsageError(Exception):
    pass


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` and a final newline if it lacks one, without
    copying the text to append it."""
    end = "" if text.endswith("\n") else "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
    else:
        sys.stdout.write(text)
        sys.stdout.write(end)


def _prepare(args) -> sim.PreparedProgram:
    """Parse, elaborate, lower and schedule once, as --schedule asks: the
    program of every subcommand.  The options are read before any
    program work (--schedule, then --param, then --registry), so a usage
    error is reported as one."""
    schedule = getattr(args, "schedule", "greedy")
    index = None
    if schedule != "greedy":
        try:
            index = int(schedule)
            if index < 0:
                raise ValueError
        except ValueError:
            raise _UsageError(f"--schedule wants 'greedy' or an index, "
                              f"got {schedule!r}") from None
    bindings = _parse_params(args.param)
    registry = _load_registries(args.registry)
    prep = sim.prepare(parse(_read_program(args.program)), bindings, registry)
    if index is None:
        return prep
    # List the schedules only up to the one asked for.
    count = 0
    for count, option in enumerate(circuit._schedules(prep.circuit), 1):
        if count > index:
            return prep.with_schedule(option)
    raise QcasmError(f"schedule index {index} out of range; "
                     f"the circuit has {count} schedules")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    circ = _prepare(args).circuit
    _emit(f"ok: {len(circ.gates)} gates on {circ.width} wires", args.out)
    return 0


def _cmd_lower(args) -> int:
    prep = _prepare(args)
    circ = prep.circuit
    if args.format == "json":
        _emit(sim.emit_json(circ.to_json()), args.out)
    elif args.format == "dot":
        _emit(circuit.to_dot(circ), args.out)
    else:
        lines = [f"width {circ.width}, {len(circ.gates)} gates"]
        for g in circ.gates:
            deps = sorted(circ.prereq[g.gid])
            dep_text = ", ".join(f"{a}.{b}" for a, b in deps) if deps else "-"
            lines.append(f"  {g.gid[0]}.{g.gid[1]}: {g.label}   after: {dep_text}")
        lines.append(f"decomposition: {circuit.tree_text(circuit.canonicalize(prep.tree))}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_run(args) -> int:
    if args.shots < 1:
        raise _UsageError("--shots must be at least 1")
    prep = _prepare(args)
    if args.shots == 1:
        result = sim.run(prep, seed=args.seed)
        if args.format == "json":
            _emit(sim.emit_json(sim.run_result_json(result)), args.out)
        else:
            lines = [f"probability {result.probability!r}",
                     "store: " + (", ".join(f"{k}={v}" for k, v in sorted(result.store.items())) or "-")]
            for t in result.trace:
                wires = ", ".join(str(w) for w in t.wq)
                lines.append(f"  bout {t.step}: {t.mq}({wires}) -> {t.answer}")
            _emit("\n".join(lines), args.out)
        return 0
    counts = sim.sample_distribution(prep, args.shots, seed=args.seed)
    rows = [{"outcomes": sim._outcomes_json(key), "count": n}
            for key, n in sorted(counts.items())]
    doc = {"shots": args.shots, "seed": args.seed, "counts": rows}
    if args.format == "json":
        _emit(sim.emit_json(doc), args.out)
    else:
        lines = [f"{args.shots} shots from seed {args.seed}"]
        for key, n in sorted(counts.items()):
            text = " ".join(f"{a}.{b}={v}" for (a, b), v in key)
            lines.append(f"  {n:8d}  {text}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    enum = sim.enumerate_branches(_prepare(args), min_prob=args.min_prob)
    if args.format == "json":
        _emit(sim.emit_json(sim.enumeration_json(enum, with_states=not args.no_states)),
              args.out)
    else:
        lines = [f"{len(enum.branches)} branches, pruned mass {enum.pruned_mass!r}"]
        for b in enum.branches:
            store = ", ".join(f"{k}={v}" for k, v in sorted(b.store.items())) or "-"
            outs = " ".join(f"{a}.{c}={v}" for (a, c), v in b.outcomes)
            lines.append(f"  p={b.probability:.12g}  {store}   [{outs}]")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_schedules(args) -> int:
    prep = _prepare(args)
    options = circuit.all_schedules(prep.circuit, max_count=args.max)
    if args.verify:
        # the listing holds every schedule, so every edge of the lattice
        # of ideals is checked, with no schedule validated again
        sim.check_schedule_independence(prep)
    if args.format == "json":
        doc = {"count": len(options), "verified": bool(args.verify),
               "schedules": [circuit.schedule_json(s) for s in options]}
        _emit(sim.emit_json(doc), args.out)
    else:
        lines = [f"{len(options)} schedules" + (" (verified equivalent)" if args.verify else "")]
        for i, s in enumerate(options):
            bouts = " ".join("[" + " ".join(f"{a}.{b}" for a, b in bout) + "]" for bout in s)
            lines.append(f"  {i}: {bouts}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_canon(args) -> int:
    tree = circuit.canonicalize(_prepare(args).tree)
    if args.format == "json":
        def as_json(t):
            if t is None:
                return None
            if isinstance(t, circuit.DecompLeaf):
                return {"gate": list(t.gid)}
            return {t.kind: [as_json(c) for c in t.children]}
        _emit(sim.emit_json(as_json(tree)), args.out)
    else:
        _emit(circuit.tree_text(tree), args.out)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "lower": _cmd_lower,
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "schedules": _cmd_schedules,
    "canon": _cmd_canon,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QcasmError as e:
        for d in e.diagnostics():
            print(d.render(), file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:  # an unreadable or non-UTF-8 input file
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
