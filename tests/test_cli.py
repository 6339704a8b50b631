"""The command-line front end: exit codes, output determinism, and the
behavior of every subcommand, driven through main(argv)."""
import collections
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qcasm import ast, circuit, cli, qmath, sim
from qcasm.cli import main
from qcasm.errors import SimulationError
from qcasm.parser import parse

from conftest import CORPUS, FIXTURES, PROGRAMS, corpus_program

SRC = PROGRAMS.parent.parent


TELEPORT = str(PROGRAMS / "teleport.qcasm")
CNOT = str(PROGRAMS / "cnot_mb.qcasm")
QFT = str(PROGRAMS / "qft.qcasm")
GROVER = str(PROGRAMS / "grover.qcasm")
PHASE_EST = str(PROGRAMS / "phase_est.qcasm")
TELE_REG = str(PROGRAMS / "teleport_demo.json")
PE_REG = str(PROGRAMS / "phase_est_demo.json")


def run_cli(*argv, capsys) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_ok(capsys):
    code, out, err = run_cli("check", TELEPORT, capsys=capsys)
    assert code == 0 and err == ""
    assert out == "ok: 6 gates on 3 wires\n"


def test_check_with_params(capsys):
    code, out, _ = run_cli("check", QFT, "--param", "n=4", capsys=capsys)
    assert code == 0
    assert "on 4 wires" in out


def test_check_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.qcasm"
    bad.write_text("H(1) @\n")
    code, out, err = run_cli("check", str(bad), capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("1:6: error:")


def test_check_rejects_ill_formed(capsys):
    path = str(FIXTURES / "overlap_parallel_gates.qcasm")
    code, out, err = run_cli("check", path, capsys=capsys)
    assert code == 1 and out == ""
    assert "parallel-disjoint-wires" in err


def test_check_reports_elaboration_failure(capsys):
    code, _, err = run_cli("check", TELEPORT, "--param", "zz=1", capsys=capsys)
    assert code == 1
    assert "zz" in err


try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


@pytest.mark.parametrize("error,message", [
    (_ArrayMemoryError((2**15, 2**15), np.dtype(complex)),
     "Unable to allocate 16.0 GiB for an array with shape (32768, 32768)"),
    (MemoryError(), ""),
])
def test_out_of_memory_is_an_error_not_a_traceback(monkeypatch, capsys, error, message):
    # Stands in for the 16 GiB mark matrix of grover n=14: the raise
    # replaces the allocation, so nothing large is ever built.
    def no_memory(n, m):
        raise error
    monkeypatch.setattr(qmath, "_mark_matrix", no_memory)
    code, out, err = run_cli("check", GROVER, "--param", "n=3", "--param", "N=8",
                             "--param", "m=5", capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: out of memory: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("run",), ("run", "--format", "text"), ("enumerate",)])
def test_huge_integer_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    # 2^(2^14) has 4 933 digits, more than CPython converts to text.
    prog = tmp_path / "huge.qcasm"
    prog.write_text("x := 2^(2^14); H(1)\n")
    code, out, err = run_cli(*argv, str(prog), capsys=capsys)
    assert code == 1 and out == ""
    assert err == f"error: operator '^': result exceeds {ast.MAX_INT_BITS} bits\n"


# Elaboration failures carry the line:col of the innermost rule or input
# conjunct being elaborated, whichever error type raised them.
@pytest.mark.parametrize("text, line", [
    ("H(1, 1)", "1:1: error: H acts on 1 wire(s) but is applied to 2"),
    ("H(1);\nfor i = 1 to 2: { X(i); CNOT(i) }",
     "2:25: error: CNOT acts on 2 wire(s) but is applied to 1"),
    ("H(1);\n  ZOG(2)", "2:3: error: unknown gate or measurement 'ZOG'"),
    ("p := SM(3); if p = 1 then mark_(2, 9)(1, 2, 4)",
     "1:13: error: mark: marked index 9 out of range for 2 wires"),
    ("forall i in [1, 0 div 0]: H(i)", "1:1: error: div by zero"),
    ("param p = 0\nH(1);\np := SM(1)",
     "3:1: error: output variable 'p' collides with a parameter name"),
    ("ket 0 on 2 and\n  {forall i in [1, 2]: ket 0 on i};\nH(1)",
     "2:4: error: input declaration wires overlap at [2]"),
    ("param n\nH(n)", "error: parameter 'n' is not bound and has no default"),
])
def test_elaboration_errors_carry_their_position(tmp_path, capsys, text, line):
    prog = tmp_path / "bad.qcasm"
    prog.write_text(text + "\n")
    assert run_cli("check", str(prog), capsys=capsys) == (1, "", line + "\n")


def test_huge_literal_is_an_error_not_a_traceback(tmp_path, capsys):
    prog = tmp_path / "literal.qcasm"
    prog.write_text(f"x := {'9' * 5000}; H(1)\n")
    code, out, err = run_cli("run", str(prog), capsys=capsys)
    assert code == 1 and out == ""
    assert err == "1:6: error: integer literal of 5000 digits exceeds the limit of 4300 digits\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-text limit")
def test_integer_bound_follows_a_lowered_conversion_limit(tmp_path):
    # 2^3000 has 904 digits: under a limit of 640 the bound is 2122 bits
    prog = tmp_path / "power.qcasm"
    prog.write_text("x := 2^3000; H(1)\n")
    done = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m", "qcasm",
                           "run", str(prog)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: operator '^': result exceeds 2122 bits\n"


def test_missing_program_file(capsys):
    code, _, err = run_cli("check", "/no/such/file.qcasm", capsys=capsys)
    assert code == 2
    assert "error" in err


def test_bad_param_syntax(capsys):
    assert run_cli("check", TELEPORT, "--param", "n", capsys=capsys)[0] == 2
    assert run_cli("check", TELEPORT, "--param", "n=abc", capsys=capsys)[0] == 2
    assert run_cli("check", TELEPORT, "--param", "=3", capsys=capsys)[0] == 2


def test_missing_registry_file(capsys):
    code, _, err = run_cli("check", TELEPORT, "--registry", "/no/such.json",
                           capsys=capsys)
    assert code == 2
    assert "not found" in err


def test_invalid_registry_json(tmp_path, capsys):
    reg = tmp_path / "broken.json"
    reg.write_text("{not json")
    code, _, err = run_cli("check", TELEPORT, "--registry", str(reg), capsys=capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("entry, message", [
    ({"name": "U", "arity": 1, "outcomes": [{"label": 0}]}, "missing field 'matrix'"),
    ({"name": "U", "arity": "x", "outcomes": []}, "invalid literal for int()"),
    ({"name": "s", "qubits": "z", "amplitudes": [[1, 0], [0, 0]]}, "invalid literal for int()"),
    ({"name": "s", "amplitudes": [["a", 0], [0, 0]]}, "could not convert string to float"),
    ({"name": "U", "outcomes": 5}, "'int' object is not iterable"),
    ({"name": "U", "arity": 100000, "outcomes": [{"label": 0, "matrix": [[[1, 0]]]}]},
     "arity 100000 exceeds the maximum width 24"),
    ({"name": 5, "amplitudes": [[1, 0]]}, "an object with a string name"),
])
def test_malformed_registry_entry_is_an_error_not_a_traceback(tmp_path, capsys, entry, message):
    reg = tmp_path / "bad.json"
    reg.write_text(json.dumps([entry]))
    code, out, err = run_cli("check", TELEPORT, "--registry", str(reg), capsys=capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and message in line and str(entry["name"]) in line


@pytest.mark.parametrize("option", [(), ("--registry",)])
def test_non_utf8_input_file_is_an_error_not_a_traceback(tmp_path, capsys, option):
    bad = tmp_path / "latin1"
    bad.write_bytes(b"\xff\xfe[1]")
    argv = (TELEPORT, *option, str(bad)) if option else (str(bad),)
    code, out, err = run_cli("check", *argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def test_stdin_program(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("H(1); p := SM(1)\n"))
    code, out, _ = run_cli("check", "-", capsys=capsys)
    assert code == 0
    assert out == "ok: 2 gates on 1 wires\n"


def test_calls_in_one_process_share_the_parser_not_its_values(monkeypatch, capsys):
    # The parser is built once per process; the --param and --registry
    # lists that one call appends to must not leak into the next.
    assert cli._build_argparser() is cli._build_argparser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "check",
                        lambda args: seen.append((args.param, args.registry)) or 0)
    assert main(["check", QFT, "--param", "n=4", "--registry", "a.json"]) == 0
    assert main(["check", QFT, "--param", "n=5", "--param", "m=1",
                 "--registry", "b.json", "--registry", "c.json"]) == 0
    assert main(["check", QFT]) == 0
    assert seen == [(["n=4"], ["a.json"]), (["n=5", "m=1"], ["b.json", "c.json"]), ([], [])]
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--no-such-flag", TELEPORT])
    assert exit_info.value.code == 2
    assert run_cli("check", QFT, "--param", "n", capsys=capsys)[0] == 2
    code, out, err = run_cli("enumerate", PHASE_EST, "--param", "n=2", "--param", "m=1",
                             "--registry", PE_REG, "--no-states", capsys=capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["branches"]
    assert run_cli("check", QFT, "--param", "n=4", capsys=capsys)[1] == \
        "ok: 12 gates on 4 wires\n"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_json_is_deterministic(capsys):
    first = run_cli("run", TELEPORT, "--registry", TELE_REG, "--seed", "4",
                    capsys=capsys)
    second = run_cli("run", TELEPORT, "--registry", TELE_REG, "--seed", "4",
                     capsys=capsys)
    assert first == second
    code, out, _ = first
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"schedule", "probability", "outcomes", "store",
                        "trace", "state"}


def test_run_seed_changes_outcomes(capsys):
    outputs = set()
    for seed in range(8):
        _, out, _ = run_cli("run", TELEPORT, "--registry", TELE_REG,
                            "--seed", str(seed), capsys=capsys)
        outputs.add(json.dumps(json.loads(out)["store"], sort_keys=True))
    assert len(outputs) > 1


def test_run_text_format(capsys):
    code, out, _ = run_cli("run", TELEPORT, "--registry", TELE_REG,
                           "--format", "text", capsys=capsys)
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("probability ")
    assert abs(float(first.split()[1]) - 0.25) < 1e-9
    assert "bout 1: CNOT(1, 2) -> 0" in out


def test_run_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli("run", TELEPORT, "--registry", TELE_REG,
                           "--out", str(target), capsys=capsys)
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["state"]["width"] == 3


def test_run_out_file_equals_stdout_over_several_emit_chunks(tmp_path, capsys):
    n = (2 * sim.EMIT_CHUNK_ROWS).bit_length()  # more than two chunks of rows
    code, out, _ = run_cli("run", QFT, "--param", f"n={n}", capsys=capsys)
    assert code == 0 and len(json.loads(out)["state"]["amplitudes"]) == 2**n
    target = tmp_path / "result.json"
    code, empty, _ = run_cli("run", QFT, "--param", f"n={n}", "--out", str(target),
                             capsys=capsys)
    assert code == 0 and empty == ""
    assert target.read_bytes() == out.encode()


def test_run_shots_counts(capsys):
    code, out, _ = run_cli("run", CNOT, "--shots", "40", "--seed", "2",
                           capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["shots"] == 40 and doc["seed"] == 2
    assert sum(row["count"] for row in doc["counts"]) == 40


def test_run_shots_must_be_positive(capsys):
    assert run_cli("run", TELEPORT, "--registry", TELE_REG, "--shots", "0",
                   capsys=capsys)[0] == 2


@pytest.mark.parametrize("usage", [
    ["--shots", "0"], ["--schedule", "fast"], ["--param", "n"],
])
@pytest.mark.parametrize("text", ["H(1) @\n", "X_(1)(1)\n"])
def test_usage_error_comes_before_program_errors(tmp_path, capsys, usage, text):
    # a parse error and an elaboration error (X takes no parameter)
    bad = tmp_path / "bad.qcasm"
    bad.write_text(text)
    code, out, err = run_cli("run", str(bad), *usage, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error:")


def test_run_schedule_index(capsys):
    base = run_cli("run", TELEPORT, "--registry", TELE_REG, "--schedule", "0",
                   capsys=capsys)
    assert base[0] == 0
    code, _, err = run_cli("run", TELEPORT, "--registry", TELE_REG,
                           "--schedule", "99", capsys=capsys)
    assert code == 1 and "out of range" in err
    assert run_cli("run", TELEPORT, "--registry", TELE_REG,
                   "--schedule", "fast", capsys=capsys)[0] == 2


def test_run_schedule_index_lists_only_up_to_it(capsys, monkeypatch):
    listed = []
    schedules = circuit._schedules

    def counting(circ):
        for schedule in schedules(circ):
            listed.append(schedule)
            yield schedule

    monkeypatch.setattr(circuit, "_schedules", counting)
    # qft n=5 has 14 525 schedules
    code, out, _ = run_cli("run", QFT, "--param", "n=5", "--schedule", "2", capsys=capsys)
    assert code == 0 and len(listed) == 3
    assert json.loads(out)["schedule"] == circuit.schedule_json(listed[2])
    listed.clear()
    code, _, err = run_cli("run", QFT, "--param", "n=5", "--schedule", "-1", capsys=capsys)
    assert code == 2 and err.startswith("usage error:") and listed == []
    code, _, err = run_cli("run", TELEPORT, "--registry", TELE_REG, "--schedule", "13",
                           capsys=capsys)
    assert code == 1 and "schedule index 13 out of range; the circuit has 13 schedules" in err


def test_run_phase_estimation_registry(capsys):
    code, out, _ = run_cli("run", PHASE_EST, "--registry", PE_REG, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    readings = [t["answer"] for t in doc["trace"] if t["mq"] == "SM"]
    assert readings == [1, 0, 1]  # the demo unitary has eigenphase 5/8


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_json(capsys):
    code, out, _ = run_cli("enumerate", TELEPORT, "--registry", TELE_REG,
                           capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["branches"]) == 4
    assert abs(doc["total_probability"] - 1.0) < 1e-9
    assert "state" in doc["branches"][0]


def test_enumerate_min_prob_and_no_states(capsys):
    code, out, _ = run_cli("enumerate", TELEPORT, "--registry", TELE_REG,
                           "--min-prob", "0.3", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branches"] == []
    assert abs(doc["pruned_mass"] - 1.0) < 1e-9
    _, out, _ = run_cli("enumerate", TELEPORT, "--registry", TELE_REG,
                        "--no-states", capsys=capsys)
    assert "state" not in json.loads(out)["branches"][0]


def test_enumerate_text(capsys):
    code, out, _ = run_cli("enumerate", CNOT, "--format", "text", capsys=capsys)
    assert code == 0
    assert out.startswith("8 branches")


# ---------------------------------------------------------------------------
# lower / schedules / canon
# ---------------------------------------------------------------------------

def test_lower_text(capsys):
    code, out, _ = run_cli("lower", TELEPORT, capsys=capsys)
    assert code == 0
    assert out.startswith("width 3, 6 gates")
    assert "1.2: p := SM(1)   after: 1.1" in out
    assert "decomposition: seq(1.0, 1.1, par(1.2, 2.1), 3.0, 3.1)" in out


def test_lower_dot(capsys):
    code, out, _ = run_cli("lower", TELEPORT, "--format", "dot", capsys=capsys)
    assert code == 0
    assert out.startswith("digraph circuit {")
    assert "style=dashed" in out


def test_lower_json(capsys):
    code, out, _ = run_cli("lower", TELEPORT, "--format", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 3 and len(doc["gates"]) == 6


def test_schedules_listing(capsys):
    code, out, _ = run_cli("schedules", TELEPORT, capsys=capsys)
    assert code == 0
    assert out.startswith("13 schedules")
    assert out.count("\n") == 14  # header plus one line per schedule


def test_schedules_verify(capsys):
    code, out, _ = run_cli("schedules", TELEPORT, "--registry", TELE_REG,
                           "--verify", capsys=capsys)
    assert code == 0
    assert "(verified equivalent)" in out


def test_schedules_json_and_max(capsys):
    code, out, _ = run_cli("schedules", TELEPORT, "--format", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 13 and len(doc["schedules"]) == 13
    code, _, err = run_cli("schedules", TELEPORT, "--max", "5", capsys=capsys)
    assert code == 1
    assert "5" in err


def test_canon_text_and_json(capsys):
    code, out, _ = run_cli("canon", TELEPORT, capsys=capsys)
    assert code == 0
    assert out == "seq(1.0, 1.1, par(1.2, 2.1), 3.0, 3.1)\n"
    code, out, _ = run_cli("canon", CNOT, "--format", "json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert "seq" in doc


def test_canon_equal_for_regrouped_programs(capsys):
    liberal = str(PROGRAMS / "cnot_mb_liberal.qcasm")
    _, strict_out, _ = run_cli("canon", CNOT, capsys=capsys)
    _, liberal_out, _ = run_cli("canon", liberal, capsys=capsys)
    assert strict_out != liberal_out  # regrouping is visible in the trees
    _, a, _ = run_cli("lower", CNOT, "--format", "json", capsys=capsys)
    _, b, _ = run_cli("lower", liberal, "--format", "json", capsys=capsys)
    assert a == b  # but the lowered circuits are byte-identical


# ---------------------------------------------------------------------------
# one path from source to prepared program
# ---------------------------------------------------------------------------

def test_every_subcommand_prepares_once(monkeypatch, capsys, pe_registry):
    calls = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    # One elaboration and one walk, which checks the ground program as it
    # lowers it: no separate groundness or well-formedness pass.
    for module, name in ((ast, "elaborate"), (circuit, "_lower"), (ast, "is_ground"),
                         (circuit, "well_formed")):
        spy(module, name)
    for command in ("check", "run", "enumerate", "lower", "schedules", "canon"):
        calls.clear()
        assert run_cli(command, TELEPORT, "--registry", TELE_REG, capsys=capsys)[0] == 0
        assert calls == {"elaborate": 1, "_lower": 1}, command
    for walker in ("well_formed", "check_program", "program_width", "wire_set", "output_vars",
                   "subrules", "is_classical", "_gate_rules", "_occurring_names"):
        assert not hasattr(ast, walker), walker
    monkeypatch.undo()
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        prog = corpus_program(name)
        ground = ast.elaborate(prog, bindings.get(name), reg)
        assert sim.prepare(prog, bindings.get(name), reg).tree == \
            circuit.decomposition(ground), name


def test_sampler_runs_the_classical_pass(tmp_path, capsys):
    # Every run of this program fails in its classical pass, so every
    # shot must fail too, however many there are.
    text = "H(1); b := SM(1); zzz := 1 || zzz := 2\n"
    message = "parallel rules write different values to 'zzz'"
    with pytest.raises(SimulationError, match=message):
        sim.run(parse(text))
    for shots in (1, 3):
        with pytest.raises(SimulationError, match=message):
            sim.sample_distribution(parse(text), shots)
    path = tmp_path / "clash.qcasm"
    path.write_text(text)
    for shots in ("1", "3"):
        assert run_cli("run", str(path), "--shots", shots, capsys=capsys) == \
            (1, "", f"error: {message}\n")
