"""Layered benchmark of the qcasm toolchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs nothing installed
but numpy.  NAME is ``qft-run``, ``grover-sample``, ``verify-suite`` or
``all`` (every workload in turn).  The seed selects every input; the
inputs are written under ``.perfbench-out/`` and the program sees only
those files and its argv.  Each workload runs in its own process
(``worker.py``) with one client and one request in flight, and the BLAS
pinned to one thread, so one Python thread does all the work.

With ``--trace 0`` the report holds the end-to-end metrics, measured
with tracing off.  ``setup_s`` is the median over several launches of
the time from process start to the end of the first, untimed request.
With ``--trace 1`` the worker runs half the time untraced and half
traced, and the report holds the per-layer metrics of the traced half
(per request) and the tracing overhead.  Every output is checked
against a closed-form oracle; failures count against ``attempted``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (commit,
versions, BLAS, CPU, seed, request count, tail percentile and the raw
latencies) is written to ``.perfbench-out/``, and a traced run also
writes its spans there as ``spans-NAME.npz``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAMS = SRC / "qcasm" / "programs"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("qft-run", "grover-sample", "verify-suite")
SETUP_LAUNCHES = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _launch(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time on the monotonic
    clock and its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        started = time.monotonic()
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {args[:2]} timed out") from None
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def _check_generator(seed: int, scratch: Path) -> None:
    """The same seed must write byte-identical inputs; the next seed must
    change m, j, (c, t), psi and k."""
    a, b = scratch / "a", scratch / "b"
    pa = inputs.generate(seed, PROGRAMS, a)
    inputs.generate(seed, PROGRAMS, b)
    for f in sorted(a.iterdir()):
        if f.read_bytes() != (b / f.name).read_bytes():
            raise BenchError(f"seed {seed} wrote two different {f.name}")
    pn = inputs.params_for(seed + 1)
    same = [k for k in ("qft_j", "grover_m", "check_m", "cnot", "psi", "phase_k")
            if pa[k] == pn[k]]
    if same:
        raise BenchError(f"seeds {seed} and {seed + 1} share {same}")
    shutil.rmtree(scratch)


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "qcasm").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 requests above
    it, that percentile, and how many requests lie above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{os.getpid()}-{name}"
    if work.exists():
        shutil.rmtree(work)
    try:
        _check_generator(seed, work / "generator-check")
        inputs.generate(seed, PROGRAMS, work)
        base = ["--workload", name, "--inputs", str(work)]
        setups, setup_errors = [], []

        def launch(args):
            started, rep = _launch(base + args, deadline)
            setups.append(rep["ready"] - started)
            setup_errors.extend([rep["setup_error"]] if rep["setup_error"] else [])
            return rep

        # Set-up launches go half before and half after the timed run, so
        # their median spans the whole run rather than its first seconds.
        probes = 0 if trace else SETUP_LAUNCHES - 1
        for _ in range(probes // 2):
            launch(["--setup-only"])
        args = ["--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            args += ["--spans", str(OUT / f"spans-{name}.npz")]
        rep = launch(args)
        for _ in range(probes - probes // 2):
            launch(["--setup-only"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [rep["plain"]] + ([rep["traced"]] if trace else [])
    failures = setup_errors + [f for ph in phases for f in ph["failures"]]
    attempted = len(setups) + sum(len(ph["latencies"]) + len(ph["failures"]) for ph in phases)
    timed = rep["plain"]["latencies"]
    problems = list(rep["self_check"])
    if Path(rep["qcasm_file"]).resolve().parent != (SRC / "qcasm").resolve():
        problems.append(f"imported qcasm from {rep['qcasm_file']}, not from {SRC}")
    if not timed:
        problems.append("no request succeeded")
    # Latencies are those of successful requests; with none, the timings
    # read 0 and the run is marked incorrect.
    plain = timed or [0.0]

    p50 = statistics.median(plain)
    tail_s, tail_pct, beyond = _tail(plain)
    if trace:
        traced = rep["traced"]["latencies"] or [0.0]
        traced_p50 = statistics.median(traced)
        metrics = dict(rep["layers"])
        metrics["trace.latency_p50_s"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - p50
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": p50,
            "latency_tail_s": tail_s,
            "throughput_rps": len(timed) / rep["plain"]["window"],
            "peak_rss_mib": rep["peak_rss_mib"],
        }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), **rep["env"],
        "blas_threads_requested": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "requests": len(timed), "tail_percentile": tail_pct, "requests_above_tail": beyond,
        "setup_launches": setups, "failures": failures[:20], "self_check": problems,
        "latencies": timed, "metrics": metrics,
    }
    (OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "record": record}


def _units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _summary(result: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines.  error_ratio is printed here but is not one of
    the reported metrics: it reads 0 on a correct program, and the same
    figure reaches the JSON report as ``failed`` over ``attempted``."""
    r = result["record"]
    lines = [f"{r['workload']} seed {r['seed']}: {r['requests']} requests timed"]
    for problem in dict.fromkeys(r["self_check"] + r["failures"]):
        lines.append(f"  problem: {problem}")
    notes = {"setup_s": f"median of {len(r['setup_launches'])} launches",
             "latency_tail_s": f"p{r['tail_percentile']:.1f}, {r['requests_above_tail']} "
                               f"requests above it, of {r['requests']}",
             "qmath.apply_bytes": "computed, not measured: 32 x 2^width per apply",
             "qmath.peak_state_bytes": "computed, not measured: 16 x 2^width, widest state"}
    if r["trace"]:
        lines.append("  per request of the traced half; _s metrics are self times")
    rows = [(m, v, units[m], notes.get(m, "")) for m, v in result["metrics"].items()]
    if not r["trace"]:
        rows.append(("error_ratio", result["failed"] / result["attempted"], "ratio",
                     f"{result['failed']} of {result['attempted']} requests failed"))
    for metric, value, unit, note in rows:
        lines.append(f"  {metric:36s} {value:14.6g} {unit:6s} {note}".rstrip())
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qcasm" / "__init__.py").is_file() or not PROGRAMS.is_dir():
        print(f"error: no qcasm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = _units()
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print("\n".join(_summary(results[name], units)), flush=True)
    docs = {name: {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                   "metrics": {m: {"value": v, "unit": units[m]} for m, v in r["metrics"].items()}}
            for name, r in results.items()}
    print(json.dumps(docs[names[0]] if len(names) == 1 else docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
