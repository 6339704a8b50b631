"""One workload process: set-up, oracle self-check, timed closed loop.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --inputs DIR --setup-only

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned.  One client keeps one request in flight: each request is
sent after the previous one returned.  The first request is untimed;
the ``time.monotonic()`` reading at its end marks the end of set-up.
The last line of stdout is a JSON report.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def attempt(steps) -> tuple[float, float, float, str]:
    """Send one request.  Returns its start and end on the monotonic
    clock, the time its oracles took after that, and the first failure
    ("" when none)."""
    outputs = []
    error = ""
    start = time.monotonic()
    try:
        for step in steps:
            outputs.append(step.call())
    except (Exception, SystemExit) as e:  # a failed request must not end the run
        error = f"raised {type(e).__name__}: {e}"
    stop = time.monotonic()
    if not error:
        try:
            for step, output in zip(steps, outputs):
                step.oracle(output)
        except Exception as e:
            error = f"oracle: {e}"
    return start, stop, time.monotonic() - stop, error


def oracle_self_check(steps) -> list[str]:
    """A corrupted output and a request that raises must both be counted
    as failures; an exception escaping ``attempt`` ends the run.  Returns
    what went wrong."""
    import qcasm
    problems = []
    first = steps[0]
    good = first.call()
    bad = workloads.corrupt(good)
    corrupted = [workloads.Step(lambda: bad, first.oracle)] + steps[1:]
    raising = [workloads.Step(lambda: qcasm.program_unitary(qcasm.parse("b := SM(1)")),
                              lambda _: None)]
    for label, request in (("corrupted output", corrupted), ("raising request", raising)):
        *_times, error = attempt(request)
        if not error:
            problems.append(f"{label} was counted as a success")
    return problems


def closed_loop(cycle, seconds: float, tracer: Tracer | None = None) -> dict:
    """Send the requests of ``cycle`` in turn, back to back, until
    ``seconds`` have passed, not counting the time spent in oracles.  A
    traced loop ends only after a whole cycle, so that its per-request
    counts do not depend on how many requests fitted in the time."""
    latencies: list[float] = []
    failures: list[str] = []
    checking = 0.0
    begin = time.monotonic()
    sent = 0
    while (time.monotonic() - begin - checking < seconds
           or (tracer is not None and sent % len(cycle))):
        if tracer is not None:
            tracer.request = sent
        start, stop, check, error = attempt(cycle[sent % len(cycle)])
        sent += 1
        checking += check
        if error:
            failures.append(error)
        else:
            latencies.append(stop - start)
    window = time.monotonic() - begin - checking
    return {"latencies": latencies, "failures": failures, "window": window}


def environment() -> dict:
    """numpy version, BLAS library and the thread count the BLAS reports."""
    import ctypes
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        library = "unknown"
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return {"numpy": np.__version__, "blas": library, "blas_threads": threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)

    params = json.loads((args.inputs / "params.json").read_text())
    cycle = workloads.build(args.workload, args.inputs, params)
    _start, ready, _check, error = attempt(cycle[0])
    report = {"ready": ready, "setup_error": error}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import qcasm
    report["qcasm_file"] = qcasm.__file__
    report["env"] = environment()
    report["self_check"] = oracle_self_check(cycle[0])
    window = args.seconds / 2 if args.trace else args.seconds
    plain = closed_loop(cycle, window)
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["plain"] = plain
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(cycle, window, tracer)
        finally:
            tracer.uninstall()
        requests = len(traced["latencies"]) + len(traced["failures"])
        report["traced"] = traced
        report["layers"] = tracer.metrics(requests)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
