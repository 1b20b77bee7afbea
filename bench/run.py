"""Benchmark of the verification paths of ``restrictedsums``.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One workload runs in this one process as a closed loop:
one caller, and the next unit call starts when the previous one returns.
Every unit call is timed between two runs of a reference kernel and checked
against an independent computation (see ``checks.py``).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
half of the time untraced and the second half with the per-layer wrappers
of ``tracer.py`` installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "restrictedsums"

DEFAULT_SEED = 1
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "scan-gf13", "scan-rational", "certify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}, the seed of the README's figures)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import the package from this checkout's sources, freshly each time."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    rs = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(rs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported {PACKAGE} from {rs.__file__}, not from {SRC}")
    return rs


class Measurement:
    """Calibrated timings of the unit calls of one phase."""

    def __init__(self):
        self.raw = []  # seconds per unit call
        self.ref = []  # seconds per reference kernel run; one between each two calls
        self.cal = []  # call seconds / mean of the two kernel runs beside it


def measure(workload, kernel, seconds, first_call, state, tracer=None) -> Measurement:
    """Whole rounds of unit calls until ``seconds`` have passed.

    Kernel runs and calls alternate with no gap, so each kernel run is the
    "after" of one call and the "before" of the next.  The outputs are
    checked once the time is up.
    """
    m = Measurement()
    outputs = []
    start = time.perf_counter()
    index = first_call
    m.ref.append(kernel())
    while time.perf_counter() - start < seconds:
        for _ in range(workload.calls_per_round):
            if tracer:
                tracer.begin_call(index)
            t0 = time.perf_counter()
            try:
                outputs.append((index, workload.run(index)))
            except Exception:
                traceback.print_exc()
                state["failed"] += 1
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_call()
            m.ref.append(kernel())
            state["attempted"] += 1
            index += 1
            if outputs and outputs[-1][0] == index - 1:
                m.raw.append(elapsed)
                m.cal.append(elapsed / ((m.ref[-2] + m.ref[-1]) / 2))
    for call, output in outputs:
        try:
            workload.check(call, output)
        except Exception:
            state["correct"] = False
            traceback.print_exc()
    return m


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import kernels

    # set-up: import numpy once, then import the package, generate the
    # inputs and warm up, several times; each step is calibrated by the
    # Python kernel runs beside it, like the unit calls
    ref = [kernels.python_kernel()]
    t0 = time.perf_counter()
    import numpy as np

    steps = [time.perf_counter() - t0]
    ref.append(kernels.python_kernel())
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            rs = import_package()
            workload = workloads.WORKLOADS[args.workload](rs, args.seed, str(workdir))
            workload.warm_up()
            steps.append(time.perf_counter() - t0)
            ref.append(kernels.python_kernel())
        cal = [step / ((a + b) / 2) for step, a, b in zip(steps, ref, ref[1:])]
        setup_s = (cal[0] + median(cal[1:])) * kernels.PYTHON_NOMINAL_S
        if workload.kernel == "numpy":
            kernel = lambda: kernels.numpy_kernel(np)  # noqa: E731
        else:
            kernel = kernels.python_kernel

        state = {"attempted": 0, "failed": 0, "correct": True}
        if args.trace:
            from tracer import Tracer

            plain = measure(workload, kernel, args.seconds / 2, 0, state)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, kernel, args.seconds / 2, state["attempted"], state, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["ref.kernel_ms.p50"] = {"value": median(plain.ref) * 1000.0, "unit": "ms"}
            metrics["raw.call_ms.p50"] = {"value": median(plain.raw) * 1000.0, "unit": "ms"}
            overhead = median(traced.cal) / median(plain.cal) if plain.cal and traced.cal else 0.0
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                         {"workload": args.workload, "seed": args.seed})
        else:
            run = measure(workload, kernel, args.seconds, 0, state)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = {
                "call_cal.p50": {"value": median(run.cal), "unit": "ref"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            print(f"bench: {len(run.cal)} calls, raw p50 {median(run.raw) * 1000:.1f} ms, "
                  f"kernel p50 {median(run.ref) * 1000:.2f} ms", file=sys.stderr)
            print("bench-calls: " + json.dumps({"raw_s": run.raw, "ref_s": run.ref, "setup_raw_s": steps,
                                                "setup_ref_s": ref}),
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": state["correct"], "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
