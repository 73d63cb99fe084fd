"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py --workload NAME --index K [--trace] [--pass-id N]
       [--spans FILE]

The package is imported first, so the parent can time interpreter
start until ``import kerrcasimir`` returns; then every operation of
the workload runs once, in order. Prints one JSON object: the outputs
of each operation, the pass's wall time, CPU time and peak resident
memory, and with --trace the per-layer totals from the span tracer.
"""

import sys
import time

import kerrcasimir

IMPORT_DONE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import kerrcasimir.cli  # noqa: E402,F401  (loaded alike in both modes)
import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload, index, trace, pass_id, spans_path=None):
    ops = workloads.operations(workload, index)
    tracer = None
    if trace:
        tracer = tracing.Tracer(pass_id)
        tracer.install()
    outputs, errors, op_s = {}, {}, {}
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                outputs[op.op_id] = op.run()
            else:
                outputs[op.op_id] = tracer.run_span("op:" + op.op_id, op.run)
        except Exception:  # a raising operation is a failed operation
            outputs[op.op_id] = None
            errors[op.op_id] = traceback.format_exc(limit=3)
        op_s[op.op_id] = time.perf_counter() - start
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    result = {
        "import_done": IMPORT_DONE,
        "package": os.path.abspath(kerrcasimir.__file__),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s": op_s,
        "outputs": outputs,
        "errors": errors,
        "machine": machine_info(),
    }
    if tracer is not None:
        summary = tracer.summary()
        result["layers"] = tracing.layer_metrics(summary)
        result["absent"] = summary["absent"]
        result["span_count"] = summary["span_count"]
        if spans_path:
            tracer.dump(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.index, args.trace, args.pass_id,
                      args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
