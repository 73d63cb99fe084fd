"""Benchmark of kerrcasimir: two workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload kerr --seed 0 --seconds 55
    python3 perfbench/run.py --workload kerr --trace 1
    python3 perfbench/run.py --workload all --out BENCH_local.json
    python3 perfbench/run.py --record-references

Every pass runs the workload's operations once in a fresh interpreter
(worker.py), so the package's caches start empty as they do for a CLI
user, with the BLAS/OpenMP pools pinned to one thread. Passes repeat
until --seconds is used up (at least one) and the medians are reported.
``--trace 0`` reports wall_s, cpu_s, setup_s and peak_rss_mb;
``--trace 1`` pairs each untraced pass with a traced one and reports the
per-layer metrics of tracer.py plus the tracing overhead. Every output
is checked against closed forms and against references.json; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``--workload all`` runs every workload
both ways and prints one table. RATIONALE.md says why each workload
and metric is there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
PYCACHE = ROOT / ".perfbench_cache"
SETUP_PROBES = 8
# a run stops starting passes here, so it ends well inside 180 s
PASS_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = ("import time, kerrcasimir; "
         "print(repr(time.perf_counter()), kerrcasimir.__file__)")

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def child_env():
    env = dict(os.environ)
    # cached bytecode, kept out of the source tree, as an installed
    # package has it; the first probe of a run fills the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(cmd, timeout):
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT),
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out: %s" % " ".join(cmd[1:]))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("child failed (%d): %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    return start, proc.stdout.strip().splitlines()[-1]


def _check_package(path):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("kerrcasimir imported from %s, not from %s"
                         % (path, SRC))


def setup_probe():
    """Interpreter start until ``import kerrcasimir`` returns, seconds."""
    start, line = _run_child([sys.executable, "-c", PROBE], 60.0)
    done, path = line.split(" ", 1)
    _check_package(path)
    return float(done) - start


def run_pass(workload, index, trace, pass_id, timeout, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--index", str(index), "--pass-id", str(pass_id)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    start, line = _run_child(cmd, timeout)
    result = json.loads(line)
    _check_package(result["package"])
    result["setup_s"] = result["import_done"] - start
    return result


def load_references():
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchError("cannot read references: %s" % exc)


def evaluate(workload, index, result, refs):
    """Check one pass; returns (ops, misses by op, known-defect ops)."""
    ops = workloads.operations(workload, index)
    stored = refs.get(workload, {}).get(str(index), {})
    misses, defects = {}, []
    for op in ops:
        out = result["outputs"].get(op.op_id)
        found = workloads.check(op, out, stored.get(op.op_id))
        if op.op_id in result["errors"]:
            found = [result["errors"][op.op_id].strip().splitlines()[-1]]
        if found:
            misses[op.op_id] = found
        if workloads.is_defective(op, out):
            defects.append(op.op_id)
    return ops, misses, defects


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, out=None):
    """One benchmark run; returns a JSON-ready record.

    With ``out``, each traced pass also writes its spans to
    ``<out>.<workload>.pass<N>.npz``.
    """
    index = workloads.menu_index(seed)
    refs = load_references()
    start = perf_counter()
    setup_probe()  # warms the bytecode cache; not counted
    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    loop_start = perf_counter()
    while True:
        left = CHILD_TIMEOUT_S - (perf_counter() - start)
        plain.append(run_pass(workload, index, False, len(plain), left))
        if trace:
            left = CHILD_TIMEOUT_S - (perf_counter() - start)
            spans = out and "%s.%s.pass%d.npz" % (out, workload, len(traced))
            traced.append(run_pass(workload, index, True, len(traced), left,
                                   spans))
        elapsed = perf_counter() - start
        per_round = (perf_counter() - loop_start) / len(plain)
        if elapsed + per_round > min(seconds, PASS_BUDGET_S):
            break

    attempted, failed, problems = 0, 0, []
    defects = []
    for result in plain + traced:
        ops, misses, defects = evaluate(workload, index, result, refs)
        attempted += len(ops)
        failed += len(misses)
        problems.extend("%s: %s" % (op, "; ".join(m))
                        for op, m in sorted(misses.items()))
    reference = json.dumps(plain[0]["outputs"], sort_keys=True)
    for result in plain[1:] + traced:
        if json.dumps(result["outputs"], sort_keys=True) != reference:
            failed += 1
            problems.append("outputs differ between passes (traced: %s)"
                            % ("layers" in result))
    counts_repeat = all(
        t["layers"][name] == traced[0]["layers"][name]
        for t in traced[1:] for name in tracer.EXACT)
    if not counts_repeat:
        problems.append("per-layer counts differ between traced passes")

    setup += [r["setup_s"] for r in plain + traced]
    record = {
        "workload": workload, "seed": seed, "menu_index": index,
        "inputs": workloads.inputs(workload, index),
        "trace": trace, "passes": len(plain), "traced_passes": len(traced),
        "machine": plain[0]["machine"],
        "attempted": attempted, "failed": failed,
        "known_defects": sorted(set(defects)),
        "known_defect_ops": len(set(defects)) * (len(plain) + len(traced)),
        "problems": problems,
        "correct": failed == 0 and counts_repeat,
        "op_s": {op: [r["op_s"][op] for r in plain]
                 for op in plain[0]["op_s"]},
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "setup_s": setup,
        },
    }
    # failed_frac counts unexpected failures and known defects alike
    record["failed_frac"] = (failed + record["known_defect_ops"]) / attempted
    record["end_to_end"] = {
        name: _median(record["samples"][name]) for name, _ in END_TO_END}
    if trace:
        layers = dict(traced[0]["layers"])
        for name, unit, _ in tracer.PER_LAYER:
            if unit == "s":
                layers[name] = _median([t["layers"][name] for t in traced])
        layers["known_defects"] = len(record["known_defects"])
        layers["trace.overhead_s"] = (
            _median([t["wall_s"] for t in traced])
            - record["end_to_end"]["wall_s"])
        record["per_layer"] = layers
        record["absent"] = traced[0]["absent"]
        record["span_count"] = traced[0]["span_count"]
    return record


def result_line(record):
    if record["trace"]:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record):
    print("workload %s  seed %d (menu entry %d)  passes %d%s" % (
        record["workload"], record["seed"], record["menu_index"],
        record["passes"], "  traced passes %d" % record["traced_passes"]
        if record["trace"] else ""))
    print("  machine  " + " ".join(
        "%s=%s" % item for item in sorted(record["machine"].items())))
    for name, unit in END_TO_END:
        samples = record["samples"][name]
        print("  %-12s %12.4f %-3s median of %d" % (
            name, record["end_to_end"][name], unit, len(samples)))
    print("  %-12s %12.4f     %d failed + %d known-defect of %d operations"
          % ("failed_frac", record["failed_frac"], record["failed"],
             record["known_defect_ops"], record["attempted"]))
    for op in record["known_defects"]:
        print("  known defect  %s" % op)
    for problem in record["problems"]:
        print("  FAILED  %s" % problem)
    if record["trace"]:
        print("  per layer (traced pass; %d spans; absent: %s)" % (
            record["span_count"], ", ".join(record["absent"]) or "none"))
        for name, unit, _ in tracer.PER_LAYER:
            print("    %-38s %16.6g %s" % (name, record["per_layer"][name],
                                          unit))


def print_table(records):
    names = [r["workload"] for r in records if not r["trace"]]
    print("%-38s" % "metric" + "".join("%18s" % n for n in names))
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    for name, unit in END_TO_END:
        print("%-38s" % ("%s [%s]" % (name, unit)) + "".join(
            "%18.4f" % r["end_to_end"][name] for r in plain))
    print("%-38s" % "failed_frac (incl. known defects)" + "".join(
        "%18.4f" % r["failed_frac"] for r in plain))
    for name, unit, _ in tracer.PER_LAYER:
        print("%-38s" % ("%s [%s]" % (name, unit)) + "".join(
            "%18.6g" % r["per_layer"][name] for r in traced))


def record_references():
    """Run every menu entry once and store its outputs as references."""
    refs = {}
    for workload in workloads.WORKLOADS:
        refs[workload] = {}
        for index in range(workloads.MENU_SIZE):
            result = run_pass(workload, index, False, 0, CHILD_TIMEOUT_S)
            own = {workload: {str(index): result["outputs"]}}
            _, misses, defects = evaluate(workload, index, result, own)
            print("%s[%d]: %.2f s, misses %r, known defects %r" % (
                workload, index, result["wall_s"], misses, defects))
            if misses:
                raise BenchError("closed-form checks fail; not recording")
            refs[workload][str(index)] = result["outputs"]
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full record as JSON here "
                        "(and the spans of traced passes beside it)")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "kerrcasimir" / "__init__.py").is_file():
            raise BenchError("no package source at %s" % SRC)
        if args.record_references:
            record_references()
            return 0
        if args.workload == "all":
            records = [measure(w, args.seed, args.seconds, t, args.out)
                       for w in workloads.WORKLOADS for t in (False, True)]
        else:
            records = [measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.out)]
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"records": records}, handle, indent=1)
            handle.write("\n")
    if len(records) == 1:
        line = result_line(records[0])
    else:
        print_table(records)
        lines = [result_line(r) for r in records]
        line = {"correct": all(r["correct"] for r in lines),
                "attempted": sum(r["attempted"] for r in lines),
                "failed": sum(r["failed"] for r in lines),
                "metrics": {"%s.%s" % (rec["workload"], name): value
                            for rec, r in zip(records, lines)
                            for name, value in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
