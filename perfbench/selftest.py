"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/selftest.py                 # every workload
    python3 perfbench/selftest.py linear_lab      # only the named ones

Checks that the seed menu is fixed and entry 0 is the listed input set,
that BENCHMARK.json lists exactly the metrics the code reports, that a
vanished layer is reported as absent rather than crashing the tracer,
that self time and pool-thread parentage come out right, that for each
workload the traced outputs equal the untraced ones bitwise and the
per-layer counts repeat exactly, and that the benchmark refuses to run
without the package source. Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import time

import run
import tracer
import workloads


def check_seed_menu():
    listed = {
        "kerr_zero": {"chi3": 2e-16, "d_min": 1e-8, "d_max": 1e-6},
        "kerr_finite": {"d_min": 2e-7, "d_max": 1e-6, "gap": 1e-6},
        "linear_tabulated": {"scale": 1.0, "mirror_gap": 1e-6},
        "operator_lab": {"lab_seeds": (0, 1, 2, 3), "mc_seed": 4},
    }
    assert workloads.menu_index(0) == 0
    for group, entry in listed.items():
        assert workloads.GROUP_MENUS[group][0] == entry, group
        assert len(workloads.GROUP_MENUS[group]) == workloads.MENU_SIZE
    refs = run.load_references()
    for name in workloads.WORKLOADS:
        for seed in range(8):
            index = workloads.menu_index(seed)
            assert index == workloads.menu_index(seed + workloads.MENU_SIZE)
            ids = [op.op_id for op in workloads.operations(name, index)]
            assert len(set(ids)) == len(ids), name
            assert ids == [op.op_id for op in
                           workloads.operations(name, index)]
            assert set(ids) == set(refs[name][str(index)]), (name, index)


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def check_absent_layer():
    import kerrcasimir.lifshitz_nonlinear as ln
    original = ln._w_hat
    tr = tracer.Tracer()
    tr.install(tracer.LAYERS + (
        tracer.Layer("gone", [("kerrcasimir.lifshitz_nonlinear",
                               "_no_such_kernel")]),
        tracer.Layer("gone_module", [("kerrcasimir.no_such_module", "f")])))
    try:
        assert ln._w_hat is not original
        metrics = tracer.layer_metrics(tr.summary())
    finally:
        tr.uninstall()
    assert ln._w_hat is original
    assert "kerrcasimir.lifshitz_nonlinear._no_such_kernel" in tr.absent
    assert "kerrcasimir.no_such_module.f" in tr.absent
    assert metrics["w_hat.calls"] == 0


def check_self_time_and_threads():
    tr = tracer.Tracer()

    def busy(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    traced_inner = tr.wrap("inner", lambda: busy(0.05))

    def outer():
        busy(0.05)
        traced_inner()
        traced_inner()

    tr.run_span("outer", outer)
    cols = tr.spans()
    selfs = tr.self_times(cols)
    # rows are ordered by span id, taken on entry: the outer span is first
    assert abs(selfs[0] - 0.05) < 0.02, selfs
    assert abs(selfs.sum() - 0.15) < 0.03, selfs

    tr = tracer.Tracer()
    tr.install()
    try:
        out = tr.run_span("op", lambda: workloads._cli([
            "scan-distance", "--regime", "high", "--chi3", "0",
            "--d-min", "1e-7", "--d-max", "1e-6", "--d-count", "2",
            "--threads", "2"]))
        assert out["exit"] == 0, out
        cols = tr.spans()
        roots = cols["sid"][cols["parent"] < 0]
        assert roots.size == 1, "pool-thread spans lost their parent"
        cli_code = tr.names.index("cli:main")
        cli_sid = cols["sid"][cols["name"] == cli_code][0]
        kids = cols["parent"] == cli_sid
        assert kids.sum() >= 2, "pool tasks not parented to the CLI span"
        selfs = tr.self_times(cols)
        assert (selfs > -1e-6).all(), "negative self time"
    finally:
        tr.uninstall()


def check_passes(names):
    for name in names:
        plain = run.run_pass(name, 0, False, 0, run.CHILD_TIMEOUT_S)
        traced = [run.run_pass(name, 0, True, i, run.CHILD_TIMEOUT_S)
                  for i in range(2)]
        reference = json.dumps(plain["outputs"], sort_keys=True)
        for t in traced:
            assert json.dumps(t["outputs"], sort_keys=True) == reference, \
                "%s: traced outputs differ from untraced" % name
            assert not t["absent"], t["absent"]
        for metric in tracer.EXACT:
            a, b = traced[0]["layers"][metric], traced[1]["layers"][metric]
            assert a == b, "%s: %s %r != %r" % (name, metric, a, b)
        refs = run.load_references()
        _, misses, _ = run.evaluate(name, 0, plain, refs)
        assert not misses, misses
        print("  %s: %.2f s untraced, %.2f s traced, counts repeat"
              % (name, plain["wall_s"], traced[0]["wall_s"]))


def check_refuses_without_source():
    scratch = run.PYCACHE / "selftest-empty"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, scratch / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kerr",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=str(scratch), capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0, proc.returncode
        assert "no package source" in proc.stderr, proc.stderr
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    checks = [check_seed_menu, check_benchmark_json, check_absent_layer,
              check_self_time_and_threads,
              lambda: check_passes(names), check_refuses_without_source]
    labels = ["seed menu", "BENCHMARK.json", "absent layer",
              "self time and threads", "traced passes", "no source"]
    for label, check in zip(labels, checks):
        try:
            check()
        except AssertionError as exc:
            print("FAIL %s: %s" % (label, exc))
            return 1
        print("ok   %s" % label)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main(sys.argv[1:]))
