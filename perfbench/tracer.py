"""Span tracer installed from outside the package by attribute substitution.

Each layer is a set of module-level functions of ``kerrcasimir``. The
tracer wraps every one of them and rebinds the wrapper wherever the
original is bound (``from x import f`` copies the binding into the
importing module, so every ``kerrcasimir.*`` module namespace is
scanned). A name that no longer exists is reported as absent; a layer
with no name left is an absent layer.

Spans (id, name, parent, thread, wall start and end, thread-CPU start
and end, work, flag) go into per-thread packed arrays, so recording
stays cheap and thread safe; the span stack is thread local, and pool
threads started by the CLI inherit the span that submitted them as
parent. Everything is aggregated once, at the end: a span's self time
is its duration minus the time its children cover (see self_times).
"""

import array
import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter, process_time, thread_time

import numpy as np


def _n_evals(args, kwargs, result):
    return getattr(result, "n_evals", 0)


def _unconverged(args, kwargs, result):
    return not getattr(result, "converged", True)


def _points(args, kwargs, result):
    # the grid is y: second argument of the kernel vectors and fresnel,
    # first of _gap_integrand(y, x, ...)
    return max(getattr(args[0], "size", 1), getattr(args[1], "size", 1))


def _n_cubed(args, kwargs, result):
    return args[0].n_points ** 3


class Layer:
    """A named layer: the functions it covers and how to count its work."""

    def __init__(self, name, targets, work=None, flag=None, cpu=False):
        self.name = name
        self.targets = targets  # (module, attribute[, class]) tuples
        self.work = work
        self.flag = flag
        self.cpu = cpu


_LN = "kerrcasimir.lifshitz_nonlinear"
_LL = "kerrcasimir.lifshitz_linear"
_Q = "kerrcasimir.quadrature"
_LAB = "kerrcasimir.operator_lab"

LAYERS = (
    Layer("w_hat", [(_LN, "_w_hat")], work=_n_evals),
    Layer("w_ct", [(_LN, "_w_ct")], work=_n_evals),
    Layer("integrate_2d", [(_Q, "integrate_2d")], work=_n_evals),
    Layer("pressure_nonlinear", [(_LN, "pressure_nonlinear")]),
    Layer("i_nl_zero_t", [(_LN, "i_nl_zero_t")]),
    Layer("crossover_distance", [(_LN, "crossover_distance")]),
    Layer("double_matsubara_sum", [(_Q, "double_matsubara_sum")],
          work=_n_evals),
    Layer("matsubara_sum", [(_Q, "matsubara_sum")], work=_n_evals),
    Layer("g_hat", [(_LL, "_g_hat")], work=_n_evals),
    Layer("integrate_semi_infinite", [(_Q, "integrate_semi_infinite")],
          work=_n_evals, flag=_unconverged),
    Layer("kernel_vectors", [(_LN, "_unprimed_vectors"),
                             (_LN, "_primed_vectors"),
                             (_LN, "_ct_unprimed"), (_LN, "_ct_primed"),
                             (_LL, "_gap_integrand")], work=_points),
    Layer("fresnel", [("kerrcasimir.fresnel", "reflection_s"),
                      ("kerrcasimir.fresnel", "reflection_p")],
          work=_points),
    Layer("permittivity", [("kerrcasimir.materials", "permittivity",
                            "MaterialResponse")]),
    Layer("cli", [("kerrcasimir.cli", "main")], cpu=True),
    Layer("lab.suite", [(_LAB, "run_verification_suite")]),
    Layer("lab.build_linear", [(_LAB, "build_linear")], work=_n_cubed),
    Layer("lab.monte_carlo", [(_LAB, "monte_carlo_fdt")]),
)


_FIELDS = ("sid", "name", "parent", "thread", "start", "end", "cpu_start",
           "cpu_end", "work", "flag")


class _Buffer:
    """Spans recorded by one thread, packed as rows of _FIELDS doubles."""

    def __init__(self, thread):
        self.thread = thread
        self.rows = array.array("d")
        self.cpu = []  # (span id, cpu seconds) for layers with cpu=True
        self.stack = []
        self.inherited = -1


class Tracer:
    """Records spans for one pass; see the module docstring."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.names = []
        self.absent = []  # "module.attr" names that no longer exist
        self.layer_of = {}  # span name -> layer name
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ------------------------------------------------------
    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = self._local.buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
        return buf

    def current(self):
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.inherited

    def wrap(self, name, fn, work=None, flag=None, cpu=False):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        ids = self._ids
        local = self._local
        new_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else buf.inherited
            stack.append(sid)
            c0 = process_time() if cpu else 0.0
            done = False
            t0 = perf_counter()
            k0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                k1 = thread_time()
                t1 = perf_counter()
                stack.pop()
                buf.rows.extend((
                    sid, code, parent, buf.thread, t0, t1, k0, k1,
                    work(args, kwargs, result) if done and work else 0.0,
                    1.0 if done and flag and flag(args, kwargs, result)
                    else 0.0))
                if cpu:
                    buf.cpu.append((sid, process_time() - c0))
        return traced

    def run_span(self, name, fn):
        """Call fn() inside a root span (the benchmark's operations)."""
        return self.wrap(name, fn)()

    # -- installation ---------------------------------------------------
    def install(self, layers=LAYERS):
        for layer in layers:
            for target in layer.targets:
                try:
                    importlib.import_module(target[0])
                except ImportError:
                    pass  # reported as absent below
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "kerrcasimir" or n.startswith("kerrcasimir."))
                   and m is not None]
        for layer in layers:
            for target in layer.targets:
                self._install_one(layer, target, modules)
        self._install_pool()

    def _install_one(self, layer, target, modules):
        module = sys.modules.get(target[0])
        owner = module
        if module is not None and len(target) == 3:
            owner = getattr(module, target[2], None)
        original = getattr(owner, target[1], None) if owner else None
        label = ".".join((target[0],) + tuple(target[2:]) + (target[1],))
        if original is None:
            self.absent.append(label)
            return
        span = "%s:%s" % (layer.name, target[1])
        self.layer_of[span] = layer.name
        wrapped = self.wrap(span, original, layer.work, layer.flag,
                            layer.cpu)
        if owner is not module:  # a method: rebind on its class only
            self._set(owner, target[1], wrapped)
            return
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _install_pool(self):
        cli = sys.modules.get("kerrcasimir.cli")
        base = getattr(cli, "ThreadPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TracedPool(base):
            """Pool whose tasks inherit the submitting span as parent."""

            def submit(self, fn, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    buf = tracer._buffer()
                    saved, buf.inherited = buf.inherited, parent
                    try:
                        return fn(*a, **k)
                    finally:
                        buf.inherited = saved
                return super().submit(task, *args, **kwargs)

        self._set(cli, "ThreadPoolExecutor", TracedPool)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------
    def spans(self):
        """All spans as a dict of numpy columns, ordered by span id."""
        rows = np.concatenate([np.frombuffer(b.rows) for b in self._buffers]
                              or [np.zeros(0)]).reshape(-1, len(_FIELDS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        cols = {key: rows[:, i] for i, key in enumerate(_FIELDS)}
        for key in ("sid", "name", "parent", "thread", "flag"):
            cols[key] = cols[key].astype(np.int64)
        cols["pass"] = np.full(rows.shape[0], self.pass_id)
        return cols

    def self_times(self, cols):
        """Busy time of each span minus that of its children, seconds.

        Durations are read on the thread CPU clock, so the time a span
        of the 2-thread scan waits for the interpreter lock while the
        other thread runs does not count as busy. Children that ran on
        another thread (pool tasks) are not subtracted from the parent.
        """
        sid, parent = cols["sid"], cols["parent"]
        busy = cols["cpu_end"] - cols["cpu_start"]
        kids = np.flatnonzero(parent >= 0)
        pos = np.searchsorted(sid, parent[kids])
        same = cols["thread"][pos] == cols["thread"][kids]
        covered = np.zeros(sid.size)
        np.add.at(covered, pos[same], busy[kids[same]])
        return busy - covered

    def summary(self):
        """Per-layer totals: calls, work, flags, self and inclusive time."""
        cols = self.spans()
        selfs = self.self_times(cols)
        dur = cols["end"] - cols["start"]
        cpu = dict(item for b in self._buffers for item in b.cpu)
        layers = {}
        for code, span_name in enumerate(self.names):
            layer = self.layer_of.get(span_name)
            if layer is None:
                continue
            mask = cols["name"] == code
            entry = layers.setdefault(layer, {
                "calls": 0, "work": 0.0, "flags": 0, "self_s": 0.0,
                "total_s": 0.0, "cpu_s": 0.0, "work_hist": {}})
            entry["calls"] += int(mask.sum())
            entry["work"] += float(cols["work"][mask].sum())
            entry["flags"] += int(cols["flag"][mask].sum())
            entry["self_s"] += float(selfs[mask].sum())
            # inclusive time counts only outermost spans of the layer
            outer = mask & ~np.isin(cols["parent"], cols["sid"][mask])
            entry["total_s"] += float(dur[outer].sum())
            entry["cpu_s"] += sum(cpu.get(int(s), 0.0)
                                  for s in cols["sid"][outer])
            values, counts = np.unique(cols["work"][mask], return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                hist = entry["work_hist"]
                hist[value] = hist.get(value, 0) + count
        return {"layers": layers, "absent": sorted(self.absent),
                "span_count": int(cols["sid"].size)}

    def dump(self, path):
        """Write every span once, as compressed numpy columns."""
        cols = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **cols)


# name, unit, better: every per-layer metric the traced run reports
PER_LAYER = (
    ("w_hat.calls", "count", "lower"),
    ("w_hat.nodes", "count", "lower"),
    ("w_hat.self_s", "s", "lower"),
    ("w_hat.coupling_cells", "count", "lower"),
    ("w_hat.reuse", "ratio", "higher"),
    ("w_ct.calls", "count", "lower"),
    ("w_ct.self_s", "s", "lower"),
    ("integrate_2d.nodes", "count", "lower"),
    ("integrate_2d.self_s", "s", "lower"),
    ("pressure_nonlinear.calls", "count", "lower"),
    ("i_nl_zero_t.s", "s", "lower"),
    ("crossover_distance.s", "s", "lower"),
    ("double_matsubara_sum.terms", "count", "lower"),
    ("matsubara_sum.calls", "count", "lower"),
    ("matsubara_sum.terms", "count", "lower"),
    ("g_hat.calls", "count", "lower"),
    ("g_hat.nodes", "count", "lower"),
    ("g_hat.self_s", "s", "lower"),
    ("integrate_semi_infinite.nodes", "count", "lower"),
    ("integrate_semi_infinite.unconverged", "count", "lower"),
    ("kernel_vectors.calls", "count", "lower"),
    ("kernel_vectors.points", "count", "lower"),
    ("kernel_vectors.self_s", "s", "lower"),
    ("fresnel.calls", "count", "lower"),
    ("fresnel.points", "count", "lower"),
    ("fresnel.self_s", "s", "lower"),
    ("permittivity.calls", "count", "lower"),
    ("permittivity.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_per_wall", "ratio", "higher"),
    ("lab.suite.s", "s", "lower"),
    ("lab.build_linear.calls", "count", "lower"),
    ("lab.build_linear.self_s", "s", "lower"),
    ("lab.monte_carlo.self_s", "s", "lower"),
    ("lab.n3", "count", "lower"),
    ("known_defects", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that must repeat exactly from pass to pass
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit == "count" and name != "known_defects")

_WORK_NAME = {"w_hat": "nodes", "integrate_2d": "nodes", "g_hat": "nodes",
              "integrate_semi_infinite": "nodes", "double_matsubara_sum":
              "terms", "matsubara_sum": "terms", "kernel_vectors": "points",
              "fresnel": "points", "lab.build_linear": None}


def _w_hat_levels(n_evals):
    # _w_hat doubles both grids from 8 to M nodes: n_evals = 2*(2M - 8)
    top = (int(n_evals) + 16) // 4
    m, levels = 8, []
    while m <= top:
        levels.append(m)
        m *= 2
    return levels


def layer_metrics(summary):
    """Map a Tracer.summary() onto the PER_LAYER names (trace overhead and
    known defects are filled in by the caller)."""
    out = {}
    for layer, e in summary["layers"].items():
        out[layer + ".calls"] = e["calls"]
        out[layer + ".self_s"] = e["self_s"]
        out[layer + ".s"] = e["total_s"]
        work = _WORK_NAME.get(layer)
        if work:
            out["%s.%s" % (layer, work)] = e["work"]
    e = summary["layers"].get("w_hat")
    if e:
        cells = final = 0
        for n_evals, count in e["work_hist"].items():
            levels = _w_hat_levels(n_evals)
            cells += count * sum(m * m for m in levels)
            final += count * 2 * (levels[-1] if levels else 0)
        out["w_hat.coupling_cells"] = cells
        out["w_hat.reuse"] = final / e["work"] if e["work"] else 0.0
    e = summary["layers"].get("integrate_semi_infinite")
    if e:
        out["integrate_semi_infinite.unconverged"] = e["flags"]
    e = summary["layers"].get("cli")
    if e:
        out["cli.cpu_per_wall"] = e["cpu_s"] / e["total_s"] \
            if e["total_s"] else 0.0
    e = summary["layers"].get("lab.build_linear")
    if e:
        out["lab.n3"] = e["work"]
    names = [name for name, _, _ in PER_LAYER]
    return {name: out.get(name, 0) for name in names}
