"""In-memory span tracer wrapped around aptsim's public functions.

`Tracer.install()` replaces every public function of each layer module
at each name through which the package calls it (for example
`aptsim.dynamics.kron` and `aptsim.tomography.kron` both point at
`linalg.kron`). Spans are kept in flat arrays and written out once by
`save()`; `summarize()` derives call counts, self times and ratios from
that file. Nothing under `src/` is touched: wrapping is done from here,
and `uninstall()` restores the original bindings.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "dynamics", "propagator", "linalg", "entanglement", "optics",
          "tomography")
# Functions from outside aptsim that a layer calls through a module-level
# name; they are traced under the calling layer.
FOREIGN = {"tomography": ("minimize",)}
PURITY_TOL = 1e-12


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = -1
        self.counters = {"concurrence_pure_args": 0, "run_samples": 0,
                         "mle_iterations": []}
        self._stack = [-1]
        self._patched = []

    def _wrap(self, key, fn):
        name_id = len(self.names)
        self.names.append(key)
        pre, post = _HOOKS.get(key, (None, None))
        clock = time.perf_counter_ns
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args, kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if post is not None:
                post(self, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at all of its bindings in aptsim."""
        package = importlib.import_module("aptsim")
        modules = [package] + [importlib.import_module(f"aptsim.{layer}")
                               for layer in LAYERS]
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"aptsim.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__ or attr in FOREIGN.get(layer, ()):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {ident: self._wrap(key, fn) for ident, (key, fn) in targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.int64),
                 end=np.frombuffer(self.span_end, dtype=np.int64),
                 pure_args=self.counters["concurrence_pure_args"],
                 samples=self.counters["run_samples"],
                 iterations=np.array(self.counters["mle_iterations"], dtype=np.int64))


def _count_pure(tracer, args, kwargs):
    rho = np.asarray(args[0] if args else kwargs["rho"])
    if float(np.real(np.trace(rho @ rho))) >= 1.0 - PURITY_TOL:
        tracer.counters["concurrence_pure_args"] += 1


def _count_samples(tracer, trajectory):
    tracer.counters["run_samples"] += len(trajectory.times)


def _count_iterations(tracer, result):
    tracer.counters["mle_iterations"].append(int(result.iterations))


_HOOKS = {
    "entanglement.concurrence": (_count_pure, None),
    "dynamics.run": (None, _count_samples),
    "tomography.mle_reconstruct": (None, _count_iterations),
}


def summarize(path):
    """Calls and self seconds of every wrapped function, and the ratios,
    from a file written by Tracer.save(). A function that was never
    wrapped has no entry."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    duration = (data["end"] - data["start"]).astype(np.float64) * 1e-9
    child = np.zeros(duration.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    self_time = duration - child

    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))
    total_s = np.bincount(name, weights=duration, minlength=len(names))
    per_fn = {key: (int(calls[i]), float(self_s[i]), float(total_s[i]))
              for i, key in enumerate(names)}

    def get(key):
        return per_fn.get(key, (0, 0.0, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for key, (n, self_total, _) in per_fn.items():
        out[f"{key}.calls"] = n
        out[f"{key}.self_s"] = self_total
    samples = int(data["samples"])
    out["dynamics.samples"] = samples
    out["dynamics.run.us_per_sample"] = ratio(get("dynamics.run")[2] * 1e6, samples)
    out["entanglement.concurrence.pure_frac"] = ratio(
        int(data["pure_args"]), get("entanglement.concurrence")[0])
    out["optics.reconstruct.per_decompose"] = ratio(
        get("optics.reconstruct")[0], get("optics.decompose")[0])
    iterations = data["iterations"]
    out["tomography.mle.iterations_p50"] = float(np.median(iterations)) if iterations.size else 0.0
    out["tomography.minimize.per_fit"] = ratio(
        get("tomography.minimize")[0], get("tomography.mle_reconstruct")[0])
    return out
