"""Span tracing of superq from outside the package.

Every public function of the traced modules, every dataclass ``__post_init__``
(one span per construction), ``BlockOperator.__matmul__``/``apply`` and the
private ``verify._suite_*`` functions are replaced in memory by timing
wrappers.  A function is rebound in every superq module namespace that holds
it (``displacement_operator`` alone is bound in ``superq``, ``fock``,
``superstate`` and ``verify``), so internal calls are traced too.  Nothing in
the package is edited; ``uninstall`` restores the originals.

Spans are kept in flat arrays (parent id, name, request, start, end, dim)
and written out at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "verify", "uncertainty", "entanglement", "superstate", "fock", "moebius")
SUITES = ("algebra", "eigen", "entangle", "uncertainty", "fibonacci")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.dim = array("q")
        self.current_request = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Computed counts (from call arguments and results, not timed).
        self.counts: Counter = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.default_dim = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import superq.fock as fock
        import superq.superstate as superstate
        import superq.verify as verify

        self.default_dim = fock.DEFAULT_DIM

        modules = [importlib.import_module(f"superq.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(f"{layer}.{public}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", f"{layer}.{public}")
        self._patch(superstate.BlockOperator, "__matmul__", "superstate.BlockOperator.matmul")
        self._patch(superstate.BlockOperator, "apply", "superstate.BlockOperator.apply")
        for suite in SUITES:
            attr = f"_suite_{suite}"
            original = getattr(verify, attr)
            self._restore.append((verify, attr, original))
            setattr(verify, attr, self._wrap(f"verify.suite.{suite}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "superq" or mod_name.startswith("superq.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    self.counts[f"rebinds.{wrapper.__name__}"] += 1

    def _patch(self, cls, attr, span_name) -> None:
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(span_name, original))

    def _wrap(self, span_name, func):
        index = len(self.names)
        self.names.append(span_name)
        probe = _PROBES.get(span_name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(tracer.start)
            tracer.parent.append(tracer._stack[-1])
            tracer.name.append(index)
            tracer.request.append(tracer.current_request)
            tracer.dim.append(-1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(span)
            started = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                tracer.start[span] = started
                tracer._stack.pop()
            if probe is not None:
                dim = probe(tracer, args, kwargs, result)
                if dim is not None:
                    tracer.dim[span] = dim
            return result

        wrapper.__name__ = span_name
        wrapper.__wrapped__ = func
        return wrapper

    # -- results ----------------------------------------------------------

    def arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.zeros_like(duration)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return parent, name, start, duration, duration - child_time

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total_ms, self_ms, and the computed counts."""
        _, name, _, duration, self_time = self.arrays()
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=duration, minlength=size)
        own = np.bincount(name, weights=self_time, minlength=size)
        dims = np.frombuffer(self.dim, dtype=np.int64)
        out = {}
        for i, span_name in enumerate(self.names):
            entry = {"calls": int(calls[i]), "total_ms": 1e3 * total[i], "self_ms": 1e3 * own[i]}
            keys = self.keys.get(span_name)
            if keys is not None:
                entry["distinct_ratio"] = len(keys) / calls[i] if calls[i] else 0.0
            mask = (name == i) & (dims > 0)
            if span_name in _DIM_FIT and mask.any():
                entry["dim_exponent"], entry["dim_medians_ms"] = _dim_exponent(dims[mask], self_time[mask])
            out[span_name] = entry
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, request, parent, name, start, duration, self, dim."""
        parent, name, start, duration, self_time = self.arrays()
        origin = start.min() if len(start) else 0.0
        request = np.frombuffer(self.request, dtype=np.int64)
        dims = np.frombuffer(self.dim, dtype=np.int64)
        with gzip.open(path, "wt", compresslevel=3) as handle:
            handle.write("id,request,parent,name,start_us,duration_us,self_us,dim\n")
            for i in range(len(start)):
                handle.write(
                    f"{i},{request[i]},{parent[i]},{self.names[name[i]]},"
                    f"{1e6 * (start[i] - origin):.3f},{1e6 * duration[i]:.3f},{1e6 * self_time[i]:.3f},{dims[i]}\n"
                )


def _dim_exponent(dims, self_time):
    """Slope of log(median self time per dim) against log(dim); NaN with fewer than 2 dims."""
    by_dim = {int(d): float(np.median(self_time[dims == d])) for d in np.unique(dims)}
    medians_ms = {d: 1e3 * t for d, t in by_dim.items()}
    if len(by_dim) < 2:
        return math.nan, medians_ms
    x = np.log(list(by_dim))
    y = np.log(list(by_dim.values()))
    return float(np.polyfit(x, y, 1)[0]), medians_ms


# Probes compute counts from arguments and results after the span closes,
# and return the dim to store on the span where a dim_exponent fit needs it.


def _probe_displacement(tracer, args, kwargs, result):
    alpha = complex(_arg(args, kwargs, 0, "alpha"))
    dim = int(_arg(args, kwargs, 1, "dim"))
    tracer.keys["fock.displacement_operator"].add((alpha, dim))
    if alpha != 0:  # alpha = 0 returns the identity without eigh
        tracer.counts["fock.displacement_operator.dim3_sum"] += dim**3
    return dim


def _probe_quadrature_operators(tracer, args, kwargs, result):
    dim = int(_arg(args, kwargs, 0, "dim"))
    tracer.keys["uncertainty.quadrature_operators"].add(dim)
    return dim


def _probe_quadrature_numeric(tracer, args, kwargs, result):
    return int(_arg(args, kwargs, 1, "dim", tracer.default_dim))


def _probe_matmul(tracer, args, kwargs, result):
    dim = args[0].ul.shape[0]
    # a block product is 8 dense dim x dim products
    tracer.counts["superstate.BlockOperator.matmul.dim3_sum"] += 8 * dim**3
    return dim


def _probe_bytes(key):
    def probe(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)  # the serializer emits ASCII only

    return probe


def _probe_run_verify(tracer, args, kwargs, result):
    tracer.counts["verify.checks"] += result.total


_PROBES = {
    "fock.displacement_operator": _probe_displacement,
    "uncertainty.quadrature_operators": _probe_quadrature_operators,
    "uncertainty.quadrature_stats_numeric": _probe_quadrature_numeric,
    "superstate.BlockOperator.matmul": _probe_matmul,
    "serialize.dumps": _probe_bytes("serialize.dumps.bytes"),
    "serialize.csv_text": _probe_bytes("serialize.csv_text.bytes"),
    "verify.run_verify": _probe_run_verify,
}
_DIM_FIT = ("fock.displacement_operator", "uncertainty.quadrature_stats_numeric")
