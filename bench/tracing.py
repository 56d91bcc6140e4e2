"""Span tracing of chandisc's layers from outside the library.

`Tracer.install` replaces every function defined in a chandisc layer module
with a wrapper, in the defining module and in every layer module that
imported it by name, and wraps the `__post_init__` validators of the layer
dataclasses.  Each call records a span (name, start, end, parent span) in
flat arrays kept in memory; `Tracer.metrics` folds them into per-name call
counts and times and per-layer self times when the run ends.  Nothing under
src/ is edited: `uninstall` restores the original bindings.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("linalg", "quantum", "optimize", "divergences", "strategies", "sim", "regions", "serialize")

# Span names that depend on where a function is called from: the multi-start
# search looks for input vectors when divergences calls it and for rank-one
# PVMs when the measured-entropy estimator inside optimize calls it.
BINDING_NAMES = {
    ("divergences", "multistart_maximize"): "optimize.input_search",
    ("optimize", "multistart_maximize"): "optimize.pvm_search",
    ("divergences", "variational_measured"): "optimize.variational",
    ("optimize", "variational_measured"): "optimize.variational",
}

# functions returning document text whose size is counted as serialize.bytes
TEXT_OUTPUTS = {"dumps", "region_to_csv", "regions_long_csv", "summary_to_csv", "sweep_to_csv"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = self._clock()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _HOOKS.get(name.rsplit(".", 1)[-1] if name.startswith("serialize.") else name)

        if name == "divergences.channel_divergence":

            def wrapper(*args, **kwargs):
                kind = kwargs.get("kind", args[2] if len(args) > 2 else "relative")
                idx = tracer._open(f"{name}.{kind}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        elif hook is None:

            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        else:

            def wrapper(*args, **kwargs):
                args, kwargs = hook.before(tracer, name, args, kwargs)
                idx = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                hook.after(tracer, name, out)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap the public functions of every layer module (keyed by layer
        name) wherever a layer module binds them."""
        defining = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    home = defining.get(obj.__module__)
                    if home is None:
                        continue
                    name = BINDING_NAMES.get((layer, attr), f"{home}.{attr}")
                    self._patch(mod, attr, self._wrap(obj, name))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    init = vars(obj).get("__post_init__")
                    if init is not None:
                        self._patch(obj, "__post_init__", self._wrap(init, f"{layer}.{attr}"))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- folding -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per span name: `<name>.calls` and `<name>.s`; per layer: `<layer>.s`
        (time in the layer's outermost spans) and `<layer>.self_s` (span time
        minus the time covered by child spans); plus the hook counters."""
        names = list(self._ids)
        nid = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names] or [0])
        layer = layer_of_name[nid] if nid.size else nid
        # bit b of ancestors[i] is set when span i runs inside a span of layer b;
        # parents are recorded before their children
        ancestors = [0] * nid.size
        layer_list, parent_list = layer.tolist(), parent.tolist()
        for i, p in enumerate(parent_list):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << layer_list[p])
        outer = (np.array(ancestors, dtype=np.int64) >> layer) & 1 == 0
        out: dict[str, float] = {}
        calls = np.bincount(nid, minlength=len(names))
        time_by_name = np.bincount(nid, weights=dur, minlength=len(names))
        for i, n in enumerate(names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.s"] = float(time_by_name[i])
        for li, lname in enumerate(LAYERS):
            mine = layer == li
            out[f"{lname}.s"] = float(dur[mine & outer].sum())
            out[f"{lname}.self_s"] = float((dur[mine] - child[mine]).sum())
        out["trace.spans"] = int(nid.size)
        out.update(self.counts)
        return out


class _CountEvals:
    """Counts objective evaluations of the multi-start search."""

    @staticmethod
    def before(tracer, name, args, kwargs):
        key = f"{name}.evals"
        objective = args[0] if args else kwargs.pop("objective")

        def counted(theta):
            tracer.counts[key] += 1
            return objective(theta)

        return (counted,) + tuple(args[1:]), kwargs

    @staticmethod
    def after(tracer, name, out):
        pass


class _CountUses:
    """Channel uses and traces simulated by run_trials."""

    @staticmethod
    def before(tracer, name, args, kwargs):
        return args, kwargs

    @staticmethod
    def after(tracer, name, summary):
        for stats in summary.per_hyp:
            tracer.counts["sim.uses"] += round(stats.mean_stop * stats.trials)
            tracer.counts["sim.trials"] += stats.trials


class _CountBytes:
    """Bytes of JSON / CSV text produced."""

    @staticmethod
    def before(tracer, name, args, kwargs):
        return args, kwargs

    @staticmethod
    def after(tracer, name, text):
        tracer.counts["serialize.bytes"] += len(text.encode())


_HOOKS = {
    "optimize.input_search": _CountEvals,
    "optimize.pvm_search": _CountEvals,
    "sim.run_trials": _CountUses,
    **{name: _CountBytes for name in TEXT_OUTPUTS},
}
