"""Outside-in tracing of otsim: every function in ``BINDINGS`` is replaced, at
the module binding its callers look it up through, by a wrapper that records
one span (id, label, parent id, start, end) per call.  Spans stay in memory;
self time is a span's duration minus the time its child spans cover.

Nothing here changes otsim's code.  A binding that no longer exists is
reported, and every metric that needs it is left out of the result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from array import array

import numpy as np

# (module, attribute, layer).  A function bound in several modules is
# wrapped at each binding it is called through.  The layers are the stages
# of every workload: build a netlist, integrate it (engine, with the device
# model and the source waveforms inside each step), read results out of the
# trace, and the application code around them.
BINDINGS: list[tuple[str, str, str]] = [
    ("engine", "transient", "engine"),
    ("pipeline", "transient", "engine"),
    ("gates", "transient", "engine"),
    ("rig", "transient", "engine"),
    ("engine", "ots_step", "device"),
    ("waveforms", "Dc.__call__", "waveforms"),
    ("waveforms", "PiecewiseLinear.__call__", "waveforms"),
    ("waveforms", "Pulse.__call__", "waveforms"),
    ("waveforms", "Triangle.__call__", "waveforms"),
    ("pipeline", "PulseTrain.__call__", "waveforms"),
    ("gates", "build_gate", "build"),
    ("pipeline", "build_gate", "build"),
    ("rig", "measurement_netlist", "build"),
    ("gates", "decode_output", "readout"),
    ("pipeline", "count_crossings", "readout"),
    ("rig", "extract_spikes", "readout"),
    ("energy", "spike_energy", "readout"),
    ("gates", "truth_table", "app"),
    ("gates", "evaluate", "app"),
    ("pipeline", "detect_edges", "app"),
    ("pipeline", "xor_stream_circuit", "app"),
    ("pipeline", "shift", "app"),
    ("imaging", "shift", "app"),
    ("imaging", "reference_edges", "app"),
    ("rig", "run_oscillator", "app"),
]

# Per-module views of the same spans, by the names the layers are known by
# in the source tree.  Reported alongside the layer metrics; a module that a
# workload does not use reads 0 there.
MODULE_VIEWS: dict[str, tuple[str, tuple[str, ...]]] = {
    "gates.build_calls": ("count", ("gates.build_gate", "pipeline.build_gate")),
    "gates.build_s": ("self", ("gates.build_gate", "pipeline.build_gate")),
    "gates.decode_s": ("self", ("gates.decode_output",)),
    "pipeline.segments": ("count", ("pipeline.transient",)),
    "pipeline.self_s": ("self", ("pipeline.detect_edges", "pipeline.xor_stream_circuit")),
    "pipeline.decode_s": ("self", ("pipeline.count_crossings",)),
    "imaging.self_s": ("self", ("pipeline.shift", "imaging.shift", "imaging.reference_edges")),
    "rig.self_s": ("self", ("rig.run_oscillator", "rig.measurement_netlist", "rig.extract_spikes")),
    "energy.self_s": ("self", ("energy.spike_energy",)),
}

_ENGINE_STATS = ("engine.steps", "engine.trace_bytes", "engine.kcl_residual_max",
                 "device.switch_events", "netlist.elements_simulated")


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self) -> None:
        self.labels = [f"{m}.{a}" for m, a, _ in BINDINGS]
        self.layers = [layer for _, _, layer in BINDINGS]
        self.missing: list[str] = []
        self.spans = array("d")          # flat records of 5: id, label, parent, start, end
        self._ids = itertools.count()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.stats = dict.fromkeys(_ENGINE_STATS, 0.0)
        self.stats_ok = True

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Install the wrappers; entering again adds to the same spans."""
        self.missing = []
        for i, (mod_name, attr, layer) in enumerate(BINDINGS):
            owner, name = self._resolve(mod_name, attr)
            if owner is None:
                self.missing.append(self.labels[i])
                continue
            fn = getattr(owner, name)
            observe = self._observe_transient if attr == "transient" else None
            self._undo.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, i, observe))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    @staticmethod
    def _resolve(mod_name: str, attr: str):
        try:
            owner = importlib.import_module(f"otsim.{mod_name}")
        except ImportError:
            return None, ""
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            return None, ""
        return owner, name

    def _wrap(self, fn, label: int, observe):
        extend = self.spans.extend
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                extend((sid, label, parent, t0, t1))
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _observe_transient(self, args, kwargs, tr) -> None:
        """Counts taken from what transient returns: steps, computed bytes of
        the trace arrays, the KCL residual and the OTS phase changes."""
        try:
            net = args[0] if args else kwargs["net"]
            s = self.stats
            s["engine.steps"] += len(tr.times) - 1
            s["engine.trace_bytes"] += (tr.times.nbytes + tr.voltages.nbytes
                                        + sum(a.nbytes for a in tr.currents.values())
                                        + sum(a.nbytes for a in tr.ots_on.values()))
            s["engine.kcl_residual_max"] = max(s["engine.kcl_residual_max"], tr.kcl_residual)
            s["device.switch_events"] += sum(int(np.count_nonzero(on[1:] != on[:-1]))
                                             for on in tr.ots_on.values())
            s["netlist.elements_simulated"] += len(net.elements)
        except (AttributeError, KeyError, IndexError, TypeError):
            self.stats_ok = False

    # -- reading ---------------------------------------------------------

    def per_label(self) -> tuple[np.ndarray, np.ndarray]:
        """Call count and summed self time of each binding."""
        rec = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 5)
        sid = rec[:, 0].astype(np.int64)
        label = rec[:, 1].astype(np.int64)
        parent = rec[:, 2].astype(np.int64)
        dur = rec[:, 4] - rec[:, 3]
        child = np.zeros(int(sid.max()) + 1 if len(sid) else 0)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child[sid]
        n = len(BINDINGS)
        return (np.bincount(label, minlength=n).astype(np.int64),
                np.bincount(label, weights=own, minlength=n))

    def metrics(self, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
        """(layer metrics, per-module views), each {name: (value, unit)};
        a metric whose bindings are missing is left out."""
        counts, own = self.per_label()
        missing = set(self.missing)

        def pick(labels):
            if missing.intersection(labels):
                return None
            idx = [self.labels.index(lb) for lb in labels]
            return int(counts[idx].sum()), float(own[idx].sum())

        by_layer = {}
        for layer in ("engine", "device", "waveforms", "build", "readout", "app"):
            by_layer[layer] = pick([lb for lb, ly in zip(self.labels, self.layers) if ly == layer])

        out: dict[str, tuple[float, str]] = {}
        for layer, count_name in (("engine", "engine.transient_calls"),
                                  ("device", "device.ots_step_calls"),
                                  ("waveforms", "waveforms.source_evals"),
                                  ("build", "build.calls")):
            if by_layer[layer] is not None:
                out[count_name] = (by_layer[layer][0], "count")
        for layer in by_layer:
            if by_layer[layer] is not None:
                out[f"{layer}.self_s"] = (by_layer[layer][1], "s")

        if self.stats_ok and by_layer["engine"] is not None:
            s = self.stats
            out["engine.steps"] = (int(s["engine.steps"]), "count")
            out["engine.trace_bytes"] = (int(s["engine.trace_bytes"]), "B")
            out["engine.kcl_residual_max"] = (s["engine.kcl_residual_max"], "A")
            out["device.switch_events"] = (int(s["device.switch_events"]), "count")
            out["netlist.elements_simulated"] = (int(s["netlist.elements_simulated"]), "count")
            if s["engine.steps"]:
                out["engine.us_per_step"] = (1e6 * by_layer["engine"][1] / s["engine.steps"], "us")

        out["trace.coverage"] = (float(own.sum()) / traced_wall, "frac")
        out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")

        views = {}
        for name, (kind, labels) in MODULE_VIEWS.items():
            got = pick(labels)
            if got is not None:
                views[name] = (got[0], "count") if kind == "count" else (got[1], "s")
        return out, views
