"""In-memory span tracer that wraps soclabel's module-level functions.

`install(TARGETS)` replaces each named function or method with a wrapper
that records a span (name, start, end, parent). Functions are rebound in
every loaded `soclabel` module that imported them by name, so
`soclabel.sim.kmedoids` is traced as well as `soclabel.clustering.kmedoids`.
A target that no longer exists is listed as absent and otherwise ignored,
so a refactor that deletes a traced name cannot break the benchmark.

`layer_metrics(tracer)` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path). The layer is the span name's first
# component; it is the soclabel module the code lives in.
TARGETS = (
    ("sim.soc_step", "soclabel.sim", "soc_step"),
    ("sim.augment", "soclabel.sim", "augment"),
    ("sim.build_targets", "soclabel.sim", "build_targets"),
    ("sim.evaluate", "soclabel.sim", "evaluate"),
    ("clustering.kmedoids", "soclabel.clustering", "kmedoids"),
    ("clustering.pick_candidates", "soclabel.clustering", "pick_candidates"),
    ("kselect.select_k", "soclabel.kselect", "select_k"),
    ("transitions.observe_batch", "soclabel.transitions", "TransitionLedger.observe_batch"),
    ("transitions.similarity_matrix", "soclabel.transitions", "TransitionLedger.similarity_matrix"),
    ("labels.ProbVector", "soclabel.labels", "ProbVector.__init__"),
    ("labels.select_label", "soclabel.labels", "select_label"),
    ("labels.entropy", "soclabel.labels", "entropy"),
    ("losses.softmax", "soclabel.losses", "softmax"),
    ("losses.log_softmax", "soclabel.losses", "log_softmax"),
    ("losses.one_hot", "soclabel.losses", "one_hot"),
    ("cli.cmd_select", "soclabel.cli", "cmd_select"),
    ("cli.read_log", "soclabel.cli", "_read_log"),
    ("cli.replay", "soclabel.cli", "_replay"),
)

ROOT = -1  # parent index of a top-level span


class Tracer:
    """Spans in parallel arrays, indexed in the order they were opened."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        # Counters observed at the same boundaries as the spans.
        self.kmedoids_keys: list = []
        self.nonconverged = 0
        self.events = array("i")
        self.window_fill = 0.0
        self.candidate_size_sum = 0
        self.candidate_size_n = 0

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack, unobserved = (
            self.name_of, self.parent, self.start, self.end, self.stack, self.unobserved)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    # The traced code changed shape; its counters read 0.
                    unobserved.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_csv(self, path) -> None:
        """Spans as `index,name,start_s,end_s,parent` rows, times relative
        to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]}\n")

    # -- observers ---------------------------------------------------------

    def _observers(self) -> dict:
        """Span name -> factory(traced function) -> observe(args, kwargs, result)."""

        def kmedoids(fn):
            sig = inspect.signature(fn)

            def observe(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self.kmedoids_keys.append(
                    (a.get("ledger_version"), a.get("k"), a.get("seed"), a.get("max_iter")))
                if not getattr(result, "converged", True):
                    self.nonconverged += 1
            return observe

        def observe_batch(fn):
            def observe(args, kwargs, result):
                ledger = args[0]
                self.events.append(len(result))
                self.window_fill = len(ledger.window) / ledger.window_size
            return observe

        def build_targets(fn):
            def observe(args, kwargs, result):
                targets = result[0]
                self.candidate_size_sum += int((targets > 0).sum())
                self.candidate_size_n += targets.shape[0]
            return observe

        def pick_candidates(fn):
            def observe(args, kwargs, result):
                self.candidate_size_sum += len(result)
                self.candidate_size_n += 1
            return observe

        return {
            "clustering.kmedoids": kmedoids,
            "transitions.observe_batch": observe_batch,
            "sim.build_targets": build_targets,
            "clustering.pick_candidates": pick_candidates,
        }


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


def install(targets=TARGETS) -> Tracer:
    tracer = Tracer()
    observers = tracer._observers()
    for name, module_name, attr_path in targets:
        found = _resolve(module_name, attr_path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, fn = found
        factory = observers.get(name)
        wrapper = tracer.wrap(name, fn, factory(fn) if factory else None)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        # Rebind `from x import fn` copies held by the other soclabel modules.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "soclabel" or mod_name.startswith("soclabel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# analysis


def span_stats(tracer: Tracer) -> dict:
    """Per span name: calls, busy_s (outermost spans of that name), self_s
    (duration minus direct children), durations; and per layer: busy_s
    (spans with no ancestor in the same layer)."""
    n = len(tracer.start)
    names = tracer.names
    layer_ids = {}
    layer_of_name = [layer_ids.setdefault(nm.split(".")[0], len(layer_ids)) for nm in names]
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_time = [0.0] * n
    anc_names = [0] * n  # bitmask of span names among the ancestors
    anc_layers = [0] * n
    stats = {nm: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []} for nm in names}
    layer_busy = {layer: 0.0 for layer in layer_ids}
    layer_names = {v: k for k, v in layer_ids.items()}
    for i in range(n):
        nid = tracer.name_of[i]
        p = tracer.parent[i]
        if p != ROOT:
            child_time[p] += dur[i]
            pn = tracer.name_of[p]
            anc_names[i] = anc_names[p] | (1 << pn)
            anc_layers[i] = anc_layers[p] | (1 << layer_of_name[pn])
        s = stats[names[nid]]
        s["calls"] += 1
        s["durations"].append(dur[i])
        if not anc_names[i] >> nid & 1:
            s["busy_s"] += dur[i]
        lid = layer_of_name[nid]
        if not anc_layers[i] >> lid & 1:
            layer_busy[layer_names[lid]] += dur[i]
    for i in range(n):
        stats[names[tracer.name_of[i]]]["self_s"] += dur[i] - child_time[i]
    return {"names": stats, "layers": layer_busy}


# (metric name, unit, better) for every per-layer metric, in output order.
LAYER_METRICS = (
    ("clustering.kmedoids.calls", "count", "lower"),
    ("clustering.kmedoids.busy_s", "s", "lower"),
    ("clustering.kmedoids.us_per_call_p50", "us", "lower"),
    ("clustering.kmedoids.calls_per_step", "calls/step", "lower"),
    ("clustering.kmedoids.repeat_share", "ratio", "lower"),
    ("clustering.kmedoids.nonconverged", "count", "lower"),
    ("kselect.select_k.calls", "count", "lower"),
    ("kselect.select_k.busy_s", "s", "lower"),
    ("transitions.observe_batch.calls", "count", "lower"),
    ("transitions.observe_batch.busy_s", "s", "lower"),
    ("transitions.events_per_batch", "count", "higher"),
    ("transitions.window_fill", "ratio", "higher"),
    ("transitions.similarity_matrix.busy_s", "s", "lower"),
    ("labels.ProbVector.calls", "count", "lower"),
    ("labels.select_label.busy_s", "s", "lower"),
    ("labels.entropy.calls", "count", "lower"),
    ("labels.entropy.busy_s", "s", "lower"),
    ("labels.candidate_size_mean", "count", "lower"),
    ("losses.busy_s", "s", "lower"),
    ("sim.soc_step.self_s", "s", "lower"),
    ("sim.augment.busy_s", "s", "lower"),
    ("sim.build_targets.busy_s", "s", "lower"),
    ("sim.build_targets.self_s", "s", "lower"),
    ("sim.evaluate.busy_s", "s", "lower"),
    ("sim.evaluate.self_s", "s", "lower"),
    ("cli.read_log.busy_s", "s", "lower"),
    ("cli.replay.busy_s", "s", "lower"),
    ("cli.cmd_select.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Values of every LAYER_METRICS entry except trace.overhead_pct, which
    needs an untraced run to compare with. Absent names read 0."""
    st = span_stats(tracer)
    names = st["names"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return names.get(name, empty)

    km = get("clustering.kmedoids")
    steps = get("sim.build_targets")["calls"] or get("cli.cmd_select")["calls"]
    keys = tracer.kmedoids_keys
    out = {
        "clustering.kmedoids.calls": km["calls"],
        "clustering.kmedoids.busy_s": km["busy_s"],
        "clustering.kmedoids.us_per_call_p50":
            statistics.median(km["durations"]) * 1e6 if km["durations"] else 0.0,
        "clustering.kmedoids.calls_per_step": km["calls"] / steps if steps else 0.0,
        "clustering.kmedoids.repeat_share":
            1.0 - len(set(keys)) / len(keys) if keys else 0.0,
        "clustering.kmedoids.nonconverged": tracer.nonconverged,
        "transitions.events_per_batch":
            sum(tracer.events) / len(tracer.events) if len(tracer.events) else 0.0,
        "transitions.window_fill": tracer.window_fill,
        "labels.candidate_size_mean":
            tracer.candidate_size_sum / tracer.candidate_size_n
            if tracer.candidate_size_n else 0.0,
        "losses.busy_s": st["layers"].get("losses", 0.0),
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in out or metric == "trace.overhead_pct":
            continue
        span, _, field = metric.rpartition(".")
        out[metric] = get(span)[field]
    return out
