"""Spans recorded by the benchmark around calls into each topobelief layer.

A traced pass rebinds the public functions of every layer, wherever a
module of the package holds a reference to them, to thin wrappers that open
and close a span.  Nothing under src/ changes: the wrappers live here and
are removed when the pass ends.  Calls that a public function makes into
another layer (find_countermodel building topologies, run_suite sweeping
models) are caught the same way, because the caller looks the name up in
its own module at call time.

Calls with the same name under the same parent span are merged into one
span that keeps their count, first start, last end and busy time (a
calling-context tree).  A suite pass makes some 10^5 engine calls, so this
keeps a traced pass's memory flat while self times stay exact: a span's
self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

_now = time.perf_counter_ns


class Tracer:
    """Calling-context tree of spans for one pass; one instance per pass."""

    def __init__(self) -> None:
        # name, parent, job, first_start_ns, last_end_ns, count, busy_ns, child_ns, estimate
        self.nodes: list[list] = [["harness.pass", -1, None, _now(), 0, 1, 0, 0, False]]
        self._children: dict[tuple[int, str], int] = {}
        self._stack: list[tuple[int, int]] = [(0, self.nodes[0][3])]
        self.marks: list[dict] = []
        self.opens_built = 0
        self.topologies = 0
        self.model_index: dict[int, int] = {}
        self.sweeps: list[list[int]] = []
        self.exhaustive_models = 0

    def _child(self, name: str, job=None, estimate=False, parent: int | None = None) -> int:
        if parent is None:
            parent = self._stack[-1][0]
        key = (parent, name)
        node = None if job is not None else self._children.get(key)
        if node is None:
            node = len(self.nodes)
            pjob = self.nodes[parent][2]
            self.nodes.append([name, parent, job if job is not None else pjob, 0, 0, 0, 0, 0, estimate])
            if job is None:
                self._children[key] = node
        return node

    def begin(self, name: str, job=None) -> int:
        node = self._child(name, job)
        start = _now()
        if self.nodes[node][5] == 0:
            self.nodes[node][3] = start
        self._stack.append((node, start))
        return node

    def end(self) -> None:
        end = _now()
        node, start = self._stack.pop()
        rec = self.nodes[node]
        busy = end - start
        rec[4] = end
        rec[5] += 1
        rec[6] += busy
        self.nodes[self._stack[-1][0]][7] += busy

    def record(self, name: str, busy_ns: int, count: int, estimate=True, parent: int | None = None) -> int:
        """Add a span the caller measured (a probe's timing loop, a child
        process), under `parent` or else the innermost open span."""
        if parent is None:
            parent = self._stack[-1][0]
        node = self._child(name, estimate=estimate, parent=parent)
        rec = self.nodes[node]
        end = _now()
        if rec[5] == 0:
            rec[3] = end - busy_ns
        rec[4] = end
        rec[5] += count
        rec[6] += busy_ns
        self.nodes[parent][7] += busy_ns
        return node

    def mark(self, label: str) -> None:
        self.marks.append({"label": label, "job": self.nodes[self._stack[-1][0]][2], "t_ns": _now()})

    def close(self) -> dict:
        root = self.nodes[0]
        end = _now()
        root[4] = end
        root[6] = end - root[3]
        origin = root[3]
        keys = ("name", "parent", "job", "start_ns", "end_ns", "count", "busy_ns", "child_ns", "estimate")
        nodes = []
        for rec in self.nodes:
            row = dict(zip(keys, rec))
            row["start_ns"] -= origin
            row["end_ns"] -= origin
            nodes.append(row)
        for m in self.marks:
            m["t_ns"] -= origin
        return {"spans": nodes, "marks": self.marks}

    # -- wrappers -------------------------------------------------------

    def wrap_call(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                self.end()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable, each: Callable | None = None) -> Callable:
        """One span per resumption: the time spent producing each item."""

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end()
                if each is not None:
                    each(item)
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_batch_models(self, fn: Callable) -> Callable:
        """Batch.models with one span per model and a mark at the batch
        boundary, where the exhaustive part ends and the random part starts."""

        def traced(batch) -> Iterator:
            index = 0
            self.model_index = {}
            self.mark("sweep.start")
            for model in self.wrap_generator("suites.Batch.models", fn)(batch):
                self.model_index[id(model)] = index
                index += 1
                yield model
                if index == self.exhaustive_models:
                    self.mark("sweep.boundary")
            self.mark("sweep.end")

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every layer's public calls to traced wrappers; returns undo."""
    import topobelief
    from topobelief import cli, formula, model, relational, semantics, suites, topology

    modules = (topobelief, formula, topology, model, semantics, suites, relational, cli)

    def count(top) -> None:
        tracer.topologies += 1
        tracer.opens_built += len(top.opens)

    def record_sweep(failures) -> None:
        tracer.sweeps.append([tracer.model_index.get(id(b.model), -1) for b in failures.values()])

    calls = {
        formula: ("parse", "instantiate", "to_text"),
        topology: ("generate_from_subbasis",),
        model: ("random_model", "range_groups", "range_pairs", "dump", "load"),
        semantics: ("find_countermodel", "satisfies", "valid_in_model", "sweep_validity"),
        suites: ("run_suite", "expected_failures", "scheme_instances"),
        relational: ("random_belief_frame", "decompose", "to_subset_model", "eval_relational"),
    }
    hooks = {topology.generate_from_subbasis: count, semantics.sweep_validity: record_sweep}
    by_id = {}
    for mod, attrs in calls.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr in attrs:
            fn = getattr(mod, attr)
            by_id[id(fn)] = tracer.wrap_call(f"{layer}.{attr}", fn, hooks.get(fn))
    enumerate_topologies = topology.enumerate_topologies
    by_id[id(enumerate_topologies)] = tracer.wrap_generator(
        "topology.enumerate_topologies", enumerate_topologies, count
    )
    methods = (
        (semantics.BatchEvaluator, "__init__", "semantics.compile"),
        (semantics.BatchEvaluator, "base_pass", "semantics.base_pass"),
        (semantics.BatchEvaluator, "overlay_pass", "semantics.overlay_pass"),
        (semantics.Evaluator, "extension", "semantics.extension"),
        (suites.SuiteReport, "to_json", "suites.report"),
        (suites.ExpectedFailure, "replay", "suites.replay"),
    )

    undo: list[tuple[object, str, object]] = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    for cls, attr, name in methods:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap_call(name, original))
    original_models = suites.Batch.__dict__["models"]
    undo.append((suites.Batch, "models", original_models))
    suites.Batch.models = tracer.wrap_batch_models(original_models)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
