"""The benchmark's tracer hooks stay attached to the names they trace.

perfbench/spans.py rebinds public functions and methods of every layer by
name for a traced run (`--trace 1`).  A rename or deletion under src/ breaks
only that traced run, so this test installs the hooks on a fresh Tracer,
runs a tiny search, a tiny suite and a batch's labeled stream through them,
and checks that restoring puts every original function and method back.
"""

import importlib.util
from pathlib import Path

import topobelief
from topobelief import cli, formula, model, relational, semantics, suites, topology

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"
MODULES = (topobelief, formula, topology, model, semantics, suites, relational, cli)
CLASSES = (
    semantics.BatchEvaluator,
    semantics.Evaluator,
    suites.SuiteReport,
    suites.ExpectedFailure,
    suites.Batch,
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module global and class attribute the hooks may rebind."""
    out = {(mod.__name__, attr): value for mod in MODULES for attr, value in vars(mod).items()}
    for cls in CLASSES:
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_hooks_trace_a_search_and_a_suite_then_restore():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert semantics.BatchEvaluator.base_pass is not before[("BatchEvaluator", "base_pass")]
        outcome = semantics.find_countermodel(
            formula.parse("B p -> p"), semantics.Semantics.ED, max_n=2
        )
        batch = suites.Batch(exhaustive_n=1)
        list(batch.models())  # run_suite sweeps the isomorph-free stream, not models()
        report = suites.run_suite(suites.get_suite("kd45_b"), batch)
        report.to_json()
    finally:
        restore()
    assert outcome.status == "found"
    assert report.clean
    traced = {node["name"] for node in tracer.close()["spans"]}
    assert {
        "semantics.find_countermodel",
        "model.range_groups",
        "semantics.compile",
        "suites.run_suite",
        "suites.Batch.models",
        "semantics.sweep_validity",
        "suites.report",
    } <= traced, traced
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
