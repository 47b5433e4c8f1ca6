"""The layer probe job and the per-layer metrics of one traced pass.

The probe job ends every traced pass.  It times single public calls on
fixed inputs (the layer baselines: parse, hash, interior, generation,
enumeration, one base and one overlay pass) and calls every layer once, so
each layer's time is measured on every workload.  Its timing loops call the
unwrapped functions and are recorded as spans marked as estimates.

Span totals (`*_s`) cover the whole traced pass, probe included.  Counts of
work come from the workload's jobs only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import workloads

PROBE_SEED = 0
GENERATE_SIZES = (8, 10, 12)
LAYERS = ("formula", "topology", "model", "semantics", "suites", "relational", "cli", "harness")
PROBE_JOB = "probe"


def _orig(fn):
    return getattr(fn, "__wrapped__", fn)


def _time_calls(tracer, name: str, fn, rounds: int, calls: int) -> float:
    """Median over rounds of the time per call, in microseconds."""
    per_round = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        per_round.append(time.perf_counter_ns() - start)
    tracer.record(name, sum(per_round), rounds * calls)
    return statistics.median(per_round) / calls / 1000


def cli_run(argv: list[str], cwd: str, env: dict, root: str):
    """Run one traced CLI child; returns it and its wall time in ns."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [*workloads.cli_command(root, traced=True), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, time.perf_counter_ns() - start


def record_cli(tracer, proc, wall_ns: int, parent: int | None) -> dict | None:
    """Spans of a finished traced CLI child, from the timings it reported."""
    node = tracer.record("cli.invocation", wall_ns, 1, estimate=False, parent=parent)
    lines = proc.stderr.strip().splitlines()
    try:
        timing = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    tracer.record("cli.import", int(timing["import_s"] * 1e9), 1, estimate=False, parent=node)
    tracer.record("cli.command", int(timing["command_s"] * 1e9), 1, estimate=False, parent=node)
    return timing


def run_probe(tb, tracer, root: str, env: dict, cli_samples: list) -> tuple[dict, dict]:
    """The probe job; returns (probe metrics, live-root data of its sweep)."""
    from topobelief import formula as fm
    from topobelief import semantics
    from topobelief import suites as su
    from topobelief import topology as tp
    from topobelief import model as md
    from topobelief.model import EDScenario, ScenarioClass

    out: dict[str, float] = {}
    cb = tb.get_suite("el_kboxb_cb")
    instances = [i for name in cb.schemes for i in su.scheme_instances(tb.get_scheme(name))]
    to_text = _orig(fm.to_text)
    deepest = max(instances, key=lambda f: (fm.modal_depth(f), len(to_text(f))))
    text = to_text(deepest)
    parse = _orig(fm.parse)
    out["formula.parse_us"] = _time_calls(tracer, "formula.parse", lambda: parse(text), 5, 200)
    out["formula.hash_us"] = _time_calls(tracer, "formula.hash", lambda: hash(deepest), 5, 2000)

    tracer.begin("harness.probe.generate")
    models = {n: tb.random_model(PROBE_SEED, n) for n in GENERATE_SIZES}
    tracer.end()
    top = models[GENERATE_SIZES[0]].topology
    interior = _orig(tp.Topology.interior)
    subsets = range(1 << top.n)

    def all_interiors():
        for a in subsets:
            interior(top, a)

    out["topology.interior_us"] = _time_calls(tracer, "topology.interior", all_interiors, 5, 4) / len(subsets)
    enumerate_topologies = _orig(tp.enumerate_topologies)
    out["topology.enumerate4_ms"] = (
        _time_calls(tracer, "topology.enumerate_topologies", lambda: list(enumerate_topologies(4)), 3, 1) / 1000
    )
    md.range_groups(top, ScenarioClass.DENSE)

    roots = workloads.suite_roots(tb, cb)
    engine = semantics.BatchEvaluator(tuple(roots), tb.Semantics.AE)
    small = _orig(md.random_model)(PROBE_SEED, 4)
    u, v = small.topology.full, small.topology.opens[1]
    base_pass = _orig(semantics.BatchEvaluator.base_pass)
    overlay_pass = _orig(semantics.BatchEvaluator.overlay_pass)
    vals = base_pass(engine, small, u)
    out["semantics.base_pass_us"] = _time_calls(
        tracer, "semantics.base_pass", lambda: base_pass(engine, small, u), 5, 40
    )
    out["semantics.overlay_pass_us"] = _time_calls(
        tracer, "semantics.overlay_pass", lambda: overlay_pass(engine, small, u, v, vals), 5, 40
    )
    tb.satisfies(small, EDScenario(0, u, v), deepest, tb.Semantics.AE)

    # a small strong sweep, so every workload reports live-root bookkeeping
    kd45 = tb.get_suite("kd45_b")
    batch = tb.Batch(exhaustive_n=2)
    counter = workloads.RangeCounter()
    groups = [counter.ranges(m.n, m.topology.opens, None)[0] for m in _orig(su.Batch.models)(batch)]
    live = {"roots": len(workloads.suite_roots(tb, kd45)), "groups": groups}
    tracer.exhaustive_models = len(groups)
    tb.run_suite(kd45, batch).to_json()

    corpus = fm.formula_corpus(connectives=("B",))
    for seed in range(1, 21):
        frame = tb.random_belief_frame(seed, 4)
        tb.decompose(frame)
        tb.to_subset_model(frame)
        for f in corpus:
            tb.eval_relational(frame, 0, f)

    starts = []
    for _ in range(3):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter_ns() - start)
    tracer.record("cli.python_start", sum(starts), len(starts))
    out["cli.python_start_s"] = statistics.median(starts) / 1e9
    for _ in range(2):
        proc, wall = cli_run(["enumerate", "--max-n", "1"], root, env, root)
        timing = record_cli(tracer, proc, wall, None)
        if timing is not None:
            cli_samples.append(timing)
    return out, live


# ---------------------------------------------------------------------------
# metrics of a traced pass


class SpanTree:
    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans

    def _ancestors(self, i: int):
        p = self.spans[i]["parent"]
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p]["parent"]

    def busy_s(self, *names: str) -> float:
        """Busy time of spans with these names that no other such span contains."""
        wanted = set(names)
        total = 0
        for i, s in enumerate(self.spans):
            if s["name"] in wanted and not any(a["name"] in wanted for a in self._ancestors(i)):
                total += s["busy_ns"]
        return total / 1e9

    def under_s(self, anchor: str, name: str) -> float:
        return sum(
            s["busy_ns"]
            for i, s in enumerate(self.spans)
            if s["name"] == name and any(a["name"] == anchor for a in self._ancestors(i))
        ) / 1e9

    def count(self, name: str, parent: str | None = None) -> int:
        """Calls made by the workload's jobs, the probe job's left out."""
        total = 0
        for s in self.spans:
            if s["name"] != name or s["job"] == PROBE_JOB:
                continue
            if parent is not None and (s["parent"] < 0 or self.spans[s["parent"]]["name"] != parent):
                continue
            total += s["count"]
        return total

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["busy_ns"] - s["child_ns"]) / 1e9
        return out

    def job_wall_s(self, job: str) -> float:
        return sum(s["busy_ns"] for s in self.spans if s["job"] == job and s["name"] == "harness.job") / 1e9


def sweep_split(marks: list[dict]) -> tuple[float, float]:
    """Exhaustive and random shares of every sweep, split at the batch boundary."""
    exhaustive = random = 0
    start = boundary = None
    for m in marks:
        if m["label"] == "sweep.start":
            start, boundary = m["t_ns"], None
        elif m["label"] == "sweep.boundary":
            boundary = m["t_ns"]
        elif m["label"] == "sweep.end" and start is not None:
            cut = boundary if boundary is not None else m["t_ns"]
            exhaustive += cut - start
            random += m["t_ns"] - cut
            start = None
    return exhaustive / 1e9, random / 1e9


def live_root_frac(sweeps: list[list[int]], live: list[dict]) -> float:
    """Roots still live per base pass over roots compiled, across sweeps.

    A root stops being live after the model where it first fails; every
    base pass still evaluates all compiled roots.
    """
    useful = compiled = 0
    for failed_at, data in zip(sweeps, live):
        failed_at = sorted(failed_at)
        roots, k = data["roots"], 0
        for index, passes in enumerate(data["groups"]):
            while k < len(failed_at) and failed_at[k] < index:
                k += 1
            useful += passes * (roots - k)
            compiled += passes * roots
    return useful / compiled if compiled else 0.0


def pass_metrics(trace: dict, counters: dict, extra: dict, probe: dict, sweeps, live, cli_samples) -> dict:
    tree = SpanTree(trace["spans"])
    exhaustive_s, random_s = sweep_split(trace["marks"])
    draws = tree.count("model.random_model", parent="semantics.find_countermodel")
    metrics = {
        "formula.parse_us": probe["formula.parse_us"],
        "formula.hash_us": probe["formula.hash_us"],
        "formula.instantiate_s": tree.busy_s("formula.instantiate"),
        "formula.roots": counters.get("roots", 0) + extra.get("roots", 0),
        "topology.enumerate_s": tree.busy_s("topology.enumerate_topologies"),
        "topology.enumerate4_ms": probe["topology.enumerate4_ms"],
        "topology.topologies": trace["topologies"],
        "topology.generate_s": tree.under_s("harness.probe.generate", "topology.generate_from_subbasis"),
        "topology.opens_built": trace["opens_built"],
        "topology.interior_us": probe["topology.interior_us"],
        "model.models_s": tree.busy_s("suites.Batch.models", "model.random_model"),
        "model.models": counters["models"] + draws,
        "model.range_groups_s": tree.busy_s("model.range_groups"),
        "model.range_pairs": counters["range_pairs"],
        "model.scenarios": counters["scenarios"],
        "model.budget_skips": counters["budget_skips"],
        "semantics.compile_s": tree.busy_s("semantics.compile"),
        "semantics.nodes": counters.get("nodes", 0),
        "semantics.base_pass_s": tree.busy_s("semantics.base_pass"),
        "semantics.base_pass_us": probe["semantics.base_pass_us"],
        "semantics.base_passes": counters["base_passes"],
        "semantics.overlay_pass_s": tree.busy_s("semantics.overlay_pass"),
        "semantics.overlay_pass_us": probe["semantics.overlay_pass_us"],
        "semantics.overlay_passes": counters["overlay_passes"],
        "semantics.node_evals": counters["node_evals"],
        "semantics.live_root_frac": live_root_frac(sweeps, live),
        "semantics.extension_s": tree.busy_s("semantics.extension"),
        "semantics.extension_calls": tree.count("semantics.extension"),
        "semantics.replay_s": tree.busy_s("suites.replay", "semantics.satisfies", "semantics.valid_in_model"),
        "suites.exhaustive_sweep_s": exhaustive_s,
        "suites.random_sweep_s": random_s,
        "suites.report_s": tree.busy_s("suites.report"),
        "relational.convert_s": tree.busy_s("relational.to_subset_model"),
        "relational.decompose_s": tree.busy_s("relational.decompose"),
        "relational.eval_s": tree.busy_s("relational.eval_relational"),
        "relational.frames": extra.get("frames", 0),
        "cli.python_start_s": probe["cli.python_start_s"],
        "cli.import_s": statistics.median(s["import_s"] for s in cli_samples),
        "cli.command_s": statistics.median(s["command_s"] for s in cli_samples),
        "cli.invocations": counters.get("invocations", 0),
    }
    for layer, seconds in tree.self_by_layer().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.wall_s"] = tree.spans[0]["busy_ns"] / 1e9
    metrics["trace.probe_s"] = tree.job_wall_s(PROBE_JOB)
    return metrics
