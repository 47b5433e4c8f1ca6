"""One pass of one workload, in a fresh interpreter.

Every pass starts from a cold process, so no pass inherits caches that an
earlier pass filled, just as each CLI call or script run starts cold.  The
worker imports topobelief from the checkout's src/ (timed), builds the
inputs (timed; with the import this is the set-up time), runs the jobs,
verifies each result and prints one JSON object as its last output line.
Metered passes scale every time to the reference speed of meter.py and
keep the plain wall time beside it; a cli pass runs on one CPU, with its
children, so that the meter ticks on the CPU the children run on.

    python3 perfbench/worker.py ROOT WORKLOAD SEED {run,setup,untraced,traced} ANSWERS

run and setup passes are metered; untraced is a run pass without the
meter, to compare with a traced pass.
"""

import os
import sys
import time


def main() -> int:
    root, name, seed, mode, answers_path = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from meter import SpeedMeter

    traced = mode == "traced"
    meter = SpeedMeter(enabled=mode in ("run", "setup"))
    if name == "cli" and meter.enabled and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter.start()
    started = meter.begin()
    import topobelief

    import_wall, import_scaled = meter.end(started)

    # the benchmark's own modules load after the timed import
    import json
    import resource
    import traceback

    import layers
    import workloads
    from spans import Tracer, install

    if not os.path.realpath(topobelief.__file__).startswith(src + os.sep):
        print(f"topobelief was imported from {topobelief.__file__}, not from {src}", file=sys.stderr)
        return 2
    known = {}
    if os.path.exists(answers_path):
        with open(answers_path, encoding="utf-8") as handle:
            known = json.load(handle).get(name, {})
    committed = known.get("answers", {})

    started = meter.begin()
    wl = workloads.setup(topobelief, name, seed, committed, root, traced)
    setup_wall, setup_scaled = meter.end(started)
    result = {
        "setup_s": (import_scaled + setup_scaled) / 1e9,
        "setup_wall_s": (import_wall + setup_wall) / 1e9,
        "import_s": import_scaled / 1e9,
    }
    if mode == "setup":
        meter.stop()
        wl.cleanup()
        print(json.dumps(result))
        return 0

    tracer = restore = None
    if traced:
        tracer = Tracer()
        tracer.exhaustive_models = wl.extra.get("exhaustive_models", 0)
        restore = install(tracer)
    env = workloads.child_env(root)
    cli_samples: list[dict] = []
    jobs = []
    pass_start = time.perf_counter()
    try:
        for index, job in enumerate(wl.jobs):
            node = tracer.begin("harness.job", job=f"{index}:{job.label}") if traced else None
            start = meter.begin()
            try:
                value = job.call()
                error = None
            except Exception:  # a failing job is counted and reported, the pass goes on
                error = traceback.format_exc(limit=3)
            elapsed, scaled = meter.end(start)
            if traced:
                tracer.end()
            if error is None:
                ok, answer, detail = job.verify(value)
                if traced and name == "cli":
                    timing = layers.record_cli(tracer, value, elapsed, node)
                    if timing is not None:
                        cli_samples.append(timing)
            else:
                ok, answer, detail = False, None, error
            pinned = job.label in committed and (job.seed_free or seed == known.get("seed"))
            # answers are compared as JSON, the form they are committed in
            if ok and pinned and json.loads(json.dumps(answer)) != committed[job.label]:
                ok, detail = False, "result differs from the committed known answer"
            jobs.append(
                {
                    "label": job.label,
                    "ms": scaled / 1e6,
                    "wall_ms": elapsed / 1e6,
                    "checks": job.checks,
                    "ok": ok,
                    "detail": detail,
                    "answer": answer,
                }
            )
        result["pass_s"] = time.perf_counter() - pass_start
        if traced:
            topologies, opens_built = tracer.topologies, tracer.opens_built
            workload_sweeps = len(tracer.sweeps)
            tracer.begin("harness.job", job=layers.PROBE_JOB)
            probe, probe_live = layers.run_probe(topobelief, tracer, root, env, cli_samples)
            tracer.end()
            restore()
            restore = None
            trace = tracer.close()
            trace.update(topologies=topologies, opens_built=opens_built)
            live = wl.extra.get("live", [])[:workload_sweeps] + [probe_live]
            result["layers"] = layers.pass_metrics(
                trace, wl.counters(), wl.extra, probe, tracer.sweeps, live, cli_samples
            )
            result["trace"] = trace
    finally:
        meter.stop()
        if restore is not None:
            restore()
        wl.cleanup()
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result["jobs"] = jobs
    result["counters"] = wl.counters()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
