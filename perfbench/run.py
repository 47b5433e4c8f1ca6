"""Benchmark of topobelief: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the topobelief sources in
./src.  Workloads, metrics and bounds are declared in ./BENCHMARK.json and
explained in perfbench/README.md.

A run makes a fixed number of passes over the workload's jobs, each pass in
a fresh worker process (perfbench/worker.py), one after another.  With
--trace 0 it prints every end-to-end metric, its times scaled to a
reference CPU speed (perfbench/meter.py); with --trace 1 it alternates
untraced and traced passes and prints every per-layer metric, including
the tracing overhead, and writes the spans to .perfbench/.  The last line
of standard output is one JSON object; lines before it are a readable
report with the environment, every job, the work counters and the checks.

Every job is checked against a known answer (perfbench/known_answers.json
plus answers the worker derives from the inputs).  The run exits 0 when it
measured, even when checks failed (they show as "failed" and
"correct": false), and exits non-zero without a result when it could not
measure at all, for instance outside a checkout with src/.

    python3 perfbench/run.py --record-answers

re-derives the committed known answers at the default seed; use it only
for a commit whose outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402

ANSWERS = os.path.join(HERE, "known_answers.json")
WORKER = os.path.join(HERE, "worker.py")

# Seconds of --seconds allotted to one pass.  A run makes
# round(--seconds / this) passes, fixed before measuring, so every commit is
# measured on the same jobs and sample counts however fast it runs.  At 20 s,
# with the wall time of a pass on the baseline machine in its fast and its
# slow phase: suite_strong 2 passes (7 to 11 s each), suite_range 2 (11 to
# 17 s), reference 2 (7 to 14 s), cli 8 (1.2 to 1.8 s).
PASS_BUDGET_S = {"suite_strong": 11.0, "suite_range": 10.0, "reference": 10.0, "cli": 2.5}
MIN_SETUPS = 5  # set-up is measured in at least this many fresh workers
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10  # job_ms.tail: highest percentile with this many samples beyond it


class BenchError(Exception):
    pass


def speed_probe_ms() -> float:
    """Time of a fixed pure-Python loop, independent of topobelief.

    The vCPUs of this benchmark's baseline machine switch between a fast
    and a slow phase (see meter.py) that the load average does not show.
    This probe, run before and after the workload, shows which phase a run
    started and ended in.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        x = 0
        for i in range(30000):
            x = (x * 31 + i) & 0xFFFF
            table[x & 255] = table.get(x & 255, 0) + 1
        best = min(best, time.perf_counter() - start)
    return best * 1000


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_before": list(os.getloadavg()),
        "speed_probe_ms_before": speed_probe_ms(),
    }


def run_worker(root: str, name: str, seed: int, mode: str, answers: str, deadline: float) -> dict:
    """One worker process; killed with everything it started at the deadline."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, root, name, str(seed), mode, answers],
        cwd=root,
        env=workloads.child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} pass of {name} did not finish within the run's deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {name} failed (exit {proc.returncode}):\n{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(per_pass: list[list[float]]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples no percentile has that many beyond it; the tail is
    then the slowest job of a pass, taken as the median over passes, which
    is steadier than the single slowest sample.
    """
    ordered = sorted(v for values in per_pass for v in values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        value = statistics.median(max(values) for values in per_pass)
        return value, f"median over {len(per_pass)} passes of the slowest job ({n} samples, fewer than {TAIL_BEYOND + 1})"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100 * (index + 1) / n:.1f} of {n} samples, {TAIL_BEYOND} beyond it"


def metric_specs(root: str) -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, by name."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def check_counters(passes: list[dict], known: dict, seed: int) -> list[str]:
    problems = []
    first = passes[0]["counters"]
    if any(p["counters"] != first for p in passes[1:]):
        problems.append("work counters differ between passes of one seed")
    if seed == known.get("seed") and known.get("counters") not in (None, first):
        problems.append("work counters differ from the committed ones for this seed")
    return problems


def report_jobs(passes: list[dict]) -> None:
    for i, p in enumerate(passes):
        for job in p["jobs"]:
            state = "ok  " if job["ok"] else "FAIL"
            print(
                f"  pass {i} {state} {job['ms']:10.2f} ms ({job['wall_ms']:10.2f} ms wall)"
                f"  {job['label']}: {str(job['detail']).splitlines()[-1]}"
            )


def measure(root: str, name: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    with open(ANSWERS, encoding="utf-8") as handle:
        known = json.load(handle).get(name, {})
    count = max(1, round(seconds / PASS_BUDGET_S[name]))
    # a traced run makes one untraced pass, to measure the tracing overhead, and one traced pass
    mode = "untraced" if traced else "run"
    plain = [run_worker(root, name, seed, mode, ANSWERS, deadline) for _ in range(1 if traced else count)]
    tracedp = [run_worker(root, name, seed, "traced", ANSWERS, deadline)] if traced else []
    setup_passes = list(plain)
    while not traced and len(setup_passes) < MIN_SETUPS:
        setup_passes.append(run_worker(root, name, seed, "setup", ANSWERS, deadline))
    setups = [p["setup_s"] for p in setup_passes]
    env["loadavg_after"] = list(os.getloadavg())
    env["speed_probe_ms_after"] = speed_probe_ms()
    print(f"loadavg_after: {env['loadavg_after']} speed_probe_ms_after: {env['speed_probe_ms_after']:.2f}")

    passes = plain + tracedp
    report_jobs(passes)
    problems = check_counters(passes, known, seed)
    counters = passes[0]["counters"]
    print(f"counters (per pass, from the inputs): {json.dumps(counters, sort_keys=True)}")
    jobs = [j for p in plain for j in p["jobs"]]
    all_jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(not j["ok"] for j in all_jobs)
    print(f"fail_frac: {failed}/{len(all_jobs)} = {failed / len(all_jobs):.4f}")
    for problem in problems:
        print(f"check failed: {problem}")

    ms = [j["ms"] for j in jobs]
    tail_ms, tail_note = tail([[j["ms"] for j in p["jobs"]] for p in plain])
    print(f"job_ms.tail: {tail_note}")
    print(f"setup_s samples: {[round(s, 4) for s in setups]} (wall: {[round(p['setup_wall_s'], 4) for p in setup_passes]})")
    out = {
        "attempted": len(all_jobs),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "env": env,
    }
    if traced:
        layers = dict(tracedp[0]["layers"])
        layers["trace.untraced_s"] = plain[0]["pass_s"]
        layers["trace.overhead_s"] = tracedp[0]["pass_s"] - plain[0]["pass_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain[0]["pass_s"]
        self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"self times + harness = {self_total:.4f} s of traced wall {layers['trace.wall_s']:.4f} s")
        out["metrics"] = layers
        write_trace(root, name, seed, env, tracedp, layers)
    else:
        seconds_in_jobs = sum(j["ms"] for j in jobs) / 1000
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "checks_per_s": sum(j["checks"] for j in jobs) / seconds_in_jobs,
            "job_ms.p50": statistics.median(ms),
            "job_ms.tail": tail_ms,
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        }
    return out


def write_trace(root: str, name: str, seed: int, env: dict, passes: list[dict], layers: dict) -> None:
    folder = os.path.join(root, ".perfbench")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"trace-{name}-seed{seed}.json")
    doc = {
        "workload": name,
        "seed": seed,
        "env": env,
        "per_layer": layers,
        "passes": [p["trace"] for p in passes],
        "note": "spans with the same name under one parent are merged; count and busy_ns sum them",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    print(f"spans written to {os.path.relpath(path, root)}")


def record_answers(root: str) -> None:
    """Known answers and counters at the default seed, from this checkout."""
    data: dict = {}
    missing = os.path.join(root, ".perfbench", "no-answers.json")
    for name in workloads.WORKLOADS:
        deadline = time.monotonic() + 600
        first = run_worker(root, name, workloads.DEFAULT_SEED, "run", missing, deadline)
        data[name] = {
            "seed": workloads.DEFAULT_SEED,
            "answers": {job["label"]: job["answer"] for job in first["jobs"]},
        }
        with open(ANSWERS, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
        second = run_worker(root, name, workloads.DEFAULT_SEED, "run", ANSWERS, deadline)
        bad = [job["label"] for job in second["jobs"] if not job["ok"]]
        if bad:
            raise BenchError(f"{name}: jobs fail their own checks: {bad}")
        data[name]["counters"] = second["counters"]
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-answers", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "topobelief", "__init__.py")):
        print("error: run from the root of a topobelief checkout (src/topobelief not found)", file=sys.stderr)
        return 2
    try:
        if args.record_answers:
            record_answers(root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        end_to_end, per_layer = metric_specs(root)
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = per_layer if args.trace else end_to_end
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {key: {"value": result["metrics"][key], "unit": unit} for key, unit in units.items()}
    for key, value in sorted(metrics.items()):
        print(f"  {key:32s} {value['value']:.6g} {value['unit']}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
