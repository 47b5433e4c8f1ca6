"""The four workloads: inputs made from the seed, the jobs of one pass, the
known answer each job is checked against, and the work counters.

Counters are computed here from the inputs, never read from the program:
a topology's ranges are enumerated by this file's own code, and a search's
scenario count follows from the position of its committed witness in the
canonical search order.  They describe the work each job requires, so they
repeat exactly for a seed whatever the speed of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

DEFAULT_SEED = 1  # soundness_batch(first_seed=1) and criterion 08's frame seeds 1..500
SCENARIO_BUDGET = 10**6  # topobelief.model.DEFAULT_SCENARIO_BUDGET: larger sweeps are skipped
RANDOM_HUNT = ("K p -> p", "strong", 10, 200_000)  # formula, semantics, max_n, budget
# valid formulas: an exhaustive hunt to 4 worlds must cover the whole space;
# the ae hunt needs 354,708 scenario evaluations, above the default budget
EXHAUSTIVE_HUNTS = (("K p -> p", "strong"), ("B (box p | box ! box p)", "ae"))
EXHAUSTIVE_HUNT_BUDGET = 1_000_000
BRIDGE_FRAMES = 500
NON_THEOREMS = "non-theorems"

WORKLOADS = ("suite_strong", "suite_range", "reference", "cli")
SUITE_JOBS = {
    "suite_strong": ("el_kbox", "sel", "kd45_b"),
    "suite_range": ("el_kboxb_cb", "el_kboxb_wf"),
}
COUNTER_NAMES = (
    "models",
    "range_pairs",
    "scenarios",
    "base_passes",
    "overlay_passes",
    "node_evals",
    "budget_skips",
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Job:
    """One verdict: `call` is timed, `verify` checks its result untimed.

    verify returns (ok, answer, detail); `answer` is compared with the
    committed known answer when one exists for this job and seed.
    """

    label: str
    checks: int
    call: Callable[[], Any]
    verify: Callable[[Any], tuple[bool, Any, str]]
    counters: dict[str, int] = field(default_factory=dict)
    seed_free: bool = False  # its committed answer holds on every seed


@dataclass
class Workload:
    jobs: list[Job]
    extra: dict = field(default_factory=dict)  # inputs the traced pass needs: roots, frames, sweeps
    cleanup: Callable[[], None] = lambda: None

    def counters(self) -> dict[str, int]:
        total = dict.fromkeys(COUNTER_NAMES, 0)
        for job in self.jobs:
            for key, value in job.counters.items():
                total[key] = total.get(key, 0) + value
        return total


# ---------------------------------------------------------------------------
# ranges of a topology, computed here from its open sets


def _min_neighborhoods(n: int, opens) -> list[int]:
    full = (1 << n) - 1
    out = []
    for x in range(n):
        m = full
        for o in opens:
            if o >> x & 1:
                m &= o
        out.append(m)
    return out


def _closure(n: int, mnb: list[int], a: int) -> int:
    # x is in cl(a) iff its smallest open neighbourhood meets a
    m = 0
    for x in range(n):
        if mnb[x] & a:
            m |= 1 << x
    return m


class RangeCounter:
    """Scenario ranges per topology and scenario class, cached by open family."""

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple] = {}

    def pairs(self, n: int, opens: tuple[int, ...], cls: str | None) -> list[tuple[int, list[int]]]:
        """(u, admissible v) groups in canonical order, for u with some v.

        Under strong semantics (cls None) the ranges are the nonempty opens
        and carry no doxastic range.
        """
        if cls is None:
            return [(u, []) for u in opens if u]
        mnb = _min_neighborhoods(n, opens)
        closure = {v: _closure(n, mnb, v) for v in opens} if cls == "dense" else None
        groups = []
        for u in opens:
            if not u:
                continue
            vs = [
                v
                for v in opens
                if not v & ~u
                and (cls != "consistent" or v)
                and (cls != "dense" or not u & ~closure[v])
                and (cls != "total" or v == u)
            ]
            if vs:
                groups.append((u, vs))
        return groups

    def ranges(self, n: int, opens: tuple[int, ...], cls: str | None) -> tuple[int, int, int]:
        """(base passes, range pairs, scenarios) of one model."""
        key = (n, opens, cls)
        hit = self._cache.get(key)
        if hit is None:
            groups = self.pairs(n, opens, cls)
            if cls is None:
                hit = (len(groups), 0, sum(u.bit_count() for u, _ in groups))
            else:
                hit = (
                    len(groups),
                    sum(len(vs) for _, vs in groups),
                    sum(u.bit_count() * len(vs) for u, vs in groups),
                )
            self._cache[key] = hit
        return hit


# ---------------------------------------------------------------------------
# suite workloads


def suite_roots(tb, suite) -> list:
    """The root formulas run_suite hands its engine: every scheme instance,
    then each necessitation premise and its wrapped form."""
    from topobelief import formula as fm
    from topobelief.suites import DEFAULT_INSTANTIATION, scheme_instances

    roots: dict = {}
    for name in suite.schemes:
        for inst in scheme_instances(tb.get_scheme(name), DEFAULT_INSTANTIATION):
            roots.setdefault(inst, None)
    wrap = {"K": fm.K, "box": fm.Box, "B": fm.Bel}
    for mod in suite.rules:
        for premise in dict.fromkeys(DEFAULT_INSTANTIATION):
            roots.setdefault(premise, None)
            roots.setdefault(wrap[mod](premise), None)
    return list(roots)


def program_shape(tb, roots, strong: bool) -> tuple[int, int]:
    """(base nodes, overlay nodes) of the compiled program over the roots:
    distinct subformulas, split by whether they read the doxastic range."""
    from topobelief import formula as fm

    nodes = set()
    for f in roots:
        nodes |= tb.subformulas(f)
    if strong:
        return len(nodes), 0
    overlay = sum(1 for g in nodes if any(isinstance(h, fm.Bel) for h in tb.subformulas(g)))
    return len(nodes) - overlay, overlay


def batch_counts(tb, batch, suite_pairs, ranges: RangeCounter) -> dict:
    """Counters of each (semantics, class) over the batch, one walk of it."""
    per = {key: {"models": 0, "range_pairs": 0, "scenarios": 0, "groups": [], "skips": 0} for key in suite_pairs}
    for model in batch.models():
        top = model.topology
        for key in suite_pairs:
            strong, cls = key
            acc = per[key]
            acc["models"] += 1
            if not strong and len(top.opens) ** 2 * top.n > SCENARIO_BUDGET:
                acc["skips"] += 1
                acc["groups"].append(0)
                continue
            groups, pairs, scenarios = ranges.ranges(top.n, top.opens, None if strong else cls)
            acc["range_pairs"] += pairs
            acc["scenarios"] += scenarios
            acc["groups"].append(groups)
    return per


def setup_suites(tb, name: str, seed: int) -> Workload:
    batch = tb.soundness_batch(first_seed=seed)
    exhaustive = sum(
        sum(1 for _ in tb.enumerate_topologies(n)) * (1 << (n * len(batch.atoms)))
        for n in range(1, batch.exhaustive_n + 1)
    )
    suites = [tb.get_suite(s) for s in SUITE_JOBS[name]]
    keys = {s.name: (s.semantics is tb.Semantics.STRONG, s.scenario_class.value) for s in suites}
    per = batch_counts(tb, batch, set(keys.values()), RangeCounter())
    jobs = []
    live = []
    for suite in suites:
        strong = keys[suite.name][0]
        acc = per[keys[suite.name]]
        roots = suite_roots(tb, suite)
        base_nodes, overlay_nodes = program_shape(tb, roots, strong)
        base_passes = sum(acc["groups"])
        overlay_passes = 0 if strong else acc["range_pairs"]
        counters = {
            "models": acc["models"],
            "range_pairs": overlay_passes,
            "scenarios": acc["scenarios"],
            "base_passes": base_passes,
            "overlay_passes": overlay_passes,
            "node_evals": base_passes * base_nodes + overlay_passes * overlay_nodes,
            "budget_skips": acc["skips"],
            "roots": len(roots),
            "nodes": base_nodes + overlay_nodes,
        }
        # checks: the ranges of the class on every model (U under strong, (U, V) otherwise)
        checks = base_passes if strong else acc["range_pairs"]
        live.append({"roots": len(roots), "groups": acc["groups"]})

        def call(suite=suite):
            return tb.run_suite(suite, batch).to_json()

        def verify(text):
            ok = json.loads(text)["clean"] is True
            return ok, sha(text), "clean" if ok else "report not clean"

        jobs.append(Job(suite.name, checks, call, verify, counters))
    return Workload(jobs, extra={"exhaustive_models": exhaustive, "live": live})


# ---------------------------------------------------------------------------
# reference workload


def search_count(tb, ranges: RangeCounter, tops, f, kind, cls: str, max_n: int, witness) -> dict:
    """Work a canonical-order search does: scenarios and models visited up
    to the witness (model document text and scenario literal), or the whole
    space to max_n when there is none."""
    atoms = sorted(tb.formula.atoms(f))
    strong = kind is tb.Semantics.STRONG
    w_model = None
    if witness is not None:
        w_model = tb.load(witness["model"])
        w_scen = tb.parse_scenario(witness["scenario"])
    scenarios = models = pairs = skips = 0
    for n in range(1, min(max_n, 4) + 1):
        valuations = 1 << (n * len(atoms))
        for top in tops[n]:
            if not strong and len(top.opens) ** 2 * top.n > SCENARIO_BUDGET:
                skips += valuations
                continue
            _, npairs, per_model = ranges.ranges(n, top.opens, None if strong else cls)
            if w_model is not None and w_model.n == n and w_model.topology.opens == top.opens:
                index = 0
                for name in atoms:
                    index = index * (1 << n) + w_model.valuation.get(name, 0)
                w_pos = _stream_position(ranges.pairs(n, top.opens, None if strong else cls), n, w_scen)
                return {
                    "models": models + index + 1,
                    "scenarios": scenarios + index * per_model + w_pos + 1,
                    "range_pairs": pairs + (index + 1) * npairs,
                    "budget_skips": skips,
                }
            models += valuations
            scenarios += valuations * per_model
            pairs += valuations * npairs
    if witness is not None:
        raise ValueError("committed witness is not in the search space")
    return {"models": models, "scenarios": scenarios, "range_pairs": pairs, "budget_skips": skips}


def _stream_position(groups, n: int, s) -> int:
    """Index of scenario s in the canonical stream: x, then U, then V."""
    stream = ((x, u, v) for x in range(n) for u, vs in groups if u >> x & 1 for v in (vs or [None]))
    for i, scenario in enumerate(stream):
        if scenario == (s.x, s.u, s.v):
            return i
    raise ValueError(f"scenario {s.literal()} not in the stream")


def setup_reference(tb, seed: int, known: dict) -> Workload:
    from topobelief.formula import formula_corpus
    from topobelief.semantics import Evaluator

    ranges = RangeCounter()
    tops = {n: list(tb.enumerate_topologies(n)) for n in range(1, 5)}
    jobs = []
    # the seven non-theorem searches run as one job, as in criterion 06: each
    # alone takes a few milliseconds, which no latency percentile resolves
    entries = [(entry, tb.parse(entry.formula)) for entry in tb.expected_failures()]
    witnesses = known.get(NON_THEOREMS, {})
    per_search = {}
    for entry, f in entries:
        if entry.label in witnesses:
            per_search[entry.label] = search_count(
                tb, ranges, tops, f, entry.semantics, entry.scenario_class.value, entry.max_worlds,
                witnesses[entry.label],
            )

    def call_searches():
        results = []
        for entry, f in entries:
            outcome = tb.find_countermodel(f, entry.semantics, entry.scenario_class, max_n=entry.max_worlds)
            replayed = entry.replay()
            falsified = outcome.status == "found" and not tb.satisfies(
                outcome.model, outcome.scenario, f, entry.semantics
            )
            results.append((entry.label, outcome, replayed, falsified))
        return results

    def verify_searches(results):
        answer, problems = {}, []
        for label, outcome, replayed, falsified in results:
            if outcome.status != "found":
                problems.append(f"{label}: status {outcome.status}, expected found")
                continue
            answer[label] = {"model": tb.dump(outcome.model), "scenario": outcome.scenario.literal()}
            if not (replayed and falsified):
                problems.append(f"{label}: witness does not replay as falsifying")
            want = per_search.get(label, {}).get("scenarios")
            if want is not None and outcome.evaluations != want:
                problems.append(f"{label}: {outcome.evaluations} evaluations, expected {want}")
        return not problems, answer, "; ".join(problems) or f"{len(results)} witnesses found and replayed"

    counters = {key: sum(c[key] for c in per_search.values()) for key in ("models", "scenarios", "range_pairs", "budget_skips")}
    jobs.append(Job(NON_THEOREMS, counters["scenarios"], call_searches, verify_searches, counters, seed_free=True))

    for text, sem in EXHAUSTIVE_HUNTS:
        f, kind = tb.parse(text), tb.Semantics(sem)
        counters = search_count(tb, ranges, tops, f, kind, "all", 4, None)

        def call(f=f, kind=kind):
            return tb.find_countermodel(f, kind, max_n=4, budget=EXHAUSTIVE_HUNT_BUDGET)

        def verify(outcome, counters=counters):
            answer = f"{outcome.status}:{outcome.evaluations}"
            ok = outcome.status == "exhausted" and outcome.evaluations == counters["scenarios"]
            return ok, answer, "exhausted" if ok else f"{answer}, expected exhausted:{counters['scenarios']}"

        jobs.append(Job(f"exhaustive {sem}: {text}", counters["scenarios"], call, verify, counters, seed_free=True))

    text, sem, max_n, budget = RANDOM_HUNT
    f, kind = tb.parse(text), tb.Semantics(sem)
    space = search_count(tb, ranges, tops, f, kind, "all", 4, None)
    # the exhaustive part is covered first; random draws spend the rest of the
    # budget, and those draws are counted only by a traced pass
    counters = {"models": space["models"], "scenarios": budget}

    def call_hunt():
        return tb.find_countermodel(f, kind, max_n=max_n, budget=budget, seed=seed)

    def verify_hunt(outcome):
        answer = f"{outcome.status}:{outcome.evaluations}"
        ok = outcome.status == "budget" and outcome.evaluations == budget
        return ok, answer, "budget" if ok else f"{answer}, expected budget:{budget}"

    jobs.append(Job(f"random {sem}: {text}", budget, call_hunt, verify_hunt, counters, seed_free=True))

    corpus = formula_corpus(connectives=("B",))
    frames = [tb.random_belief_frame(seed=seed + i, n=(i % 6) + 1) for i in range(BRIDGE_FRAMES)]
    bridge_checks = sum(frame.n for frame in frames) * len(corpus)

    def call_bridge():
        agree = 0
        for frame in frames:
            dec = tb.decompose(frame)
            if dec.reconstruct() != frame.rel:
                continue
            subset = tb.to_subset_model(frame)
            ev = Evaluator(subset, tb.Semantics.STRONG)
            for x in range(frame.n):
                cell = dec.cell_of(x)
                for g in corpus:
                    agree += tb.eval_relational(frame, x, g) == bool(ev.extension(g, cell) >> x & 1)
        return agree

    def verify_bridge(agree):
        ok = agree == bridge_checks
        return ok, f"{agree}/{bridge_checks}", "full agreement" if ok else "relational and topological differ"

    jobs.append(Job("bridge", bridge_checks, call_bridge, verify_bridge, {}))
    roots = len(entries) + len(EXHAUSTIVE_HUNTS) + 1 + len(corpus)
    return Workload(jobs, extra={"roots": roots, "frames": len(frames)})


# ---------------------------------------------------------------------------
# cli workload

CLI_FORMULA = "! box p -> box ! box p"
CLI_MODEL_WORLDS = 4
CLI_FRAME_WORLDS = 5


def cli_script() -> list[tuple[list[str], bool]]:
    """The commands of one pass, each with whether its output is seed-free."""
    carrier = ",".join(str(i) for i in range(CLI_MODEL_WORLDS))
    return [
        (["enumerate", "--max-n", "1"], True),
        (["eval", "--model", "model.json", "--scenario", f"x=0;U={carrier}", "--formula", "B p & ! p"], False),
        (["valid", "--model", "model.json", "--formula", "B p -> p"], False),
        (["countermodel", "--formula", CLI_FORMULA, "--exhaustive", "3", "--out", "witness.json"], True),
        (["eval", "--model", "witness.json", "--scenario", "{scenario}", "--formula", f"!({CLI_FORMULA})"], True),
        (["convert", "--model", "frame.json"], False),
        (["decompose", "--model", "frame.json"], False),
        (["suite", "--name", "kd45_b", "--exhaustive", "2", "--json"], True),
    ]


def _scenario_line(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("scenario: "):
            return line.split(": ", 1)[1]
    return "x=0;U=0"


def setup_cli(tb, seed: int, root: str, child_cmd: list[str], env: dict) -> Workload:
    from topobelief import cli

    workdir = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "model.json"), "w", encoding="utf-8") as handle:
        handle.write(tb.dump(tb.random_model(seed, CLI_MODEL_WORLDS)))
    with open(os.path.join(workdir, "frame.json"), "w", encoding="utf-8") as handle:
        handle.write(tb.dump(tb.random_belief_frame(seed, CLI_FRAME_WORLDS)))

    # each command's expected exit code and output, from the library in this process
    script = cli_script()
    expected = []
    scenario = ""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, _ in script:
            argv = [a.replace("{scenario}", scenario) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            expected.append((code, out.getvalue()))
            if argv[0] == "countermodel":
                scenario = _scenario_line(out.getvalue())
    finally:
        os.chdir(cwd)

    state = {"scenario": ""}
    jobs = []
    for i, (argv, seed_free) in enumerate(script):

        def call(argv=argv):
            argv = [a.replace("{scenario}", state["scenario"]) for a in argv]
            proc = subprocess.run(
                [*child_cmd, *argv], cwd=workdir, env=env, capture_output=True, text=True, timeout=120
            )
            if argv[0] == "countermodel":
                state["scenario"] = _scenario_line(proc.stdout)
            return proc

        def verify(proc, want=expected[i]):
            answer = [proc.returncode, sha(proc.stdout)]
            ok = (proc.returncode, proc.stdout) == want
            return ok, answer, f"exit {proc.returncode}" if ok else "exit code or output differs from the library's"

        jobs.append(Job(f"{argv[0]} #{i}", 1, call, verify, {"invocations": 1}, seed_free=seed_free))

    def cleanup() -> None:
        for entry in os.listdir(workdir):
            os.remove(os.path.join(workdir, entry))
        os.rmdir(workdir)

    return Workload(jobs, extra={"roots": 4, "frames": 1}, cleanup=cleanup)


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, and a fixed hash seed for steadier timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_command(root: str, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(root, "perfbench", "cli_child.py")]
    return [sys.executable, "-m", "topobelief.cli"]


def setup(tb, name: str, seed: int, known: dict, root: str, traced: bool) -> Workload:
    """Build a workload's inputs; `known` maps job labels to committed answers."""
    if name in SUITE_JOBS:
        return setup_suites(tb, name, seed)
    if name == "reference":
        return setup_reference(tb, seed, known)
    return setup_cli(tb, seed, root, cli_command(root, traced), child_env(root))
