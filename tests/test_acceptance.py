"""Acceptance criteria, one test per criterion.

Every criterion is exhaustive or oracle-driven at desk scale and admits no
tolerance: zero exceptions, zero countermodels, exact counts.  Criteria
with a runtime target assert it.  Run with -s to see the per-criterion
PASS lines; pytest -v shows one line per criterion either way.
"""

import json
import time

from oracles import all_topologies_oracle, unreduced_sweeps
from topobelief.cli import main as cli_main
from topobelief.formula import (
    ALPHA_MAP,
    Bel,
    Box,
    E_MAP,
    Formula,
    Iff,
    K,
    dia,
    formula_corpus,
    modalities,
    parse,
    translate,
)
from topobelief.model import DEFAULT_SCENARIO_BUDGET, ScenarioClass, range_pairs
from topobelief.relational import (
    decompose,
    random_belief_frame,
    relational_extension,
    to_subset_model,
)
from topobelief.semantics import (
    BatchEvaluator,
    Evaluator,
    Semantics,
    _passes,
    _runs,
    _sweep_groups,
    _values,
    find_countermodel,
    satisfies,
)
from topobelief.suites import (
    Batch,
    expected_failures,
    get_suite,
    run_suite,
    soundness_batch,
)
from topobelief.topology import enumerate_topologies


def _report(number: int, title: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} {title}: PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_01_topology_laws_and_counts():
    started = time.perf_counter()
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            full = t.full
            for a in range(1 << n):
                ia = t.interior(a)
                assert ia & ~a == 0
                assert t.interior(ia) == ia
                assert t.closure(a) == full & ~t.interior(full & ~a)
                for b in range(1 << n):
                    assert t.interior(a & b) == ia & t.interior(b)
            assert t.interior(full) == full
    for n, expected in ((3, 29), (4, 355)):
        ours = {frozenset(t.opens) for t in enumerate_topologies(n)}
        assert len(ours) == expected
        assert ours == all_topologies_oracle(n)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(1, "topology laws and enumeration counts", started)


def test_criterion_02_almost_subset_characterization():
    started = time.perf_counter()
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            for a in t.opens:
                for b in range(1 << n):
                    assert t.almost_subset(a, b) == (a & ~t.closure(t.interior(b)) == 0)
    _report(2, "almost-subset matches cl-int containment for open sets", started)


# the standard batch, and every labeled model to 4 worlds (a tightened check)
GATE_BATCHES = (soundness_batch(), Batch(exhaustive_n=4))


def test_criterion_03_full_belief_soundness():
    started = time.perf_counter()
    for batch in GATE_BATCHES:
        report = run_suite(get_suite("sel"), batch)
        bad = [r for r in report.results if r.status != "valid"]
        assert not bad, bad[:3]
        assert report.clean
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(3, "full-belief suite sound on exhaustive and random batch", started)


def _lane_groups(kind: Semantics, max_n: int):
    """Each lane group of the sweep of Batch(exhaustive_n=max_n) under kind
    on scenario class all, with its layout from _passes."""
    models = Batch(exhaustive_n=max_n).models()
    runs = _runs(models, Batch.atoms)
    for group in _sweep_groups(runs, kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET):
        yield _passes(group, Batch.atoms)


def _range_pair_count(kind: Semantics, max_n: int) -> int:
    """(model, U, V) triples of Batch(exhaustive_n=max_n) under kind: each
    topology's range pairs once per valuation of p and q."""
    cls = None if kind is Semantics.STRONG else ScenarioClass.ALL
    return sum(
        len(range_pairs(top, cls)) << 2 * n
        for n in range(1, max_n + 1)
        for top in enumerate_topologies(n)
    )


def test_criterion_04_reduction_equivalence():
    started = time.perf_counter()
    corpus = formula_corpus()
    roots = []
    for f in corpus:
        roots.append(Iff(Bel(f), K(dia(Box(f)))))
        roots.append(Iff(f, translate(f, E_MAP)))
    engine = BatchEvaluator(tuple(dict.fromkeys(roots)), Semantics.STRONG)
    failures = set()
    checked = 0  # lane-passes with a (U, V) pair
    for lanes, passes in _lane_groups(Semantics.STRONG, 4):
        for (us, _), vals in zip(passes, _values(engine, lanes, passes)):
            checked += lanes.fold(us).bit_count()
            failures.update(str(f) for f, idx in engine.roots.items() if vals[idx] != us)
    assert not failures, sorted(failures)[:3]
    assert checked == _range_pair_count(Semantics.STRONG, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(4, "belief reduces to knowledge-of-unfalsifiable-knowability", started)


def test_criterion_05_range_semantics_matrix():
    started = time.perf_counter()
    runs = (
        ("el_kboxb", None, None),
        ("el_kboxb_d", None, None),
        ("el_kboxb_wf", None, None),
        ("el_kboxb_cb", None, None),
        ("sel", Semantics.AE, ScenarioClass.TOTAL),
    )
    for batch in GATE_BATCHES:
        for name, kind, cls in runs:
            report = run_suite(get_suite(name), batch, semantics=kind, scenario_class=cls)
            bad = [r for r in report.results if r.status != "valid"]
            assert report.clean, (name, batch.exhaustive_n, bad[:3])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(5, "doxastic-range suite matrix sound", started)


def test_criterion_06_expected_failures_certified():
    started = time.perf_counter()
    for entry in expected_failures():
        assert entry.replay(), f"{entry.label}: stored witness no longer fails"
        outcome = find_countermodel(
            parse(entry.formula),
            entry.semantics,
            entry.scenario_class,
            max_n=entry.max_worlds,
        )
        assert outcome.status == "found", entry.label
        assert outcome.model.n <= entry.max_worlds, entry.label
        assert not satisfies(
            outcome.model, outcome.scenario, parse(entry.formula), entry.semantics
        ), entry.label
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime target exceeded: {elapsed:.1f}s"
    _report(6, "all registered non-theorems yield desk-size countermodels", started)


def _differing(images: dict[Formula, Formula], max_n: int) -> tuple[list, int]:
    """(pass, f) wherever, at some pass of the ae sweep's lane groups on
    Batch(exhaustive_n=max_n), f under ae semantics differs from its image
    under ed, both engines run over one layout; and the lane-passes that
    carry a (U, V) pair."""
    ae_engine = BatchEvaluator(tuple(images), Semantics.AE)
    ed_engine = BatchEvaluator(tuple(images.values()), Semantics.ED)
    pairs = [(f, ae_engine.roots[f], ed_engine.roots[g]) for f, g in images.items()]
    out = []
    checked = 0
    for lanes, passes in _lane_groups(Semantics.AE, max_n):
        values = zip(passes, _values(ae_engine, lanes, passes), _values(ed_engine, lanes, passes))
        for k, ((us, _), ae_vals, ed_vals) in enumerate(values):
            checked += lanes.fold(us).bit_count()
            out.extend((k, f) for f, i, j in pairs if ae_vals[i] != ed_vals[j])
    return out, checked


def test_criterion_07_almost_everywhere_alpha_bridge():
    started = time.perf_counter()
    corpus = formula_corpus()
    differing, checked = _differing({f: translate(f, ALPHA_MAP) for f in corpus}, 4)
    assert not differing, [(k, str(f)) for k, f in differing[:3]]
    assert checked == _range_pair_count(Semantics.AE, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime target exceeded: {elapsed:.1f}s"
    # not vacuous: without the translation the same comparison finds ed and
    # ae apart, and only on formulas that read B
    untranslated, _ = _differing({f: f for f in corpus}, 3)
    assert untranslated
    assert all("B" in modalities(f) for _, f in untranslated)
    _report(7, "almost-everywhere satisfaction equals alpha image", started)


def test_criterion_07_reduced_ae_sweep_matches_full_layout(monkeypatch):
    """Tightened check: the el_kboxb_cb report under ae/all on
    Batch(exhaustive_n=4), swept as run_suite sweeps it (only the pairs
    whose V lies inside Max and whose U is the carrier or has more than 4
    worlds), equals the report over the full pair lists, byte for byte.
    The full lists are oracles.unreduced_sweeps, whose guard
    (test_semantics.TestReducedSearch) fails on any reduction it keeps."""
    started = time.perf_counter()
    batch = Batch(exhaustive_n=4)
    suite = get_suite("el_kboxb_cb")
    reduced = run_suite(suite, batch, semantics=Semantics.AE, scenario_class=ScenarioClass.ALL)
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0, f"runtime target exceeded: {elapsed:.1f}s"
    unreduced_sweeps(monkeypatch)
    full = run_suite(suite, batch, semantics=Semantics.AE, scenario_class=ScenarioClass.ALL)
    assert reduced.to_json() == full.to_json()
    _report(7, "reduced almost-everywhere sweep equals the full layout", started)


def test_criterion_08_relational_bridge_on_random_belief_frames():
    started = time.perf_counter()
    corpus = formula_corpus(connectives=("B",))
    for i in range(500):
        frame = random_belief_frame(seed=i + 1, n=(i % 6) + 1)
        dec = decompose(frame)
        assert dec.reconstruct() == frame.rel, f"seed {i + 1}"
        subset = to_subset_model(frame)
        ev = Evaluator(subset, Semantics.STRONG)
        for f in corpus:
            relational = relational_extension(frame, f)
            for x in range(frame.n):
                topological = bool(ev.extension(f, dec.cell_of(x)) >> x & 1)
                assert bool(relational >> x & 1) == topological, (i + 1, x, str(f))
    _report(8, "relational and topological belief agree at cell scenarios", started)


def test_criterion_09_pure_belief_suite_under_strong_semantics():
    started = time.perf_counter()
    for batch in GATE_BATCHES:
        report = run_suite(get_suite("kd45_b"), batch)
        assert report.clean
        schemes = {r.scheme for r in report.results}
        assert schemes == {"K_B", "D_B", "4_B", "5_B"}
    _report(9, "pure belief axioms sound under strong semantics", started)


def test_criterion_10_cli_determinism_and_round_trip(capsys, tmp_path):
    started = time.perf_counter()
    argv = ["suite", "--name", "sel", "--exhaustive", "3", "--json"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    json.loads(out1)

    witness_path = tmp_path / "witness.json"
    code = cli_main(
        [
            "countermodel",
            "--formula", "!box p -> box !box p",
            "--semantics", "strong",
            "--exhaustive", "3",
            "--out", str(witness_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    scenario = next(
        line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("scenario")
    )
    code = cli_main(
        [
            "eval",
            "--model", str(witness_path),
            "--scenario", scenario,
            "--formula", "!(!box p -> box !box p)",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "true"
    _report(10, "cli reports byte-identical and witnesses feed back", started)
