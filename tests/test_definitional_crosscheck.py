"""Differential check against a from-the-definitions evaluator.

The oracle is def_truth (tests/oracles.py), satisfaction by naive
pointwise recursion with no extensions, no caching and no sharing with the
library's evaluation path; disagreement on any scenario is a bug in one
of the two.
"""

from oracles import def_truth
from topobelief.formula import formula_corpus, parse
from topobelief.model import (
    EDScenario,
    ScenarioClass,
    SubsetModel,
    ed_scenarios,
    epistemic_scenarios,
    random_model,
)
from topobelief.semantics import BatchEvaluator, Semantics, satisfies, sweep_validity
from topobelief.suites import Batch
from topobelief.topology import Topology, bits, enumerate_topologies


def _exhaustive_models(max_n):
    for n in range(1, max_n + 1):
        for top in enumerate_topologies(n):
            for vp in range(1 << n):
                for vq in range(1 << n):
                    yield SubsetModel(top, {"p": vp, "q": vq})


def test_agrees_on_exhaustive_small_models():
    corpus = formula_corpus()[:34]
    for model in _exhaustive_models(2):
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            if kind is Semantics.STRONG:
                scenarios = epistemic_scenarios(model)
            else:
                scenarios = ed_scenarios(model, ScenarioClass.ALL)
            for s in scenarios:
                for f in corpus:
                    ours = satisfies(model, s, f, kind)
                    naive = def_truth(model, s.x, s.u, s.v, f, kind)
                    assert ours == naive, (kind, s.literal(), str(f))


def test_agrees_on_random_three_point_models():
    corpus = formula_corpus()[:26]
    for seed in range(6):
        model = random_model(seed, 3)
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            if kind is Semantics.STRONG:
                scenarios = list(epistemic_scenarios(model))
            else:
                scenarios = list(ed_scenarios(model, ScenarioClass.ALL))
            for s in scenarios:
                for f in corpus:
                    assert satisfies(model, s, f, kind) == def_truth(
                        model, s.x, s.u, s.v, f, kind
                    ), (seed, kind, s.literal(), str(f))


SWEEP_ROOTS = (
    "p",
    "K p",
    "B p -> p",
    "! box p -> box ! box p",
    "B p -> ! B ! p",
    "box p | box ! box p",
)


def _ranges(top, kind):
    """(U, V) in canonical order read off the open family, class ALL."""
    for u in top.opens:
        if not u:
            continue
        if kind is Semantics.STRONG:
            yield u, None
        else:
            for v in top.opens:
                if v & ~u == 0:
                    yield u, v


def _first_failure(models, f, kind):
    """Model-by-model scan: first model, first range, least world."""
    for pos, model in enumerate(models):
        for u, v in _ranges(model.topology, kind):
            for x in bits(u):
                if not def_truth(model, x, u, v, f, kind):
                    return pos, EDScenario(x, u, v)
    return None


def _check_sweep(models, kind):
    """Sweep failures equal the scan's; returns each failure's lane in its group."""
    roots = [parse(text) for text in SWEEP_ROOTS]
    failures = sweep_validity(BatchEvaluator(roots, kind), iter(models))
    lanes = []
    for f in roots:
        expected = _first_failure(models, f, kind)
        hit = failures.get(f)
        got = None
        if hit is not None:
            pos = next(i for i, m in enumerate(models) if m is hit.model)
            got = (pos, hit.scenario)
            lane = 0
            while pos - lane > 0 and models[pos - lane - 1].topology == models[pos].topology:
                lane += 1
            lanes.append(lane)
        assert got == expected, (kind, str(f), got, expected)
    return lanes


def test_sweep_matches_scan_on_exhaustive_and_random_models():
    models = list(Batch(exhaustive_n=2).models())
    models += [random_model(seed, 3) for seed in range(4)]
    lanes = []
    for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
        lanes += _check_sweep(models, kind)
    assert sum(lane > 0 for lane in lanes) >= 3, lanes


def test_sweep_matches_scan_on_hand_built_streams():
    sierp = Topology.from_opens(2, [0, 1, 3])
    disc = Topology.discrete(2)
    # one topology object comes back after another one, valuations name
    # different atoms (a missing atom is false everywhere), and p first
    # fails on the discrete space, before the Sierpinski space returns
    regrouped = [
        SubsetModel(sierp, {"p": 3, "q": 1}),
        SubsetModel(sierp, {"p": 3, "r": 2}),
        SubsetModel(disc, {"q": 3}),
        SubsetModel(disc, {"p": 3}),
        SubsetModel(sierp, {"p": 1, "r": 2}),
        SubsetModel(sierp, {"r": 1}),
        SubsetModel(sierp, {"p": 2, "q": 1}),
        SubsetModel(disc, {"p": 1, "q": 3}),
    ]
    # p fails in lane 1 at the first range, and in lane 0 only at the second
    late_lane_zero = [SubsetModel(sierp, {"p": 1}), SubsetModel(sierp, {"q": 1})]
    for models in (regrouped, late_lane_zero):
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            _check_sweep(models, kind)
