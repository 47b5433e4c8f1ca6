"""Differential check against a from-the-definitions evaluator.

The oracle is def_truth (tests/oracles.py), satisfaction by naive
pointwise recursion with no extensions, no caching and no sharing with the
library's evaluation path; disagreement on any scenario is a bug in one
of the two.
"""

from itertools import count, product
from random import Random

from oracles import brute_closure, def_truth
from topobelief.formula import atoms, formula_corpus, parse
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    EDScenario,
    ScenarioClass,
    SubsetModel,
    dump,
    ed_scenarios,
    epistemic_scenarios,
    random_model,
)
from topobelief.semantics import (
    _MAX_GROUP_BITS,
    BatchEvaluator,
    Semantics,
    _passes,
    _search_model,
    _sweep_groups,
    find_countermodel,
    satisfies,
    sweep_validity,
)
from topobelief.suites import Batch
from topobelief.topology import Topology, enumerate_topologies


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


def _ranges(top, kind, cls=ScenarioClass.ALL):
    """(U, V) in canonical order read off the open family, class ALL or
    DENSE (U inside the closure of V)."""
    for u in top.opens:
        if not u:
            continue
        if kind is Semantics.STRONG:
            yield u, None
        else:
            for v in top.opens:
                if v & ~u == 0 and (
                    cls is ScenarioClass.ALL or u & ~brute_closure(top.n, top.opens, v) == 0
                ):
                    yield u, v


def _model_failure(model, f, kind, cls=ScenarioClass.ALL):
    """Scan order within one model: least world, then first range holding it."""
    ranges = list(_ranges(model.topology, kind, cls))
    for x in range(model.n):
        for u, v in ranges:
            if u >> x & 1 and not def_truth(model, x, u, v, f, kind):
                return EDScenario(x, u, v)
    return None


def _first_failure(models, f, kind):
    """Scan order: first model, least world, then first range holding it."""
    for pos, model in enumerate(models):
        s = _model_failure(model, f, kind)
        if s is not None:
            return pos, s
    return None


def _check_sweep(models, kind):
    """Sweep failures equal the scan's; returns, per failure, its position
    in its run of same-topology models."""
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


def test_scan_order_where_range_order_differs():
    """Least world first, then range: the order ed_scenarios and
    epistemic_scenarios yield, not first range, then least world."""
    disc = Topology.discrete(2)  # opens {}, {0}, {1}, {0,1} in canonical order
    point_p = SubsetModel(disc, {"p": 1})
    cases = (
        # U={1} misses world 1 before U={0,1} misses world 0
        ("K p", Semantics.STRONG, "x=0;U=0,1"),
        ("B p", Semantics.ED, "x=0;U=0,1;V=1"),
    )
    for text, kind, literal in cases:
        f = parse(text)
        hit = sweep_validity(BatchEvaluator((f,), kind), [point_p])[f]
        assert hit.scenario.literal() == literal, (text, kind)
        assert hit.scenario == next(
            s
            for s in (epistemic_scenarios if kind is Semantics.STRONG else ed_scenarios)(point_p)
            if not def_truth(point_p, s.x, s.u, s.v, f, kind)
        )
    # lane 1 fails at the first range; lane 0 misses world 1 at U={1} and
    # world 0 only later, at U={0,1}, where its failure settles
    group = [point_p, SubsetModel(disc, {})]
    f = parse("K p")
    hit = sweep_validity(BatchEvaluator((f,), Semantics.STRONG), group)[f]
    assert hit.model is group[0]
    assert hit.scenario.literal() == "x=0;U=0,1"
    for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
        _check_sweep(group, kind)


MIXED_ROOTS = SWEEP_ROOTS + (
    "p -> box p",
    "box (p | q) -> box p | box q",
    "B (p | q) -> B p | B q",
    "K (p -> box q) | B ! q",
)


KINDS = (
    (Semantics.STRONG, ScenarioClass.ALL),
    (Semantics.ED, ScenarioClass.ALL),
    (Semantics.AE, ScenarioClass.ALL),
    (Semantics.ED, ScenarioClass.DENSE),
)


def _lane_lengths(group):
    """Each lane's pair count: the passes of _passes where its U is nonempty."""
    lanes, passes = _passes(group)
    live = [lanes.fold(us) for us, _ in passes]
    return [sum(fold >> lane & 1 for fold in live) for lane in range(lanes.width)]


def _check_rotations(models, roots, kind, cls):
    """Each root's sweep failure is the def_truth scan's for every rotation
    of the stream (each rotation puts another model in lane 0); yields the
    stream and, per failing root, the position of its failing model."""
    oracle = [{f: _model_failure(m, f, kind, cls) for f in roots} for m in models]
    for r in range(len(models)):
        order = list(range(r, len(models))) + list(range(r))
        stream = [models[i] for i in order]
        failures = sweep_validity(BatchEvaluator(roots, kind), stream, cls)
        positions = []
        for f in roots:
            pos = next((j for j, i in enumerate(order) if oracle[i][f]), None)
            got = failures.get(f)
            if pos is None:
                assert got is None, (kind, cls, r, str(f))
                continue
            assert got is not None, (kind, cls, r, str(f))
            want = oracle[order[pos]][f]
            assert got.model is stream[pos] and got.scenario == want, (kind, cls, r, str(f))
            positions.append(pos)
        yield stream, positions


def test_mixed_groups_match_scan():
    """Lane groups whose models differ in topology and carrier size (1 to
    6 worlds), so lanes run out of range pairs at different passes: each
    root's failure is the def_truth scan's, for every rotation of the
    stream."""
    rng = Random(7)
    draws = [random_model(seed, 1 + seed % 6) for seed in range(12)]
    tops = (random_model(20, 2).topology, random_model(21, 5).topology, Topology.discrete(3))
    runs = [
        SubsetModel(top, {"p": rng.getrandbits(top.n), "q": rng.getrandbits(top.n)})
        for top in tops
        for _ in range(3)
    ]
    roots = [parse(text) for text in MIXED_ROOTS]
    later_lanes = 0
    draw_lengths = set()
    for kind, cls in KINDS:
        for models in (draws, runs):
            (group,) = _sweep_groups(models, kind, cls, DEFAULT_SCENARIO_BUDGET)
            assert len({m.n for m in models}) >= 3
            lengths = set(_lane_lengths(group))
            if models is runs:
                assert len(lengths) >= 2  # a model's last chunk runs out before the others
            else:
                draw_lengths.add(len(lengths))
            for _, positions in _check_rotations(models, roots, kind, cls):
                later_lanes += sum(pos > 0 for pos in positions)
    assert max(draw_lengths) >= 2  # a draw's last chunk runs out before the others
    assert later_lanes >= 50, later_lanes


def test_chunked_draw_groups_match_scan():
    """A stream of draws (consecutive models of different topologies) too
    wide for one group, so it spans at least two groups of chunked lanes
    under every semantics and in every rotation; each root's failure is the
    def_truth scan's.  On the discrete two-point space with p = {0}, K p
    misses world 1 at U = {1} and world 0 only at U = {0,1}, a later chunk
    when chunks are short: the least world still wins."""
    rng = Random(5)
    fillers = [
        SubsetModel(top, {"p": (1 << top.n) - 1, "q": rng.getrandbits(top.n)})
        for top in list(enumerate_topologies(4))[::5]
    ]
    late = SubsetModel(Topology.discrete(2), {"p": 1})
    wide = SubsetModel(Topology.indiscrete(16), {"p": 0xFFFF, "q": 0x00FF})
    models = fillers[:10] + [late] + fillers[10:40] + [wide] + fillers[40:]
    roots = [parse(text) for text in MIXED_ROOTS]
    k_p = roots[1]
    later_chunk = second_group = 0
    for kind, cls in KINDS:
        for stream, positions in _check_rotations(models, roots, kind, cls):
            groups = list(_sweep_groups(stream, kind, cls, DEFAULT_SCENARIO_BUDGET))
            assert len(groups) >= 2, (kind, cls)
            first = sum(len(run) for _, run in groups[0])
            second_group += sum(pos >= first for pos in positions)
            # the chunk of late's first pair missing each world
            (group,) = [g for g in groups if any(run[0] is late for _, run in g)]
            size = len(_passes(group)[1])
            pairs = list(_ranges(late.topology, kind, cls))
            chunk = {}
            for i, (u, v) in enumerate(pairs):
                for x in range(late.n):
                    if u >> x & 1 and not def_truth(late, x, u, v, k_p, kind):
                        chunk.setdefault(x, i // size)
            later_chunk += min(chunk) == 0 and chunk[0] > min(chunk.values())
    assert second_group >= 20, second_group
    assert later_chunk >= 20, later_chunk


def test_failure_past_the_lane_bound():
    """A same-topology run too wide for the bit cap (one lane per model
    times its two worlds) is cut into groups of at most _MAX_GROUP_BITS
    bits, and a failure in a later group is still the (model, scenario) the
    def_truth scan finds."""
    sierp = Topology.from_opens(2, [0, 1, 3])
    cap = _MAX_GROUP_BITS // 2
    models = [SubsetModel(sierp, {"p": 3}) for _ in range(cap + 100)]
    models[cap + 50] = SubsetModel(sierp, {"p": 1})
    roots = [parse(text) for text in ("p", "K p", "box p", "p -> B p", "K p -> p")]
    for kind in (Semantics.STRONG, Semantics.ED):
        widths = [
            sum(len(run) for _, run in group)
            for group in _sweep_groups(models, kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
        ]
        assert widths == [cap, 100]
        failures = sweep_validity(BatchEvaluator(roots, kind), models)
        for f in roots:
            expected = _first_failure(models, f, kind)
            hit = failures.get(f)
            got = hit and (models.index(hit.model), hit.scenario)
            assert got == expected, (kind, str(f))
        assert {str(f) for f in failures} >= {"p", "K p", "box p"}
        assert all(hit.model is models[cap + 50] for hit in failures.values())


def _search_stream(names, max_n, seed):
    """find_countermodel's models: all valuations of every topology on
    1..min(max_n, 4) points, then seeded draws of sizes 5..max_n in turn."""
    for n in range(1, min(max_n, 4) + 1):
        for top in enumerate_topologies(n):
            for masks in product(range(1 << n), repeat=len(names)):
                yield SubsetModel(top, dict(zip(names, masks)))
    if max_n > 4:
        sizes = range(5, max_n + 1)
        for draw in count():
            yield _search_model(seed + draw, sizes[draw % len(sizes)], names)


def _search_events(f, kind, cls, max_n, seed=0):
    """Each scenario of the search stream with its def_truth verdict, one by
    one, up to the first falsifying one; a model whose scenario sweep goes
    over the library's budget is skipped."""
    for model in _search_stream(sorted(atoms(f)), max_n, seed):
        try:
            if kind is Semantics.STRONG:
                scenarios = list(epistemic_scenarios(model))
            else:
                scenarios = list(ed_scenarios(model, cls))
        except BudgetError:
            continue
        for s in scenarios:
            holds = def_truth(model, s.x, s.u, s.v, f, kind)
            yield model, s, holds
            if not holds:
                return


def _counting_scan(events, budget):
    """(status, evaluations, model document, scenario) of a scan that
    counts one evaluation per scenario and stops at the budget."""
    evaluations = 0
    for model, s, holds in events:
        if evaluations >= budget:
            return "budget", evaluations, None, None
        evaluations += 1
        if not holds:
            return "found", evaluations, dump(model), s.literal()
    return "exhausted", evaluations, None, None


def _search(f, kind, cls, max_n, budget, seed=0):
    out = find_countermodel(f, kind, cls, max_n=max_n, budget=budget, seed=seed)
    model = dump(out.model) if out.model is not None else None
    return out.status, out.evaluations, model, out.scenario and out.scenario.literal()


SEARCH_ROOTS = (
    "K p -> p",
    "B p -> p",
    "B p -> ! B ! p",
    "! box p -> box ! box p",
    "B (box p | box ! box p)",
    # false first on the 25th model of the sixth run, the first on 3 worlds
    "! (hatK (p & q) & hatK (p & ! q) & hatK ! p)",
)


# a search per semantics that scans every same-topology run to 3 worlds, and
# one that finds its hit past the first run of a group
RUN_END_SEARCHES = {
    ("B (box p | box ! box p)", Semantics.STRONG, ScenarioClass.ALL),
    ("! (hatK (p & q) & hatK (p & ! q) & hatK ! p)", Semantics.STRONG, ScenarioClass.ALL),
    ("B p -> ! B ! p", Semantics.ED, ScenarioClass.CONSISTENT),
    ("B (box p | box ! box p)", Semantics.AE, ScenarioClass.ALL),
}


def test_countermodel_counts_match_a_counting_scan():
    statuses = set()
    for text in SEARCH_ROOTS:
        f = parse(text)
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            classes = [ScenarioClass.ALL] if kind is Semantics.STRONG else list(ScenarioClass)
            for cls in classes:
                events = list(_search_events(f, kind, cls, 3))
                total = _counting_scan(events, len(events))[1]
                budgets = {1, total // 2, total - 1, total, total + 1}
                if (text, kind, cls) in RUN_END_SEARCHES:
                    # the count where each run ends, and either side of it: cuts
                    # that land inside the search's groups of several runs
                    tops = [model.topology for model, _, _ in events] + [None]
                    ends = [i + 1 for i in range(len(events)) if tops[i] != tops[i + 1]]
                    budgets.update(b for end in ends for b in (end - 1, end, end + 1))
                for budget in sorted(budgets - {0}):
                    want = _counting_scan(events, budget)
                    assert _search(f, kind, cls, 3, budget) == want, (text, kind, cls, budget)
                    statuses.add(want[0])
    assert statuses == {"found", "exhausted", "budget"}


def test_countermodel_counts_match_a_counting_scan_into_the_random_phase():
    f = parse("K p -> p")
    events, exhaustive = [], None
    for event in _search_events(f, Semantics.STRONG, ScenarioClass.ALL, 5, seed=3):
        if exhaustive is None and event[0].n > 4:
            exhaustive = len(events)  # the first scenario of the random draws
        events.append(event)
        if exhaustive is not None and len(events) > exhaustive + 400:
            break
    for budget in (exhaustive - 1, exhaustive, exhaustive + 1, exhaustive + 137, exhaustive + 400):
        want = _counting_scan(events, budget)
        assert _search(f, Semantics.STRONG, ScenarioClass.ALL, 5, budget, seed=3) == want, budget
        assert want[:2] == ("budget", budget)
