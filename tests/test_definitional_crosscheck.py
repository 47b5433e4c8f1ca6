"""Differential check against a from-the-definitions evaluator.

The oracle is def_truth (tests/oracles.py), satisfaction by naive
pointwise recursion with no extensions, no caching and no sharing with the
library's evaluation path; disagreement on any scenario is a bug in one
of the two.
"""

import time
from itertools import count, product
from random import Random

from oracles import (
    SUITE_ROWS,
    brute_closure,
    contract,
    def_truth,
    ed_scenarios,
    epistemic_scenarios,
    indiscrete,
    labeled_reference,
    restrict,
    unreduced_sweeps,
)
from topobelief.formula import MODALITIES, atoms, formula_corpus, modalities, parse, postorder
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    EDScenario,
    ScenarioClass,
    SubsetModel,
    dump,
    exhaustive_models,
    random_model,
    range_pairs,
)
from topobelief import semantics, suites
from topobelief.semantics import (
    _MAX_GROUP_BITS,
    BatchEvaluator,
    Semantics,
    _passes,
    _runs,
    _search_run,
    _sweep_groups,
    find_countermodel,
    satisfies,
    sweep_validity,
)
from topobelief.suites import (
    DEFAULT_INSTANTIATION,
    Batch,
    get_suite,
    run_suite,
    soundness_batch,
    suite_names,
)
from topobelief.topology import Topology, bits, enumerate_topologies, generate_from_subbasis


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


def test_truth_is_invariant_under_contraction():
    """The contraction lemma of suites.Batch, from the definitions.

    On every two-atom model to 3 worlds, with f the map onto the quotient
    oracles.contract builds: truth at (x, U, V) equals truth at
    (f(x), f(U), f(V)) there, under strong, ed and ae, for K, box and B of
    p and of q and the corpus's two mixed formulas; and the quotient
    admits the image of every scenario the model admits, strong and under
    each class (all, consistent, dense, total).  def_truth does not read
    the class, so with the admission check this covers all 9 columns.  A
    model that is its own contraction comes back as itself, under the
    identity.  Runtime target 20 s (about 5-7 s on a 2-vCPU VM).
    """
    started = time.perf_counter()
    corpus = formula_corpus()
    formulas = corpus[4:10] + corpus[-2:]  # K, box and B of p and of q; two mixed

    def image(f, a):
        return sum(1 << c for c in {f[x] for x in range(len(f)) if a >> x & 1})

    contracted = 0
    for model in exhaustive_models(3, ("p", "q")):
        quotient, f = contract(model)
        if quotient.n == model.n:
            assert quotient == model and f == tuple(range(model.n))
            continue
        contracted += 1
        for cls in (None, *ScenarioClass):
            if cls is None:  # strong: the (x, U) scenarios
                admitted = {(s.x, s.u) for s in epistemic_scenarios(quotient)}
                mapped = {(f[s.x], image(f, s.u)) for s in epistemic_scenarios(model)}
            else:
                admitted = {(s.x, s.u, s.v) for s in ed_scenarios(quotient, cls)}
                mapped = {(f[s.x], image(f, s.u), image(f, s.v)) for s in ed_scenarios(model, cls)}
            assert mapped <= admitted, cls
        seen = {}
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            if kind is Semantics.STRONG:
                scenarios = epistemic_scenarios(model)
            else:
                scenarios = ed_scenarios(model, ScenarioClass.ALL)
            for s in scenarios:
                mapped = (f[s.x], image(f, s.u), None if s.v is None else image(f, s.v))
                for g in formulas:
                    key = (kind, mapped, g)
                    if key not in seen:
                        seen[key] = def_truth(quotient, *mapped, g, kind)
                    assert def_truth(model, s.x, s.u, s.v, g, kind) == seen[key], (
                        dump(model),
                        kind,
                        s.literal(),
                        str(g),
                    )
    assert contracted == 816  # of the 1 924
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_truth_is_invariant_under_open_subspaces():
    """The open-subspace lemma of sweep_validity, from the definitions.

    On every two-atom model to 3 worlds and every scenario (x, U, V) with
    U open and not the carrier, with M|U the subspace oracles.restrict
    builds and g its map: truth at (x, U, V) equals truth at (g(x),
    g(U), g(V)) in M|U, g(U) being its carrier, under strong, ed and ae,
    for K, box and B of p and of q and the corpus's two mixed formulas;
    and M|U admits that scenario, strong and under each class (all,
    consistent, dense, total).  def_truth does not read the class, so with
    the admission check this covers all 9 columns.  Runtime target 20 s
    (about 4 s on a 2-vCPU VM).
    """
    started = time.perf_counter()
    corpus = formula_corpus()
    formulas = corpus[4:10] + corpus[-2:]  # K, box and B of p and of q; two mixed

    def image(g, a):
        return sum(1 << g[x] for x in bits(a))

    subspaces = {}  # (model, U) -> (M|U, g)
    admitted = {}  # (M|U, class) -> the scenarios M|U admits
    truth = {}  # (M|U, kind, scenario, formula) -> truth there
    checked = 0
    for model in exhaustive_models(3, ("p", "q")):
        for cls in (None, *ScenarioClass):
            if cls is None:  # strong: the (x, U) scenarios
                scenarios = epistemic_scenarios(model)
            else:
                scenarios = ed_scenarios(model, cls)
            for s in scenarios:
                if s.u == model.topology.full:
                    continue
                if (model, s.u) not in subspaces:
                    subspaces[model, s.u] = restrict(model, s.u)
                sub, g = subspaces[model, s.u]
                if (sub, cls) not in admitted:
                    found = epistemic_scenarios(sub) if cls is None else ed_scenarios(sub, cls)
                    admitted[sub, cls] = set(found)
                v = None if s.v is None else image(g, s.v)
                mapped = EDScenario(g[s.x], image(g, s.u), v)
                assert mapped.u == sub.topology.full
                assert mapped in admitted[sub, cls], (dump(model), cls, s.literal())
                if cls not in (None, ScenarioClass.ALL):
                    continue  # every class's scenarios are among class all's
                for kind in (Semantics.STRONG,) if cls is None else (Semantics.ED, Semantics.AE):
                    for f in formulas:
                        key = (sub, kind, mapped, f)
                        if key not in truth:
                            truth[key] = def_truth(sub, mapped.x, mapped.u, mapped.v, f, kind)
                        assert def_truth(model, s.x, s.u, s.v, f, kind) == truth[key], (
                            dump(model),
                            kind,
                            s.literal(),
                            str(f),
                        )
                        checked += 1
    assert (checked, len(subspaces)) == (365_056, 4_672)  # truths checked; (M, U) pairs
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, f"runtime target exceeded: {elapsed:.1f}s"


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


SIERP = Topology.from_opens(2, [0, 1, 3])
DISC = Topology.discrete(2)
NAMES = ("p", "q", "r")  # the atoms of the hand-built streams, as their runs hold them
# one topology object comes back after another one, valuations name
# different atoms (a missing atom is false everywhere), and p first
# fails on the discrete space, before the Sierpinski space returns
REGROUPED = (
    SubsetModel(SIERP, {"p": 3, "q": 1}),
    SubsetModel(SIERP, {"p": 3, "r": 2}),
    SubsetModel(DISC, {"q": 3}),
    SubsetModel(DISC, {"p": 3}),
    SubsetModel(SIERP, {"p": 1, "r": 2}),
    SubsetModel(SIERP, {"r": 1}),
    SubsetModel(SIERP, {"p": 2, "q": 1}),
    SubsetModel(DISC, {"p": 1, "q": 3}),
)


def test_sweep_matches_scan_on_hand_built_streams():
    # p fails in lane 1 at the first range, and in lane 0 only at the second
    late_lane_zero = [SubsetModel(SIERP, {"p": 1}), SubsetModel(SIERP, {"q": 1})]
    for models in (REGROUPED, late_lane_zero):
        for kind in (Semantics.STRONG, Semantics.ED, Semantics.AE):
            _check_sweep(models, kind)


def test_runs_are_adjacent_stretches_cut_at_the_bit_cap():
    """A run of a model stream is a stretch of consecutive models of equal
    topologies (one object or many), so a topology that comes back starts
    a new run, each model's valuation the masks of the names given (a
    missing atom is 0); and a swept run holds at most _MAX_GROUP_BITS // n
    models."""
    runs = [(top, list(valuations)) for top, valuations in _runs(REGROUPED, NAMES)]
    assert [len(valuations) for _, valuations in runs] == [2, 2, 3, 1]
    assert [top for top, _ in runs] == [SIERP, DISC, SIERP, DISC]
    masks = [tuple(m.valuation.get(name, 0) for name in NAMES) for m in REGROUPED]
    assert [v for _, valuations in runs for v in valuations] == masks
    cap = _MAX_GROUP_BITS // 3
    models = [SubsetModel(Topology.discrete(3), {"p": i % 8}) for i in range(2 * cap + 5)]
    runs = _runs(models, NAMES)
    groups = _sweep_groups(runs, Semantics.STRONG, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
    assert [len(valuations) for group in groups for _, (_, valuations) in group] == [cap, cap, 5]


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
    # world 0 only later, at U={0,1}, which is the least failure of the group
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
    lanes, passes = _passes(group, NAMES)
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
            (group,) = _sweep_groups(_runs(models, NAMES), kind, cls, DEFAULT_SCENARIO_BUDGET)
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
    wide = SubsetModel(indiscrete(16), {"p": 0xFFFF, "q": 0x00FF})
    models = fillers[:10] + [late] + fillers[10:40] + [wide] + fillers[40:]
    roots = [parse(text) for text in MIXED_ROOTS]
    k_p = roots[1]
    later_chunk = second_group = 0
    for kind, cls in KINDS:
        for stream, positions in _check_rotations(models, roots, kind, cls):
            groups = list(_sweep_groups(_runs(stream, NAMES), kind, cls, DEFAULT_SCENARIO_BUDGET))
            assert len(groups) >= 2, (kind, cls)
            first = sum(len(valuations) for _, (_, valuations) in groups[0])
            second_group += sum(pos >= first for pos in positions)
            # the chunk of late's first pair missing each world (late's is the one 2-world run)
            (group,) = [g for g in groups if any(top == late.topology for _, (top, _) in g)]
            size = len(_passes(group, NAMES)[1])
            pairs = list(_ranges(late.topology, kind, cls))
            chunk = {}
            for i, (u, v) in enumerate(pairs):
                for x in range(late.n):
                    if u >> x & 1 and not def_truth(late, x, u, v, k_p, kind):
                        chunk.setdefault(x, i // size)
            later_chunk += min(chunk) == 0 and chunk[0] > min(chunk.values())
    assert second_group >= 20, second_group
    assert later_chunk >= 20, later_chunk


def test_packed_max_decodes_to_each_lanes_maximal():
    """_Lanes.maximal over one group that mixes topologies and carrier
    sizes: lane j's bits, block by block, are its own model's
    Topology.maximal, with nothing past that model's carrier; spread(1),
    cut to the n blocks, is bit 0 of every world's block.  A lone model's
    fold is 1 on a nonempty mask and its Max the plain mask."""
    rng = Random(5)
    models = [
        SubsetModel(top, {"p": rng.getrandbits(top.n)})
        for n in (3, 1, 4, 2)
        for top in list(enumerate_topologies(n))[::3]
    ]
    runs = _runs(models, NAMES)
    group = next(_sweep_groups(runs, Semantics.ED, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET))
    lanes, _ = _passes(group, NAMES)
    assert len({top.n for _, (top, _) in group}) == 4
    width, n = lanes.width, len(lanes.shifts)
    assert width > len(group) and lanes.maximal < 1 << n * width
    short = 0  # lanes whose Max is not their whole carrier
    for (_, (top, _)), start, end in zip(group, lanes.starts, lanes.starts[1:]):
        for lane in range(start, end):
            got = sum(1 << x for x in range(n) if lanes.maximal >> x * width + lane & 1)
            assert got == top.maximal, (lane, top)
            short += got != (1 << top.n) - 1
    assert short > 0
    assert lanes.spread(1) & (1 << n * width) - 1 == sum(1 << x * width for x in range(n))
    ranges, (top, valuations) = group[0]  # its first model alone is one lane, Max the plain mask
    alone, _ = _passes([(ranges, (top, valuations[:1]))], NAMES)
    assert alone.width == 1
    assert (alone.fold(top.full), alone.fold(0)) == (1, 0)
    assert alone.maximal == top.maximal


def _decoded_layout(group):
    """Each lane's (U, V) at every pass of _passes, read from the packed
    bits alone, lane by lane."""
    lanes, passes = _passes(group, NAMES)

    def mask(packed, lane):
        return sum(1 << x for x, s in enumerate(lanes.shifts) if packed >> s + lane & 1)

    lanes_seen = [[(mask(us, lane), mask(vs, lane)) for us, vs in passes] for lane in range(lanes.width)]
    return lanes, lanes_seen


def test_layout_runs_each_lanes_chunk_in_canonical_order():
    """Each lane's (U, V) at every pass, decoded from the packed bits
    alone, is its chunk of its model's pairs in canonical order, then
    (0, 0) once the chunk runs out: _group_failures reads a pair's place
    in its model's list off the lane and the pass.  Over mixed draw groups
    on 1 to 6 worlds, runs of several models with more than one chunk each,
    ae lists cut to the pairs whose V lies inside Max, ed/dense and a lone
    model, under every semantics."""
    rng = Random(7)
    draws = [random_model(seed, 1 + seed % 6) for seed in range(12)]
    tops = (random_model(20, 2).topology, random_model(21, 5).topology, Topology.discrete(3))
    runs = [SubsetModel(top, {"p": rng.getrandbits(top.n)}) for top in tops for _ in range(3)]
    clustered = [
        SubsetModel(top, {"p": rng.getrandbits(top.n)}) for top in CLUSTERED for _ in range(2)
    ]
    chunked = cut = lone = 0
    for kind, cls in KINDS:
        for models in (draws, runs, clustered, draws[4:5]):
            stream = _runs(models, NAMES)
            (group,) = _sweep_groups(stream, kind, cls, DEFAULT_SCENARIO_BUDGET)
            lists = []  # each model's pairs, in canonical order
            for model in models:
                top = model.topology
                pairs = [(u, v or 0) for u, v in _ranges(top, kind, cls)]
                if kind is Semantics.AE:  # sweep_validity's reduced ae list
                    kept = [(u, v) for u, v in pairs if v & ~top.maximal == 0]
                    cut += len(kept) < len(pairs)
                    pairs = kept
                lists.append(pairs)
            size = min(map(len, lists))
            want = []  # each lane's pairs, pass by pass
            for pairs in lists:
                for j in range(0, len(pairs), size):
                    chunk = pairs[j : j + size]
                    want.append(chunk + [(0, 0)] * (size - len(chunk)))
                chunked += len(pairs) > size
            lanes, seen = _decoded_layout(group)
            assert seen == want, (kind, cls, len(models))
            lone += lanes.width == 1
    assert chunked >= 10 and cut >= 2 and lone == len(KINDS), (chunked, cut, lone)


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
            sum(len(valuations) for _, (_, valuations) in group)
            for group in _sweep_groups(
                _runs(models, NAMES), kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET
            )
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
            top, (masks,) = _search_run(seed + draw, sizes[draw % len(sizes)], len(names))
            yield SubsetModel(top, dict(zip(names, masks)))


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


# to 4 worlds, where the search sweeps the first model of each isomorphism
# class: a hit on the 32nd topology of 4 worlds (opens {0,1} and {2,3}), past
# 23 topologies of 4 worlds it skips; an exhausted search; and a three-atom
# hit on 3 worlds, past the skipped copy of the Sierpinski space
FOUR_WORLD_SEARCHES = (
    (
        "! (hatK (box p & q) & hatK (box p & ! q) & hatK (! p & q) & hatK (! p & ! q)"
        " & hatK (box ! p))",
        Semantics.STRONG,
        ScenarioClass.ALL,
    ),
    ("K p -> p", Semantics.STRONG, ScenarioClass.ALL),
    ("! (hatK (p & q & r) & hatK (p & ! q) & hatK ! p)", Semantics.AE, ScenarioClass.DENSE),
)


def test_countermodel_counts_match_a_counting_scan_to_four_worlds():
    started = time.perf_counter()
    statuses = set()
    for text, kind, cls in FOUR_WORLD_SEARCHES:
        f = parse(text)
        events = list(_search_events(f, kind, cls, 4))
        total = len(events)
        # the last labeled runs up to the hit or the end, cut at each topology
        tops = [model.topology for model, _, _ in events]
        ends = [i + 1 for i in range(total - 1) if tops[i] != tops[i + 1]][-3:]
        budgets = {b for end in ends + [total] for b in (end - 1, end, end + 1)}
        for budget in sorted(budgets):
            want = _counting_scan(events, budget)
            assert _search(f, kind, cls, 4, budget) == want, (text, budget)
            statuses.add(want[0])
    assert statuses == {"found", "exhausted", "budget"}
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, f"runtime target exceeded: {elapsed:.1f}s"


# maximal clusters of two or more points, with points below them: {0,1}
# over 2; {0,1} and {2,3} over 4, which lies below {0,1} only; {1,2} and
# {0} over 3, which lies below {0} only
CLUSTERED = (
    generate_from_subbasis(3, [0b011]),
    generate_from_subbasis(5, [0b00011, 0b01100, 0b10011]),
    generate_from_subbasis(4, [0b0001, 0b0110, 0b1001]),
)

AE_ROOTS = MIXED_ROOTS + (
    "B p -> p",
    "B p -> B K p",
    "B (box p | box ! box p)",
    "B p -> K B p",
    "! B false",
    "B box p -> box B p",
)

REDUCED_CLASSES = (ScenarioClass.ALL, ScenarioClass.CONSISTENT, ScenarioClass.DENSE)


def _clustered_stream():
    """Every valuation of p and q on each clustered topology, the three
    interleaved, so runs of one topology come back after the others."""
    per_top = [
        [
            SubsetModel(top, {"p": vp, "q": vq})
            for vp in range(1 << top.n)
            for vq in range(0, 1 << top.n, 3)
        ]
        for top in CLUSTERED
    ]
    out = []
    for k in range(0, max(len(models) for models in per_top), 16):
        for models in per_top:
            out += models[k : k + 16]
    return out


def test_clustered_spaces_have_points_outside_max():
    for top in CLUSTERED:
        clusters = {top.min_neighborhoods[x] for x in range(top.n) if top.maximal >> x & 1}
        assert max(c.bit_count() for c in clusters) >= 2
        assert top.maximal != top.full
    for cls in REDUCED_CLASSES:
        full = sum(len(range_pairs(top, cls)) for top in CLUSTERED)
        kept = sum(v & ~top.maximal == 0 for top in CLUSTERED for _, v in range_pairs(top, cls))
        assert kept < full, cls


def test_reduced_ae_sweeps_match_full_sweeps(monkeypatch):
    """sweep_validity's ae sweeps, which visit only the pairs whose V lies
    inside Max (every pair under total, where V = U), find every root's
    failure of the full layout, and each failure replays false under
    def_truth: over the interleaved stream, each topology's own stream,
    and each model alone."""
    models = _clustered_stream()
    streams = [models] + [[m for m in models if m.topology == top] for top in CLUSTERED]
    streams += [[m] for m in models]
    roots = [parse(text) for text in AE_ROOTS]

    def sweeps():
        return [
            sweep_validity(BatchEvaluator(roots, Semantics.AE), stream, cls)
            for cls in ScenarioClass
            for stream in streams
        ]

    reduced = sweeps()
    unreduced_sweeps(monkeypatch)
    full = sweeps()
    outside = failures = 0  # failures, and those at a world outside Max
    for got, want in zip(reduced, full):
        assert got.keys() == want.keys()
        for f, hit in want.items():
            assert got[f].model is hit.model and got[f].scenario == hit.scenario, str(f)
            s = hit.scenario
            assert not def_truth(hit.model, s.x, s.u, s.v, f, Semantics.AE), str(f)
            failures += 1
            outside += not hit.model.topology.maximal >> s.x & 1
    assert failures >= 1000 and outside >= 100, (failures, outside)


def test_strong_sweeps_match_scan_where_max_is_not_the_carrier():
    """Strong B reads U ∩ Max, the ae clause at V = U.  Over the clustered
    stream, whose maximal clusters have points below them, each root's
    strong sweep failure is the def_truth scan's, whose B reads
    U inside cl(int(ext)), in every rotation of the stream."""
    models = _clustered_stream()
    roots = [parse(text) for text in AE_ROOTS]
    kind, cls = Semantics.STRONG, ScenarioClass.ALL
    later_lanes = 0
    for _, positions in _check_rotations(models, roots, kind, cls):
        later_lanes += sum(pos > 0 for pos in positions)
    failed = set(sweep_validity(BatchEvaluator(roots, kind), models, cls))
    belief = {f for f in roots if "B" in modalities(f)}
    assert len(failed & belief) >= 3 and belief - failed, sorted(map(str, failed))
    assert later_lanes >= 1000, later_lanes


def test_strong_belief_agrees_on_random_models_of_five_to_eight_worlds():
    """Single-lane satisfies against def_truth for every corpus formula
    with a B, at every epistemic scenario of random models larger than the
    gate's criterion 04 reaches, where Max is not the carrier."""
    corpus = [f for f in formula_corpus() if "B" in modalities(f)]
    draws = [random_model(seed, n) for n in range(5, 9) for seed in range(3)]
    # def_truth's box ranges over the open family: a draw of 72 opens takes it seconds
    draws = [model for model in draws if len(model.topology.opens) <= 30]
    assert len({model.n for model in draws}) == 4 and len(draws) >= 10
    assert all(model.topology.maximal != model.topology.full for model in draws)
    for model in draws:
        for s in epistemic_scenarios(model):
            for f in corpus:
                ours = satisfies(model, s, f, Semantics.STRONG)
                naive = def_truth(model, s.x, s.u, None, f, Semantics.STRONG)
                assert ours == naive, (dump(model), s.literal(), str(f))


def test_reduced_ae_suite_reports_match_full_reports():
    """Every suite under ae with class all, consistent and dense gives the
    same report bytes over the reduced and the full layout: the batch's
    labeled stream swept over its full pair lists, read from the one
    reference run per batch, oracles.labeled_reference, that the
    tests/test_suites.py report pins share."""
    reduced, full = [], []
    for batch in (soundness_batch(), Batch(exhaustive_n=3)):
        pin = labeled_reference(batch)
        for (_, kind, cls), ours, theirs in zip(SUITE_ROWS, pin.reduced, pin.reference):
            if kind is Semantics.AE and cls in REDUCED_CLASSES:
                reduced.append(ours)
                full.append(theirs)
    assert full == reduced
    assert len(reduced) == 2 * 7 * 3
    assert any('"countermodel"' in report for report in reduced)


def _class_scenarios(model, kind, cls):
    if kind is Semantics.STRONG:
        return list(epistemic_scenarios(model))
    return list(ed_scenarios(model, cls))


def test_necessitation_is_sound_model_by_model():
    """Wherever a premise holds at every scenario of one model, its K, box
    and B do too, under every semantics and class, by def_truth: the
    argument run_suite reads its rule rows from.  Every default premise and
    a few formulas valid on every model, on every model of
    Batch(exhaustive_n=2).  Runtime target 10 s."""
    started = time.perf_counter()
    premises = DEFAULT_INSTANTIATION + tuple(map(parse, ("true", "p | ! p", "K p -> p")))
    cases = [(Semantics.STRONG, ScenarioClass.ALL)]
    cases += [(kind, cls) for kind in (Semantics.ED, Semantics.AE) for cls in ScenarioClass]
    checked = 0
    for model in Batch(exhaustive_n=2).models():
        for kind, cls in cases:
            scenarios = _class_scenarios(model, kind, cls)
            for f in premises:
                if not all(def_truth(model, s.x, s.u, s.v, f, kind) for s in scenarios):
                    continue
                for op in MODALITIES.values():
                    for s in scenarios:
                        assert def_truth(model, s.x, s.u, s.v, op(f), kind), (
                            dump(model), kind, cls, s.literal(), str(op(f))
                        )
                        checked += 1
    assert checked >= 40_000, checked  # 42 807 scenario checks of 3 199 valid premises
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_suite_traces_read_only_their_instance(monkeypatch):
    """Every witness trace of every suite x semantics x class on a small
    exhaustive-plus-random batch equals a trace from a fresh engine of its
    instance alone, and its one pass evaluates exactly the instance's
    nodes of the larger suite engine; each entry agrees with def_truth."""
    calls = []

    def recording(engine, model, f, s):
        calls.append((engine, model, f, s))
        return semantics._trace(engine, model, f, s)

    monkeypatch.setattr(suites, "_trace", recording)
    batch = Batch(exhaustive_n=2, seeds=(1, 2, 3), sizes=(3, 4, 3))
    for name in suite_names():
        for kind in Semantics:
            for cls in ScenarioClass:
                run_suite(get_suite(name), batch, semantics=kind, scenario_class=cls)
    monkeypatch.undo()
    assert len(calls) >= 100, len(calls)

    evaluated = []
    real_run = BatchEvaluator._run

    def counting(self, lanes, packed, us, vs, vals, order):
        order = list(order)
        evaluated.append(len(order))
        real_run(self, lanes, packed, us, vs, vals, order)

    for engine, model, inst, s in calls:
        subs = postorder(inst)
        assert len(engine.nodes) > len(subs)
        evaluated.clear()
        monkeypatch.setattr(BatchEvaluator, "_run", counting)
        trace = semantics._trace(engine, model, inst, s)
        monkeypatch.undo()
        assert evaluated == [len(subs)], (str(inst), evaluated)
        assert trace == semantics._trace(BatchEvaluator((inst,), engine.kind), model, inst, s)
        truth = {str(g): def_truth(model, s.x, s.u, s.v, g, engine.kind) for g in subs}
        assert dict(trace) == truth, (str(inst), s.literal())
