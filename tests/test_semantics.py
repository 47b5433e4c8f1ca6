import functools
import gc
import inspect
import itertools
import operator
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    CHAIN_SIZES,
    canonical_form,
    chain_mismatches,
    def_truth,
    ed_scenarios,
    epistemic_scenarios,
    isomorph_free,
    isomorphic,
    model_form,
    relabelings,
    source_models,
    unreduced_sweeps,
)
from topobelief import semantics
from topobelief.formula import (
    ALPHA_MAP,
    CONNECTIVES,
    Atom,
    Bel,
    E_MAP,
    Meta,
    Not,
    formula_corpus,
    get_scheme,
    parse,
    postorder,
    translate,
)
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    EDScenario,
    ModelError,
    ScenarioClass,
    SubsetModel,
    _contraction_size,
    _isomorph_free_models,
    dump,
    exhaustive_models,
    parse_scenario,
    random_model,
    range_pairs,
)
from topobelief.semantics import (
    _MAX_GROUP_BITS,
    BatchEvaluator,
    Evaluator,
    Semantics,
    SemanticsError,
    _passes,
    _runs,
    _sweep_groups,
    _values,
    extension,
    find_countermodel,
    satisfies,
    sweep_validity,
    valid_in_model,
)
from topobelief.suites import (
    DEFAULT_INSTANTIATION,
    Batch,
    expected_failures,
    get_suite,
    run_suite,
    scheme_instances,
    soundness_batch,
    suite_names,
)
from topobelief.topology import MAX_WORLDS, Topology, _classes, bits, enumerate_topologies

STRONG, ED, AE = Semantics.STRONG, Semantics.ED, Semantics.AE
NAMES = ("p", "q")  # the atoms of random_model, as a model stream's runs hold them


class TestExtension:
    def test_top_is_the_epistemic_range(self, sierpinski, wedge):
        for m in (sierpinski, wedge):
            for u in m.topology.opens:
                assert extension(m, parse("true"), STRONG, u) == u

    def test_unfalsifiable_atom(self, sierpinski):
        # p true only at 0, whose closure covers both worlds
        assert extension(m := sierpinski, parse("dia p"), STRONG, 0b11) == 0b11

    def test_knowable_atom(self, sierpinski):
        assert extension(sierpinski, parse("box p"), STRONG, 0b11) == 0b01

    def test_kind_range_mismatch(self, sierpinski):
        with pytest.raises(SemanticsError):
            extension(sierpinski, parse("p"), STRONG, 0b11, 0b01)
        with pytest.raises(SemanticsError):
            extension(sierpinski, parse("p"), ED, 0b11)

    def test_kind_range_mismatch_on_a_compiled_formula(self, sierpinski):
        # the range check comes before the engine's index is read
        f = parse("B p")
        for kind in (ED, AE):
            ev = Evaluator(sierpinski, kind)
            ev.extension(f, 0b11, 0b01)
            for g in (f, parse("p")):
                with pytest.raises(SemanticsError, match="needs a doxastic range"):
                    ev.extension(g, 0b11)
        ev = Evaluator(sierpinski, STRONG)
        ev.extension(f, 0b11)
        for g in (f, parse("p")):
            with pytest.raises(SemanticsError, match="takes no doxastic range"):
                ev.extension(g, 0b11, 0b01)

    def test_non_open_range_rejected(self, sierpinski):
        with pytest.raises(SemanticsError):
            extension(sierpinski, parse("p"), STRONG, 0b10)

    def test_doxastic_range_must_be_an_open_subset(self, wedge):
        message = "doxastic range must be an open subset of the epistemic range"
        with pytest.raises(SemanticsError, match=message):  # {2} is not open
            extension(wedge, parse("p"), ED, 0b111, 0b100)
        with pytest.raises(SemanticsError, match=message):  # {1} is open, outside {0}
            extension(wedge, parse("p"), ED, 0b001, 0b010)

    @pytest.mark.parametrize(
        "u, v, message",
        [
            (0b100001, None, "epistemic range: world 5 out of range 0..1"),
            (-1, None, "epistemic range: world 2 out of range 0..1"),
            (0b11, 0b101, "doxastic range: world 2 out of range 0..1"),
        ],
    )
    def test_range_past_the_carrier_names_its_world(self, sierpinski, u, v, message):
        kind = STRONG if v is None else ED
        with pytest.raises(SemanticsError, match=f"^{message}$"):
            extension(sierpinski, parse("p"), kind, u, v)
        with pytest.raises(ModelError, match=f"^{message}$"):
            satisfies(sierpinski, EDScenario(0, u, v), parse("p"), kind)


class TestDeepChain:
    """B ! B ! ... p, 5 000 deep, compiles and evaluates like any formula."""

    DEPTH = 5_000

    @pytest.fixture(scope="class")
    def chain(self):
        f = Atom("p")
        for _ in range(self.DEPTH):
            f = Bel(Not(f))
        return f

    def test_compiles_every_node_in_postorder(self, chain):
        started = time.perf_counter()
        for kind in Semantics:
            engine = BatchEvaluator([chain], kind)
            assert len(engine.nodes) == 2 * self.DEPTH + 1
            assert [engine.index[g] for g in postorder(chain)] == list(range(2 * self.DEPTH + 1))
            assert engine.roots == {chain: 2 * self.DEPTH}
        elapsed = time.perf_counter() - started
        assert elapsed < 3.0, f"runtime target exceeded: {elapsed:.2f}s"

    @pytest.mark.parametrize("kind", list(Semantics))
    def test_extension_and_satisfies_match_a_loop(self, chain, kind):
        """The expectation steps one level at a time: B ! q with q valued
        as the level below, at the same ranges."""
        model = random_model(4, 5)
        step = Bel(Not(Atom("q")))
        pairs = range_pairs(model.topology, None if kind is STRONG else ScenarioClass.ALL)
        started = time.perf_counter()
        for u, v in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
            ext = Evaluator(model, kind).extension(Atom("p"), u, v)
            for _ in range(self.DEPTH):
                ext = Evaluator(SubsetModel(model.topology, {"q": ext}), kind).extension(step, u, v)
            assert Evaluator(model, kind).extension(chain, u, v) == ext
            for x in bits(u):
                assert satisfies(model, EDScenario(x, u, v), chain, kind) == bool(ext >> x & 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.2f}s"


class TestSatisfies:
    def test_false_belief_scenario(self, sierpinski):
        s = parse_scenario("x=1;U=0,1")
        assert satisfies(sierpinski, s, parse("B p"), STRONG)
        assert not satisfies(sierpinski, s, parse("K p"), STRONG)
        assert not satisfies(sierpinski, s, parse("p"), STRONG)
        assert satisfies(sierpinski, s, parse("dia p"), STRONG)
        assert satisfies(sierpinski, s, parse("B p -> dia p"), STRONG)

    def test_consistent_weak_factivity_failure(self, discrete2):
        # discrete space, p true at 1 only, conjecture {1}: belief without dia
        s = parse_scenario("x=0;U=0,1;V=1")
        assert satisfies(discrete2, s, parse("B p"), ED)
        assert not satisfies(discrete2, s, parse("dia p"), ED)

    def test_dense_confident_belief_failure(self, wedge):
        s = parse_scenario("x=0;U=0,1,2;V=0,1,2")
        assert wedge.topology.is_dense_in(s.v, s.u)
        cb = parse("B (box p | box ! box p)")
        assert not satisfies(wedge, s, cb, ED)
        assert extension(wedge, parse("box p | box ! box p"), ED, s.u, s.v) == 0b011

    def test_scenario_shape_enforced(self, sierpinski):
        with pytest.raises(Exception):
            satisfies(sierpinski, EDScenario(0, 0b01, 0b01), parse("p"), STRONG)
        with pytest.raises(Exception):
            satisfies(sierpinski, EDScenario(0, 0b01), parse("p"), ED)


class TestValidInModel:
    def test_knowledge_factivity_everywhere(self, sierpinski, wedge, indiscrete2):
        for m in (sierpinski, wedge, indiscrete2):
            assert valid_in_model(m, parse("K p -> p"), STRONG).valid

    def test_atom_to_knowable_fails_at_coboundary(self):
        m = SubsetModel(Topology.from_opens(2, [0, 0b01, 0b11]), {"p": 0b10})
        verdict = valid_in_model(m, parse("p -> box p"), STRONG)
        assert not verdict.valid
        assert verdict.witness.scenario.literal() == "x=1;U=0,1"
        trace = dict(verdict.witness.trace)
        assert trace["p"] is True and trace["box p"] is False

    def test_witness_replays(self, wedge):
        f = parse("box p | box ! box p")
        verdict = valid_in_model(wedge, f, STRONG)
        assert not verdict.valid
        assert not satisfies(wedge, verdict.witness.scenario, f, STRONG)

    def test_strong_sweeps_charge_the_budget(self, wedge):
        # 5 opens on 3 worlds cost 15 under strong semantics
        f = parse("K p -> p")
        assert valid_in_model(wedge, f, STRONG, budget=15).valid
        with pytest.raises(BudgetError, match="cost 15 exceeds budget 14"):
            valid_in_model(wedge, f, STRONG, budget=14)
        with pytest.raises(BudgetError, match="cost 15 exceeds budget 14"):
            sweep_validity(BatchEvaluator((f,), STRONG), [wedge], budget=14)

    def test_reduction_equivalence_small(self):
        eqv = parse("B p <-> K dia box p")
        for n in (1, 2):
            for top in enumerate_topologies(n):
                for mask in range(1 << n):
                    m = SubsetModel(top, {"p": mask})
                    assert valid_in_model(m, eqv, STRONG).valid


class TestClauseIdentities:
    def test_dia_is_closure_within_range(self):
        # the dual clause, computed through the closure operator directly
        corpus = formula_corpus()[:40]
        for seed in (1, 5, 9):
            m = random_model(seed, 4)
            ev = Evaluator(m, STRONG)
            for u in m.topology.opens:
                for f in corpus:
                    ext = ev.extension(f, u)
                    dia_ext = ev.extension(parse("! box ! (" + str(f) + ")"), u)
                    assert dia_ext == m.topology.closure(ext) & u

    def test_box_extension_is_interior(self):
        for seed in (2, 3):
            m = random_model(seed, 4)
            ev = Evaluator(m, STRONG)
            for u in m.topology.opens:
                for f in formula_corpus()[:25]:
                    from topobelief.formula import Box

                    assert ev.extension(Box(f), u) == m.topology.interior(ev.extension(f, u))

    def test_eval_membership_coherence(self):
        # truth at a scenario is exactly membership in the extension, over
        # every topology up to three points and both scenario shapes
        corpus = formula_corpus()[:20]
        for n in (1, 2, 3):
            for top in enumerate_topologies(n):
                for vp in (0b01 & top.full, 0b110 & top.full):
                    m = SubsetModel(top, {"p": vp, "q": 0b10 & top.full})
                    strong = Evaluator(m, STRONG)
                    for s in epistemic_scenarios(m):
                        for f in corpus:
                            assert satisfies(m, s, f, STRONG) == bool(
                                strong.extension(f, s.u) >> s.x & 1
                            )
                    ed = Evaluator(m, ED)
                    for s in ed_scenarios(m, ScenarioClass.ALL):
                        for f in corpus[:10]:
                            assert satisfies(m, s, f, ED) == bool(
                                ed.extension(f, s.u, s.v) >> s.x & 1
                            )

    def test_bottom_equals_contradiction(self):
        for seed in range(5):
            m = random_model(seed, 3)
            for kind in (STRONG, ED):
                cls = ScenarioClass.ALL
                assert valid_in_model(m, parse("false <-> (p & ! p)"), kind, cls).valid

    def test_ed_belief_extension_is_all_or_nothing(self):
        for seed in range(8):
            m = random_model(seed, 4)
            ev = Evaluator(m, ED)
            for u, v in range_pairs(m.topology, ScenarioClass.ALL):
                for f in formula_corpus()[:20]:
                    assert ev.extension(Bel(f), u, v) in (u, 0)

    def test_ed_belief_introspection_schemes(self):
        spi = parse("B p -> K B p")
        sni = parse("! B p -> K ! B p")
        for seed in range(6):
            m = random_model(seed, 4)
            assert valid_in_model(m, spi, ED, ScenarioClass.ALL).valid
            assert valid_in_model(m, sni, ED, ScenarioClass.ALL).valid


class TestReductionOracle:
    def test_strong_belief_agrees_with_translation(self):
        # the direct dense-interior clause vs the eliminated form: the two
        # independent routes must agree at every scenario
        corpus = formula_corpus()[:45]
        for seed in (0, 4, 11):
            m = random_model(seed, 4)
            ev = Evaluator(m, STRONG)
            for u in m.topology.opens:
                if u == 0:
                    continue
                for f in corpus:
                    assert ev.extension(Bel(f), u) == ev.extension(
                        translate(Bel(f), E_MAP), u
                    )

    def test_total_range_recovers_strong(self):
        corpus = formula_corpus()
        models = [
            SubsetModel(top, {"p": vp, "q": vq})
            for n in (1, 2)
            for top in enumerate_topologies(n)
            for vp in range(1 << n)
            for vq in range(1 << n)
        ]
        models += [random_model(seed, 4) for seed in range(6)]
        for m in models:
            strong = Evaluator(m, STRONG)
            ae = Evaluator(m, AE)
            for u in m.topology.opens:
                if u == 0:
                    continue
                for f in corpus:
                    assert ae.extension(f, u, u) == strong.extension(f, u)

    def test_alpha_bridges_ae_into_ed(self):
        corpus = formula_corpus()[:45]
        for seed in (3, 7):
            m = random_model(seed, 3)
            ae = Evaluator(m, AE)
            ed = Evaluator(m, ED)
            for u, v in range_pairs(m.topology, ScenarioClass.ALL):
                for f in corpus:
                    assert ae.extension(f, u, v) == ed.extension(translate(f, ALPHA_MAP), u, v)


class TestFindCountermodel:
    def test_box_negative_introspection_fails_small(self):
        out = find_countermodel(parse("! box p -> box ! box p"), STRONG, max_n=3)
        assert out.status == "found"
        assert out.model.n <= 3
        assert not satisfies(out.model, out.scenario, parse("! box p -> box ! box p"), STRONG)

    def test_belief_consistency_fails_with_empty_conjecture(self):
        out = find_countermodel(parse("B p -> ! B ! p"), ED, ScenarioClass.ALL, max_n=2)
        assert out.status == "found"
        assert out.scenario.v == 0

    def test_knowledge_factivity_is_exhausted(self):
        out = find_countermodel(parse("K p -> p"), STRONG, max_n=3)
        assert out.status == "exhausted"

    def test_budget_exhaustion_is_distinct(self):
        out = find_countermodel(parse("K p -> p"), STRONG, max_n=3, budget=50)
        assert out.status == "budget"
        assert out.evaluations == 50

    def test_budget_monotonicity(self):
        f = parse("! box p -> box ! box p")
        small = find_countermodel(f, STRONG, max_n=3, budget=5_000, seed=1)
        large = find_countermodel(f, STRONG, max_n=3, budget=50_000, seed=1)
        assert small.status == large.status == "found"
        assert small.scenario == large.scenario
        assert small.model.topology.opens == large.model.topology.opens
        assert small.model.valuation == large.model.valuation

    def test_random_phase_reaches_larger_models(self):
        # a formula false everywhere fails immediately in the random phase too
        out = find_countermodel(parse("false"), STRONG, max_n=6, seed=2)
        assert out.status == "found"

    def test_max_n_validation(self):
        with pytest.raises(SemanticsError):
            find_countermodel(parse("p"), STRONG, max_n=0)

    def test_search_past_the_lane_bound(self):
        # five atoms give 32 768 valuations per 3-point topology, 8 runs of
        # 4 096; the first failure is valuation 12 800 of the indiscrete
        # space, lane 512 of its fourth run
        f = parse(
            "! (hatK (a & b) & hatK (a & ! b) & hatK ! a)"
            " | (c & ! c) | (d & ! d) | (e & ! e)"
        )
        out = find_countermodel(f, STRONG, max_n=3)
        assert out.status == "found"
        assert out.scenario == parse_scenario("x=0;U=0,1,2")
        assert out.model.topology.opens == (0, 0b111)
        assert out.model.valuation == {"a": 0b011, "b": 0b001, "c": 0, "d": 0, "e": 0}
        # n = 1: 32 models × 1 scenario; n = 2: 1 024 valuations × (2 + 3 + 3
        # + 4) scenarios; then 12 800 indiscrete models × 3 and the hit
        assert out.evaluations == 32 + 12_288 + 12_800 * 3 + 1 == 50_721
        short = find_countermodel(f, STRONG, max_n=3, budget=50_720)
        assert (short.status, short.evaluations) == ("budget", 50_720)

    def test_no_drawn_topology_outlives_a_search(self):
        def live_large_topologies():
            gc.collect()
            return sum(
                1 for obj in gc.get_objects() if isinstance(obj, Topology) and obj.n > 4
            )

        before = live_large_topologies()
        # the exhaustive part is 354 708 evaluations, so random draws follow
        out = find_countermodel(parse("K p -> p"), ED, max_n=8, budget=400_000)
        assert out.status == "budget"
        assert live_large_topologies() == before

    # the first draws cost 10, 39, 14 and 43 scenarios: the last one drawn ends the
    # search, and a budget spent exactly by a draw draws no further model
    @pytest.mark.parametrize("extra, draws", [(10, 1), (49, 2), (63, 3), (100, 4)])
    def test_every_draw_is_swept(self, monkeypatch, extra, draws):
        from topobelief import semantics

        f = parse("K p -> p")
        exhaustive = find_countermodel(f, STRONG, max_n=4).evaluations
        drawn, swept = [], []  # each draw's topology is an object of its own
        draw, sweep = semantics._search_run, semantics._group_failures

        def recording_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def recording_sweep(engine, runs, *laid):
            swept.extend(top for _, (top, _) in runs)
            return sweep(engine, runs, *laid)

        monkeypatch.setattr(semantics, "_search_run", recording_draw)
        monkeypatch.setattr(semantics, "_group_failures", recording_sweep)
        out = find_countermodel(f, STRONG, max_n=6, budget=exhaustive + extra)
        assert out.status == "budget"
        assert len(drawn) == draws
        assert [any(top is run[0] for top in swept) for run in drawn] == [True] * draws

    def test_a_random_hunt_builds_at_most_one_model_per_draw(self, monkeypatch):
        """The random phase draws runs, not models: the random K p -> p hunt
        (seed 1, max_n 10, budget 200 000) makes 228 draws and builds one
        SubsetModel per draw, random_model's, whose topology it keeps; the
        draw's masks come from its own generator, and no model is built
        from them."""
        from topobelief import semantics

        built, drawn = [], []
        check, draw = SubsetModel.__init__, semantics._search_run

        def spy(model, *args):
            built.append(model)
            check(model, *args)

        def counting_draw(*args):
            drawn.append(args)
            return draw(*args)

        monkeypatch.setattr(SubsetModel, "__init__", spy)
        monkeypatch.setattr(semantics, "_search_run", counting_draw)
        out = find_countermodel(parse("K p -> p"), STRONG, max_n=10, budget=200_000, seed=1)
        assert out.status == "budget"
        assert len(drawn) == 228
        assert len(built) <= len(drawn)

    @pytest.mark.parametrize("text, kind", [("K p -> p", STRONG), ("B (box p | box ! box p)", AE)])
    def test_a_hunt_sweeps_growing_groups(self, monkeypatch, text, kind):
        # one sweep per same-topology run would be 46 sweeps to 4 worlds, a run
        # per homeomorphism class (389 on the labeled stream); grown groups take 7
        from topobelief import semantics

        sizes, sweep = [], semantics._group_failures

        def recording_sweep(engine, runs, *laid):
            sizes.append(len(runs))
            return sweep(engine, runs, *laid)

        monkeypatch.setattr(semantics, "_group_failures", recording_sweep)
        out = find_countermodel(parse(text), kind, max_n=4, budget=10**6)
        assert out.status == "exhausted"
        assert len(sizes) <= 16
        assert sizes[0] == 1
        assert all(size <= sum(sizes[:i]) for i, size in enumerate(sizes) if i)

    def test_random_phase_draws_cover_the_formula_atoms(self):
        from topobelief.semantics import _search_run

        top, (masks,) = _search_run(11, 6, 2)
        again, (again_masks,) = _search_run(11, 6, 2)
        assert masks == again_masks
        assert len(masks) == 2
        assert top.opens == again.opens
        # over a few draws the valuations are not all degenerate
        assert any(any(_search_run(s, 5, 1)[1][0]) for s in range(5))


def _assert_oracle_bits(m, kind, u, v, f, ext):
    """ext is the definitional extension of f under (u, v), world by world."""
    for x in range(m.n):
        want = bool(u >> x & 1) and def_truth(m, x, u, v, f, kind)
        assert bool(ext >> x & 1) == want, (kind.value, x, u, v, str(f))


def _lane_values(engine, lanes, passes, models):
    """Each lane's model, U, V and every node's value, decoded to plain
    subset masks, at each of the passes where the lane has a (U, V) pair;
    models are the group's models, in stream order.

    Checks on the way that at every pass every node value of every lane,
    one out of pairs included, is empty at the worlds past that lane's own
    carrier: the wide closure, the dual of interior over every world of
    the padded carrier, is exact only then."""
    stream = iter(models)
    models = [
        model
        for (_, valuations), c in lanes.runs
        for model in itertools.islice(stream, len(valuations))
        for _ in range(c)
    ]

    def mask(packed, lane):
        return sum(1 << x for x, s in enumerate(lanes.shifts) if packed >> s + lane & 1)

    for (us, vs), vals in zip(passes, _values(engine, lanes, passes)):
        for lane, model in enumerate(models):
            padded = [s + lane for s in lanes.shifts[model.n :]]
            assert not any(val >> b & 1 for val in vals for b in padded), (lane, model.n)
            u = mask(us, lane)
            if u:
                yield model, u, mask(vs, lane), [mask(val, lane) for val in vals]


# the corpus's first 30 formulas, and binary roots that read the doxastic
# range through one side only
AGREEMENT_CORPUS = formula_corpus()[:30] + tuple(
    parse(t) for t in ("p -> B p", "B q & q", "box p <-> K B p")
)


class TestBatchEvaluatorAgreement:
    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_evaluator(self, seed, n):
        """Every node value of every lane of the sweep's passes against
        def_truth: a group of random models on 2, 3 and 4 worlds, whose
        lanes run the wide interior and closure, and a lone model on n
        worlds, one lane on plain subset masks.  Each model's lanes cover
        its full range pairs exactly (oracles.unreduced_sweeps), the ae
        pairs whose V is outside Max included."""
        group = [random_model(seed + 1 + i, 2 + (n + i) % 3) for i in range(3)]
        lone = [random_model(seed, n)]
        for kind in (STRONG, ED, AE):
            engine = BatchEvaluator(AGREEMENT_CORPUS, kind)
            cls = None if kind is STRONG else ScenarioClass.ALL
            for models in (group, lone):
                stream = _runs(models, NAMES)
                with pytest.MonkeyPatch.context() as patch:
                    unreduced_sweeps(patch)
                    (runs,) = _sweep_groups(stream, kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
                lanes, passes = _passes(runs, NAMES)
                assert (lanes.width == 1) == (models is lone)
                seen = {id(m): set() for m in models}
                for m, u, v, masks in _lane_values(engine, lanes, passes, models):
                    v = None if kind is STRONG else v
                    seen[id(m)].add((u, v))
                    for f, idx in engine.index.items():
                        _assert_oracle_bits(m, kind, u, v, f, masks[idx])
                for m in models:
                    assert seen[id(m)] == set(range_pairs(m.topology, cls)), kind.value

    def test_one_lane_passes_match_values(self):
        """base_pass and overlay_pass, which the benchmark's probes and
        spans time, give a lone model's one-lane _values, node for node,
        on its full range pairs (oracles.unreduced_sweeps), the ae pairs
        whose V is outside Max included."""
        for seed in range(6):
            m = random_model(seed, 2 + seed % 4)
            for kind in (STRONG, ED, AE):
                engine = BatchEvaluator(AGREEMENT_CORPUS, kind)
                stream = _runs([m], NAMES)
                with pytest.MonkeyPatch.context() as patch:
                    unreduced_sweeps(patch)
                    (runs,) = _sweep_groups(stream, kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
                lanes, passes = _passes(runs, NAMES)
                assert lanes.width == 1
                for (u, v), vals in zip(passes, _values(engine, lanes, passes)):
                    got = engine.base_pass(m, u)
                    engine.overlay_pass(m, u, v, got)
                    assert got == vals, (seed, kind.value, u, v)

    def test_growing_evaluator_matches_oracle(self):
        """One Evaluator per model and semantics, asked formula by formula.

        Later formulas share subformulas with earlier ones after a range
        pair's value list exists, and v alternates under one u, so a fill-up
        that skipped newly compiled nodes would show.
        """
        texts = (
            "p",
            "B p",
            "box B p -> q",
            "q",
            "K (p & q) | B p",
            "! box B p <-> B ! q",
            "B p",
            "K B (p -> q) & box (p -> q)",
        )
        for seed in range(8):
            m = random_model(seed, 2 + seed % 3)
            for kind in (STRONG, ED, AE):
                if kind is STRONG:
                    pairs = [(u, None) for u in m.topology.opens]
                else:
                    pairs = range_pairs(m.topology, ScenarioClass.ALL)
                ev = Evaluator(m, kind)
                for k, text in enumerate(texts):
                    f = parse(text)
                    for u, v in pairs if k % 2 else reversed(pairs):
                        _assert_oracle_bits(m, kind, u, v, f, ev.extension(f, u, v))

    def test_sweep_finds_nothing_on_sound_schemes(self):
        roots = (parse("K p -> p"), parse("B p -> K B p"))
        engine = BatchEvaluator(roots, STRONG)
        models = [random_model(seed, 4) for seed in range(10)]
        assert sweep_validity(engine, models) == {}

    def test_sweep_budget_order(self, wedge):
        """A model over the budget raises only if a root is still live when
        the stream reaches it: models before it are swept first, and none
        after it are charged up front."""
        point = Topology.discrete(1)
        fails_all = SubsetModel(point, {})  # p false at the only world
        fails_none = SubsetModel(point, {"p": 1})
        roots = (parse("p"), parse("K p"), parse("B p"))
        # the wedge's 5 opens on 3 worlds cost 15 under strong, 75 under ed
        for kind, budget in ((STRONG, 14), (ED, 74)):
            engine = BatchEvaluator(roots, kind)
            failures = sweep_validity(engine, [fails_all, wedge], budget=budget)
            assert set(failures) == set(roots)
            assert all(hit.model is fails_all for hit in failures.values())
            # "K p -> p" never fails, so it is live when the wedge comes
            engine = BatchEvaluator(roots + (parse("K p -> p"),), kind)
            for stream in ([wedge, fails_all], [fails_none, wedge], [fails_all, fails_all, wedge]):
                with pytest.raises(BudgetError, match=f"exceeds budget {budget}"):
                    sweep_validity(engine, stream, budget=budget)

    def test_sweep_without_roots_reads_no_model(self, wedge):
        """An engine with no roots has no failure to find: the sweep returns
        at once, so no model is charged, even at budget 0."""
        engine = BatchEvaluator((), STRONG)
        assert sweep_validity(engine, [wedge], budget=0) == {}

    def test_sweep_failure_replays(self, wedge):
        f = parse("box p | box ! box p")
        engine = BatchEvaluator((f,), STRONG)
        failures = sweep_validity(engine, [wedge])
        assert f in failures
        hit = failures[f]
        assert not satisfies(hit.model, hit.scenario, f, STRONG)


class TestLaneWork:
    """The work of lane groups, read off the engine's passes."""

    @staticmethod
    def _spied_passes(monkeypatch):
        """(lanes, packed U) of every pass the engine runs from here on: a
        pass runs the nodes that read V once, or the base nodes when none
        does (under strong every pass changes some lane's U, so none is
        skipped)."""
        seen = []
        run = BatchEvaluator._run

        def spy(engine, lanes, atoms, us, vs, vals, order):
            if order is engine.overlay_order or not engine.overlay_order:
                seen.append((lanes, us))
            return run(engine, lanes, atoms, us, vs, vals, order)

        monkeypatch.setattr(BatchEvaluator, "_run", spy)
        return seen

    @classmethod
    def _groups(cls, monkeypatch, name, kind, scenario_class, batch):
        """Per lane group of the suite's run on the batch: its lanes, the
        lane-passes that carry a real (U, V) pair (a lane out of pairs runs
        at U = 0), and all its lane-passes."""
        suite = get_suite(name)
        assert (suite.semantics, suite.scenario_class) == (kind, scenario_class)
        seen = cls._spied_passes(monkeypatch)
        assert run_suite(suite, batch).clean
        groups = {}  # keyed by the group's _Lanes, one per group
        for lanes, us in seen:
            work = groups.setdefault(lanes, [0, 0])
            work[0] += lanes.fold(us).bit_count()
            work[1] += lanes.width
        return [(lanes, useful, lane_passes) for lanes, (useful, lane_passes) in groups.items()]

    SUITES = pytest.mark.parametrize(
        "name, kind, cls",
        [
            ("kd45_b", STRONG, ScenarioClass.ALL),
            ("el_kboxb_cb", AE, ScenarioClass.ALL),
            ("el_kboxb_wf", ED, ScenarioClass.DENSE),
        ],
    )

    @SUITES
    def test_draw_groups_run_real_pairs(self, monkeypatch, name, kind, cls):
        """On soundness_batch() at least 90% of the lane-passes of the
        groups that hold a draw carry a real (U, V) pair, and no group packs
        more than _MAX_GROUP_BITS bits (lanes × carrier) in a value.  Under
        strong the exhaustive models sweep one pair each, so a group may
        mix them with draws (kd45_b's 330 models fill one group)."""
        batch = soundness_batch()
        useful = lane_passes = 0
        for lanes, group_useful, group_passes in self._groups(monkeypatch, name, kind, cls, batch):
            assert lanes.width * len(lanes.shifts) <= _MAX_GROUP_BITS
            # the draws are the models past exhaustive_n worlds
            if lanes.width > 1 and any(top.n > batch.exhaustive_n for (top, _), _ in lanes.runs):
                useful += group_useful
                lane_passes += group_passes
        assert useful >= 0.9 * lane_passes > 0, (useful, lane_passes)

    @SUITES
    def test_every_group_runs_real_pairs(self, monkeypatch, name, kind, cls):
        """Every group of two or more lanes, the exhaustive ones included,
        carries a real pair in at least 70% of its lane-passes: its lanes
        are chunked to its shortest list, not padded to its longest."""
        groups = self._groups(monkeypatch, name, kind, cls, soundness_batch())
        wide = [(useful, lane_passes) for lanes, useful, lane_passes in groups if lanes.width > 1]
        assert wide
        for useful, lane_passes in wide:
            assert useful >= 0.7 * lane_passes, (useful, lane_passes)

    def test_a_lone_model_is_one_lane(self, monkeypatch):
        """valid_in_model and each random draw of find_countermodel sweep
        one model as one lane: the plain subset masks of W = 1."""
        seen = self._spied_passes(monkeypatch)
        model = random_model(3, 6)
        for kind in (STRONG, ED, AE):
            valid_in_model(model, parse("B (p | q) -> B p | B q"), kind)
        f = parse("K p -> p")
        exhaustive = find_countermodel(f, STRONG, max_n=4).evaluations
        assert find_countermodel(f, STRONG, max_n=8, budget=exhaustive + 500).status == "budget"
        lone = [lanes for lanes, _ in seen if sum(len(vals) for (_, vals), _ in lanes.runs) == 1]
        assert {lanes.width for lanes in lone} == {1}
        assert any(lanes.runs[0][0][0].n > 4 for lanes in lone)  # a draw of the random phase


class TestLaneKernels:
    """_Lanes.fold and _Lanes.spread, the log-step moves between a packed
    value's n blocks and one lane mask, against the forms they replace:
    the OR of n shifted blocks, and the product rep * ok with rep bit 0 of
    every block."""

    WIDTHS = (1, 2, 3, 7, 64, 1000)

    @staticmethod
    def _lanes(n, width):
        """A _Lanes of the given width over one model of n worlds: one
        model cut into `width` chunks."""
        return semantics._Lanes([(Topology.discrete(n), [()])], [width], ())

    @staticmethod
    def _values(rng, bits):
        """Random packed values of the given size, sparse and dense ones,
        and the edge cases 0, one bit and all ones."""
        out = [0, (1 << bits) - 1, 1, 1 << bits - 1, 1 << rng.randrange(bits)]
        out += [rng.getrandbits(bits) for _ in range(6)]
        out += [rng.getrandbits(bits) & rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(6)]
        return out

    @pytest.mark.parametrize("n", range(1, MAX_WORLDS + 1))
    def test_fold_and_spread_match_the_shift_loop_and_the_product(self, n):
        """For n in 1..16 and W in 1, 2, 3, 7, 64, 1000 and 6144 // n:
        fold(m) is the OR of the n blocks of m, for random m; spread(ok),
        cut to the n blocks (and so us & spread(ok) for every packed us),
        is rep * ok, for random W-bit ok.  A step table is built only on
        first use, and at W = 1 nothing is spread: in one model a failing
        modality is just empty."""
        rng = random.Random(n)
        for width in {*self.WIDTHS, _MAX_GROUP_BITS // n}:
            lanes = self._lanes(n, width)
            assert (lanes.width, len(lanes.shifts)) == (width, n)
            assert not {"steps", "halves"} & set(vars(lanes))
            ones, carrier = (1 << width) - 1, (1 << n * width) - 1
            for m in self._values(rng, n * width):
                assert lanes.fold(m) == functools.reduce(
                    operator.or_, (m >> x * width & ones for x in range(n))
                ), (n, width, m)
            assert len(lanes.halves) == (n - 1).bit_length()
            if width == 1:
                continue
            assert len(lanes.steps) == (n - 1).bit_length()
            rep = sum(1 << x * width for x in range(n))
            for ok, us in zip(self._values(rng, width), self._values(rng, n * width)):
                assert lanes.spread(ok) & carrier == rep * ok, (n, width, ok)
                assert us & lanes.spread(ok) == us & rep * ok


class TestCompiledProgram:
    """BatchEvaluator.add's program for the roots of every registered
    suite, as run_suite compiles them, under each semantics."""

    @pytest.mark.parametrize("kind", list(Semantics))
    @pytest.mark.parametrize("name", suite_names())
    def test_program_invariants(self, name, kind):
        """Every subformula of the roots is one node, after its children;
        its op is its connective's truth function, or its class for an atom
        or a modality, and its operands its children's nodes (an atom's
        name); the overlay holds exactly the nodes with a doxastic B (one
        that reads V: ed or ae) at or below them, and the base the others,
        each in index order."""
        roots = [
            inst for scheme in get_suite(name).schemes for inst in scheme_instances(get_scheme(scheme))
        ]
        roots += DEFAULT_INSTANTIATION
        engine = BatchEvaluator(roots, kind)
        assert engine.roots == {f: engine.index[f] for f in roots}
        assert set(engine.index) == set().union(*(postorder(f) for f in roots))
        node = {i: g for g, i in engine.index.items()}
        assert sorted(node) == list(range(len(engine.nodes)))
        overlay = []
        for i, (op, a, b) in enumerate(engine.nodes):
            g = node[i]
            truth = CONNECTIVES[type(g)].truth if type(g) in CONNECTIVES else None
            assert op is (type(g) if truth is None else truth)
            kids = [engine.index[k] for k in g._children]
            assert all(k < i for k in kids)
            assert [a, b] == ([g.name, 0] if type(g) is Atom else (kids + [0, 0])[:2])
            if kind.needs_doxastic_range and any(type(h) is Bel for h in postorder(g)):
                overlay.append(i)
        assert engine.overlay_order == overlay and (overlay or kind is STRONG)
        assert engine.base_order == sorted(set(node) - set(overlay))
        atoms = (node[i].name for i in sorted(node) if type(node[i]) is Atom)
        assert engine.atom_names == tuple(dict.fromkeys(atoms))


class TestIsomorphFree:
    """The reference filter (oracles.isomorph_free) keeps the first model of
    each isomorphism class, and a suite run sweeps its source as built."""

    def test_keeps_the_first_model_of_each_class(self):
        """On Batch(exhaustive_n=3), exactly the models that no relabeling
        carries onto an earlier model are kept, in stream order."""
        models = list(Batch(exhaustive_n=3).models())
        earlier, first = set(), []
        for m in models:
            if not relabelings(m) & earlier:
                first.append(m)
            earlier.add(model_form(m))
        kept = list(isomorph_free(models))
        assert [id(m) for m in kept] == [id(m) for m in first]
        assert (len(models), len(kept)) == (1924, 408)

    def test_a_suite_run_sweeps_its_source_as_built(self, monkeypatch):
        """sweep_validity drops no model: a suite run sweeps batch.swept as
        built, the first labeled model of each class that is its own
        contraction (204 of 408), then the draws the keep rule keeps (126
        of 200), in order, the draws as the same objects."""
        swept = []
        runs = semantics._runs

        def spy(models, names):  # the one way a model stream enters a sweep
            models = list(models)
            swept.extend(models)
            return runs(models, names)

        monkeypatch.setattr(semantics, "_runs", spy)
        batch = soundness_batch()
        assert run_suite(get_suite("sel"), batch).clean
        monkeypatch.undo()
        source = source_models(_isomorph_free_models(3, batch.atoms, None, {}), batch.atoms)
        exhaustive = [m for m in source if _contraction_size(m.topology, m.valuation.values(), 3) == m.n]
        # every draw has 4 to 6 worlds and fits the budget, so it goes
        # exactly when it contracts to 3 worlds or fewer
        draws = [
            d
            for d in list(batch.models())[1924:]
            if _contraction_size(d.topology, d.valuation.values(), 3) > 3
        ]
        assert swept == exhaustive + draws
        assert all(a is d for a, d in zip(swept[len(exhaustive) :], draws, strict=True))
        assert (len(swept), len(exhaustive), len(draws)) == (204 + 126, 204, 126)

    def test_kept_count_to_four_worlds(self):
        models = list(Batch(exhaustive_n=4).models())
        assert (len(models), sum(1 for _ in isomorph_free(models))) == (92804, 5089)

    def test_a_relabeled_copy_before_the_first_labeled_member(self):
        """Only the later of two isomorphic models is skipped, whichever
        comes first in enumeration order."""
        sierpinski, copy_top = list(enumerate_topologies(2))[1:3]  # {0} open, then {1}
        labeled = SubsetModel(sierpinski, {"p": 0b01})
        copy = SubsetModel(copy_top, {"p": 0b10})
        assert isomorphic(copy, labeled) and copy != labeled
        assert [id(m) for m in isomorph_free([copy, labeled])] == [id(copy)]

    def test_models_past_four_worlds_always_pass(self):
        five = random_model(1, 5)
        same = SubsetModel(five.topology, dict(five.valuation))
        assert list(isomorph_free([five, same, five])) == [five, same, five]
        four = random_model(1, 4)
        assert list(isomorph_free([four, four])) == [four]


class TestIsomorphFreeSearch:
    """find_countermodel's exhaustive phase builds and sweeps only the first
    labeled model of each isomorphism class, and counts as the labeled stream."""

    @pytest.mark.parametrize(
        "max_n, names, kept",
        [
            pytest.param(4, [], 46, id="names0-46"),
            pytest.param(4, ["p"], 425, id="names1-425"),
            pytest.param(4, ["p", "q"], 5089, id="names2-5089"),
            *[pytest.param(k, ["p"], kept, id=f"p-{k}") for k, kept in enumerate((0, 2, 12, 66, 425))],
            pytest.param(3, ["q", "p"], 408, id="qp-3"),  # product order of the names as given
            pytest.param(3, ["p", "q", "r"], 2848, id="pqr-3"),
        ],
    )
    def test_source_is_the_isomorph_free_stream(self, max_n, names, kept):
        got = list(source_models(_isomorph_free_models(max_n, names, None, {}), names))
        assert got == list(isomorph_free(exhaustive_models(max_n, names)))
        assert len(got) == kept

    def test_three_atoms_split_into_runs(self):
        """On the 4-point chain, the first class of 4 worlds with no
        automorphism but the identity, all 4 096 valuations of three atoms
        are kept, and a sweep cuts them into runs of 1 536; the stream
        through them is the filtered labeled stream."""
        names = ["p", "q", "r"]
        chain = next(t for t in enumerate_topologies(4) if len(canonical_form(t)[1]) == 1)
        head, runs = [], []
        source = _isomorph_free_models(4, names, None, {})
        groups = _sweep_groups(source, STRONG, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
        for top, valuations in (run for group in groups for _, run in group):
            if runs and top != chain:
                break
            head.extend(source_models([(top, valuations)], names))
            if top == chain:
                runs.append(len(valuations))
        assert runs == [1536, 1536, 1024]
        labeled = isomorph_free(exhaustive_models(4, names))
        assert head == [next(labeled) for _ in head]

    @pytest.mark.parametrize("kind, cls", [(STRONG, ScenarioClass.ALL), (AE, ScenarioClass.DENSE)])
    def test_starts_count_every_labeled_model_before(self, kind, cls):
        """Each swept topology starts at the scenarios of every labeled
        model before its first one, skipped topologies and valuations
        included, and comes with the scenarios of each of its models: the
        sum of |U| over its full pair list."""
        names = ["p"]
        rcls = cls if kind.needs_doxastic_range else None
        starts = {}
        kept = {top for top, _ in _isomorph_free_models(4, names, rcls, starts)}
        assert set(starts) == kept and len(kept) == 46
        labeled, count = {}, 0
        for model in exhaustive_models(4, names):
            cost = sum(u.bit_count() for u, _ in range_pairs(model.topology, rcls))
            labeled.setdefault(model.topology, (count, cost))
            count += cost
        assert starts == {top: labeled[top] for top in kept}

    def test_warm_searches_equal_cold_ones(self):
        """The class table is built once per process and shared: a second
        pair of hunts, after a 4-world suite run, gives every outcome of the
        first pair, which started from an empty table."""
        hunts = [
            (parse("K p -> p"), STRONG, ScenarioClass.ALL),
            (parse("B (box p | box ! box p)"), AE, ScenarioClass.ALL),
        ]

        def search():
            return [find_countermodel(f, kind, cls, max_n=4, budget=10**6) for f, kind, cls in hunts]

        _classes.cache_clear()
        cold = search()
        assert run_suite(get_suite("sel"), Batch(exhaustive_n=4)).clean
        assert search() == cold
        assert [(o.status, o.evaluations) for o in cold] == [("exhausted", 76_426), ("exhausted", 354_708)]

    @pytest.mark.parametrize("search_first", [True, False], ids=["search_first", "enumerate_first"])
    def test_topologies_are_built_once_per_process(self, monkeypatch, search_first):
        """A search to 4 worlds and enumerate_topologies(1..4) read one class
        table: whichever comes second builds no topology."""

        def search():
            assert find_countermodel(parse("K p -> p"), STRONG, max_n=4).status == "exhausted"

        def enumerate_all():
            assert sum(sum(1 for _ in enumerate_topologies(n)) for n in (1, 2, 3, 4)) == 389

        first, second = (search, enumerate_all) if search_first else (enumerate_all, search)
        _classes.cache_clear()
        first()
        built = []
        init = Topology.__init__

        def spy(top, *args):
            built.append(args)
            init(top, *args)

        monkeypatch.setattr(Topology, "__init__", spy)
        second()
        assert built == []
        _classes.cache_clear()
        first()
        assert len(built) == 389

    def test_builds_only_the_kept_models(self, monkeypatch):
        """The search sweeps valuations, not models: the exhausted K p -> p
        hunt to 4 worlds (425 isomorph-free of 5 930 labeled models) builds
        no SubsetModel, and a found search builds one, the hit it returns,
        through the checked constructor."""
        built = []
        check = SubsetModel.__init__

        def spy(model, *args):
            built.append(model)
            check(model, *args)

        monkeypatch.setattr(SubsetModel, "__init__", spy)
        out = find_countermodel(parse("K p -> p"), STRONG, max_n=4, budget=10**6)
        assert (out.status, out.evaluations) == ("exhausted", 76_426)
        assert built == []
        out = find_countermodel(parse("p -> K p"), STRONG, max_n=4)
        assert (out.status, out.scenario.literal()) == ("found", "x=0;U=0,1")
        assert len(built) == 1 and built[0] is out.model

    def test_the_chain_yields_the_reference_tuples(self):
        """Each run's valuations, read down the stabilizer chain
        (model._orbit_least), are the tuples oracles.orbit_least keeps by
        testing each against every automorphism, in the same order, for
        every class to 4 worlds with 0, 1 and 2 atoms and to 3 worlds with
        3 and 4."""
        assert chain_mismatches() == []
        counts = [
            sum(sum(1 for _ in valuations) for _, valuations in _isomorph_free_models(n, "pqrs"[:k], None, {}))
            for n, k in CHAIN_SIZES
        ]
        assert counts == [46, 425, 5089, 2848, 21_248]

    def test_the_source_generates_valuations_as_they_are_read(self):
        """Taking the first run of the three-atom source to 4 worlds
        generates none of the rest of it: the source stops at its first
        class, whose valuations are a generator not yet started.  Read to
        the end, the source yields its 70 270 valuations while holding
        none of them: its peak allocation stays under 256 KB, where a list
        of them takes about 5 MB."""
        names = ("p", "q", "r")
        for n in range(1, 5):
            _classes(n)  # the class table is built once per process, before the count
        starts = {}
        source = _isomorph_free_models(4, names, None, starts)
        top, valuations = next(source)
        assert top.n == 1 and len(starts) == 1
        assert inspect.getgeneratorstate(valuations) == inspect.GEN_CREATED
        assert list(valuations) == list(itertools.product(range(2), repeat=3))
        assert len(starts) == 1
        tracemalloc.start()
        try:
            count = sum(1 for _, valuations in source for _ in valuations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count + 8, len(starts)) == (70_270, 46)
        assert peak < 256 * 1024, peak

    def test_only_a_hit_builds_a_full_pair_list(self, monkeypatch):
        """Work counters on range_groups: building a batch ranges nothing
        (its exhaustive part's costs are counted by _range_cost); the
        exhausted 4-world hunts build only the reduced lists they sweep, 46
        pairs under strong and 172 under ae; and each found search, on an
        exhaustive model or a draw, adds one full list, for its hit's
        position."""
        calls = []  # (reduced, pairs built) per call
        ranged = semantics.range_groups

        def spy(*args, **kwargs):
            pairs = ranged(*args, **kwargs)
            calls.append(("above" in kwargs and "inside" in kwargs, len(pairs)))
            return pairs

        monkeypatch.setattr("topobelief.model.range_groups", spy)
        monkeypatch.setattr(semantics, "range_groups", spy)
        soundness_batch()
        Batch(exhaustive_n=4)
        assert calls == []
        hunts = [("K p -> p", STRONG, 46), ("B (box p | box ! box p)", AE, 172)]
        for text, kind, pairs in hunts:
            calls.clear()
            out = find_countermodel(parse(text), kind, max_n=4, budget=10**6)
            assert out.status == "exhausted"
            assert all(reduced for reduced, _ in calls)
            assert sum(built for _, built in calls) == pairs
        searches = [
            (parse(e.formula), e.semantics, e.scenario_class, e.max_worlds, 200_000)
            for e in expected_failures()
        ]
        searches.append((TestReducedSearch.FIVE_TYPES, STRONG, ScenarioClass.ALL, 7, 10**7))
        for search in searches:
            calls.clear()
            out = find_countermodel(*search)
            assert out.status == "found"
            assert [reduced for reduced, _ in calls].count(False) == 1
        assert out.model.n > 4  # the last hit lies on a draw


class TestReducedSearch:
    """find_countermodel sweeps only the pairs that can hold its first hit
    (under ae the V inside Max; with k = min(max_n, ENUMERATION_MAX), the U
    that are the carrier or have more than k worlds), and its outcomes are
    those of the search over every pair: status, model document, scenario
    and evaluations."""

    COLUMNS = ((STRONG, ScenarioClass.ALL),) + tuple(
        (kind, cls) for kind in (ED, AE) for cls in ScenarioClass
    )

    @staticmethod
    def _outcome(out):
        return (out.status, out.model and dump(out.model), out.scenario, out.evaluations)

    def test_the_unreduced_reference_drops_every_reduction(self, monkeypatch):
        """unreduced_sweeps, the full-pair reference every reduced sweep is
        pinned to (the acceptance gate's criterion 07 included), passes
        _sweep_groups no keyword-only parameter but grow, and its _shape
        keeps each column's class but keeps no V inside Max alone in any of
        the 9 columns: a reduction added to _sweep_groups or _shape later
        fails here until the reference drops it too."""
        params = inspect.signature(_sweep_groups).parameters.values()
        keywords = {p.name: object() for p in params if p.kind is p.KEYWORD_ONLY}
        assert "grow" in keywords
        shapes = [semantics._shape(kind, cls) for kind, cls in self.COLUMNS]
        assert any(maximal for _, maximal in shapes)
        passed = []
        monkeypatch.setattr(semantics, "_sweep_groups", lambda *args, **kwargs: passed.append(kwargs))
        unreduced_sweeps(monkeypatch)
        semantics._sweep_groups([], STRONG, ScenarioClass.ALL, 1, **keywords)
        assert passed == [{"grow": keywords["grow"]}]
        unreduced = [semantics._shape(kind, cls) for kind, cls in self.COLUMNS]
        assert unreduced == [(cls, False) for cls, _ in shapes]

    def test_the_unreduced_reference_sweeps_past_a_batchs_layouts(self, monkeypatch):
        """A run reduced on a batch lays its swept stream out and keeps the
        layouts; the same row under unreduced_sweeps on the same batch
        object (as criterion 07 runs it) still sweeps the whole stream over
        its full pair lists, and adds no layout to the batch's."""
        batch = Batch(exhaustive_n=3)
        suite = get_suite("el_kboxb_cb")
        reduced = run_suite(suite, batch)
        kept = dict(batch._layouts)
        assert kept
        swept = []
        unreduced_sweeps(monkeypatch, swept)
        assert run_suite(suite, batch) == reduced
        assert swept == [len(batch.swept)]
        assert batch._layouts == kept

    def test_outcomes_equal_the_unreduced_search(self, monkeypatch):
        """The 83 corpus formulas x 9 columns, max_n 3 and 5, at budgets
        just below, at and just above each edge of the unreduced search: its
        hit, or else its total (to 4 worlds for max_n 5, where the draws
        begin, so the budget above it sweeps a draw).  Every corpus hit
        lies at the carrier of a model of at most 3 worlds, so the 9
        columns of FIVE_TYPES at max_n 7 join them, at budgets around their
        hit: it needs an open of k + 1 = 5 worlds that is not the carrier
        (see test_a_hit_on_a_draw_at_an_open_of_five_worlds), and a search
        that dropped those opens would miss it.  Runtime target 20 s (about
        4 s on a 2-vCPU VM)."""
        started = time.perf_counter()
        cases = [
            (f, kind, cls, max_n)
            for f in formula_corpus()
            for kind, cls in self.COLUMNS
            for max_n in (3, 5)
        ]
        unreduced = {}
        with monkeypatch.context() as patch:
            unreduced_sweeps(patch)
            for f, kind, cls, max_n in cases:
                edge = find_countermodel(f, kind, cls, min(max_n, 4), 10**6).evaluations
                for budget in (edge - 1, edge, edge + 1):
                    out = find_countermodel(f, kind, cls, max_n, budget)
                    unreduced[f, kind, cls, max_n, budget] = self._outcome(out)
            for kind, cls in self.COLUMNS:
                hit = find_countermodel(self.FIVE_TYPES, kind, cls, 7, 10**7)
                assert hit.scenario.u.bit_count() == 5 and hit.scenario.u != hit.model.topology.full
                for budget in (hit.evaluations - 1, hit.evaluations, hit.evaluations + 1):
                    out = find_countermodel(self.FIVE_TYPES, kind, cls, 7, budget)
                    unreduced[self.FIVE_TYPES, kind, cls, 7, budget] = self._outcome(out)
        reduced = {key: self._outcome(find_countermodel(*key)) for key in unreduced}
        assert reduced == unreduced
        statuses = [out[0] for out in reduced.values()]
        assert {s: statuses.count(s) for s in set(statuses)} == {
            "found": 2 * 729 * 2 + 9 * 2,
            "budget": 2 * 729 + 2 * 9 * 3 + 18 + 9,
            "exhausted": 2 * 9 * 2,
        }
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"runtime target exceeded: {elapsed:.1f}s"

    # five valuation types that exclude each other: a failure needs |U| >= 5
    FIVE_TYPES = parse(
        "!(hatK (p & q) & hatK (p & !q) & hatK (!p & q)"
        " & hatK (!p & !q & box !p) & hatK (!p & !q & !box !p))"
    )

    @pytest.mark.parametrize(
        "kind, cls", [(STRONG, ScenarioClass.ALL), (AE, ScenarioClass.ALL), (ED, ScenarioClass.DENSE)]
    )
    def test_a_hit_on_a_draw_at_an_open_of_five_worlds(self, monkeypatch, kind, cls):
        """A root that fails only where U meets five valuation types holds
        on every model to 4 worlds, and first fails on a 6-world draw at
        U = {0, 1, 2, 3, 5}, which is not the carrier and has one world
        more than k = 4; the reduced search finds it at the unreduced
        search's count, and at budgets just below, at and above that count
        reads as the unreduced search.  Raising k by one, or dropping every
        U other than the carrier, would lose it."""
        f = self.FIVE_TYPES
        total = find_countermodel(f, kind, cls, max_n=4, budget=10**8)
        assert total.status == "exhausted"
        budget = total.evaluations + 20_000
        out = find_countermodel(f, kind, cls, max_n=7, budget=budget)
        assert (out.status, out.model.n) == ("found", 6)
        assert out.scenario.literal().startswith("x=0;U=0,1,2,3,5")
        assert out.scenario.u != out.model.topology.full
        budgets = (budget, out.evaluations - 1, out.evaluations, out.evaluations + 1)
        reduced = [self._outcome(find_countermodel(f, kind, cls, 7, b)) for b in budgets]
        unreduced_sweeps(monkeypatch)
        assert reduced == [self._outcome(find_countermodel(f, kind, cls, 7, b)) for b in budgets]
        assert [status for status, *_ in reduced] == ["found", "budget", "found", "found"]

    def test_a_draw_over_the_sweep_budget_is_skipped_and_not_counted(self, monkeypatch):
        """Under ed with max_n 13, the draws of seed 0 numbered 5 to 8 (10
        to 13 worlds) cost over 10^6, |opens|² × n; the others cost 33 to
        41 310 scenarios over their full lists.  With the budget at the
        exhaustive total plus the full costs of draws 0-4 and 9-11, the
        search makes twelve draws, sweeps the eight that fit and stops:
        counting a skipped draw would end it sooner."""
        f = parse("K p -> p")
        sizes = range(5, 14)
        full = {}
        for d in range(12):
            top, _ = semantics._search_run(d, sizes[d % 9], 1)
            if len(top.opens) ** 2 * top.n <= DEFAULT_SCENARIO_BUDGET:
                full[d] = sum(u.bit_count() for u, _ in range_pairs(top, ScenarioClass.ALL))
        assert sorted(set(range(12)) - set(full)) == [5, 6, 7, 8]
        exhaustive = find_countermodel(f, ED, max_n=4, budget=10**6).evaluations
        assert exhaustive == 354_708
        drawn, swept = [], []  # each draw's topology is an object of its own
        draw, sweep = semantics._search_run, semantics._group_failures

        def recording_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def recording_sweep(engine, runs, *laid):
            swept.extend(top for _, (top, _) in runs)
            return sweep(engine, runs, *laid)

        monkeypatch.setattr(semantics, "_search_run", recording_draw)
        monkeypatch.setattr(semantics, "_group_failures", recording_sweep)
        budget = exhaustive + sum(full.values())
        out = find_countermodel(f, ED, max_n=13, budget=budget)
        assert (out.status, out.evaluations) == ("budget", budget)
        assert len(drawn) == 12
        swept_draws = [d for d, (draw_top, _) in enumerate(drawn) if any(top is draw_top for top in swept)]
        assert swept_draws == sorted(full)


@pytest.mark.parametrize(
    "check, message",
    [
        (
            lambda: BatchEvaluator((Meta("phi"),), STRONG),
            "cannot compile node Meta(name='phi')",
        ),
    ],
)
def test_outside_input_is_refused(check, message):
    with pytest.raises(SemanticsError) as info:
        check()
    assert str(info.value) == message
