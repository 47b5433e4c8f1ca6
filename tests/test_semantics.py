import gc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import def_truth
from topobelief.formula import (
    ALPHA_MAP,
    Bel,
    E_MAP,
    formula_corpus,
    parse,
    translate,
)
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    EDScenario,
    ScenarioClass,
    SubsetModel,
    ed_scenarios,
    epistemic_scenarios,
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
    _sweep_groups,
    _values,
    extension,
    find_countermodel,
    satisfies,
    sweep_validity,
    valid_in_model,
)
from topobelief.suites import get_suite, run_suite, soundness_batch
from topobelief.topology import Topology, enumerate_topologies

STRONG, ED, AE = Semantics.STRONG, Semantics.ED, Semantics.AE


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

    def test_non_open_range_rejected(self, sierpinski):
        with pytest.raises(SemanticsError):
            extension(sierpinski, parse("p"), STRONG, 0b10)


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
        drawn, swept = [], set()
        draw, sweep = semantics._search_model, semantics._group_failures

        def recording_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def recording_sweep(engine, runs, live):
            swept.update(id(model) for _, run in runs for model in run)
            return sweep(engine, runs, live)

        monkeypatch.setattr(semantics, "_search_model", recording_draw)
        monkeypatch.setattr(semantics, "_group_failures", recording_sweep)
        out = find_countermodel(f, STRONG, max_n=6, budget=exhaustive + extra)
        assert out.status == "budget"
        assert len(drawn) == draws
        assert [id(model) in swept for model in drawn] == [True] * len(drawn)

    @pytest.mark.parametrize("text, kind", [("K p -> p", STRONG), ("B (box p | box ! box p)", AE)])
    def test_a_hunt_sweeps_growing_groups(self, monkeypatch, text, kind):
        # one sweep per same-topology run would be 389 sweeps to 4 worlds
        from topobelief import semantics

        sizes, sweep = [], semantics._group_failures

        def recording_sweep(engine, runs, live):
            sizes.append(len(runs))
            return sweep(engine, runs, live)

        monkeypatch.setattr(semantics, "_group_failures", recording_sweep)
        out = find_countermodel(parse(text), kind, max_n=4, budget=10**6)
        assert out.status == "exhausted"
        assert len(sizes) <= 16
        assert sizes[0] == 1
        assert all(size <= sum(sizes[:i]) for i, size in enumerate(sizes) if i)

    def test_random_phase_draws_cover_the_formula_atoms(self):
        from topobelief.semantics import _search_model

        model = _search_model(11, 6, ["my_atom", "zz9"])
        again = _search_model(11, 6, ["my_atom", "zz9"])
        assert model.valuation == again.valuation
        assert set(model.valuation) == {"my_atom", "zz9"}
        assert model.topology.opens == again.topology.opens
        # over a few draws the valuations are not all degenerate
        assert any(
            any(_search_model(s, 5, ["my_atom"]).valuation.values()) for s in range(5)
        )


def _assert_oracle_bits(m, kind, u, v, f, ext):
    """ext is the definitional extension of f under (u, v), world by world."""
    for x in range(m.n):
        want = bool(u >> x & 1) and def_truth(m, x, u, v, f, kind)
        assert bool(ext >> x & 1) == want, (kind.value, x, u, v, str(f))


def _lane_values(engine, lanes, passes):
    """Each lane's model, U, V and every node's value, decoded to plain
    subset masks, at each of the passes where the lane has a (U, V) pair.

    Checks on the way that at every pass every node value of every lane,
    one out of pairs included, is empty at the worlds past that lane's own
    carrier: the wide closure, the dual of interior over every world of
    the padded carrier, is exact only then."""
    models = [model for run, c in lanes.runs for model in run for _ in range(c)]

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
        its range pairs exactly."""
        group = [random_model(seed + 1 + i, 2 + (n + i) % 3) for i in range(3)]
        lone = [random_model(seed, n)]
        for kind in (STRONG, ED, AE):
            engine = BatchEvaluator(AGREEMENT_CORPUS, kind)
            cls = None if kind is STRONG else ScenarioClass.ALL
            for models in (group, lone):
                (runs,) = _sweep_groups(models, kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
                lanes, passes = _passes(runs)
                assert (lanes.width == 1) == (models is lone)
                seen = {id(m): set() for m in models}
                for m, u, v, masks in _lane_values(engine, lanes, passes):
                    v = None if kind is STRONG else v
                    seen[id(m)].add((u, v))
                    for f, idx in engine.index.items():
                        _assert_oracle_bits(m, kind, u, v, f, masks[idx])
                for m in models:
                    assert seen[id(m)] == set(range_pairs(m.topology, cls)), kind.value

    def test_one_lane_passes_match_values(self):
        """base_pass and overlay_pass, which the benchmark's probes and
        spans time, give a lone model's one-lane _values, node for node."""
        for seed in range(6):
            m = random_model(seed, 2 + seed % 4)
            for kind in (STRONG, ED, AE):
                engine = BatchEvaluator(AGREEMENT_CORPUS, kind)
                (runs,) = _sweep_groups([m], kind, ScenarioClass.ALL, DEFAULT_SCENARIO_BUDGET)
                lanes, passes = _passes(runs)
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
    def _groups(cls, monkeypatch, name, kind, scenario_class):
        """Per lane group of the suite's run on soundness_batch(): its
        lanes, the lane-passes that carry a real (U, V) pair (a lane out of
        pairs runs at U = 0), and all its lane-passes."""
        suite = get_suite(name)
        assert (suite.semantics, suite.scenario_class) == (kind, scenario_class)
        seen = cls._spied_passes(monkeypatch)
        assert run_suite(suite, soundness_batch()).clean
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
        """On soundness_batch() at least 90% of the draw groups' lane-passes
        carry a real (U, V) pair, and no group packs more than _MAX_GROUP_BITS
        bits (lanes × carrier) in a value."""
        useful = lane_passes = 0
        for lanes, group_useful, group_passes in self._groups(monkeypatch, name, kind, cls):
            assert lanes.width * len(lanes.shifts) <= _MAX_GROUP_BITS
            if lanes.width > 1 and all(len(run) == 1 for run, _ in lanes.runs):  # draws
                useful += group_useful
                lane_passes += group_passes
        assert useful >= 0.9 * lane_passes > 0, (useful, lane_passes)

    @SUITES
    def test_every_group_runs_real_pairs(self, monkeypatch, name, kind, cls):
        """Every group of two or more lanes, the exhaustive ones included,
        carries a real pair in at least 70% of its lane-passes: its lanes
        are chunked to its shortest list, not padded to its longest."""
        groups = self._groups(monkeypatch, name, kind, cls)
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
        lone = [lanes for lanes, _ in seen if sum(len(run) for run, _ in lanes.runs) == 1]
        assert {lanes.width for lanes in lone} == {1}
        assert any(lanes.runs[0][0][0].n > 4 for lanes in lone)  # a draw of the random phase
