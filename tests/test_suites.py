import hashlib
import itertools
import json
import pickle
import time

import pytest

from oracles import (
    COLUMNS,
    SUITE_ROWS,
    contract,
    count_nodes,
    isomorph_free,
    labeled_batch,
    labeled_reference,
    source_models,
    suite_reports,
    unreduced_sweeps,
)
from topobelief import formula as fm
from topobelief import semantics, suites
from topobelief.formula import parse
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    ScenarioClass,
    SubsetModel,
    _contraction_size,
    _isomorph_free_models,
    ed_scenarios,
    exhaustive_models,
    load,
    parse_scenario,
    random_model,
)
from topobelief.record import FrozenInstanceError
from topobelief.semantics import (
    BatchEvaluator,
    Semantics,
    find_countermodel,
    satisfies,
    sweep_validity,
    valid_in_model,
)
from topobelief.suites import (
    BASE_SCHEMES,
    DEFAULT_INSTANTIATION,
    DEFAULT_MATRIX,
    Batch,
    SuiteError,
    _contracted,
    expected_failures,
    get_suite,
    run_suite,
    scheme_instances,
    soundness_batch,
    stalnaker_images,
    suite_names,
)
from topobelief.topology import Topology


# sha256 of run_suite(...).to_json() per DEFAULT_MATRIX row on soundness_batch()
MATRIX_REPORT_SHA256 = {
    ("el_kbox", None, None): "70863928b783c75438043774f513dfc51d83a43d6bd1ba4329af42cd52c61bcd",
    ("sel", None, None): "122c5d6170ce51845ae214d2a62a14164240d4dec281833b54d9243aee8d775c",
    ("sel", "ae", "total"): "7a58d6fe13f70925b482d801765a86a64858ed0e211389ca96c009eb83dc49d1",
    ("el_kboxb", None, None): "0e0b89d01f65c07c44188c80feea534c03f36ffeefa3711933536e7f324f0a7f",
    ("el_kboxb_d", None, None): "6f623ad36c9520fefb475a5502138d573a47498b78df6409324e77cce6154aa7",
    ("el_kboxb_wf", None, None): "17297584c1fa939d47948c0e187f44eccf950a3f7edf22547bc39b418ffa8dd4",
    ("el_kboxb_cb", None, None): "ddaec42f3b796de4fc6183805f267647b12f8e36cc65281de43b71f470719d78",
    ("kd45_b", None, None): "faa38c86613528a8e3b1bde576bca10685aa05a936ecd613639b3e89055ffccc",
}


class TestSuiteContents:
    def test_base_is_eleven_schemes(self):
        assert len(BASE_SCHEMES) == 11

    def test_full_belief_suite(self):
        suite = get_suite("sel")
        assert len(suite.schemes) == 17
        for name in ("K_B", "sPI", "KB", "RB", "wF", "CB"):
            assert name in suite.schemes
        assert suite.semantics is Semantics.STRONG

    def test_range_belief_suite(self):
        suite = get_suite("el_kboxb")
        assert len(suite.schemes) == 15
        assert "wF" not in suite.schemes and "CB" not in suite.schemes
        assert suite.semantics is Semantics.ED
        assert suite.scenario_class is ScenarioClass.ALL

    def test_extensions(self):
        assert get_suite("el_kboxb_d").scenario_class is ScenarioClass.CONSISTENT
        assert get_suite("el_kboxb_wf").scenario_class is ScenarioClass.DENSE
        assert get_suite("el_kboxb_cb").semantics is Semantics.AE

    def test_pure_belief_suite(self):
        assert get_suite("kd45_b").schemes == ("K_B", "D_B", "4_B", "5_B")

    def test_unknown(self):
        with pytest.raises(SuiteError, match="unknown"):
            get_suite("nope")

    def test_collapsed_images_are_reference_only(self):
        with pytest.raises(SuiteError, match="documentation-only"):
            get_suite("stal_t")
        images = stalnaker_images()
        assert set(images) == {"K_B", "sPI", "KB", "RB", "wF", "CB"}
        for template in images.values():
            assert count_nodes(template, fm.Box) == 0

    def test_names_listing(self):
        assert "sel" in suite_names() and "kd45_b" in suite_names()

    def test_default_instantiation_is_versioned(self):
        texts = tuple(fm.to_text(f) for f in DEFAULT_INSTANTIATION)
        assert texts == ("p", "q", "p & q", "! p", "K p", "box p", "B p", "dia q")


class TestInstances:
    def test_one_metavariable_count(self):
        assert len(scheme_instances(fm.get_scheme("T_K"))) == 8

    def test_two_metavariable_count(self):
        assert len(scheme_instances(fm.get_scheme("K_B"))) == 64

    def test_deduplication(self):
        insts = scheme_instances(fm.get_scheme("T_K"), [parse("p"), parse("p")])
        assert len(insts) == 1

    def test_instances_equal_instantiate_over_every_scheme(self):
        """scheme_instances builds a scheme's instances from one plan
        (formula.instances); on every registered scheme and the default
        substitution set they are instantiate over the product of that set,
        in order and deduplicated, and instantiate is the node-by-node
        substitution of formula._map_nodes."""
        for scheme in fm.SCHEMES.values():
            names = sorted(scheme.metavariables())
            expected = []
            for values in itertools.product(DEFAULT_INSTANTIATION, repeat=len(names)):
                subst = dict(zip(names, values))
                inst = fm.instantiate(scheme, subst)
                swap = {g: subst[g.name] for g in fm.postorder(scheme.template) if type(g) is fm.Meta}
                assert inst is fm._map_nodes(scheme.template, swap.get)
                expected.append(inst)
            assert scheme_instances(scheme) == tuple(dict.fromkeys(expected)), scheme.name


class TestRunSuite:
    def test_full_belief_clean_small(self):
        report = run_suite(get_suite("sel"), Batch(exhaustive_n=2))
        assert report.clean
        assert len(report.results) == 304  # 3 binary schemes x 64 + 14 unary x 8

    def test_pure_belief_clean_small(self):
        report = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2))
        assert report.clean
        by_scheme = {r.scheme for r in report.results}
        assert by_scheme == {"K_B", "D_B", "4_B", "5_B"}

    def test_bimodal_base_clean_small(self):
        report = run_suite(get_suite("el_kbox"), Batch(exhaustive_n=2))
        assert report.clean

    def test_bimodal_base_clean_on_standard_batch(self):
        # the suite/semantics matrix invariant covers the base row too
        report = run_suite(get_suite("el_kbox"), soundness_batch())
        assert report.clean

    def test_consistency_axiom_needs_its_class(self):
        report = run_suite(
            get_suite("el_kboxb_d"), Batch(exhaustive_n=1), scenario_class=ScenarioClass.ALL
        )
        assert not report.clean
        bad = [r for r in report.results if r.status == "countermodel"]
        assert bad and all(r.scheme == "D_B" for r in bad)
        first = bad[0]
        scenario = parse_scenario(first.witness_scenario)
        assert scenario.v == 0
        # the embedded witness replays through the public evaluator
        model = load(json.dumps(first.witness_model))
        assert not satisfies(model, scenario, parse(first.instance), Semantics.ED)

    def test_report_json_deterministic(self):
        report = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2))
        again = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2))
        assert report.to_json() == again.to_json()
        payload = json.loads(report.to_json())
        assert payload["clean"] is True
        assert payload["suite"] == "kd45_b"

    def test_text_report_mentions_verdict(self):
        report = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=1))
        assert "all schemes valid" in report.to_text()

    def test_necessitation_rows_checked_when_premise_valid(self):
        top = parse("true")
        report = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2), instantiation=[top])
        rows = {(r.rule, r.premise): r.status for r in report.rules}
        assert rows[("Nec_B", "true")] == "valid"

    def test_necessitation_rows_vacuous_otherwise(self):
        report = run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2))
        assert all(r.status == "vacuous" for r in report.rules)

    def test_matrix_rows_resolve(self):
        for name, kind, cls in DEFAULT_MATRIX:
            suite = get_suite(name)
            assert kind is None or isinstance(kind, Semantics)
            assert cls is None or isinstance(cls, ScenarioClass)
            assert suite.schemes

    def test_matrix_reports_are_pinned(self):
        """Every DEFAULT_MATRIX report on the standard batch, byte for byte.

        Runtime target 10 s for the eight runs (about 4 s on a 2-vCPU VM).
        """
        started = time.perf_counter()
        digests = {}
        for name, kind, cls in DEFAULT_MATRIX:
            text = run_suite(
                get_suite(name), soundness_batch(), semantics=kind, scenario_class=cls
            ).to_json()
            key = (name, kind and kind.value, cls and cls.value)
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
        elapsed = time.perf_counter() - started
        assert digests == MATRIX_REPORT_SHA256
        assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"


def _oracle_kept(models, k):
    """The keep rule of Batch.swept, judged with oracles.contract: a model
    goes only if its contraction is smaller, has at most k worlds, and its
    worst-case cost fits the default budget."""
    for model in models:
        size, cost = contract(model)[0].n, len(model.topology.opens) ** 2 * model.n
        if not (size < model.n and size <= k and cost <= DEFAULT_SCENARIO_BUDGET):
            yield model


# the batches whose 63 suite reports are pinned to oracles.labeled_reference
REFERENCE_BATCHES = [
    pytest.param(soundness_batch(), id="soundness"),
    pytest.param(soundness_batch(first_seed=2), id="soundness_2"),
    pytest.param(Batch(exhaustive_n=3), id="exhaustive_3"),
    # draws of 1 to 3 worlds copy exhaustive models; some 4-world draws copy others
    pytest.param(
        Batch(exhaustive_n=3, seeds=tuple(range(1, 41)), sizes=(1, 2, 3, 4) * 10),
        id="duplicate_draws",
    ),
    # draws of 1 to 6 worlds after a part complete to 2 worlds
    pytest.param(
        Batch(exhaustive_n=2, seeds=tuple(range(1, 31)), sizes=(1, 2, 3, 4, 5, 6) * 5),
        id="mixed_sizes",
    ),
]


class TestIsomorphFreeSweeps:
    """Suite reports from a batch's swept stream (isomorph-free, then
    without the models whose contraction is swept earlier) equal, byte for
    byte, the reports of the labeled, unreduced streams (run_suite sent
    back to batch.models()), and each root's first failure lies where the
    labeled stream finds it."""

    @pytest.mark.parametrize("batch", REFERENCE_BATCHES[:4])
    def test_reports_equal_the_labeled_sweep(self, batch):
        """7 suites x 9 columns, 63 reports per batch, from the one
        reference run per batch (oracles.labeled_reference) that
        TestWholeCarrierSweeps also reads: every reference stream as long
        as batch.models(), 2 124, 2 124, 1 924 and 1 964 models."""
        pin = labeled_reference(batch)
        assert pin.reference == pin.reduced
        assert set(pin.swept) == {sum(1 for _ in batch.models())}
        assert sum('"countermodel"' in report for report in pin.reduced) > 0

    def test_four_world_report_equals_the_labeled_sweep(self, monkeypatch):
        """el_kboxb_cb under ae/all on every model to 4 worlds (1 843 of the
        92 804 swept), equal to the report of the labeled stream over its
        full pair lists.  Runtime target 5 s for the reduced run (about
        0.1-0.2 s on a 2-vCPU VM)."""
        rows = [("el_kboxb_cb", Semantics.AE, ScenarioClass.ALL)]
        batch = Batch(exhaustive_n=4)
        started = time.perf_counter()
        reduced = suite_reports(rows, batch)
        elapsed = time.perf_counter() - started
        swept = []
        unreduced_sweeps(monkeypatch, swept)
        assert suite_reports(rows, labeled_batch(batch)) == reduced
        assert (len(batch.swept), swept) == (1843, [92_804])
        assert elapsed < 5.0, f"runtime target exceeded: {elapsed:.1f}s"

    def test_first_failure_on_a_model_a_topology_only_contraction_drops(self):
        """p -> K p first fails on a 2-world model of the exhaustive part,
        whose contraction with the valuation ignored has one world: a keep
        rule that ignored the valuation would drop it, and every model of
        more than one world, and move the first failure.  batch.swept,
        swept as run_suite sweeps it, finds it where the labeled stream
        does, in every column."""
        f = parse("p -> K p")
        batch = soundness_batch()
        labeled_stream = list(batch.models())
        for kind, cls in COLUMNS:
            first = sweep_validity(
                BatchEvaluator([f], kind), batch.swept, cls, complete_to=batch.exhaustive_n
            )[f]
            labeled = sweep_validity(BatchEvaluator([f], kind), labeled_stream, cls)[f]
            assert first.model == labeled.model and first.model.n == 2
            assert first.scenario == labeled.scenario
            assert contract(SubsetModel(first.model.topology, {}))[0].n == 1

    def test_first_failure_on_a_draw_that_contracts_past_the_exhaustive_part(self):
        """A root that fails only where an open holds all four valuation
        types fails first, on batch.swept as on the labeled stream, at draw
        7 of soundness_batch() (seed 8, 5 worlds), which contracts to 4
        worlds, one past exhaustive_n: dropping such draws would move it."""
        f = parse("!(!K !(p & q) & !K !(p & !q) & !K !(!p & q) & !K !(!p & !q))")
        batch = soundness_batch()
        for kind, cls in COLUMNS:
            first = sweep_validity(BatchEvaluator([f], kind), batch.swept, cls)[f]
            labeled = sweep_validity(BatchEvaluator([f], kind), list(batch.models()), cls)[f]
            assert first.model is labeled.model is batch.draws[7]
            assert first.scenario == labeled.scenario
            assert first.scenario.literal().startswith("x=0;U=0,1,2,3,4")
        assert (batch.draws[7].n, contract(batch.draws[7])[0].n) == (5, 4)


class TestWholeCarrierSweeps:
    """run_suite sweeps each model of batch.swept only at its pairs whose U
    is the carrier or has more than batch.exhaustive_n worlds
    (sweep_validity's complete_to); find_countermodel takes the same rule
    with k = min(max_n, ENUMERATION_MAX) (pinned in
    test_semantics.TestReducedSearch), and valid_in_model takes every U."""

    def test_only_run_suite_drops_small_ranges(self, monkeypatch):
        """Of the three sweeps, run_suite alone drops the small ranges of its
        batch's size: it passes exhaustive_n to _sweep_groups,
        find_countermodel passes min(max_n, ENUMERATION_MAX), to its
        exhaustive stream and its draws alike, and valid_in_model 0; all
        three pass maximal."""
        seen = []
        groups = semantics._sweep_groups

        def spy(*args, complete_to=0, maximal=False, **kwargs):
            seen.append((complete_to, maximal))
            return groups(*args, complete_to=complete_to, maximal=maximal, **kwargs)

        monkeypatch.setattr(semantics, "_sweep_groups", spy)
        assert run_suite(get_suite("kd45_b"), Batch(exhaustive_n=2)).clean
        assert seen == [(2, True)]
        f = parse("K p -> p")
        valid_in_model(random_model(1, 4), f, Semantics.STRONG)
        assert seen[1:] == [(0, True)]
        del seen[:]
        assert find_countermodel(f, Semantics.STRONG, max_n=3).status == "exhausted"
        assert seen == [(3, True)]
        del seen[:]
        # 76 426 scenarios to 4 worlds, then draws of 5 and 6 worlds
        out = find_countermodel(f, Semantics.STRONG, max_n=6, budget=76_426 + 100)
        assert out.status == "budget"
        assert len(seen) > 2 and set(seen) == {(4, True)}

    @pytest.mark.parametrize(
        "kind, cls, pairs",
        [
            (Semantics.STRONG, ScenarioClass.ALL, (2_144, 709)),  # every U is one pair
            (Semantics.AE, ScenarioClass.ALL, (8_540, 4_114)),  # pairs whose V lies in Max
            (Semantics.ED, ScenarioClass.DENSE, (4_248, 2_262)),
        ],
    )
    def test_pairs_swept_on_the_standard_batch(self, kind, cls, pairs):
        """(U, V) pairs that _sweep_groups yields over soundness_batch().swept
        (204 exhaustive models, then 126 draws) without and with
        complete_to = 3.  The exhaustive models keep one U each."""
        batch = soundness_batch()
        counts = tuple(
            sum(
                len(ranges) * len(valuations)
                for group in semantics._sweep_groups(
                    semantics._runs(batch.swept, batch.atoms),
                    kind,
                    cls,
                    DEFAULT_SCENARIO_BUDGET,
                    maximal=True,
                    complete_to=k,
                )
                for ranges, (_, valuations) in group
            )
            for k in (0, 3)
        )
        assert counts == pairs

    @pytest.mark.parametrize("batch", REFERENCE_BATCHES)
    def test_reports_equal_the_unreduced_sweep(self, batch):
        """7 suites x 9 columns, 63 reports per batch, equal byte for byte
        to the reports of the labeled stream (every reference stream as
        long as batch.models(): 2 124, 2 124, 1 924, 1 964 and 98 models)
        swept over its full pair lists, with 18 countermodels, at least one
        of them in an ae row under class all, consistent or dense, where
        the V inside Max rule applies.  The reference is
        oracles.labeled_reference, run once per batch.  Runtime target
        20 s per batch for both runs (about 4 s on a 2-vCPU VM)."""
        pin = labeled_reference(batch)
        assert pin.reference == pin.reduced
        assert set(pin.swept) == {sum(1 for _ in batch.models())}
        found = [row for row, report in zip(SUITE_ROWS, pin.reduced) if '"countermodel"' in report]
        assert len(found) == 18
        ae_rows = [cls for _, kind, cls in found if kind is Semantics.AE]
        assert set(ae_rows) - {ScenarioClass.TOTAL}
        assert pin.seconds < 20.0, f"runtime target exceeded: {pin.seconds:.1f}s"

    def test_four_world_reports_equal_the_full_pair_lists(self, monkeypatch):
        """Four reports on every model to 4 worlds, where the exhaustive
        models drop U's of 1 to 3 worlds: sel under strong and el_kboxb_cb
        under ae/all, both clean, and sel under ae/all and el_kboxb_wf under
        ed/consistent, with 7 and 6 countermodels, each equal to the report
        of the same stream over its full pair lists.  The labeled stream's
        el_kboxb_cb report is pinned in TestIsomorphFreeSweeps.  Runtime
        target 20 s (about 2 s on a 2-vCPU VM)."""
        rows = [
            ("sel", None, None),
            ("el_kboxb_cb", Semantics.AE, ScenarioClass.ALL),
            ("sel", Semantics.AE, ScenarioClass.ALL),
            ("el_kboxb_wf", Semantics.ED, ScenarioClass.CONSISTENT),
        ]
        batch = Batch(exhaustive_n=4)
        started = time.perf_counter()
        reduced = suite_reports(rows, batch)
        assert ['"countermodel"' in report for report in reduced] == [False, False, True, True]
        unreduced_sweeps(monkeypatch)
        assert suite_reports(rows, batch) == reduced
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"runtime target exceeded: {elapsed:.1f}s"

    def test_first_failure_at_a_small_open_of_a_draw(self):
        """A root whose first failure lies on a draw at an open U of four
        worlds that is not the carrier (draw 14 of soundness_batch(), 6
        worlds, U = {0, 1, 2, 5}), one world past exhaustive_n: batch.swept
        swept as run_suite sweeps it finds it where the labeled stream, over
        its full pair lists, does.  Dropping every U != X, or every U of at
        most exhaustive_n + 1 worlds, would move it.  The root fails only
        where U holds all four valuation types and B p fails at x."""
        f = parse("!(!K !(p & q) & !K !(p & !q) & !K !(!p & q) & !K !(!p & !q)) | B p")
        batch = soundness_batch()
        labeled_stream = list(batch.models())
        for kind, cls in COLUMNS:
            if kind is Semantics.ED:
                continue  # there it fails first at a whole carrier
            first = sweep_validity(
                BatchEvaluator([f], kind), batch.swept, cls, complete_to=batch.exhaustive_n
            )[f]
            labeled = sweep_validity(BatchEvaluator([f], kind), labeled_stream, cls)[f]
            assert first.model is labeled.model is batch.draws[14]
            assert first.scenario == labeled.scenario
            assert first.scenario.literal().startswith("x=0;U=0,1,2,5")
        assert batch.draws[14].n == 6

    def test_a_model_over_budget_still_raises(self):
        """The 16-world discrete model of TestContracted, after a batch
        complete to 2 worlds: run_suite still raises BudgetError there, as
        the budget is charged for the full pair lists."""
        model = SubsetModel(Topology.discrete(16), {"p": 0, "q": 0})
        batch = Batch(exhaustive_n=2)
        object.__setattr__(batch, "swept", (*batch.swept, model))
        for name in ("sel", "el_kboxb"):
            with pytest.raises(BudgetError, match="exceeds budget"):
                run_suite(get_suite(name), batch)
        # the discrete 4-world space costs 16 x 4 = 64, though with k = 3 it
        # sweeps only U = X, 4 scenarios
        engine = BatchEvaluator([parse("K p -> p")], Semantics.STRONG)
        discrete = [SubsetModel(Topology.discrete(4), {"p": 0b0101})]
        assert sweep_validity(engine, discrete, budget=64, complete_to=3) == {}
        with pytest.raises(BudgetError, match="cost 64 exceeds budget 63"):
            sweep_validity(engine, discrete, budget=63, complete_to=3)


class TestContracted:
    """The keep rule of Batch.swept (suites._contracted)."""

    def test_a_model_over_budget_is_kept(self):
        """A 16-world discrete model with a constant valuation contracts to
        one world, but its worst-case cost, 65 536² x 16, exceeds the
        default budget: it is kept, and a sweep still stops at it."""
        top = Topology.discrete(16)
        assert _contraction_size(top, (0, 0), 4) == 1
        assert len(top.opens) ** 2 * top.n > DEFAULT_SCENARIO_BUDGET
        assert not _contracted(top, (0, 0), 4)
        with pytest.raises(BudgetError):
            sweep_validity(BatchEvaluator([parse("p")], Semantics.ED), [SubsetModel(top, {"p": 0})])
        # within budget, the same contraction goes
        assert _contracted(Topology.discrete(4), (0, 0), 4)


class TestIsomorphFreeBatch:
    """Batch.swept, filtered by the reference filter (oracles.isomorph_free),
    is the labeled stream under both reference filters, isomorph_free and
    the keep rule judged by oracles.contract, model for model and in order;
    and its exhaustive part builds none of the models isomorph_free drops."""

    @staticmethod
    def _models(stream):
        return [(m.topology, tuple(m.valuation.items())) for m in stream]

    @pytest.mark.parametrize(
        "batch",
        [
            soundness_batch(),
            soundness_batch(first_seed=2),
            *[Batch(exhaustive_n=k) for k in range(5)],
            # draws of 1 and 2 worlds are labeled exhaustive models; seed 2 on 4 worlds repeats
            Batch(exhaustive_n=2, seeds=(1, 2, 3, 2, 4, 5, 6), sizes=(1, 4, 2, 4, 3, 6, 4)),
        ],
        ids=[
            "soundness-1",
            "soundness-2",
            *[f"pq-{k}" for k in range(5)],
            "mixed-draws",
        ],
    )
    def test_source_is_the_filtered_labeled_stream(self, batch):
        got = self._models(isomorph_free(batch.swept))
        kept = _oracle_kept(isomorph_free(batch.models()), batch.exhaustive_n)
        assert got == self._models(kept)

    def test_a_suite_run_builds_only_the_kept_models(self, monkeypatch):
        built, draws = [], []
        check, draw = SubsetModel.__init__, suites.random_model

        def spy(model, *args):
            built.append(model)
            check(model, *args)

        def drawn(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(SubsetModel, "__init__", spy)
        monkeypatch.setattr(suites, "random_model", drawn)
        batch = soundness_batch()
        report = run_suite(get_suite("sel"), batch)
        monkeypatch.undo()
        assert report.clean
        # the 204 exhaustive models the keep rule keeps, not the 408
        # isomorph-free or the 1 924 labeled ones, and the 200 draws as
        # random_model builds them
        assert len(draws) == 200
        exhaustive = [m for m in built if m.n <= batch.exhaustive_n]
        kept = _oracle_kept(isomorph_free(exhaustive_models(3, batch.atoms)), batch.exhaustive_n)
        assert exhaustive == list(kept)
        assert (len(exhaustive), len(built)) == (204, 204 + 200)


class TestDrawnOnce:
    """A batch draws its random part once, when it is built: every stream
    read and suite run after that reads the same draw objects."""

    @staticmethod
    def _spy(monkeypatch, target, name):
        calls = []
        original = getattr(target, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, spy)
        return calls

    def test_no_read_or_run_draws_again(self, monkeypatch):
        draws = self._spy(monkeypatch, suites, "random_model")
        batch = soundness_batch()
        assert len(draws) == 200
        list(batch.models())
        for _ in range(2):
            run_suite(get_suite("kd45_b"), batch)
        assert len(draws) == 200

    def test_both_streams_yield_the_batch_draws(self):
        """The labeled stream ends with every draw object; the swept stream
        ends with the 126 draws the keep rule keeps, the same objects, in
        draw order."""
        batch = soundness_batch()
        labeled = list(batch.models())[-200:]
        reduced = batch.swept[204:]
        assert len(batch.draws) == 200
        assert all(a is d for a, d in zip(labeled, batch.draws, strict=True))
        kept = [d for d in batch.draws if any(d is r for r in reduced)]
        assert kept == list(reduced) and len(kept) == 126

    def test_draws_stay_out_of_equality_hash_repr_and_describe(self):
        batch = soundness_batch(random_count=4)
        fields = (3, ("p", "q"), (1, 2, 3, 4), (4, 5, 6, 4))
        assert batch == soundness_batch(random_count=4) != Batch(exhaustive_n=3)
        assert hash(batch) == hash(fields)
        assert repr(batch) == (
            "Batch(exhaustive_n=3, atoms=('p', 'q'), seeds=(1, 2, 3, 4), sizes=(4, 5, 6, 4))"
        )
        assert list(batch.describe()) == ["exhaustive_n", "atoms", "seeds", "sizes", "density"]

    def test_replace_and_pickle_keep_the_draws(self):
        batch = soundness_batch(random_count=6)
        rebuilt = Batch(batch.exhaustive_n, batch.seeds, batch.sizes)
        for again in (rebuilt, pickle.loads(pickle.dumps(batch))):
            assert again == batch and again.draws == batch.draws
            assert again.swept == batch.swept
        assert Batch(0, batch.seeds, batch.sizes).draws == batch.draws
        assert Batch(0, batch.seeds, batch.sizes).swept == batch.draws


class TestBuiltOnce:
    """A batch builds the stream its suite runs sweep once, when it is
    built: the isomorph-free exhaustive part, then its draw objects, less
    the models the keep rule drops (suites._contracted)."""

    @pytest.mark.parametrize(
        "batch, exhaustive, draws",
        [(soundness_batch(), 204, 126), (Batch(exhaustive_n=4), 1843, 0), (Batch(), 0, 0)],
        ids=["soundness", "exhaustive_4", "empty"],
    )
    def test_swept_is_the_source_then_the_draws(self, batch, exhaustive, draws):
        runs = _isomorph_free_models(batch.exhaustive_n, batch.atoms, None, {})
        source = source_models(runs, batch.atoms)
        k = batch.exhaustive_n
        kept = tuple(
            m for m in (*source, *batch.draws) if not _contracted(m.topology, m.valuation.values(), k)
        )
        assert batch.swept == kept and len(kept) == exhaustive + draws
        assert all(m.n <= batch.exhaustive_n for m in batch.swept[:exhaustive])
        assert all(any(a is d for d in batch.draws) for a in batch.swept[exhaustive:])

    @pytest.mark.parametrize(
        "batch", [soundness_batch(), Batch(exhaustive_n=4)], ids=["soundness", "exhaustive_4"]
    )
    def test_no_run_builds_a_model(self, monkeypatch, batch):
        built = TestDrawnOnce._spy(monkeypatch, SubsetModel, "__init__")
        assert run_suite(get_suite("sel"), batch).clean
        assert run_suite(get_suite("el_kboxb_cb"), batch).clean
        assert built == []


class TestClassMonotonicity:
    def test_scenario_streams_nest(self):
        for seed in range(6):
            m = random_model(seed, 4)
            every = {(s.x, s.u, s.v) for s in ed_scenarios(m, ScenarioClass.ALL)}
            for cls in (ScenarioClass.CONSISTENT, ScenarioClass.DENSE, ScenarioClass.TOTAL):
                sub = {(s.x, s.u, s.v) for s in ed_scenarios(m, cls)}
                assert sub <= every

    def test_valid_under_all_stays_valid_under_subclasses(self):
        schemes = [
            inst
            for name in ("K_B", "sPI", "KB", "RB")
            for inst in scheme_instances(fm.get_scheme(name), DEFAULT_INSTANTIATION[:3])
        ]
        for seed in range(4):
            m = random_model(seed, 4)
            for inst in schemes:
                assert valid_in_model(m, inst, Semantics.ED, ScenarioClass.ALL).valid
                for cls in (ScenarioClass.CONSISTENT, ScenarioClass.DENSE, ScenarioClass.TOTAL):
                    assert valid_in_model(m, inst, Semantics.ED, cls).valid

    def test_belief_negative_introspection_on_dense_ranges(self):
        # the pure-belief introspection axiom that the strongest suite does
        # not list still holds scenario-wise over dense conjectures
        f = parse("! B p -> B ! B p")
        for seed in range(6):
            m = random_model(seed, 4)
            assert valid_in_model(m, f, Semantics.ED, ScenarioClass.DENSE).valid


class TestExpectedFailures:
    def test_registry_labels(self):
        labels = [e.label for e in expected_failures()]
        assert labels == [
            "5_box",
            "box_dichotomy",
            "T_B",
            "omniscience",
            "D_B",
            "wF",
            "CB",
        ]

    def test_every_entry_replays(self):
        for entry in expected_failures():
            assert entry.replay(), entry.label

    def test_witnesses_respect_size_bounds(self):
        for entry in expected_failures():
            assert entry.witness_model.n <= entry.max_worlds

    def test_search_confirms_one_entry(self):
        entry = expected_failures()[0]
        out = find_countermodel(
            parse(entry.formula), entry.semantics, entry.scenario_class, max_n=entry.max_worlds
        )
        assert out.status == "found"


class TestBatch:
    def test_alignment_required(self):
        with pytest.raises(SuiteError):
            Batch(seeds=(1, 2), sizes=(4,))

    def test_soundness_batch_shape(self):
        batch = soundness_batch(random_count=6)
        assert batch.exhaustive_n == 3
        assert batch.seeds == (1, 2, 3, 4, 5, 6)
        assert batch.sizes == (4, 5, 6, 4, 5, 6)

    def test_bad_shapes_are_rejected(self):
        with pytest.raises(SuiteError, match="at least one size"):
            soundness_batch(random_count=3, sizes=())
        with pytest.raises(SuiteError, match="negative"):
            soundness_batch(random_count=-1)
        with pytest.raises(SuiteError, match="negative"):
            soundness_batch(exhaustive_n=-1)
        with pytest.raises(SuiteError, match=r"exhaustive enumeration gated at n <= 4"):
            soundness_batch(exhaustive_n=5)
        with pytest.raises(SuiteError, match=r"size 17 outside 1\.\.16"):
            soundness_batch(exhaustive_n=4, random_count=2, sizes=(17,))
        with pytest.raises(SuiteError, match=r"size 0 outside 1\.\.16"):
            Batch(seeds=(1,), sizes=(0,))
        with pytest.raises(SuiteError, match="holds no models"):
            soundness_batch(exhaustive_n=0, random_count=0)
        assert soundness_batch(random_count=0, sizes=()) == Batch(exhaustive_n=3)

    def test_atoms_are_fixed(self):
        batch = soundness_batch(random_count=2)
        assert batch.atoms == ("p", "q")
        with pytest.raises(TypeError, match="atoms"):
            Batch(exhaustive_n=2, atoms=("p",))
        with pytest.raises(FrozenInstanceError, match="atoms"):
            batch.atoms = ("q", "p")

    def test_random_models_valuate_the_batch_atoms(self):
        batch = Batch(seeds=(1, 2, 3), sizes=(4, 5, 6))
        assert list(batch.models()) == [random_model(s, n) for s, n in ((1, 4), (2, 5), (3, 6))]

    def test_describe_is_json_ready(self):
        batch = soundness_batch(random_count=2)
        json.dumps(batch.describe())

    def test_exhaustive_model_count(self):
        batch = Batch(exhaustive_n=2)
        assert sum(1 for _ in batch.models()) == 1 * 4 + 4 * 16
