import copy
import json
import operator
import pickle
import time

import pytest

from oracles import brute_closure, brute_min_neighborhoods, contract
from topobelief.model import (
    BudgetError,
    EDScenario,
    ModelError,
    RelationalError,
    RelationalModel,
    ScenarioClass,
    SubsetModel,
    _contraction_size,
    _range_cost,
    check_scenario,
    dump,
    ed_scenarios,
    epistemic_scenarios,
    exhaustive_models,
    load,
    parse_scenario,
    random_model,
    range_groups,
)
from topobelief.suites import soundness_batch
from topobelief.topology import Topology, enumerate_topologies, find_violation

SIERP_DOC = """
{ "type": "subset", "worlds": 2,
  "opens": [[], [0], [0, 1]],
  "valuation": {"p": [0]} }
"""


class TestLoad:
    def test_explicit_opens(self):
        m = load(SIERP_DOC)
        assert isinstance(m, SubsetModel)
        assert m.topology.opens == (0, 0b01, 0b11)
        assert m.valuation == {"p": 0b01}

    def test_subbasis_generates(self):
        doc = json.dumps(
            {"type": "subset", "worlds": 3, "subbasis": [[0], [1]], "valuation": {}}
        )
        m = load(doc)
        assert len(m.topology.opens) == 5

    def test_missing_empty_set_rejected(self):
        doc = json.dumps(
            {"type": "subset", "worlds": 2, "opens": [[0], [0, 1]], "valuation": {}}
        )
        with pytest.raises(ModelError, match="empty"):
            load(doc)

    def test_relational(self):
        doc = json.dumps(
            {"type": "relational", "worlds": 2, "rel": [[0, 1], [1, 1]], "valuation": {"p": [1]}}
        )
        m = load(doc)
        assert isinstance(m, RelationalModel)
        assert m.rel == frozenset({(0, 1), (1, 1)})

    def test_bad_json(self):
        with pytest.raises(ModelError, match="document"):
            load("{nope")

    def test_unknown_type(self):
        with pytest.raises(ModelError, match="type"):
            load('{"type": "weird", "worlds": 1}')

    def test_valuation_out_of_range(self):
        doc = json.dumps(
            {"type": "subset", "worlds": 2, "opens": [[], [0, 1]], "valuation": {"p": [5]}}
        )
        with pytest.raises(ModelError, match="range"):
            load(doc)

    def test_opens_and_subbasis_conflict(self):
        doc = json.dumps(
            {"type": "subset", "worlds": 1, "opens": [[], [0]], "subbasis": [[0]]}
        )
        with pytest.raises(ModelError, match="not both"):
            load(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"type": "subset", "worlds": True, "opens": [[], [0]]}, "worlds must be an integer"),
            ({"type": "subset", "worlds": 2, "opens": [[], [True], [0, 1]]}, "open must be"),
            ({"type": "subset", "worlds": 2, "subbasis": [[True]]}, "subbasis member must be"),
            (
                {"type": "subset", "worlds": 2, "opens": [[], [0, 1]], "valuation": {"p": [True]}},
                "valuation of 'p' must be",
            ),
            ({"type": "relational", "worlds": 2, "rel": [[False, True]]}, "bad relation pair"),
        ],
        ids=["worlds", "opens", "subbasis", "valuation", "rel"],
    )
    def test_booleans_are_not_world_numbers(self, doc, message):
        with pytest.raises(ModelError, match=message):
            load(json.dumps(doc))

    def test_bad_atom_name(self):
        doc = json.dumps(
            {"type": "subset", "worlds": 1, "opens": [[], [0]], "valuation": {"P": [0]}}
        )
        with pytest.raises(ModelError, match="atom"):
            load(doc)


class TestDump:
    def test_load_dump_identity(self, sierpinski):
        d = dump(sierpinski)
        assert dump(load(d)) == d

    def test_relational_round_trip(self):
        m = RelationalModel(3, frozenset({(0, 1), (1, 1), (2, 2)}), {"p": 0b10})
        assert dump(load(dump(m))) == dump(m)

    def test_canonical_bytes(self, sierpinski):
        # sorted keys, canonically ordered opens, trailing newline
        d = dump(sierpinski)
        assert d == dump(load(d))
        assert d.endswith("\n")
        doc = json.loads(d)
        assert list(doc) == sorted(doc)
        assert doc["opens"] == [[], [0], [0, 1]]


MODEL_KINDS = {
    "subset": lambda valuation: SubsetModel(Topology.from_opens(2, [0, 1, 3]), valuation),
    "relational": lambda valuation: RelationalModel(2, frozenset({(0, 1), (1, 1)}), valuation),
}
MUTATORS = (
    lambda v: operator.setitem(v, "p", 99),
    lambda v: operator.delitem(v, "p"),
    lambda v: operator.ior(v, {"q": 1}),
    lambda v: v.clear(),
    lambda v: v.pop("p"),
    lambda v: v.popitem(),
    lambda v: v.setdefault("q", 1),
    lambda v: v.update(q=1),
)


@pytest.mark.parametrize("build", MODEL_KINDS.values(), ids=MODEL_KINDS.keys())
class TestFrozenValuation:
    def test_source_dict_changes_do_not_reach_the_model(self, build):
        source = {"p": 0b01}
        m = build(source)
        source["p"] = 99
        source["q"] = 0b10
        assert m.valuation == {"p": 0b01}

    def test_every_mutation_is_refused(self, build):
        m = build({"p": 0b01})
        for mutate in MUTATORS:
            with pytest.raises(TypeError):
                mutate(m.valuation)
        assert m.valuation == {"p": 0b01}
        assert dump(load(dump(m))) == dump(m)

    def test_equal_models_hash_equal(self, build):
        a, b = build({"p": 0b01, "q": 0b10}), build({"q": 0b10, "p": 0b01})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert build({"p": 0b01}) not in {a}

    def test_pickle_and_deepcopy_round_trip(self, build):
        m = build({"p": 0b01})
        for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert again == m and repr(again) == repr(m) and dump(again) == dump(m)
            assert type(again.valuation) is type(m.valuation)


class TestScenarios:
    def test_epistemic_indiscrete(self, indiscrete2):
        got = [s.literal() for s in epistemic_scenarios(indiscrete2)]
        assert got == ["x=0;U=0,1", "x=1;U=0,1"]

    def test_epistemic_sierpinski_order(self, sierpinski):
        got = [s.literal() for s in epistemic_scenarios(sierpinski)]
        assert got == ["x=0;U=0", "x=0;U=0,1", "x=1;U=0,1"]

    def test_epistemic_single_point(self):
        m = SubsetModel(Topology.discrete(1), {})
        assert [s.literal() for s in epistemic_scenarios(m)] == ["x=0;U=0"]

    def test_ed_all_on_indiscrete(self, indiscrete2):
        got = list(ed_scenarios(indiscrete2, ScenarioClass.ALL))
        assert len(got) == 4
        assert {(s.x, s.u, s.v) for s in got} == {(0, 3, 0), (0, 3, 3), (1, 3, 0), (1, 3, 3)}

    def test_ed_consistent_excludes_empty(self, indiscrete2):
        got = list(ed_scenarios(indiscrete2, ScenarioClass.CONSISTENT))
        assert len(got) == 2
        assert all(s.v == 3 for s in got)

    def test_total_matches_epistemic(self, sierpinski):
        total = [(s.x, s.u) for s in ed_scenarios(sierpinski, ScenarioClass.TOTAL)]
        epis = [(s.x, s.u) for s in epistemic_scenarios(sierpinski)]
        assert total == epis
        assert all(s.v == s.u for s in ed_scenarios(sierpinski, ScenarioClass.TOTAL))

    def test_streams_satisfy_class_invariants_independently(self, sierpinski, wedge):
        # re-check produced scenarios from raw definitions, not the producer
        for model in (sierpinski, wedge):
            top = model.topology
            opens = set(top.opens)
            for cls in ScenarioClass:
                for s in ed_scenarios(model, cls):
                    assert s.u >> s.x & 1
                    assert s.u in opens and s.v in opens
                    assert s.v & ~s.u == 0
                    if cls is ScenarioClass.CONSISTENT:
                        assert s.v != 0
                    elif cls is ScenarioClass.DENSE:
                        assert s.u & ~brute_closure(top.n, top.opens, s.v) == 0
                    elif cls is ScenarioClass.TOTAL:
                        assert s.v == s.u

    def test_dense_ranges_are_the_dense_pairs_of_all(self):
        """range_groups under dense reads U in cl V through Max; it must keep
        exactly the pairs of all whose U lies in the brute-force closure of V,
        on every topology to 4 points and on random draws of 5 to 10."""
        started = time.perf_counter()
        tops = [t for n in range(1, 5) for t in enumerate_topologies(n)]
        tops += [random_model(seed, n).topology for n in range(5, 11) for seed in range(8)]
        for top in tops:
            closure = {v: brute_closure(top.n, top.opens, v) for v in top.opens}
            pairs = range_groups(top, ScenarioClass.ALL, budget=10**9)
            dense = tuple((u, v) for u, v in pairs if u & ~closure[v] == 0)
            assert range_groups(top, ScenarioClass.DENSE, budget=10**9) == dense, top
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"

    @pytest.mark.parametrize("cls", [None, *ScenarioClass], ids=lambda c: c and c.value or "strong")
    def test_reduced_lists_are_the_filtered_full_list(self, cls):
        """range_groups(..., above=k, inside=m) builds exactly the pairs of
        the full list, in its order, whose U is the carrier or has more than
        k worlds and, with m given, whose V lies inside m (strong has no V
        to filter), and raises BudgetError at the full list's cost: every
        topology to 4 worlds and 50 draws of 5 to 7 worlds, k in 0..4, with
        m = Max and without.  Runtime target 10 s."""
        started = time.perf_counter()
        tops = [t for n in range(1, 5) for t in enumerate_topologies(n)]
        tops += [random_model(seed, 5 + seed % 3).topology for seed in range(50)]
        kept = 0
        for top in tops:
            full = range_groups(top, cls, budget=10**9)
            cost = len(top.opens) ** (1 if cls is None else 2) * top.n
            with pytest.raises(BudgetError, match=f"cost {cost} exceeds budget {cost - 1}"):
                range_groups(top, cls, cost - 1)
            for k in range(5):
                for m in (None, top.maximal):
                    want = tuple(
                        (u, v)
                        for u, v in full
                        if (u == top.full or u.bit_count() > k)
                        and (m is None or cls is None or v & ~m == 0)
                    )
                    assert range_groups(top, cls, cost, above=k, inside=m) == want, (top, k, m)
                    with pytest.raises(BudgetError, match=f"cost {cost} exceeds budget {cost - 1}"):
                        range_groups(top, cls, cost - 1, above=k, inside=m)
                    kept += len(want) < len(full)
        assert kept > len(tops)  # the reductions drop pairs
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"

    @pytest.mark.parametrize("cls", [None, *ScenarioClass], ids=lambda c: c and c.value or "strong")
    def test_range_cost_counts_the_full_list(self, cls):
        """_range_cost, the cost every search reads, is the number of
        scenarios of the full pair list, the sum of |U| over it, without
        building it: every topology to 4 worlds and 50 draws of 5 to 7
        worlds.  Runtime target 5 s."""
        started = time.perf_counter()
        tops = [t for n in range(1, 5) for t in enumerate_topologies(n)]
        tops += [random_model(seed, 5 + seed % 3).topology for seed in range(50)]
        for top in tops:
            full = range_groups(top, cls, budget=10**9)
            assert _range_cost(top, cls) == sum(u.bit_count() for u, _ in full), top
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"runtime target exceeded: {elapsed:.1f}s"

    def test_dense_stream_is_consistent(self, wedge):
        for s in ed_scenarios(wedge, ScenarioClass.DENSE):
            assert s.v != 0  # density of v in a nonempty u forces v nonempty

    def test_budget_guard(self, wedge):
        with pytest.raises(BudgetError):
            list(ed_scenarios(wedge, ScenarioClass.ALL, budget=10))
        # 5 opens on 3 worlds: the epistemic sweep costs 15
        assert len(list(epistemic_scenarios(wedge, budget=15))) == 7
        with pytest.raises(BudgetError, match="cost 15 exceeds budget 14"):
            list(epistemic_scenarios(wedge, budget=14))

    def test_check_scenario(self, sierpinski):
        check_scenario(sierpinski, EDScenario(0, 0b01))
        with pytest.raises(ModelError, match="open"):
            check_scenario(sierpinski, EDScenario(1, 0b10))
        with pytest.raises(ModelError, match="inside"):
            check_scenario(sierpinski, EDScenario(1, 0b01))
        with pytest.raises(ModelError, match="contained"):
            check_scenario(sierpinski, EDScenario(0, 0b01, 0b11))
        with pytest.raises(ModelError, match="doxastic"):
            check_scenario(sierpinski, EDScenario(0, 0b01), need_v=True)
        with pytest.raises(ModelError, match="^epistemic range: world 5 out of range 0..1$"):
            check_scenario(sierpinski, EDScenario(0, 0b100001))
        with pytest.raises(ModelError, match="^doxastic range: world 3 out of range 0..1$"):
            check_scenario(sierpinski, EDScenario(0, 0b11, 0b1001))


class TestScenarioLiterals:
    def test_round_trip(self):
        s = parse_scenario("x=1;U=0,1;V=1")
        assert (s.x, s.u, s.v) == (1, 0b11, 0b10)
        assert parse_scenario(s.literal()) == s

    def test_empty_doxastic_range(self):
        s = parse_scenario("x=0;U=0;V=")
        assert s.v == 0
        assert parse_scenario(s.literal()) == s

    def test_absent_doxastic_range(self):
        assert parse_scenario("x=0;U=0,2").v is None

    def test_bad_literals(self):
        for text in (
            "x=0",
            "U=0,1",
            "x=a;U=0",
            "x=0;U=0;W=1",
            "x=0;U=-1",
            "x=99;U=0",
            "x=0;U=0;U=0,1",
            "x=0;x=1;U=0,1",
        ):
            with pytest.raises(ModelError):
                parse_scenario(text)

    def test_world_index_is_ascii_digits(self):
        # int() reads 1_0 as 10, Arabic-Indic and superscript digits, and signs
        for text in (
            "x=0;U=1_0",
            "x=0;U=\u0661",
            "x=0;U=0,\u00b2",
            "x=+0;U=0",
            "x=-0;U=0",
            "x=0;U=0;V=+0",
            "x=0;U=0,,1",
            "x= ;U=0",
        ):
            with pytest.raises(ModelError, match="bad world index"):
                parse_scenario(text)
        assert parse_scenario(" x = 1 ;U= 0 , 1 ;V= 1 ") == parse_scenario("x=1;U=0,1;V=1")


class TestRandomModel:
    def test_deterministic(self):
        a = random_model(1, 3, atoms=2)
        b = random_model(1, 3, atoms=2)
        assert a.topology.opens == b.topology.opens
        assert a.valuation == b.valuation

    def test_topology_always_verifies(self):
        for seed in range(40):
            m = random_model(seed, 5)
            assert find_violation(m.n, m.topology.opens) is None

    def test_open_count_diversity(self):
        counts = {len(random_model(seed, 4).topology.opens) for seed in range(1, 101)}
        assert len(counts) >= 5

    def test_size_bound(self):
        with pytest.raises(ModelError):
            random_model(0, 17)

    def test_negative_atom_count(self):
        # a negative count would slice ATOM_NAMES from its end: -1 drew p, q, r
        with pytest.raises(ModelError, match="negative"):
            random_model(1, 3, atoms=-1)

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_large_models_round_trip(self, n):
        # seed 4 on 16 worlds generates the discrete topology (65 536 opens)
        for seed in (1, 2, 4):
            m = random_model(seed, n)
            text = dump(m)
            assert dump(load(text)) == text
            assert m.topology.min_neighborhoods == brute_min_neighborhoods(n, m.topology.opens)


class TestContractionSize:
    """_contraction_size against the pair-eliminating oracle (oracles.contract)."""

    def test_size_is_the_oracles_under_every_limit(self):
        """Every two-atom model to 3 worlds (1 924) and every draw of
        soundness_batch() seeds 1 and 2 (400), under each limit 0..4: the
        size is exact when the oracle's is at most the limit and past the
        limit otherwise, so the keep rule (smaller than the model and at
        most the limit) decides alike."""
        models = (
            *exhaustive_models(3, ("p", "q")),
            *soundness_batch().draws,
            *soundness_batch(first_seed=2).draws,
        )
        smaller = [0] * 5
        for model in models:
            size = contract(model)[0].n
            for limit in range(5):
                got = _contraction_size(model.topology, model.valuation.values(), limit)
                assert min(got, limit + 1) == min(size, limit + 1), (model, limit, got, size)
                assert (got < model.n and got <= limit) == (size < model.n and size <= limit)
                assert got <= model.n
                smaller[limit] += size < model.n and size <= limit
        assert smaller == [0, 134, 848, 962, 1047]  # models it drops at k = limit

    def test_contraction_reads_the_valuation(self):
        """The same topology contracts by its valuation: the discrete space
        on 3 worlds is its own contraction under three valuation types, and
        one world under one."""
        top = Topology.discrete(3)
        assert _contraction_size(top, (0b001, 0b010), 3) == 3
        assert _contraction_size(top, (0b111, 0), 3) == 1
        assert _contraction_size(top, (0b011, 0), 3) == 2
        # on the chain where 0 sees 1 sees 2, p only at 2 leaves 0 and 1
        # alike (both see p and not p), and p only at 1 tells all three apart
        chain = Topology.from_opens(3, [0, 0b100, 0b110, 0b111])
        assert _contraction_size(chain, (0b100,), 3) == 2
        assert _contraction_size(chain, (0b010,), 3) == 3


_SIERPINSKI = SubsetModel(Topology.from_opens(2, [0b00, 0b01, 0b11]), {"p": 0b01})


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: load("[1, 2]"), ModelError, "model document must be a JSON object"),
        (
            lambda: load('{"type": "subset", "worlds": 1, "opens": [[0]], "valuation": [0]}'),
            ModelError,
            "valuation must be an object",
        ),
        (
            lambda: load('{"type": "subset", "worlds": 1}'),
            ModelError,
            "subset model needs opens or subbasis",
        ),
        (
            lambda: load('{"type": "subset", "worlds": 1, "opens": 3}'),
            ModelError,
            "opens must be a list",
        ),
        (lambda: parse_scenario("x"), ModelError, "bad scenario field 'x'"),
        (
            lambda: check_scenario(_SIERPINSKI, EDScenario(2, 0b11)),
            ModelError,
            "world 2 out of range",
        ),
        (
            lambda: check_scenario(_SIERPINSKI, EDScenario(1, 0b11, 0b10)),
            ModelError,
            "doxastic range is not open",
        ),
        (lambda: dump(object()), ModelError, "cannot dump object"),
        (
            lambda: SubsetModel(Topology.discrete(2), {"p": 0b100}),
            ModelError,
            "valuation of 'p' out of carrier range",
        ),
        (
            lambda: RelationalModel(2, frozenset({(0, 2)})),
            RelationalError,
            "pair (0,2) out of range",
        ),
    ],
)
def test_outside_input_is_refused(check, error, message):
    with pytest.raises(error) as info:
        check()
    assert type(info.value) is error
    assert str(info.value) == message
