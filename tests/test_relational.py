import pickle
import random

import pytest

from itertools import product

from oracles import (
    all_belief_frames,
    all_relations,
    brush_components,
    is_belief_relation,
    kripke_truth,
)
from topobelief import model, relational
from topobelief.formula import Atom, Bel, Meta, Not, formula_corpus, get_scheme, parse, postorder
from topobelief.relational import (
    RelationalError,
    RelationalModel,
    cell_scenario,
    check_modal_equivalence,
    classify,
    decompose,
    eval_relational,
    random_belief_frame,
    relational_extension,
    to_subset_model,
)
from topobelief.semantics import Semantics, satisfies
from topobelief.topology import MAX_WORLDS, bits, generate_from_subbasis

PIN = RelationalModel(2, frozenset({(0, 1), (1, 1)}), {"p": 0b10})


class TestWorldCount:
    @pytest.mark.parametrize("n", [0, -2, 17])
    def test_outside_one_to_sixteen_is_rejected(self, n):
        with pytest.raises(RelationalError):
            RelationalModel(n, frozenset(), {})
        with pytest.raises(RelationalError):
            random_belief_frame(0, n)

    def test_no_frames_on_zero_worlds(self):
        with pytest.raises(RelationalError):
            list(all_belief_frames(0))

    @pytest.mark.parametrize("n", [1, MAX_WORLDS])
    def test_one_and_sixteen_build(self, n):
        assert RelationalModel(n, frozenset({(n - 1, n - 1)}), {}).succ[n - 1] == 1 << n - 1
        assert random_belief_frame(0, n).n == n


class TestClassify:
    def test_pin(self):
        props = classify(PIN)
        assert props.serial and props.transitive and props.euclidean
        assert props.belief_frame
        assert props.brush and props.final_cluster == 0b10
        assert props.pin

    def test_identity_is_belief_but_not_brush(self):
        m = RelationalModel(2, frozenset({(0, 0), (1, 1)}), {})
        props = classify(m)
        assert props.belief_frame
        assert not props.brush and props.final_cluster is None

    def test_empty_relation(self):
        m = RelationalModel(1, frozenset(), {})
        props = classify(m)
        assert not props.serial and not props.belief_frame

    def test_matches_direct_definition_exhaustively(self):
        for n in (1, 2, 3):
            for rel in all_relations(n):
                got = classify(RelationalModel(n, rel, {}))
                assert got.belief_frame == is_belief_relation(n, rel)

    def test_every_brush_is_a_belief_frame(self):
        for n in (1, 2, 3):
            for rel in all_relations(n):
                props = classify(RelationalModel(n, rel, {}))
                if props.brush:
                    assert props.belief_frame

    def test_single_cell_belief_frame_is_a_brush(self):
        for n in (1, 2, 3):
            for rel in all_relations(n):
                m = RelationalModel(n, rel, {})
                props = classify(m)
                if props.belief_frame and len(decompose(m).components) == 1:
                    assert props.brush


class TestDecompose:
    def test_pin(self):
        dec = decompose(PIN)
        assert [(c.cell, c.final_cluster) for c in dec.components] == [(0b11, 0b10)]

    def test_two_disjoint_pins(self):
        m = RelationalModel(4, frozenset({(0, 1), (1, 1), (2, 3), (3, 3)}), {})
        dec = decompose(m)
        assert [(c.cell, c.final_cluster) for c in dec.components] == [
            (0b0011, 0b0010),
            (0b1100, 0b1000),
        ]
        assert dec.reconstruct() == m.rel

    def test_total_relation(self):
        m = RelationalModel(3, frozenset((x, y) for x in range(3) for y in range(3)), {})
        dec = decompose(m)
        assert [(c.cell, c.final_cluster) for c in dec.components] == [(0b111, 0b111)]

    def test_requires_belief_frame(self):
        with pytest.raises(RelationalError, match="belief frame"):
            decompose(RelationalModel(1, frozenset(), {}))

    def test_reconstruction_identity_exhaustive(self):
        for n in (1, 2, 3, 4):
            for m in all_belief_frames(n):
                assert decompose(m).reconstruct() == m.rel

    def test_matches_brush_definition_on_every_belief_frame(self):
        for n in range(1, 6):
            for m in all_belief_frames(n):
                got = [(c.cell, c.final_cluster) for c in decompose(m).components]
                assert got == brush_components(n, m.rel), sorted(m.rel)

    def test_rejects_every_other_relation(self):
        for n in (1, 2, 3):
            for rel in all_relations(n):
                if not is_belief_relation(n, rel):
                    with pytest.raises(RelationalError, match="not a belief frame"):
                        decompose(RelationalModel(n, rel, {}))

    def test_belief_frame_counts(self):
        # cross-check the constructive sweep against relation filtering
        for n in (1, 2, 3):
            constructed = sum(1 for _ in all_belief_frames(n))
            filtered = sum(1 for rel in all_relations(n) if is_belief_relation(n, rel))
            assert constructed == filtered
        assert sum(1 for _ in all_belief_frames(4)) == 89


class TestToSubsetModel:
    def test_pin_gives_nested_opens(self):
        sm = to_subset_model(PIN)
        assert sm.topology.opens == (0b00, 0b10, 0b11)
        assert sm.valuation == {"p": 0b10}

    def test_identity_gives_discrete(self):
        m = RelationalModel(2, frozenset({(0, 0), (1, 1)}), {})
        assert to_subset_model(m).topology.opens == (0b00, 0b01, 0b10, 0b11)

    def test_total_gives_indiscrete(self):
        m = RelationalModel(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}), {})
        assert to_subset_model(m).topology.opens == (0b00, 0b11)

    def test_requires_transitive(self):
        m = RelationalModel(3, frozenset({(0, 1), (1, 2)}), {})
        with pytest.raises(RelationalError, match="transitive"):
            to_subset_model(m)

    def test_table_is_the_topology_its_subbasis_generates(self):
        frames = [RelationalModel(n, rel, {}) for n in (1, 2, 3) for rel in all_relations(n)]
        frames += [m for n in range(1, 6) for m in all_belief_frames(n)]
        checked = 0
        for m in frames:
            if classify(m).transitive:
                subbasis = [s | 1 << x for x, s in enumerate(m.succ)]
                assert to_subset_model(m).topology == generate_from_subbasis(m.n, subbasis)
                checked += 1
        # transitive relations on 1..3 worlds (OEIS A006905), belief frames on 1..5
        assert checked == 2 + 13 + 171 + 1 + 4 + 17 + 89 + 552

    def test_model_types_live_in_model(self):
        assert relational.RelationalModel is model.RelationalModel
        assert relational.RelationalError is model.RelationalError

    def test_closed_successor_sets_are_minimal_neighborhoods(self):
        for seed in range(20):
            m = random_belief_frame(seed, 5)
            sm = to_subset_model(m)
            succ = m.succ
            for x in range(m.n):
                assert sm.topology.min_neighborhoods[x] == succ[x] | (1 << x)

    def test_cells_and_clusters_are_open(self):
        for n in (1, 2, 3, 4):
            for m in all_belief_frames(n):
                sm = to_subset_model(m)
                for comp in decompose(m).components:
                    assert sm.topology.is_open(comp.cell)
                    assert sm.topology.is_open(comp.final_cluster)

    def test_interior_closure_meet_cluster_facts(self):
        # inside one component: int(A) meets the cluster iff A covers it,
        # and cl(A) covers the cell iff A meets the cluster
        for n in (1, 2, 3, 4):
            for m in all_belief_frames(n):
                sm = to_subset_model(m)
                top = sm.topology
                for comp in decompose(m).components:
                    for a in range(1 << n):
                        hits_interior = top.interior(a) & comp.final_cluster != 0
                        covers = a & comp.final_cluster == comp.final_cluster
                        assert hits_interior == covers
                        cl_covers_cell = top.closure(a) & comp.cell == comp.cell
                        meets_cluster = a & comp.final_cluster != 0
                        assert cl_covers_cell == meets_cluster


class TestEvalRelational:
    def test_false_belief_witness(self):
        assert eval_relational(PIN, 0, parse("B p"))
        assert not eval_relational(PIN, 0, parse("p"))
        assert eval_relational(PIN, 0, parse("B p & ! p"))

    def test_vacuous_belief(self):
        m = RelationalModel(1, frozenset(), {})
        assert eval_relational(m, 0, parse("B false"))

    def test_rejects_other_modalities(self):
        with pytest.raises(RelationalError, match="fragment"):
            eval_relational(PIN, 0, parse("K p"))
        with pytest.raises(RelationalError, match="fragment"):
            eval_relational(PIN, 0, parse("box p"))

    def test_world_range(self):
        with pytest.raises(RelationalError):
            eval_relational(PIN, 5, parse("p"))

    def test_rejects_bad_atom_name(self):
        with pytest.raises(RelationalError, match="bad atom name 'P!'"):
            RelationalModel(1, frozenset({(0, 0)}), {"P!": 0b1})

    @staticmethod
    def _agrees_with_kripke_oracle(n, rel):
        corpus = formula_corpus(connectives=("B",))
        for p, q in product(range(1 << n), repeat=2):
            m = RelationalModel(n, rel, {"p": p, "q": q})
            for f in corpus:
                for x in range(n):
                    assert eval_relational(m, x, f) == kripke_truth(m, x, f), (m, x, str(f))

    def test_matches_kripke_oracle_on_every_belief_frame(self):
        for n in (1, 2, 3):
            for frame in all_belief_frames(n):
                self._agrees_with_kripke_oracle(n, frame.rel)

    def test_matches_kripke_oracle_on_every_relation(self):
        for rel in all_relations(2):
            self._agrees_with_kripke_oracle(2, rel)


class TestRelationalExtension:
    def test_other_modalities_are_named(self):
        message = "relational evaluation is for the B fragment only (found ['K'])"
        with pytest.raises(RelationalError) as err:
            relational_extension(PIN, parse("K p"))
        assert str(err.value) == message
        with pytest.raises(RelationalError) as err:
            relational_extension(PIN, parse("B p & (box q | K p)"))
        assert str(err.value) == "relational evaluation is for the B fragment only (found ['K', 'box'])"

    def test_a_metavariable_is_named(self):
        with pytest.raises(RelationalError) as err:
            relational_extension(PIN, Bel(Meta("phi")))
        assert str(err.value) == "cannot evaluate node Meta(name='phi')"
        with pytest.raises(RelationalError) as err:
            relational_extension(PIN, get_scheme("K_B").template)
        assert str(err.value) == "cannot evaluate node Meta(name='phi')"

    def test_matches_kripke_oracle_on_random_frames(self):
        corpus = formula_corpus(connectives=("B",))
        for seed in range(240):
            m = random_belief_frame(seed, 1 + seed % 7)
            for f in corpus:
                ext = relational_extension(m, f)
                for x in range(m.n):
                    assert bool(ext >> x & 1) == kripke_truth(m, x, f), (seed, x, str(f))

    def test_deep_chain(self):
        depth = 5_000
        f = Atom("p")
        for _ in range(depth):
            f = Bel(Not(f))
        m = random_belief_frame(4, 6)
        # B ! g holds at x iff no successor of x satisfies g
        expected = m.valuation["p"]
        for _ in range(depth):
            expected = sum(1 << x for x, s in enumerate(m.succ) if not s & expected)
        assert relational_extension(m, f) == expected


class TestExtensionTable:
    """A frame keeps the extensions computed on it; every answer read from
    the table must equal the oracle's and a fresh frame's, in any order."""

    CORPUS = formula_corpus(connectives=("B",))
    SUBFORMULAS = tuple(dict.fromkeys(g for f in CORPUS for g in postorder(f)))

    @classmethod
    def _orders(cls, n, seed):
        """Ways to ask the corpus: (formula, world) pairs, world None for a
        whole extension."""
        shuffled = list(cls.SUBFORMULAS)
        random.Random(seed).shuffle(shuffled)
        largest_first = sorted(cls.SUBFORMULAS, key=lambda f: -len(postorder(f)))
        return {
            "largest first": [(f, None) for f in largest_first],
            "subformulas first": [(f, None) for f in cls.SUBFORMULAS],
            "shuffled": [(f, None) for f in shuffled],
            "per world": [(f, x) for x in range(n) for f in cls.CORPUS],
            "per world, shuffled": [(f, x) for f in shuffled for x in reversed(range(n))],
        }

    def test_every_order_matches_the_oracle_and_a_fresh_frame(self):
        for n in (1, 2, 3, 4):
            for i, frame in enumerate(all_belief_frames(n)):
                full = (1 << n) - 1
                valuation = {"p": i * 5 & full, "q": (i * 3 + 1) & full}
                fresh = {
                    f: relational_extension(RelationalModel(n, frame.rel, valuation), f)
                    for f in self.SUBFORMULAS
                }
                oracle = RelationalModel(n, frame.rel, valuation)
                for f in self.SUBFORMULAS:
                    assert all(bool(fresh[f] >> x & 1) == kripke_truth(oracle, x, f) for x in range(n))
                for name, asks in self._orders(n, i).items():
                    m = RelationalModel(n, frame.rel, valuation)
                    for f, x in asks:
                        if x is None:
                            assert relational_extension(m, f) == fresh[f], (name, n, i, str(f))
                        else:
                            assert eval_relational(m, x, f) == bool(fresh[f] >> x & 1), (name, x)

    def test_a_non_b_formula_raises_on_every_call(self):
        mixed = parse("B p & (box q | K p)")
        message = "relational evaluation is for the B fragment only (found ['K', 'box'])"
        m = random_belief_frame(5, 4)
        for before in ((), (parse("B p"),), (parse("B p"), parse("q"))):
            for f in before:
                relational_extension(m, f)
            for _ in range(2):
                with pytest.raises(RelationalError) as err:
                    relational_extension(m, mixed)
                assert str(err.value) == message
                for x in range(m.n):
                    with pytest.raises(RelationalError, match="fragment"):
                        eval_relational(m, x, mixed)
        for _ in range(2):
            with pytest.raises(RelationalError, match="cannot evaluate node Meta"):
                relational_extension(m, Bel(Meta("phi")))
        assert set(m._extensions) == {parse("p"), parse("B p"), parse("q")}
        assert relational_extension(m, parse("B p")) == relational_extension(
            random_belief_frame(5, 4), parse("B p")
        )

    def test_the_table_leaves_identity_alone(self):
        a, b = random_belief_frame(11, 5), random_belief_frame(11, 5)
        for f in self.CORPUS:
            relational_extension(a, f)
        relational_extension(b, parse("B ! p"))
        assert len(a._extensions) != len(b._extensions)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == repr(b) and model.dump(a) == model.dump(b)
        for m in (a, b):
            again = pickle.loads(pickle.dumps(m))
            assert again == m and repr(again) == repr(m) and model.dump(again) == model.dump(m)
            for f in self.CORPUS:
                assert relational_extension(again, f) == relational_extension(m, f)

    def test_one_b_interior_per_distinct_b_subformula(self, monkeypatch):
        calls = []
        interior = relational.mnb_interior

        def counted(succ, a):
            calls.append(a)
            return interior(succ, a)

        monkeypatch.setattr(relational, "mnb_interior", counted)
        m = random_belief_frame(2, 6)
        for _ in range(2):
            for x in range(m.n):
                for f in self.CORPUS:
                    eval_relational(m, x, f)
        assert len(calls) == sum(type(f) is Bel for f in self.SUBFORMULAS)


class TestBridge:
    def test_pin_belief(self):
        assert check_modal_equivalence(PIN, parse("B p")) is None

    def test_brush_dual_belief(self):
        m = RelationalModel(
            3, frozenset((x, y) for x in range(3) for y in (1, 2)), {"p": 0b010}
        )
        assert check_modal_equivalence(m, parse("hatB p")) is None

    def test_trivial_formula(self):
        assert check_modal_equivalence(PIN, parse("true")) is None

    def test_requires_belief_frame(self):
        with pytest.raises(RelationalError):
            check_modal_equivalence(RelationalModel(1, frozenset(), {}), parse("p"))

    def test_cell_scenario_side(self):
        m = random_belief_frame(3, 4)
        sm = to_subset_model(m)
        for x in range(m.n):
            s = cell_scenario(m, x)
            assert s.x == x and s.u >> x & 1
            assert satisfies(sm, s, parse("true"), Semantics.STRONG)

    def test_seeded_sample(self):
        corpus = [parse(t) for t in ("B p", "B p -> B B p", "! B q -> B ! B q", "B (p | q)")]
        for seed in range(25):
            m = random_belief_frame(seed, 5)
            for f in corpus:
                assert check_modal_equivalence(m, f) is None, (seed, str(f))


class TestRandomBeliefFrame:
    def test_deterministic(self):
        a = random_belief_frame(9, 6)
        b = random_belief_frame(9, 6)
        assert a.rel == b.rel and a.valuation == b.valuation

    def test_negative_atom_count(self):
        # a negative count would slice ATOM_NAMES from its end: -2 drew p, q
        with pytest.raises(RelationalError, match="negative"):
            random_belief_frame(1, 3, atoms=-2)

    def test_always_a_belief_frame(self):
        for seed in range(60):
            m = random_belief_frame(seed, 1 + seed % 6)
            assert classify(m).belief_frame

    def test_components_partition_the_worlds(self):
        for seed in range(20):
            m = random_belief_frame(seed, 6)
            cells = [c.cell for c in decompose(m).components]
            union = 0
            for cell in cells:
                assert union & cell == 0
                union |= cell
            assert union == (1 << m.n) - 1
            assert sorted(min(bits(c)) for c in cells) == [min(bits(c)) for c in cells]


@pytest.mark.parametrize(
    "check, message",
    [(lambda: relational.BrushDecomposition(()).cell_of(0), "world 0 not covered")],
)
def test_outside_input_is_refused(check, message):
    with pytest.raises(RelationalError) as info:
        check()
    assert str(info.value) == message
