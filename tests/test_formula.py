import copy
import pickle
import re
import time

import pytest
from hypothesis import given, strategies as st

from oracles import count_nodes
from topobelief import formula as fm
from topobelief.formula import (
    ALPHA_MAP,
    Atom,
    Bel,
    Bot,
    Box,
    E_MAP,
    FormulaError,
    Iff,
    Implies,
    K,
    Meta,
    Not,
    ParseError,
    T_MAP,
    Top,
    dia,
    formula_corpus,
    get_scheme,
    instantiate,
    parse,
    postorder,
    subformulas,
    to_text,
    translate,
)
from topobelief.record import FrozenInstanceError

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_direct_grammar_reading(self):
        assert parse("K p -> B p") == Implies(K(p), Bel(p))

    def test_belief_reduction_shape(self):
        assert parse("B p <-> K dia box p") == Iff(Bel(p), K(Not(Box(Not(Box(p))))))

    def test_syntax_error_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("p &")
        assert err.value.position == 3

    def test_unknown_operator_token(self):
        with pytest.raises(ParseError):
            parse("p & Foo")

    def test_sugar_desugars(self):
        assert parse("hatK p") == Not(K(Not(p)))
        assert parse("dia p") == Not(Box(Not(p)))
        assert parse("hatB p") == Not(Bel(Not(p)))

    def test_constants(self):
        assert parse("true") == Top()
        assert parse("false") == Bot()

    def test_atoms_are_lowercase_identifiers(self):
        assert parse("box_score") == Atom("box_score")
        assert parse("p0_x") == Atom("p0_x")

    def test_precedence(self):
        assert parse("p -> q -> r") == Implies(p, Implies(q, r))
        assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))
        assert parse("p & q | r") == fm.Or(fm.And(p, q), r)
        assert parse("! p & q") == fm.And(Not(p), q)
        assert parse("K p & q") == fm.And(K(p), q)
        assert parse("p | q -> r") == Implies(fm.Or(p, q), r)

    def test_tilde_is_negation(self):
        assert parse("~p") == Not(p)


class TestPrint:
    def test_plain_conjunction(self):
        assert to_text(fm.And(p, q)) == "p & q"

    def test_resugars_dual_knowledge(self):
        assert to_text(Not(K(Not(p)))) == "hatK p"

    def test_weak_factivity_shape(self):
        assert to_text(Implies(Bel(p), dia(p))) == "B p -> dia p"

    def test_nested_negation_under_sugar(self):
        f = Not(K(Not(Not(p))))
        assert to_text(f) == "hatK ! p"
        assert parse(to_text(f)) == f

    def test_association_parens(self):
        assert to_text(Implies(Implies(p, q), r)) == "(p -> q) -> r"
        assert to_text(Implies(p, Implies(q, r))) == "p -> q -> r"
        assert to_text(fm.And(p, fm.And(q, r))) == "p & (q & r)"
        assert to_text(fm.And(fm.And(p, q), r)) == "p & q & r"


formulas = st.recursive(
    st.sampled_from([p, q, r, Top(), Bot()]),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(K, kids),
        st.builds(Box, kids),
        st.builds(Bel, kids),
        st.builds(fm.And, kids, kids),
        st.builds(fm.Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(lambda f: Not(K(Not(f))), kids),
        st.builds(dia, kids),
        st.builds(lambda f: Not(Bel(Not(f))), kids),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(formulas)
    def test_parse_inverts_print(self, f):
        assert parse(to_text(f)) == f

    def test_corpus_round_trips(self):
        for f in formula_corpus():
            assert parse(to_text(f)) == f


class TestSchemes:
    def test_positive_introspection_for_belief(self):
        inst = instantiate(get_scheme("4_B"), {"phi": p})
        assert inst == parse("B p -> B B p")

    def test_confident_belief(self):
        inst = instantiate(get_scheme("CB"), {"phi": p})
        assert inst == parse("B (box p | box ! box p)")

    def test_knowability_bridge_on_top(self):
        inst = instantiate(get_scheme("KI"), {"phi": Top()})
        assert inst == parse("K true -> box true")

    def test_missing_binding(self):
        with pytest.raises(FormulaError, match="psi"):
            instantiate(get_scheme("K_K"), {"phi": p})

    def test_instances_of_edge_templates(self):
        """instances rebuilds only the nodes at or above a metavariable and
        reads the others as they are: a template without one is itself, a
        lone metavariable its binding, and a subtree without one is shared,
        not rebuilt.  A binding lists the metavariables in sorted name
        order, so phi before psi."""
        fixed = fm.And(p, K(q))
        phi, psi = Meta("phi"), Meta("psi")
        cases = (
            (fixed, [], fixed),
            (phi, [q], q),
            (Implies(fixed, Bel(fm.Or(phi, fixed))), [Not(p)], Implies(fixed, Bel(fm.Or(Not(p), fixed)))),
            (Iff(psi, Box(phi)), [p, q], Iff(q, Box(p))),
        )
        for template, binding, want in cases:
            scheme = fm.Scheme("t", template)
            assert list(fm.instances(scheme, [binding, binding])) == [want, want]
            assert instantiate(scheme, dict(zip(sorted(scheme.metavariables()), binding))) is want

    def test_unknown_scheme(self):
        with pytest.raises(FormulaError):
            get_scheme("XYZ")

    def test_metavariables(self):
        assert get_scheme("K_B").metavariables() == {"phi", "psi"}
        assert get_scheme("wF").metavariables() == {"phi"}

    def test_full_label_registry(self):
        # all table labels resolve, including the ones no suite lists
        for star in ("K", "box", "B"):
            for prefix in ("K", "D", "T", "4", ".2", "5"):
                assert get_scheme(f"{prefix}_{star}")
        assert instantiate(get_scheme("sNI"), {"phi": p}) == parse("! B p -> K ! B p")
        assert instantiate(get_scheme("FB"), {"phi": p}) == parse("B p -> B K p")
        assert instantiate(get_scheme("EQ"), {"phi": p}) == parse("B p <-> K dia box p")


class TestTranslate:
    def test_belief_elimination(self):
        assert translate(Bel(p), E_MAP) == K(dia(Box(p)))

    def test_alpha_is_innermost_first(self):
        assert translate(Bel(Bel(p)), ALPHA_MAP) == parse("B dia box B dia box p")

    def test_box_collapse(self):
        assert translate(Box(K(p)), T_MAP) == K(K(p))

    @given(formulas)
    def test_e_eliminates_belief(self, f):
        assert count_nodes(translate(f, E_MAP), Bel) == 0

    @given(formulas)
    def test_t_eliminates_box(self, f):
        assert count_nodes(translate(f, T_MAP), Box) == 0

    @given(formulas)
    def test_alpha_preserves_belief_count(self, f):
        before = count_nodes(f, Bel)
        image = translate(f, ALPHA_MAP)
        assert count_nodes(image, Bel) == before
        # each belief node gains exactly one dia-box prefix under it
        for g in subformulas(image):
            if isinstance(g, Bel):
                assert isinstance(g.sub, Not)
                assert isinstance(g.sub.sub, Box)
                assert isinstance(g.sub.sub.sub, Not)
                assert isinstance(g.sub.sub.sub.sub, Box)

    def test_unknown_map(self):
        with pytest.raises(FormulaError):
            translate(p, "Z")


class TestSubformulas:
    def test_atom(self):
        assert subformulas(p) == {p}

    def test_knowledge_of_conjunction(self):
        f = K(fm.And(p, q))
        assert subformulas(f) == {p, q, fm.And(p, q), f}

    def test_belief(self):
        assert subformulas(Bel(p)) == {p, Bel(p)}

    @given(formulas)
    def test_contains_self_and_children(self, f):
        subs = subformulas(f)
        assert f in subs
        for g in subs:
            for child in g._children:
                assert child in subs


class TestCorpus:
    def test_deterministic(self):
        assert formula_corpus() == formula_corpus()

    def test_reaches_modal_depth_three(self):
        assert max(fm.modal_depth(f) for f in formula_corpus()) == 3

    def test_belief_fragment(self):
        corpus = formula_corpus(connectives=("B",))
        assert all(fm.modalities(f) <= {"B"} for f in corpus)
        assert any(fm.modal_depth(f) == 3 for f in corpus)


class TestInterning:
    """Equal formulas are one node, however they are built."""

    TEXTS = ("K p -> B p", "hatB (p & ! q)", "B (box p | box ! box p)", "true <-> false")

    @pytest.mark.parametrize("text", TEXTS)
    def test_parse_gives_one_object(self, text):
        assert parse(text) is parse(text)

    def test_builders_give_the_parsed_objects(self):
        assert translate(Bel(p), E_MAP) is parse("K dia box p")
        assert translate(Bel(Bel(p)), ALPHA_MAP) is parse("B dia box B dia box p")
        assert translate(Box(K(p)), T_MAP) is parse("K K p")
        for scheme in fm.SCHEMES.values():
            inst = instantiate(scheme, {"phi": p, "psi": fm.And(q, Bel(r))})
            assert parse(to_text(inst)) is inst, scheme.name
        for f in formula_corpus():
            assert parse(to_text(f)) is f

    def test_keywords_build_the_same_node(self):
        assert Implies(left=Bel(sub=Atom(name="p")), right=p) is parse("B p -> p")

    REPRS = {
        Atom("p"): "Atom(name='p')",
        Top(): "Top()",
        Bot(): "Bot()",
        Not(p): "Not(sub=Atom(name='p'))",
        fm.And(p, q): "And(left=Atom(name='p'), right=Atom(name='q'))",
        fm.Or(p, q): "Or(left=Atom(name='p'), right=Atom(name='q'))",
        Implies(Bel(p), p): "Implies(left=Bel(sub=Atom(name='p')), right=Atom(name='p'))",
        Iff(p, q): "Iff(left=Atom(name='p'), right=Atom(name='q'))",
        K(p): "K(sub=Atom(name='p'))",
        Box(p): "Box(sub=Atom(name='p'))",
        Bel(p): "Bel(sub=Atom(name='p'))",
        Meta("phi"): "Meta(name='phi')",
    }

    def test_repr_of_every_node_class(self):
        assert {type(f) for f in self.REPRS} == set(fm.Formula.__subclasses__())
        for f, text in self.REPRS.items():
            assert repr(f) == text

    def test_nodes_stay_frozen(self):
        f = parse("B p")
        with pytest.raises(FrozenInstanceError):
            f.sub = q
        with pytest.raises(FrozenInstanceError):
            p.name = "q"
        assert f.sub is p and p.name == "p"

    @pytest.mark.parametrize("text", TEXTS)
    def test_pickle_and_copy_give_the_same_node(self, text):
        f = parse(text)
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, Meta("phi")])[1] is Meta("phi")

    def test_table_holds_only_whole_nodes(self):
        pickle.loads(pickle.dumps(parse("K (p | ! q)")))
        with pytest.raises(TypeError):
            Not()
        with pytest.raises(TypeError):
            fm.And(p)
        with pytest.raises(TypeError):
            Bel(p, q)
        for cls, *fields in fm._NODES:
            assert len(fields) == len(cls._fields), (cls, fields)

    # a constructor call whose fields are not a formula's, and the error naming why
    BAD_FIELDS = [
        (Not, (3,), "Not takes formulas, not 3"),
        (fm.And, (p, "q"), "And takes formulas, not 'q'"),
        (Implies, (None, p), "Implies takes formulas, not None"),
        (Atom, ("P q",), "bad atom name 'P q'"),
        (Atom, ("",), "bad atom name ''"),
        (Atom, (3,), "bad atom name 3"),
        (Atom, ("box",), "bad atom name 'box'"),
        (Atom, ("dia",), "bad atom name 'dia'"),
        (Atom, ("true",), "bad atom name 'true'"),
        (Atom, ("false",), "bad atom name 'false'"),
        (Meta, ("phi psi",), "bad meta name 'phi psi'"),
        (Meta, ("box",), "bad meta name 'box'"),
        # unhashable fields, which no key of the table can hold
        (Not, ([1],), "Not takes formulas, not [1]"),
        (Atom, (["p"],), "bad atom name ['p']"),
    ]

    @pytest.mark.parametrize(
        "cls, fields, message", BAD_FIELDS, ids=[f"{c.__name__}{f!r}" for c, f, _ in BAD_FIELDS]
    )
    def test_bad_fields_raise_and_are_not_interned(self, cls, fields, message):
        nodes = len(fm._NODES)
        with pytest.raises(FormulaError, match=f"^{re.escape(message)}$"):
            cls(*fields)
        assert len(fm._NODES) == nodes
        if not any(isinstance(field, list) for field in fields):  # a list cannot be looked up
            assert (cls, *fields) not in fm._NODES

    def test_words_that_only_look_reserved_are_atoms(self):
        for name in ("boxes", "dia_1", "truth", "k", "b"):
            assert parse(name) is Atom(name) and to_text(Atom(name)) == name


class TestPostorder:
    @given(formulas)
    def test_children_come_first(self, f):
        order = postorder(f)
        assert set(order) == subformulas(f)
        assert len(order) == len(subformulas(f))
        assert order[-1] is f
        seen = set()
        for g in order:
            assert all(child in seen for child in g._children)
            seen.add(g)

    def test_left_to_right(self):
        assert postorder(parse("(p & q) | (q & p)")) == (
            p,
            q,
            fm.And(p, q),
            fm.And(q, p),
            parse("(p & q) | (q & p)"),
        )

    def test_shared_subformula_listed_once(self):
        f = parse("B p & ! B p")
        assert postorder(f) == (p, Bel(p), Not(Bel(p)), f)

    def test_stored_on_the_node_asked_only(self):
        inner = parse("! B ! asked_only")  # an atom no other test builds
        outer = K(inner)
        assert postorder(outer) is postorder(outer)
        assert inner._postorder is None

    def test_atoms_and_modalities(self):
        f = parse("B (p | K q) -> box r")
        assert fm.atoms(f) == {"p", "q", "r"}
        assert fm.modalities(f) == {"K", "box", "B"}


class TestDeepChain:
    """A formula built bottom-up in a loop works at any depth."""

    DEPTH = 5_000

    def test_hash_and_postorder_of_a_deep_chain(self):
        f = p
        for _ in range(self.DEPTH):
            f = Bel(Not(f))
        assert hash(f) == hash(f)
        assert f in {f}
        assert len(postorder(f)) == 2 * self.DEPTH + 1
        assert len(subformulas(f)) == 2 * self.DEPTH + 1
        assert postorder(f)[0] is p and postorder(f)[-1] is f

    def test_parsing_still_stops_at_the_recursion_limit(self):
        with pytest.raises(RecursionError):
            parse("B ! " * self.DEPTH + "p")

    def test_modal_depth_translate_and_instantiate_of_a_deep_chain(self):
        def chain(leaf, wrap):
            f = leaf
            for _ in range(self.DEPTH):
                f = wrap(f)
            return f

        f = chain(p, lambda g: Bel(Not(g)))
        assert fm.modal_depth(f) == self.DEPTH
        assert translate(f, T_MAP) is f
        assert translate(f, ALPHA_MAP) is chain(p, lambda g: Bel(dia(Box(Not(g)))))
        assert translate(f, E_MAP) is chain(p, lambda g: K(dia(Box(Not(g)))))
        scheme = fm.Scheme("deep", chain(Meta("phi"), lambda g: Bel(Not(g))))
        assert instantiate(scheme, {"phi": p}) is f

    def test_text_and_repr_of_a_deep_chain(self):
        f = p
        for _ in range(self.DEPTH):
            f = Bel(Not(f))
        started = time.perf_counter()
        # ! B ! g prints as hatB g, so the chain reads B hatB B hatB ... p
        expected = "p"
        for _ in range(self.DEPTH // 2):
            expected = "B hatB " + expected
        assert to_text(f) == str(f) == expected
        text = repr(f)
        assert text.startswith("Bel(sub=Not(sub=Bel(sub=Not(sub=")
        assert text.endswith("Atom(name='p')" + "))" * self.DEPTH)
        assert len(text) == len("Bel(sub=Not(sub=))") * self.DEPTH + len(repr(p))
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"runtime target exceeded: {elapsed:.2f}s"


class TestParseLimit:
    """parse reads input nested up to MAX_DEPTH and refuses deeper input
    with one error, which is both a FormulaError and a RecursionError."""

    # TestDeepInput's shapes (tests/test_cli.py), each nested `depth` deep:
    # a formula of that depth, or that many parentheses open at once
    SHAPES = {
        "conjuncts": lambda depth: " & ".join(["p"] * (depth + 1)),
        "negations": lambda depth: "!" * depth + "p",
        "beliefs": lambda depth: "B " * depth + "p",
        "parentheses": lambda depth: "(" * depth + "p" + ")" * depth,
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_at_the_limit_round_trips(self, shape):
        f = parse(self.SHAPES[shape](fm.MAX_DEPTH))
        assert f._depth == (0 if shape == "parentheses" else fm.MAX_DEPTH)
        assert parse(to_text(f)) is f

    @pytest.mark.parametrize("depth", [fm.MAX_DEPTH + 1, 2_000])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_past_the_limit_raises_the_one_error(self, shape, depth):
        with pytest.raises(fm.NestingError) as err:
            parse(self.SHAPES[shape](depth))
        assert isinstance(err.value, FormulaError) and isinstance(err.value, RecursionError)
        assert str(err.value) == "input nested too deeply (recursion limit reached)"

    @pytest.mark.parametrize("words", [("&",), ("|",), ("->",), ("<->",), ("&", "|")])
    def test_worst_case_round_trips_200_frames_down(self, words):
        """A right operand in parentheses at every level takes the parser
        four frames a level, its most; at MAX_DEPTH that still leaves
        room for 200 frames above parse."""
        text = "p"
        for i in range(fm.MAX_DEPTH):
            text = f"p {words[i % len(words)]} ({text})"

        def round_trip(frames):
            if frames:
                return round_trip(frames - 1)
            f = parse(text)
            return f, parse(to_text(f))

        f, again = round_trip(200)
        assert f._depth == fm.MAX_DEPTH and again is f
        with pytest.raises(fm.NestingError):
            parse(f"p & ({text})")


class TestSharedSubformulas:
    """Walks over a formula visit each distinct subformula once, so a DAG
    with 2^levels paths but 2 * levels + 1 nodes is cheap."""

    @pytest.mark.parametrize("levels", [22, 60])
    def test_walks_are_linear_in_distinct_nodes(self, levels):
        def dag(leaf, belief):
            f = leaf
            for _ in range(levels):
                f = fm.And(belief(f), belief(f))
            return f

        f = dag(p, Bel)
        started = time.perf_counter()
        assert len(postorder(f)) == 2 * levels + 1
        assert fm.modal_depth(f) == levels
        assert translate(f, ALPHA_MAP) is dag(p, lambda g: Bel(dia(Box(g))))
        assert translate(f, E_MAP) is dag(p, lambda g: K(dia(Box(g))))
        assert instantiate(fm.Scheme("dag", dag(Meta("phi"), Bel)), {"phi": q}) is dag(q, Bel)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"runtime target exceeded: {elapsed:.2f}s"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p $ q", "unknown operator token '$' (at offset 2)"),
        ("(p", "expected ')' (at offset 2)"),
        ("p q", "unexpected 'q' (at offset 2)"),
    ],
)
def test_parse_rejects_outside_input(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
