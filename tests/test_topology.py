import copy
import pickle
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    all_topologies_oracle,
    brute_closure,
    brute_interior,
    brute_min_neighborhoods,
    canonical_form,
    closure_oracle,
    eager_opens,
    indiscrete,
    relabel,
    upset_family,
)
from topobelief.formula import formula_corpus
from topobelief.model import random_model
from topobelief.record import FrozenInstanceError
from topobelief.relational import decompose, random_belief_frame, to_subset_model
from topobelief.semantics import Evaluator, Semantics
from topobelief.topology import (
    Topology,
    TopologyError,
    bits,
    enumerate_topologies,
    find_violation,
    full_mask,
    generate_from_subbasis,
    mask_of,
    verify,
)
from topobelief import topology
from topobelief.topology import _classes, _is_transitive, _preorders

SIERP = Topology.from_opens(2, [0b00, 0b01, 0b11])


class TestGeneration:
    def test_empty_subbasis_forces_indiscrete(self):
        t = generate_from_subbasis(3, [])
        assert t.opens == (0, 0b111)

    def test_singletons_force_discrete(self):
        t = generate_from_subbasis(2, [0b01, 0b10])
        assert t.opens == (0, 0b01, 0b10, 0b11)

    def test_fixpoint_closure(self):
        # {0} and {1} on three points: their union joins, 2 stays glued to X
        t = generate_from_subbasis(3, [0b001, 0b010])
        assert t.opens == (0, 0b001, 0b010, 0b011, 0b111)

    def test_subset_out_of_range(self):
        with pytest.raises(TopologyError):
            generate_from_subbasis(2, [0b100])

    def test_generated_opens_verify(self):
        for subbasis in ([0b0011, 0b0110], [0b1010, 0b0101, 0b1000], [0b1111]):
            t = generate_from_subbasis(4, subbasis)
            assert find_violation(4, t.opens) is None

    @given(st.integers(2, 4), st.lists(st.integers(0, 15), max_size=5))
    def test_minimality(self, n, raw):
        # deleting any open that is neither subbasic nor forced breaks closure
        subbasis = [s & full_mask(n) for s in raw]
        t = generate_from_subbasis(n, subbasis)
        protected = set(subbasis) | {0, full_mask(n)}
        for o in t.opens:
            if o in protected:
                continue
            rest = [x for x in t.opens if x != o]
            assert find_violation(n, rest) is not None


class TestAgainstOracles:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_generation_matches_closure_oracle(self, data):
        n = data.draw(st.integers(1, 8))
        subbasis = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=8))
        t = generate_from_subbasis(n, subbasis)
        assert set(t.opens) == closure_oracle(n, subbasis)
        assert list(t.opens) == sorted(t.opens, key=lambda m: (bin(m).count("1"), m))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_opens_accepts_exactly_the_topologies(self, data):
        # perturb a topology by one open; the table check must agree with
        # the pair scan, and a rejection must carry its exact message
        n = data.draw(st.integers(1, 5))
        subbasis = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=6))
        family = list(generate_from_subbasis(n, subbasis).opens)
        if data.draw(st.booleans()):
            family.remove(data.draw(st.sampled_from(family)))
        else:
            family.append(data.draw(st.integers(0, full_mask(n))))
        violation = find_violation(n, family)
        # a table that need not be a preorder's can derive a non-topology
        table = data.draw(st.lists(st.integers(0, full_mask(n)), min_size=n, max_size=n))
        broken = Topology(n, tuple(table))
        assert verify(broken) == find_violation(n, broken.opens)
        if violation is None:
            assert set(Topology.from_opens(n, family).opens) == set(family)
        else:
            with pytest.raises(TopologyError) as info:
                Topology.from_opens(n, family)
            assert str(info.value) == str(violation)

    def test_from_opens_accepts_exactly_the_topologies_exhaustively(self):
        # every family on at most 3 points: accepted exactly when the pair
        # scan finds no violation, otherwise rejected with its message
        for n in (1, 2, 3):
            accepted = set()
            for choice in range(1 << (1 << n)):
                family = [s for s in range(1 << n) if choice >> s & 1]
                violation = find_violation(n, family)
                if violation is None:
                    t = Topology.from_opens(n, family)
                    assert set(t.opens) == set(family) and verify(t) is None
                    accepted.add(frozenset(family))
                else:
                    with pytest.raises(TopologyError) as info:
                        Topology.from_opens(n, family)
                    assert str(info.value) == str(violation)
            assert accepted == all_topologies_oracle(n)


class TestVerify:
    def test_nested_chain_ok(self):
        assert find_violation(2, [0b00, 0b01, 0b11]) is None

    def test_missing_empty(self):
        v = find_violation(2, [0b01, 0b11])
        assert v is not None and v.kind == "missing-empty"

    def test_missing_union_witness(self):
        v = find_violation(3, [0b000, 0b001, 0b010, 0b111])
        assert v is not None
        assert v.kind == "missing-union"
        assert (v.left, v.right, v.missing) == (0b001, 0b010, 0b011)
        assert "missing" in str(v)

    def test_missing_carrier(self):
        v = find_violation(2, [0b00, 0b01])
        assert v is not None and v.kind == "missing-carrier"

    def test_from_opens_rejects_violation(self):
        with pytest.raises(TopologyError, match="missing"):
            Topology.from_opens(2, [0b01, 0b11])

    def test_verify_wrapper(self):
        assert verify(SIERP) is None
        # not a preorder's table: its unions miss {0,1} n {1,2} = {1}
        broken = Topology(3, (0b011, 0b110, 0b100))
        assert verify(broken) is not None


class TestInteriorClosure:
    def test_interior_of_carrier(self):
        for t in enumerate_topologies(3):
            assert t.interior(t.full) == t.full

    def test_interior_examples(self, wedge=None):
        assert SIERP.interior(0b10) == 0
        five = Topology.from_opens(3, [0, 0b001, 0b010, 0b011, 0b111])
        assert five.interior(0b110) == 0b010

    def test_closure_examples(self):
        assert SIERP.closure(0) == 0
        assert SIERP.closure(0b01) == 0b11
        assert SIERP.closure(0b10) == 0b10

    def test_out_of_range(self):
        """Every operator rejects a set off the carrier; a closure computed
        through complements (full & ~a) would mask the bad bits away."""
        for bad in (0b100, -1):
            calls = (
                lambda: SIERP.interior(bad),
                lambda: SIERP.closure(bad),
                lambda: SIERP.is_dense_in(bad, 0b11),
                lambda: SIERP.is_dense_in(0b01, bad),
                lambda: SIERP.almost_subset(bad, 0b01),
                lambda: SIERP.almost_subset(0b01, bad),
            )
            for call in calls:
                with pytest.raises(TopologyError):
                    call()

    def test_matches_brute_force_everywhere(self):
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                for a in range(1 << n):
                    assert t.interior(a) == brute_interior(t.opens, a)
                    assert t.closure(a) == brute_closure(n, t.opens, a)


class TestDensityNotions:
    def test_dense_in_itself(self):
        assert SIERP.is_dense_in(0b11, 0b11)

    def test_sierpinski_density(self):
        assert SIERP.is_dense_in(0b01, 0b11)
        assert not SIERP.is_dense_in(0b10, 0b11)

    def test_nowhere_dense(self):
        assert SIERP.is_nowhere_dense(0)
        assert SIERP.is_nowhere_dense(0b10)
        assert not SIERP.is_nowhere_dense(0b01)

    def test_almost_subset(self):
        assert SIERP.almost_subset(0b01, 0b11)  # subset case
        assert SIERP.almost_subset(0b11, 0b01)  # difference {1} nowhere dense
        assert not SIERP.almost_subset(0b11, 0b10)  # difference {0} is not

    def test_almost_subset_open_characterization(self):
        # for open a: a is almost inside b iff a lies in cl(int(b))
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                for a in t.opens:
                    for b in range(1 << n):
                        lhs = t.almost_subset(a, b)
                        rhs = a & ~t.closure(t.interior(b)) == 0
                        assert lhs == rhs


def _nowhere_dense_oracle(t, a):
    """int(cl a) is empty, from the definitions over the open family."""
    return brute_interior(t.opens, brute_closure(t.n, t.opens, a)) == 0


def _check_maximal(t, subsets):
    """Topology.maximal against the definitions: it decides nowhere density
    as int(cl a) does, it decides density as cl(int a) does (an open U lies
    in cl(int a) exactly when U & Max lies in a, the identity the engine's
    strong belief clause and dense ranges read), each maximal cluster is
    open, every nonempty open meets it, and it is the union of the minimal
    nonempty opens."""
    for a in subsets:
        assert (a & t.maximal == 0) == _nowhere_dense_oracle(t, a), (t, a)
        assert t.is_nowhere_dense(a) == (a & t.maximal == 0)
        dense = brute_closure(t.n, t.opens, brute_interior(t.opens, a))
        for u in t.opens:
            assert (u & ~dense == 0) == (u & t.maximal & ~a == 0), (t, a, u)
    table = brute_min_neighborhoods(t.n, t.opens)
    for x in bits(t.maximal):  # x's cluster: the points with x's least open
        cluster = sum(1 << y for y in range(t.n) if table[y] == table[x])
        assert cluster in t.opens and cluster & ~t.maximal == 0, (t, x)
    assert all(o & t.maximal for o in t.opens if o)
    least = []  # the minimal nonempty opens: each holds no smaller one
    for o in t.opens[1:]:  # by size, the empty open first
        if not any(m & ~o == 0 for m in least):
            least.append(o)
    assert t.maximal == sum(least)  # they are disjoint


class TestMaximal:
    def test_every_subset_of_every_topology_to_four_points(self):
        for n in (1, 2, 3, 4):
            for t in enumerate_topologies(n):
                _check_maximal(t, range(1 << n))

    def test_random_topologies_of_five_to_sixteen_points(self):
        rng = Random(11)
        for n in range(5, 17):
            for seed in range(3):
                t = random_model(seed, n).topology
                singles = [1 << x for x in range(n)]
                _check_maximal(t, singles + [rng.getrandbits(n) for _ in range(8)])

    def test_clusters_of_several_points(self):
        # {0,1} is the one maximal cluster; 2 lies below it and 3 below 2
        t = Topology.from_opens(4, [0, 0b0011, 0b0111, 0b1111])
        assert t.maximal == 0b0011
        assert SIERP.maximal == 0b01
        assert indiscrete(3).maximal == 0b111
        assert Topology.discrete(3).maximal == 0b111
        _check_maximal(t, range(16))


def _built(t):
    """Whether t has derived its open family, read without deriving it."""
    return t._opens is not None


def _random_topologies():
    """random_model's topologies of 5 to 16 points, three per size, none read yet."""
    return [random_model(seed, n).topology for n in range(5, 17) for seed in range(3)]


class TestLazyOpens:
    """A topology derives its open family the first time opens is read and
    keeps it; building one, ==, hashing, pickling and the engine read only
    the table and Max."""

    def test_opens_equal_the_eager_derivation(self):
        for n in (1, 2, 3, 4):
            for t in enumerate_topologies(n):
                assert t.opens == eager_opens(t.min_neighborhoods)
        for t in _random_topologies():
            assert not _built(t)
            opens = t.opens
            assert _built(t) and t.opens is opens
            assert opens == eager_opens(t.min_neighborhoods)

    def test_the_bridge_builds_no_open_family(self):
        """to_subset_model's topologies of 120 seeded belief frames, each
        read by an Evaluator at every world's cell for every formula of the
        bridge corpus (the B fragment), derive no open family."""
        corpus = formula_corpus(connectives=("B",))
        tops = []
        for i in range(120):
            frame = random_belief_frame(seed=i, n=i % 6 + 1)
            dec = decompose(frame)
            subset = to_subset_model(frame)
            ev = Evaluator(subset, Semantics.STRONG)
            for x in range(frame.n):
                for g in corpus:
                    ev.extension(g, dec.cell_of(x))
            tops.append(subset.topology)
        assert not any(_built(t) for t in tops)

    def test_identity_agrees_with_the_reference(self):
        """==, hash, pickle and copy read the table, so they derive no
        family, and agree with a topology built from the reference opens;
        the copies derive the same family, and verify accepts it."""
        tops = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
        for t in [Topology(t.n, t.min_neighborhoods) for t in tops] + _random_topologies():
            reference = Topology.from_opens(t.n, eager_opens(t.min_neighborhoods))
            again = [pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)]
            assert t == reference and hash(t) == hash(reference)
            assert all(c == t and hash(c) == hash(t) for c in again)
            assert not any(_built(c) for c in [t, *again])
            assert repr(t) == repr(reference)
            assert all(c.opens == reference.opens for c in again)
            assert verify(t) is None

    def test_opens_stay_frozen(self):
        t = Topology.discrete(3)
        for _ in range(2):  # before the first read, then after it
            with pytest.raises(FrozenInstanceError, match="opens"):
                t.opens = ()
            with pytest.raises(FrozenInstanceError, match="opens"):
                del t.opens
            assert t.opens == eager_opens(t.min_neighborhoods)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_topologies(1)) == 1
        assert sum(1 for _ in enumerate_topologies(2)) == 4
        assert sum(1 for _ in enumerate_topologies(3)) == 29
        assert sum(1 for _ in enumerate_topologies(4)) == 355

    def test_preorders_are_built_once_each(self):
        # OEIS A000798: labeled preorders on n points
        for n, count in enumerate((1, 1, 4, 29, 355, 6942)):
            tables = list(_preorders(n))
            assert len(tables) == len(set(tables)) == count
            assert all(t[x] >> x & 1 for t in tables for x in range(n))
            assert all(_is_transitive(t) for t in tables)

    def test_matches_preorder_oracle_exactly(self):
        for n in (1, 2, 3):
            ours = {frozenset(t.opens) for t in enumerate_topologies(n)}
            assert ours == all_topologies_oracle(n)

    def test_each_exactly_once(self):
        fams = [t.opens for t in enumerate_topologies(3)]
        assert len(fams) == len(set(fams))

    def test_gate(self):
        with pytest.raises(TopologyError):
            next(enumerate_topologies(5))

    def test_every_route_gives_one_identity(self):
        for n in (1, 2, 3):
            tops = list(enumerate_topologies(n))
            assert len(set(tops)) == len(tops)
            for t in tops:
                again = Topology.from_opens(n, reversed(t.opens))
                assert again == t and hash(again) == hash(t)
                assert generate_from_subbasis(n, t.opens) == t
                for a in range(1 << n):
                    assert t.is_open(a) == (a in t.opens)

    def test_all_verify(self):
        for t in enumerate_topologies(4):
            assert find_violation(4, t.opens) is None


class TestCanonicalForm:
    def test_class_counts(self):
        # OEIS A001930: topologies on n points up to homeomorphism
        for n, count in zip((1, 2, 3, 4), (1, 3, 9, 33)):
            assert len({canonical_form(t)[0] for t in enumerate_topologies(n)}) == count

    def test_matches_brute_force_relabeling(self):
        """The least of the relabeled families' tables; equal exactly for the
        topologies some relabeling of the opens carries onto each other; and
        the relabelings given are exactly those carrying the opens onto the
        least table's up-sets."""
        for n in (1, 2, 3, 4):
            classes, oracle_classes = {}, {}
            for t in enumerate_topologies(n):
                table, images = canonical_form(t)
                family = frozenset(t.opens)
                relabeled = {
                    p: frozenset(relabel(n, p, o) for o in t.opens)
                    for p in permutations(range(n))
                }
                assert table == min(brute_min_neighborhoods(n, fam) for fam in relabeled.values())
                target = upset_family(n, table)
                reaching = [p for p, fam in relabeled.items() if fam == target]
                expected = [tuple(relabel(n, p, a) for a in range(1 << n)) for p in reaching]
                assert sorted(images) == sorted(expected)
                automorphisms = sum(fam == family for fam in relabeled.values())
                assert len(images) == automorphisms
                classes.setdefault(table, set()).add(family)
                least = min(tuple(sorted(fam)) for fam in relabeled.values())
                oracle_classes.setdefault(least, set()).add(family)
            partition = set(map(frozenset, classes.values()))
            assert partition == set(map(frozenset, oracle_classes.values()))

    def test_gate(self):
        with pytest.raises(TopologyError, match="gated at n <= 4"):
            _classes(5)


class TestClassTable:
    """topology._classes, pinned to the brute least tables of
    oracles.canonical_form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_classes_as_the_least_tables(self, n):
        """The same partition, each class led by its first topology in
        enumeration order, and a first member's automorphisms exactly the
        g⁻¹∘h, other than the identity, of the relabelings g, h reaching its
        least table."""
        table = _classes(n)
        assert [top for top, _, _ in table] == list(enumerate_topologies(n))
        leads: dict[tuple[int, ...], int] = {}
        for i, (top, first, automorphisms) in enumerate(table):
            least, images = canonical_form(top)
            assert first == leads.setdefault(least, i)
            if i != first:
                assert automorphisms == ()
                continue
            inverse = {image: a for a, image in enumerate(images[0])}
            expected = {tuple(inverse[image] for image in h) for h in images}
            assert set(automorphisms) | {tuple(range(1 << n))} == expected
            assert len(set(automorphisms)) == len(automorphisms) == len(images) - 1
        assert len(leads) == (1, 3, 9, 33)[n - 1]  # OEIS A001930

    def test_one_orbit_walk_per_class(self, monkeypatch):
        """classes × n! relabelings to 4 worlds (1 + 6 + 54 + 792), not
        tables × n! (8 703)."""
        tried = []
        relabelings = topology._relabelings

        def spy(n):
            for image in relabelings(n):
                tried.append(image)
                yield image

        monkeypatch.setattr(topology, "_relabelings", spy)
        for n in (1, 2, 3, 4):
            _classes.__wrapped__(n)  # built afresh, past the cache
        assert len(tried) == 853

    def test_built_once_per_process(self):
        assert all(_classes(n) is _classes(n) for n in (1, 2, 3, 4))


@st.composite
def random_topologies(draw):
    n = draw(st.integers(1, 5))
    subbasis = draw(st.lists(st.integers(0, full_mask(n)), max_size=6))
    return generate_from_subbasis(n, subbasis)


class TestKuratowski:
    @given(random_topologies(), st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=200)
    def test_laws(self, t, a, b):
        a &= t.full
        b &= t.full
        assert t.interior(a) & ~a == 0
        assert t.interior(t.interior(a)) == t.interior(a)
        assert t.interior(a & b) == t.interior(a) & t.interior(b)
        assert t.interior(t.full) == t.full
        assert t.closure(a) == t.full & ~t.interior(t.full & ~a)

    def test_dense_interior_family_is_a_filter(self):
        # fixing open u: sets whose interior is dense in u are closed under
        # supersets within u and under pairwise intersection
        for n in (1, 2, 3):
            for t in enumerate_topologies(n):
                for u in t.opens:
                    if u == 0:
                        continue
                    members = [
                        a
                        for a in range(1 << n)
                        if a & ~u == 0 and u & ~t.closure(t.interior(a)) == 0
                    ]
                    family = set(members)
                    assert u in family
                    for a in members:
                        for b in members:
                            assert a & b in family
                        for c in range(1 << n):
                            if c & ~u == 0 and a & ~c == 0:
                                assert c in family


class TestBounds:
    def test_carrier_bound(self):
        with pytest.raises(TopologyError):
            Topology.from_opens(17, [0])
        with pytest.raises(TopologyError):
            generate_from_subbasis(0, [])

    def test_read_only(self):
        t = Topology.discrete(2)
        for name in Topology.__slots__:
            with pytest.raises(AttributeError, match=name):
                setattr(t, name, getattr(t, name))
            with pytest.raises(AttributeError, match=name):
                delattr(t, name)
        assert t == Topology.discrete(2) and t.opens == (0, 1, 2, 3)

    def test_canonical_order(self):
        t = Topology.from_opens(2, [0b11, 0b01, 0b00])
        assert t.opens == (0b00, 0b01, 0b11)
        assert mask_of([0, 2]) == 0b101
