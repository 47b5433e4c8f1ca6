import pytest
from hypothesis import given, settings, strategies as st

from oracles import all_topologies_oracle, brute_closure, brute_interior, closure_oracle
from topobelief.topology import (
    Topology,
    TopologyError,
    enumerate_topologies,
    find_violation,
    full_mask,
    generate_from_subbasis,
    mask_of,
    verify,
)
from topobelief.topology import _is_transitive, _preorders

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

    def test_canonical_order(self):
        t = Topology.from_opens(2, [0b11, 0b01, 0b00])
        assert t.opens == (0b00, 0b01, 0b11)
        assert mask_of([0, 2]) == 0b101
