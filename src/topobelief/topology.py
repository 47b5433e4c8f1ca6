"""Finite topological spaces on carriers of at most 16 points.

Subsets of the carrier are plain ints used as bitmasks (world i is bit i).
Every finite space is Alexandroff: each point x has a smallest open
neighborhood mnb(x), and the opens are exactly the unions of mnb sets.
That table (the specialization preorder, as successor masks) is what a
Topology is: every builder hands one over, and the open-set family is
derived from it, deduplicated and in canonical order (cardinality, then
numeric bit pattern), so dumps and reports are deterministic.  Generation
ANDs the subbasis members around each point, enumeration extends each
preorder on n - 1 points by one more point, and validation takes each
point's first containing open as its table and compares the family with
that table's unions; each then folds the table into its unions in O(F·n)
for F opens.
The table also backs equality, hashing and the interior/closure
operators; mnb_interior is interior without the subset check, for the
evaluation engine and relational B.  It also gives Max, the union of the
maximal clusters (the minimal nonempty opens), once per topology: a subset
is nowhere dense exactly when it misses Max (McKinsey & Tarski, "The
algebra of topology", 1944, for finite spaces), and an open U lies in
cl(int a) exactly when U ∩ Max lies in a (see _maximal), so the engine
reads density, strong belief included, through Max and needs no closure.
On at most ENUMERATION_MAX points the topologies of each carrier size are
built, sorted and split into homeomorphism classes once per process, one
orbit walk per class (_classes), and enumeration reads that table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator

MAX_WORLDS = 16
ENUMERATION_MAX = 4


class TopologyError(Exception):
    pass


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def _canon(opens: Iterable[int]) -> tuple[int, ...]:
    # numeric order, then a stable sort by cardinality
    return tuple(sorted(sorted(set(opens)), key=int.bit_count))


def _min_neighborhoods(n: int, opens: Iterable[int]) -> tuple[int, ...]:
    """AND of the members around each point (the carrier where none is)."""
    full = full_mask(n)
    table = [full] * n
    for o in opens:
        m = o & full  # bits past the carrier belong to no point
        while m:
            x = (m & -m).bit_length() - 1
            table[x] &= o
            m &= m - 1
    return tuple(table)


def _unions(table: Iterable[int]) -> set[int]:
    """Every union of the table's sets, the empty union included.

    Folds one set at a time into the union-closed family built so far, so a
    result of F sets costs O(F·n).
    """
    family = {0}
    for m in table:
        if m not in family:  # the family is union-closed, else m adds nothing
            family |= {u | m for u in family}
    return family


@dataclass(frozen=True)
class TopologyViolation:
    """Why a family of subsets fails to be a topology."""

    kind: str  # missing-empty | missing-carrier | missing-union | missing-intersection
    left: int | None
    right: int | None
    missing: int

    def __str__(self) -> str:
        if self.kind == "missing-empty":
            return "violation: empty set missing"
        if self.kind == "missing-carrier":
            return "violation: carrier missing"
        op = "U" if self.kind == "missing-union" else "n"
        return (
            f"violation: {format_mask(self.left)} {op} {format_mask(self.right)}"
            f" = {format_mask(self.missing)} missing"
        )


def find_violation(n: int, opens: Iterable[int]) -> TopologyViolation | None:
    """First reason the family is not a topology, or None when it is one.

    Checks membership of the empty set and the carrier, then scans pairs in
    canonical order for a missing union or intersection.  That scan is
    O(F²); from_opens and verify run it only to name the violation of a
    family that has already failed the O(F·n) table check.
    """
    family = set(opens)
    if 0 not in family:
        return TopologyViolation("missing-empty", None, None, 0)
    if full_mask(n) not in family:
        return TopologyViolation("missing-carrier", None, None, full_mask(n))
    ordered = _canon(family)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a | b not in family:
                return TopologyViolation("missing-union", a, b, a | b)
            if a & b not in family:
                return TopologyViolation("missing-intersection", a, b, a & b)
    return None


def verify(t: "Topology") -> TopologyViolation | None:
    """Re-check a topology's family against the closure conditions."""
    if _as_topology(t.n, set(t.opens)) is not None:
        return None
    return find_violation(t.n, t.opens)


def _as_topology(n: int, family: set[int]) -> "Topology | None":
    """The topology whose opens are exactly the family, or None if none is.

    In a topology a point's smallest open is its first containing open in
    canonical order, as every other open containing it is a strict
    superset.  So the table takes each point's first containing open, and
    the family is a topology exactly when that table is a preorder (every
    point covered, transitive) whose unions, its up-sets, are the family.
    """
    table, uncovered = [0] * n, full_mask(n)
    for o in _canon(family):
        for x in bits(o & uncovered):
            table[x] = o
        uncovered &= ~o
        if not uncovered:
            break
    if uncovered or not _is_transitive(table):
        return None
    t = Topology(n, tuple(table))
    return t if set(t.opens) == family else None


class Topology:
    """Carrier size plus minimal-neighborhood table, opens and Max derived; immutable."""

    __slots__ = ("n", "min_neighborhoods", "opens", "maximal")

    def __init__(self, n: int, mnb: tuple[int, ...]):
        # private; use from_opens / generate_from_subbasis for validated input.
        # mnb must be a preorder's successor masks for the result to verify.
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "min_neighborhoods", mnb)
        object.__setattr__(self, "opens", _canon(_unions(mnb)))
        object.__setattr__(self, "maximal", _maximal(mnb))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Topology, (self.n, self.min_neighborhoods)

    @classmethod
    def from_opens(cls, n: int, opens: Iterable[int]) -> "Topology":
        """Validated topology with exactly the given opens.

        The family is accepted when it equals the unions of the table of
        each point's first containing open (O(F·n)); otherwise the
        TopologyError names the first violation find_violation reports.
        """
        _check_carrier(n)
        opens = list(opens)
        for o in opens:
            _check_subset(n, o)
        t = _as_topology(n, set(opens))
        if t is None:
            raise TopologyError(str(find_violation(n, opens)))
        return t

    @classmethod
    def discrete(cls, n: int) -> "Topology":
        _check_carrier(n)
        return cls(n, tuple(1 << x for x in range(n)))

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def __eq__(self, other) -> bool:
        # the table has one entry per point, so it fixes n as well
        return isinstance(other, Topology) and self.min_neighborhoods == other.min_neighborhoods

    def __hash__(self) -> int:
        return hash(self.min_neighborhoods)

    def __repr__(self) -> str:
        body = ",".join(format_mask(o) for o in self.opens)
        return f"Topology(n={self.n}, opens=[{body}])"

    def is_open(self, a: int) -> bool:
        return self.interior(a) == a

    def interior(self, a: int) -> int:
        """Largest open set contained in a."""
        _check_subset(self.n, a)
        return mnb_interior(self.min_neighborhoods, a)

    def closure(self, a: int) -> int:
        """Smallest closed set containing a: the x whose minimal open
        neighborhood meets a."""
        _check_subset(self.n, a)
        m = 0
        for x, nb in enumerate(self.min_neighborhoods):
            if nb & a:
                m |= 1 << x
        return m

    def is_dense_in(self, a: int, u: int) -> bool:
        """Whether u is contained in the closure of a."""
        _check_subset(self.n, a)
        _check_subset(self.n, u)
        return u & ~self.closure(a) == 0

    def is_nowhere_dense(self, a: int) -> bool:
        """Whether the closure of a has empty interior, that is, whether a
        misses every maximal cluster (see _maximal)."""
        _check_subset(self.n, a)
        return a & self.maximal == 0

    def almost_subset(self, a: int, b: int) -> bool:
        """a minus b is nowhere dense ('almost all' of a lies in b)."""
        _check_subset(self.n, a)
        _check_subset(self.n, b)
        return self.is_nowhere_dense(a & ~b)


def _maximal(mnb: tuple[int, ...]) -> int:
    """Max: the union of mnb(x) over the maximal x, those whose every y in
    mnb(x) has mnb(y) == mnb(x).

    The points sharing x's table entry are x's cluster, which lies in
    mnb(x), so x is maximal exactly when that entry is held by as many
    points as it has.  Each such mnb(x) is a maximal cluster and a minimal
    nonempty open.  If a meets one, that cluster lies in int(cl a); and a
    nonempty open inside cl a holds some maximal cluster, which must then
    meet a.  So a is nowhere dense exactly when a & Max is empty.

    Density reads the same way: an open U lies in cl(int a) exactly when
    U & Max lies in a.  If it does, each x in U has mnb(x) inside U, and
    mnb(x) holds a maximal cluster C, so C lies in U & Max, hence in a;
    C is open, so mnb(x) meets int a.  Conversely U & Max is the union of
    the maximal clusters C inside U; each is a minimal nonempty open, and
    mnb(c) = C meets int a for c in C, so C lies in int a.
    """
    out = 0
    for nb in mnb:
        if mnb.count(nb) == nb.bit_count():
            out |= nb
    return out


def mnb_interior(mnb: tuple[int, ...], a: int) -> int:
    """The x whose table entry lies inside a, unchecked.

    Over a topology's minimal-neighborhood table that is the interior of a;
    over a relation's successor sets it is the Kripke box of a.
    """
    m = 0
    for x, nb in enumerate(mnb):
        if nb & ~a == 0:
            m |= 1 << x
    return m


def _check_carrier(n: int) -> None:
    if not 1 <= n <= MAX_WORLDS:
        raise TopologyError(f"carrier size {n} outside 1..{MAX_WORLDS}")


def _check_subset(n: int, a: int) -> None:
    if a < 0 or a & ~full_mask(n):
        raise TopologyError(f"subset {bin(a)} out of carrier range 0..{n - 1}")


def generate_from_subbasis(n: int, subbasis: Iterable[int]) -> Topology:
    """Smallest topology containing the subbasis.

    Each point's minimal open neighborhood is the AND of the carrier and
    every subbasis member containing it, O(n·|subbasis|); the opens are
    then exactly the unions of those neighborhoods.
    """
    _check_carrier(n)
    subbasis = list(subbasis)
    for s in subbasis:
        _check_subset(n, s)
    return Topology(n, _min_neighborhoods(n, subbasis))


def _preorders(n: int) -> list[tuple[int, ...]]:
    """All reflexive transitive relations as per-point successor masks.

    Each preorder on m points arises exactly once from its restriction to
    the first m - 1 points, by adding the last point z: z's successors S
    are an up-set (an open of the smaller preorder), its predecessors D a
    down-set (the complement of one), and every member of D already
    reaches all of S.  So sizes 1..n are built in turn, each from the last.
    """
    tables: list[tuple[int, ...]] = [()]
    for m in range(1, n + 1):
        z, full = 1 << m - 1, full_mask(m - 1)
        larger = []
        for succ in tables:
            ups = _unions(succ)
            for s in ups:
                for d in (full & ~u for u in ups):
                    if all(not s & ~succ[x] for x in bits(d)):
                        grown = (t | z if d >> x & 1 else t for x, t in enumerate(succ))
                        larger.append((*grown, s | z))
        tables = larger
    return tables


def _is_transitive(succ: list[int]) -> bool:
    for x in range(len(succ)):
        reach = 0
        m = succ[x]
        while m:
            y = (m & -m).bit_length() - 1
            reach |= succ[y]
            m &= m - 1
        if reach & ~succ[x]:
            return False
    return True


def enumerate_topologies(n: int) -> Iterator[Topology]:
    """Every labeled topology on n points, once each, in the class table's order."""
    for top, _, _ in _classes(n):
        yield top


@functools.cache
def _classes(n: int) -> tuple[tuple[Topology, int, tuple[tuple[int, ...], ...]], ...]:
    """Per labeled topology on n points, exactly once, in canonical order:
    the topology, the position of its homeomorphism class's first member
    and, for a first member only, its non-identity automorphisms.

    A relabeling is a permutation p of the points, given as the image of
    every subset (image[a] is p(a)); it carries the table mnb to mnb' with
    mnb'(p(x)) = p(mnb(x)).  A topology not yet marked starts a class: its
    relabeled tables are marked with its position, and the relabelings that
    fix it are its automorphisms.  So each class's orbit is walked once,
    classes × n! relabelings in all, and no table is canonicalized.

    Topologies are preorders (successor masks are minimal-neighborhood
    tables), so the table holds _preorders(n), sorted by opens, gated at
    n <= 4 to keep the sweep inside the exhaustive-testing budget.
    """
    if not 1 <= n <= ENUMERATION_MAX:
        raise TopologyError(f"exhaustive enumeration gated at n <= {ENUMERATION_MAX}")
    tops = [Topology(n, succ) for succ in _preorders(n)]
    tops.sort(key=lambda t: (len(t.opens), t.opens))
    position = {top.min_neighborhoods: i for i, top in enumerate(tops)}
    first, automorphisms = [-1] * len(tops), [()] * len(tops)
    for i, top in enumerate(tops):
        if first[i] < 0:
            fixing = []
            for image in _relabelings(n):
                table = [0] * n
                for x, nb in enumerate(top.min_neighborhoods):
                    table[image[1 << x].bit_length() - 1] = image[nb]
                j = position[tuple(table)]
                first[j] = i
                if j == i:
                    fixing.append(image)
            automorphisms[i] = tuple(fixing[1:])  # the identity comes first
    return tuple(zip(tops, first, automorphisms))


@functools.cache
def _relabelings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every permutation of n points, as the image of every subset."""
    return tuple(
        tuple(mask_of(p[x] for x in bits(a)) for a in range(1 << n))
        for p in itertools.permutations(range(n))
    )
