"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results straight from definitions, on purpose
not sharing code paths with the library (no minimal-neighborhood tables,
no bit tricks beyond masks), so a test that compares the two is a real
cross-check.
"""

import functools
import json
import time
from itertools import permutations, product
from typing import NamedTuple

import pytest

from topobelief import formula as fm, semantics
from topobelief.model import (
    DEFAULT_SCENARIO_BUDGET,
    EDScenario,
    RelationalError,
    RelationalModel,
    SubsetModel,
    _isomorph_free_models,
    range_pairs,
)
from topobelief.semantics import ScenarioClass, Semantics
from topobelief.suites import Batch, get_suite, run_suite, suite_names
from topobelief.topology import (
    ENUMERATION_MAX,
    Topology,
    TopologyError,
    _classes,
    _relabelings,
    bits,
)


def stdlib_json(payload):
    """The canonical JSON text as the stdlib writes it, the reference for
    model._json."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def epistemic_scenarios(model, budget=DEFAULT_SCENARIO_BUDGET):
    """All (x, U) with x in U open, in scan order (see _scenarios)."""
    return _scenarios(model, None, budget)


def ed_scenarios(model, cls=ScenarioClass.ALL, budget=DEFAULT_SCENARIO_BUDGET):
    """All (x, U, V) of the class, in scan order (see _scenarios)."""
    return _scenarios(model, cls, budget)


def _scenarios(model, cls, budget):
    """The scan order of a model's scenarios, one at a time: x ascending,
    then each (U, V) of model.range_pairs whose U holds x, in canonical
    order.  The sweeps never build these; they are the
    scenario-by-scenario reference the tests compare them with."""
    top = model.topology
    pairs = range_pairs(top, cls, budget)
    for x in range(top.n):
        bit = 1 << x
        for u, v in pairs:
            if u & bit:
                yield EDScenario(x, u, v)


def brute_interior(opens, a):
    """Union of all opens contained in a (the definition)."""
    m = 0
    for o in opens:
        if o & ~a == 0:
            m |= o
    return m


def brute_closure(n, opens, a):
    """Points whose every open neighborhood meets a (the definition)."""
    out = 0
    for x in range(n):
        bit = 1 << x
        if all(o & a for o in opens if o & bit):
            out |= bit
    return out


def closure_oracle(n, subbasis):
    """Smallest topology containing the subbasis, as a set of opens.

    Closes the subbasis plus the empty set and the carrier under pairwise
    union and intersection until nothing new appears (the definition; on a
    finite carrier pairwise closure gives arbitrary unions too).
    """
    family = {0, (1 << n) - 1} | set(subbasis)
    queue = list(family)
    while queue:
        a = queue.pop()
        for b in list(family):
            for c in (a | b, a & b):
                if c not in family:
                    family.add(c)
                    queue.append(c)
    return frozenset(family)


def indiscrete(n):
    """The indiscrete topology on n points: opens {}, X only."""
    return Topology.from_opens(n, [0, (1 << n) - 1])


def brute_min_neighborhoods(n, opens):
    """Per point, the intersection of every open containing it."""
    out = []
    for x in range(n):
        m = (1 << n) - 1
        for o in opens:
            if o >> x & 1:
                m &= o
        out.append(m)
    return tuple(out)


def reflexive_transitive_relations(n):
    """All preorders on n points as successor-mask tuples (matrix method)."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for choice in product([False, True], repeat=len(pairs)):
        mat = [[x == y for y in range(n)] for x in range(n)]
        for on, (x, y) in zip(choice, pairs):
            if on:
                mat[x][y] = True
        if all(
            not (mat[x][y] and mat[y][z]) or mat[x][z]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            yield tuple(
                sum(1 << y for y in range(n) if mat[x][y]) for x in range(n)
            )


def upset_family(n, succ):
    """Opens of a preorder: subsets closed under taking successors."""
    family = []
    for s in range(1 << n):
        if all(succ[x] & ~s == 0 for x in range(n) if s >> x & 1):
            family.append(s)
    return frozenset(family)


def all_topologies_oracle(n):
    """Set of open-set families of every labeled topology on n points."""
    return {upset_family(n, succ) for succ in reflexive_transitive_relations(n)}


def relabel(n, perm, a):
    """Image of the subset a under the relabeling x -> perm[x]."""
    return sum(1 << perm[x] for x in range(n) if a >> x & 1)


def model_form(model, perm=None):
    """A subset model as (worlds, opens, valuation) sets, relabeled by perm."""
    n = model.n
    perm = perm or range(n)
    opens = frozenset(relabel(n, perm, o) for o in model.topology.opens)
    valuation = frozenset((a, relabel(n, perm, m)) for a, m in model.valuation.items())
    return n, opens, valuation


def relabelings(model):
    """The model's form under every relabeling of its worlds."""
    return {model_form(model, perm) for perm in permutations(range(model.n))}


def isomorphic(a, b):
    """Whether some relabeling of a's worlds carries a's opens and valuation
    onto b's, atom names kept (tries every relabeling)."""
    return model_form(b) in relabelings(a)


def canonical_form(top: Topology) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The least relabeled minimal-neighborhood table of a topology on at
    most ENUMERATION_MAX points, and the relabelings that reach it.

    A relabeling is a permutation p of the points, given as the image of
    every subset of the carrier (image[a] is p(a)); it carries the table
    mnb to the table mnb' with mnb'(p(x)) = p(mnb(x)).  Two topologies are
    homeomorphic exactly when their least tables are equal, and the
    relabelings reaching one topology's least table are its automorphisms
    followed by any one of them.  All n! permutations are tried, once per
    table per process.  The brute reference for topology._classes, which
    walks each homeomorphism class's orbit once instead.
    """
    if not 1 <= top.n <= ENUMERATION_MAX:
        raise TopologyError(f"canonical forms gated at n <= {ENUMERATION_MAX}")
    return _canonical(top.min_neighborhoods)


@functools.cache
def _canonical(mnb: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    relabeled = []
    for image in _relabelings(len(mnb)):
        table = [0] * len(mnb)
        for x, nb in enumerate(mnb):
            table[image[1 << x].bit_length() - 1] = image[nb]
        relabeled.append((tuple(table), image))
    least = min(table for table, _ in relabeled)
    return least, tuple(image for table, image in relabeled if table == least)


def isomorph_free(models):
    """The stream without every model isomorphic to an earlier model of it.

    The reference that the isomorph-free sources are checked against.
    It reads canonical_form above, which shares the library's relabelings,
    so it is itself checked against relabelings
    (tests/test_semantics.py::TestIsomorphFree).  A model seen through a
    relabeling that reaches its topology's least table is a valuation on
    that table; a kept model adds the valuations it reads as through every
    such relabeling, and a later model is isomorphic to it exactly when it
    reads as one of them.  Models of more than ENUMERATION_MAX worlds
    always pass.
    """
    seen = set()
    top = table = None
    for model in models:
        if model.topology is not top:  # a run of one topology looks its form up once
            top = model.topology
            table, images = canonical_form(top) if top.n <= ENUMERATION_MAX else (None, ())
        if table is None:
            yield model
            continue
        names = sorted(model.valuation)
        masks = [model.valuation[a] for a in names]
        if (table, *names, *[images[0][m] for m in masks]) not in seen:
            seen.update((table, *names, *[i[m] for m in masks]) for i in images)
            yield model


def orbit_least(automorphisms, n, count):
    """Each tuple of count masks on n worlds that is the least, in product
    order, of its images under the automorphisms, in product order: the
    reference for model._orbit_least, testing every tuple against every
    automorphism."""
    for masks in product(range(1 << n), repeat=count):
        if all(tuple(map(aut.__getitem__, masks)) >= masks for aut in automorphisms):
            yield masks


# (worlds, atoms) of each source the stabilizer chain is checked on, from
# no atom (one model per class) to a chain four levels deep
CHAIN_SIZES = ((4, 0), (4, 1), (4, 2), (3, 3), (3, 4))


def chain_mismatches():
    """Each (worlds, atoms) of CHAIN_SIZES where model._isomorph_free_models,
    over that many of p, q, r and s, is not each class's first topology with
    orbit_least's tuples for its automorphisms (topology._classes), in the
    same order."""
    out = []
    for max_n, count in CHAIN_SIZES:
        runs = _isomorph_free_models(max_n, "pqrs"[:count], None, {})
        got = [(top, list(valuations)) for top, valuations in runs]
        want = [
            (top, list(orbit_least(automorphisms, n, count)))
            for n in range(1, max_n + 1)
            for i, (top, first, automorphisms) in enumerate(_classes(n))
            if i == first
        ]
        if got != want:
            out.append((max_n, count))
    return out


def source_models(runs, names):
    """The models of a source's runs (model._isomorph_free_models), each
    valuation's masks those of names in order, built as the stream they
    stand for."""
    for top, valuations in runs:
        for masks in valuations:
            yield SubsetModel(top, dict(zip(names, masks)))


def unreduced_sweeps(patch, swept=None):
    """Send every sweep to the full pair lists for the patch's scope.

    The reference that the reduced sweeps are checked against: the patch
    (a monkeypatch or one of its contexts) replaces semantics._sweep_groups
    with a wrapper that drops every reduction it takes, each keyword-only
    parameter but grow, and semantics._shape with one that keeps its
    class but no V inside Max alone (tests/test_semantics.py::
    TestReducedSearch guards both), so the sweep visits every pair.  It
    also sends every sweep past the layouts a batch keeps
    (semantics._memoized), which a reduced run on the same batch may have
    filled, and adds none to them.  Given a list, it also appends the
    number of models of each stream swept.
    """
    groups, shape = semantics._sweep_groups, semantics._shape

    def full(runs, *args, complete_to=0, **kwargs):
        if swept is not None:
            runs = [(top, list(valuations)) for top, valuations in runs]
            swept.append(sum(len(valuations) for _, valuations in runs))
        return groups(runs, *args, **kwargs)

    patch.setattr(semantics, "_sweep_groups", full)
    patch.setattr(semantics, "_shape", lambda kind, cls: (shape(kind, cls)[0], False))
    patch.setattr(semantics, "_memoized", lambda memo, key, layouts: layouts)


def labeled_batch(batch):
    """A copy of the batch whose swept stream is its labeled one,
    batch.models(): every model of its exhaustive part, isomorphic copies
    and contractible models included, then every draw.  With
    unreduced_sweeps, a suite run on it is the reference that the reduced
    sweeps of the batch are checked against.  The copy shares the batch's
    fields and draw objects, builds no draw, and starts with no layouts,
    since its swept stream is not the batch's."""
    labeled = object.__new__(Batch)
    for name in ("exhaustive_n", "seeds", "sizes", "draws"):
        object.__setattr__(labeled, name, getattr(batch, name))
    object.__setattr__(labeled, "swept", tuple(batch.models()))
    object.__setattr__(labeled, "_layouts", {})
    return labeled


# strong under class all, then ed and ae under each class
COLUMNS = ((Semantics.STRONG, ScenarioClass.ALL),) + tuple(
    (kind, cls) for kind in (Semantics.ED, Semantics.AE) for cls in ScenarioClass
)

# every suite under all 9 columns
SUITE_ROWS = tuple((name, kind, cls) for name in suite_names() for kind, cls in COLUMNS)


def suite_reports(rows, batch):
    """The JSON report of each (suite, semantics, class) row on the batch."""
    return [
        run_suite(get_suite(name), batch, semantics=kind, scenario_class=cls).to_json()
        for name, kind, cls in rows
    ]


def back_to_back_mismatches():
    """The rows of el_kboxb_d, in the 9 COLUMNS, whose report from one
    batch that runs them all back to back, each on the layouts the rows
    before it left (suites.Batch), differs from the report of a fresh
    batch.  The suite's D_B fails under class all alone."""
    rows = [("el_kboxb_d", kind, cls) for kind, cls in COLUMNS]
    back_to_back = suite_reports(rows, Batch(exhaustive_n=2))
    return [
        row
        for row, report in zip(rows, back_to_back)
        if report != suite_reports([row], Batch(exhaustive_n=2))[0]
    ]


class LabeledReference(NamedTuple):
    reduced: list  # the SUITE_ROWS reports, as run_suite sweeps the batch
    reference: list  # the same rows on labeled_batch(batch), unreduced_sweeps
    swept: list  # the length of every stream the reference swept
    seconds: float  # the time both runs took


@functools.cache
def labeled_reference(batch):
    """The SUITE_ROWS reports on the batch, and on its labeled stream
    swept over its full pair lists, computed once per batch: every test
    that pins a batch's reports to this reference reads the same two runs
    (tests/test_suites.py and tests/test_definitional_crosscheck.py)."""
    started = time.perf_counter()
    reduced = suite_reports(SUITE_ROWS, batch)
    swept = []
    with pytest.MonkeyPatch.context() as patch:
        unreduced_sweeps(patch, swept)
        reference = suite_reports(SUITE_ROWS, labeled_batch(batch))
    return LabeledReference(reduced, reference, swept, time.perf_counter() - started)


def contract(model):
    """The model's bisimulation contraction and the map onto it.

    Pair elimination from the definition of a topo-bisimulation: start
    from every pair of worlds that agree on every atom, and drop (x, y)
    while some open around x has no open around y all of whose worlds are
    paired with worlds of it, or the other way round.  In a finite space
    the least open around a point (brute_min_neighborhoods) decides both
    clauses.  What survives is the largest bisimulation, an equivalence;
    its classes, numbered by least world, are the quotient's worlds, the
    quotient's opens are the sets whose preimage is open (the quotient
    topology), and each atom holds on the image of its set.  Returns
    (quotient model, map as a tuple world -> class).
    """
    n, opens = model.n, model.topology.opens
    around = brute_min_neighborhoods(n, opens)
    atoms = sorted(model.valuation)
    kind = [tuple(model.valuation[a] >> x & 1 for a in atoms) for x in range(n)]
    pairs = {(x, y) for x in range(n) for y in range(n) if kind[x] == kind[y]}

    def matched(x, y):  # every world around y is paired with one around x
        return all(any((a, b) in pairs for a in bits(around[x])) for b in bits(around[y]))

    while dropped := {(x, y) for x, y in pairs if not (matched(x, y) and matched(y, x))}:
        pairs -= dropped
    image = []
    for x in range(n):
        least = min(y for y in range(n) if (x, y) in pairs)
        image.append(image[least] if least < x else max(image, default=-1) + 1)
    m = max(image) + 1

    def preimage(a):
        return sum(1 << x for x in range(n) if a >> image[x] & 1)

    quotient_opens = [a for a in range(1 << m) if preimage(a) in opens]
    valuation = {
        atom: sum(1 << c for c in {image[x] for x in bits(mask)})
        for atom, mask in model.valuation.items()
    }
    return SubsetModel(Topology.from_opens(m, quotient_opens), valuation), tuple(image)


def restrict(model, u):
    """The subspace of the model on u, relabeled, and the map onto it.

    Its worlds are those of u, numbered 0, 1, ... in increasing order; its
    opens are the sets O ∩ u for each open O (the subspace topology), and
    each atom holds on the image of its set within u.  Returns (subspace
    model, map as a dict world of u -> new world).
    """
    place = {x: i for i, x in enumerate(bits(u))}

    def image(a):
        return sum(1 << place[x] for x in bits(a & u))

    opens = sorted({image(o) for o in model.topology.opens})
    valuation = {atom: image(mask) for atom, mask in model.valuation.items()}
    return SubsetModel(Topology.from_opens(len(place), opens), valuation), place


def is_belief_relation(n, rel):
    """Serial + transitive + Euclidean, by direct triple quantification."""
    serial = all(any((x, y) in rel for y in range(n)) for x in range(n))
    transitive = all(
        (x, z) in rel
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (x, y) in rel and (y, z) in rel
    )
    euclidean = all(
        (y, z) in rel
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (x, y) in rel and (x, z) in rel
    )
    return serial and transitive and euclidean


def brush_components(n, rel):
    """A belief frame's brushes from the definition, as (cell, cluster) masks.

    The cells are the classes of x ~ y iff some z has xRz and yRz, and each
    cell's final cluster is the set of its reflexive points; listed by
    least world.  Reads only the pair set.
    """
    out, covered = [], set()
    for x in range(n):
        if x in covered:
            continue
        cell = [y for y in range(n) if any((x, z) in rel and (y, z) in rel for z in range(n))]
        covered.update(cell)
        cluster = [y for y in cell if (y, y) in rel]
        out.append((sum(1 << y for y in cell), sum(1 << y for y in cluster)))
    return out


def all_relations(n):
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for choice in product([False, True], repeat=len(pairs)):
        yield frozenset(p for on, p in zip(choice, pairs) if on)


def count_nodes(f, cls):
    """Occurrences of a node class in the tree (multiset, not deduplicated)."""
    count = isinstance(f, cls)
    if isinstance(f, (fm.Not, fm.K, fm.Box, fm.Bel)):
        return count + count_nodes(f.sub, cls)
    if isinstance(f, (fm.And, fm.Or, fm.Implies, fm.Iff)):
        return count + count_nodes(f.left, cls) + count_nodes(f.right, cls)
    return count


def uncached_text(f):
    """formula.to_text as it was before nodes kept their text: every node
    of the tree written afresh, with the same explicit stack."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, context = item
        cls = type(g)
        c = fm.CONNECTIVES.get(cls)
        if c is None:
            if cls is fm.Atom or cls is fm.Meta:
                out.append(g.name)
                continue
            raise fm.FormulaError(f"not a formula node: {g!r}")
        if c.prec < context:
            out.append("(")
            stack.append(")")
        if not c.operands:
            out.append(c.word)
        elif len(c.operands) == 2:
            left, right = c.operands
            stack += [(g.right, right), f" {c.word} ", (g.left, left)]
        else:
            word, sub = c.word, g.sub
            inner = fm.CONNECTIVES.get(type(sub))
            if cls is fm.Not and inner is not None and inner.dual and type(sub.sub) is fm.Not:
                word, sub = inner.dual, sub.sub.sub
            out.append(f"{word} ")
            stack.append((sub, c.operands[0]))
    return "".join(out)


def def_truth(model, x, u, v, f, kind):
    """Truth of f at (x, u, v) by pointwise recursion on the definitions.

    Knowledge and belief quantify over worlds directly, knowability
    existentially quantifies over the open family, and the topological
    operators are brute_interior and brute_closure.
    """
    top = model.topology
    if isinstance(f, fm.Atom):
        return bool(model.valuation.get(f.name, 0) >> x & 1)
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    if isinstance(f, fm.Not):
        return not def_truth(model, x, u, v, f.sub, kind)
    if isinstance(f, fm.And):
        return def_truth(model, x, u, v, f.left, kind) and def_truth(model, x, u, v, f.right, kind)
    if isinstance(f, fm.Or):
        return def_truth(model, x, u, v, f.left, kind) or def_truth(model, x, u, v, f.right, kind)
    if isinstance(f, fm.Implies):
        return (not def_truth(model, x, u, v, f.left, kind)) or def_truth(
            model, x, u, v, f.right, kind
        )
    if isinstance(f, fm.Iff):
        return def_truth(model, x, u, v, f.left, kind) == def_truth(model, x, u, v, f.right, kind)
    if isinstance(f, fm.K):
        return all(def_truth(model, y, u, v, f.sub, kind) for y in bits(u))
    if isinstance(f, fm.Box):
        # some open evidence containing x entails the subformula within u
        return any(
            o >> x & 1 and o & ~u == 0 and all(def_truth(model, y, u, v, f.sub, kind) for y in bits(o))
            for o in top.opens
        )
    if isinstance(f, fm.Bel):
        if kind is Semantics.ED:
            return all(def_truth(model, y, u, v, f.sub, kind) for y in bits(v))
        sat = 0
        for y in bits(u):
            if def_truth(model, y, u, v, f.sub, kind):
                sat |= 1 << y
        if kind is Semantics.STRONG:
            dense_part = brute_closure(top.n, top.opens, brute_interior(top.opens, sat))
            return u & ~dense_part == 0
        rest = v & ~sat
        closure = brute_closure(top.n, top.opens, rest)
        return brute_interior(top.opens, closure) == 0
    raise AssertionError(f)


def kripke_truth(m, x, f):
    """Truth of a pure-belief formula at world x of a relational model.

    Pointwise recursion on the definitions: belief holds when every
    R-successor of x satisfies the operand.  No extension masks, and no
    reading of the library's connective table.
    """
    if isinstance(f, fm.Atom):
        return bool(m.valuation.get(f.name, 0) >> x & 1)
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    if isinstance(f, fm.Not):
        return not kripke_truth(m, x, f.sub)
    if isinstance(f, fm.And):
        return kripke_truth(m, x, f.left) and kripke_truth(m, x, f.right)
    if isinstance(f, fm.Or):
        return kripke_truth(m, x, f.left) or kripke_truth(m, x, f.right)
    if isinstance(f, fm.Implies):
        return (not kripke_truth(m, x, f.left)) or kripke_truth(m, x, f.right)
    if isinstance(f, fm.Iff):
        return kripke_truth(m, x, f.left) == kripke_truth(m, x, f.right)
    if isinstance(f, fm.Bel):
        return all(kripke_truth(m, y, f.sub) for w, y in m.rel if w == x)
    raise AssertionError(f)


def all_belief_frames(n: int):
    """Every belief frame on n worlds, via partitions and clusters (tests)."""
    if n > 5:
        raise RelationalError("exhaustive belief-frame sweep gated at n <= 5")
    for partition in _partitions(list(range(n))):
        for rel in _cluster_choices(partition):
            yield RelationalModel(n, frozenset(rel), {})


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    head, *rest = items
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
        yield [[head]] + sub


def _cluster_choices(partition: list[list[int]]):
    if not partition:
        yield []
        return
    cell, *rest = partition
    for tail in _cluster_choices(rest):
        for cluster_mask in range(1, 1 << len(cell)):
            cluster = [cell[i] for i in bits(cluster_mask)]
            pairs = [(x, y) for x in cell for y in cluster]
            yield pairs + tail
