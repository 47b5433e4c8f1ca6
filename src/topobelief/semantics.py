"""The three satisfaction relations and validity/countermodel machinery.

One engine, BatchEvaluator, computes extensions: it compiles formulas into
a postorder list of shared subformula nodes and evaluates that list in one
linear pass per range pair.  The belief clause is implemented directly per
semantics:

  strong  B phi holds on (x, U) iff the interior of phi's extension is
          dense in U (U is inside cl(int(ext))), that is, iff U ∩ Max is
          inside the extension: the ae clause read at V = U
  ed      B phi holds on (x, U, V) iff V is inside phi's extension
  ae      B phi holds on (x, U, V) iff V minus phi's extension is nowhere
          dense (almost-all quantification), that is, iff it misses Max,
          the union of the maximal clusters (Topology.maximal)

K and box read the same in all three: truth everywhere on U, and
membership in the interior of the extension.  The translation through
K-dia-box is kept in the test suite as an independent oracle for the
strong belief clause; the two are never reconciled silently.

Evaluator is the engine's view of a single model: it compiles formulas
as they are asked for and keeps one value list per range pair.
Soundness sweeps compile a formula set once and evaluate it lane-packed:
a group of consecutive models of a stream, of any topologies and carrier
sizes, holds one bit per (world, lane) in each value, and every
connective, interior and belief clause acts on the whole group at once.
A lane is a model and a chunk of its list of range pairs, every chunk as
long as the group's shortest list, so a group costs about as many passes
as that list, not as its longest; a group of one topology's valuations
gives each model one lane, its whole list.  Interior reads each lane's
own minimal-neighborhood table, belief each lane's own Max (no clause
needs a closure), and pass k evaluates each lane under its chunk's k-th
range pair; _passes lays out this one schedule of every sweep, and
_values runs it.  valid_in_model, suite runs and find_countermodel sweep
lane groups of their stream's same-topology runs, the search's groups
growing as it goes (each at most as many runs as all before it), and a
failure is the one a scenario-by-scenario scan finds: the first failing
model, the least world missing there, then the first (U, V) in canonical
order that misses that world.  Every sweep visits only the (U, V) that can
hold a first failure: under ae, those whose V lies inside Max, and where
every model of at most k worlds comes earlier, those whose U is the
carrier or has more than k worlds (see sweep_validity and
find_countermodel).  The
search's exhaustive phase, and the exhaustive part of the stream a batch
holds for its suite runs, hold only the first model of each isomorphism
class (model._isomorph_free_models, which says why that finds the same
failures); the search counts the others where they stand (see
find_countermodel).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from enum import Enum
from functools import cached_property, partial
from operator import attrgetter
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from . import formula as fm
from .formula import Atom, Bel, Box, Formula, K
from .model import (
    DEFAULT_SCENARIO_BUDGET,
    BudgetError,
    EDScenario,
    Ranges,
    ScenarioClass,
    SubsetModel,
    _check_range,
    _isomorph_free_models,
    _range_cost,
    _stream_position,
    check_scenario,
    random_model,
    range_groups,
)
from .record import Record
from .topology import ENUMERATION_MAX, MAX_WORLDS, Topology, bits, mnb_interior


class SemanticsError(Exception):
    pass


class Semantics(Enum):
    STRONG = "strong"
    ED = "ed"
    AE = "ae"

    @property
    def needs_doxastic_range(self) -> bool:
        return self is not Semantics.STRONG


class Evaluator:
    """Extensions of formulas in one model under one semantics.

    The single-lane view of BatchEvaluator: formulas join one engine as
    they are asked for, and each range pair keeps one value list, filled
    up to the engine's node count when an extension reads past its end.
    """

    def __init__(self, model: SubsetModel, kind: Semantics):
        self.model = model
        self.kind = kind
        self._needs_v = kind.needs_doxastic_range
        self._engine = BatchEvaluator((), kind)
        self._lanes = _alone(model.topology)
        self._vals: dict[tuple[int, int | None], list[int]] = {}

    def extension(self, f: Formula, u: int, v: int | None = None) -> int:
        """Worlds of u satisfying f under the ranges (a subset mask)."""
        if self._needs_v:
            if v is None:
                raise SemanticsError(f"{self.kind.value} semantics needs a doxastic range")
        elif v is not None:
            raise SemanticsError("strong semantics takes no doxastic range")
        engine = self._engine
        idx = engine.index.get(f)
        if idx is None:
            idx = engine.add(f)
        vals = self._vals.setdefault((u, v), [])
        filled = len(vals)
        if idx >= filled:
            count = len(engine.nodes)
            vals.extend([0] * (count - filled))
            engine._run(self._lanes, self.model.valuation, u, v or 0, vals, range(filled, count))
        return vals[idx]


def extension(
    model: SubsetModel, f: Formula, kind: Semantics, u: int, v: int | None = None
) -> int:
    """One-shot extension; ranges must satisfy the scenario invariants."""
    top = model.topology
    _check_range(top.n, u, "epistemic", SemanticsError)
    if not top.is_open(u):
        raise SemanticsError("epistemic range is not open")
    _check_range(top.n, v or 0, "doxastic", SemanticsError)
    if v is not None and (not top.is_open(v) or v & ~u):
        raise SemanticsError("doxastic range must be an open subset of the epistemic range")
    return Evaluator(model, kind).extension(f, u, v)


def satisfies(model: SubsetModel, s: EDScenario, f: Formula, kind: Semantics) -> bool:
    """Truth of f at the scenario under the given semantics."""
    check_scenario(model, s, need_v=kind.needs_doxastic_range)
    ext = Evaluator(model, kind).extension(f, s.u, s.v)
    return bool(ext >> s.x & 1)


class Witness(Record):
    __slots__ = _fields = ("scenario", "trace")
    scenario: EDScenario
    trace: tuple[tuple[str, bool], ...]


class Verdict(Record):
    __slots__ = _fields = ("valid", "witness")
    valid: bool
    witness: Witness | None

    def __init__(self, valid: bool, witness: Witness | None = None):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "witness", witness)


def _trace(
    engine: BatchEvaluator, model: SubsetModel, f: Formula, s: EDScenario
) -> tuple[tuple[str, bool], ...]:
    """Truth at s of each subformula of f, a root of the engine, shortest
    text first: one W = 1 pass of that engine over f's own nodes alone, in
    index order (children first), the fill Evaluator.extension does."""
    subs = fm.postorder(f)
    vals = [0] * len(engine.nodes)
    order = sorted(engine.index[g] for g in subs)
    engine._run(_alone(model.topology), model.valuation, s.u, s.v or 0, vals, order)
    entries = [(fm.to_text(g), bool(vals[engine.index[g]] >> s.x & 1)) for g in subs]
    entries.sort(key=lambda item: (len(item[0]), item[0]))
    return tuple(entries)


def valid_in_model(
    model: SubsetModel,
    f: Formula,
    kind: Semantics,
    scenario_class: ScenarioClass = ScenarioClass.ALL,
    budget: int = DEFAULT_SCENARIO_BUDGET,
) -> Verdict:
    """Truth at every scenario of the class; first failure becomes the witness.

    Under strong semantics the scenarios are the epistemic ones and the
    class is irrelevant; under e-d semantics the class filters (U, V).
    Raises BudgetError when the sweep's cost exceeds the budget.
    """
    engine = BatchEvaluator((f,), kind)
    hit = sweep_validity(engine, (model,), scenario_class, budget).get(f)
    if hit is None:
        return Verdict(True)
    return Verdict(False, Witness(hit.scenario, _trace(engine, model, f, hit.scenario)))


class SearchOutcome(Record):
    """Result of a countermodel hunt.

    status "found" carries the witness; "exhausted" means the whole
    exhaustive space up to max_n was covered with no countermodel (a claim
    only the exhaustive phase may make); "budget" means the evaluation
    budget ran out first.
    """

    __slots__ = _fields = ("status", "model", "scenario", "evaluations")
    status: Literal["found", "exhausted", "budget"]
    model: SubsetModel | None
    scenario: EDScenario | None
    evaluations: int


def find_countermodel(
    f: Formula,
    kind: Semantics,
    scenario_class: ScenarioClass = ScenarioClass.ALL,
    max_n: int = 3,
    budget: int = 200_000,
    seed: int = 0,
) -> SearchOutcome:
    """Search for a model and scenario falsifying f.

    Exhaustive phase first: every topology on 1..min(max_n, ENUMERATION_MAX)
    points crossed with every valuation of f's atoms (exhaustive_models),
    scenarios in canonical order, so the first hit is the canonically least
    witness.  If max_n exceeds ENUMERATION_MAX, a seeded random phase
    follows until the budget runs out.  Results are deterministic for a
    fixed seed, and a larger budget can only extend the search, never change
    an already found witness.

    The exhaustive phase sweeps only the first labeled model of each
    isomorphism class (_isomorph_free_models), and still counts as the
    labeled stream.  A skipped model's earlier copy fails first and costs
    the same (see _isomorph_free_models), so it never holds the first hit,
    and its scenarios are counted where it stood: a model's count starts at
    the labeled scenarios before its topology plus its valuation's product
    index, read off its masks, times its cost.  The count through the last
    model is the labeled total, since the last labeled model, the full
    valuation on the discrete space, is alone in its class.  The source's
    runs of valuations are swept as they come, and a SubsetModel is built
    only for the hit returned.

    Every model, exhaustive or drawn, is swept only at the pairs that can
    hold the first hit, the reductions sweep_validity states: under ae
    with class all, consistent or dense, the pairs whose V lies inside Max;
    and, with k = min(max_n, ENUMERATION_MAX), the pairs whose U is the
    carrier or has more than k worlds.  The first finds the same failures
    on any stream.  The second is the open-subspace lemma; its
    precondition, a copy earlier in the stream of every model with fewer
    worlds than the model swept and at most k, holds here: the exhaustive
    phase holds every model of at most k worlds over f's atoms, up to
    isomorphism, in size order, and every draw comes after it.  So the
    first hit is the one a sweep of every pair finds.  The counts still
    read the full lists, one way for every model: its cost is the
    scenarios of its full list, counted without building it
    (model._range_cost; the source records an exhaustive topology's beside
    its start), and a full list is built only at a hit, for its position.

    The exhaustive stream is swept in _sweep_groups' growing lane groups
    of 1, 1, 2, 4, ... same-topology runs; each random draw is a group of
    its own, made only once the group before it is counted and only while
    budget is left.  The budget counts scenarios: after a group, the count
    runs up to the hit, or else through the group's last model.  A hit
    counts only within the budget, and a draw whose sweep would cost over
    10^6 is skipped and not counted.  So found (the hit's count within the
    budget) and exhausted (the total within it) read as on the labeled
    stream over every pair, however it is grouped.
    """
    if not 1 <= max_n <= MAX_WORLDS:
        raise SemanticsError(f"max_n {max_n} outside 1..{MAX_WORLDS}")
    names = sorted(fm.atoms(f))
    engine = BatchEvaluator((f,), kind)
    root = engine.roots[f]
    evaluations = 0
    starts: dict[Topology, tuple[int, int]] = {}  # labeled scenarios before, cost per model
    cls = scenario_class if kind.needs_doxastic_range else None
    k = min(max_n, ENUMERATION_MAX)

    def sweep(runs: Iterable[_Run]):
        return _sweep_groups(
            runs,
            kind,
            scenario_class,
            DEFAULT_SCENARIO_BUDGET,
            grow=True,
            maximal=True,
            complete_to=k,
        )

    groups = sweep(_isomorph_free_models(k, names, cls, starts))

    def drawn():  # each random draw a group of its own, made while budget is left
        sizes = range(ENUMERATION_MAX + 1, max_n + 1)
        for d in itertools.takewhile(lambda _: evaluations < budget, itertools.count()):
            model = _search_model(seed + d, sizes[d % len(sizes)], names)
            try:
                (group,) = sweep(_runs((model,), names))
            except BudgetError:
                continue  # scenario space too large; skip the draw
            yield group

    if max_n > ENUMERATION_MAX:
        groups = itertools.chain(groups, drawn())
    for runs in groups:
        if evaluations >= budget:
            break
        # the hit's model counts up to the hit, else the group's last model in full
        r, m, s = _group_failures(engine, runs, names, [root]).get(root, (-1, -1, None))
        top, valuations = runs[r][1]
        masks = valuations[m]
        if top in starts:  # the labeled scenarios before its valuation
            start, cost = starts[top]
            index = 0
            for mask in masks:
                index = index << top.n | mask
            start += index * cost
        else:  # a random draw, a group of its own
            start, cost = evaluations, _range_cost(top, cls)
        evaluations = start + (cost if s is None else _stream_position(range_groups(top, cls), s))
        if s is not None and evaluations <= budget:
            model = SubsetModel(top, dict(zip(names, masks)))
            return SearchOutcome("found", model, s, evaluations)
        if evaluations > budget:
            break
    else:
        if max_n <= ENUMERATION_MAX:  # draws, if any, stop only on a spent budget
            return SearchOutcome("exhausted", None, None, evaluations)
    # every other way out means the budget ran out; a negative one reads as 0
    return SearchOutcome("budget", None, None, max(budget, 0))


def _search_model(seed: int, size: int, atoms: list[str]) -> SubsetModel:
    """Random-phase draw: seeded topology plus valuations of the given atoms."""
    base = random_model(seed, size, atoms=0)
    rng = random.Random(f"{seed}:valuation")
    return SubsetModel(base.topology, {name: rng.getrandbits(base.n) for name in atoms})


# ---------------------------------------------------------------------------
# the compiled extension engine, shared-subformula and lane-packed

_MAX_GROUP_BITS = 6144  # lanes × carrier of a lane group, and of a run swept alone
# the classes that admit V & Max wherever they admit V (see sweep_validity)
_MAXIMAL_CLASSES = (ScenarioClass.ALL, ScenarioClass.CONSISTENT, ScenarioClass.DENSE)
# a run: one topology and valuations on it, each the masks of a names tuple in order
_Run = tuple[Topology, Sequence[tuple[int, ...]]]
_Group = Sequence[tuple[Ranges, _Run]]  # (ranges, run) per run, in stream order
# each node class's op as _run reads it: the class of an atom or a modality,
# else the connective's truth function
_OPS = {Atom: Atom} | {cls: c.truth or cls for cls, c in fm.CONNECTIVES.items()}


class _Lanes:
    """Packing of W lanes, over models of any topologies and sizes, into one int per value.

    The models come as runs, each a topology and its models' valuations
    (the masks of names, in order), in lane order, and every model of run
    r takes chunks[r] consecutive lanes, one per chunk of its range pairs,
    from lane starts[r] on (starts[-1] is W).
    The carrier is padded to the group's largest n.  World x owns the
    block of bits x*W .. x*W+W-1, and bit j of every block is lane j, so
    one bigint operation acts on all W lanes at once.
    A world past a lane's own carrier is its own minimal neighborhood and
    lies in no range, so it stays empty in every value of that lane.
    A packed value is built as the sum of col_x << x*W, col_x being the
    W-bit lane mask of world x (place): the atoms, the passes of _passes
    and maximal, each lane's Max, whose column at x is the lanes of the
    runs whose Max holds x.  Interior reads one table per world x of (y,
    outside) pairs, outside being the lanes whose mnb(x) lacks y.  fold
    and spread move lane masks between the n blocks and one in
    ceil(log2 n) steps each (SIMD within a register; Fisher & Dietz, LCPC
    1998): fold halves the blocks still to OR, spread doubles the blocks
    already copied, so neither costs a product or a pass per world.  Their
    step tables, halves and steps, are built on first use, once per group,
    so a group that never folds or spreads builds neither.  With W = 1 a
    packed value is the plain subset mask, interior is
    topology.mnb_interior, maximal is Topology.maximal, and nothing is
    spread (see BatchEvaluator._run).
    """

    def __init__(self, runs: Sequence[_Run], chunks: Sequence[int], names: Sequence[str]):
        self.runs = list(zip(runs, chunks))
        self.names = names
        lengths = (len(valuations) * c for (_, valuations), c in self.runs)
        self.starts = starts = list(itertools.accumulate(lengths, initial=0))
        self.width = width = starts[-1]
        self.ones = ones = (1 << width) - 1
        tops = [top for top, _ in runs]
        n = max(top.n for top in tops)
        self.shifts = tuple(x * width for x in range(n))
        if width == 1:
            self.maximal = tops[0].maximal
            self.interior = partial(mnb_interior, tops[0].min_neighborhoods)
            return
        spans = [(1 << end) - (1 << start) for start, end in zip(starts, starts[1:])]  # each run's lanes
        maximal = [0] * n  # each world's column of Max
        # holds[x][y]: the lanes whose mnb(x) holds y, for each y != x
        holds: list[dict[int, int]] = [{} for _ in range(n)]
        for top, lanes in zip(tops, spans):
            for x in bits(top.maximal):
                maximal[x] |= lanes
            for x, nb in enumerate(top.min_neighborhoods):
                row = holds[x]
                for y in bits(nb & ~(1 << x)):
                    row[y] = row.get(y, 0) | lanes
        self.maximal = self.place(maximal)
        self._meets = [[(y, ones & ~m) for y, m in row.items()] for row in holds]
        self.interior = self._interior

    def place(self, cols: Sequence[int]) -> int:
        """The packed value whose block at world x is the lane mask cols[x]."""
        return sum(col << s for col, s in zip(cols, self.shifts) if col)

    def pack(self) -> Mapping[str, int]:
        """Each of names' packed truth value across the group's lanes.

        World x's column of an atom collects the lanes whose model makes
        the atom true at x; the packed value places each column at x's
        block.
        """
        cols = [[0] * len(self.shifts) for _ in self.names]  # per atom, per world
        for ((_, valuations), c), start in zip(self.runs, self.starts):
            lanes = ((1 << c) - 1) << start  # the lanes of the run's first model
            for masks in valuations:
                for atom, m in zip(cols, masks):
                    while m:
                        low = m & -m
                        atom[low.bit_length() - 1] |= lanes
                        m ^= low
                lanes <<= c
        return {name: self.place(atom) for name, atom in zip(self.names, cols)}

    def first_miss(self, m: int, mask: int) -> tuple[int, int]:
        """Least world whose block of m meets the lane mask, and the lowest lane of mask there."""
        hits = ((x, m >> s & mask) for x, s in enumerate(self.shifts))
        x, hit = next((x, hit) for x, hit in hits if hit)
        return x, (hit & -hit).bit_length() - 1

    @cached_property
    def steps(self) -> tuple[int, ...]:
        """spread's shifts, W, 2W, 4W, ... until 2^j blocks cover all n."""
        return tuple(self.width << j for j in range((len(self.shifts) - 1).bit_length()))

    @cached_property
    def halves(self) -> tuple[tuple[int, int], ...]:
        """fold's steps: each keeps the first ceil(b/2) of the b blocks
        left and ORs the rest onto them, as (shift, mask of the kept)."""
        out = []
        blocks = len(self.shifts)
        while blocks > 1:
            blocks -= blocks >> 1
            out.append((blocks * self.width, (1 << blocks * self.width) - 1))
        return tuple(out)

    def fold(self, m: int) -> int:
        """OR of all blocks of m: the lanes in which m is nonempty.  Each
        step ORs the blocks past the first half onto that half."""
        for s, low in self.halves:
            m = m >> s | m & low
        return m

    def spread(self, col: int) -> int:
        """The lane mask col copied into every block (and, past the n-th,
        into blocks that a value masked by a range drops)."""
        for s in self.steps:
            col |= col << s
        return col

    def _interior(self, a: int) -> int:
        """box at x is the AND over y of a's block at y, in the lanes whose mnb(x) holds y."""
        ones = self.ones
        block = [a >> s & ones for s in self.shifts]
        out = 0
        for x, meets in enumerate(self._meets):
            acc = block[x]
            for y, outside in meets:
                acc &= block[y] | outside
            out |= acc << self.shifts[x]
        return out


def _alone(top: Topology) -> _Lanes:
    """The W = 1 layout of one model on top, whose valuation _run reads as
    its plain masks."""
    return _Lanes([(top, [()])], [1], ())


class BatchEvaluator:
    """The extension engine: one compiled formula set, shared across models.

    Compiles the distinct subformulas of all roots into one postorder node
    list; add() extends it later.  One linear pass per epistemic range
    computes every node that does not read the doxastic range, and a short
    overlay pass per doxastic range fills the nodes that do.  A pass runs
    on a group of W lanes, each value packed W lanes wide (see _Lanes),
    and each lane under its own ranges, as _passes schedules them and
    _values runs them; Evaluator, base_pass and overlay_pass are the W = 1
    case on plain subset masks.  Agreement with the definitional oracle is
    pinned by tests.
    """

    def __init__(self, roots: Iterable[Formula], kind: Semantics):
        self.kind = kind
        self.nodes: list[tuple] = []  # (op, arg1, arg2), op as _run reads it
        self.index: dict[Formula, int] = {}
        self.atom_names: tuple[str, ...] = ()
        self.base_order: list[int] = []
        self.overlay_order: list[int] = []  # nodes that read the doxastic range
        self._reads_v: list[bool] = []
        self.roots = {f: self.add(f) for f in roots}

    def add(self, f: Formula) -> int:
        """Node index of f, compiling f and its subformulas if they are new.

        One loop over postorder(f), children first and left to right, so
        any depth is fine; a node that cannot compile raises with the
        nodes before it in that order already added.  Each node's op is
        one lookup in _OPS, and its operands are read off its children.
        """
        index = self.index
        hit = index.get(f)
        if hit is not None:
            return hit
        nodes, reads = self.nodes, self._reads_v
        doxastic = self.kind.needs_doxastic_range
        for g in fm.postorder(f):
            if g in index:
                continue
            op = _OPS.get(type(g))
            if op is None:
                raise SemanticsError(f"cannot compile node {g!r}")
            kids = g._children
            if len(kids) == 2:
                left, right = kids
                a, b = index[left], index[right]
                reads_v = reads[a] or reads[b]
            elif kids:
                a, b = index[kids[0]], 0
                reads_v = reads[a] or (op is Bel and doxastic)
            elif op is Atom:
                a, b, reads_v = g.name, 0, False
                self.atom_names += (a,)
            else:  # a constant
                a = b = 0
                reads_v = False
            idx = len(nodes)
            nodes.append((op, a, b))
            index[g] = idx
            reads.append(reads_v)
            (self.overlay_order if reads_v else self.base_order).append(idx)
        return index[f]

    def base_pass(self, model: SubsetModel, u: int) -> list[int]:
        """Extensions of all doxastic-range-independent nodes under u, in one
        W = 1 pass.  No sweep calls it (sweeps run _values); the benchmark's
        probes and spans do."""
        vals = [0] * len(self.nodes)
        self._run(_alone(model.topology), model.valuation, u, 0, vals, self.base_order)
        return vals

    def overlay_pass(self, model: SubsetModel, u: int, v: int, vals: list[int]) -> None:
        """Fill the nodes that read v, in place over a base pass; like
        base_pass, it is kept for the benchmark's probes and spans.

        Overlay nodes are recomputed wholesale on every call, so reusing
        one array across successive doxastic ranges is safe.
        """
        self._run(_alone(model.topology), model.valuation, u, v, vals, self.overlay_order)

    def _run(
        self,
        lanes: _Lanes,
        atoms: Mapping[str, int],
        us: int,
        vs: int,
        vals: list[int],
        order: Iterable[int],
    ) -> None:
        """One pass over `order`; us and vs hold each lane's own ranges,
        packed (the plain masks at W = 1).

        A node's op is its class for an atom or a modality, and otherwise
        its connective's truth function, applied to us and the operands.
        K and B share one broadcast: each clause works out the worlds its
        modality misses (K: of U outside the operand; ed B: of V outside
        the operand; ae B: those of them in the lane's Max, since V minus
        the operand is nowhere dense exactly when it misses Max; strong B:
        the ae clause at V = U, since the open U lies in cl(int(operand))
        exactly when U ∩ Max lies in the operand, see topology._maximal),
        and the modality holds on a lane's whole U where that lane misses
        none: us & spread(ok), where spread copies the lane mask
        ok = ones & ~fold(missing) into every block, each in ceil(log2 n)
        shift steps (see _Lanes).
        """
        ones = lanes.ones
        wide = lanes.width > 1  # in one model a failing modality is just empty
        interior = lanes.interior
        fold = lanes.fold
        spread = lanes.spread
        kind = self.kind
        nodes = self.nodes
        for i in order:
            op, a, b = nodes[i]
            if op is Atom:
                out = atoms.get(a, 0) & us
            elif op is K or op is Bel:
                sub = vals[a]
                if op is K:
                    missing = 0 if sub == us else us & ~sub
                elif kind is Semantics.ED:
                    missing = vs & ~sub
                else:  # strong reads U where ae reads V
                    missing = (us if kind is Semantics.STRONG else vs) & ~sub & lanes.maximal
                if not missing:
                    out = us
                elif wide:
                    out = us & spread(ones & ~fold(missing))
                else:
                    out = 0
            elif op is Box:
                out = interior(vals[a])
            else:
                out = op(us, vals[a], vals[b])
            vals[i] = out


class BatchFailure(Record):
    __slots__ = _fields = ("model", "scenario")
    model: SubsetModel
    scenario: EDScenario


def sweep_validity(
    engine: BatchEvaluator,
    models: Iterable[SubsetModel],
    scenario_class: ScenarioClass = ScenarioClass.ALL,
    budget: int = DEFAULT_SCENARIO_BUDGET,
    *,
    complete_to: int = 0,
) -> dict[Formula, BatchFailure]:
    """First failure per root formula across a model stream, in scan order.

    A root with no entry in the result is valid on every model of the
    stream (restricted to scenarios of the class).  A failed root is not
    re-checked.

    The stream is read lazily one lane group at a time (see _sweep_groups),
    each model in one or more lanes (see _chunks); a group's models may
    differ in topology and size.  A root's failure is the one a
    scenario-by-scenario scan finds: the stream's first failing model, the
    least world missing there, then the first (U, V) in canonical order
    that misses that world (the order epistemic_scenarios and ed_scenarios
    yield).  A group names each failure by its run and its model in that
    run (see _group_failures).  Raises BudgetError on reaching a model whose
    sweep costs more than the budget while some root is still live.

    Under ae with class all, consistent or dense, each topology is swept
    only at its pairs whose V lies inside Max (Topology.maximal).  This
    finds the same failures: every (U, V) has the extensions of (U, V & Max),
    an open the class admits and the first V in canonical order to share
    it.  The budget is still charged for every pair.

    With complete_to = k, each topology is swept only at its pairs whose
    U is the carrier or has more than k worlds.  This finds the same
    failures (the open-subspace lemma; van Benthem & Bezhanishvili,
    "Modal logics of space", 2007): an open U is an up-set of the
    specialization order, so the subspace M|U has Max ∩ U for its Max; K
    reads only U, box the interior, which inside U is that of M|U, B reads
    V and U ∩ Max, and the classes read U, V and U ∩ Max.  So truth at
    (x, U, V) in M is truth at that scenario of M|U, relabeled a model of
    |U| worlds whose carrier is U, and the class admits it there.
    Precondition: before each model M of the stream comes a copy, up to
    isomorphism and contraction (see suites.Batch), of every model with
    fewer worlds than M and at most k.  Then M fails at U != X with |U| <=
    k only where the earlier copy of M|U fails at its carrier, which is
    swept, so M is not the root's first failure; and a first failure
    keeps its world and pair, since none of its model's failures is
    dropped.  A stream that does not meet the precondition takes k = 0,
    and every pair is swept.  The budget is still charged for every pair.

    Every model of the stream is swept.  A stream without isomorphic
    copies is made at its source (see _isomorph_free_models).  The stream
    enters the sweep through _runs, as the engine's atoms' masks, and each
    failure is named by the stream's own model.
    """
    live = {idx: f for f, idx in engine.roots.items()}
    failures: dict[Formula, BatchFailure] = {}
    if not live:
        return failures
    names = engine.atom_names
    read: list[SubsetModel] = []  # the models read, from the next group's first on

    def reading():
        for model in models:
            read.append(model)
            yield model

    groups = _sweep_groups(
        _runs(reading(), names),
        engine.kind,
        scenario_class,
        budget,
        maximal=True,
        complete_to=complete_to,
    )
    for runs in groups:
        before = list(itertools.accumulate((len(vals) for _, (_, vals) in runs), initial=0))
        for idx, (r, m, s) in _group_failures(engine, runs, names, list(live)).items():
            failures[live.pop(idx)] = BatchFailure(read[before[r] + m], s)
        if not live:
            break
        del read[: before[-1]]
    return failures


def _sweep_groups(
    runs: Iterable[tuple[Topology, Iterable[tuple[int, ...]]]],
    kind: Semantics,
    cls: ScenarioClass,
    budget: int,
    *,
    grow=False,
    maximal=False,
    complete_to=0,
) -> Iterator[list[tuple[Ranges, _Run]]]:
    """The runs in lane groups, each a list of (ranges, run) in stream order.

    A run is a topology and valuations on it, read as they come: a source
    run of _isomorph_free_models, or a stretch of a model stream (_runs).
    Each is cut into runs of at most _MAX_GROUP_BITS // n valuations, one
    lane per model times the carrier n staying under the cap, and ranges
    are its topology's (U, V) pairs from range_groups, read as they are by
    _chunks, _passes and the failure decoding.  Consecutive runs share a
    group while the lanes _chunks lays it out in, times its largest
    carrier, stay within _MAX_GROUP_BITS: each value holds that many bits,
    one value per compiled node.  With grow, which only find_countermodel
    sets, a group holds at most as many runs as all before it, so groups
    take 1, 1, 2, 4, ... runs: an early hit costs a small sweep and a long
    hunt few groups, while a sweep's first small groups would only cost it
    passes.  With maximal, an ae sweep under class all, consistent or
    dense ranges only the pairs whose V lies inside the topology's Max
    (see sweep_validity); under total each U has one pair, and nothing is
    dropped.  With complete_to = k, it ranges no pair whose U is not the
    carrier and has at most k worlds (see sweep_validity).  range_groups
    builds those reduced lists.  Raises BudgetError at the first run whose
    ranges cost more than the budget, once the groups before it are
    yielded: the budget is charged for the full list.
    """
    group: list[tuple[Ranges, _Run]] = []
    lanes = carrier = size = 0  # the group's lanes, carrier and chunk length
    done = 0  # runs of the groups yielded so far
    if not kind.needs_doxastic_range:
        cls = None  # epistemic ranges: each nonempty open U, no V
    maximal = maximal and kind is Semantics.AE and cls in _MAXIMAL_CLASSES
    for top, stretch in runs:
        inside = top.maximal if maximal else None
        try:
            ranges = range_groups(top, cls, budget, above=complete_to, inside=inside)
        except BudgetError:
            if group:
                yield group
            raise
        stretch = iter(stretch)
        while valuations := list(itertools.islice(stretch, _MAX_GROUP_BITS // top.n)):
            run = (top, valuations)
            if group and (len(group) < done or not grow):
                # the lanes of the grown group: while the chunk length holds, the
                # runs already in keep their chunks; when it shrinks, all are recut
                least = min(size, len(ranges))
                new, grown = ([(ranges, run)], lanes) if least == size else (group + [(ranges, run)], 0)
                _, chunks = _chunks(new, least)
                grown += sum(len(vals) * c for (_, (_, vals)), c in zip(new, chunks))
                if grown * max(carrier, top.n) <= _MAX_GROUP_BITS:
                    group.append((ranges, run))
                    lanes, carrier, size = grown, max(carrier, top.n), least
                    continue
            if group:
                yield group
                done += len(group)
            group = [(ranges, run)]
            lanes, carrier, size = len(valuations), top.n, len(ranges)
    if group:
        yield group


def _chunks(runs: _Group, size: int = 0) -> tuple[int, list[int]]:
    """Pairs per chunk, and chunks per model of each run, for a group given
    as (ranges, run) per run, a run's list being its len(ranges) pairs.

    Every chunk is as long as the group's shortest list (size, when given,
    is the shortest of a group these runs are part of), so every lane does
    real work at nearly every pass.  A run alone, or any run whose list is
    that short, is one chunk per model, so its models share their base
    passes; a lone model is one lane.
    """
    size = size or min(len(ranges) for ranges, _ in runs)
    return size, [-(-len(ranges) // size) for ranges, _ in runs]


def _runs(
    models: Iterable[SubsetModel], names: Sequence[str]
) -> Iterator[tuple[Topology, Iterator[tuple[int, ...]]]]:
    """A model stream as runs, the one way models enter a sweep: each
    stretch of consecutive models of one topology (one that comes back
    starts a new stretch), with each model's masks of names in order, an
    atom it does not value being false everywhere.  Like the source's, a
    run's valuations are read as they come, before the next run."""
    for top, stretch in itertools.groupby(models, key=attrgetter("topology")):
        yield top, (tuple([model.valuation.get(name, 0) for name in names]) for model in stretch)


def _passes(runs: _Group, names: Sequence[str]) -> tuple[_Lanes, list[list[int]]]:
    """A lane group's one pass schedule: its _Lanes and each pass's packed
    [U, V], one pass per pair of a chunk, for runs given as (ranges, run)
    in stream order, each valuation the masks of names in order.

    Each model's (U, V) pairs, in canonical order, are cut into chunks as
    long as the group's shortest list (see _chunks), one lane per chunk in
    (model, chunk) order, and pass k runs each chunk's k-th pair; a lane
    whose chunk has run out runs under U = V = 0, where nothing fails.
    The passes are laid out by world columns: pair i of a run falls in
    chunk j = i // size at pass k = i % size, and the lanes every << j
    (every being each model's chunk 0) join pass k's U column of each
    world of U, and its V column of each world of V; each pass's columns
    are placed once.  A lone model (W = 1) keeps its pairs as the plain
    masks, V = None read as 0.
    """
    size, chunks = _chunks(runs)
    lanes = _Lanes([run for _, run in runs], chunks, names)
    if lanes.width == 1:
        return lanes, [[u, v or 0] for u, v in runs[0][0]]
    n = len(lanes.shifts)
    cols = [([0] * n, [0] * n) for _ in range(size)]  # each pass's U and V column per world
    opens = {o for _, (top, _) in runs for o in top.opens}
    worlds = {o: bits(o) for o in opens}  # each mask's worlds, looked up once
    for (ranges, (_, valuations)), c, start in zip(runs, chunks, lanes.starts):
        every = ((1 << len(valuations) * c) - 1) // ((1 << c) - 1) << start  # each model's chunk 0
        pairs = iter(ranges)
        for j in range(c):  # j > 0 only for a list longer than the group's shortest
            chunk = every << j
            for (ucols, vcols), (u, v) in zip(cols, pairs):  # the next `size` pairs
                for x in worlds[u]:
                    ucols[x] |= chunk
                if v:
                    for x in worlds[v]:
                        vcols[x] |= chunk
    return lanes, [[lanes.place(ucols), lanes.place(vcols)] for ucols, vcols in cols]


def _values(engine: BatchEvaluator, lanes: _Lanes, passes: Iterable) -> Iterator[list[int]]:
    """Every node's packed values at each pass in turn, in one list that
    the next pass overwrites; the base nodes rerun only when U changes."""
    atoms = lanes.pack()
    vals = [0] * len(engine.nodes)
    last_us = None
    for us, vs in passes:
        if us != last_us:
            engine._run(lanes, atoms, us, 0, vals, engine.base_order)
            last_us = us
        if engine.overlay_order:
            engine._run(lanes, atoms, us, vs, vals, engine.overlay_order)
        yield vals


def _group_failures(
    engine: BatchEvaluator, runs: _Group, names: Sequence[str], live: list[int]
) -> dict[int, tuple[int, int, EDScenario]]:
    """Per live root, the group's first failure in scan order, as (r, m,
    scenario) with valuation m of runs[r][1] the failing model's: the
    lowest failing (run, model), the least world missing in any of its
    chunks, then the first of its pairs that misses that world, over the
    passes of _passes as _values evaluates them.  Each valuation holds the
    masks of names, in order.
    """
    lanes, passes = _passes(runs, names)
    starts, chunks = lanes.starts, [c for _, c in lanes.runs]
    # per root, the least (run, model, world, pair) yet and the end lane of its model
    found: dict[int, tuple[tuple[int, int, int, int], int]] = {}
    for k, ((us, _), vals) in enumerate(zip(passes, _values(engine, lanes, passes))):
        for idx in live:
            ext = vals[idx]
            if ext == us:
                continue
            missing = us & ~ext
            failing = lanes.fold(missing)
            hit = found.get(idx)
            if hit is not None:
                failing &= (1 << hit[1]) - 1  # lanes up to the hit's model's last
            if not failing:
                continue
            lane = (failing & -failing).bit_length() - 1
            r = bisect_right(starts, lane) - 1
            m = (lane - starts[r]) // chunks[r]
            low = starts[r] + m * chunks[r]
            end = low + chunks[r]
            x, lane = lanes.first_miss(missing, failing & ((1 << end) - (1 << low)))
            key = (r, m, x, (lane - low) * len(passes) + k)
            if hit is None or key < hit[0]:
                found[idx] = (key, end)
    return {idx: (r, m, EDScenario(x, *runs[r][0][p])) for idx, ((r, m, x, p), _) in found.items()}
