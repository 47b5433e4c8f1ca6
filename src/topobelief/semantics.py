"""The three satisfaction relations and validity/countermodel machinery.

One engine, BatchEvaluator, computes extensions: it compiles formulas into
a postorder list of shared subformula nodes and evaluates that list in one
linear pass per range pair.  The belief clause is implemented directly per
semantics:

  strong  B phi holds on (x, U) iff the interior of phi's extension is
          dense in U (equivalently U is inside cl(int(ext)))
  ed      B phi holds on (x, U, V) iff V is inside phi's extension
  ae      B phi holds on (x, U, V) iff V minus phi's extension is nowhere
          dense (almost-all quantification)

K and box read the same in all three: truth everywhere on U, and
membership in the interior of the extension.  The translation through
K-dia-box is kept in the test suite as an independent oracle for the
strong belief clause; the two are never reconciled silently.

Evaluator is the engine's view of a single model: it compiles formulas
as they are asked for and keeps one value list per range pair.
Soundness sweeps compile a formula set once and evaluate it lane-packed:
a group of consecutive models of a stream, of any topologies and carrier
sizes, holds one bit per (world, lane) in each value, and every
connective, interior and closure acts on the whole group at once.  A lane
is a model and a chunk of its list of range pairs, every chunk as long as
the group's shortest list, so a group costs about as many passes as that
list, not as its longest; a group of one topology's valuations gives each
model one lane, its whole list.  Interior reads each lane's own
minimal-neighborhood table, closure is its dual, and pass k evaluates
each lane under its chunk's k-th range pair; _passes lays out this one
schedule of every sweep, and _values runs it.  valid_in_model, suite
runs and find_countermodel sweep lane groups of their stream's
same-topology runs, the search's groups growing as it goes (each at most
as many runs as all before it), and a failure is the one a
scenario-by-scenario scan finds: the first failing model, the least
world missing there, then the first (U, V) in canonical order that
misses that world.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import partial
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
    _stream_position,
    check_scenario,
    exhaustive_models,
    random_model,
    range_groups,
)
from .topology import ENUMERATION_MAX, MAX_WORLDS, Topology, bits, mnb_closure, mnb_interior


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
        self._engine = BatchEvaluator((), kind)
        self._lanes = _Lanes(((model,),), (1,))
        self._vals: dict[tuple[int, int | None], list[int]] = {}

    def extension(self, f: Formula, u: int, v: int | None = None) -> int:
        """Worlds of u satisfying f under the ranges (a subset mask)."""
        if self.kind.needs_doxastic_range:
            if v is None:
                raise SemanticsError(f"{self.kind.value} semantics needs a doxastic range")
        elif v is not None:
            raise SemanticsError("strong semantics takes no doxastic range")
        engine = self._engine
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
    if not top.is_open(u):
        raise SemanticsError("epistemic range is not open")
    if v is not None and (not top.is_open(v) or v & ~u):
        raise SemanticsError("doxastic range must be an open subset of the epistemic range")
    return Evaluator(model, kind).extension(f, u, v)


def satisfies(model: SubsetModel, s: EDScenario, f: Formula, kind: Semantics) -> bool:
    """Truth of f at the scenario under the given semantics."""
    check_scenario(model, s, need_v=kind.needs_doxastic_range)
    ext = Evaluator(model, kind).extension(f, s.u, s.v)
    return bool(ext >> s.x & 1)


@dataclass(frozen=True)
class Witness:
    scenario: EDScenario
    trace: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: Witness | None = None


def _trace(ev: Evaluator, f: Formula, s: EDScenario) -> tuple[tuple[str, bool], ...]:
    entries = []
    for g in fm.subformulas(f):
        ext = ev.extension(g, s.u, s.v)
        entries.append((fm.to_text(g), bool(ext >> s.x & 1)))
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
    hit = sweep_validity(BatchEvaluator((f,), kind), (model,), scenario_class, budget).get(f)
    if hit is None:
        return Verdict(True)
    return Verdict(False, Witness(hit.scenario, _trace(Evaluator(model, kind), f, hit.scenario)))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a countermodel hunt.

    status "found" carries the witness; "exhausted" means the whole
    exhaustive space up to max_n was covered with no countermodel (a claim
    only the exhaustive phase may make); "budget" means the evaluation
    budget ran out first.
    """

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

    The exhaustive stream is swept in _sweep_groups' growing lane groups
    of 1, 1, 2, 4, ... same-topology runs; each random draw is a group of
    its own, made only once the group before it is counted and only while
    budget is left.  The budget counts scenarios, worked out from run sizes
    up to the first hit, which counts only within the budget; a draw whose
    sweep would cost over 10^6 is skipped and not counted.
    """
    if not 1 <= max_n <= MAX_WORLDS:
        raise SemanticsError(f"max_n {max_n} outside 1..{MAX_WORLDS}")
    names = sorted(fm.atoms(f))
    engine = BatchEvaluator((f,), kind)
    root = engine.roots[f]
    evaluations = 0
    models = exhaustive_models(min(max_n, ENUMERATION_MAX), names)
    groups = _sweep_groups(models, kind, scenario_class, DEFAULT_SCENARIO_BUDGET, grow=True)

    def drawn():  # each random draw a group of its own, made while budget is left
        sizes = range(ENUMERATION_MAX + 1, max_n + 1)
        for d in itertools.takewhile(lambda _: evaluations < budget, itertools.count()):
            model = _search_model(seed + d, sizes[d % len(sizes)], names)
            try:
                yield from _sweep_groups((model,), kind, scenario_class, DEFAULT_SCENARIO_BUDGET)
            except BudgetError:
                continue  # scenario space too large; skip the draw
    if max_n > ENUMERATION_MAX:
        groups = itertools.chain(groups, drawn())
    for runs in groups:
        if evaluations >= budget:
            break
        pos, s = _group_failures(engine, runs, [root]).get(root, (-1, None))
        for ranges, run in runs:  # count run by run, up to the hit
            per_model = sum(u.bit_count() for u, _ in ranges)
            if 0 <= pos < len(run):
                evaluations += pos * per_model + _stream_position(ranges, s)
                if evaluations <= budget:
                    return SearchOutcome("found", run[pos], s, evaluations)
                break
            evaluations += len(run) * per_model
            pos -= len(run)
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
_Group = Sequence[tuple[Ranges, Sequence[SubsetModel]]]  # (ranges, run) per run, in stream order


class _Lanes:
    """Packing of W lanes, over models of any topologies and sizes, into one int per value.

    The models come as runs that each share one topology, in lane order,
    and every model of run r takes chunks[r] consecutive lanes, one per
    chunk of its range pairs.  The carrier is padded to the group's largest
    n.  World x owns the block of bits x*W .. x*W+W-1, and bit j of every
    block is lane j, so one bigint operation acts on all W lanes at once.
    A world past a lane's own carrier is its own minimal neighborhood and
    lies in no range, so it stays empty in every value of that lane.
    Interior reads one table per world x of (y, outside) pairs, outside
    being the lanes whose mnb(x) lacks y; closure is its dual, the
    complement of the interior of the complement within every lane of
    every world.  With W = 1 a packed value is the plain subset mask, and
    interior and closure are topology.mnb_interior and mnb_closure.
    """

    def __init__(self, runs: Sequence[Sequence[SubsetModel]], chunks: Sequence[int]):
        self.runs = list(zip(runs, chunks))
        self.width = width = sum(len(run) * c for run, c in self.runs)
        self.ones = ones = (1 << width) - 1
        n = max(run[0].n for run in runs)
        self.shifts = tuple(x * width for x in range(n))
        self.rep = self.replicate((1 << n) - 1)
        if width == 1:
            mnb = runs[0][0].topology.min_neighborhoods
            self.interior = partial(mnb_interior, mnb)
            self.closure = partial(mnb_closure, mnb)
            return
        # holds[x][y]: the lanes whose mnb(x) holds y, for each y != x
        holds: list[dict[int, int]] = [{} for _ in range(n)]
        start = 0
        for run, c in self.runs:
            lanes = ((1 << len(run) * c) - 1) << start
            start += len(run) * c
            for x, nb in enumerate(run[0].topology.min_neighborhoods):
                row = holds[x]
                for y in bits(nb & ~(1 << x)):
                    row[y] = row.get(y, 0) | lanes
        self._meets = [[(y, ones & ~m) for y, m in row.items()] for row in holds]
        self.all = ones * self.rep  # every lane of every world
        self.interior = self._interior
        self.closure = self._closure

    def replicate(self, m: int) -> int:
        """Bit 0 of the block of every world of m; times a lane mask it copies the mask there."""
        if self.width == 1:
            return m
        return sum(1 << s for x, s in enumerate(self.shifts) if m >> x & 1)

    def pack(self, names: Iterable[str]) -> Mapping[str, int]:
        """Each atom's packed truth value across the group's lanes.

        World x's column collects the lanes whose model makes the atom
        true at x; the packed value places each column at x's block.
        """
        out = {}
        for name in names:
            cols = [0] * len(self.shifts)
            start = 0
            for run, c in self.runs:
                own = (1 << c) - 1
                for model in run:
                    lanes = own << start
                    start += c
                    m = model.valuation.get(name, 0)
                    while m:
                        low = m & -m
                        cols[low.bit_length() - 1] |= lanes
                        m ^= low
            out[name] = sum(col << s for col, s in zip(cols, self.shifts))
        return out

    def first_miss(self, m: int, mask: int) -> tuple[int, int]:
        """Least world whose block of m meets the lane mask, and the lowest lane of mask there."""
        hits = ((x, m >> s & mask) for x, s in enumerate(self.shifts))
        x, hit = next((x, hit) for x, hit in hits if hit)
        return x, (hit & -hit).bit_length() - 1

    def fold(self, m: int) -> int:
        """OR of all blocks of m: the lanes in which m is nonempty."""
        out = 0
        for s in self.shifts:
            out |= m >> s
        return out & self.ones

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

    def _closure(self, a: int) -> int:
        """cl is the dual of interior: all & ~interior(all & ~a)."""
        return self.all & ~self._interior(self.all & ~a)


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
        """Node index of f, compiling f and its subformulas if they are new."""
        hit = self.index.get(f)
        if hit is not None:
            return hit
        cls = type(f)
        c = fm.CONNECTIVES.get(cls)
        if c is not None:
            kids = [self.add(g) for g in fm._children(f)]
            a, b, *_ = kids + [0, 0]
            reads_v = cls is Bel and self.kind is not Semantics.STRONG
            reads_v = reads_v or any(self._reads_v[k] for k in kids)
        elif cls is Atom:
            a, b, reads_v = f.name, 0, False
            self.atom_names += (f.name,)
        else:
            raise SemanticsError(f"cannot compile node {f!r}")
        idx = len(self.nodes)
        self.nodes.append((cls if c is None or c.truth is None else c.truth, a, b))
        self.index[f] = idx
        self._reads_v.append(reads_v)
        (self.overlay_order if reads_v else self.base_order).append(idx)
        return idx

    def base_pass(self, model: SubsetModel, u: int) -> list[int]:
        """Extensions of all doxastic-range-independent nodes under u, in one
        W = 1 pass.  No sweep calls it (sweeps run _values); the benchmark's
        probes and spans do."""
        vals = [0] * len(self.nodes)
        self._run(_Lanes(((model,),), (1,)), model.valuation, u, 0, vals, self.base_order)
        return vals

    def overlay_pass(self, model: SubsetModel, u: int, v: int, vals: list[int]) -> None:
        """Fill the nodes that read v, in place over a base pass; like
        base_pass, it is kept for the benchmark's probes and spans.

        Overlay nodes are recomputed wholesale on every call, so reusing
        one array across successive doxastic ranges is safe.
        """
        self._run(_Lanes(((model,),), (1,)), model.valuation, u, v, vals, self.overlay_order)

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
        modality misses (K: of U outside the operand; strong B: of U outside
        cl(int(operand)); ed B: of V outside the operand; ae B: the interior
        of the closure of those), and the modality holds on a lane's whole U
        where that lane misses none: us & (rep * ok), where rep * ok copies
        the lane mask ok = ones & ~fold(missing) into every block.
        """
        ones = lanes.ones
        rep = lanes.rep
        wide = lanes.width > 1  # in one model a failing modality is just empty
        interior = lanes.interior
        closure = lanes.closure
        fold = lanes.fold
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
                elif kind is Semantics.STRONG:
                    missing = 0 if sub == us else us & ~closure(interior(sub))
                elif kind is Semantics.ED:
                    missing = vs & ~sub
                else:
                    rest = vs & ~sub
                    missing = rest and interior(closure(rest))
                if not missing:
                    out = us
                elif wide:
                    out = us & rep * (ones & ~fold(missing))
                else:
                    out = 0
            elif op is Box:
                out = interior(vals[a])
            else:
                out = op(us, vals[a], vals[b])
            vals[i] = out


@dataclass(frozen=True)
class BatchFailure:
    formula: Formula
    model: SubsetModel
    scenario: EDScenario


def sweep_validity(
    engine: BatchEvaluator,
    models: Iterable[SubsetModel],
    scenario_class: ScenarioClass = ScenarioClass.ALL,
    budget: int = DEFAULT_SCENARIO_BUDGET,
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
    yield).  Raises BudgetError on reaching a model whose sweep costs more
    than the budget while some root is still live.
    """
    live = {idx: f for f, idx in engine.roots.items()}
    failures: dict[Formula, BatchFailure] = {}
    if not live:
        return failures
    for runs in _sweep_groups(models, engine.kind, scenario_class, budget):
        group = [model for _, run in runs for model in run]
        for idx, (pos, s) in _group_failures(engine, runs, list(live)).items():
            f = live.pop(idx)
            failures[f] = BatchFailure(f, group[pos], s)
        if not live:
            break
    return failures


def _sweep_groups(
    models: Iterable[SubsetModel], kind: Semantics, cls: ScenarioClass, budget: int, *, grow=False
) -> Iterator[list[tuple[Ranges, list[SubsetModel]]]]:
    """The stream in lane groups, each a list of (ranges, run) in stream order.

    A run is a stretch of consecutive models with one topology (see _runs),
    and ranges are that topology's (U, V) pairs from range_groups, read as
    they are by _chunks, _passes and the failure decoding.  Consecutive
    runs share a group while the lanes _chunks lays it out in, times its
    largest carrier, stay within _MAX_GROUP_BITS: each value holds that
    many bits, one value per compiled node.  With grow, which only
    find_countermodel sets, a group holds at most as many runs as all
    before it, so groups take 1, 1, 2, 4, ... runs: an early hit costs a
    small sweep and a long hunt few groups, while a sweep's first small
    groups would only cost it passes.  Raises BudgetError at the first run
    whose ranges cost more than the budget, once the groups before it are
    yielded.
    """
    group: list[tuple[Ranges, list[SubsetModel]]] = []
    lanes = carrier = size = 0  # the group's lanes, carrier and chunk length
    done = 0  # runs of the groups yielded so far
    if kind is Semantics.STRONG:
        cls = None  # strong ranges: each nonempty open U, no V
    for top, run in _runs(models):
        try:
            ranges = range_groups(top, cls, budget)
        except BudgetError:
            if group:
                yield group
            raise
        if group and (len(group) < done or not grow):
            # the lanes of the grown group: while the chunk length holds, the
            # runs already in keep their chunks; when it shrinks, all are recut
            least = min(size, len(ranges))
            new, grown = ([(ranges, run)], lanes) if least == size else (group + [(ranges, run)], 0)
            _, chunks = _chunks(new, least)
            grown += sum(len(models) * c for (_, models), c in zip(new, chunks))
            if grown * max(carrier, top.n) <= _MAX_GROUP_BITS:
                group.append((ranges, run))
                lanes, carrier, size = grown, max(carrier, top.n), least
                continue
        if group:
            yield group
            done += len(group)
        group = [(ranges, run)]
        lanes, carrier, size = len(run), top.n, len(ranges)
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


def _runs(models: Iterable[SubsetModel]) -> Iterator[tuple[Topology, list[SubsetModel]]]:
    """Consecutive models of one topology, cut where one lane per model
    would pass _MAX_GROUP_BITS (models × carrier)."""
    run: list[SubsetModel] = []
    for model in models:
        if run and (
            (len(run) + 1) * model.n > _MAX_GROUP_BITS or model.topology != run[0].topology
        ):
            yield run[0].topology, run
            run = []
        run.append(model)
    if run:
        yield run[0].topology, run


def _passes(runs: _Group) -> tuple[_Lanes, list[list[int]]]:
    """A lane group's one pass schedule: its _Lanes and each pass's packed
    [U, V], one pass per pair of a chunk, for runs given as (ranges, run)
    in stream order.

    Each model's (U, V) pairs, in canonical order, are cut into chunks as
    long as the group's shortest list (see _chunks), one lane per chunk in
    (model, chunk) order, and pass k runs each chunk's k-th pair; a lane
    whose chunk has run out runs under U = V = 0, where nothing fails.
    """
    size, chunks = _chunks(runs)
    lanes = _Lanes([run for _, run in runs], chunks)
    passes = [[0, 0] for _ in range(size)]
    start = 0
    for (ranges, run), c in zip(runs, chunks):
        every = ((1 << len(run) * c) - 1) // ((1 << c) - 1) << start  # each model's chunk 0
        spread = {o: lanes.replicate(o) * every for o in run[0].topology.opens}
        pairs = iter(ranges)
        for j in range(c):  # j > 0 only for a list longer than the group's shortest
            for packed, (u, v) in zip(passes, pairs):  # the next `size` pairs
                packed[0] |= spread[u] << j if j else spread[u]
                if v:
                    packed[1] |= spread[v] << j if j else spread[v]
        start += len(run) * c
    return lanes, passes


def _values(engine: BatchEvaluator, lanes: _Lanes, passes: Iterable) -> Iterator[list[int]]:
    """Every node's packed values at each pass in turn, in one list that
    the next pass overwrites; the base nodes rerun only when U changes."""
    atoms = lanes.pack(engine.atom_names)
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
    engine: BatchEvaluator, runs: _Group, live: list[int]
) -> dict[int, tuple[int, EDScenario]]:
    """Per live root, the group's first failure in scan order: the lowest
    failing model (its position in the group), the least world missing in
    any of its chunks, then the first of its pairs that misses that world,
    over the passes of _passes as _values evaluates them.  A failure of
    model 0 at world 0 in its first chunk settles a root, since no pair of
    the group comes before it in scan order.
    """
    lanes, passes = _passes(runs)
    chunks = [c for _, c in lanes.runs]
    # the first lane and first model of every run
    starts = list(itertools.accumulate((len(run) * c for run, c in lanes.runs), initial=0))
    firsts = list(itertools.accumulate((len(run) for run, _ in lanes.runs), initial=0))
    found: dict[int, tuple[tuple[int, int, int], int, int]] = {}  # (model, world, pair), end lane, run
    pending = live  # roots not yet settled
    for k, ((us, _), vals) in enumerate(zip(passes, _values(engine, lanes, passes))):
        settled = set()
        for idx in pending:
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
            key = (firsts[r] + m, x, (lane - low) * len(passes) + k)
            if hit is None or key < hit[0]:
                found[idx] = (key, end, r)
                if key[:2] == (0, 0) and lane == 0:
                    settled.add(idx)
        if settled:
            pending = [idx for idx in pending if idx not in settled]
            if not pending:
                break
    return {
        idx: (i, EDScenario(x, *runs[r][0][p]))
        for idx, ((i, x, p), _, r) in found.items()
    }
