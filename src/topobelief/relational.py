"""Algorithms over relational frames for the pure belief fragment.

The frame type, RelationalModel, lives in model.py; its successor table
(one mask per world) is derived once, when it is built, and every
algorithm here reads it.  A belief frame (serial + transitive +
Euclidean) decomposes into disjoint brushes: the classes of equal
successor sets, each relating totally onto its nonempty final cluster of
reflexive points.  A transitive frame's reflexive successor sets are the
minimal neighborhoods of a topology that interprets the same belief
formulas at scenarios (x, cell-of-x) under strong semantics.  Relational
evaluation reads formula.CONNECTIVES, and B off the table (mnb_interior).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import formula as fm
from .formula import Formula
from .model import EDScenario, RelationalError, RelationalModel, SubsetModel, atom_names
from .semantics import Evaluator, Semantics
from .topology import Topology, _is_transitive, bits, format_mask, full_mask, mnb_interior


@dataclass(frozen=True)
class FrameProperties:
    serial: bool
    transitive: bool
    euclidean: bool
    belief_frame: bool
    brush: bool
    final_cluster: int | None  # mask, when the frame is a brush
    pin: bool


def classify(m: RelationalModel) -> FrameProperties:
    """Direct quantifier checks for the frame conditions."""
    succ = m.succ
    serial = all(succ)
    transitive = _is_transitive(succ)
    euclidean = all(not s & ~succ[y] for s in succ for y in bits(s))
    belief = serial and transitive and euclidean
    cluster = succ[0]
    brush = cluster != 0 and all(s == cluster for s in succ)
    pin = brush and m.n - cluster.bit_count() == 1
    return FrameProperties(
        serial, transitive, euclidean, belief, brush, cluster if brush else None, pin
    )


@dataclass(frozen=True)
class BrushComponent:
    cell: int  # mask of the ~-equivalence class
    final_cluster: int  # mask of its reflexive points

    def __str__(self) -> str:
        return f"cell={format_mask(self.cell)} cluster={format_mask(self.final_cluster)}"


@dataclass(frozen=True)
class BrushDecomposition:
    components: tuple[BrushComponent, ...]

    def cell_of(self, x: int) -> int:
        for comp in self.components:
            if comp.cell >> x & 1:
                return comp.cell
        raise RelationalError(f"world {x} not covered")

    def reconstruct(self) -> frozenset[tuple[int, int]]:
        rel = set()
        for comp in self.components:
            for x in bits(comp.cell):
                for y in bits(comp.final_cluster):
                    rel.add((x, y))
        return frozenset(rel)


def decompose(m: RelationalModel) -> BrushDecomposition:
    """Split a belief frame into brush components.

    The cells are the classes of x ~ y iff some z has xRz and yRz, and in a
    belief frame that forces R(x) = R(y) (for w in R(x), Euclideanness gives
    zRw, transitivity yRw).  So each cell is a class of equal successor sets
    and its final cluster, its reflexive points, is that common set.
    Components are reported sorted by least world.
    """
    if not classify(m).belief_frame:
        raise RelationalError("not a belief frame (needs serial, transitive, Euclidean)")
    cells: dict[int, int] = {}  # successor set -> cell, in least-world order
    for x, s in enumerate(m.succ):
        cells[s] = cells.get(s, 0) | 1 << x
    return BrushDecomposition(tuple(BrushComponent(c, s) for s, c in cells.items()))


def to_subset_model(m: RelationalModel) -> SubsetModel:
    """The topology whose minimal neighborhoods are the reflexive successor sets.

    Needs a transitive R: then S(x) = R(x) | {x} holds x, and x in S(y)
    gives S(x) within S(y), so S is a preorder's table (and S(x) is the
    AND of the members of {S(y)} that hold x, as a subbasis would give).
    """
    if not _is_transitive(m.succ):
        raise RelationalError("frame-to-topology construction needs a transitive relation")
    topology = Topology(m.n, tuple(s | 1 << x for x, s in enumerate(m.succ)))
    return SubsetModel(topology, m.valuation)


def eval_relational(m: RelationalModel, x: int, f: Formula) -> bool:
    """Standard Kripke evaluation of a pure-belief formula at world x."""
    if not 0 <= x < m.n:
        raise RelationalError(f"world {x} out of range")
    return bool(relational_extension(m, f) >> x & 1)


def relational_extension(m: RelationalModel, f: Formula) -> int:
    """The worlds where f holds, bottom-up: B g holds where every successor satisfies g."""
    succ, full = m.succ, full_mask(m.n)

    def walk(g: Formula) -> int:
        cls = type(g)
        if cls is fm.Atom:
            return m.valuation.get(g.name, 0)
        if cls is fm.Bel:
            return mnb_interior(succ, walk(g.sub))
        c = fm.CONNECTIVES.get(cls)
        if c is None or c.truth is None:
            bad = sorted(fm.modalities(f) - {"B"})
            found = f"relational evaluation is for the B fragment only (found {bad})"
            raise RelationalError(found if bad else f"cannot evaluate node {g!r}")
        a, b, *_ = [walk(h) for h in fm._children(g)] + [0, 0]
        return c.truth(full, a, b)

    return walk(f)


def check_modal_equivalence(m: RelationalModel, f: Formula) -> int | None:
    """Relational truth vs strong-semantics truth at (x, cell-of-x).

    Returns None when every world agrees, otherwise the first world where
    the two sides differ.
    """
    if not classify(m).belief_frame:
        raise RelationalError("bridge check needs a belief frame")
    dec = decompose(m)
    relational = relational_extension(m, f)
    ev = Evaluator(to_subset_model(m), Semantics.STRONG)
    differs = (x for x in range(m.n) if (relational ^ ev.extension(f, dec.cell_of(x))) >> x & 1)
    return next(differs, None)


def random_belief_frame(seed: int, n: int, atoms: int = 2) -> RelationalModel:
    """Seeded belief frame built directly from its brush decomposition.

    Draw a partition of the worlds into cells, a nonempty final cluster
    inside each, and set R = union of cell x cluster; this reaches exactly
    the belief frames, with no rejection sampling.
    """
    if n < 1:
        raise RelationalError("need at least one world")
    rng = random.Random(seed)
    cells: list[list[int]] = []
    for w in range(n):
        k = rng.randrange(len(cells) + 1)
        if k == len(cells):
            cells.append([w])
        else:
            cells[k].append(w)
    rel = set()
    for cell in cells:
        cluster = rng.sample(cell, rng.randrange(1, len(cell) + 1))
        for x in cell:
            for y in cluster:
                rel.add((x, y))
    valuation = {name: rng.getrandbits(n) for name in atom_names(atoms)}
    return RelationalModel(n, frozenset(rel), valuation)


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


def cell_scenario(m: RelationalModel, x: int) -> EDScenario:
    """The strong-semantics scenario matching relational evaluation at x."""
    return EDScenario(x, decompose(m).cell_of(x))

