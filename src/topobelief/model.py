"""Subset and relational models, scenarios, documents, and generation.

range_groups is the one definition of the scenarios a sweep visits and of
their cost: the (U, V) pairs of a topology, with V None under strong
semantics, charged against a budget before any is built.  Every sweep
reads its ranges from it, in one scan order (x ascending, then U, then V
in canonical order), the one _stream_position counts.

A model document, "subset" (opens) or "relational" (pairs), is a UTF-8
JSON object; `dump` produces the bit-exact canonical form (_json's
layout, canonical opens), so load then dump is the identity.
The model streams live here too: exhaustive_models, the labeled one, and
_isomorph_free_models, the runs of valuations which the search and every
batch's swept stream read; and _contraction_size, by which a batch leaves
out models swept earlier and the search counts, without sweeping, the
draws its exhaustive phase has swept.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .formula import ATOM_RE, Formula
from .record import Record
from .topology import (
    MAX_WORLDS,
    Topology,
    TopologyError,
    _classes,
    bits,
    enumerate_topologies,
    full_mask,
    generate_from_subbasis,
    mask_of,
)


class ModelError(Exception):
    pass


class RelationalError(Exception):
    pass


class BudgetError(Exception):
    """Raised when a scenario sweep would exceed its enumeration budget."""


DEFAULT_SCENARIO_BUDGET = 10**6


class SubsetModel(Record):
    """A finite topological space plus a valuation atom -> subset mask."""

    __slots__ = _fields = ("topology", "valuation")
    topology: Topology
    valuation: Mapping[str, int]

    def __init__(self, topology: Topology, valuation: Mapping[str, int]):
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "valuation", _valuation(valuation, topology.n, ModelError))

    @property
    def n(self) -> int:
        return self.topology.n


class RelationalModel(Record):
    """Worlds 0..n-1, a binary relation, and a valuation atom -> mask.

    The successor table and the extension memo are derived, and neither
    shown nor compared."""

    __slots__ = ("n", "rel", "valuation", "succ", "_extensions")
    _fields = ("n", "rel", "valuation")
    n: int
    rel: frozenset[tuple[int, int]]
    valuation: Mapping[str, int]
    succ: tuple[int, ...]  # x -> R(x) mask
    # formula -> extension mask, filled by relational.relational_extension
    _extensions: dict[Formula, int]

    # the default valuation is only read, into the model's own copy
    def __init__(self, n: int, rel: frozenset[tuple[int, int]], valuation: Mapping[str, int] = {}):
        if not 1 <= n <= MAX_WORLDS:
            raise RelationalError(f"world count {n} outside 1..{MAX_WORLDS}")
        succ = [0] * n
        for x, y in rel:
            if not (0 <= x < n and 0 <= y < n):
                raise RelationalError(f"pair ({x},{y}) out of range")
            succ[x] |= 1 << y
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "valuation", _valuation(valuation, n, RelationalError))
        object.__setattr__(self, "_extensions", {})


class _FrozenValuation(dict):
    """A model's checked valuation: a dict that refuses change, so a model is
    frozen in fact and hashable, and that pickles as a plain dict."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a model's valuation is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _FrozenValuation, (dict(self),)


def _valuation(valuation: Mapping[str, int], n: int, error: type[Exception]) -> _FrozenValuation:
    """The valuation check of both model kinds: atom names, then mask ranges."""
    full = full_mask(n)
    for atom, subset in valuation.items():
        if not ATOM_RE.match(atom):
            raise error(f"bad atom name {atom!r}")
        if subset < 0 or subset & ~full:
            raise error(f"valuation of {atom!r} out of carrier range")
    return _FrozenValuation(valuation)


class EDScenario(Record):
    """Evaluation point: world x, epistemic range u, optional doxastic range v.

    v is absent for plain epistemic scenarios.  When present it must be an
    open subset of u; it need not contain x (beliefs may be false) and it
    may be empty (the general case; belief then holds vacuously).
    """

    __slots__ = _fields = ("x", "u", "v")
    x: int
    u: int
    v: int | None

    def __init__(self, x: int, u: int, v: int | None = None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def literal(self) -> str:
        out = f"x={self.x};U=" + ",".join(str(i) for i in bits(self.u))
        if self.v is not None:
            out += ";V=" + ",".join(str(i) for i in bits(self.v))
        return out


def parse_scenario(text: str) -> EDScenario:
    """Parse the CLI literal "x=<world>;U=<comma-list>[;V=<comma-list>]"."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        if "=" not in part:
            raise ModelError(f"bad scenario field {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ModelError(f"scenario field {key!r} given twice in {text!r}")
        fields[key] = value.strip()
    unknown = set(fields) - {"x", "U", "V"}
    if unknown or "x" not in fields or "U" not in fields:
        raise ModelError(f"scenario literal needs x and U (got {sorted(fields)})")

    def world(token: str) -> int:
        digits = token.strip()
        if not (digits.isascii() and digits.isdigit()):  # int() also reads 1_0, +0, Unicode digits
            raise ModelError(f"bad world index {token!r} in scenario {text!r}")
        value = int(digits)
        if not 0 <= value < MAX_WORLDS:
            raise ModelError(f"world index {value} outside 0..{MAX_WORLDS - 1}")
        return value

    def int_list(value: str) -> int:
        if not value:
            return 0
        return mask_of(world(tok) for tok in value.split(","))

    x = world(fields["x"])
    u = int_list(fields["U"])
    v = int_list(fields["V"]) if "V" in fields else None
    return EDScenario(x, u, v)


def check_scenario(model: SubsetModel, s: EDScenario, need_v: bool | None = None) -> None:
    """Validate a scenario against a model; raises ModelError on violation."""
    top = model.topology
    if not 0 <= s.x < top.n:
        raise ModelError(f"world {s.x} out of range")
    _check_range(top.n, s.u, "epistemic", ModelError)
    if not top.is_open(s.u):
        raise ModelError("epistemic range is not open")
    if not s.u >> s.x & 1:
        raise ModelError("world not inside its epistemic range")
    if s.v is not None:
        _check_range(top.n, s.v, "doxastic", ModelError)
        if not top.is_open(s.v):
            raise ModelError("doxastic range is not open")
        if s.v & ~s.u:
            raise ModelError("doxastic range not contained in epistemic range")
    if need_v is True and s.v is None:
        raise ModelError("scenario needs a doxastic range for this semantics")
    if need_v is False and s.v is not None:
        raise ModelError("scenario must not carry a doxastic range for this semantics")


def _check_range(n: int, mask: int, kind: str, error: type[Exception]) -> None:
    """Raise error naming a scenario range's least world past the carrier."""
    if stray := mask & ~full_mask(n):  # a negative mask holds every world past it
        world = (stray & -stray).bit_length() - 1
        raise error(f"{kind} range: world {world} out of range 0..{n - 1}")


class ScenarioClass(Enum):
    """Admissible doxastic ranges: ALL admits empty v, CONSISTENT requires
    v nonempty, DENSE requires u inside cl(v), TOTAL forces v = u (see
    range_groups)."""

    ALL = "all"
    CONSISTENT = "consistent"
    DENSE = "dense"
    TOTAL = "total"


Ranges = tuple[tuple[int, int | None], ...]  # (U, V) pairs in canonical order


def range_groups(
    top: Topology,
    cls: ScenarioClass | None,
    budget: int = DEFAULT_SCENARIO_BUDGET,
    *,
    above: int = 0,
    inside: int | None = None,
) -> Ranges:
    """The (U, V) pairs a sweep of the topology visits, in canonical order:
    U by U, so the pairs of one U are adjacent.

    cls None is strong semantics: each nonempty open U with V None, at a
    cost of |opens| × worlds.  Under a class, each nonempty open U with the
    open V inside it that the class admits, at |opens|² × worlds.  Raises
    BudgetError when the cost exceeds the budget.  The name dates from
    pairs grouped by U; it stays, as the benchmark's spans trace it.

    Two reductions leave out pairs a sweep need not visit (the sweeps that
    take them say why: semantics.sweep_validity and find_countermodel).
    With above = k, a U other than the carrier is kept only if it has more
    than k worlds; with inside a mask, a V is kept only if it lies inside
    it (under strong there is no V, and inside is not read).  The budget
    is charged for the full list all the same.
    """
    cost = _worst_case_cost(top, cls)
    if cost > budget:
        raise BudgetError(
            f"scenario sweep cost {cost} exceeds budget {budget}"
            f" ({len(top.opens)} opens on {top.n} worlds)"
        )
    us = [u for u in top.opens if u]
    if above:
        full = top.full
        us = [u for u in us if u == full or u.bit_count() > above]
    if cls is None:
        return tuple((u, None) for u in us)
    vs = top.opens if inside is None else [v for v in top.opens if v & ~inside == 0]
    out = []
    for u in us:
        out += [(u, v) for v in _admitted(top, cls, u, vs)]
    return tuple(out)


def _worst_case_cost(top: Topology, cls: ScenarioClass | None) -> int:
    """The cost a sweep of the topology is charged, whatever pairs it
    keeps: |opens| × worlds under strong (cls None), |opens|² × worlds
    under a class.  range_groups raises BudgetError on it,
    find_countermodel skips a random draw on it before ranging any
    (semantics._draw_swept), and suites._contracted keeps a model whose
    cost under a class passes the default budget."""
    return len(top.opens) ** (1 if cls is None else 2) * top.n


def _admitted(top: Topology, cls: ScenarioClass, u: int, vs: Sequence[int]) -> list[int]:
    """The opens of vs, in their order, that the class admits as V with
    the open U = u: those inside u, and of them the nonempty ones
    (consistent), those whose closure holds u (dense) or u alone (total).
    Every class admits V = U."""
    admitted = [v for v in vs if v & ~u == 0]
    if cls is ScenarioClass.CONSISTENT:
        admitted = [v for v in admitted if v]
    elif cls is ScenarioClass.DENSE:  # V open: U in cl V iff U ∩ Max in V
        admitted = [v for v in admitted if u & top.maximal & ~v == 0]
    elif cls is ScenarioClass.TOTAL:
        admitted = [v for v in admitted if v == u]
    return admitted


def _range_cost(top: Topology, cls: ScenarioClass | None) -> int:
    """The scenarios of range_groups(top, cls), the full list, counted
    without building it: under strong the sum of |U| over the nonempty
    opens, under a class |U| times the V it admits, summed per U.  It is
    the search's one count of a model's scenarios, exhaustive or drawn
    (see find_countermodel)."""
    opens = top.opens
    us = [u for u in opens if u]
    if cls is None:
        return sum(u.bit_count() for u in us)
    return sum(u.bit_count() * len(_admitted(top, cls, u, opens)) for u in us)


def range_pairs(
    top: Topology, cls: ScenarioClass | None, budget: int = DEFAULT_SCENARIO_BUDGET
) -> list[tuple[int, int | None]]:
    """The (U, V) pairs of range_groups, as a list."""
    return list(range_groups(top, cls, budget))


def _stream_position(ranges: Ranges, s: EDScenario) -> int:
    """1-based position of s in its model's scan order, given its ranges."""
    lower = sum((u & ((1 << s.x) - 1)).bit_count() for u, _ in ranges)
    return lower + [p for p in ranges if p[0] >> s.x & 1].index((s.u, s.v)) + 1


# ---------------------------------------------------------------------------
# model documents


def dump(model) -> str:
    """Canonical JSON document for a subset or relational model."""
    return _json(_document(model))


_ascii = json.encoder.encode_basestring_ascii  # the C escaper, when built
_LEAF = {str: _ascii, int: int.__repr__}  # a list of one of these is one join
_SCALARS = frozenset((str, int, float, bool, type(None)))
_chain = itertools.chain.from_iterable
_C_INDENT = sys.version_info >= (3, 13)  # json's C encoder writes indent


def _json(payload) -> str:
    """The canonical JSON text of every document, report and CLI payload:
    byte for byte json.dumps(payload, sort_keys=True, indent=2) + "\n".
    Object keys are sorted; each member or element has a line of its own,
    indented two spaces per level, with "," ending every line but the
    container's last and ": " after a key; an empty container is {} or
    []; strings escape every non-ASCII character; one newline ends it.

    Before 3.13, json.dumps runs its C encoder only when indent is None
    and writes indented text through nested pure-Python generators.  So
    on 3.10-3.12 this walks an explicit stack of open containers and
    appends each piece once to one list: a string through the C escaper,
    an int through int.__repr__, a list of only strings or only ints as
    one join, a list of nonempty objects of scalars (a report's results)
    as one call of the C encoder, true, false and null as literals, and
    any other value (a float, or a type JSON lacks) through json.dumps, so
    its text or TypeError is the stdlib's.  Types are tested in the
    stdlib's order, bool before int, and a cycle raises its ValueError.
    From 3.13 json.dumps writes indent in C, faster than this, and this
    calls it; the writer goes once requires-python reaches 3.13.
    """
    if _C_INDENT:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out: list[str] = []
    append = out.append
    # a frame per open container: the container, its (key, value) pairs or
    # elements still to write, the newline and indent of its lines, the
    # separator between two of them and the text that closes it
    stack = [(None, iter((payload,)), "\n", "", "\n")]
    sep = ""
    while stack:
        container, items, newline, comma, close = stack[-1]
        keyed = isinstance(container, dict)
        for value in items:
            append(sep)
            sep = comma
            if keyed:
                key, value = value
                # a key that is no string is written as json.dumps quotes it
                append(_ascii(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4])
                append(": ")
            if isinstance(value, str):
                append(_ascii(value))
            elif value is None:
                append("null")
            elif value is True:
                append("true")
            elif value is False:
                append("false")
            elif isinstance(value, int):
                append(int.__repr__(value))
            elif not isinstance(value, (list, tuple, dict)):
                append(json.dumps(value))
            elif not value:
                append("{}" if isinstance(value, dict) else "[]")
            else:
                # a cycle grows the stack without end: look for one once it is deep
                if len(stack) > 32 and any(value is frame[0] for frame in stack):
                    raise ValueError("Circular reference detected")
                pad = newline + "  "
                if isinstance(value, dict):
                    append("{")
                    frame = (value, iter(sorted(value.items())), pad, "," + pad, newline + "}")
                else:
                    kinds = set(map(type, value))
                    kind = kinds.pop() if len(kinds) == 1 else None
                    if kind in _LEAF:
                        append("[" + pad + ("," + pad).join(map(_LEAF[kind], value)) + newline + "]")
                        continue
                    objects = kind is dict and all(value)
                    if objects and _SCALARS.issuperset(map(type, _chain(map(dict.values, value)))):
                        # json's C encoder writes these objects in one call, with
                        # their members' line break as its separator; "}" that
                        # separator "{" then occurs only between two objects, as
                        # no escaped string holds a newline
                        inner = pad + "  "
                        encoder = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))
                        text = encoder.encode(value)[2:-2]
                        text = text.replace("}," + inner + "{", pad + "}," + pad + "{" + inner)
                        append("[" + pad + "{" + inner + text + pad + "}" + newline + "]")
                        continue
                    append("[")
                    frame = (value, iter(value), pad, "," + pad, newline + "]")
                sep = pad
                stack.append(frame)
                break
        else:
            append(close)
            stack.pop()
            sep = stack[-1][3] if stack else ""
    return "".join(out)


def _document(model) -> dict:
    if isinstance(model, SubsetModel):
        doc = {"type": "subset", "opens": [bits(o) for o in model.topology.opens]}
    elif isinstance(model, RelationalModel):
        doc = {"type": "relational", "rel": [list(pair) for pair in sorted(model.rel)]}
    else:
        raise ModelError(f"cannot dump {type(model).__name__}")
    doc["worlds"] = model.n
    doc["valuation"] = {atom: bits(mask) for atom, mask in sorted(model.valuation.items())}
    return doc


def load(text: str):
    """Parse and validate a model document.

    Returns a SubsetModel (type "subset", from explicit opens or from a
    subbasis) or a RelationalModel (type "relational").
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelError(f"bad model document: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")

    kind = doc.get("type")
    n = doc.get("worlds")
    if type(n) is not int or not 1 <= n <= MAX_WORLDS:  # bool is an int subclass
        raise ModelError(f"worlds must be an integer in 1..{MAX_WORLDS}")

    valuation = {}
    raw_val = doc.get("valuation", {})
    if not isinstance(raw_val, dict):
        raise ModelError("valuation must be an object")
    for atom, indices in raw_val.items():
        valuation[atom] = _mask_field(n, indices, f"valuation of {atom!r}")

    if kind == "subset":
        if "opens" in doc and "subbasis" in doc:
            raise ModelError("give opens or subbasis, not both")
        if "opens" in doc:
            opens = [_mask_field(n, o, "open") for o in _list_field(doc, "opens")]
            try:
                topology = Topology.from_opens(n, opens)
            except TopologyError as exc:
                raise ModelError(str(exc)) from None
        elif "subbasis" in doc:
            subbasis = [_mask_field(n, s, "subbasis member") for s in _list_field(doc, "subbasis")]
            topology = generate_from_subbasis(n, subbasis)
        else:
            raise ModelError("subset model needs opens or subbasis")
        return SubsetModel(topology, valuation)

    if kind == "relational":
        raw_rel = _list_field(doc, "rel")
        rel = set()
        for pair in raw_rel:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(w) is int and 0 <= w < n for w in pair)
            ):
                raise ModelError(f"bad relation pair {pair!r}")
            rel.add((pair[0], pair[1]))
        return RelationalModel(n, frozenset(rel), valuation)

    raise ModelError(f"unknown model type {kind!r}")


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise ModelError(f"{key} must be a list")
    return value


def _mask_field(n: int, indices, what: str) -> int:
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):
        raise ModelError(f"{what} must be a list of world indices")
    for i in indices:
        if not 0 <= i < n:
            raise ModelError(f"{what}: world {i} out of range 0..{n - 1}")
    return mask_of(indices)


# ---------------------------------------------------------------------------
# exhaustive and random generation

ATOM_NAMES = ("p", "q", "r", "s")

SUBBASIS_TRIALS_PER_WORLD = 3  # bounded coin flips in random_model
SUBBASIS_DENSITY = 0.3  # the chance that each flip adds its subset to the subbasis


def atom_names(count: int) -> tuple[str, ...]:
    names = list(ATOM_NAMES[:count])
    names += [f"a{i}" for i in range(len(names), count)]
    return tuple(names)


def exhaustive_models(max_n: int, atoms: Sequence[str]) -> Iterator[SubsetModel]:
    """Every valuation of the atoms on every topology of 1..max_n points:
    topologies in enumeration order, each with its valuations in product
    order, so each topology's models are one consecutive run."""
    for n in range(1, max_n + 1):
        for top in enumerate_topologies(n):
            for masks in itertools.product(range(1 << n), repeat=len(atoms)):
                yield SubsetModel(top, dict(zip(atoms, masks)))


def _isomorph_free_models(
    max_n: int,
    names: Sequence[str],
    cls: ScenarioClass | None,
    starts: dict[Topology, tuple[int, int]],
) -> Iterator[tuple[Topology, Iterator[tuple[int, ...]]]]:
    """The first labeled member of each isomorphism class of
    exhaustive_models(max_n, names), in the same order, as runs: each
    class's first topology with its kept valuations, each the masks of
    names in order, in product order.  No model is built here, and each
    run's valuations are generated as they are read (_orbit_least).
    starts gets, for each topology that has models here, the labeled
    scenarios before its first one and the cost of each of its models
    under cls, the scenarios of its full pair list counted by _range_cost:
    no pair list is built here.  Its readers: find_countermodel's
    exhaustive phase, which reads starts and builds a model only for its
    hit, and Batch, which builds only the models its keep rule keeps.

    Two models are isomorphic when a relabeling of the worlds carries one's
    opens and valuation onto the other's, atom names kept.  Such a
    relabeling is a homeomorphism that carries the valuation along, so it
    preserves truth at corresponding scenarios, and every class (all,
    consistent, dense, total) is topological, so it maps one model's
    scenarios of the class onto the other's at the same cost.  The first
    labeled member of a class comes before every other member, fails every
    root they fail and costs what they cost, so a later member is never a
    root's first failure and never the first model over a budget: a sweep
    of this stream finds the failures and the BudgetError of the labeled
    one.

    Every topology of a homeomorphism class carries a copy of each model
    on another, so a model's first labeled copy lies on the first topology
    of its class.  There it is the least, in product order of names as
    given, of its valuation's images under the automorphisms, its
    stabilizer, which the class table gives (_classes: one orbit walk per
    class, when its first member appears).  So every other member is
    skipped before any of its valuations is generated, and is charged
    2^(n·atoms) times its class's cost, the same on every topology of the
    class.
    """
    start = 0
    for n in range(1, max_n + 1):
        costs: dict[int, int] = {}  # per class, by its first member's position
        for i, (top, first, automorphisms) in enumerate(_classes(n)):
            if i == first:
                costs[i] = _range_cost(top, cls)
                starts[top] = (start, costs[i])
                yield top, _orbit_least(automorphisms, n, len(names))
            start += costs[first] << n * len(names)


def _orbit_least(
    automorphisms: Sequence[Sequence[int]], n: int, count: int
) -> Iterator[tuple[int, ...]]:
    """Each tuple of count masks on n worlds that is the least, in product
    order, of its images under the automorphisms (each the image of every
    mask), in product order.

    Read down a stabilizer chain (Sims, "Computational methods in the
    study of permutation groups", 1970): a tuple is least exactly when its
    first mask is least under the group and the rest is least under that
    mask's stabilizer, since an automorphism that moves the first mask up
    carries the whole tuple above it.  So the walk pops frames off one
    stack, each a prefix and the automorphisms fixing it: with none left,
    or a whole tuple, it yields every tuple of the rest; one mask short,
    the prefix with each least mask (_orbit_minima); else it pushes a
    frame per least mask, with its stabilizer, the least on top.  At most
    count · 2^n frames wait; no tuple is tested, and nothing generated is kept.
    """
    size = 1 << n
    stack = [((), automorphisms)]
    while stack:
        prefix, group = stack.pop()
        if not group or len(prefix) == count:  # every tuple of the rest is kept
            for rest in itertools.product(range(size), repeat=count - len(prefix)):
                yield prefix + rest
        elif len(prefix) == count - 1:  # the last mask closes each tuple
            for m in _orbit_minima(group, size):
                yield (*prefix, m)
        else:
            for m in reversed(list(_orbit_minima(group, size))):
                stack.append(((*prefix, m), [aut for aut in group if aut[m] == m]))


def _orbit_minima(automorphisms: Sequence[Sequence[int]], size: int) -> Iterator[int]:
    """The masks below size that are least in their orbits under the
    automorphisms, ascending: a mask is yielded when no lesser one has
    marked it as an image."""
    marked = bytearray(size)
    for m in range(size):
        if not marked[m]:
            yield m
            for aut in automorphisms:
                marked[aut[m]] = 1


def _contraction_size(top: Topology, masks: Iterable[int], limit: int) -> int:
    """The worlds of the bisimulation contraction of the model of top with
    the given valuation masks, or, once that count is known to pass limit,
    a count past limit.  It reads the topology's table and the masks, so
    it decides before any model is built.

    The contraction is the quotient by the largest bisimulation of the
    specialization preorder (x sees the y in mnb(x)) that respects every
    atom's mask.  The worlds start as one block, split by each atom's mask
    into valuation types; then each round splits every block by each
    block's closure (the worlds whose mnb meets it), until a round splits
    nothing, and the blocks are the bisimulation's classes.  Blocks only
    split, so the count stops early at n (the model is its own
    contraction) or past limit: as many types as worlds, or more types
    than limit, decide before any round.

    Its readers: suites._contracted, Batch's keep rule, with limit
    exhaustive_n; and find_countermodel's random phase, with limit k =
    min(max_n, ENUMERATION_MAX), which counts, without sweeping it, a
    draw whose count is at most k.
    """
    mnb = top.min_neighborhoods
    n = len(mnb)
    blocks = [full_mask(n)]
    splitters = masks
    count = 0
    while count < len(blocks):
        count = len(blocks)
        for mask in splitters:
            split = []  # a loop, not a comprehension: this runs per model of a batch
            for c in blocks:
                if c & mask:
                    split.append(c & mask)
                if c & ~mask:
                    split.append(c & ~mask)
            blocks = split
        if len(blocks) == n or len(blocks) > limit:
            break
        splitters = []
        for c in blocks:
            seen = 0
            for x, nb in enumerate(mnb):
                if nb & c:
                    seen |= 1 << x
            splitters.append(seen)
    return len(blocks)


def random_model(seed: int, n: int, atoms: int = 2) -> SubsetModel:
    """Deterministic random model: seeded subbasis draw plus uniform valuation.

    Each of a bounded number of uniformly random subsets joins the subbasis
    with probability SUBBASIS_DENSITY; the topology it generates always
    verifies.
    """
    if not 1 <= n <= MAX_WORLDS:
        raise ModelError(f"size {n} outside 1..{MAX_WORLDS}")
    if atoms < 0:
        raise ModelError(f"atom count {atoms} is negative")
    rng = random.Random(seed)
    subbasis = []
    for _ in range(SUBBASIS_TRIALS_PER_WORLD * n):
        candidate = rng.randrange(1 << n)
        if rng.random() < SUBBASIS_DENSITY:
            subbasis.append(candidate)
    topology = generate_from_subbasis(n, subbasis)
    valuation = {name: rng.getrandbits(n) for name in atom_names(atoms)}
    return SubsetModel(topology, valuation)
