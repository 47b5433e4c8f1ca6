"""Subset and relational models, scenarios, documents, and generation.

range_groups is the one definition of the scenarios a sweep visits and of
their cost: the (U, V) pairs of a topology, with V None under strong
semantics, charged against a budget before any is built.  Every sweep
reads its ranges from it, and the scan order (x ascending, then U, then V
in canonical order) is defined once, by _scenarios, beside it.

A model document, "subset" (opens) or "relational" (pairs), is a UTF-8
JSON object; `dump` produces the bit-exact canonical form (sorted keys,
two-space indent, canonical opens), so load then dump is the identity.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .formula import ATOM_RE
from .topology import (
    MAX_WORLDS,
    Topology,
    TopologyError,
    bits,
    enumerate_topologies,
    full_mask,
    generate_from_subbasis,
    mask_of,
    mnb_closure,
)


class ModelError(Exception):
    pass


class RelationalError(Exception):
    pass


class BudgetError(Exception):
    """Raised when a scenario sweep would exceed its enumeration budget."""


DEFAULT_SCENARIO_BUDGET = 10**6


@dataclass(frozen=True)
class SubsetModel:
    """A finite topological space plus a valuation atom -> subset mask."""

    topology: Topology
    valuation: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "valuation", _valuation(self.valuation, self.n, ModelError))

    @property
    def n(self) -> int:
        return self.topology.n


@dataclass(frozen=True)
class RelationalModel:
    """Worlds 0..n-1, a binary relation, and a valuation atom -> mask."""

    n: int
    rel: frozenset[tuple[int, int]]
    valuation: Mapping[str, int] = field(default_factory=dict)
    succ: tuple[int, ...] = field(init=False, repr=False, compare=False)  # x -> R(x) mask

    def __post_init__(self):
        if not 1 <= self.n <= MAX_WORLDS:
            raise RelationalError(f"world count {self.n} outside 1..{MAX_WORLDS}")
        succ = [0] * self.n
        for x, y in self.rel:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise RelationalError(f"pair ({x},{y}) out of range")
            succ[x] |= 1 << y
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "valuation", _valuation(self.valuation, self.n, RelationalError))


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


@dataclass(frozen=True)
class EDScenario:
    """Evaluation point: world x, epistemic range u, optional doxastic range v.

    v is absent for plain epistemic scenarios.  When present it must be an
    open subset of u; it need not contain x (beliefs may be false) and it
    may be empty (the general case; belief then holds vacuously).
    """

    x: int
    u: int
    v: int | None = None

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
        try:
            value = int(token)
        except ValueError:
            raise ModelError(f"bad world index {token!r} in scenario {text!r}") from None
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
    if not top.is_open(s.u):
        raise ModelError("epistemic range is not open")
    if not s.u >> s.x & 1:
        raise ModelError("world not inside its epistemic range")
    if s.v is not None:
        if not top.is_open(s.v):
            raise ModelError("doxastic range is not open")
        if s.v & ~s.u:
            raise ModelError("doxastic range not contained in epistemic range")
    if need_v is True and s.v is None:
        raise ModelError("scenario needs a doxastic range for this semantics")
    if need_v is False and s.v is not None:
        raise ModelError("scenario must not carry a doxastic range for this semantics")


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
    top: Topology, cls: ScenarioClass | None, budget: int = DEFAULT_SCENARIO_BUDGET
) -> Ranges:
    """The (U, V) pairs a sweep of the topology visits, in canonical order:
    U by U, so the pairs of one U are adjacent.

    cls None is strong semantics: each nonempty open U with V None, at a
    cost of |opens| × worlds.  Under a class, each nonempty open U with the
    open V inside it that the class admits, at |opens|² × worlds.  Raises
    BudgetError when the cost exceeds the budget.  The name dates from
    pairs grouped by U; it stays, as the benchmark's spans trace it.
    """
    cost = len(top.opens) ** (1 if cls is None else 2) * top.n
    if cost > budget:
        raise BudgetError(
            f"scenario sweep cost {cost} exceeds budget {budget}"
            f" ({len(top.opens)} opens on {top.n} worlds)"
        )
    if cls is None:
        return tuple((u, None) for u in top.opens if u)
    if cls is ScenarioClass.DENSE:  # each open's closure, once per topology
        closure = {v: mnb_closure(top.min_neighborhoods, v) for v in top.opens}
    out = []
    for u in top.opens:
        if u == 0:
            continue
        inside = [v for v in top.opens if v & ~u == 0]
        if cls is ScenarioClass.CONSISTENT:
            inside = [v for v in inside if v]
        elif cls is ScenarioClass.DENSE:
            inside = [v for v in inside if u & ~closure[v] == 0]
        elif cls is ScenarioClass.TOTAL:
            inside = [u]
        out.extend((u, v) for v in inside)  # every class admits V = U
    return tuple(out)


def range_pairs(
    top: Topology, cls: ScenarioClass | None, budget: int = DEFAULT_SCENARIO_BUDGET
) -> list[tuple[int, int | None]]:
    """The (U, V) pairs of range_groups, as a list."""
    return list(range_groups(top, cls, budget))


def epistemic_scenarios(
    model: SubsetModel, budget: int = DEFAULT_SCENARIO_BUDGET
) -> Iterator[EDScenario]:
    """All (x, U) with x in U open, in scan order (see _scenarios)."""
    return _scenarios(model, None, budget)


def ed_scenarios(
    model: SubsetModel,
    cls: ScenarioClass = ScenarioClass.ALL,
    budget: int = DEFAULT_SCENARIO_BUDGET,
) -> Iterator[EDScenario]:
    """All (x, U, V) of the class, in scan order (see _scenarios)."""
    return _scenarios(model, cls, budget)


def _scenarios(model: SubsetModel, cls: ScenarioClass | None, budget: int) -> Iterator[EDScenario]:
    """The scan order of a model's scenarios: x ascending, then each (U, V)
    of range_groups whose U holds x, in canonical order."""
    top = model.topology
    pairs = range_pairs(top, cls, budget)
    for x in range(top.n):
        bit = 1 << x
        for u, v in pairs:
            if u & bit:
                yield EDScenario(x, u, v)


def _stream_position(ranges: Ranges, s: EDScenario) -> int:
    """1-based position of s in its model's scan order, given its ranges."""
    lower = sum((u & ((1 << s.x) - 1)).bit_count() for u, _ in ranges)
    return lower + [p for p in ranges if p[0] >> s.x & 1].index((s.u, s.v)) + 1


# ---------------------------------------------------------------------------
# model documents


def dump(model) -> str:
    """Canonical JSON document for a subset or relational model."""
    if isinstance(model, SubsetModel):
        doc = {"type": "subset", "opens": [bits(o) for o in model.topology.opens]}
    elif isinstance(model, RelationalModel):
        doc = {"type": "relational", "rel": [list(pair) for pair in sorted(model.rel)]}
    else:
        raise ModelError(f"cannot dump {type(model).__name__}")
    doc["worlds"] = model.n
    doc["valuation"] = {atom: bits(mask) for atom, mask in sorted(model.valuation.items())}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def random_model(seed: int, n: int, atoms: int = 2) -> SubsetModel:
    """Deterministic random model: seeded subbasis draw plus uniform valuation.

    Each of a bounded number of uniformly random subsets joins the subbasis
    with probability SUBBASIS_DENSITY; the topology it generates always
    verifies.
    """
    if not 1 <= n <= MAX_WORLDS:
        raise ModelError(f"size {n} outside 1..{MAX_WORLDS}")
    rng = random.Random(seed)
    subbasis = []
    for _ in range(SUBBASIS_TRIALS_PER_WORLD * n):
        candidate = rng.randrange(1 << n)
        if rng.random() < SUBBASIS_DENSITY:
            subbasis.append(candidate)
    topology = generate_from_subbasis(n, subbasis)
    valuation = {name: rng.getrandbits(n) for name in atom_names(atoms)}
    return SubsetModel(topology, valuation)


def sierpinski_model(p_at: int = 0) -> SubsetModel:
    """Two worlds, opens {{}, {0}, {0,1}}, one atom p true at the given world."""
    top = Topology.from_opens(2, [0, 1, 3])
    return SubsetModel(top, {"p": 1 << p_at})
