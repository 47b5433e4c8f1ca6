"""Named axiom suites, batch soundness runs, and certified non-theorems.

Each suite pairs a scheme list with the semantics and scenario class it is
sound for.  Suite runs instantiate every scheme over a fixed, versioned
substitution set and check validity on a deterministic model batch:
exhaustive small topologies crossed with all valuations, then seeded
random models.  Necessitation is a rule, not a scheme, and it is sound
model by model: if a formula holds at every scenario of a model, so do its
K, box and B under every semantics and class (K and B read ranges where it
holds, and an open U is its own interior).  So a rule row reads only its
premise: vacuous if the premise fails on the batch, else valid.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, Sequence

from . import formula as fm
from .formula import Formula, Scheme, get_scheme, instances, parse
from .model import (
    DEFAULT_SCENARIO_BUDGET,
    SUBBASIS_DENSITY,
    EDScenario,
    ScenarioClass,
    SubsetModel,
    _contraction_size,
    _document,
    _isomorph_free_models,
    _json,
    _worst_case_cost,
    exhaustive_models,
    parse_scenario,
    random_model,
)
from .record import Record
from .semantics import (
    BatchEvaluator,
    Semantics,
    _trace,
    satisfies,
    sweep_validity,
)
from .topology import ENUMERATION_MAX, MAX_WORLDS, Topology, mask_of


class SuiteError(Exception):
    pass


DEFAULT_INSTANTIATION: tuple[Formula, ...] = tuple(
    parse(text) for text in ("p", "q", "p & q", "! p", "K p", "box p", "B p", "dia q")
)

# sound Table-1 instances for an S5 knowledge modality, an S4 knowability
# modality, and the knowledge-implies-knowability bridge
BASE_SCHEMES: tuple[str, ...] = (
    "K_K",
    "D_K",
    "T_K",
    "4_K",
    ".2_K",
    "5_K",
    "K_box",
    "D_box",
    "T_box",
    "4_box",
    "KI",
)

STRONG_BELIEF_SCHEMES: tuple[str, ...] = ("K_B", "sPI", "KB", "RB", "wF", "CB")
RANGE_BELIEF_SCHEMES: tuple[str, ...] = ("K_B", "sPI", "KB", "RB")


class LogicSuite(Record):
    __slots__ = _fields = ("name", "schemes", "semantics", "scenario_class", "rules")
    name: str
    schemes: tuple[str, ...]
    semantics: Semantics
    scenario_class: ScenarioClass
    rules: tuple[str, ...]  # modalities licensed for the necessitation check


_SUITES: dict[str, LogicSuite] = {
    suite.name: suite
    for suite in (
        LogicSuite("el_kbox", BASE_SCHEMES, Semantics.STRONG, ScenarioClass.ALL, ("K", "box")),
        LogicSuite(
            "sel",
            BASE_SCHEMES + STRONG_BELIEF_SCHEMES,
            Semantics.STRONG,
            ScenarioClass.ALL,
            ("K", "box", "B"),
        ),
        LogicSuite(
            "el_kboxb",
            BASE_SCHEMES + RANGE_BELIEF_SCHEMES,
            Semantics.ED,
            ScenarioClass.ALL,
            ("K", "box", "B"),
        ),
        LogicSuite(
            "el_kboxb_d",
            BASE_SCHEMES + RANGE_BELIEF_SCHEMES + ("D_B",),
            Semantics.ED,
            ScenarioClass.CONSISTENT,
            ("K", "box", "B"),
        ),
        LogicSuite(
            "el_kboxb_wf",
            BASE_SCHEMES + RANGE_BELIEF_SCHEMES + ("wF",),
            Semantics.ED,
            ScenarioClass.DENSE,
            ("K", "box", "B"),
        ),
        LogicSuite(
            "el_kboxb_cb",
            BASE_SCHEMES + RANGE_BELIEF_SCHEMES + ("CB",),
            Semantics.AE,
            ScenarioClass.ALL,
            ("K", "box", "B"),
        ),
        LogicSuite(
            "kd45_b", ("K_B", "D_B", "4_B", "5_B"), Semantics.STRONG, ScenarioClass.ALL, ("B",)
        ),
    )
}

# the full-belief suite is also sound for almost-everywhere satisfaction
# once the doxastic range is forced to equal the epistemic range
DEFAULT_MATRIX: tuple[tuple[str, Semantics | None, ScenarioClass | None], ...] = (
    ("el_kbox", None, None),
    ("sel", None, None),
    ("sel", Semantics.AE, ScenarioClass.TOTAL),
    ("el_kboxb", None, None),
    ("el_kboxb_d", None, None),
    ("el_kboxb_wf", None, None),
    ("el_kboxb_cb", None, None),
    ("kd45_b", None, None),
)


def get_suite(name: str) -> LogicSuite:
    key = name.lower()
    if key == "stal_t":
        raise SuiteError(
            "stal_t is documentation-only: its axioms read knowledge for knowability"
            " and hold only on directed frames, which this library does not model"
        )
    try:
        return _SUITES[key]
    except KeyError:
        raise SuiteError(f"unknown suite {name!r} (try: {', '.join(sorted(_SUITES))})") from None


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def stalnaker_images() -> dict[str, Formula]:
    """Knowability-collapsed (box -> K) images of the full-belief axioms.

    These are the license for reading this library's belief axioms as a
    conservative refinement of the classical bimodal postulates; they are
    reference material only and take part in no soundness run.
    """
    out = {}
    for name in STRONG_BELIEF_SCHEMES:
        out[name] = fm.translate(get_scheme(name).template, fm.T_MAP)
    return out


# ---------------------------------------------------------------------------
# batches


class Batch(Record):
    """Deterministic model stream over p and q, the atoms every suite
    instance reads: exhaustive part, then seeded random part.

    Built once, with the batch: draws, random_model's model per (seed,
    size), and swept, what run_suite sweeps: the isomorph-free exhaustive
    part (_isomorph_free_models), then the draws, less every model
    _contracted drops.  The keep rule reads each exhaustive valuation's
    masks on its topology, so only the kept exhaustive models are built.
    models() is the labeled stream (exhaustive_models, then the draws),
    for perfbench's counters and the labeled-coverage checks.

    Why a dropped model changes no report (Aiello, van Benthem &
    Bezhanishvili, "Reasoning about space: the modal way", 2003, on
    interior maps; Blackburn, de Rijke & Venema, "Modal Logic", 2001,
    ch. 2, on bisimulation contraction).  The quotient map f of a model M
    onto its contraction C (see _contraction_size) is an interior map, onto
    and carrying p and q, and it maps the maximal clusters onto those of
    C.  So truth at (x, X, V) in M is truth at (f(x), C, f(V)) in C under
    strong, ed and ae semantics alike, and f(V) is open and admitted by
    the class V is: nonempty if V is, holding Max if V does, C if V is X.
    Restricted to an open U, f is an interior map of U onto the open f(U),
    so truth at (x, U, V) in M is truth at (f(x), f(U), f(V)) in C.
    Precondition: the exhaustive part holds every model of at most k =
    exhaustive_n worlds up to isomorphism, in size order, and every draw
    comes after it.  Then a model whose contraction is smaller than it
    and has at most k worlds has a copy of its contraction earlier in the
    stream, failing every root it fails, so it is never a root's first
    failure; the isomorph-free reduction is the case where f is one to
    one.  A model whose worst-case cost, |opens|² × n, exceeds the default
    budget is kept, so a BudgetError comes where it does in the whole
    stream.

    The same precondition lets run_suite pass exhaustive_n as
    sweep_validity's complete_to (see there).  The atoms are fixed, and
    draws and swept are neither shown nor compared.
    """

    __slots__ = ("exhaustive_n", "seeds", "sizes", "draws", "swept")
    _fields = ("exhaustive_n", "atoms", "seeds", "sizes")
    atoms: tuple[str, ...] = ("p", "q")
    exhaustive_n: int
    seeds: tuple[int, ...]
    sizes: tuple[int, ...]
    draws: tuple[SubsetModel, ...]
    swept: tuple[SubsetModel, ...]

    def __init__(self, exhaustive_n: int = 0, seeds: tuple[int, ...] = (), sizes: tuple[int, ...] = ()):
        if exhaustive_n < 0:
            raise SuiteError(f"exhaustive size {exhaustive_n} is negative")
        if exhaustive_n > ENUMERATION_MAX:
            raise SuiteError(f"exhaustive enumeration gated at n <= {ENUMERATION_MAX}")
        if len(seeds) != len(sizes):
            raise SuiteError("seeds and sizes must align")
        for size in sizes:
            if not 1 <= size <= MAX_WORLDS:
                raise SuiteError(f"size {size} outside 1..{MAX_WORLDS}")
        draws = tuple(random_model(seed, size) for seed, size in zip(seeds, sizes))
        atoms, k = self.atoms, exhaustive_n
        swept = [
            SubsetModel(top, dict(zip(atoms, masks)))
            for top, valuations in _isomorph_free_models(k, atoms, None, {})
            for masks in valuations
            if not _contracted(top, masks, k)
        ]
        swept += (d for d in draws if not _contracted(d.topology, d.valuation.values(), k))
        object.__setattr__(self, "exhaustive_n", exhaustive_n)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "swept", tuple(swept))

    def __reduce__(self):
        return Batch, (self.exhaustive_n, self.seeds, self.sizes)

    def models(self) -> Iterator[SubsetModel]:
        yield from exhaustive_models(self.exhaustive_n, self.atoms)
        yield from self.draws

    def describe(self) -> dict:
        return {
            "exhaustive_n": self.exhaustive_n,
            "atoms": list(self.atoms),
            "seeds": list(self.seeds),
            "sizes": list(self.sizes),
            "density": SUBBASIS_DENSITY,
        }


def _contracted(top: Topology, masks: Iterable[int], k: int) -> bool:
    """Whether the keep rule drops the model of top with these valuation
    masks, decided on the topology's table and the masks, before any model
    is built: its contraction is smaller than it and has at most k worlds,
    and its worst-case cost, |opens|² × n (model._worst_case_cost, the
    cost range_groups charges), fits DEFAULT_SCENARIO_BUDGET (the argument
    and its precondition are Batch's)."""
    size = _contraction_size(top, masks, k)
    return (
        size < top.n
        and size <= k
        and _worst_case_cost(top, ScenarioClass.ALL) <= DEFAULT_SCENARIO_BUDGET
    )


def soundness_batch(
    exhaustive_n: int = 3,
    random_count: int = 200,
    sizes: Sequence[int] = (4, 5, 6),
    first_seed: int = 1,
) -> Batch:
    """The standard batch: exhaustive n<=3 plus seeded random models."""
    if random_count < 0:
        raise SuiteError(f"random model count {random_count} is negative")
    if random_count and not sizes:
        raise SuiteError("random models need at least one size")
    if not exhaustive_n and not random_count:
        raise SuiteError("the batch holds no models: give an exhaustive size or random models")
    seeds = tuple(range(first_seed, first_seed + random_count))
    cycle = tuple(sizes[i % len(sizes)] for i in range(random_count))
    return Batch(exhaustive_n=exhaustive_n, seeds=seeds, sizes=cycle)


# ---------------------------------------------------------------------------
# suite runs


class SchemeResult(Record):
    __slots__ = _fields = (
        "scheme", "instance", "status", "witness_model", "witness_scenario", "witness_trace"
    )
    scheme: str
    instance: str
    status: str  # "valid" | "countermodel"
    witness_model: dict | None
    witness_scenario: str | None
    witness_trace: tuple[tuple[str, bool], ...] | None

    # written out: run_suite builds one per scheme instance
    def __init__(
        self,
        scheme: str,
        instance: str,
        status: str,
        witness_model: dict | None = None,
        witness_scenario: str | None = None,
        witness_trace: tuple[tuple[str, bool], ...] | None = None,
    ):
        store = object.__setattr__
        store(self, "scheme", scheme)
        store(self, "instance", instance)
        store(self, "status", status)
        store(self, "witness_model", witness_model)
        store(self, "witness_scenario", witness_scenario)
        store(self, "witness_trace", witness_trace)


class RuleResult(Record):
    __slots__ = _fields = ("rule", "premise", "status")
    rule: str
    premise: str
    status: str  # "vacuous" | "valid"


class SuiteReport(Record):
    __slots__ = _fields = ("suite", "semantics", "scenario_class", "batch", "results", "rules")
    suite: str
    semantics: str
    scenario_class: str
    batch: dict
    results: tuple[SchemeResult, ...]
    rules: tuple[RuleResult, ...]

    @property
    def clean(self) -> bool:
        return all(r.status == "valid" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "semantics": self.semantics,
            "class": self.scenario_class,
            "batch": self.batch,
            "clean": self.clean,
            "results": [
                {
                    "scheme": r.scheme,
                    "instance": r.instance,
                    "status": r.status,
                    **(
                        {
                            "witness": {
                                "model": r.witness_model,
                                "scenario": r.witness_scenario,
                                "trace": [list(t) for t in r.witness_trace],
                            }
                        }
                        if r.status == "countermodel"
                        else {}
                    ),
                }
                for r in self.results
            ],
            "rules": [
                {"rule": r.rule, "premise": r.premise, "status": r.status} for r in self.rules
            ],
        }

    def to_json(self) -> str:
        return _json(self.to_dict())

    def to_text(self) -> str:
        lines = [
            f"suite {self.suite}: semantics={self.semantics} class={self.scenario_class}",
            f"batch: {json.dumps(self.batch, sort_keys=True)}",
        ]
        by_scheme: dict[str, list[SchemeResult]] = {}
        for r in self.results:
            by_scheme.setdefault(r.scheme, []).append(r)
        for scheme, rows in by_scheme.items():
            bad = [r for r in rows if r.status != "valid"]
            if not bad:
                lines.append(f"  {scheme}: {len(rows)} instances valid")
            else:
                first = bad[0]
                lines.append(
                    f"  {scheme}: countermodel for '{first.instance}'"
                    f" at {first.witness_scenario}"
                )
        checked = [r for r in self.rules if r.status != "vacuous"]
        lines.append(
            f"  necessitation: {len(checked)} premises checked,"
            f" {len(self.rules) - len(checked)} vacuous"
        )
        lines.append("all schemes valid" if self.clean else "countermodels found")
        return "\n".join(lines) + "\n"


def scheme_instances(
    scheme: Scheme, instantiation: Sequence[Formula] = DEFAULT_INSTANTIATION
) -> tuple[Formula, ...]:
    """All instances of the scheme over the substitution set, deduplicated,
    in product order of its metavariables sorted by name."""
    bindings = itertools.product(instantiation, repeat=len(scheme.metavariables()))
    return tuple(dict.fromkeys(instances(scheme, bindings)))


def run_suite(
    suite: LogicSuite,
    batch: Batch,
    instantiation: Sequence[Formula] = DEFAULT_INSTANTIATION,
    semantics: Semantics | None = None,
    scenario_class: ScenarioClass | None = None,
) -> SuiteReport:
    """Check every scheme instance on every batch model; aggregate a report.

    The semantics/class arguments override the suite's declared pair (used
    for cross-checks such as running a suite over a broader scenario
    class).  The first failing model yields a canonical witness, replayable
    one scenario at a time through satisfies.  Necessitation is sound on
    each model, so a rule row is valid exactly when its premise holds on
    the whole batch (else vacuous), and no necessitated formula is swept.
    """
    kind = semantics or suite.semantics
    cls = scenario_class or suite.scenario_class

    rows: list[tuple[str, Formula]] = []
    for name in suite.schemes:
        for inst in scheme_instances(get_scheme(name), instantiation):
            rows.append((name, inst))

    premises = list(dict.fromkeys(instantiation))
    # the engine keeps each distinct root once, in first-seen order
    engine = BatchEvaluator([inst for _, inst in rows] + premises, kind)
    failures = sweep_validity(engine, batch.swept, cls, complete_to=batch.exhaustive_n)

    results = []
    for name, inst in rows:
        failure = failures.get(inst)
        if failure is None:
            results.append(SchemeResult(name, fm.to_text(inst), "valid"))
        else:
            results.append(
                SchemeResult(
                    name,
                    fm.to_text(inst),
                    "countermodel",
                    witness_model=_document(failure.model),
                    witness_scenario=failure.scenario.literal(),
                    witness_trace=_trace(engine, failure.model, inst, failure.scenario),
                )
            )

    rules = tuple(
        RuleResult(f"Nec_{mod}", fm.to_text(premise), "vacuous" if premise in failures else "valid")
        for mod in suite.rules
        for premise in premises
    )
    return SuiteReport(suite.name, kind.value, cls.value, batch.describe(), tuple(results), rules)


# ---------------------------------------------------------------------------
# certified non-theorems


class ExpectedFailure(Record):
    """A formula that must fail, with a stored replayable witness."""

    __slots__ = _fields = (
        "label", "formula", "semantics", "scenario_class", "max_worlds", "witness_model", "witness_scenario"
    )
    label: str
    formula: str
    semantics: Semantics
    scenario_class: ScenarioClass
    max_worlds: int
    witness_model: SubsetModel
    witness_scenario: EDScenario

    def replay(self) -> bool:
        """True when the stored witness still falsifies the formula."""
        return not satisfies(
            self.witness_model, self.witness_scenario, parse(self.formula), self.semantics
        )


def _model(n: int, opens: Sequence[Sequence[int]], p: Sequence[int]) -> SubsetModel:
    top = Topology.from_opens(n, [mask_of(o) for o in opens])
    return SubsetModel(top, {"p": mask_of(p)})


def expected_failures() -> tuple[ExpectedFailure, ...]:
    """The registry of non-theorems, each with a desk-size witness.

    Sizes are guaranteed maxima: exhaustive search finds a countermodel
    within that many worlds.
    """
    nested = _model(3, [[], [0], [0, 1, 2]], [0, 1])
    sierp = _model(2, [[], [0], [0, 1]], [0])
    indis = _model(2, [[], [0, 1]], [0])
    point = _model(1, [[], [0]], [])
    disc2 = _model(2, [[], [0], [1], [0, 1]], [1])
    wedge = _model(3, [[], [0], [1], [0, 1], [0, 1, 2]], [0, 2])
    return (
        ExpectedFailure(
            "5_box",
            "! box p -> box ! box p",
            Semantics.STRONG,
            ScenarioClass.ALL,
            3,
            nested,
            parse_scenario("x=1;U=0,1,2"),
        ),
        ExpectedFailure(
            "box_dichotomy",
            "box p | box ! box p",
            Semantics.STRONG,
            ScenarioClass.ALL,
            3,
            nested,
            parse_scenario("x=1;U=0,1,2"),
        ),
        ExpectedFailure(
            "T_B",
            "B p -> p",
            Semantics.STRONG,
            ScenarioClass.ALL,
            2,
            sierp,
            parse_scenario("x=1;U=0,1"),
        ),
        ExpectedFailure(
            "omniscience",
            "p -> K p",
            Semantics.STRONG,
            ScenarioClass.ALL,
            2,
            indis,
            parse_scenario("x=0;U=0,1"),
        ),
        ExpectedFailure(
            "D_B",
            "B p -> ! B ! p",
            Semantics.ED,
            ScenarioClass.ALL,
            1,
            point,
            parse_scenario("x=0;U=0;V="),
        ),
        ExpectedFailure(
            "wF",
            "B p -> dia p",
            Semantics.ED,
            ScenarioClass.CONSISTENT,
            2,
            disc2,
            parse_scenario("x=0;U=0,1;V=1"),
        ),
        ExpectedFailure(
            "CB",
            "B (box p | box ! box p)",
            Semantics.ED,
            ScenarioClass.DENSE,
            3,
            wedge,
            parse_scenario("x=0;U=0,1,2;V=0,1,2"),
        ),
    )
