"""Finite-model toolkit for knowledge, knowability, and belief on
topological subset spaces: formulas, finite topologies, subset and
relational models, three satisfaction relations, soundness suites, and
brute-force countermodel search at desk scale."""

from .formula import (
    Atom,
    Bel,
    Box,
    Formula,
    Iff,
    Implies,
    K,
    Not,
    Scheme,
    get_scheme,
    instantiate,
    parse,
    postorder,
    subformulas,
    to_text,
    translate,
)
from .model import (
    EDScenario,
    RelationalModel,
    ScenarioClass,
    SubsetModel,
    dump,
    load,
    parse_scenario,
    random_model,
)
from .relational import (
    check_modal_equivalence,
    classify,
    decompose,
    eval_relational,
    random_belief_frame,
    to_subset_model,
)
from .semantics import (
    Semantics,
    Verdict,
    extension,
    find_countermodel,
    satisfies,
    valid_in_model,
)
from .suites import (
    Batch,
    LogicSuite,
    expected_failures,
    get_suite,
    run_suite,
    soundness_batch,
)
from .topology import Topology, enumerate_topologies, generate_from_subbasis, verify

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Batch",
    "Bel",
    "Box",
    "EDScenario",
    "Formula",
    "Iff",
    "Implies",
    "K",
    "LogicSuite",
    "Not",
    "RelationalModel",
    "ScenarioClass",
    "Scheme",
    "Semantics",
    "SubsetModel",
    "Topology",
    "Verdict",
    "check_modal_equivalence",
    "classify",
    "decompose",
    "dump",
    "enumerate_topologies",
    "eval_relational",
    "expected_failures",
    "extension",
    "find_countermodel",
    "generate_from_subbasis",
    "get_scheme",
    "get_suite",
    "instantiate",
    "load",
    "parse",
    "parse_scenario",
    "postorder",
    "random_belief_frame",
    "random_model",
    "run_suite",
    "satisfies",
    "soundness_batch",
    "subformulas",
    "to_subset_model",
    "to_text",
    "translate",
    "valid_in_model",
    "verify",
]
