"""Record behaviour of every frozen value class in the package: repr,
equality with its own class only, hash over the compared fields, refusal
of assignment, and pickle and copy round trips."""

import copy
import pickle

import pytest

from topobelief.formula import Scheme, parse
from topobelief.model import EDScenario, RelationalModel, ScenarioClass, SubsetModel
from topobelief.relational import BrushComponent, BrushDecomposition, FrameProperties
from topobelief.semantics import BatchFailure, SearchOutcome, Semantics, Verdict, Witness
from topobelief.suites import (
    Batch,
    ExpectedFailure,
    LogicSuite,
    RuleResult,
    SchemeResult,
    SuiteReport,
)
from topobelief.topology import Topology, TopologyViolation

MODEL = SubsetModel(Topology.discrete(1), {"p": 1})
MODEL_TEXT = "SubsetModel(topology=Topology(n=1, opens=[{},{0}]), valuation={'p': 1})"
SCENARIO = EDScenario(0, 1)
WITNESS = Witness(SCENARIO, (("p", False),))
WITNESS_TEXT = "Witness(scenario=EDScenario(x=0, u=1, v=None), trace=(('p', False),))"
FRAME = RelationalModel(2, frozenset({(0, 1)}), {"p": 2})

# (record, its repr, the values == and hash read, or None where hash refuses)
CASES = [
    (
        Scheme("t", parse("K p -> p")),
        "Scheme(name='t', template=Implies(left=K(sub=Atom(name='p')), right=Atom(name='p')))",
        ("t", parse("K p -> p")),
    ),
    (MODEL, MODEL_TEXT, (Topology.discrete(1), MODEL.valuation)),
    (
        FRAME,
        "RelationalModel(n=2, rel=frozenset({(0, 1)}), valuation={'p': 2})",
        (2, frozenset({(0, 1)}), FRAME.valuation),
    ),
    (EDScenario(0, 3, 1), "EDScenario(x=0, u=3, v=1)", (0, 3, 1)),
    (
        FrameProperties(True, True, True, True, True, 1, False),
        "FrameProperties(serial=True, transitive=True, euclidean=True, belief_frame=True,"
        " brush=True, final_cluster=1, pin=False)",
        (True, True, True, True, True, 1, False),
    ),
    (BrushComponent(3, 1), "BrushComponent(cell=3, final_cluster=1)", (3, 1)),
    (
        BrushDecomposition((BrushComponent(1, 1),)),
        "BrushDecomposition(components=(BrushComponent(cell=1, final_cluster=1),))",
        ((BrushComponent(1, 1),),),
    ),
    (WITNESS, WITNESS_TEXT, (SCENARIO, (("p", False),))),
    (Verdict(False, WITNESS), f"Verdict(valid=False, witness={WITNESS_TEXT})", (False, WITNESS)),
    (
        SearchOutcome("found", MODEL, SCENARIO, 3),
        f"SearchOutcome(status='found', model={MODEL_TEXT},"
        " scenario=EDScenario(x=0, u=1, v=None), evaluations=3)",
        ("found", MODEL, SCENARIO, 3),
    ),
    (
        BatchFailure(MODEL, SCENARIO),
        f"BatchFailure(model={MODEL_TEXT}, scenario=EDScenario(x=0, u=1, v=None))",
        (MODEL, SCENARIO),
    ),
    (
        LogicSuite("s", ("T_K",), Semantics.STRONG, ScenarioClass.ALL, ("K",)),
        "LogicSuite(name='s', schemes=('T_K',), semantics=<Semantics.STRONG: 'strong'>,"
        " scenario_class=<ScenarioClass.ALL: 'all'>, rules=('K',))",
        ("s", ("T_K",), Semantics.STRONG, ScenarioClass.ALL, ("K",)),
    ),
    (
        Batch(exhaustive_n=1, seeds=(2,), sizes=(3,)),
        "Batch(exhaustive_n=1, atoms=('p', 'q'), seeds=(2,), sizes=(3,))",
        (1, ("p", "q"), (2,), (3,)),
    ),
    (
        SchemeResult("T_K", "K p -> p", "countermodel", {"n": 1}, "x=0;U=0", (("p", False),)),
        "SchemeResult(scheme='T_K', instance='K p -> p', status='countermodel',"
        " witness_model={'n': 1}, witness_scenario='x=0;U=0', witness_trace=(('p', False),))",
        None,
    ),
    (
        RuleResult("nec_K", "p", "vacuous"),
        "RuleResult(rule='nec_K', premise='p', status='vacuous')",
        ("nec_K", "p", "vacuous"),
    ),
    (
        SuiteReport("s", "strong", "all", {"exhaustive_n": 1}, (), ()),
        "SuiteReport(suite='s', semantics='strong', scenario_class='all',"
        " batch={'exhaustive_n': 1}, results=(), rules=())",
        None,
    ),
    (
        ExpectedFailure("l", "K p -> p", Semantics.STRONG, ScenarioClass.ALL, 1, MODEL, SCENARIO),
        "ExpectedFailure(label='l', formula='K p -> p', semantics=<Semantics.STRONG: 'strong'>,"
        f" scenario_class=<ScenarioClass.ALL: 'all'>, max_worlds=1, witness_model={MODEL_TEXT},"
        " witness_scenario=EDScenario(x=0, u=1, v=None))",
        ("l", "K p -> p", Semantics.STRONG, ScenarioClass.ALL, 1, MODEL, SCENARIO),
    ),
    (
        TopologyViolation("missing-union", 1, 2, 3),
        "TopologyViolation(kind='missing-union', left=1, right=2, missing=3)",
        ("missing-union", 1, 2, 3),
    ),
]


@pytest.mark.parametrize("record, text, values", CASES, ids=[type(c[0]).__name__ for c in CASES])
def test_record_behaviour(record, text, values):
    cls = type(record)
    assert repr(record) == text

    again = copy.copy(record)
    assert again == record and not again != record and type(again) is cls
    assert pickle.loads(pickle.dumps(record)) == record

    # a record class of its own, holding the same field values, is never equal
    twin = copy.copy(record)
    object.__setattr__(twin, "__class__", type(cls.__name__, (cls,), {"__slots__": ()}))
    assert twin != record and record != twin and not twin == record

    if values is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(values)

    field = text[len(cls.__name__) + 1 :].split("=", 1)[0]
    with pytest.raises(AttributeError, match=f"'{field}'") as refused:
        setattr(record, field, 0)
    assert type(refused.value).__name__ == "FrozenInstanceError"
    assert repr(record) == text


def test_every_record_class_is_pinned():
    assert len({type(record) for record, _, _ in CASES}) == len(CASES) == 18
