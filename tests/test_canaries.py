"""Reduction canaries: each named mutant of one function must fail its check.

Every reduction of swept data is pinned by a small check in-process (a
pinned report, a search outcome or an oracle comparison).  A later change
could lose the only test that catches a broken reduction while every test
still passes; so each row here patches one function with a mutant that
breaks the reduction and asserts that the row's check fails on the
mutant.  Each distinct check of the table is run once on the code as it
is, where it must pass.  A new reduction adds its row.
"""

import itertools

import pytest

from oracles import (
    COLUMNS,
    SUITE_ROWS,
    all_topologies_oracle,
    back_to_back_mismatches,
    brute_closure,
    chain_mismatches,
    def_truth,
    ed_scenarios,
    epistemic_scenarios,
    labeled_batch,
    suite_reports,
    unreduced_sweeps,
)
from topobelief import model, semantics, suites
from topobelief.formula import atoms, parse
from topobelief.model import (
    BudgetError,
    ScenarioClass,
    exhaustive_models,
)
from topobelief.semantics import Semantics, find_countermodel
from topobelief.suites import Batch, expected_failures, get_suite, run_suite, soundness_batch
from topobelief.topology import MAX_WORLDS


def _least_under_the_whole_group(automorphisms, n, count):
    """model._orbit_least with each mask least under the whole group, not
    under the stabilizer of the masks before it: it drops tuples such as
    p = {0}, q = {1} on the discrete space, whose swap moves q down only
    by moving p up."""
    least = [m for m in range(1 << n) if all(aut[m] >= m for aut in automorphisms)]
    return itertools.product(least, repeat=count)


def _minima_without_marking(automorphisms, size):
    """model._orbit_minima marking no mask's images: every mask is taken
    as least in its orbit, at every level of the chain."""
    return iter(range(size))


def _key_without_the_class(engine, cls, budget):
    """semantics._layout_key with the scenario class dropped: ed under one
    class reads the layouts of another."""
    return engine.kind, budget


def _max_under_ed_too(kind, cls):
    """semantics._shape keeping only the V inside Max under ed with class
    all, consistent or dense too, where ed belief reads V outside Max."""
    if not kind.needs_doxastic_range:
        return None, False
    return cls, cls in semantics._MAXIMAL_CLASSES


def _max_under_ae_total_too(kind, cls):
    """semantics._shape keeping only the V inside Max under ae with class
    total too, where V is U and U need not lie inside Max: a run can be
    left with no pair at all."""
    if not kind.needs_doxastic_range:
        return None, False
    return cls, kind is Semantics.AE


def _every_open_inside_u(top, cls, u, vs):
    """model._admitted without the class filter: every open V inside U."""
    return [v for v in vs if v & ~u == 0]


_layouts = semantics._layouts


def _one_world_too_far(models, names, kind, cls, budget, k):
    """semantics._layouts laying a batch out with k = exhaustive_n + 1: it
    drops each U of exhaustive_n + 1 worlds that is not the carrier,
    though no batch holds every model that size."""
    return _layouts(models, names, kind, cls, budget, k + 1)


def _every_smaller_open_dropped(models, names, kind, cls, budget, k):
    """semantics._layouts laying a batch out with k = MAX_WORLDS: it drops
    every U that is not the carrier, whatever the batch holds."""
    return _layouts(models, names, kind, cls, budget, MAX_WORLDS)


_stream_position = semantics._stream_position


def _one_past_the_hit(ranges, s):
    """model._stream_position one too high, as semantics reads it: a found
    search counts one scenario past its hit."""
    return _stream_position(ranges, s) + 1


def _keeping_a_cut_layout(memo, key, layouts):
    """semantics._memoized setting memo[key] before it lays the stream out:
    after an error other than BudgetError the key keeps the groups laid
    out before it, so the next sweep of the shape reads those and ends
    there, as if the stream did."""
    if key not in memo:
        laid = memo[key] = []
        try:
            for layout in layouts:
                laid.append(layout)
        except BudgetError as error:
            laid.append(error)
    return memo[key]


def _contraction_of_the_topology(top, masks, limit):
    """model._contraction_size reading the topology alone, as if no atom
    held anywhere: a batch then drops every model whose topology contracts
    to at most exhaustive_n worlds, whatever its valuation."""
    return model._contraction_size(top, (), limit)


def _pairs_not_scenarios(top, cls):
    """model._range_cost counting each (U, V) pair once, not |U| times."""
    us = [u for u in top.opens if u]
    if cls is None:
        return len(us)
    return sum(len(model._admitted(top, cls, u, top.opens)) for u in us)


def reference_mismatches():
    """The SUITE_ROWS whose report on a batch complete to 1 world, with
    draws of 2 to 4 worlds, differs from the report of its labeled stream
    over the full pair lists (oracles.unreduced_sweeps), each run afresh.
    A row whose reduced run raises is named with its error's type."""
    batch = Batch(exhaustive_n=1, seeds=tuple(range(1, 21)), sizes=(2, 3, 4) * 6 + (2, 3))
    reduced = []
    for row in SUITE_ROWS:
        try:
            reduced.append(suite_reports([row], batch)[0])
        except Exception as error:  # a mutant that crashes a sweep fails the row
            reduced.append(error)
    with pytest.MonkeyPatch.context() as patch:
        unreduced_sweeps(patch)
        reference = suite_reports(SUITE_ROWS, labeled_batch(batch))
    return [
        (row, type(a).__name__) if isinstance(a, Exception) else row
        for row, a, b in zip(SUITE_ROWS, reduced, reference)
        if a != b
    ]


class _Stop(Exception):
    """The error, not a BudgetError, that stops a layout in relaid_mismatches."""


def relaid_mismatches():
    """What a run of el_kboxb on soundness_batch() gets wrong after an
    error other than BudgetError stopped the same shape's layout at its
    second group: a report other than a fresh batch's, or a layout of
    other than the stream's 3 groups."""
    batch, calls = soundness_batch(), []
    passes = semantics._passes

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise _Stop
        return passes(*args)

    suite = get_suite("el_kboxb")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "_passes", failing)
        with pytest.raises(_Stop):
            run_suite(suite, batch)
        again = run_suite(suite, batch)
    out = []
    if again != run_suite(suite, soundness_batch()):
        out.append("report")
    if len(calls) != 2 + 3:
        out.append(f"{len(calls) - 2} groups laid out again")
    return out


def _labeled_scenarios(max_n, cls):
    """Scenarios of every labeled model of one atom to max_n worlds, from
    the open families of oracles.all_topologies_oracle: each (x, U), or
    (x, U, V) with V open inside U that the class admits."""
    total = 0
    for n in range(1, max_n + 1):
        for opens in all_topologies_oracle(n):
            for u in filter(None, opens):
                vs = [v for v in opens if v & ~u == 0]
                if cls is ScenarioClass.CONSISTENT:
                    vs = [v for v in vs if v]
                elif cls is ScenarioClass.DENSE:
                    vs = [v for v in vs if u & ~brute_closure(n, opens, v) == 0]
                elif cls is ScenarioClass.TOTAL:
                    vs = [u]
                total += (1 << n) * u.bit_count() * (1 if cls is None else len(vs))
    return total


def search_count_mismatches():
    """The columns where the exhausted search for the valid K p -> p to 3
    worlds counts other than every labeled model's scenarios."""
    f = parse("K p -> p")
    out = []
    for kind, cls in COLUMNS:
        outcome = find_countermodel(f, kind, cls, max_n=3, budget=10**7)
        want = _labeled_scenarios(3, None if kind is Semantics.STRONG else cls)
        if (outcome.status, outcome.evaluations) != ("exhausted", want):
            out.append((kind, cls))
    return out


def found_count_mismatches():
    """The expected_failures() entries whose search to the entry's size
    counts other than a scan of the labeled stream (exhaustive_models,
    each model's scenarios in canonical order) up to the first scenario
    where def_truth falsifies the formula, that scenario included."""
    out = []
    for entry in expected_failures():
        f, kind, cls = parse(entry.formula), entry.semantics, entry.scenario_class
        outcome = find_countermodel(f, kind, cls, max_n=entry.max_worlds)
        scan = (
            (m, s)
            for m in exhaustive_models(entry.max_worlds, sorted(atoms(f)))
            for s in (epistemic_scenarios(m) if kind is Semantics.STRONG else ed_scenarios(m, cls))
        )
        want = next((i for i, (m, s) in enumerate(scan, 1) if not def_truth(m, s.x, s.u, s.v, f, kind)), 0)
        if (outcome.status, outcome.evaluations) != ("found", want):
            out.append(entry.label)
    return out


# (owner, function name, mutant, check): the check returns what it finds
# wrong, empty on correct code
CANARIES = [
    pytest.param(
        model,
        "_orbit_least",
        _least_under_the_whole_group,
        chain_mismatches,
        id="each-atom-least-under-the-whole-group",
    ),
    pytest.param(
        model,
        "_orbit_minima",
        _minima_without_marking,
        chain_mismatches,
        id="orbit-minima-without-marking",
    ),
    pytest.param(
        semantics,
        "_layout_key",
        _key_without_the_class,
        back_to_back_mismatches,
        id="layout-memo-key-without-the-class",
    ),
    pytest.param(
        semantics,
        "_shape",
        _max_under_ed_too,
        reference_mismatches,
        id="shape-keeps-max-under-ed",
    ),
    pytest.param(
        semantics,
        "_shape",
        _max_under_ae_total_too,
        reference_mismatches,
        id="shape-keeps-max-under-ae-total",
    ),
    pytest.param(
        semantics,
        "_layouts",
        _one_world_too_far,
        reference_mismatches,
        id="run-suite-complete-to-one-more",
    ),
    pytest.param(
        semantics,
        "_layouts",
        _every_smaller_open_dropped,
        reference_mismatches,
        id="run-suite-drops-every-open-but-the-carrier",
    ),
    pytest.param(
        semantics,
        "_memoized",
        _keeping_a_cut_layout,
        relaid_mismatches,
        id="memo-keeps-a-layout-cut-by-another-error",
    ),
    pytest.param(
        suites,
        "_contraction_size",
        _contraction_of_the_topology,
        reference_mismatches,
        id="contraction-on-the-topology-alone",
    ),
    pytest.param(
        model,
        "_range_cost",
        _pairs_not_scenarios,
        search_count_mismatches,
        id="range-cost-counts-pairs",
    ),
    pytest.param(
        model,
        "_admitted",
        _every_open_inside_u,
        search_count_mismatches,
        id="admitted-without-the-class-filter",
    ),
    pytest.param(
        semantics,
        "_stream_position",
        _one_past_the_hit,
        found_count_mismatches,
        id="stream-position-one-past-the-hit",
    ),
]


@pytest.mark.parametrize(
    "check", dict.fromkeys(param.values[3] for param in CANARIES), ids=lambda check: check.__name__
)
def test_each_check_passes_on_the_code(check):
    assert not check()


@pytest.mark.parametrize("owner, name, mutant, check", CANARIES)
def test_each_mutant_fails_its_check(monkeypatch, owner, name, mutant, check):
    monkeypatch.setattr(owner, name, mutant)
    assert check()
