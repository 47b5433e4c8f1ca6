"""The suite/semantics matrix at desk scale.

Each suite is sound for its declared semantics and scenario class; running
a suite outside its class shows exactly which axiom needed it.  Batches
here are kept small so the demo finishes in a few seconds; the test suite
runs the full exhaustive-plus-random batches.
"""

from topobelief.model import ScenarioClass
from topobelief.suites import DEFAULT_MATRIX, Batch, get_suite, run_suite, stalnaker_images

batch = Batch(exhaustive_n=2, seeds=(1, 2, 3, 4, 5), sizes=(4, 4, 5, 5, 6))

for name, kind, cls in DEFAULT_MATRIX:
    report = run_suite(get_suite(name), batch, semantics=kind, scenario_class=cls)
    print(f"{name:>12} {report.semantics:>6}/{report.scenario_class:<10}"
          f" {'clean' if report.clean else 'COUNTERMODEL'}"
          f"  ({len(report.results)} instances)")

# Outside its scenario class an axiom breaks: consistency of belief needs
# nonempty conjectures, weak factivity needs dense ones.
report = run_suite(get_suite("el_kboxb_d"), batch, scenario_class=ScenarioClass.ALL)
bad = next(r for r in report.results if r.status == "countermodel")
print(f"\nD_B over class all -> countermodel: {bad.instance!r} at {bad.witness_scenario}")

report = run_suite(get_suite("el_kboxb_wf"), batch, scenario_class=ScenarioClass.CONSISTENT)
bad = next(r for r in report.results if r.status == "countermodel")
print(f"wF over class consistent -> countermodel: {bad.instance!r} at {bad.witness_scenario}")

# The knowability-collapsed axiom images are reference material only;
# their validity needs directed frames, outside this library's scope.
print("\ncollapsed reference images:")
for name, template in stalnaker_images().items():
    print(f"  {name}: {template}")
