"""Command-line front end.

Exit codes carry the logical verdict so shell harnesses need no output
parsing: 0 for holds/valid/suite-clean/converted, 1 for fails/countermodel
found, 2 for usage or input errors (including exceeded budgets, a
formula nested deeper than formula.MAX_DEPTH, which parse refuses, and a
model document too deep for the JSON reader).  All output is deterministic
for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .formula import FormulaError, parse
from .model import (
    BudgetError,
    ModelError,
    RelationalError,
    RelationalModel,
    ScenarioClass,
    SubsetModel,
    _document,
    dump,
    load,
    parse_scenario,
)
from .relational import decompose, to_subset_model
from .semantics import Semantics, SemanticsError, find_countermodel, satisfies, valid_in_model
from .suites import SuiteError, get_suite, run_suite, soundness_batch, suite_names
from .topology import ENUMERATION_MAX, TopologyError, bits, enumerate_topologies

_ERRORS = (
    BudgetError,
    FormulaError,
    ModelError,
    RelationalError,
    SemanticsError,
    SuiteError,
    TopologyError,
    OSError,
)


_MODEL_KINDS = {SubsetModel: "subset", RelationalModel: "relational"}


def _load_model(path: str, cls: type):
    """The model document at path; it must hold a model of class cls."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ModelError(f"bad model document: {exc}") from None
    model = load(text)
    if not isinstance(model, cls):
        held, need = _MODEL_KINDS[type(model)], _MODEL_KINDS[cls]
        raise ModelError(f"{path} holds a {held} model; this command needs a {need} model")
    return model


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_eval(args) -> int:
    model = _load_model(args.model, SubsetModel)
    scenario = parse_scenario(args.scenario)
    value = satisfies(model, scenario, parse(args.formula), Semantics(args.semantics))
    if args.json:
        _print_json({"verdict": value})
    else:
        print("true" if value else "false")
    return 0 if value else 1


def _cmd_valid(args) -> int:
    model = _load_model(args.model, SubsetModel)
    verdict = valid_in_model(
        model,
        parse(args.formula),
        Semantics(args.semantics),
        ScenarioClass(args.scenario_class),
        budget=args.budget,
    )
    if args.json:
        payload = {"valid": verdict.valid}
        if verdict.witness:
            payload["witness"] = {
                "scenario": verdict.witness.scenario.literal(),
                "trace": [list(t) for t in verdict.witness.trace],
            }
        _print_json(payload)
    elif verdict.valid:
        print("valid")
    else:
        print(f"invalid at {verdict.witness.scenario.literal()}")
        for text, value in verdict.witness.trace:
            print(f"  {text}: {'true' if value else 'false'}")
    return 0 if verdict.valid else 1


def _cmd_countermodel(args) -> int:
    if args.exhaustive is not None and args.max_n is not None:
        raise SuiteError("give --exhaustive or --max-n, not both")
    max_n = args.exhaustive if args.exhaustive is not None else args.max_n
    if max_n is None:
        max_n = 3
    if args.exhaustive is not None and max_n > ENUMERATION_MAX:
        raise SemanticsError(f"exhaustive search is gated at {ENUMERATION_MAX} worlds")
    outcome = find_countermodel(
        parse(args.formula),
        Semantics(args.semantics),
        ScenarioClass(args.scenario_class),
        max_n=max_n,
        budget=args.budget,
        seed=args.seed,
    )
    if outcome.status == "budget":
        raise BudgetError(f"search budget exhausted after {outcome.evaluations} evaluations")
    if outcome.status == "found" and args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump(outcome.model))
    if args.json:
        payload = {"status": outcome.status, "evaluations": outcome.evaluations}
        if outcome.status == "found":
            payload["model"] = _document(outcome.model)
            payload["scenario"] = outcome.scenario.literal()
        _print_json(payload)
    elif outcome.status == "found":
        print("countermodel found")
        print(f"scenario: {outcome.scenario.literal()}")
        sys.stdout.write(dump(outcome.model))
    else:
        print(f"exhausted: no countermodel with at most {max_n} worlds")
    return 1 if outcome.status == "found" else 0


def _cmd_suite(args) -> int:
    suite = get_suite(args.name)
    try:
        sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok)
    except ValueError:
        raise SuiteError(f"--sizes {args.sizes!r} is not a comma list of world counts") from None
    exhaustive = args.exhaustive
    if exhaustive is None:
        exhaustive = 0 if args.models else 3
    batch = soundness_batch(exhaustive, args.models, sizes, args.seed)
    report = run_suite(
        suite,
        batch,
        semantics=Semantics(args.semantics) if args.semantics else None,
        scenario_class=ScenarioClass(args.scenario_class) if args.scenario_class else None,
    )
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0 if report.clean else 1


def _cmd_convert(args) -> int:
    model = _load_model(args.model, RelationalModel)
    subset = to_subset_model(model)
    document = dump(subset)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    if args.json:
        _print_json({"converted": True, "opens": len(subset.topology.opens)})
    else:
        if not args.out:
            sys.stdout.write(document)
        print(f"converted: {len(subset.topology.opens)} opens on {subset.n} worlds")
    return 0


def _cmd_decompose(args) -> int:
    model = _load_model(args.model, RelationalModel)
    dec = decompose(model)
    if args.json:
        _print_json(
            {
                "components": [
                    {"cell": bits(c.cell), "cluster": bits(c.final_cluster)}
                    for c in dec.components
                ]
            }
        )
    else:
        for comp in dec.components:
            print(comp)
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_n < 1:
        raise TopologyError(f"--max-n {args.max_n} is below 1")
    counts = {}
    for n in range(1, args.max_n + 1):
        counts[str(n)] = sum(1 for _ in enumerate_topologies(n))
    if args.json:
        _print_json({"counts": counts})
    else:
        for key, count in counts.items():
            print(f"n={key}: {count} topologies")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topobelief",
        description="Finite-model checks for knowledge, knowability, and belief"
        " on topological subset spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(
        p,
        *,
        model=False,
        formula=False,
        scenario=False,
        classes=False,
        budget=False,
        suite_defaults=False,
    ):
        if model:
            p.add_argument("--model", required=True, help="model document path")
        if formula:
            p.add_argument("--formula", required=True, help="formula text")
        if scenario:
            p.add_argument("--scenario", required=True, help='"x=0;U=0,1[;V=1]"')
        p.add_argument(
            "--semantics",
            choices=[s.value for s in Semantics],
            default=None if suite_defaults else "strong",
        )
        if classes:
            p.add_argument(
                "--class",
                dest="scenario_class",
                choices=[c.value for c in ScenarioClass],
                default=None if suite_defaults else "all",
            )
        if budget:
            p.add_argument("--budget", type=int, default=200_000)
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p_eval = sub.add_parser("eval", help="truth of a formula at one scenario")
    common(p_eval, model=True, formula=True, scenario=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_valid = sub.add_parser("valid", help="validity of a formula in one model")
    common(p_valid, model=True, formula=True, classes=True, budget=True)
    p_valid.set_defaults(func=_cmd_valid)

    p_counter = sub.add_parser("countermodel", help="search for a falsifying model")
    common(p_counter, formula=True, classes=True, budget=True)
    p_counter.add_argument("--exhaustive", type=int, help="exhaustive search up to N worlds (<=4)")
    p_counter.add_argument("--max-n", type=int, help="exhaustive to 4, then random up to N worlds")
    p_counter.add_argument("--seed", type=int, default=0)
    p_counter.add_argument("--out", help="write the witness model document here")
    p_counter.set_defaults(func=_cmd_countermodel)

    p_suite = sub.add_parser("suite", help="run a named axiom suite over a model batch")
    p_suite.add_argument("--name", required=True, help=", ".join(suite_names()))
    p_suite.add_argument("--exhaustive", type=int, help="exhaustive batch up to N worlds")
    p_suite.add_argument("--models", type=int, default=0, help="random models to draw")
    p_suite.add_argument("--sizes", default="4,5,6", help="random model sizes, comma list")
    p_suite.add_argument("--seed", type=int, default=1)
    common(p_suite, classes=True, suite_defaults=True)
    p_suite.set_defaults(func=_cmd_suite)

    p_convert = sub.add_parser("convert", help="relational frame to subset model")
    p_convert.add_argument("--model", required=True)
    p_convert.add_argument("--out", help="write the subset model document here")
    p_convert.add_argument("--json", action="store_true")
    p_convert.set_defaults(func=_cmd_convert)

    p_dec = sub.add_parser("decompose", help="brush decomposition of a belief frame")
    p_dec.add_argument("--model", required=True)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=_cmd_decompose)

    p_enum = sub.add_parser("enumerate", help="count labeled topologies per size")
    p_enum.add_argument("--max-n", type=int, default=3)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a crash must not read as the exit-1 verdict
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
