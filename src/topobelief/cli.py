"""Command-line front end.

Exit codes carry the logical verdict so shell harnesses need no output
parsing: 0 for holds/valid/suite-clean/converted, 1 for fails/countermodel
found, 2 for usage or input errors (including exceeded budgets, a
formula nested deeper than formula.MAX_DEPTH, which parse refuses, and a
model document too deep for the JSON reader).  All output is deterministic
for fixed inputs and seed.

Each command returns (exit code, payload, text) and writes nothing to
stdout; main writes the payload as canonical JSON (model._json) under
--json and the text otherwise, after any --out file is written.
"""

from __future__ import annotations

import argparse
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
    _json,
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


_Output = tuple[int, dict, str]  # exit code, --json payload, text

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


def _cmd_eval(args) -> _Output:
    model = _load_model(args.model, SubsetModel)
    scenario = parse_scenario(args.scenario)
    value = satisfies(model, scenario, parse(args.formula), Semantics(args.semantics))
    return (0 if value else 1), {"verdict": value}, "true\n" if value else "false\n"


def _cmd_valid(args) -> _Output:
    model = _load_model(args.model, SubsetModel)
    verdict = valid_in_model(
        model,
        parse(args.formula),
        Semantics(args.semantics),
        ScenarioClass(args.scenario_class),
        budget=args.budget,
    )
    payload = {"valid": verdict.valid}
    if verdict.valid:
        return 0, payload, "valid\n"
    witness = verdict.witness
    payload["witness"] = {
        "scenario": witness.scenario.literal(),
        "trace": [list(t) for t in witness.trace],
    }
    lines = [f"invalid at {witness.scenario.literal()}"]
    lines += [f"  {text}: {'true' if value else 'false'}" for text, value in witness.trace]
    return 1, payload, "\n".join(lines) + "\n"


def _cmd_countermodel(args) -> _Output:
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
    payload = {"status": outcome.status, "evaluations": outcome.evaluations}
    if outcome.status != "found":
        return 0, payload, f"exhausted: no countermodel with at most {max_n} worlds\n"
    payload["model"] = _document(outcome.model)
    payload["scenario"] = outcome.scenario.literal()
    document = _json(payload["model"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    return 1, payload, f"countermodel found\nscenario: {payload['scenario']}\n" + document


def _cmd_suite(args) -> _Output:
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
    return (0 if report.clean else 1), report.to_dict(), report.to_text()


def _cmd_convert(args) -> _Output:
    model = _load_model(args.model, RelationalModel)
    subset = to_subset_model(model)
    document = dump(subset)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    opens = len(subset.topology.opens)
    text = f"converted: {opens} opens on {subset.n} worlds\n"
    return 0, {"converted": True, "opens": opens}, text if args.out else document + text


def _cmd_decompose(args) -> _Output:
    components = decompose(_load_model(args.model, RelationalModel)).components
    payload = {
        "components": [{"cell": bits(c.cell), "cluster": bits(c.final_cluster)} for c in components]
    }
    return 0, payload, "".join(f"{c}\n" for c in components)


def _cmd_enumerate(args) -> _Output:
    if args.max_n < 1:
        raise TopologyError(f"--max-n {args.max_n} is below 1")
    counts = {}
    for n in range(1, args.max_n + 1):
        counts[str(n)] = sum(1 for _ in enumerate_topologies(n))
    text = "".join(f"n={key}: {count} topologies\n" for key, count in counts.items())
    return 0, {"counts": counts}, text


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
        code, payload, text = args.func(args)
        sys.stdout.write(_json(payload) if args.json else text)
        return code
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a crash must not read as the exit-1 verdict
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
