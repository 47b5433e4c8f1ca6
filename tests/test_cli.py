import json
import time

import pytest

from topobelief import cli
from topobelief.cli import main
from topobelief.model import dump, random_model
from topobelief.relational import RelationalModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_false_belief_holds(self, capsys, sierp_path):
        code, out, _ = run(
            capsys,
            "eval",
            "--model", sierp_path,
            "--scenario", "x=1;U=0,1",
            "--semantics", "strong",
            "--formula", "B p & !p",
        )
        assert out.strip() == "true"
        assert code == 0

    def test_failing_formula_exits_one(self, capsys, sierp_path):
        code, out, _ = run(
            capsys, "eval", "--model", sierp_path, "--scenario", "x=1;U=0,1", "--formula", "p"
        )
        assert out.strip() == "false"
        assert code == 1

    def test_bad_scenario_is_input_error(self, capsys, sierp_path):
        code, _, err = run(
            capsys, "eval", "--model", sierp_path, "--scenario", "x=1;U=1", "--formula", "p"
        )
        assert code == 2
        assert "error:" in err

    def test_range_past_the_carrier_names_its_world(self, capsys, sierp_path):
        code, out, err = run(
            capsys, "eval", "--model", sierp_path, "--scenario", "x=0;U=0,5", "--formula", "p"
        )
        assert (code, out, err) == (2, "", "error: epistemic range: world 5 out of range 0..1\n")

    @pytest.mark.parametrize(
        "scenario", ["x=+1;U=0,1", "x=-0;U=0,1", "x=1;U=0,\u0661", "x=1_0;U=0,1"]
    )
    def test_world_index_outside_grammar_is_input_error(self, capsys, sierp_path, scenario):
        # int() reads each of these as a world; the grammar allows ASCII digits only
        code, out, err = run(
            capsys, "eval", "--model", sierp_path, "--scenario", scenario, "--formula", "p"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad world index")

    def test_relational_model_is_input_error(self, capsys, pin_path):
        code, out, err = run(
            capsys, "eval", "--model", pin_path, "--scenario", "x=1;U=0,1", "--formula", "p"
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {pin_path} holds a relational model; this command needs a subset model\n"
        )

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "eval",
            "--model", str(tmp_path / "none.json"),
            "--scenario", "x=0;U=0",
            "--formula", "p",
        )
        assert code == 2


class TestValid:
    def test_valid_formula(self, capsys, sierp_path):
        code, out, _ = run(capsys, "valid", "--model", sierp_path, "--formula", "K p -> p")
        assert code == 0
        assert out.strip() == "valid"

    def test_invalid_formula_prints_witness(self, capsys, sierp_path):
        code, out, _ = run(capsys, "valid", "--model", sierp_path, "--formula", "p")
        assert code == 1
        assert out.startswith("invalid at x=1;U=0,1")

    def test_json_output(self, capsys, sierp_path):
        code, out, _ = run(
            capsys, "valid", "--model", sierp_path, "--formula", "p", "--json"
        )
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["witness"]["scenario"] == "x=1;U=0,1"

    def test_strong_budget_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "sixteen.json"
        path.write_text(dump(random_model(1, 16)))
        code, _, err = run(
            capsys, "valid", "--model", str(path), "--semantics", "strong",
            "--formula", "K p -> p", "--budget", "1000",
        )
        assert code == 2
        assert "scenario sweep cost 11440 exceeds budget 1000 (715 opens on 16 worlds)" in err


class TestCountermodel:
    def test_finds_and_dumps(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code, out, _ = run(
            capsys,
            "countermodel",
            "--formula", "!box p -> box !box p",
            "--semantics", "strong",
            "--exhaustive", "3",
            "--out", str(out_path),
        )
        assert code == 1
        assert "countermodel found" in out
        scenario = next(line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("scenario"))
        # feeding the dump back in: the negated formula holds at the witness
        code2, out2, _ = run(
            capsys,
            "eval",
            "--model", str(out_path),
            "--scenario", scenario,
            "--formula", "!(!box p -> box !box p)",
        )
        assert code2 == 0
        assert out2.strip() == "true"

    def test_sound_scheme_exhausts(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "--formula", "K p -> p", "--exhaustive", "3"
        )
        assert code == 0
        assert "exhausted" in out

    def test_budget_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "countermodel", "--formula", "K p -> p", "--exhaustive", "3",
            "--budget", "10",
        )
        assert code == 2
        assert "budget" in err

    def test_sixteen_worlds_within_budget(self, capsys):
        started = time.perf_counter()
        code, _, _ = run(
            capsys, "countermodel", "--formula", "K p -> p", "--max-n", "16",
            "--budget", "200000",
        )
        elapsed = time.perf_counter() - started
        assert code in (0, 1, 2)
        assert elapsed < 30.0, f"runtime target exceeded: {elapsed:.1f}s"

    def test_conflicting_modes_rejected(self, capsys):
        code, _, err = run(
            capsys, "countermodel", "--formula", "p", "--exhaustive", "2", "--max-n", "5"
        )
        assert code == 2

    def test_exhaustive_gate(self, capsys):
        code, _, err = run(capsys, "countermodel", "--formula", "p", "--exhaustive", "9")
        assert code == 2


class TestSuite:
    def test_clean_suite(self, capsys):
        code, out, _ = run(capsys, "suite", "--name", "kd45_b", "--exhaustive", "2")
        assert code == 0
        assert "all schemes valid" in out

    def test_class_override_reports_countermodel(self, capsys):
        code, out, _ = run(
            capsys,
            "suite", "--name", "el_kboxb_d", "--exhaustive", "1", "--class", "all",
        )
        assert code == 1
        assert "countermodel" in out

    def test_json_determinism_with_seeds(self, capsys):
        argv = [
            "suite", "--name", "kd45_b", "--exhaustive", "1",
            "--models", "5", "--sizes", "4,5", "--seed", "3", "--json",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_exhaustive_zero_is_no_exhaustive_part(self, capsys):
        code, out, _ = run(
            capsys,
            "suite", "--name", "kd45_b", "--exhaustive", "0", "--models", "2", "--json",
        )
        assert code == 0
        batch = json.loads(out)["batch"]
        assert batch["exhaustive_n"] == 0
        assert batch["seeds"] == [1, 2]

    @pytest.mark.parametrize(
        "batch_args",
        [
            ["--models", "3", "--sizes", ","],
            ["--models", "3", "--sizes", "4,x"],
            ["--models", "-1"],
            ["--exhaustive", "-1"],
            ["--exhaustive", "5"],
            ["--exhaustive", "4", "--models", "2", "--sizes", "17"],
            ["--models", "2", "--sizes", "4,0"],
            ["--exhaustive", "0"],
        ],
    )
    def test_bad_batch_is_input_error(self, capsys, batch_args):
        # exit 1 would read as "countermodel found", exit 0 as a vacuous pass
        started = time.perf_counter()
        code, out, err = run(capsys, "suite", "--name", "sel", *batch_args)
        elapsed = time.perf_counter() - started
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert elapsed < 1.0, elapsed  # rejected before any model is swept

    def test_over_budget_suite_stops_at_the_first_costly_model(self, capsys):
        # the first 14-world draw costs over the budget while the scheme instances are live
        code, out, err = run(
            capsys,
            "suite", "--name", "el_kboxb", "--exhaustive", "1", "--models", "3", "--sizes", "14",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: scenario sweep cost 2860256 exceeds budget 1000000 (452 opens on 14 worlds)\n"
        )

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "suite", "--name", "mystery")
        assert code == 2
        assert "unknown suite" in err


class TestConvertDecompose:
    def test_convert_writes_subset_document(self, capsys, pin_path, tmp_path):
        out_path = tmp_path / "sub.json"
        code, out, _ = run(capsys, "convert", "--model", pin_path, "--out", str(out_path))
        assert code == 0
        assert "converted" in out
        doc = json.loads(out_path.read_text())
        assert doc["type"] == "subset"
        assert doc["opens"] == [[], [1], [0, 1]]

    def test_convert_rejects_subset_input(self, capsys, sierp_path):
        code, _, err = run(capsys, "convert", "--model", sierp_path)
        assert code == 2
        assert err == (
            f"error: {sierp_path} holds a subset model; this command needs a relational model\n"
        )

    def test_decompose(self, capsys, pin_path):
        code, out, _ = run(capsys, "decompose", "--model", pin_path)
        assert code == 0
        assert out.strip() == "cell={0,1} cluster={1}"

    def test_decompose_json(self, capsys, pin_path):
        code, out, _ = run(capsys, "decompose", "--model", pin_path, "--json")
        assert json.loads(out) == {"components": [{"cell": [0, 1], "cluster": [1]}]}

    def test_decompose_needs_belief_frame(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(dump(RelationalModel(2, frozenset(), {})))
        code, _, err = run(capsys, "decompose", "--model", str(path))
        assert code == 2

    def test_decompose_rejects_bad_atom_name(self, capsys, tmp_path):
        path = tmp_path / "bad_atom.json"
        path.write_text(
            '{"type": "relational", "worlds": 1, "rel": [[0, 0]], "valuation": {"P!": [0]}}'
        )
        code, out, err = run(capsys, "decompose", "--model", str(path))
        assert (code, out, err) == (2, "", "error: bad atom name 'P!'\n")


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4")
        assert code == 0
        assert out.splitlines() == [
            "n=1: 1 topologies",
            "n=2: 4 topologies",
            "n=3: 29 topologies",
            "n=4: 355 topologies",
        ]

    def test_gate(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n", "6")
        assert code == 2

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_below_one_is_input_error(self, capsys, max_n):
        code, out, err = run(capsys, "enumerate", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["eval", "--formula", "p"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["enumerate", "--worlds", "3"]) == 2



_SIERP_DOC = """\
{
  "opens": [
    [],
    [
      0
    ],
    [
      0,
      1
    ]
  ],
  "type": "subset",
  "valuation": {
    "p": [
      0
    ]
  },
  "worlds": 2
}
"""

_PIN_SUBSET_DOC = """\
{
  "opens": [
    [],
    [
      1
    ],
    [
      0,
      1
    ]
  ],
  "type": "subset",
  "valuation": {
    "p": [
      1
    ]
  },
  "worlds": 2
}
"""

_FOUND_JSON = """\
{
  "evaluations": 16,
  "model": {
    "opens": [
      [],
      [
        0
      ],
      [
        0,
        1
      ]
    ],
    "type": "subset",
    "valuation": {
      "p": [
        0
      ]
    },
    "worlds": 2
  },
  "scenario": "x=1;U=0,1",
  "status": "found"
}
"""


@pytest.mark.parametrize(
    "argv, stdout, code",
    [
        (
            ["eval", "--model", "{sierp}", "--scenario", "x=1;U=0,1", "--formula", "B p & !p",
             "--json"],
            '{\n  "verdict": true\n}\n',
            0,
        ),
        (
            ["eval", "--model", "{sierp}", "--scenario", "x=1;U=0,1", "--formula", "p", "--json"],
            '{\n  "verdict": false\n}\n',
            1,
        ),
        (
            ["countermodel", "--formula", "!box p -> box !box p", "--exhaustive", "3", "--json"],
            _FOUND_JSON,
            1,
        ),
        (
            ["countermodel", "--formula", "K p -> p", "--exhaustive", "3", "--json"],
            '{\n  "evaluations": 1610,\n  "status": "exhausted"\n}\n',
            0,
        ),
        (
            ["countermodel", "--formula", "K p -> p"],
            "exhausted: no countermodel with at most 3 worlds\n",
            0,
        ),
        (
            ["countermodel", "--formula", "!box p -> box !box p"],
            "countermodel found\nscenario: x=1;U=0,1\n" + _SIERP_DOC,
            1,
        ),
        (["convert", "--model", "{pin}", "--json"], '{\n  "converted": true,\n  "opens": 3\n}\n', 0),
        (["convert", "--model", "{pin}"], _PIN_SUBSET_DOC + "converted: 3 opens on 2 worlds\n", 0),
        (
            ["enumerate", "--max-n", "3", "--json"],
            '{\n  "counts": {\n    "1": 1,\n    "2": 4,\n    "3": 29\n  }\n}\n',
            0,
        ),
    ],
)
def test_output_bytes_are_pinned(capsys, sierp_path, pin_path, argv, stdout, code):
    """Outputs no other test reads, byte for byte: the --json forms of eval,
    countermodel (found and exhausted), convert and enumerate, countermodel
    with its default max_n of 3, and convert's document on stdout."""
    paths = {"{sierp}": sierp_path, "{pin}": pin_path}
    argv = [paths.get(a, a) for a in argv]
    assert run(capsys, *argv) == (code, stdout, "")


def test_recursion_error_is_an_input_error(capsys, monkeypatch, sierp_path):
    """A RecursionError from any step of a command is exit 2 with one error
    line, never a traceback or the exit-1 verdict."""

    def deep(text):
        raise RecursionError

    monkeypatch.setattr(cli, "parse", deep)
    argv = ["eval", "--model", sierp_path, "--scenario", "x=1;U=0,1", "--formula", "p"]
    assert run(capsys, *argv) == (
        2, "", "error: input nested too deeply (recursion limit reached)\n"
    )


def _nested(shape, depth):
    return {
        "conjuncts": " & ".join(["p"] * depth),
        "negations": "!" * depth + "p",
        "beliefs": "B " * depth + "p",
        "parentheses": "(" * depth + "p" + ")" * depth,
    }[shape]


SHAPES = ("conjuncts", "negations", "beliefs", "parentheses")
MODEL_VERBS = ("eval", "valid", "convert", "decompose")


def _model_argv(verb, path):
    """A call of the verb that reads the model document at path."""
    argv = [verb, "--model", str(path)]
    if verb == "eval":
        argv += ["--scenario", "x=0;U=0", "--formula", "p"]
    if verb == "valid":
        argv += ["--formula", "p"]
    return argv


class TestDeepInput:
    """Input too deep to evaluate is an input error (exit 2), never a verdict."""

    @staticmethod
    def _formula_argv(verb, model_path):
        return {
            "eval": ["eval", "--model", model_path, "--scenario", "x=1;U=0,1"],
            "valid": ["valid", "--model", model_path],
            "countermodel": ["countermodel", "--exhaustive", "2"],
        }[verb]

    @pytest.mark.parametrize("verb", ["eval", "valid", "countermodel"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_deep_formula_is_input_error(self, capsys, sierp_path, verb, shape):
        argv = self._formula_argv(verb, sierp_path) + ["--formula", _nested(shape, 2_000)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: input nested too deeply (recursion limit reached)\n"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_formula_of_depth_100_still_answers(self, capsys, sierp_path, shape):
        argv = self._formula_argv("eval", sierp_path) + ["--formula", _nested(shape, 100)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) in ((0, "true\n", ""), (1, "false\n", ""))

    @pytest.mark.parametrize("verb", MODEL_VERBS)
    def test_deep_model_document_is_input_error(self, capsys, tmp_path, verb):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, *_model_argv(verb, path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad model document: maximum recursion depth exceeded")


@pytest.mark.parametrize("verb", MODEL_VERBS)
def test_model_document_not_utf8_is_input_error(capsys, tmp_path, verb, sierpinski):
    """A model file that does not decode as UTF-8 is a bad model document
    (exit 2, one error line), not a crash that reads as the exit-1 verdict."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + dump(sierpinski).encode("utf-16-le"))
    code, out, err = run(capsys, *_model_argv(verb, path))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad model document: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and "Traceback" not in err
