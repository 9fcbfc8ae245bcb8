"""The CLI's exit-code contract under malformed input: any input ends in
exit 0, 2 or 3, never an escaping exception, and a non-zero exit prints
exactly one JSON line on stderr."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slotlogic import pipeline, representative_dialog
from slotlogic.cli import run_pipeline
from slotlogic.dialog import dialog_to_dict
from slotlogic.extract import save_program

from .test_pipeline import GOLDEN_PROGRAM

MULTIWOZ_RECORD = {"turns": [{
    "state": {"restaurant": {"semi": {"food": "eritrean", "area": "not mentioned"},
                             "book": {"people": "2"}}},
    "user_acts": [["inform", "restaurant", "food"]],
    "system_acts": [["request", "restaurant", "area"], ["nooffer", "restaurant", "none"]],
    "db": {"restaurant": {"no_match": True}},
}]}

# One JSON value of each type; a replacement is drawn from the types the
# replaced value does not have.
OTHER_VALUES = (None, True, 3, 0.5, "x", [], [1], {}, {"a": 1})


def json_type(x) -> str:
    if isinstance(x, bool):
        return "bool"
    return "number" if isinstance(x, (int, float)) else type(x).__name__


def paths(x, at=()):
    """Every position in a JSON value, the root included."""
    yield at
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from paths(v, (*at, k))


def replaced(x, at, value):
    if not at:
        return value
    x = copy.copy(x)
    x[at[0]] = replaced(x[at[0]], at[1:], value)
    return x


def get(x, at):
    for k in at:
        x = x[k]
    return x


def first_line(path):
    return json.loads(path.read_text().splitlines()[0])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per input kind: a valid value, where it goes, and the command that reads it."""
    d = tmp_path_factory.mktemp("fuzz")
    dialog = dialog_to_dict(representative_dialog("restaurant"))
    dialog["turns"] = dialog["turns"][:3]
    corpus = d / "corpus.jsonl"
    corpus.write_text(json.dumps(dialog) + "\n")
    samples, preds, program = d / "samples.jsonl", d / "preds.jsonl", d / "program.txt"
    save_program(GOLDEN_PROGRAM, program)
    assert run_pipeline(["convert", "--format", "simdial", "--in", str(corpus),
                         "--out", str(samples)]) == 0
    assert run_pipeline(["transfer", "--program", str(program), "--samples", str(samples),
                         "--out", str(preds)]) == 0
    task, sample = pipeline.list_all_problem()
    model = pipeline.fit(task, [sample], training_steps=1)
    bad, out = d / "bad", str(d / "out")
    return d, {
        "simdial": (dialog, ["convert", "--format", "simdial", "--in", str(bad), "--out", out]),
        "multiwoz": (MULTIWOZ_RECORD,
                     ["convert", "--format", "multiwoz", "--in", str(bad), "--out", out]),
        "samples": (first_line(samples), ["transfer", "--program", str(program),
                                          "--samples", str(bad), "--out", out]),
        "prediction": (first_line(preds), ["eval", "--pred", str(bad), "--gold", str(samples),
                                           "--report", out]),
        "model": (model.to_dict(), ["extract", "--model", str(bad), "--out", out]),
    }


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_replaced_value_keeps_exit_contract(inputs, data):
    d, kinds = inputs
    kind = data.draw(st.sampled_from(sorted(kinds)), label="kind")
    valid, argv = kinds[kind]
    at = data.draw(st.sampled_from(list(paths(valid))), label="path")
    old = get(valid, at)
    value = data.draw(st.sampled_from(
        [v for v in OTHER_VALUES if json_type(v) != json_type(old)]), label="value")
    (d / "bad").write_text(json.dumps(replaced(valid, at, value)) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_pipeline(argv)
    assert code in (0, 2, 3)
    if code:
        [line] = stderr.getvalue().splitlines()
        json.loads(line)
