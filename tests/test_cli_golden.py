"""Byte pin of the command line: the exit code, stdout and stderr of every case
below, in both output formats, must equal what `tests/golden/<command>.json`
records.

Only an intended change of output may rewrite those files:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

import inputproc
from inputproc.cli import main

from conftest import SINGLE_SENTENCES, STORIES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
DATA = os.path.join(os.path.dirname(inputproc.__file__), "data")
FORMATS = ("text", "structured")

# Every text is written to `<name>.txt` in the working directory of the run.
TEXTS = {
    **SINGLE_SENTENCES,
    **STORIES,
    "not_transitive": "cat dog the.",
    "verb_last": "The cat the dog pushed.",
    "kit_bitten": "The kit was bitten by the dog. Then, the dog was pushed by the kit.",
    "then_pushed": "Then, the dog was pushed by the cat.",
    "zz_pushed": "Cat pushed dog zz ball.",
}
GRAMMAR_TEXTS = [*SINGLE_SENTENCES, *STORIES]


def _shipped(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return f.read()


# A vocabulary whose extra entity's name holds a comma, which the structured
# format cannot set apart from the next field but the text format can.
INPUT_FILES = {
    "comma_lexicon.tsv": _shipped("lexicon.tsv") + "kit\tcontent\tentity:cat,x\n",
    "comma_world.tsv": _shipped("world.tsv") + "entity\tcat,x\tanimate\nhpd\tbite\tdog\tcat,x\n",
    **{f"{name}.txt": text + "\n" for name, text in TEXTS.items()},
}
COMMA = ["--lexicon", "comma_lexicon.tsv", "--world", "comma_world.tsv"]

# Extra discourse readings of one word crowd the checker's fixed capacity (11)
# and position window (2): with 9 more readings of "then" no noun of
# "then_pushed" clears the gate, and 4 more of "the" still leave both nouns.
INPUT_FILES.update({
    "then_lexicon.tsv": _shipped("lexicon.tsv") + "".join(f"then\tcontent\tdisc:t{i}\n" for i in range(9)),
    "the_lexicon.tsv": _shipped("lexicon.tsv") + "".join(f"the\tcontent\tdisc:d{i}\n" for i in range(4)),
})

# With 12 readings of "zz" the gate drops the medial "dog" of "zz_pushed" but
# keeps "cat", "pushed" and the final "ball": the learner's first-noun reading
# is ev(push, cat, ball), while the grammar encodes ev(push, cat, dog). Both
# `check` and `interpret` take the cue route's event from the grammar.
INPUT_FILES["zz_lexicon.tsv"] = _shipped("lexicon.tsv") + "".join(
    f"zz\tcontent\tdisc:z{i}\n" for i in range(12))


def cases():
    """command -> case name -> argv without --format."""
    out = {"p1map": {}, "interpret": {}, "check": {}, "generate": {}}
    for name in GRAMMAR_TEXTS:
        for learner in ("beginner", "advanced"):
            for capacity in ("0", "3", "11"):
                out["p1map"][f"{name}-{learner}-{capacity}"] = [
                    "p1map", "--learner", learner, "--capacity", capacity, "--text", f"{name}.txt"]
            out["interpret"][f"{name}-{learner}"] = [
                "interpret", "--learner", learner, "--text", f"{name}.txt"]
        out["check"][name] = ["check", "--text", f"{name}.txt"]
    out["interpret"]["cat_bitten-beginner-1"] = [
        "interpret", "--learner", "beginner", "--capacity", "1", "--text", "cat_bitten.txt"]
    out["generate"]["shipped"] = ["generate"]
    for command in ("p1map", "interpret", "check"):
        for name in ("not_transitive", "verb_last"):
            out[command][name] = [command, "--text", f"{name}.txt"]
    for learner in ("beginner", "advanced"):
        out["interpret"][f"comma-{learner}"] = [
            "interpret", "--learner", learner, "--text", "kit_bitten.txt", *COMMA]
    out["p1map"]["comma"] = ["p1map", "--text", "kit_bitten.txt", *COMMA]
    out["check"]["comma"] = ["check", "--text", "kit_bitten.txt", *COMMA]
    out["generate"]["comma"] = ["generate", *COMMA]
    for word in ("then", "the"):
        out["check"][f"{word}_readings"] = [
            "check", "--text", "then_pushed.txt", "--lexicon", f"{word}_lexicon.tsv"]
    out["check"]["zz_readings"] = ["check", "--text", "zz_pushed.txt", "--lexicon", "zz_lexicon.tsv"]
    out["interpret"]["zz_readings-advanced"] = [
        "interpret", "--learner", "advanced", "--text", "zz_pushed.txt", "--lexicon", "zz_lexicon.tsv"]
    return out


CASES = cases()


def write_inputs(directory):
    for name, content in INPUT_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write(content)


def run(argv):
    """(exit code, stdout, stderr) of one in-process call, per format."""
    result = {}
    for fmt in FORMATS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        result[fmt] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return result


def golden_path(command):
    return os.path.join(GOLDEN, f"{command}.json")


@pytest.fixture(scope="module")
def golden():
    out = {}
    for command in CASES:
        with open(golden_path(command), encoding="utf-8") as f:
            out[command] = json.load(f)
    return out


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


def test_golden_files_hold_exactly_the_cases(golden):
    assert {command: set(g) for command, g in golden.items()} == {
        command: set(named) for command, named in CASES.items()}


@pytest.mark.parametrize("command,name", [(c, n) for c, named in CASES.items() for n in named])
def test_cli_output_matches_golden(golden, inputs_dir, monkeypatch, command, name):
    monkeypatch.chdir(inputs_dir)
    assert run(CASES[command][name]) == golden[command][name]


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            results = {command: {name: run(argv) for name, argv in named.items()}
                       for command, named in CASES.items()}
        finally:
            os.chdir(cwd)
    for command, named in results.items():
        with open(golden_path(command), "w", encoding="utf-8") as f:
            json.dump(named, f, indent=1, sort_keys=True, ensure_ascii=False)
            f.write("\n")


if __name__ == "__main__":
    regenerate()
