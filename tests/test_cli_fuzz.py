"""Arbitrary input files never crash the command line: every call exits with a
documented code, and a failed call writes nothing on standard output."""

import contextlib
import io
import os
import tempfile

import pytest

import inputproc

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from inputproc.cli import main

# Pieces of valid lexicon, world and text rows, so that most generated files
# get past the first line and reach the parsers and the engine.
PIECES = (
    "\t", "\n", " ", "#", ".", "..", ",", "!", "?", ":", "*", "\xe9",
    "the", "cat", "dog", "shoe", "man", "tyson", "was", "bitten", "by", "pushed", "killed",
    "entity", "unlikely", "hpd", "animate", "human", "animate,human", "bite", "push", "kill",
    "content", "nr_m_form", "r_m_form", "nm_form",
    "entity:cat", "entity:dog", "action:bite", "sem:passive_voice", "sem:past_participle",
)
DATA = os.path.join(os.path.dirname(inputproc.__file__), "data")


def shipped_with_edits(name):
    """The shipped file with up to three fields replaced by pieces."""
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        rows = [line.split("\t") for line in f.read().splitlines()]

    def edit(edits):
        out = [list(fields) for fields in rows]
        for row, column, piece in edits:
            out[row][min(column, len(out[row]) - 1)] = piece
        return "\n".join(map("\t".join, out)).encode("utf-8")

    return st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 3),
                              st.sampled_from(PIECES)), max_size=3).map(edit)


def pieces(alphabet, sep=""):
    return st.lists(st.sampled_from(alphabet), max_size=40).map(lambda p: sep.join(p).encode("utf-8"))


SENTENCES = ("The cat was bitten by the dog.", "The dog pushed the man.", "Then, tyson killed the cat.",
             "The shoe was pushed by the man.", "The man bitten.")

raw = st.binary(max_size=64) | pieces(PIECES)
texts = raw | pieces(PIECES[3:24], " ") | pieces(SENTENCES, " ")
lexicons = st.none() | raw | shipped_with_edits("lexicon.tsv")
worlds = st.none() | raw | shipped_with_edits("world.tsv")


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(("p1map", "interpret", "check", "generate")),
       text=texts, lexicon=lexicons, world=worlds,
       learner=st.sampled_from(("beginner", "advanced")), capacity=st.integers(0, 13),
       structured=st.booleans())
def test_arbitrary_files_exit_with_a_documented_code(command, text, lexicon, world,
                                                     learner, capacity, structured):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--learner", learner, "--capacity", str(capacity)]
        if structured:
            argv += ["--format", "structured"]
        for flag, content in (("--text", text), ("--lexicon", lexicon), ("--world", world)):
            if content is not None:
                path = os.path.join(tmp, flag.strip("-"))
                with open(path, "wb") as f:
                    f.write(content)
                argv += [flag, path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("inputproc: error: ")
