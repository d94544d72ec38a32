"""Arbitrary input files never crash the command line: every call exits with a
documented code, and a failed call writes nothing on standard output."""

import contextlib
import io
import os
import tempfile

import pytest

import inputproc

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

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


def call(argv):
    """Run the command line in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
        argv = [command]
        if command in ("p1map", "interpret"):
            argv += ["--learner", learner, "--capacity", str(capacity)]
        if structured:
            argv += ["--format", "structured"]
        files = (("--text", None if command == "generate" else text),
                 ("--lexicon", lexicon), ("--world", world))
        for flag, content in files:
            if content is not None:
                path = os.path.join(tmp, flag.strip("-"))
                with open(path, "wb") as f:
                    f.write(content)
                argv += [flag, path]
        code, out, err = call(argv)
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert out == ""
        assert err.startswith("inputproc: error: ")


# Noun rows only: the shipped noun rows a case keeps, and new rows whose word is
# fresh or already a form or verb word of the vocabulary, and whose entity is a
# fresh one declared in the world or a shipped one (two nouns, one entity).
with open(os.path.join(DATA, "lexicon.tsv"), encoding="utf-8") as f:
    LEXICON_ROWS = f.read().splitlines()
NOUN_ROWS = tuple(row for row in LEXICON_ROWS if "\tentity:" in row)
OTHER_ROWS = tuple(row for row in LEXICON_ROWS if row not in NOUN_ROWS)
with open(os.path.join(DATA, "world.tsv"), encoding="utf-8") as f:
    WORLD = f.read()
NEW_WORDS = ("fox", "hen", "kitty", "the", "was", "by", "bitten", "pushed", "killed", "then", "cat")
FRESH_ENTITIES = ("fox", "hen")
ENTITIES = FRESH_ENTITIES + ("cat", "dog", "man", "ball")
PROPERTIES = ("", "animate", "animate,human")


def edited_nouns(kept, new, properties):
    """Lexicon and world bytes: the shipped files with only the noun rows edited."""
    nouns = [*kept, *(f"{word}\tcontent\tentity:{entity}" for word, entity in new)]
    world = WORLD + "".join(f"entity\t{e}\t{p}\n" for e, p in zip(FRESH_ENTITIES, properties))
    return "\n".join((*OTHER_ROWS, *nouns)).encode("utf-8"), world.encode("utf-8")


noun_edits = st.builds(
    edited_nouns,
    st.lists(st.sampled_from(NOUN_ROWS), unique=True),
    st.lists(st.tuples(st.sampled_from(NEW_WORDS), st.sampled_from(ENTITIES)), min_size=1, max_size=3),
    st.tuples(*(st.sampled_from(PROPERTIES) for _ in FRESH_ENTITIES)),
)
words = st.sampled_from(NEW_WORDS + ("dog", "man", "shoe"))
verbs = st.sampled_from(("bitten", "pushed", "killed"))
noun_texts = (st.builds("The {} was {} by the {}.".format, words, verbs, words)
              | st.builds("The {} {} the {}.".format, words, verbs, words))


@settings(max_examples=30, deadline=None)
@given(files=noun_edits, text=noun_texts)
@example(files=edited_nouns(NOUN_ROWS, [("was", "ball")], PROPERTIES[:2]),
         text="The cat was bitten by the dog.")
def test_edited_noun_rows_exit_with_a_documented_code(files, text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for flag, content in zip(("--lexicon", "--world", "--text"), (*files, text.encode("utf-8"))):
            paths[flag] = os.path.join(tmp, flag.strip("-"))
            with open(paths[flag], "wb") as f:
                f.write(content)
        data = ["--lexicon", paths["--lexicon"], "--world", paths["--world"]]
        for command, codes in (("generate", {0, 2}), ("check", {0, 2, 3})):
            argv = [command, *data] + (["--text", paths["--text"]] if command == "check" else [])
            code, out, err = call(argv)
            assert code in codes, (command, err)
            assert "Traceback" not in err
            if code == 0:
                assert err == ""
            else:
                assert out == "" and err.startswith("inputproc: error: ")
