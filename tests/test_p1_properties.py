"""Principle 1 on random small vocabularies, checked against the brute-force
oracle at every capacity from 0 to one past the candidate count."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from inputproc import (
    CONTENT_WORDS,
    LEAF_CATEGORIES,
    Concept,
    LexEntry,
    Lexicon,
    SentenceEncoding,
    advanced_profile,
    enumerate_p1_models,
)

from oracles import brute_force_models, entry_tuples, model_key

WORDS = ("a", "b", "c", "d")
# The oracle tries every subset of candidates; past 12 it gets slow.
MAX_CANDIDATES = 12


def lex_entry(word, category, name):
    kind = "entity" if category == CONTENT_WORDS else "sem"
    return LexEntry(word, category, Concept(kind, name))


lexicons = st.frozensets(
    st.builds(lex_entry, st.sampled_from(WORDS), st.sampled_from(LEAF_CATEGORIES),
              st.sampled_from(("x", "y", "z"))),
    max_size=8,
).map(Lexicon)
# "q" is a word no lexicon knows.
sentences = st.lists(st.sampled_from(WORDS + ("q",)), min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(lexicon=lexicons, tokens=sentences, n=st.integers(1, 4))
def test_models_match_bruteforce_on_random_vocabularies(lexicon, tokens, n):
    count = sum(len(lexicon.readings(t)) for t in tokens)
    assume(count <= MAX_CANDIDATES)
    s = SentenceEncoding("s1", tuple(tokens))
    entries = entry_tuples(lexicon)
    for capacity in range(count + 2):
        actual = {model_key(m) for m in enumerate_p1_models(s, advanced_profile(lexicon, capacity, n))}
        assert actual == brute_force_models(tokens, entries, capacity, n)
