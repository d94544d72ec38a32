from collections import Counter

import pytest

from inputproc import (
    FINAL,
    INITIAL,
    MEDIAL,
    EmptySentence,
    EmptyText,
    IndexOutOfRange,
    encode_text,
    position_of,
)

from conftest import SINGLE_SENTENCES, STORIES, sentence


def test_single_sentence_tokens():
    par = encode_text("The cat was bitten by the dog.")
    assert len(par.sentences) == 1
    s = par.sentences[0]
    assert s.id == "s1"
    assert s.tokens == ("the", "cat", "was", "bitten", "by", "the", "dog")


def test_comma_and_case_stripped_across_sentences():
    par = encode_text("The cat killed the dog. Then, the dog was pushed by the cat.")
    assert len(par.sentences) == 2
    s2 = par.sentences[1]
    assert s2.id == "s2"
    assert s2.word_at(1) == "then"
    assert s2.word_at(8) == "cat"


def test_exclamation_and_question_delimiters():
    par = encode_text("The cat ran! Did the dog push the cat?")
    assert [s.id for s in par.sentences] == ["s1", "s2"]
    assert par.sentences[1].tokens[0] == "did"


def test_trailing_fragment_counts_as_sentence():
    par = encode_text("the cat ran")
    assert par.sentences[0].tokens == ("the", "cat", "ran")


def test_bare_delimiter_rejected():
    with pytest.raises(EmptySentence):
        encode_text(".")


def test_doubled_delimiter_rejected():
    with pytest.raises(EmptySentence):
        encode_text("The cat ran..")


@pytest.mark.parametrize("raw", ["", "   ", "\n\t"])
def test_blank_input_rejected(raw):
    with pytest.raises(EmptyText):
        encode_text(raw)


@pytest.mark.parametrize("text", list(SINGLE_SENTENCES.values()) + list(STORIES.values()))
def test_reencoding_joined_tokens_is_identity(text):
    for s in encode_text(text).sentences:
        again = encode_text(s.text())
        assert again.sentences[0].tokens == s.tokens


def test_word_at_bounds():
    s = sentence("The cat ran.")
    with pytest.raises(IndexOutOfRange):
        s.word_at(0)
    with pytest.raises(IndexOutOfRange):
        s.word_at(4)


def test_positions_of_seven_word_sentence(cat_bitten):
    assert position_of(1, cat_bitten, 2) == INITIAL
    assert position_of(2, cat_bitten, 2) == INITIAL
    assert position_of(4, cat_bitten, 2) == MEDIAL
    assert position_of(6, cat_bitten, 2) == FINAL
    assert position_of(7, cat_bitten, 2) == FINAL


def test_default_position_window_is_two(cat_bitten):
    assert [position_of(k, cat_bitten) for k in range(1, 8)] == [
        INITIAL, INITIAL, MEDIAL, MEDIAL, MEDIAL, FINAL, FINAL]


def test_overlapping_windows_prefer_initial():
    s = sentence("cat pushed dog.")
    assert position_of(2, s, 2) == INITIAL


def test_positions_partition_the_sentence(cat_bitten):
    counts = Counter(position_of(k, cat_bitten, 2) for k in range(1, 8))
    assert counts == {INITIAL: 2, MEDIAL: 3, FINAL: 2}


def test_position_argument_checks(cat_bitten):
    with pytest.raises(IndexOutOfRange):
        position_of(0, cat_bitten, 2)
    with pytest.raises(IndexOutOfRange):
        position_of(8, cat_bitten, 2)
    with pytest.raises(ValueError):
        position_of(1, cat_bitten, 0)
