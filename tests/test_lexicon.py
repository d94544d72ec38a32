from itertools import permutations

import pytest

from inputproc import (
    CONTENT_WORDS,
    FINAL,
    INITIAL,
    LEAF_CATEGORIES,
    MEDIAL,
    NM_FORMS,
    NR_M_FORMS,
    R_M_FORMS,
    Concept,
    DuplicateEntry,
    LexEntry,
    ParseError,
    UnknownCategory,
    advanced_profile,
    beginner_profile,
    default_lexicon,
    default_world,
    entries_for,
    is_ml_ctg_closed,
    is_ml_pos_closed,
    parse_lexicon,
)

# The strict total order the closure must induce on leaf categories.
LEAF_ORDER = (CONTENT_WORDS, NR_M_FORMS, R_M_FORMS, NM_FORMS)


def test_content_row_parses():
    entries = parse_lexicon("cat\tcontent\tentity:cat")
    assert entries == frozenset({LexEntry("cat", CONTENT_WORDS, Concept("entity", "cat"))})


def test_form_row_parses():
    entries = parse_lexicon("was\tnr_m_form\tsem:passive_voice")
    (entry,) = entries
    assert entry.category == NR_M_FORMS
    assert entry.concept == Concept("sem", "passive_voice")


def test_nonmeaningful_form_row_parses():
    # the category is supported even though the shipped vocabulary has no member
    (entry,) = parse_lexicon("la\tnm_form\tsem:grammatical_gender")
    assert entry.category == NM_FORMS


def test_empty_and_comment_only_files():
    assert parse_lexicon("") == frozenset()
    assert parse_lexicon("# nothing here\n\n  \n") == frozenset()


def test_unknown_category_rejected():
    with pytest.raises(UnknownCategory):
        parse_lexicon("cat\tnoun\tentity:cat")


def test_duplicate_rejected():
    with pytest.raises(DuplicateEntry):
        parse_lexicon("cat\tcontent\tentity:cat\ncat\tcontent\tentity:cat")


@pytest.mark.parametrize("row", [
    "cat\tcontent",                      # missing field
    "cat\tcontent\tentity-cat",          # no kind separator
    "cat\tcontent\tthing:cat",           # unknown kind
    "cat\tcontent\tsem:cat",             # content word with a form concept
    "was\tnr_m_form\tentity:was",        # form with a content concept
    "two words\tcontent\tentity:x",      # whitespace inside the word
    "..\tcontent\tentity:x",             # the tokenizer splits sentences there
    "c!t\tcontent\tentity:x",            # ... and there
    "cat,\tcontent\tentity:x",           # the tokenizer strips the comma
])
def test_malformed_rows_rejected(row):
    with pytest.raises(ParseError):
        parse_lexicon(row)


def test_words_keep_inner_punctuation():
    assert {e.word for e in parse_lexicon("o,k\tcontent\tentity:x\ne:g\tcontent\tentity:y")} == {"o,k", "e:g"}


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_lexicon("cat\tcontent\tentity:cat\nbad row")
    assert err.value.line == 2


def test_shipped_lexicon_agrees_with_the_shipped_world(lexicon):
    assert default_lexicon(default_world()) == lexicon


@pytest.mark.parametrize("row, message", [
    ("fox\tcontent\tentity:fox", "entity 'fox' of 'fox' is not declared in the world"),
    ("flew\tcontent\taction:fly", "action 'fly' of 'flew' is not one of ('bite', 'push', 'kill')"),
])
def test_concepts_are_checked_against_the_world(kb, row, message):
    with pytest.raises(ParseError) as err:
        parse_lexicon(f"cat\tcontent\tentity:cat\n{row}", kb)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {message}"
    assert len(parse_lexicon(row)) == 1


def test_leaf_category_order_is_exactly_the_expected_chain():
    expected = {
        (a, b)
        for i, a in enumerate(LEAF_ORDER)
        for b in LEAF_ORDER[i + 1:]
    }
    actual = {
        (a, b)
        for a in LEAF_CATEGORIES
        for b in LEAF_CATEGORIES
        if is_ml_ctg_closed(a, b)
    }
    assert actual == expected


def test_category_order_extends_downward_only():
    # downward: a fact about a superclass covers its leaves
    assert is_ml_ctg_closed(CONTENT_WORDS, R_M_FORMS)
    assert is_ml_ctg_closed(NR_M_FORMS, NM_FORMS)
    # never upward: nothing outranks a superclass via its subclass
    assert not is_ml_ctg_closed(NR_M_FORMS, "forms")
    assert not is_ml_ctg_closed(NR_M_FORMS, "m_forms")


def test_leaf_order_axioms():
    for a in LEAF_CATEGORIES:
        assert not is_ml_ctg_closed(a, a)
    for a, b in permutations(LEAF_CATEGORIES, 2):
        assert is_ml_ctg_closed(a, b) != is_ml_ctg_closed(b, a)
        for c in LEAF_CATEGORIES:
            if is_ml_ctg_closed(a, b) and is_ml_ctg_closed(b, c):
                assert is_ml_ctg_closed(a, c)


def test_position_order():
    assert is_ml_pos_closed(INITIAL, FINAL)
    assert is_ml_pos_closed(FINAL, MEDIAL)
    assert is_ml_pos_closed(INITIAL, MEDIAL)
    positions = (INITIAL, FINAL, MEDIAL)
    for p in positions:
        assert not is_ml_pos_closed(p, p)
    for a, b in permutations(positions, 2):
        assert is_ml_pos_closed(a, b) != is_ml_pos_closed(b, a)


def test_entries_for_auxiliary_advanced(advanced):
    found = {(e.category, e.concept.name) for e in entries_for("was", advanced)}
    assert found == {
        (NR_M_FORMS, "passive_voice"),
        (NR_M_FORMS, "past_tense"),
        (R_M_FORMS, "third_person_singular"),
    }


def test_entries_for_auxiliary_beginner(beginner):
    assert entries_for("was", beginner) == frozenset()


def test_entries_for_unknown_word(advanced):
    assert entries_for("zzz", advanced) == frozenset()


def test_content_and_form_entries_partition_the_lexicon(lexicon):
    content = {e for e in lexicon if e.category == CONTENT_WORDS}
    forms = {e for e in lexicon if e.category != CONTENT_WORDS}
    assert content | forms == set(lexicon)
    assert not content & forms
    assert content


def test_profiles(lexicon):
    beg = beginner_profile(lexicon, capacity=5, n=3)
    assert beg.capacity == 5 and beg.n == 3
    assert all(e.category == CONTENT_WORDS for e in beg.lexicon)
    adv = advanced_profile(lexicon)
    assert adv.lexicon == lexicon
    assert adv.capacity == 11 and adv.n == 2


def test_shipped_vocabulary_is_lowercase(lexicon):
    assert lexicon
    assert all(e.word == e.word.lower() for e in lexicon)
