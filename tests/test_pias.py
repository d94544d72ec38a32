from itertools import product

from inputproc import (
    FNP_DEFAULT,
    GRM_CUES,
    LEX_SEM_2A,
    EventTerm,
    WorldState,
    beginner_profile,
    check_paragraph,
    check_sentence,
    correct_meaning,
    encode_text,
    generate_valuable,
    interpret_paragraph,
    parse_lexicon,
    schemas,
    surface_dir_rev,
)

from conftest import SINGLE_SENTENCES, STORIES, sentence
from oracles import oracle_valuable_schema_sentences, entry_tuples, world_tuples


def check(text, kb, lexicon):
    return check_sentence(sentence(text), kb, WorldState(), lexicon)


def test_default_trap_makes_a_sentence_valuable(kb, lexicon):
    verdict = check(SINGLE_SENTENCES["cat_bitten"], kb, lexicon)
    assert verdict.valuable
    assert verdict.fnp_event == EventTerm("bite", "cat", "dog")
    assert verdict.cue_event == EventTerm("bite", "dog", "cat")
    assert verdict.explanation == (FNP_DEFAULT, GRM_CUES)


def test_rescued_sentences_are_not_valuable(kb, lexicon):
    for key in ("shoe_bitten", "man_bitten", "boxers", "rabbit_ball"):
        verdict = check(SINGLE_SENTENCES[key], kb, lexicon)
        assert not verdict.valuable, key
        assert verdict.fnp_event == verdict.cue_event


def test_story_with_a_trapped_second_sentence(kb, lexicon):
    verdicts = check_paragraph(encode_text(STORIES["push_then_bite"]), kb, lexicon)
    assert [v.valuable for v in verdicts] == [False, True]
    assert any(v.valuable for v in verdicts)


def test_story_rescued_by_context(kb, lexicon):
    verdicts = check_paragraph(encode_text(STORIES["kill_then_push"]), kb, lexicon)
    assert [v.valuable for v in verdicts] == [False, False]
    assert verdicts[1].explanation[0] == LEX_SEM_2A
    assert not any(v.valuable for v in verdicts)


def test_single_sentence_paragraph_reduces_to_the_sentence_check(kb, lexicon):
    verdicts = check_paragraph(encode_text(SINGLE_SENTENCES["cat_bitten"]), kb, lexicon)
    assert len(verdicts) == 1
    assert verdicts[0] == check(SINGLE_SENTENCES["cat_bitten"], kb, lexicon)


def test_schema_enumeration_shape(lexicon):
    all_schemas = schemas(lexicon)
    rendered = [s.render() for s in all_schemas]
    assert rendered == sorted(rendered)
    assert all(s.n1 != s.n2 for s in all_schemas)
    # 8 nouns in ordered pairs, 3 participle verbs
    assert len(all_schemas) == 8 * 7 * 3


def test_generated_sentences_include_and_exclude_the_known_cases(kb, lexicon):
    texts = [t for t, _ in generate_valuable(kb, lexicon)]
    assert texts == sorted(texts)
    assert "The cat was bitten by the dog." in texts
    assert "The dog was bitten by the man." in texts
    assert "The shoe was bitten by the dog." not in texts
    assert "The ball was pushed by the rabbit." not in texts
    assert len(texts) == 122


def test_generated_noun_pairs_are_distinct(kb, lexicon):
    for text, verdict in generate_valuable(kb, lexicon):
        assert verdict.fnp_event.agent != verdict.fnp_event.patient


def test_generation_matches_independent_enumeration_and_check(kb, lexicon):
    nouns = sorted({e.word for e in lexicon
                    if e.category == "content_words" and e.concept.kind == "entity"})
    verbs = ["bitten", "killed", "pushed"]
    state = WorldState()
    expected = []
    for n1, v, n2 in product(nouns, verbs, nouns):
        if n1 == n2:
            continue
        text = f"The {n1} was {v} by the {n2}."
        if check_sentence(sentence(text), kb, state, lexicon).valuable:
            expected.append(text)
    assert [t for t, _ in generate_valuable(kb, lexicon)] == expected


def test_generation_matches_reimplemented_first_noun_route(kb, lexicon):
    expected = oracle_valuable_schema_sentences(entry_tuples(lexicon), *world_tuples(kb))
    assert [t for t, _ in generate_valuable(kb, lexicon)] == sorted(expected)


def test_verdicts_agree_with_the_beginner_route(grammar, kb, lexicon):
    beginner = beginner_profile(lexicon)
    for s in grammar:
        verdict = check_sentence(s, kb, WorldState(), lexicon)
        (m,) = interpret_paragraph(encode_text(s.text() + "."), beginner, kb, lexicon)
        truth = correct_meaning(*surface_dir_rev(s, lexicon))
        assert verdict.valuable == (m.event != truth)


def test_check_is_stable_under_vocabulary_row_order(kb, lexicon, cat_bitten):
    forward = check_sentence(cat_bitten, kb, WorldState(), lexicon)
    reversed_rows = "\n".join(
        f"{e.word}\t{_file_category(e.category)}\t{e.concept.kind}:{e.concept.name}"
        for e in sorted(lexicon, key=lambda e: (e.word, e.category, e.concept.name), reverse=True)
    )
    shuffled = parse_lexicon(reversed_rows)
    assert check_sentence(cat_bitten, kb, WorldState(), shuffled) == forward


def _file_category(category):
    return {"content_words": "content", "nr_m_forms": "nr_m_form",
            "r_m_forms": "r_m_form", "nm_forms": "nm_form"}[category]
