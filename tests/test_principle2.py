import pytest

from inputproc import (
    ACTIVE,
    EVENT_PROB_2B,
    FNP_DEFAULT,
    GRM_CUES,
    LEX_SEM_2A,
    PASSIVE,
    PRIOR_KNOWLEDGE_2D,
    Concept,
    DirRev,
    EventTerm,
    MapAtom,
    NoInterpretation,
    P1Model,
    UnrecognizedTemplate,
    WorldState,
    advanced_profile,
    beginner_profile,
    correct_meaning,
    dir_rev_m,
    encode_text,
    enumerate_p1_models,
    extract_fnp,
    grm_cues_available,
    interpret_paragraph,
    parse_lexicon,
    parse_world,
    surface_dir_rev,
)
from inputproc.principle2 import extract_with_model

from conftest import SINGLE_SENTENCES, STORIES, sentence

NOT_A_TEMPLATE = "^s1: not an active-transitive or passive sentence$"


def beginner_model(s, beginner):
    return enumerate_p1_models(s, beginner)[0]


def test_direct_and_reverse_readings(cat_bitten, beginner):
    dr = dir_rev_m(beginner_model(cat_bitten, beginner), cat_bitten)
    assert dr.direct == EventTerm("bite", "cat", "dog")
    assert dr.reverse == EventTerm("bite", "dog", "cat")


def test_sparse_mapping_has_no_reading(cat_bitten):
    model = P1Model(frozenset({MapAtom(2, "s1", "content_words", Concept("entity", "cat"))}),
                    frozenset())
    with pytest.raises(NoInterpretation):
        dir_rev_m(model, cat_bitten)


def test_one_entity_and_an_action_have_no_reading(cat_bitten):
    model = P1Model(frozenset({MapAtom(2, "s1", "content_words", Concept("entity", "cat")),
                               MapAtom(4, "s1", "content_words", Concept("action", "bite"))}),
                    frozenset())
    with pytest.raises(NoInterpretation, match="^s1: mapping names 1 entities and 1 actions$"):
        dir_rev_m(model, cat_bitten)


def test_a_word_with_two_entity_readings_is_one_noun(lexicon, cat_bitten):
    # "cat" names the alphabetically first of its entities, and "dog" stays
    # the second noun.
    homograph = parse_lexicon("cat\tcontent\tentity:ball") | lexicon
    dr = dir_rev_m(beginner_model(cat_bitten, beginner_profile(homograph)), cat_bitten)
    assert dr.direct == EventTerm("bite", "ball", "dog")


def test_discourse_words_never_join_events(beginner):
    s = encode_text(STORIES["kill_then_push"]).sentences[1]
    dr = dir_rev_m(beginner_model(s, beginner), s)
    assert dr.direct == EventTerm("push", "dog", "cat")


def test_voice_classification(lexicon, cat_bitten):
    assert surface_dir_rev(cat_bitten, lexicon)[1] == PASSIVE
    assert surface_dir_rev(sentence("The cat pushed the dog."), lexicon)[1] == ACTIVE
    assert surface_dir_rev(sentence("Holyfield was bitten by Tyson."), lexicon)[1] == PASSIVE


def test_auxiliary_without_a_later_participle_is_active(lexicon):
    assert surface_dir_rev(sentence("The dog killed the cat that was there."), lexicon)[1] == ACTIVE


@pytest.mark.parametrize("text", ["cat the dog.", "dog the cat."])
def test_verb_on_a_noun_is_not_between_the_nouns(lexicon, text):
    verb_cat = parse_lexicon("cat\tcontent\taction:push") | lexicon
    with pytest.raises(UnrecognizedTemplate, match=NOT_A_TEMPLATE):
        surface_dir_rev(sentence(text), verb_cat)


def test_word_salad_is_not_a_template(lexicon):
    with pytest.raises(UnrecognizedTemplate, match=NOT_A_TEMPLATE):
        surface_dir_rev(sentence("cat dog the."), lexicon)


def test_verb_outside_the_noun_pair_is_not_a_template(lexicon):
    with pytest.raises(UnrecognizedTemplate, match=NOT_A_TEMPLATE):
        surface_dir_rev(sentence("pushed the cat the dog."), lexicon)


def test_correct_meaning_by_voice():
    dr = DirRev(EventTerm("bite", "cat", "dog"), EventTerm("bite", "dog", "cat"))
    assert correct_meaning(dr, ACTIVE) == dr.direct
    assert correct_meaning(dr, PASSIVE) == dr.reverse


def test_symmetric_events_collapse():
    same = EventTerm("push", "cat", "cat")
    dr = DirRev(same, same.reversed())
    assert correct_meaning(dr, ACTIVE) == correct_meaning(dr, PASSIVE)


def test_cue_availability_tracks_processed_forms(cat_bitten, lexicon, beginner):
    advanced_full = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, 11))[0]
    assert grm_cues_available(advanced_full, cat_bitten, PASSIVE, advanced_profile(lexicon, 11))
    assert not grm_cues_available(beginner_model(cat_bitten, beginner), cat_bitten,
                                  PASSIVE, beginner)
    # with capacity 3 even the advanced learner processes content words only
    low = advanced_profile(lexicon, 3)
    assert not grm_cues_available(enumerate_p1_models(cat_bitten, low)[0], cat_bitten,
                                  PASSIVE, low)


def test_passive_voice_alone_is_not_a_cue(kb, lexicon, cat_bitten):
    # Without the participle reading of "bitten" the learner still processes
    # "was" as passive voice, which is not enough to assign the roles.
    learner = advanced_profile(lexicon - {e for e in lexicon if e.word == "bitten"
                                          and e.concept == Concept("sem", "past_participle")})
    model = enumerate_p1_models(cat_bitten, learner)[0]
    assert Concept("sem", "passive_voice") in {a.concept for a in model.atoms}
    (m,) = interpret_paragraph(encode_text(SINGLE_SENTENCES["cat_bitten"]), learner, kb, lexicon)
    assert (m.event, m.strategy) == (EventTerm("bite", "cat", "dog"), FNP_DEFAULT)


def test_first_noun_default_and_exceptions(kb, lexicon, beginner):
    state = WorldState()

    def pair(text):
        s = sentence(text)
        return dir_rev_m(beginner_model(s, beginner), s)

    assert extract_fnp(pair(SINGLE_SENTENCES["cat_bitten"]), state, kb) == (
        EventTerm("bite", "cat", "dog"), FNP_DEFAULT)
    assert extract_fnp(pair(SINGLE_SENTENCES["shoe_bitten"]), state, kb) == (
        EventTerm("bite", "dog", "shoe"), LEX_SEM_2A)
    assert extract_fnp(pair(SINGLE_SENTENCES["man_bitten"]), state, kb) == (
        EventTerm("bite", "dog", "man"), EVENT_PROB_2B)
    assert extract_fnp(pair(SINGLE_SENTENCES["boxers"]), state, kb) == (
        EventTerm("bite", "tyson", "holyfield"), PRIOR_KNOWLEDGE_2D)


def test_story_with_inertial_first_event(kb, lexicon, beginner):
    meanings = interpret_paragraph(encode_text(STORIES["push_then_bite"]), beginner, kb, lexicon)
    assert [(m.event, m.strategy, m.step) for m in meanings] == [
        (EventTerm("push", "cat", "dog"), FNP_DEFAULT, 1),
        (EventTerm("bite", "dog", "cat"), FNP_DEFAULT, 2),
    ]


def test_story_where_the_killing_conditions_the_sequel(kb, lexicon, beginner):
    meanings = interpret_paragraph(encode_text(STORIES["kill_then_push"]), beginner, kb, lexicon)
    assert [(m.event, m.strategy) for m in meanings] == [
        (EventTerm("kill", "cat", "dog"), FNP_DEFAULT),
        (EventTerm("push", "cat", "dog"), LEX_SEM_2A),
    ]


def test_single_sentence_paragraph_uses_prior_knowledge(kb, lexicon, beginner):
    meanings = interpret_paragraph(encode_text(SINGLE_SENTENCES["boxers"]), beginner, kb, lexicon)
    assert [(m.event, m.strategy) for m in meanings] == [
        (EventTerm("bite", "tyson", "holyfield"), PRIOR_KNOWLEDGE_2D),
    ]


def test_advanced_learner_reads_the_passive_correctly(kb, lexicon, advanced):
    meanings = interpret_paragraph(encode_text(SINGLE_SENTENCES["cat_bitten"]), advanced, kb, lexicon)
    (m,) = meanings
    assert m.event == EventTerm("bite", "dog", "cat")
    assert m.strategy == GRM_CUES


def test_surface_reading_matches_learner_reading(lexicon, cat_bitten, beginner):
    surface, _ = surface_dir_rev(cat_bitten, lexicon)
    learner = dir_rev_m(beginner_model(cat_bitten, beginner), cat_bitten)
    assert surface == learner


def test_label_and_event_agree_on_the_grammar(grammar, kb, lexicon, beginner):
    state = WorldState()
    for s in grammar:
        dr = dir_rev_m(beginner_model(s, beginner), s)
        event, label = extract_fnp(dr, state, kb)
        if label == FNP_DEFAULT:
            assert event == dr.direct
        else:
            assert event == dr.reverse


def test_neutral_world_always_yields_the_direct_meaning(grammar, kb, lexicon, beginner):
    # all entities animate, no unlikelihood patterns, nothing known to have happened
    neutral = parse_world("".join(f"entity\t{name}\tanimate\n" for name in sorted(kb.entity_names())))
    for s in grammar:
        (m,) = interpret_paragraph(encode_text(s.text() + "."), beginner, neutral, lexicon)
        dr = dir_rev_m(beginner_model(s, beginner), s)
        assert m.event == dr.direct
        assert m.strategy == FNP_DEFAULT


def test_advanced_learner_is_correct_on_every_grammar_sentence(grammar, kb, lexicon, advanced):
    for s in grammar:
        (m,) = interpret_paragraph(encode_text(s.text() + "."), advanced, kb, lexicon)
        assert m.strategy == GRM_CUES
        assert m.event == correct_meaning(*surface_dir_rev(s, lexicon))


def test_each_meaning_says_whether_it_is_the_encoded_event(grammar, kb, lexicon, advanced,
                                                           beginner):
    starved = beginner_profile(lexicon, capacity=1)
    for s in grammar:
        truth = correct_meaning(*surface_dir_rev(s, lexicon))
        for profile in (advanced, beginner):
            (m,) = interpret_paragraph(encode_text(s.text() + "."), profile, kb, lexicon)
            assert m.correct is (m.event == truth)
        (m,) = interpret_paragraph(encode_text(s.text() + "."), starved, kb, lexicon)
        assert m.event is None and m.correct is None


def test_extraction_is_independent_of_the_chosen_model(grammar, kb, lexicon, advanced, beginner):
    state = WorldState()
    for s in grammar:
        _, voice = surface_dir_rev(s, lexicon)
        for profile in (advanced, beginner):
            outcomes = {
                extract_with_model(model, s, voice, profile, state, kb)
                for model in enumerate_p1_models(s, profile)
            }
            assert len(outcomes) == 1


def test_interpretation_is_deterministic(kb, lexicon, beginner):
    paragraph = encode_text(STORIES["kill_then_push"])
    first = interpret_paragraph(paragraph, beginner, kb, lexicon)
    second = interpret_paragraph(paragraph, beginner, kb, lexicon)
    assert first == second


def test_sparse_sentences_are_recorded_not_fatal(kb, lexicon):
    # capacity 1 lets the learner process one word: too few to name an event
    starved = beginner_profile(lexicon, capacity=1)
    meanings = interpret_paragraph(encode_text(STORIES["push_then_bite"]), starved, kb, lexicon)
    assert [m.event for m in meanings] == [None, None]
    assert [m.strategy for m in meanings] == [None, None]
    assert [m.step for m in meanings] == [1, 2]


def test_template_failures_are_fatal(kb, lexicon, beginner):
    with pytest.raises(UnrecognizedTemplate):
        interpret_paragraph(encode_text("cat dog the."), beginner, kb, lexicon)
