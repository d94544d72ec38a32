"""Acceptance suite: one test per exit criterion, exact values, zero tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion; a failing criterion shows up as a failing test.
"""

import subprocess
import sys

from inputproc import (
    CONTENT_WORDS,
    GRM_CUES,
    NR_M_FORMS,
    R_M_FORMS,
    Concept,
    EventTerm,
    MapAtom,
    WorldState,
    advanced_profile,
    apply_effects,
    beginner_profile,
    check_sentence,
    correct_meaning,
    deterministic_maps,
    encode_text,
    enumerate_p1_models,
    generate_valuable,
    hpd,
    impossible,
    interpret_paragraph,
    is_ml_ctg_closed,
    parse_world,
    surface_dir_rev,
    unlikely,
)
from inputproc.lexicon import LEAF_CATEGORIES
from inputproc.principle2 import extract_with_model

from conftest import SINGLE_SENTENCES, STORIES, sentence
from oracles import brute_force_models, entry_tuples, model_key


def atom(k, category, name, kind="sem"):
    return MapAtom(k, "s1", category, Concept(kind, name))


def correctness(meaning, s, lexicon):
    truth = correct_meaning(*surface_dir_rev(s, lexicon))
    return meaning.event == truth


def test_criterion_1_capacity_ladder(lexicon, cat_bitten):
    ladder = {
        0: set(),
        1: {atom(2, CONTENT_WORDS, "cat", "entity")},
        2: {atom(7, CONTENT_WORDS, "dog", "entity")},
        3: {atom(4, CONTENT_WORDS, "bite", "action")},
        9: {
            atom(1, NR_M_FORMS, "definite"),
            atom(2, NR_M_FORMS, "third_person_singular"),
            atom(6, NR_M_FORMS, "definite"),
            atom(3, NR_M_FORMS, "passive_voice"),
            atom(3, NR_M_FORMS, "past_tense"),
            atom(4, NR_M_FORMS, "past_participle"),
        },
    }
    cumulative = set()
    for capacity, additions in ladder.items():
        cumulative |= additions
        models = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, capacity))
        assert len(models) == 1, f"capacity {capacity}"
        assert models[0].atoms == cumulative, f"capacity {capacity}"

    models = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, 11))
    assert len(models) == 2
    full, reduced = models
    marker = atom(3, R_M_FORMS, "third_person_singular")
    agency = atom(5, R_M_FORMS, "agency")
    assert full.atoms == cumulative | {agency, marker}
    assert reduced.atoms == cumulative | {agency}
    assert full.atoms - reduced.atoms == {marker}
    print("\nPASS criterion 1: capacity ladder and the two-way split at capacity 11")


def test_criterion_2_beginner_predictions(kb, lexicon, beginner):
    step1 = WorldState()

    def interpret(text):
        return interpret_paragraph(encode_text(text), beginner, kb, lexicon)

    (m,) = interpret(SINGLE_SENTENCES["cat_bitten"])
    assert m.event == EventTerm("bite", "cat", "dog")
    assert not correctness(m, sentence(SINGLE_SENTENCES["cat_bitten"]), lexicon)

    (m,) = interpret(SINGLE_SENTENCES["shoe_bitten"])
    assert m.event == EventTerm("bite", "dog", "shoe")
    assert impossible(EventTerm("bite", "shoe", "dog"), step1, kb)
    assert correctness(m, sentence(SINGLE_SENTENCES["shoe_bitten"]), lexicon)

    (m,) = interpret(SINGLE_SENTENCES["man_bitten"])
    assert m.event == EventTerm("bite", "dog", "man")
    assert unlikely(EventTerm("bite", "man", "dog"), step1, kb)
    assert correctness(m, sentence(SINGLE_SENTENCES["man_bitten"]), lexicon)

    (m,) = interpret(SINGLE_SENTENCES["boxers"])
    assert m.event == EventTerm("bite", "tyson", "holyfield")
    assert hpd(EventTerm("bite", "tyson", "holyfield"), kb)
    assert correctness(m, sentence(SINGLE_SENTENCES["boxers"]), lexicon)

    first, second = interpret(STORIES["push_then_bite"])
    assert first.event == EventTerm("push", "cat", "dog")
    assert second.event == EventTerm("bite", "dog", "cat")
    assert not correctness(second, encode_text(STORIES["push_then_bite"]).sentences[1], lexicon)

    first, second = interpret(STORIES["kill_then_push"])
    assert first.event == EventTerm("kill", "cat", "dog")
    assert second.event == EventTerm("push", "cat", "dog")
    step2 = apply_effects(step1, first.event, kb)
    assert impossible(EventTerm("push", "dog", "cat"), step2, kb)
    assert correctness(second, encode_text(STORIES["kill_then_push"]).sentences[1], lexicon)
    print("\nPASS criterion 2: beginner event extraction with all three rescue routes")


def test_criterion_3_advanced_prediction(kb, lexicon, advanced):
    (m,) = interpret_paragraph(encode_text(SINGLE_SENTENCES["cat_bitten"]), advanced, kb, lexicon)
    assert m.event == EventTerm("bite", "dog", "cat")
    assert m.strategy == GRM_CUES
    assert correctness(m, sentence(SINGLE_SENTENCES["cat_bitten"]), lexicon)
    print("\nPASS criterion 3: advanced learner reads the passive through its cues")


def test_criterion_4_teaching_value_classification(kb, lexicon):
    state = WorldState()
    expectations = {
        "cat_bitten": True,
        "shoe_bitten": False,
        "man_bitten": False,
        "boxers": False,
        "rabbit_ball": False,
    }
    for key, expected in expectations.items():
        verdict = check_sentence(sentence(SINGLE_SENTENCES[key]), kb, state, lexicon)
        assert verdict.valuable is expected, key
    print("\nPASS criterion 4: valuable/not-valuable split over the five reference sentences")


def test_criterion_5_oracle_equivalence(grammar, kb, lexicon):
    entries = entry_tuples(lexicon)
    content_entries = [e for e in entries if e[1] == CONTENT_WORDS]
    for s in grammar:
        tokens = list(s.tokens)
        expected = brute_force_models(tokens, entries, 11)
        actual = {model_key(m) for m in enumerate_p1_models(s, advanced_profile(lexicon, 11))}
        assert actual == expected, s.text()
        expected = brute_force_models(tokens, content_entries, 11)
        actual = {model_key(m) for m in enumerate_p1_models(s, beginner_profile(lexicon, 11))}
        assert actual == expected, s.text()

    state = WorldState()
    expected_texts = [
        s.text().capitalize() + "."
        for s in grammar
        if check_sentence(s, kb, state, lexicon).valuable
    ]
    assert [t for t, _ in generate_valuable(kb, lexicon)] == expected_texts
    print("\nPASS criterion 5: model enumeration and generation match brute force"
          f" over {len(grammar)} grammar sentences")


def test_criterion_6_invariant_suites(grammar, kb, lexicon, advanced, beginner):
    # leaf-category order axioms
    for a in LEAF_CATEGORIES:
        assert not is_ml_ctg_closed(a, a)
        for b in LEAF_CATEGORIES:
            for c in LEAF_CATEGORIES:
                if is_ml_ctg_closed(a, b) and is_ml_ctg_closed(b, c):
                    assert is_ml_ctg_closed(a, c)
            if a != b:
                assert is_ml_ctg_closed(a, b) != is_ml_ctg_closed(b, a)

    # capacity monotonicity on every grammar sentence
    for s in grammar:
        previous = frozenset()
        for capacity in range(16):
            current = deterministic_maps(s, advanced_profile(lexicon, capacity))
            assert previous <= current, (s.text(), capacity)
            previous = current

    # the advanced learner is right on every grammar sentence
    for s in grammar:
        (m,) = interpret_paragraph(encode_text(s.text() + "."), advanced, kb, lexicon)
        assert m.event == correct_meaning(*surface_dir_rev(s, lexicon))

    # meaning extraction does not depend on the chosen interpretation
    state = WorldState()
    for s in grammar:
        _, voice = surface_dir_rev(s, lexicon)
        for profile in (advanced, beginner):
            outcomes = {
                extract_with_model(model, s, voice, profile, state, kb)
                for model in enumerate_p1_models(s, profile)
            }
            assert len(outcomes) == 1, s.text()

    # a world with no obstacles never overrides the first-noun default
    neutral = parse_world(
        "".join(f"entity\t{name}\tanimate\n" for name in sorted(kb.entity_names()))
    )
    for s in grammar:
        (m,) = interpret_paragraph(encode_text(s.text() + "."), beginner, neutral, lexicon)
        direct = surface_dir_rev(s, lexicon)[0].direct
        assert m.event == direct, s.text()
    print(f"\nPASS criterion 6: invariant suites over {len(grammar)} grammar sentences")


def test_criterion_7_cli_determinism(tmp_path):
    story = tmp_path / "story.txt"
    story.write_text(STORIES["kill_then_push"], encoding="utf-8")
    commands = [
        ["p1map", "--text", str(story)],
        ["interpret", "--learner", "beginner", "--text", str(story)],
        ["check", "--text", str(story)],
        ["generate"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "inputproc", *argv],
                capture_output=True, check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout
    print("\nPASS criterion 7: byte-identical CLI output across consecutive runs")
