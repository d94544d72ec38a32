from itertools import product

from inputproc import (
    CONTENT_WORDS,
    LEAF_CATEGORIES,
    NM_FORMS,
    NR_M_FORMS,
    R_M_FORMS,
    Concept,
    LexEntry,
    MapAtom,
    P1Model,
    SentenceEncoding,
    advanced_profile,
    beginner_profile,
    candidate_meanings,
    deterministic_maps,
    enumerate_p1_models,
    is_ml_ctg_closed,
    is_ml_pos_closed,
    position_of,
    skippable,
)
from inputproc.principle1 import _likelihood_key

from oracles import brute_force_models, entry_tuples, model_key

SEM = "sem"


def atom(k, category, kind, name, sid="s1"):
    return MapAtom(k, sid, category, Concept(kind, name))


# Expected atoms for "the cat was bitten by the dog", by the capacity at which
# they first clear the resource gate.
CONTENT_ATOMS = {
    1: atom(2, CONTENT_WORDS, "entity", "cat"),
    2: atom(7, CONTENT_WORDS, "entity", "dog"),
    3: atom(4, CONTENT_WORDS, "action", "bite"),
}
NONREDUNDANT_ATOMS = {
    atom(1, NR_M_FORMS, SEM, "definite"),
    atom(2, NR_M_FORMS, SEM, "third_person_singular"),
    atom(6, NR_M_FORMS, SEM, "definite"),
    atom(3, NR_M_FORMS, SEM, "passive_voice"),
    atom(3, NR_M_FORMS, SEM, "past_tense"),
    atom(4, NR_M_FORMS, SEM, "past_participle"),
}
AGENCY_ATOM = atom(5, R_M_FORMS, SEM, "agency")
REDUNDANT_PERSON_ATOM = atom(3, R_M_FORMS, SEM, "third_person_singular")


def consumed_by_reading(s, profile):
    """(word index, category) -> resource units consumed. Every concept of one
    reading shares its likelihood, so the map loses nothing."""
    return {(c.k, c.category): c.consumed for c in candidate_meanings(s, profile)}


# The paper's ml_wrd(a, b), "a is strictly more likely to be processed than b",
# holds exactly when a consumes fewer resource units than b.

def test_ml_wrd_category_dominates(cat_bitten, advanced):
    consumed = consumed_by_reading(cat_bitten, advanced)
    assert consumed[(2, CONTENT_WORDS)] < consumed[(3, NR_M_FORMS)]
    assert not consumed[(3, NR_M_FORMS)] < consumed[(2, CONTENT_WORDS)]


def test_ml_wrd_position_breaks_ties_within_category(cat_bitten, advanced):
    # "the" in initial position outranks "the" in final position
    consumed = consumed_by_reading(cat_bitten, advanced)
    assert consumed[(1, NR_M_FORMS)] < consumed[(6, NR_M_FORMS)]
    assert not consumed[(6, NR_M_FORMS)] < consumed[(1, NR_M_FORMS)]


def test_ml_wrd_same_category_same_position_unordered(cat_bitten, advanced):
    # "was" and "by" are both redundant forms in medial position
    consumed = consumed_by_reading(cat_bitten, advanced)
    assert consumed[(3, R_M_FORMS)] == consumed[(5, R_M_FORMS)]


def test_likelihood_key_orders_as_the_closed_orders():
    # With n = 1, words 1, 3 and 5 of five are initial, medial and final.
    s = SentenceEncoding("s1", ("a", "b", "c", "d", "e"))
    readings = [(k, category) for k in (1, 3, 5) for category in LEAF_CATEGORIES]
    assert {position_of(k, s, 1) for k, _ in readings} == {"initial", "medial", "final"}
    for (ka, ca), (kb, cb) in product(readings, repeat=2):
        more_likely = is_ml_ctg_closed(ca, cb) or (
            ca == cb and is_ml_pos_closed(position_of(ka, s, 1), position_of(kb, s, 1)))
        assert (_likelihood_key(ka, ca, s, 1) < _likelihood_key(kb, cb, s, 1)) == more_likely


def test_ranks_of_known_candidates(cat_bitten, advanced):
    consumed = {(c.k, c.category, c.concept): c.consumed
                for c in candidate_meanings(cat_bitten, advanced)}
    assert consumed[(2, CONTENT_WORDS, Concept("entity", "cat"))] == 0
    assert consumed[(4, CONTENT_WORDS, Concept("action", "bite"))] == 2
    # brute-force count: 3 content readings plus 6 nonredundant-form readings
    assert consumed[(5, R_M_FORMS, Concept(SEM, "agency"))] == 9


def test_overhead_per_category():
    # One reading of each leaf category. Redundant meaningful and
    # nonmeaningful forms pay a one-unit surcharge, the others none, so at
    # capacity consumed + 1 exactly the surcharged readings are gated out.
    words = {CONTENT_WORDS: "cat", NR_M_FORMS: "the", R_M_FORMS: "by", NM_FORMS: "oh"}
    lexicon = frozenset(
        LexEntry(word, category, Concept("entity" if category == CONTENT_WORDS else SEM, word))
        for category, word in words.items())
    s = SentenceEncoding("s1", tuple(words.values()))
    cands = candidate_meanings(s, advanced_profile(lexicon))
    assert sorted(c.category for c in cands) == sorted(LEAF_CATEGORIES)
    surcharge = {CONTENT_WORDS: 0, NR_M_FORMS: 0, R_M_FORMS: 1, NM_FORMS: 1}
    for i, c in enumerate(cands):
        for extra in (0, 1, 2):
            at = candidate_meanings(s, advanced_profile(lexicon, c.consumed + extra))[i]
            assert at.consumed == c.consumed
            assert at.gated == (surcharge[c.category] < extra)


def test_candidate_meanings_report_gate(cat_bitten, lexicon):
    meanings = candidate_meanings(cat_bitten, advanced_profile(lexicon, 3))
    gated = {(c.k, c.category, c.concept.name) for c in meanings if c.gated}
    assert gated == {(2, CONTENT_WORDS, "cat"), (7, CONTENT_WORDS, "dog"),
                     (4, CONTENT_WORDS, "bite")}
    by_key = {(c.k, c.category, c.concept.name): c.consumed for c in meanings}
    assert by_key[(5, R_M_FORMS, "agency")] == 9


def test_candidates_come_in_canonical_order(cat_bitten, advanced):
    keys = [(c.k, c.category, c.concept.kind, c.concept.name)
            for c in candidate_meanings(cat_bitten, advanced)]
    assert keys == sorted(keys)
    assert [k for k, *_ in keys] == [1, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7]


def test_deterministic_maps_small_capacities(cat_bitten, lexicon):
    assert deterministic_maps(cat_bitten, advanced_profile(lexicon, 0)) == frozenset()
    assert deterministic_maps(cat_bitten, advanced_profile(lexicon, 3)) == frozenset(CONTENT_ATOMS.values())


def test_capacity_cannot_buy_uninternalized_forms(cat_bitten, lexicon):
    maps = deterministic_maps(cat_bitten, beginner_profile(lexicon, 100))
    assert maps == frozenset(CONTENT_ATOMS.values())


def test_skippable_is_the_redundant_person_marker(cat_bitten, lexicon):
    profile = advanced_profile(lexicon, 11)
    determined = deterministic_maps(cat_bitten, profile)
    assert skippable(determined, cat_bitten, profile) == frozenset({REDUNDANT_PERSON_ATOM})


def test_same_surface_concepts_are_not_skippable(cat_bitten, lexicon):
    # both "the" tokens map to definite, but identical surfaces do not license a skip
    profile = advanced_profile(lexicon, 11)
    determined = deterministic_maps(cat_bitten, profile)
    definites = {a for a in determined if a.concept.name == "definite"}
    assert len(definites) == 2
    assert not definites & skippable(determined, cat_bitten, profile)


def test_content_only_set_has_nothing_to_skip(cat_bitten, beginner):
    determined = deterministic_maps(cat_bitten, beginner)
    assert skippable(determined, cat_bitten, beginner) == frozenset()


def test_models_across_the_capacity_ladder(cat_bitten, lexicon):
    expected = set()
    for cap in (0, 1, 2, 3):
        models = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, cap))
        if cap:
            expected.add(CONTENT_ATOMS[cap])
        assert len(models) == 1
        assert models[0].atoms == frozenset(expected)
    models = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, 9))
    assert len(models) == 1
    assert models[0].atoms == frozenset(expected) | NONREDUNDANT_ATOMS
    assert len(models[0].atoms) == 9


def test_two_models_at_capacity_eleven(cat_bitten, lexicon):
    models = enumerate_p1_models(cat_bitten, advanced_profile(lexicon, 11))
    assert len(models) == 2
    keep, drop = models
    assert keep.skipped == frozenset()
    assert drop.skipped == frozenset({REDUNDANT_PERSON_ATOM})
    assert keep.atoms - drop.atoms == {REDUNDANT_PERSON_ATOM}
    assert AGENCY_ATOM in keep.atoms and AGENCY_ATOM in drop.atoms


def test_beginner_models_at_capacity_eleven(cat_bitten, beginner):
    models = enumerate_p1_models(cat_bitten, beginner)
    assert len(models) == 1
    assert models[0].atoms == frozenset(CONTENT_ATOMS.values())


def test_capacity_monotonicity(cat_bitten, lexicon):
    previous = frozenset()
    for cap in range(16):
        current = deterministic_maps(cat_bitten, advanced_profile(lexicon, cap))
        assert previous <= current
        previous = current


def test_more_likely_implies_smaller_rank(cat_bitten, advanced, beginner):
    def more_likely(a, b):
        pa, pb = (position_of(c.k, cat_bitten, 2) for c in (a, b))
        return is_ml_ctg_closed(a.category, b.category) or (
            a.category == b.category and is_ml_pos_closed(pa, pb))

    for profile in (advanced, beginner):
        cands = candidate_meanings(cat_bitten, profile)
        for b in cands:
            # the rank is the number of strictly-more-likely candidates
            assert b.consumed == sum(more_likely(a, b) for a in cands)
            for a in cands:
                if more_likely(a, b):
                    assert a.consumed < b.consumed


def test_skipped_atom_keeps_the_atom_that_delivers_its_concept():
    # "b" delivers y for the redundant "a", and "a" delivers it for "b"; at
    # most one of the two may be skipped, since skipping both loses the
    # redundant reading's only source.
    lexicon = [LexEntry("a", NR_M_FORMS, Concept(SEM, "y")), LexEntry("a", R_M_FORMS, Concept(SEM, "y")),
               LexEntry("b", NR_M_FORMS, Concept(SEM, "y"))]
    s = SentenceEncoding("s1", ("a", "b"))
    models = enumerate_p1_models(s, advanced_profile(lexicon, 4, 1))
    assert [m.skipped for m in models] == [
        frozenset(), frozenset({atom(1, R_M_FORMS, SEM, "y")}), frozenset({atom(2, NR_M_FORMS, SEM, "y")})]
    assert {model_key(m) for m in models} == brute_force_models(["a", "b"], entry_tuples(lexicon), 4, 1)


def test_models_are_ordered_lexicographically_on_the_skipped_atoms():
    # "b" and "c" each repeat the concept of the more likely "a", so either,
    # both or neither may be skipped; (b) < (b, c) < (c).
    lexicon = [LexEntry("a", NR_M_FORMS, Concept(SEM, "y")), LexEntry("b", R_M_FORMS, Concept(SEM, "y")),
               LexEntry("c", R_M_FORMS, Concept(SEM, "y"))]
    s = SentenceEncoding("s1", ("a", "b", "c"))
    b, c = atom(2, R_M_FORMS, SEM, "y"), atom(3, R_M_FORMS, SEM, "y")
    models = enumerate_p1_models(s, advanced_profile(lexicon, 11, 1))
    assert [m.skipped for m in models] == [frozenset(), frozenset({b}), frozenset({b, c}), frozenset({c})]


def test_equally_likely_readings_do_not_deliver_to_each_other():
    # "b" and "c" are both medial redundant forms of y: neither is strictly
    # more likely, so neither may be skipped.
    lexicon = [LexEntry("b", R_M_FORMS, Concept(SEM, "y")), LexEntry("c", R_M_FORMS, Concept(SEM, "y"))]
    s = SentenceEncoding("s1", ("a", "b", "c", "d"))
    profile = advanced_profile(lexicon, 11, 1)
    assert skippable(deterministic_maps(s, profile), s, profile) == frozenset()
    (model,) = enumerate_p1_models(s, profile)
    assert {model_key(model)} == brute_force_models(list(s.tokens), entry_tuples(lexicon), 11, 1)


def test_model_count_is_two_to_the_skippable(cat_bitten, lexicon):
    for cap in range(14):
        profile = advanced_profile(lexicon, cap)
        determined = deterministic_maps(cat_bitten, profile)
        optional = skippable(determined, cat_bitten, profile)
        models = enumerate_p1_models(cat_bitten, profile)
        assert len(models) == 2 ** len(optional)
        assert any(m.skipped == frozenset() for m in models)
        assert models[0].skipped == frozenset()


def test_beginner_never_maps_forms(cat_bitten, lexicon):
    for cap in range(0, 31, 5):
        for model in enumerate_p1_models(cat_bitten, beginner_profile(lexicon, cap)):
            assert all(a.category == CONTENT_WORDS for a in model.atoms)


def test_models_match_bruteforce_enumeration(cat_bitten, lexicon):
    entries = entry_tuples(lexicon)
    content_entries = [e for e in entries if e[1] == CONTENT_WORDS]
    for cap in range(14):
        expected = brute_force_models(list(cat_bitten.tokens), entries, cap)
        actual = {model_key(m) for m in enumerate_p1_models(cat_bitten, advanced_profile(lexicon, cap))}
        assert actual == expected
        expected = brute_force_models(list(cat_bitten.tokens), content_entries, cap)
        actual = {model_key(m) for m in enumerate_p1_models(cat_bitten, beginner_profile(lexicon, cap))}
        assert actual == expected


def test_canonical_model_is_the_deterministic_mapping(grammar, lexicon):
    for s in grammar:
        for make in (advanced_profile, beginner_profile):
            for capacity in range(12):
                profile = make(lexicon, capacity)
                assert enumerate_p1_models(s, profile)[0] == P1Model(deterministic_maps(s, profile), frozenset())
