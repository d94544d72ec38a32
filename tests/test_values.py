"""Every public value class is an immutable value: equal fields make equal
values with equal hashes, values of different classes never compare equal,
there is no ordering, fields cannot be assigned or deleted, and copies and
pickles round-trip."""

import copy
import pickle

import pytest

from inputproc import (
    CandidateMeaning,
    Concept,
    DirRev,
    EntityDef,
    EventTerm,
    ExtractedMeaning,
    KnowledgeBase,
    LearnerProfile,
    LexEntry,
    Lexicon,
    MapAtom,
    P1Model,
    ParagraphEncoding,
    Schema,
    SentenceEncoding,
    UnlikelyRule,
    ValuableVerdict,
    WorldState,
)

CAT = Concept("entity", "cat")
BITE = EventTerm("bite", "cat", "dog")
ATOM = MapAtom(2, "s1", "content_words", CAT)
S1 = SentenceEncoding("s1", ("the", "cat"))
CAT_DEF = EntityDef("cat", frozenset({"animate"}))
RULE = UnlikelyRule("bite", "human", "*")

# Each class with keyword arguments in field order.
VALUES = [
    (Concept, dict(kind="entity", name="cat")),
    (LexEntry, dict(word="cat", category="content_words", concept=CAT)),
    (LearnerProfile, dict(name="custom", lexicon=Lexicon({LexEntry("cat", "content_words", CAT)}),
                          capacity=11, n=2)),
    (SentenceEncoding, dict(id="s1", tokens=("the", "cat"))),
    (ParagraphEncoding, dict(id="p", sentences=(S1,))),
    (MapAtom, dict(k=2, sentence="s1", category="content_words", concept=CAT)),
    (CandidateMeaning, dict(k=2, category="content_words", concept=CAT, consumed=0, gated=True)),
    (P1Model, dict(atoms=frozenset({ATOM}), skipped=frozenset())),
    (DirRev, dict(direct=BITE, reverse=BITE.reversed())),
    (ExtractedMeaning, dict(sentence="s1", event=BITE, strategy="fnp_default", step=1,
                            correct=False)),
    (ValuableVerdict, dict(target="s1", valuable=True, fnp_event=BITE, cue_event=BITE.reversed(),
                           explanation=("fnp_default", "grm_cues"))),
    (Schema, dict(n1="cat", v="bitten", n2="dog")),
    (EventTerm, dict(action="bite", agent="cat", patient="dog")),
    (EntityDef, dict(name="cat", properties=frozenset({"animate"}))),
    (UnlikelyRule, dict(action="bite", agent_prop="human", patient_prop="*")),
    (WorldState, dict(step=1, dead=frozenset({"cat", "dog"}))),
    (KnowledgeBase, dict(entities=(CAT_DEF,), unlikely_rules=(RULE,), happened=frozenset({BITE}))),
]
IDS = [cls.__name__ for cls, _ in VALUES]
values = pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)


@values
def test_equal_fields_give_equal_values_and_hashes(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@values
def test_keyword_construction_sets_every_field(cls, fields):
    value = cls(**fields)
    for name, field_value in fields.items():
        assert getattr(value, name) == field_value
    assert cls.__match_args__ == tuple(fields)


@values
def test_no_equality_across_classes_or_with_tuples(cls, fields):
    twin = type(cls.__name__, (cls,), {})
    value = cls(**fields)
    assert value != twin(**fields) and twin(**fields) != value
    assert value != tuple(fields.values())
    assert tuple(fields.values()) != value


@values
def test_values_are_unordered(cls, fields):
    a, b = cls(**fields), cls(**fields)
    with pytest.raises(TypeError):
        a < b
    with pytest.raises(TypeError):
        a >= b


@values
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(**fields)
    for name, field_value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, field_value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(**fields)


@values
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip(cls, fields, clone):
    value = cls(**fields)
    twin = clone(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)


def test_classes_with_the_same_fields_never_compare_equal():
    trio = (EventTerm("bite", "cat", "dog"), UnlikelyRule("bite", "cat", "dog"),
            Schema("bite", "cat", "dog"))
    assert len(set(trio)) == 3
    assert all(a != b for a in trio for b in trio if a is not b)


def test_reprs_name_every_field():
    assert repr(BITE) == "EventTerm(action='bite', agent='cat', patient='dog')"
    assert repr(ATOM) == ("MapAtom(k=2, sentence='s1', category='content_words', "
                          "concept=Concept(kind='entity', name='cat'))")
    assert repr(S1) == "SentenceEncoding(id='s1', tokens=('the', 'cat'))"
    kb = KnowledgeBase((CAT_DEF,), (), frozenset())
    assert repr(kb) == ("KnowledgeBase(entities=(EntityDef(name='cat', properties=frozenset({'animate'})),), "
                        "unlikely_rules=(), happened=frozenset())")


def test_values_match_positionally():
    match ATOM:
        case MapAtom(k, sentence, _, Concept(kind, name)):
            assert (k, sentence, kind, name) == (2, "s1", "entity", "cat")
        case _:
            pytest.fail("MapAtom did not match its fields")
