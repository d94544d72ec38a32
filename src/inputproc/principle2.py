"""Event meaning extraction: the First Noun Principle, its exceptions, and
grammatical-cue override.

The direct meaning of a sentence takes the first processed noun as agent; the
reverse meaning swaps agent and patient. By default a learner extracts the
direct meaning. World knowledge can flip the default: the reverse meaning is
known to have happened, the direct one is physically impossible while the
reverse is not, or the direct one is improbable while the reverse is
unremarkable. A learner who processed the sentence's grammatical cues skips
the default entirely and reads the sentence correctly.

Paragraphs are interpreted left to right: each extracted event, right or
wrong, updates the story state the next sentence is judged against.
"""

from __future__ import annotations

from ._value import value_class
from .errors import NoInterpretation, UnrecognizedTemplate
from .lexicon import (
    ACTION,
    ENTITY,
    PASSIVE_VOICE_CONCEPT,
    PAST_PARTICIPLE_CONCEPT,
    LearnerProfile,
    LexEntry,
    as_lexicon,
)
from .principle1 import P1Model, enumerate_p1_models
from .text import ParagraphEncoding, SentenceEncoding
from .world import (
    EventTerm,
    KnowledgeBase,
    WorldState,
    apply_effects,
    hpd,
    impossible,
    unlikely,
)

ACTIVE = "active"
PASSIVE = "passive"

FNP_DEFAULT = "fnp_default"
LEX_SEM_2A = "lex_sem_2a"
EVENT_PROB_2B = "event_prob_2b"
PRIOR_KNOWLEDGE_2D = "prior_knowledge_2d"
GRM_CUES = "grm_cues"


@value_class
class DirRev:
    """The two noun-order readings of one sentence."""

    direct: EventTerm
    reverse: EventTerm


@value_class
class ExtractedMeaning:
    """The event a learner assigned to a sentence, or None when the processed
    mapping was too sparse to name one, and whether it is the event the
    sentence's grammar encodes (None with no event)."""

    sentence: str
    event: EventTerm | None
    strategy: str | None
    step: int
    correct: bool | None


def dir_rev_m(model: P1Model, s: SentenceEncoding) -> DirRev:
    """Build the direct/reverse reading pair from a processed mapping.

    Uses the two lowest-indexed entity concepts (distinct word indices) and
    the lowest-indexed action concept.
    """
    entity_atoms = sorted(
        (a for a in model.atoms if a.concept.kind == ENTITY),
        key=lambda a: (a.k, a.concept.name),
    )
    first_entity: dict[int, str] = {}  # word index -> its first entity name
    for atom in entity_atoms:
        first_entity.setdefault(atom.k, atom.concept.name)
    nouns = list(first_entity.values())
    actions = sorted(
        (a for a in model.atoms if a.concept.kind == ACTION),
        key=lambda a: (a.k, a.concept.name),
    )
    if len(nouns) < 2 or not actions:
        raise NoInterpretation(
            f"{s.id}: mapping names {len(nouns)} entities and {len(actions)} actions"
        )
    direct = EventTerm(actions[0].concept.name, nouns[0], nouns[1])
    return DirRev(direct, direct.reversed())


def surface_dir_rev(s: SentenceEncoding,
                    full_lexicon: frozenset[LexEntry]) -> tuple[DirRev, str]:
    """The two readings a sentence supports on its surface, and its voice,
    judged against the whole vocabulary rather than one learner's slice of it.

    The sentence must fit a transitive template: two nouns with a verb between
    them. It is passive when a passive-voice auxiliary precedes a past
    participle, active otherwise.
    """
    lexicon = as_lexicon(full_lexicon)
    nouns, actions = lexicon.nouns, lexicon.actions
    auxiliaries = lexicon.form_words(PASSIVE_VOICE_CONCEPT)
    participles = lexicon.form_words(PAST_PARTICIPLE_CONCEPT)
    entity_ks: list[int] = []
    action_ks: list[int] = []
    passive = after_auxiliary = False
    for k, word in enumerate(s.tokens):
        if word in nouns:
            entity_ks.append(k)
        if word in actions:
            action_ks.append(k)
        if after_auxiliary and word in participles:
            passive = True
        if word in auxiliaries:
            after_auxiliary = True
    if len(entity_ks) < 2 or not action_ks or not entity_ks[0] < action_ks[0] < entity_ks[1]:
        raise UnrecognizedTemplate(f"{s.id}: not an active-transitive or passive sentence")
    direct = EventTerm(actions[s.tokens[action_ks[0]]],
                       nouns[s.tokens[entity_ks[0]]], nouns[s.tokens[entity_ks[1]]])
    return DirRev(direct, direct.reversed()), PASSIVE if passive else ACTIVE


def correct_meaning(dr: DirRev, voice: str) -> EventTerm:
    """The reading the sentence's grammar actually encodes."""
    return dr.reverse if voice == PASSIVE else dr.direct


def grm_cues_available(model: P1Model, s: SentenceEncoding, voice: str,
                       profile: LearnerProfile) -> bool:
    """Did this learner process enough grammatical form to assign roles?

    Passive: the mapping must contain both the passive-voice and the
    past-participle concepts. Active: any internalized form entry counts as a
    developing system that has incorporated cues.
    """
    if voice == PASSIVE:
        concepts = {a.concept for a in model.atoms}
        return PASSIVE_VOICE_CONCEPT in concepts and PAST_PARTICIPLE_CONCEPT in concepts
    return profile.lexicon.has_forms


def extract_fnp(dr: DirRev, state: WorldState, kb: KnowledgeBase) -> tuple[EventTerm, str]:
    """Apply the First Noun Principle with its exceptions.

    Exceptions are checked in the order prior knowledge, lexical semantics,
    event probabilities; each one independently yields the reverse meaning,
    so the order only picks the reported label, never the event.
    """
    direct, reverse = dr.direct, dr.reverse
    if hpd(reverse, kb):
        return reverse, PRIOR_KNOWLEDGE_2D
    if impossible(direct, state, kb) and not impossible(reverse, state, kb):
        return reverse, LEX_SEM_2A
    if (not impossible(direct, state, kb)
            and unlikely(direct, state, kb)
            and not hpd(direct, kb)
            and not impossible(reverse, state, kb)
            and not unlikely(reverse, state, kb)):
        return reverse, EVENT_PROB_2B
    return direct, FNP_DEFAULT


def extract_with_model(model: P1Model, s: SentenceEncoding, voice: str,
                       profile: LearnerProfile, state: WorldState,
                       kb: KnowledgeBase) -> tuple[EventTerm | None, str | None]:
    """Meaning extraction for one sentence given a chosen interpretation of
    Principle 1. Returns (None, None) when the mapping is too sparse."""
    try:
        dr = dir_rev_m(model, s)
    except NoInterpretation:
        return None, None
    if grm_cues_available(model, s, voice, profile):
        return correct_meaning(dr, voice), GRM_CUES
    return extract_fnp(dr, state, kb)


def interpret_paragraph(p: ParagraphEncoding, profile: LearnerProfile,
                        kb: KnowledgeBase,
                        full_lexicon: frozenset[LexEntry]) -> tuple[ExtractedMeaning, ...]:
    """Interpret a paragraph sentence by sentence from a fresh story state.

    Each sentence uses the canonical (no-skip) Principle-1 interpretation.
    The extracted event, correct or not, drives the state the next sentence
    is judged against; sentences too sparse to interpret are recorded with a
    None event and advance the step without effects.
    """
    full_lexicon = as_lexicon(full_lexicon)
    state = WorldState()
    results: list[ExtractedMeaning] = []
    for step, s in enumerate(p.sentences, 1):
        surface, voice = surface_dir_rev(s, full_lexicon)
        model = enumerate_p1_models(s, profile)[0]
        event, strategy = extract_with_model(model, s, voice, profile, state, kb)
        correct = None if event is None else event == correct_meaning(surface, voice)
        results.append(ExtractedMeaning(s.id, event, strategy, step, correct))
        state = apply_effects(state, event, kb)
    return tuple(results)
