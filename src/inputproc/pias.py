"""Screening and generating sentences for Processing Instruction.

A sentence is valuable for teaching when a learner falling back on the First
Noun Principle gets it wrong while grammatical cues get it right: the two
routes disagree. Both routes are computed with a fully-equipped learner
(capacity 11, position window 2) so that each is well defined.

Generation enumerates the single passive schema "The N1 was V by the N2."
over every ordered pair of distinct nouns and every past-participle verb in
the vocabulary, keeping the sentences the checker marks valuable.
"""

from __future__ import annotations

from itertools import product

from ._value import value_class
from .errors import UnrecognizedTemplate
from .lexicon import LexEntry, advanced_profile, as_lexicon
from .principle2 import GRM_CUES, _reading, _story, extract_fnp
from .text import ParagraphEncoding, SentenceEncoding, encode_text
from .world import EventTerm, KnowledgeBase, WorldState

CHECK_CAPACITY = 11
CHECK_POSITION_WINDOW = 2

NO_INTERPRETATION = "no_interpretation"


@value_class
class ValuableVerdict:
    """Outcome of checking one sentence: the event each route extracts and
    whether they disagree."""

    target: str
    valuable: bool
    fnp_event: EventTerm | None
    cue_event: EventTerm | None
    explanation: tuple[str, str]


@value_class
class Schema:
    """One instantiation of the passive sentence schema: noun words n1 and n2
    around a past-participle verb word v."""

    n1: str
    v: str
    n2: str

    def render(self) -> str:
        return f"The {self.n1} was {self.v} by the {self.n2}."


def check_sentence(s: SentenceEncoding, kb: KnowledgeBase, state: WorldState,
                   lexicon: frozenset[LexEntry]) -> ValuableVerdict:
    """Compare the First-Noun-Principle reading against the grammatical-cue
    reading of one sentence in the given story state. The cue route reads
    the event the grammar encodes, as `interpret_paragraph` does."""
    profile = advanced_profile(lexicon, CHECK_CAPACITY, CHECK_POSITION_WINDOW)
    cue_event, dr, _ = _reading(s, profile, profile.lexicon)
    if dr is None:
        return ValuableVerdict(s.id, False, None, None, (NO_INTERPRETATION, NO_INTERPRETATION))
    fnp_event, fnp_label = extract_fnp(dr, state, kb)
    return ValuableVerdict(s.id, fnp_event != cue_event, fnp_event, cue_event,
                           (fnp_label, GRM_CUES))


def check_paragraph(p: ParagraphEncoding, kb: KnowledgeBase,
                    lexicon: frozenset[LexEntry]) -> tuple[ValuableVerdict, ...]:
    """Check each sentence in story context.

    The state is threaded along the grammatical-cue (correct) events, the
    story as the instructor intends it. The paragraph as a whole is valuable
    iff any sentence verdict is.
    """
    lexicon = as_lexicon(lexicon)

    def read(s: SentenceEncoding, state: WorldState):
        verdict = check_sentence(s, kb, state, lexicon)
        return verdict, verdict.cue_event

    return _story(p, read, kb)


def schemas(lexicon: frozenset[LexEntry]) -> tuple[Schema, ...]:
    """Every schema instantiation over the vocabulary, noun pairs with
    distinct referents only, in lexicographic order."""
    lexicon = as_lexicon(lexicon)
    nouns = lexicon.nouns
    return tuple(
        Schema(n1, v, n2)
        for n1, v, n2 in product(sorted(nouns), lexicon.verbs, sorted(nouns))
        if nouns[n1] != nouns[n2]
    )


def generate_valuable(kb: KnowledgeBase,
                      lexicon: frozenset[LexEntry]) -> tuple[tuple[str, ValuableVerdict], ...]:
    """Render and check every schema sentence, keeping the valuable ones. A
    sentence the checker cannot read as a template has no reading to value."""
    lexicon = as_lexicon(lexicon)
    out = []
    for schema in schemas(lexicon):
        text = schema.render()
        sentence = encode_text(text).sentences[0]
        try:
            verdict = check_sentence(sentence, kb, WorldState(), lexicon)
        except UnrecognizedTemplate:
            continue
        if verdict.valuable:
            out.append((text, verdict))
    return tuple(out)
