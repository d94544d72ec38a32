"""Word categories, likelihood orders, concepts, and learner vocabularies.

The category hierarchy splits words into content words and grammatical forms;
forms split into meaningful and nonmeaningful, and meaningful forms into
redundant and nonredundant. Three base likelihood facts over this tree,
extended downward to subclasses and closed transitively, induce a strict
total order on the four leaf categories:

    content_words > nr_m_forms > r_m_forms > nm_forms

A parallel order ranks sentence positions: initial > final > medial.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from ._value import value_class
from .errors import DuplicateEntry, ParseError, UnknownCategory
from .text import FINAL, INITIAL, MEDIAL, SENTENCE_DELIMITERS, TOKEN_PUNCTUATION, read_text
from .world import ACTIONS, KnowledgeBase

# Hierarchy nodes.
WORDS = "words"
CONTENT_WORDS = "content_words"
FORMS = "forms"
M_FORMS = "m_forms"
NM_FORMS = "nm_forms"
R_M_FORMS = "r_m_forms"
NR_M_FORMS = "nr_m_forms"

CATEGORIES = (WORDS, CONTENT_WORDS, FORMS, M_FORMS, NM_FORMS, R_M_FORMS, NR_M_FORMS)
LEAF_CATEGORIES = (CONTENT_WORDS, NR_M_FORMS, R_M_FORMS, NM_FORMS)

_CHILDREN = {
    WORDS: (CONTENT_WORDS, FORMS),
    FORMS: (M_FORMS, NM_FORMS),
    M_FORMS: (R_M_FORMS, NR_M_FORMS),
}

# Concept kinds.
ENTITY = "entity"
ACTION = "action"
SEMANTIC = "sem"
DISCOURSE = "disc"
CONCEPT_KINDS = (ENTITY, ACTION, SEMANTIC, DISCOURSE)

# Kinds allowed per leaf category: content words carry entity, action or
# discourse concepts; grammatical forms carry semantic concepts.
_CONTENT_KINDS = frozenset({ENTITY, ACTION, DISCOURSE})


@value_class
class Concept:
    """A language-independent cognitive concept."""

    kind: str
    name: str


# The form concepts that mark the passive voice on a sentence's surface.
PASSIVE_VOICE_CONCEPT = Concept(SEMANTIC, "passive_voice")
PAST_PARTICIPLE_CONCEPT = Concept(SEMANTIC, "past_participle")


@value_class
class LexEntry:
    """One internalized reading of a word: membership in a leaf category
    together with the concept that reading denotes."""

    word: str
    category: str
    concept: Concept


class Lexicon(frozenset):
    """A set of lexicon entries, indexed by word when it is built.

    It is a frozenset of `LexEntry`, so it compares, hashes and iterates like
    one. Building it scans the entries once; every lookup afterwards costs the
    same whatever the vocabulary size.
    """

    __slots__ = ("_readings", "_nouns", "_actions", "_forms", "_verbs")

    def __new__(cls, entries: Iterable[LexEntry] = ()):
        self = super().__new__(cls, entries)
        readings: dict[str, tuple[LexEntry, ...]] = {}
        nouns: dict[str, str] = {}
        actions: dict[str, str] = {}
        forms: dict[Concept, set[str]] = {}
        for e in self:
            word, concept = e.word, e.concept
            readings[word] = readings.get(word, ()) + (e,)
            if e.category != CONTENT_WORDS:
                forms.setdefault(concept, set()).add(word)
            elif concept.kind == ENTITY or concept.kind == ACTION:
                table = nouns if concept.kind == ENTITY else actions
                # A word with several such readings names the alphabetically first.
                if word not in table or concept.name < table[word]:
                    table[word] = concept.name
        set_slot = object.__setattr__
        set_slot(self, "_readings", readings)
        set_slot(self, "_nouns", nouns)
        set_slot(self, "_actions", actions)
        set_slot(self, "_forms", {c: frozenset(words) for c, words in forms.items()})
        set_slot(self, "_verbs", tuple(sorted(self.form_words(PAST_PARTICIPLE_CONCEPT) & actions.keys())))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Copies and pickles rebuild the index from the entries rather than
        # restoring the slots one by one, which `__setattr__` forbids.
        return (type(self), (tuple(self),))

    def readings(self, word: str) -> tuple[LexEntry, ...]:
        """Every entry of this word; empty for unknown words."""
        return self._readings.get(word, ())

    @property
    def nouns(self) -> Mapping[str, str]:
        """Word -> entity concept name, for words with an entity content reading."""
        return MappingProxyType(self._nouns)

    @property
    def actions(self) -> Mapping[str, str]:
        """Word -> action concept name, for words with an action content reading."""
        return MappingProxyType(self._actions)

    def form_words(self, concept: Concept) -> frozenset[str]:
        """Words with a grammatical-form reading of this concept."""
        return self._forms.get(concept, frozenset())

    @property
    def verbs(self) -> tuple[str, ...]:
        """Sorted words carrying both an action content reading and a
        past-participle form reading."""
        return self._verbs

    @property
    def has_forms(self) -> bool:
        """True iff some entry is a grammatical form, not a content word."""
        return bool(self._forms)


def as_lexicon(entries: Iterable[LexEntry]) -> Lexicon:
    """The entries as an indexed `Lexicon`; a `Lexicon` is returned as is."""
    return entries if isinstance(entries, Lexicon) else Lexicon(entries)


@value_class
class LearnerProfile:
    """A learner's second-language knowledge plus processing parameters.

    Any collection of entries given as `lexicon` is stored as a `Lexicon`.
    """

    name: str
    lexicon: Lexicon
    capacity: int
    n: int = 2

    def __post_init__(self):
        object.__setattr__(self, "lexicon", as_lexicon(self.lexicon))


def _descendants_or_self(category: str) -> frozenset[str]:
    out = {category}
    for child in _CHILDREN.get(category, ()):
        out |= _descendants_or_self(child)
    return frozenset(out)


def _transitive_closure(pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    closed = set(pairs)
    while True:
        implied = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not implied:
            return frozenset(closed)
        closed |= implied


_ML_CTG = _transitive_closure(
    (a, b)
    for hi, lo in ((CONTENT_WORDS, FORMS), (M_FORMS, NM_FORMS), (NR_M_FORMS, R_M_FORMS))
    for a in _descendants_or_self(hi)
    for b in _descendants_or_self(lo)
)
_ML_POS = _transitive_closure({(INITIAL, FINAL), (FINAL, MEDIAL)})


def is_ml_ctg_closed(c1: str, c2: str) -> bool:
    """True iff words of category c1 are strictly more likely to get
    processed than words of category c2."""
    return (c1, c2) in _ML_CTG


def is_ml_pos_closed(p1: str, p2: str) -> bool:
    """True iff position p1 strictly precedes p2 under initial > final > medial."""
    return (p1, p2) in _ML_POS


# --- lexicon files ------------------------------------------------------------

_FILE_CATEGORIES = {
    "content": CONTENT_WORDS,
    "nr_m_form": NR_M_FORMS,
    "r_m_form": R_M_FORMS,
    "nm_form": NM_FORMS,
}


def parse_lexicon(text: str, kb: KnowledgeBase | None = None) -> Lexicon:
    """Parse lexicon rows `word<TAB>category<TAB>kind:name`; '#' starts a comment.

    Given the knowledge base the lexicon is used with, also reject a row whose
    entity concept the world does not declare or whose action concept is
    outside the built-in action theory.
    """
    entries: set[LexEntry] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", lineno)
        word, raw_category, raw_concept = map(str.strip, fields)
        # A word the tokenizer cannot yield could never be read in a text.
        if (not word or any(map(str.isspace, word)) or word.strip(TOKEN_PUNCTUATION) != word
                or any(map(word.__contains__, SENTENCE_DELIMITERS))):
            raise ParseError(f"bad word {word!r}", lineno)
        if raw_category not in _FILE_CATEGORIES:
            raise UnknownCategory(f"unknown category {raw_category!r}", lineno)
        category = _FILE_CATEGORIES[raw_category]
        kind, sep, name = raw_concept.partition(":")
        if not sep or kind not in CONCEPT_KINDS or not name:
            raise ParseError(f"concept must be kind:name with a known kind, got {raw_concept!r}", lineno)
        if category == CONTENT_WORDS and kind not in _CONTENT_KINDS:
            raise ParseError(f"content word {word!r} cannot carry a {kind} concept", lineno)
        if category != CONTENT_WORDS and kind != SEMANTIC:
            raise ParseError(f"form {word!r} must carry a sem concept, not {kind}", lineno)
        if kb is not None:
            if kind == ENTITY and name not in kb.entity_names():
                raise ParseError(f"entity {name!r} of {word!r} is not declared in the world", lineno)
            if kind == ACTION and name not in ACTIONS:
                raise ParseError(f"action {name!r} of {word!r} is not one of {ACTIONS}", lineno)
        count = len(entries)
        entries.add(LexEntry(word.lower(), category, Concept(kind, name)))
        if len(entries) == count:
            raise DuplicateEntry(f"duplicate entry for {word!r}", lineno)
    return Lexicon(entries)


def load_lexicon(path: str | os.PathLike[str]) -> Lexicon:
    """Load a lexicon TSV file."""
    return parse_lexicon(read_text(path))


def default_lexicon(kb: KnowledgeBase | None = None) -> Lexicon:
    """The vocabulary shipped with the package, checked against `kb` as
    `parse_lexicon` does."""
    return parse_lexicon(read_text(os.path.join(os.path.dirname(__file__), "data", "lexicon.tsv")), kb)


# --- learner profiles -----------------------------------------------------------

def entries_for(word: str, profile: LearnerProfile) -> frozenset[LexEntry]:
    """All of the learner's readings of a word; empty for unknown words."""
    return frozenset(profile.lexicon.readings(word))


def beginner_profile(lexicon: Iterable[LexEntry], capacity: int = 11, n: int = 2) -> LearnerProfile:
    """A learner who has internalized content words only."""
    content = Lexicon(e for e in lexicon if e.category == CONTENT_WORDS)
    return LearnerProfile("beginner", content, capacity, n)


def advanced_profile(lexicon: Iterable[LexEntry], capacity: int = 11, n: int = 2) -> LearnerProfile:
    """A learner who has internalized every word and form in the vocabulary."""
    return LearnerProfile("advanced", lexicon, capacity, n)
