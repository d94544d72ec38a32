"""Which words of a sentence does a learner process, and into which concepts.

Every (word index, leaf category, concept) triple the learner's lexicon
supports is a candidate meaning. Candidates are strictly partially ordered by
processing likelihood: a higher leaf category always wins, and within one
category an earlier-ranked sentence position wins. The order is one key per
candidate, (category rank, position rank), where a smaller key is strictly
more likely and equal keys tie. A candidate consumes one resource unit per
candidate with a strictly smaller key, and is processed when that count, plus
a one-unit sentence-level surcharge for redundant-meaningful and nonmeaningful
forms, stays below the learner's resource capacity.

One gated candidate set usually yields a single interpretation. The exception
is lexical preference: a form whose concept was already extracted from a
strictly-more-likely word of a different surface may or may not be processed,
so each subset of such atoms spawns one interpretation, as long as every atom
it leaves out still has its concept extracted by an atom it keeps.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from ._value import value_class
from .lexicon import (
    CONTENT_WORDS,
    LEAF_CATEGORIES,
    NM_FORMS,
    R_M_FORMS,
    Concept,
    LearnerProfile,
    entries_for,
    is_ml_ctg_closed,
    is_ml_pos_closed,
)
from .text import POSITIONS, SentenceEncoding, position_of


@value_class
class MapAtom:
    """The k-th word of a sentence was processed under a leaf category and
    mapped into a concept."""

    k: int
    sentence: str
    category: str
    concept: Concept

    def render(self) -> str:
        return f"map({self.k}, {self.sentence}, {self.category}, {self.concept.name})"


@value_class
class CandidateMeaning:
    """A candidate triple with its likelihood rank and resource verdict."""

    k: int
    category: str
    concept: Concept
    consumed: int
    gated: bool


@value_class
class P1Model:
    """One complete interpretation: atoms kept, redundant atoms skipped."""

    atoms: frozenset[MapAtom]
    skipped: frozenset[MapAtom]


def atom_sort_key(atom: MapAtom) -> tuple:
    return (atom.k, atom.category, atom.concept.kind, atom.concept.name)


# Both orders are strict and total, so a rank, the number of items strictly
# more likely than this one, sorts exactly as the order does.
_CATEGORY_RANK = {c: sum(is_ml_ctg_closed(d, c) for d in LEAF_CATEGORIES) for c in LEAF_CATEGORIES}
_POSITION_RANK = {p: sum(is_ml_pos_closed(q, p) for q in POSITIONS) for p in POSITIONS}


def _likelihood_key(k: int, category: str, s: SentenceEncoding, n: int) -> tuple[int, int]:
    # Candidate a is strictly more likely than b iff key(a) < key(b); equal
    # keys tie. Categories dominate; position only breaks ties within one.
    return _CATEGORY_RANK[category], _POSITION_RANK[position_of(k, s, n)]


def _overhead(category: str) -> int:
    """Sentence-level resource surcharge: redundant meaningful and
    nonmeaningful forms wait for overall sentential meaning first."""
    return 1 if category in (R_M_FORMS, NM_FORMS) else 0


def candidate_meanings(s: SentenceEncoding, profile: LearnerProfile) -> tuple[CandidateMeaning, ...]:
    """All candidate triples with ranks and gate verdicts, in canonical order."""
    cands = sorted(
        ((k, e.category, e.concept) for k in range(1, len(s) + 1)
         for e in entries_for(s.word_at(k), profile)),
        key=lambda c: (c[0], c[1], c[2].kind, c[2].name),
    )
    keys = [_likelihood_key(k, category, s, profile.n) for k, category, _ in cands]
    ordered = sorted(keys)
    out = []
    for (k, category, concept), key in zip(cands, keys):
        consumed = bisect_left(ordered, key)
        gated = consumed + _overhead(category) < profile.capacity
        out.append(CandidateMeaning(k, category, concept, consumed, gated))
    return tuple(out)


def deterministic_maps(s: SentenceEncoding, profile: LearnerProfile) -> frozenset[MapAtom]:
    """Every candidate that clears the resource gate, before the lexical
    preference exception is considered."""
    return frozenset(
        MapAtom(c.k, s.id, c.category, c.concept)
        for c in candidate_meanings(s, profile)
        if c.gated
    )


def _delivered(atom: MapAtom, others: frozenset[MapAtom], s: SentenceEncoding, n: int) -> bool:
    # True iff a strictly-more-likely atom of `others`, on a different word
    # surface, delivers the atom's concept.
    surface, key = s.word_at(atom.k), _likelihood_key(atom.k, atom.category, s, n)
    return any(o.concept == atom.concept and s.word_at(o.k) != surface
               and _likelihood_key(o.k, o.category, s, n) < key for o in others)


def skippable(atoms: frozenset[MapAtom], s: SentenceEncoding,
              profile: LearnerProfile) -> frozenset[MapAtom]:
    """Form atoms whose concept a strictly-more-likely atom of a different
    word surface already delivers; these may or may not be processed."""
    return frozenset(a for a in atoms
                     if a.category != CONTENT_WORDS and _delivered(a, atoms, s, profile.n))


def enumerate_p1_models(s: SentenceEncoding, profile: LearnerProfile) -> tuple[P1Model, ...]:
    """All interpretations of a sentence: one per subset of skippable atoms
    whose every member's concept a kept, more likely atom still delivers,
    ordered lexicographically on the skipped set (the no-skip interpretation
    comes first and is the canonical one)."""
    determined = deterministic_maps(s, profile)
    optional = sorted(skippable(determined, s, profile), key=atom_sort_key)
    models = []
    for size in range(len(optional) + 1):
        for dropped in combinations(optional, size):
            kept = determined - set(dropped)
            if all(_delivered(a, kept, s, profile.n) for a in dropped):
                models.append(P1Model(kept, frozenset(dropped)))
    models.sort(key=lambda m: tuple(atom_sort_key(a) for a in sorted(m.skipped, key=atom_sort_key)))
    return tuple(models)
