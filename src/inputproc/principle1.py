"""Which words of a sentence does a learner process, and into which concepts.

Every (word index, leaf category, concept) triple the learner's lexicon
supports is a candidate meaning. Candidates are strictly partially ordered by
processing likelihood: a higher leaf category always wins, and within one
category an earlier-ranked sentence position wins. A candidate is processed
when the number of strictly-more-likely candidate triples, plus a one-unit
sentence-level surcharge for redundant-meaningful and nonmeaningful forms,
stays below the learner's resource capacity.

One gated candidate set usually yields a single interpretation. The exception
is lexical preference: a form whose concept was already extracted from a
strictly-more-likely word of a different surface may or may not be processed,
so each subset of such atoms spawns one interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .lexicon import (
    CONTENT_WORDS,
    NM_FORMS,
    R_M_FORMS,
    Concept,
    LearnerProfile,
    entries_for,
    is_ml_ctg_closed,
    is_ml_pos_closed,
)
from .text import SentenceEncoding, position_of

Candidate = tuple[int, str, Concept]


@dataclass(frozen=True)
class MapAtom:
    """The k-th word of a sentence was processed under a leaf category and
    mapped into a concept."""

    k: int
    sentence: str
    category: str
    concept: Concept

    def render(self) -> str:
        return f"map({self.k}, {self.sentence}, {self.category}, {self.concept.name})"


@dataclass(frozen=True)
class CandidateMeaning:
    """A candidate triple with its likelihood rank and resource verdict."""

    k: int
    category: str
    concept: Concept
    consumed: int
    gated: bool


@dataclass(frozen=True)
class P1Model:
    """One complete interpretation: atoms kept, redundant atoms skipped."""

    atoms: frozenset[MapAtom]
    skipped: frozenset[MapAtom]


def atom_sort_key(atom: MapAtom) -> tuple:
    return (atom.k, atom.category, atom.concept.kind, atom.concept.name)


def _in_pair(k: int, category: str, s: SentenceEncoding, profile: LearnerProfile) -> bool:
    return any(e.category == category for e in profile.lexicon.readings(s.word_at(k)))


def ml_wrd(k1: int, c1: str, k2: int, c2: str,
           s: SentenceEncoding, profile: LearnerProfile) -> bool:
    """True iff the k1-th word read under category c1 is strictly more likely
    to be processed than the k2-th word read under c2.

    Both readings must be available to the learner. Categories dominate;
    sentence position only breaks ties within one category.
    """
    if not (_in_pair(k1, c1, s, profile) and _in_pair(k2, c2, s, profile)):
        return False
    if is_ml_ctg_closed(c1, c2):
        return True
    return c1 == c2 and is_ml_pos_closed(
        position_of(k1, s, profile.n), position_of(k2, s, profile.n)
    )


def _candidates(s: SentenceEncoding, profile: LearnerProfile) -> list[Candidate]:
    out = []
    for k in range(1, len(s) + 1):
        for entry in entries_for(s.word_at(k), profile):
            out.append((k, entry.category, entry.concept))
    return sorted(out, key=lambda c: (c[0], c[1], c[2].kind, c[2].name))


def _beats(a: Candidate, b: Candidate, s: SentenceEncoding, n: int) -> bool:
    # Candidates come from the profile lexicon, so the in-pair check of
    # ml_wrd is already satisfied.
    if is_ml_ctg_closed(a[1], b[1]):
        return True
    return a[1] == b[1] and is_ml_pos_closed(position_of(a[0], s, n), position_of(b[0], s, n))


def rank_of(candidate: Candidate, s: SentenceEncoding, profile: LearnerProfile) -> int:
    """Number of candidate meaning triples of the same sentence strictly more
    likely than this one. Ties consume nothing against each other."""
    return sum(1 for other in _candidates(s, profile) if _beats(other, candidate, s, profile.n))


def overhead(category: str) -> int:
    """Sentence-level resource surcharge: redundant meaningful and
    nonmeaningful forms wait for overall sentential meaning first."""
    return 1 if category in (R_M_FORMS, NM_FORMS) else 0


def candidate_meanings(s: SentenceEncoding, profile: LearnerProfile) -> tuple[CandidateMeaning, ...]:
    """All candidate triples with ranks and gate verdicts, in canonical order."""
    cands = _candidates(s, profile)
    out = []
    for k, category, concept in cands:
        consumed = sum(1 for other in cands if _beats(other, (k, category, concept), s, profile.n))
        gated = consumed + overhead(category) < profile.capacity
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


def skippable(atoms: frozenset[MapAtom], s: SentenceEncoding,
              profile: LearnerProfile) -> frozenset[MapAtom]:
    """Form atoms whose concept a strictly-more-likely atom of a different
    word surface already delivers; these may or may not be processed."""
    out = set()
    for atom in atoms:
        if atom.category == CONTENT_WORDS:
            continue
        surface = s.word_at(atom.k)
        for other in atoms:
            if (other.concept == atom.concept
                    and s.word_at(other.k) != surface
                    and ml_wrd(other.k, other.category, atom.k, atom.category, s, profile)):
                out.add(atom)
                break
    return frozenset(out)


def enumerate_p1_models(s: SentenceEncoding, profile: LearnerProfile) -> tuple[P1Model, ...]:
    """All interpretations of a sentence: one per subset of skippable atoms,
    ordered lexicographically on the skipped set (the no-skip interpretation
    comes first and is the canonical one)."""
    determined = deterministic_maps(s, profile)
    optional = sorted(skippable(determined, s, profile), key=atom_sort_key)
    models = []
    for size in range(len(optional) + 1):
        for dropped in combinations(optional, size):
            models.append(P1Model(determined - set(dropped), frozenset(dropped)))
    models.sort(key=lambda m: tuple(atom_sort_key(a) for a in sorted(m.skipped, key=atom_sort_key)))
    return tuple(models)
