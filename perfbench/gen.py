"""Seeded input generators for the benchmark.

Everything here is plain data built from a `random.Random`: lexicon rows,
world records and story texts. The same seed gives the same inputs. The
generators read the shipped TSV files with their own parser, so the oracles
are fed data that never went through the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Lexicon file categories and the leaf-category names the package and the
# oracles use for them.
LEAF_OF = {
    "content": "content_words",
    "nr_m_form": "nr_m_forms",
    "r_m_form": "r_m_forms",
    "nm_form": "nm_forms",
}

# Verbs of the shipped vocabulary by voice. "bitten" has no simple-past use,
# so active sentences draw only on the two verbs whose past tense and past
# participle coincide.
PASSIVE_VERBS = ("bitten", "pushed", "killed")
ACTIVE_VERBS = ("pushed", "killed")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _read_rows(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            rows.append([f.strip() for f in line.split("\t")])
    return rows


@dataclass
class Vocabulary:
    """A lexicon plus the world that declares every noun in it."""

    lexicon_rows: list[tuple[str, str, str]]          # word, file category, kind:name
    properties: dict[str, frozenset[str]]             # entity -> animate/human
    unlikely: list[tuple[str, str, str]]               # action, agent prop, patient prop
    happened: set[tuple[str, str, str]]                # action, agent, patient
    nouns: dict[str, str] = field(init=False, default_factory=dict)    # noun word -> entity
    actions: dict[str, str] = field(init=False, default_factory=dict)  # verb word -> action

    def __post_init__(self):
        for word, category, concept in self.lexicon_rows:
            kind, _, name = concept.partition(":")
            if category == "content" and kind == "entity":
                self.nouns[word] = name
            elif category == "content" and kind == "action":
                self.actions[word] = name

    def lexicon_tsv(self) -> str:
        return "".join(f"{w}\t{c}\t{k}\n" for w, c, k in self.lexicon_rows)

    def world_tsv(self) -> str:
        lines = []
        for name, props in self.properties.items():
            lines.append(f"entity\t{name}\t{','.join(sorted(props))}" if props else f"entity\t{name}")
        lines += [f"unlikely\t{a}\t{ap}\t{pp}" for a, ap, pp in self.unlikely]
        lines += [f"hpd\t{a}\t{ag}\t{pa}" for a, ag, pa in sorted(self.happened)]
        return "".join(line + "\n" for line in lines)

    def oracle_entries(self) -> list[tuple[str, str, str, str]]:
        """Rows as the oracles expect them: (word, leaf category, kind, name)."""
        out = []
        for word, category, concept in self.lexicon_rows:
            kind, _, name = concept.partition(":")
            out.append((word, LEAF_OF[category], kind, name))
        return sorted(out)

    def oracle_world(self):
        """(properties, unlikely rules, happened) as plain data for the oracles."""
        props = {name: set(p) for name, p in self.properties.items()}
        return props, list(self.unlikely), set(self.happened)


def shipped_vocabulary(root: Path) -> Vocabulary:
    """The package's own lexicon and world, read from the checkout's data files."""
    data = root / "src" / "inputproc" / "data"
    lexicon_rows = [tuple(r) for r in _read_rows(data / "lexicon.tsv")]
    properties: dict[str, frozenset[str]] = {}
    unlikely, happened = [], set()
    for row in _read_rows(data / "world.tsv"):
        if row[0] == "entity":
            properties[row[1]] = frozenset(p for p in (row[2].split(",") if len(row) > 2 else []) if p)
        elif row[0] == "unlikely":
            unlikely.append(tuple(row[1:]))
        elif row[0] == "hpd":
            happened.add(tuple(row[1:]))
    return Vocabulary(lexicon_rows, properties, unlikely, happened)


def pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """`count` distinct lowercase pseudo-words, none of them in `taken`."""
    out: list[str] = []
    seen = set(taken)
    while len(out) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(3, 4)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _seeded_properties(rng: random.Random) -> frozenset[str]:
    r = rng.random()
    if r < 0.25:
        return frozenset({"animate", "human"})
    if r < 0.6:
        return frozenset({"animate"})
    return frozenset()


def with_synthetic_nouns(base: Vocabulary, rng: random.Random, count: int) -> Vocabulary:
    """`base` plus `count` nouns, one content reading each, every one declared
    in the world with seeded animate/human properties."""
    words = pseudo_words(rng, count, {w for w, _, _ in base.lexicon_rows} | set(base.properties))
    rows = list(base.lexicon_rows) + [(w, "content", f"entity:{w}") for w in words]
    props = dict(base.properties)
    for w in words:
        props[w] = _seeded_properties(rng)
    return Vocabulary(rows, props, list(base.unlikely), set(base.happened))


@dataclass(frozen=True)
class Story:
    """A generated paragraph with the event each sentence's grammar encodes."""

    text: str
    sentences: tuple[str, ...]
    events: tuple[tuple[str, str, str], ...]   # (action, agent, patient) per sentence


def story(rng: random.Random, vocab: Vocabulary, noun_pools: list[list[str]], length: int) -> Story:
    """A story over a cast of three nouns, so later sentences meet the state
    earlier ones left: active and passive voice, optional "Then,", and kill.
    Each cast member comes from a pool picked with equal odds."""
    cast: list[str] = []
    while len(cast) < 3:
        word = rng.choice(rng.choice(noun_pools))
        if all(vocab.nouns[word] != vocab.nouns[c] for c in cast):
            cast.append(word)
    sentences, events = [], []
    for i in range(length):
        agent, patient = rng.sample(cast, 2)
        if rng.random() < 0.5:
            verb = rng.choice(ACTIVE_VERBS)
            body = f"the {agent} {verb} the {patient}."
        else:
            verb = rng.choice(PASSIVE_VERBS)
            body = f"the {patient} was {verb} by the {agent}."
        text = f"Then, {body}" if i and rng.random() < 0.5 else body[0].upper() + body[1:]
        sentences.append(text)
        events.append((vocab.actions[verb], vocab.nouns[agent], vocab.nouns[patient]))
    return Story(" ".join(sentences), tuple(sentences), tuple(events))


def tokens_of(sentence: str) -> list[str]:
    """Tokenize one generated sentence the way the package's grammar reads it."""
    tokens = [t.strip(",.!?;:").lower() for t in sentence.split()]
    return [t for t in tokens if t]
