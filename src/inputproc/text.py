"""Indexed logic-form encoding of controlled-English text.

A paragraph is a 1-indexed sequence of sentences; a sentence is a 1-indexed
sequence of lowercase tokens. Word positions within a sentence are classified
as initial, medial or final relative to a window parameter n (the first and
last n words).
"""

from __future__ import annotations

import os

from ._value import value_class
from .errors import EmptySentence, EmptyText, IndexOutOfRange, ParseError

SENTENCE_DELIMITERS = ".!?"
TOKEN_PUNCTUATION = ",.!?;:"

INITIAL = "initial"
MEDIAL = "medial"
FINAL = "final"
POSITIONS = (INITIAL, MEDIAL, FINAL)


@value_class
class SentenceEncoding:
    """One sentence as an ordered, 1-indexed token sequence."""

    id: str
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def word_at(self, k: int) -> str:
        """Return the k-th word, 1-indexed."""
        if not 1 <= k <= len(self.tokens):
            raise IndexOutOfRange(f"word index {k} outside 1..{len(self.tokens)} in {self.id}")
        return self.tokens[k - 1]

    def text(self) -> str:
        return " ".join(self.tokens)


@value_class
class ParagraphEncoding:
    """An ordered sequence of sentences; the i-th sentence is story step i."""

    id: str
    sentences: tuple[SentenceEncoding, ...]


def _clean_tokens(chunk: str) -> list[str]:
    tokens = [t.strip(TOKEN_PUNCTUATION).lower() for t in chunk.split()]
    return [t for t in tokens if t]


def encode_text(raw: str, paragraph_id: str = "p") -> ParagraphEncoding:
    """Encode raw text as a paragraph of tokenized sentences.

    Sentences are separated by '.', '!' or '?'; tokens are whitespace-split,
    lowercased, and stripped of surrounding punctuation. A trailing fragment
    without a terminal delimiter still counts as a sentence.
    """
    sentences: list[SentenceEncoding] = []
    buffer: list[str] = []

    def close(chunk: str, delimited: bool) -> None:
        tokens = _clean_tokens(chunk)
        if not tokens:
            if delimited:
                raise EmptySentence("sentence delimiter encloses zero tokens")
            return
        sentences.append(SentenceEncoding(f"s{len(sentences) + 1}", tuple(tokens)))

    for ch in raw:
        if ch in SENTENCE_DELIMITERS:
            close("".join(buffer), delimited=True)
            buffer = []
        else:
            buffer.append(ch)
    close("".join(buffer), delimited=False)

    if not sentences:
        raise EmptyText("no token survives tokenization")
    return ParagraphEncoding(paragraph_id, tuple(sentences))


def position_of(k: int, sentence: SentenceEncoding, n: int = 2) -> str:
    """Classify word index k as initial, medial or final.

    The first n words are initial, the last n final, the rest medial.
    When the two windows overlap (len <= 2n) initial takes precedence.
    """
    if n < 1:
        raise ValueError(f"position window n must be >= 1, got {n}")
    length = len(sentence)
    if not 1 <= k <= length:
        raise IndexOutOfRange(f"word index {k} outside 1..{length} in {sentence.id}")
    if k <= n:
        return INITIAL
    if k > length - n:
        return FINAL
    return MEDIAL


def read_text(path: str | os.PathLike[str]) -> str:
    """The contents of a UTF-8 input file; other bytes raise `ParseError`
    naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
