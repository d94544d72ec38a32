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


# Every sentence delimiter becomes '.', so that one split finds the sentences.
_TO_PERIOD = str.maketrans(SENTENCE_DELIMITERS, "." * len(SENTENCE_DELIMITERS))


def _clean_tokens(chunk: str) -> list[str]:
    tokens = [t.strip(TOKEN_PUNCTUATION).lower() for t in chunk.split()]
    return [t for t in tokens if t]


def encode_text(raw: str, paragraph_id: str = "p") -> ParagraphEncoding:
    """Encode raw text as a paragraph of tokenized sentences.

    Sentences are separated by '.', '!' or '?'; tokens are whitespace-split,
    lowercased, and stripped of surrounding punctuation. A trailing fragment
    without a terminal delimiter still counts as a sentence.
    """
    *delimited, last = map(_clean_tokens, raw.translate(_TO_PERIOD).split("."))
    if not all(delimited):
        raise EmptySentence("sentence delimiter encloses zero tokens")
    token_lists = [*delimited, last] if last else delimited
    if not token_lists:
        raise EmptyText("no token survives tokenization")
    sentences = [SentenceEncoding(f"s{i}", tuple(tokens)) for i, tokens in enumerate(token_lists, 1)]
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
    """The contents of a UTF-8 input file, without a leading byte-order mark;
    other bytes raise `ParseError` naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
