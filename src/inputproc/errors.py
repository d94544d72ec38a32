"""Exception hierarchy shared by all engine modules."""


class InputProcError(Exception):
    """Base class for all errors raised by this package."""


# --- text encoding -----------------------------------------------------------

class EmptyText(InputProcError):
    """No token survived tokenization of the whole input."""


class EmptySentence(InputProcError):
    """A sentence delimiter enclosed zero tokens."""


class IndexOutOfRange(InputProcError):
    """Word index outside 1..len(sentence)."""


# --- input files ---------------------------------------------------------------

class ParseError(InputProcError):
    """Malformed row in a lexicon or world file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownCategory(ParseError):
    """Category token outside the accepted set."""


class DuplicateEntry(ParseError):
    """The same (word, category, concept) triple appeared twice."""


# --- world knowledge ------------------------------------------------------------

class UnknownEntity(ParseError):
    """Event or record references an entity the knowledge base never declared."""


class UnknownAction(ParseError):
    """Event references an action outside the built-in action theory."""


# --- interpretation --------------------------------------------------------------

class NoInterpretation(InputProcError):
    """The processed word-to-concept mapping is too sparse to name an event."""


class UnrecognizedTemplate(InputProcError):
    """Sentence fits neither the active-transitive nor the passive template."""
