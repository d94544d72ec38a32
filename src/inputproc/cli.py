"""Command-line front end.

Four commands over a lexicon file, a world file, and a text file:

    p1map     word-to-concept mappings (one block per interpretation)
    interpret the event meaning a learner extracts per sentence
    check     whether each sentence (and the paragraph) is valuable teaching input
    generate  all valuable sentences the schema grammar can produce

Output is deterministic and byte-identical across runs. The structured format
is one record per line, tab-separated, first field naming the record type.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputProcError, NoInterpretation, ParseError, UnrecognizedTemplate
from .lexicon import LexEntry, advanced_profile, beginner_profile, default_lexicon, parse_lexicon
from .principle1 import atom_sort_key, enumerate_p1_models
from .principle2 import (
    EVENT_PROB_2B,
    GRM_CUES,
    LEX_SEM_2A,
    PRIOR_KNOWLEDGE_2D,
    ExtractedMeaning,
    interpret_paragraph,
)
from .pias import ValuableVerdict, check_paragraph, generate_valuable
from .text import ParagraphEncoding, encode_text, read_text
from .world import KnowledgeBase, default_world, parse_world

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TEMPLATE = 3

TEXT_FORMAT = "text"
STRUCTURED_FORMAT = "structured"
LEARNER_COMMANDS = ("p1map", "interpret")  # `check` and `generate` use a fixed learner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inputproc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("p1map", "interpret", "check", "generate"):
        cmd = sub.add_parser(name)
        if name in LEARNER_COMMANDS:
            cmd.add_argument("--learner", choices=("beginner", "advanced"), default="advanced")
            cmd.add_argument("--capacity", type=int, default=11,
                             help="resource capacity per sentence (default 11)")
            cmd.add_argument("--n", type=int, default=2,
                             help="words counted as sentence-initial/final (default 2)")
        if name != "generate":
            cmd.add_argument("--text", required=True, help="input text file, one paragraph")
        cmd.add_argument("--lexicon", help="lexicon TSV (default: shipped vocabulary)")
        cmd.add_argument("--world", help="world TSV (default: shipped knowledge base)")
        cmd.add_argument("--format", choices=(TEXT_FORMAT, STRUCTURED_FORMAT), default=TEXT_FORMAT)
    return parser


# --- records ----------------------------------------------------------------------
#
# A command builds one list of records `(kind, *values)`. `_TEXT[kind]` renders
# one as text lines, `_FIELDS[kind]` as its tab-separated fields after the kind.

def render_records(records: list[tuple[str, ...]]) -> str:
    return "".join("\t".join(rec) + "\n" for rec in records)


def parse_records(text: str) -> list[tuple[str, ...]]:
    return [tuple(line.split("\t")) for line in text.splitlines()]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _strategy_family(strategy: str) -> str:
    # Every First Noun Principle variant reports as 'fnp', cues as 'grm_cues'.
    return GRM_CUES if strategy == GRM_CUES else "fnp"


def _routes(v: ValuableVerdict, compact: bool = False) -> tuple[str, str]:
    """Each route's event, or '-' when the sentence has no interpretation."""
    return tuple("-" if ev is None else ev.compact() if compact else ev.render()
                 for ev in (v.fnp_event, v.cue_event))


def _routes_text(v: ValuableVerdict) -> str:
    return "[fnp: {}; cues: {}]".format(*_routes(v))


def _meaning_text(m: ExtractedMeaning) -> str:
    lines = [f"extr_m({m.event.render()}, {m.sentence})",
             f"extr_m_by({m.sentence}, {_strategy_family(m.strategy)})"]
    if m.strategy == LEX_SEM_2A:
        lines.append(f"impossible({m.event.reversed().render()}, {m.step})")
    elif m.strategy == EVENT_PROB_2B:
        lines.append(f"unlikely({m.event.reversed().render()}, {m.step})")
    elif m.strategy == PRIOR_KNOWLEDGE_2D:
        lines.append(f"hpd({m.event.render()})")
    lines.append(f"correct({m.sentence}, {'yes' if m.correct else 'no'})")
    return "\n".join(lines)


_TEXT = {
    "p1model": lambda sid, index: f"model {index} of {sid}:",
    "map": lambda index, atom: atom.render(),
    "no_meaning": lambda m: f"no_meaning({m.sentence})",
    "meaning": _meaning_text,
    "verdict": lambda v: f"valuable({v.target}) = {_flag(v.valuable)} {_routes_text(v)}",
    "paragraph": lambda pid, valuable: f"paragraph({pid}) valuable = {_flag(valuable)}",
    "sentence": lambda text, v: f"{text} {_routes_text(v)}",
}

_FIELDS = {
    "p1model": lambda sid, index: (sid, str(index)),
    "map": lambda index, atom: (atom.sentence, str(index), str(atom.k), atom.category,
                                atom.concept.name),
    "no_meaning": lambda m: (m.sentence, str(m.step)),
    "meaning": lambda m: (m.sentence, str(m.step), m.event.action, m.event.agent, m.event.patient,
                          m.strategy, _strategy_family(m.strategy), "yes" if m.correct else "no"),
    "verdict": lambda v: (v.target, _flag(v.valuable), *_routes(v, compact=True), *v.explanation),
    "paragraph": lambda pid, valuable: (pid, _flag(valuable)),
    "sentence": lambda text, v: (text, *_routes(v, compact=True)),
}


def render(records: list[tuple], fmt: str) -> str:
    if fmt == STRUCTURED_FORMAT:
        return render_records([(kind, *_FIELDS[kind](*values)) for kind, *values in records])
    return "".join(_TEXT[kind](*values) + "\n" for kind, *values in records)


# --- commands ---------------------------------------------------------------------

def build_records(args: argparse.Namespace, paragraph: ParagraphEncoding | None,
                  lexicon: frozenset[LexEntry], kb: KnowledgeBase) -> list[tuple]:
    """The records the command `args.command` prints, in order."""
    if args.command == "generate":
        return [("sentence", text, v) for text, v in generate_valuable(kb, lexicon)]
    if args.command == "check":
        verdicts = check_paragraph(paragraph, kb, lexicon)
        return [*(("verdict", v) for v in verdicts),
                ("paragraph", paragraph.id, any(v.valuable for v in verdicts))]
    maker = beginner_profile if args.learner == "beginner" else advanced_profile
    profile = maker(lexicon, args.capacity, args.n)
    if args.command == "interpret":
        meanings = interpret_paragraph(paragraph, profile, kb, lexicon)
        return [("no_meaning" if m.event is None else "meaning", m) for m in meanings]
    records: list[tuple] = []
    for s in paragraph.sentences:
        for index, model in enumerate(enumerate_p1_models(s, profile), 1):
            records.append(("p1model", s.id, index))
            records += [("map", index, atom) for atom in sorted(model.atoms, key=atom_sort_key)]
    return records


# --- entry point -----------------------------------------------------------------

def _parse_file(path: str, parse, *args):
    """Parse an input file; a row error names the file, as a non-UTF-8 one does."""
    try:
        return parse(read_text(path), *args)
    except ParseError as exc:
        if exc.line is None:
            raise
        raise ParseError(f"{path}: {exc}") from None


def _fail(message, code: int) -> int:
    print(f"inputproc: error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage problem, which this program reports as 1
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command in LEARNER_COMMANDS:
        if args.capacity < 0:
            return _fail("--capacity must be >= 0", EXIT_USAGE)
        if args.n < 1:
            return _fail("--n must be >= 1", EXIT_USAGE)

    try:
        kb = _parse_file(args.world, parse_world) if args.world else default_world()
        lexicon = (_parse_file(args.lexicon, parse_lexicon, kb) if args.lexicon
                   else default_lexicon(kb))
        paragraph = None if args.command == "generate" else encode_text(read_text(args.text))
    except (ParseError, OSError, InputProcError) as exc:
        return _fail(exc, EXIT_PARSE)

    try:
        records = build_records(args, paragraph, lexicon, kb)
    except (UnrecognizedTemplate, NoInterpretation) as exc:
        return _fail(exc, EXIT_TEMPLATE)

    sys.stdout.write(render(records, args.format))
    return EXIT_OK
