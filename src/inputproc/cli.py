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

from .errors import (
    InputProcError,
    NoInterpretation,
    ParseError,
    UnrecognizedTemplate,
)
from .lexicon import (
    LexEntry,
    advanced_profile,
    beginner_profile,
    default_lexicon,
    parse_lexicon,
)
from .principle1 import atom_sort_key, enumerate_p1_models
from .principle2 import (
    EVENT_PROB_2B,
    GRM_CUES,
    LEX_SEM_2A,
    PRIOR_KNOWLEDGE_2D,
    ExtractedMeaning,
    correct_meaning,
    interpret_paragraph,
    strategy_family,
    surface_dir_rev,
    voice_of,
)
from .pias import ValuableVerdict, check_paragraph, generate_valuable, paragraph_valuable
from .text import ParagraphEncoding, encode_text, read_text
from .world import KnowledgeBase, default_world, parse_world

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TEMPLATE = 3

TEXT_FORMAT = "text"
STRUCTURED_FORMAT = "structured"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="inputproc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_text in (("p1map", True), ("interpret", True),
                             ("check", True), ("generate", False)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--learner", choices=("beginner", "advanced"), default="advanced")
        cmd.add_argument("--capacity", type=int, default=11,
                         help="resource capacity per sentence (default 11)")
        cmd.add_argument("--n", type=int, default=2,
                         help="words counted as sentence-initial/final (default 2)")
        cmd.add_argument("--lexicon", help="lexicon TSV (default: shipped vocabulary)")
        cmd.add_argument("--world", help="world TSV (default: shipped knowledge base)")
        cmd.add_argument("--format", choices=(TEXT_FORMAT, STRUCTURED_FORMAT), default=TEXT_FORMAT)
        if needs_text:
            cmd.add_argument("--text", required=True, help="input text file, one paragraph")
        else:
            cmd.add_argument("--text", help="ignored by this command")
    return parser


# --- record plumbing ----------------------------------------------------------

Record = tuple[str, ...]


def render_records(records: list[Record]) -> str:
    return "".join("\t".join(rec) + "\n" for rec in records)


def parse_records(text: str) -> list[Record]:
    return [tuple(line.split("\t")) for line in text.splitlines()]


# --- command bodies --------------------------------------------------------------

def _profile(args: argparse.Namespace, lexicon: frozenset[LexEntry]):
    maker = beginner_profile if args.learner == "beginner" else advanced_profile
    return maker(lexicon, args.capacity, args.n)


def cmd_p1map(args: argparse.Namespace, paragraph: ParagraphEncoding,
              lexicon: frozenset[LexEntry], kb: KnowledgeBase) -> str:
    profile = _profile(args, lexicon)
    text_lines: list[str] = []
    records: list[Record] = []
    for s in paragraph.sentences:
        for index, model in enumerate(enumerate_p1_models(s, profile), 1):
            text_lines.append(f"model {index} of {s.id}:")
            records.append(("p1model", s.id, str(index)))
            for atom in sorted(model.atoms, key=atom_sort_key):
                text_lines.append(atom.render())
                records.append(("map", s.id, str(index), str(atom.k),
                                atom.category, atom.concept.name))
    if args.format == STRUCTURED_FORMAT:
        return render_records(records)
    return "".join(line + "\n" for line in text_lines)


def _witness_line(meaning: ExtractedMeaning) -> str | None:
    ev = meaning.event
    if meaning.strategy == LEX_SEM_2A:
        return f"impossible({ev.reversed().render()}, {meaning.step})"
    if meaning.strategy == EVENT_PROB_2B:
        return f"unlikely({ev.reversed().render()}, {meaning.step})"
    if meaning.strategy == PRIOR_KNOWLEDGE_2D:
        return f"hpd({ev.render()})"
    return None


def cmd_interpret(args: argparse.Namespace, paragraph: ParagraphEncoding,
                  lexicon: frozenset[LexEntry], kb: KnowledgeBase) -> str:
    profile = _profile(args, lexicon)
    meanings = interpret_paragraph(paragraph, profile, kb, lexicon)
    text_lines: list[str] = []
    records: list[Record] = []
    for meaning, s in zip(meanings, paragraph.sentences):
        if meaning.event is None:
            text_lines.append(f"no_meaning({s.id})")
            records.append(("no_meaning", s.id, str(meaning.step)))
            continue
        truth = correct_meaning(surface_dir_rev(s, lexicon), voice_of(s, lexicon))
        verdict = "yes" if meaning.event == truth else "no"
        family = strategy_family(meaning.strategy)
        text_lines.append(f"extr_m({meaning.event.render()}, {s.id})")
        text_lines.append(f"extr_m_by({s.id}, {family})")
        witness = _witness_line(meaning)
        if witness:
            text_lines.append(witness)
        text_lines.append(f"correct({s.id}, {verdict})")
        records.append(("meaning", s.id, str(meaning.step), meaning.event.action,
                        meaning.event.agent, meaning.event.patient,
                        meaning.strategy, family, verdict))
    if args.format == STRUCTURED_FORMAT:
        return render_records(records)
    return "".join(line + "\n" for line in text_lines)


def _verdict_text(v: ValuableVerdict) -> str:
    fnp = v.fnp_event.render() if v.fnp_event else "-"
    cue = v.cue_event.render() if v.cue_event else "-"
    flag = "true" if v.valuable else "false"
    return f"valuable({v.target}) = {flag} [fnp: {fnp}; cues: {cue}]"


def _verdict_record(v: ValuableVerdict) -> Record:
    fnp = v.fnp_event.compact() if v.fnp_event else "-"
    cue = v.cue_event.compact() if v.cue_event else "-"
    return ("verdict", v.target, "true" if v.valuable else "false",
            fnp, cue, v.explanation[0], v.explanation[1])


def cmd_check(args: argparse.Namespace, paragraph: ParagraphEncoding,
              lexicon: frozenset[LexEntry], kb: KnowledgeBase) -> str:
    verdicts = check_paragraph(paragraph, kb, lexicon)
    whole = "true" if paragraph_valuable(verdicts) else "false"
    text_lines = [_verdict_text(v) for v in verdicts]
    text_lines.append(f"paragraph({paragraph.id}) valuable = {whole}")
    records = [_verdict_record(v) for v in verdicts]
    records.append(("paragraph", paragraph.id, whole))
    if args.format == STRUCTURED_FORMAT:
        return render_records(records)
    return "".join(line + "\n" for line in text_lines)


def cmd_generate(args: argparse.Namespace, lexicon: frozenset[LexEntry], kb: KnowledgeBase) -> str:
    generated = generate_valuable(kb, lexicon)
    if args.format == STRUCTURED_FORMAT:
        return render_records([
            ("sentence", text, v.fnp_event.compact(), v.cue_event.compact())
            for text, v in generated
        ])
    return "".join(
        f"{text} [fnp: {v.fnp_event.render()}; cues: {v.cue_event.render()}]\n"
        for text, v in generated
    )


# --- entry point -----------------------------------------------------------------

def _parse_file(path: str, parse, *args):
    """Parse an input file; a row error names the file, as a non-UTF-8 one does."""
    try:
        return parse(read_text(path), *args)
    except ParseError as exc:
        if exc.line is None:
            raise
        raise ParseError(f"{path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.capacity < 0:
        print("inputproc: error: --capacity must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 1:
        print("inputproc: error: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    try:
        kb = _parse_file(args.world, parse_world) if args.world else default_world()
        if args.lexicon:
            lexicon = _parse_file(args.lexicon, parse_lexicon, kb)
        else:
            lexicon = default_lexicon(kb)
        paragraph = None
        if args.command != "generate":
            paragraph = encode_text(read_text(args.text))
    except (ParseError, OSError, InputProcError) as exc:
        print(f"inputproc: error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.command == "p1map":
            output = cmd_p1map(args, paragraph, lexicon, kb)
        elif args.command == "interpret":
            output = cmd_interpret(args, paragraph, lexicon, kb)
        elif args.command == "check":
            output = cmd_check(args, paragraph, lexicon, kb)
        else:
            output = cmd_generate(args, lexicon, kb)
    except (UnrecognizedTemplate, NoInterpretation) as exc:
        print(f"inputproc: error: {exc}", file=sys.stderr)
        return EXIT_TEMPLATE

    sys.stdout.write(output)
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())
