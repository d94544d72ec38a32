"""The workloads.

Each workload makes its inputs from the seed, writes the lexicon, world and
text files into its work directory, and then offers:

    setup()      parse the workload's lexicon and world files, build profiles
    run(i)       operation i, the timed part: one user-level call
    check(i, r)  compare the result of operation i with the oracles (untimed)

The package is reached only through attribute lookups on its modules at call
time (`ip.generate_valuable`, ...), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import gen

STORY_LENGTH = 4
CLI_COMMANDS = ("p1map", "interpret", "check", "generate")


class Context:
    """What every workload needs: the checkout, its work directory, the random
    source made from the seed, the input size, and the loaded package and
    oracle modules."""

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool, ip, oracles):
        self.root, self.work, self.tiny = root, work, tiny
        self.ip, self.oracles = ip, oracles
        self.rng = random.Random(seed)


class Workload:
    setup_reps = 201          # timed set-ups before the timed loop
    in_process = True
    inputs = 1                # operation i runs input i % inputs

    def __init__(self, ctx: Context, vocab: gen.Vocabulary):
        self.ctx, self.ip, self.oracles = ctx, ctx.ip, ctx.oracles
        self.vocab = vocab
        self.entries = vocab.oracle_entries()
        self.props, self.rules, self.happened = vocab.oracle_world()
        self.lexicon_path = ctx.work / "lexicon.tsv"
        self.world_path = ctx.work / "world.tsv"
        self.lexicon_path.write_text(vocab.lexicon_tsv(), encoding="utf-8")
        self.world_path.write_text(vocab.world_tsv(), encoding="utf-8")

    def setup(self) -> None:
        # Drop the previous set-up's objects first, so that peak_rss_mb holds
        # one copy of the program's data, not two.
        self.lexicon = self.kb = self.beginner = self.advanced = None
        ip = self.ip
        self.lexicon = ip.load_lexicon(self.lexicon_path)
        self.kb = ip.load_world(self.world_path)
        self.beginner = ip.beginner_profile(self.lexicon)
        self.advanced = ip.advanced_profile(self.lexicon)

    def warmup(self) -> None:
        pass

    # --- oracle helpers ---------------------------------------------------------

    def schema_count(self) -> int:
        nouns = self.vocab.nouns
        verbs = [w for w in gen.PASSIVE_VERBS if w in self.vocab.actions]
        return sum(1 for a in nouns for b in nouns if nouns[a] != nouns[b]) * len(verbs)

    def oracle_entries_for(self, sentences):
        return self.entries

    def first_noun_events(self, sentences, events_for_state=None):
        """Oracle first-noun event per sentence, the story state threaded along
        `events_for_state` (the oracle's own events when None)."""
        entries = self.oracle_entries_for(sentences)
        alive = set(self.props)
        out = []
        for i, sentence in enumerate(sentences):
            tokens = gen.tokens_of(sentence)
            event = self.oracles.oracle_first_noun_event(
                tokens, entries, self.props, self.rules, self.happened, frozenset(alive))
            out.append(event)
            action, _, patient = events_for_state[i] if events_for_state else event
            if action == "kill":
                alive.discard(patient)
        return out


def _event(term):
    return (term.action, term.agent, term.patient) if term is not None else None


class StoriesBiglex(Workload):
    """Four-sentence stories over the shipped lexicon plus 10k seeded nouns."""

    setup_reps = 3            # one set-up parses a 10k-entity world for seconds

    def __init__(self, ctx: Context):
        extra = 100 if ctx.tiny else 10_000
        base = gen.shipped_vocabulary(ctx.root)
        vocab = gen.with_synthetic_nouns(base, ctx.rng, extra)
        super().__init__(ctx, vocab)
        shipped = sorted(base.nouns)
        synthetic = sorted(set(vocab.nouns) - set(shipped))
        self.stories = [gen.story(ctx.rng, vocab, [shipped, synthetic], STORY_LENGTH)
                        for _ in range(8 if ctx.tiny else 32)]
        self.inputs = len(self.stories)
        # The oracle scans every entry per token; give it only the entries of
        # the words a sentence uses, which leaves its answer unchanged.
        by_word: dict[str, list] = {}
        for entry in self.entries:
            by_word.setdefault(entry[0], []).append(entry)
        self._by_word = by_word

    def run(self, i):
        ip = self.ip
        paragraph = ip.encode_text(self.stories[i % len(self.stories)].text)
        verdicts = ip.check_paragraph(paragraph, self.kb, self.lexicon)
        beginner = ip.interpret_paragraph(paragraph, self.beginner, self.kb, self.lexicon)
        advanced = ip.interpret_paragraph(paragraph, self.advanced, self.kb, self.lexicon)
        return paragraph, verdicts, beginner, advanced

    def sentences(self, i):
        return STORY_LENGTH

    def oracle_entries_for(self, sentences):
        words = {t for s in sentences for t in gen.tokens_of(s)}
        return sorted(e for w in words for e in self._by_word.get(w, ()))

    def check(self, i, result):
        story = self.stories[i % len(self.stories)]
        paragraph, verdicts, beginner, advanced = result
        if len(paragraph.sentences) != STORY_LENGTH:
            return False
        intended = list(story.events)
        fnp_alone = self.first_noun_events(story.sentences)
        fnp_in_story = self.first_noun_events(story.sentences, intended)
        return (
            [_event(m.event) for m in beginner] == fnp_alone
            and [_event(m.event) for m in advanced] == intended
            and [_event(v.cue_event) for v in verdicts] == intended
            and [_event(v.fnp_event) for v in verdicts] == fnp_in_story
            and [v.valuable for v in verdicts] == [f != c for f, c in zip(fnp_in_story, intended)]
        )


_EVENT_TEXT = r"ev\((\w+), (\w+), (\w+)\)"
_EXTR = re.compile(rf"^extr_m\({_EVENT_TEXT}, s(\d+)\)$", re.M)
_VERDICT = re.compile(rf"^valuable\(s(\d+)\) = (true|false) \[fnp: {_EVENT_TEXT}; cues: {_EVENT_TEXT}\]$", re.M)


class CliCommands(Workload):
    """`python -m inputproc` processes on the shipped data and short texts."""

    in_process = False

    def __init__(self, ctx: Context):
        super().__init__(ctx, gen.shipped_vocabulary(ctx.root))
        nouns = sorted(self.vocab.nouns)
        self.stories = [gen.story(ctx.rng, self.vocab, [nouns], 2) for _ in range(4 if ctx.tiny else 8)]
        self.text_paths = []
        for n, story in enumerate(self.stories):
            path = ctx.work / f"text{n}.txt"
            path.write_text(story.text + "\n", encoding="utf-8")
            self.text_paths.append(path)
        self.inputs = len(CLI_COMMANDS) * len(self.text_paths)
        self.generated = self.oracles.oracle_valuable_schema_sentences(
            self.entries, self.props, self.rules, self.happened)
        self.schemas = self.schema_count()
        self.trace_path = ctx.work / "child_trace.json"
        self.env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"),
                        PERFBENCH_TRACE_OUT=str(self.trace_path))
        self.traced = False     # the harness turns this on for traced calls
        self.child_traces: list[dict] = []
        self._expected: dict[int, tuple] = {}

    def argv(self, i):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        text = str(self.text_paths[(i // len(CLI_COMMANDS)) % len(self.text_paths)])
        args = {"p1map": ["--text", text], "interpret": ["--learner", "beginner", "--text", text],
                "check": ["--text", text], "generate": []}[command]
        if self.traced:
            launcher = [str(self.ctx.root / "perfbench" / "cli_child.py")]
        else:
            launcher = ["-m", "inputproc"]
        return [sys.executable, *launcher, command, *args]

    def warmup(self):
        for i in range(len(CLI_COMMANDS)):
            self.run(i)
        self.trace_path.unlink(missing_ok=True)

    def run(self, i):
        return subprocess.run(self.argv(i), cwd=self.ctx.root, env=self.env,
                              capture_output=True, text=True, check=False)

    def sentences(self, i):
        return self.schemas if CLI_COMMANDS[i % len(CLI_COMMANDS)] == "generate" else 2

    def expected(self, n):
        if n not in self._expected:
            story = self.stories[n]
            alone = self.first_noun_events(story.sentences)
            in_story = self.first_noun_events(story.sentences, list(story.events))
            self._expected[n] = (alone, in_story, list(story.events))
        return self._expected[n]

    def check(self, i, proc):
        if self.traced:
            if not self.trace_path.exists():
                return False
            self.child_traces.append(json.loads(self.trace_path.read_text(encoding="utf-8")))
            self.trace_path.unlink()
        if proc.returncode != 0 or proc.stderr:
            return False
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        out = proc.stdout
        if command == "generate":
            return [line.split(" [fnp:")[0] for line in out.splitlines()] == self.generated
        alone, in_story, intended = self.expected((i // len(CLI_COMMANDS)) % len(self.stories))
        if command == "p1map":
            return all(f"model 1 of s{n}:" in out for n in (1, 2))
        if command == "interpret":
            return [m[:3] for m in _EXTR.findall(out)] == alone
        verdicts = _VERDICT.findall(out)
        return ([v[2:5] for v in verdicts] == in_story
                and [v[5:8] for v in verdicts] == intended
                and [v[1] == "true" for v in verdicts] == [f != c for f, c in zip(in_story, intended)])


WORKLOADS = {
    "stories_biglex": StoriesBiglex,
    "cli_commands": CliCommands,
}
