"""Stories on random worlds, checked against the reimplemented first-noun route.

Each example builds a world over the shipped entities with random properties,
`unlikely` rules and `hpd` events, and a story of one to four active or
passive sentences, each with the event it is meant to tell. A second family
declares fresh entities, names them with fresh noun words, tells mostly kills
with fresh verb words, and reads the shipped function words alone.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from inputproc import (
    ACTIONS,
    CONTENT_WORDS,
    GRM_CUES,
    NR_M_FORMS,
    Concept,
    LexEntry,
    advanced_profile,
    beginner_profile,
    check_paragraph,
    default_lexicon,
    encode_text,
    interpret_paragraph,
    parse_world,
)
from inputproc.pias import NO_INTERPRETATION

from oracles import entry_tuples, oracle_first_noun_event, world_tuples

# In the shipped vocabulary each of these words names the entity of that name.
ENTITIES = ("cat", "dog", "shoe", "man", "holyfield", "tyson", "rabbit", "ball")
# Word -> action. "bitten" has no simple-past use, so it is passive only.
PASSIVE_VERBS = {"bitten": "bite", "pushed": "push", "killed": "kill"}
ACTIVE_VERBS = {"pushed": "push", "killed": "kill"}

properties = st.sampled_from(("", "animate", "human", "animate,human"))
rule_props = st.sampled_from(("animate", "human", "*"))
entity_pairs = st.lists(st.sampled_from(ENTITIES), min_size=2, max_size=2, unique=True)
events = st.tuples(st.sampled_from(ACTIONS), entity_pairs).map(lambda e: (e[0], *e[1]))


@st.composite
def worlds(draw):
    rows = [f"entity\t{name}\t{draw(properties)}" for name in ENTITIES]
    rows += ["unlikely\t%s\t%s\t%s" % rule
             for rule in draw(st.lists(st.tuples(st.sampled_from(ACTIONS), rule_props, rule_props),
                                       max_size=3))]
    rows += ["hpd\t%s\t%s\t%s" % event for event in draw(st.lists(events, max_size=3))]
    return parse_world("\n".join(rows) + "\n")


@st.composite
def sentences(draw):
    """(text, intended event) of one active or passive sentence."""
    agent, patient = draw(entity_pairs)
    if draw(st.booleans()):
        verb = draw(st.sampled_from(sorted(ACTIVE_VERBS)))
        text, action = f"the {agent} {verb} the {patient}.", ACTIVE_VERBS[verb]
    else:
        verb = draw(st.sampled_from(sorted(PASSIVE_VERBS)))
        text, action = f"the {patient} was {verb} by the {agent}.", PASSIVE_VERBS[verb]
    if draw(st.booleans()):
        text = "Then, " + text
    return text, (action, agent, patient)


def tokens_of(text):
    return [t.strip(",.").lower() for t in text.split()]


def first_noun_events(story, kb, lexicon, events_for_state=None):
    """The oracle's first-noun event per sentence, the set of living entities
    threaded along `events_for_state` (the oracle's own events when None)."""
    props, rules, happened = world_tuples(kb)
    entries = entry_tuples(lexicon)
    alive = set(props)
    out = []
    for i, (text, _) in enumerate(story):
        event = oracle_first_noun_event(tokens_of(text), entries, props, rules, happened,
                                        frozenset(alive))
        out.append(event)
        action, _, patient = events_for_state[i] if events_for_state else event
        if action == "kill":
            alive.discard(patient)
    return out


def as_tuple(event):
    return (event.action, event.agent, event.patient)


def assert_story_matches_the_oracle(kb, lexicon, story):
    paragraph = encode_text(" ".join(text for text, _ in story))
    intended = [event for _, event in story]

    beginner = interpret_paragraph(paragraph, beginner_profile(lexicon), kb, lexicon)
    assert [as_tuple(m.event) for m in beginner] == first_noun_events(story, kb, lexicon)
    assert [m.correct for m in beginner] == [as_tuple(m.event) == e for m, e in zip(beginner, intended)]

    advanced = interpret_paragraph(paragraph, advanced_profile(lexicon), kb, lexicon)
    assert [as_tuple(m.event) for m in advanced] == intended
    assert all(m.correct is True for m in advanced)

    verdicts = check_paragraph(paragraph, kb, lexicon)
    assert [as_tuple(v.cue_event) for v in verdicts] == intended
    assert [as_tuple(v.fnp_event) for v in verdicts] == first_noun_events(story, kb, lexicon, intended)
    assert [v.valuable for v in verdicts] == [v.fnp_event != v.cue_event for v in verdicts]


@settings(max_examples=100, deadline=None)
@given(kb=worlds(), story=st.lists(sentences(), min_size=1, max_size=4))
def test_stories_match_the_first_noun_oracle(kb, story):
    assert_story_matches_the_oracle(kb, default_lexicon(kb), story)


FUNCTION_WORDS = ("the", "was", "by", "then")
NEW_NOUNS = ("fox", "hen", "owl", "yak", "gnu")
NEW_VERBS = {"bite": ("nipped", "chomped"), "push": ("shoved", "nudged"), "kill": ("slain", "slew")}


@st.composite
def new_vocabulary_stories(draw):
    """(world, lexicon, story) over fresh entities, each named by one fresh
    noun word, and fresh verb words; three in five sentences are kills."""
    nouns = draw(st.lists(st.sampled_from(NEW_NOUNS), min_size=2, max_size=4, unique=True))
    entity = {noun: f"{noun}_{i}" for i, noun in enumerate(nouns)}
    verbs = {action: draw(st.lists(st.sampled_from(words), min_size=1, unique=True))
             for action, words in NEW_VERBS.items()}
    pairs = st.lists(st.sampled_from(nouns), min_size=2, max_size=2, unique=True)
    rows = [f"entity\t{entity[noun]}\t{draw(properties)}" for noun in nouns]
    rows += ["unlikely\t%s\t%s\t%s" % rule
             for rule in draw(st.lists(st.tuples(st.sampled_from(ACTIONS), rule_props, rule_props),
                                       max_size=2))]
    rows += [f"hpd\t{action}\t{entity[a]}\t{entity[b]}"
             for action, (a, b) in draw(st.lists(st.tuples(st.sampled_from(ACTIONS), pairs),
                                                  max_size=2))]
    kb = parse_world("\n".join(rows) + "\n")
    lexicon = frozenset(e for e in default_lexicon() if e.word in FUNCTION_WORDS)
    lexicon |= {LexEntry(noun, CONTENT_WORDS, Concept("entity", entity[noun])) for noun in nouns}
    for action, words in verbs.items():
        lexicon |= {LexEntry(w, CONTENT_WORDS, Concept("action", action)) for w in words}
        lexicon |= {LexEntry(w, NR_M_FORMS, Concept("sem", "past_participle")) for w in words}
    story = []
    for _ in range(draw(st.integers(1, 5))):
        agent, patient = draw(pairs)
        action = draw(st.sampled_from(("kill", "kill", "kill", "bite", "push")))
        verb = draw(st.sampled_from(verbs[action]))
        if draw(st.booleans()):
            text = f"the {agent} {verb} the {patient}."
        else:
            text = f"the {patient} was {verb} by the {agent}."
        if draw(st.booleans()):
            text = "Then, " + text
        story.append((text, (action, entity[agent], entity[patient])))
    return kb, lexicon, story


@settings(max_examples=60, deadline=None)
@given(case=new_vocabulary_stories())
def test_stories_over_new_nouns_and_verbs_match_the_first_noun_oracle(case):
    assert_story_matches_the_oracle(*case)


CROWD = "zz"


@st.composite
def crowded_sentences(draw):
    """(text, intended event) of "A V [the] P zz O.": a sentence-initial verb,
    a medial patient, and a third noun after the crowded word. With eight or
    more readings of "zz" the gate drops the patient but keeps the verb and O."""
    agent, patient = draw(entity_pairs)
    other = draw(st.sampled_from(ENTITIES))
    verb = draw(st.sampled_from(sorted(ACTIVE_VERBS)))
    the = draw(st.sampled_from(("", "the ")))
    return f"{agent} {verb} {the}{patient} {CROWD} {other}.", (ACTIVE_VERBS[verb], agent, patient)


@settings(max_examples=100, deadline=None)
@given(kb=worlds(), story=st.lists(st.one_of(sentences(), crowded_sentences()), min_size=1, max_size=4),
       crowd=st.integers(0, 14), capacity=st.integers(0, 14), n=st.integers(1, 3))
def test_the_cue_route_reads_the_event_the_grammar_encodes(kb, story, crowd, capacity, n):
    lexicon = default_lexicon(kb) | {LexEntry(CROWD, CONTENT_WORDS, Concept("disc", f"z{i}"))
                                     for i in range(crowd)}
    paragraph = encode_text(" ".join(text for text, _ in story))
    intended = [event for _, event in story]
    for profile in (advanced_profile(lexicon), advanced_profile(lexicon, capacity, n)):
        for m, event in zip(interpret_paragraph(paragraph, profile, kb, lexicon), intended):
            if m.strategy == GRM_CUES:
                assert m.correct is True and as_tuple(m.event) == event
    for v, event in zip(check_paragraph(paragraph, kb, lexicon), intended):
        if v.cue_event is None:
            assert (v.valuable, v.fnp_event, v.explanation) == (
                False, None, (NO_INTERPRETATION, NO_INTERPRETATION))
        else:
            assert as_tuple(v.cue_event) == event
