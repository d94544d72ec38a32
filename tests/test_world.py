from itertools import product

import pytest

from inputproc import (
    ACTIONS,
    EventTerm,
    ParseError,
    UnknownAction,
    UnknownEntity,
    WorldState,
    apply_effects,
    hpd,
    impossible,
    parse_world,
    unlikely,
)


def test_parse_world_records():
    kb = parse_world(
        "# tiny world\n"
        "entity\tcat\tanimate\n"
        "entity\tman\tanimate,human\n"
        "entity\tshoe\n"
        "unlikely\tbite\thuman\t*\n"
        "hpd\tbite\tman\tcat\n"
    )
    assert kb.entity("cat").properties == frozenset({"animate"})
    assert kb.entity("man").properties == frozenset({"animate", "human"})
    assert kb.entity("shoe").properties == frozenset()
    assert len(kb.unlikely_rules) == 1
    assert EventTerm("bite", "man", "cat") in kb.happened


@pytest.mark.parametrize("text", [
    "thing\tcat",                         # unknown record type
    "entity\tcat\tfluffy",                # unknown property
    "entity\tcat\tanimate\nentity\tcat",  # duplicate entity
    "unlikely\tbite\thuman",              # missing field
    "unlikely\tbite\tfluffy\t*",          # unknown property in pattern
    "hpd\tbite\tcat",                     # missing field
])
def test_malformed_world_rejected(text):
    with pytest.raises(ParseError):
        parse_world(text)


@pytest.mark.parametrize("row", ["entity", "entity\tdog\tanimate\textra"])
def test_entity_row_with_a_wrong_field_count_names_its_line(row):
    with pytest.raises(ParseError, match="^line 2: entity record takes a name and optional properties$"):
        parse_world("entity\tcat\tanimate\n" + row)


def test_unknown_action_in_world_file():
    with pytest.raises(UnknownAction) as excinfo:
        parse_world("entity\tcat\tanimate\nunlikely\tfly\t*\t*")
    assert excinfo.value.line == 2
    with pytest.raises(UnknownAction) as excinfo:
        parse_world("entity\tcat\tanimate\nhpd\tfly\tcat\tcat")
    assert excinfo.value.line == 2


def test_happened_event_must_reference_declared_entities():
    with pytest.raises(UnknownEntity) as excinfo:
        parse_world("entity\tcat\tanimate\nhpd\tbite\tcat\tghost")
    assert excinfo.value.line == 2
    assert str(excinfo.value) == "line 2: entity 'ghost' is not declared"
    with pytest.raises(UnknownEntity) as excinfo:
        parse_world("entity\tcat\tanimate\nhpd\tbite\tcat\tcat\nhpd\tbite\tghost\tcat\nhpd\tbite\tcat\tgnome")
    assert excinfo.value.line == 3


def test_happened_event_may_precede_the_entities_it_names():
    kb = parse_world("hpd\tbite\tcat\tdog\nentity\tcat\tanimate\nentity\tdog\tanimate")
    assert hpd(EventTerm("bite", "cat", "dog"), kb)


def test_inanimate_agent_cannot_act(kb):
    state = WorldState()
    assert impossible(EventTerm("bite", "shoe", "dog"), state, kb)
    assert impossible(EventTerm("push", "ball", "rabbit"), state, kb)


def test_executable_event_is_possible(kb):
    assert not impossible(EventTerm("bite", "cat", "dog"), WorldState(), kb)


def test_dead_agent_cannot_act(kb):
    state = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    assert state.step == 2
    assert impossible(EventTerm("push", "dog", "cat"), state, kb)


def test_kill_needs_a_living_patient(kb):
    state = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    assert impossible(EventTerm("kill", "man", "dog"), state, kb)


def test_human_biting_is_unlikely(kb):
    state = WorldState()
    assert unlikely(EventTerm("bite", "man", "dog"), state, kb)
    assert not unlikely(EventTerm("bite", "dog", "man"), state, kb)
    assert not unlikely(EventTerm("push", "cat", "dog"), state, kb)


def test_happened_is_set_membership(kb):
    assert hpd(EventTerm("bite", "tyson", "holyfield"), kb)
    assert not hpd(EventTerm("bite", "holyfield", "tyson"), kb)
    empty = parse_world("entity\tcat\tanimate")
    assert not hpd(EventTerm("bite", "cat", "cat"), empty)


def test_kill_removes_patient(kb):
    state = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    assert state.step == 2
    assert "dog" in state.dead


def test_kill_on_a_large_world_records_only_the_patient():
    kb = parse_world("".join(f"entity\te{i}\tanimate\n" for i in range(10_000)))
    ev = EventTerm("kill", "e17", "e9999")
    assert apply_effects(WorldState(), ev, kb) == WorldState(2, frozenset({"e9999"}))
    assert WorldState() == WorldState(1, frozenset())


def test_push_is_inertial(kb):
    before = WorldState()
    after = apply_effects(before, EventTerm("push", "cat", "dog"), kb)
    assert after.step == 2
    assert after.dead == before.dead


def test_no_event_advances_only_the_step(kb):
    before = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    after = apply_effects(before, None, kb)
    assert after == WorldState(before.step + 1, before.dead)


def test_killing_the_dead_changes_nothing_but_the_step(kb):
    # brute-force state diff: only the step may move on a repeated kill
    once = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    twice = apply_effects(once, EventTerm("kill", "cat", "dog"), kb)
    assert twice.step == once.step + 1
    assert twice.dead == once.dead


def test_unknown_entity_and_action_rejected(kb):
    state = WorldState()
    calls = (lambda ev: impossible(ev, state, kb), lambda ev: unlikely(ev, state, kb),
             lambda ev: apply_effects(state, ev, kb))
    for call in calls:
        with pytest.raises(UnknownEntity, match="^entity 'ghost' is not declared$"):
            call(EventTerm("bite", "ghost", "dog"))
        with pytest.raises(UnknownEntity, match="^entity 'ghost' is not declared$"):
            call(EventTerm("kill", "cat", "ghost"))
        with pytest.raises(UnknownAction, match="^action 'fly' is not one of"):
            call(EventTerm("fly", "cat", "dog"))


def test_unlikely_rule_constrains_the_patient():
    kb = parse_world("entity\tman\tanimate,human\nentity\tcat\tanimate\nunlikely\tbite\t*\thuman\n")
    state = WorldState()
    assert unlikely(EventTerm("bite", "cat", "man"), state, kb) is True
    assert unlikely(EventTerm("bite", "man", "cat"), state, kb) is False


def test_predicates_that_do_not_hold_return_false(kb):
    state = WorldState()
    ev = EventTerm("bite", "cat", "dog")
    assert impossible(ev, state, kb) is False
    assert unlikely(ev, state, kb) is False


def test_unlikely_never_overlaps_impossible_on_fresh_state(kb):
    state = WorldState()
    names = sorted(kb.entity_names())
    for action, agent, patient in product(ACTIONS, names, names):
        ev = EventTerm(action, agent, patient)
        assert not (unlikely(ev, state, kb) and impossible(ev, state, kb))


def test_dead_agent_blocks_every_action(kb):
    state = apply_effects(WorldState(), EventTerm("kill", "cat", "dog"), kb)
    for action in ACTIONS:
        assert impossible(EventTerm(action, "dog", "cat"), state, kb)


def test_effects_keep_alive_within_declared_entities(kb):
    state = WorldState()
    for ev in (EventTerm("kill", "cat", "dog"), EventTerm("push", "man", "cat"),
               EventTerm("kill", "man", "cat")):
        state = apply_effects(state, ev, kb)
        assert state.dead <= kb.entity_names()
    assert state.step == 4
    assert state.dead == frozenset({"dog", "cat"})


def test_predicates_are_pure(kb):
    state = WorldState()
    ev = EventTerm("bite", "man", "dog")
    assert impossible(ev, state, kb) == impossible(ev, state, kb)
    assert unlikely(ev, state, kb) == unlikely(ev, state, kb)
    assert hpd(ev, kb) == hpd(ev, kb)


def test_knowledge_base_is_frozen_and_shares_what_it_can(kb):
    with pytest.raises(AttributeError, match="cannot assign to field 'entities'"):
        kb.entities = ()
    assert kb.entity_names() is kb.entity_names()
    assert WorldState().dead == frozenset()
    assert kb.entity("cat").properties is kb.entity("dog").properties
    assert parse_world("entity\tcat\tanimate") == parse_world("entity\tcat\tanimate")
