"""Background knowledge about the world: entities, a small action theory,
defeasible unlikelihood patterns, and events known to have happened.

The action theory is fixed to three actions. An event is executable when its
agent is animate and alive; kill additionally requires a living patient and is
the only action with a persistent effect (the patient dies). Everything else
is inertial.
"""

from __future__ import annotations

import os

from ._value import value_class
from .errors import ParseError, UnknownAction, UnknownEntity
from .text import read_text

ANIMATE = "animate"
HUMAN = "human"
ENTITY_PROPERTIES = (ANIMATE, HUMAN)

BITE = "bite"
PUSH = "push"
KILL = "kill"
ACTIONS = (BITE, PUSH, KILL)

WILDCARD = "*"


@value_class
class EventTerm:
    """An event: someone (agent) does something (action) to someone (patient)."""

    action: str
    agent: str
    patient: str

    def render(self) -> str:
        return f"ev({self.action}, {self.agent}, {self.patient})"

    def compact(self) -> str:
        return f"ev({self.action},{self.agent},{self.patient})"

    def reversed(self) -> "EventTerm":
        return EventTerm(self.action, self.patient, self.agent)


@value_class
class EntityDef:
    name: str
    properties: frozenset[str]


@value_class
class UnlikelyRule:
    """Pattern marking events as improbable: action plus property constraints
    on agent and patient ('*' matches anything)."""

    action: str
    agent_prop: str
    patient_prop: str


@value_class
class WorldState:
    """Story state at a step: which entities are still alive."""

    step: int
    alive: frozenset[str]


@value_class
class KnowledgeBase:
    """Immutable collection of entities, unlikelihood patterns, and
    known-to-have-happened events."""

    entities: tuple[EntityDef, ...]
    unlikely_rules: tuple[UnlikelyRule, ...]
    happened: frozenset[EventTerm]

    def __post_init__(self):
        # Lookup tables, not fields: they stay out of eq, hash and repr.
        object.__setattr__(self, "_by_name", {e.name: e for e in self.entities})
        object.__setattr__(self, "_names", frozenset(self._by_name))

    def entity(self, name: str) -> EntityDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEntity(f"entity {name!r} is not declared") from None

    def entity_names(self) -> frozenset[str]:
        return self._names

    def has_property(self, name: str, prop: str) -> bool:
        return prop in self.entity(name).properties


def fresh_state(kb: KnowledgeBase) -> WorldState:
    """Step 1 with every declared entity alive."""
    return WorldState(1, kb.entity_names())


def _validate_event(ev: EventTerm, kb: KnowledgeBase) -> None:
    if ev.action not in ACTIONS:
        raise UnknownAction(f"action {ev.action!r} is not one of {ACTIONS}")
    kb.entity(ev.agent)
    kb.entity(ev.patient)


def impossible(ev: EventTerm, state: WorldState, kb: KnowledgeBase) -> bool:
    """True iff some executability condition fails at this state."""
    _validate_event(ev, kb)
    if not kb.has_property(ev.agent, ANIMATE):
        return True
    if ev.agent not in state.alive:
        return True
    if ev.action == KILL and ev.patient not in state.alive:
        return True
    return False


def unlikely(ev: EventTerm, state: WorldState, kb: KnowledgeBase) -> bool:
    """True iff some unlikelihood pattern matches. Does not consult
    executability; callers combine the two predicates themselves."""
    _validate_event(ev, kb)
    for rule in kb.unlikely_rules:
        if rule.action != ev.action:
            continue
        if rule.agent_prop != WILDCARD and not kb.has_property(ev.agent, rule.agent_prop):
            continue
        if rule.patient_prop != WILDCARD and not kb.has_property(ev.patient, rule.patient_prop):
            continue
        return True
    return False


def hpd(ev: EventTerm, kb: KnowledgeBase) -> bool:
    """True iff the event is known to have happened in reality."""
    return ev in kb.happened


def apply_effects(state: WorldState, ev: EventTerm | None, kb: KnowledgeBase) -> WorldState:
    """Advance one story step, applying the event's direct effects; with no
    event the step advances without effects.

    Effects apply even to events the learner wrongly believes occurred.
    """
    alive = state.alive
    if ev is not None:
        _validate_event(ev, kb)
        if ev.action == KILL:
            alive = alive - {ev.patient}
    return WorldState(state.step + 1, alive)


# --- world files -----------------------------------------------------------------

def parse_world(text: str) -> KnowledgeBase:
    """Parse entity/unlikely/hpd records; '#' starts a comment."""
    entities: dict[str, EntityDef] = {}
    # Entities with equal properties share one frozenset, which keeps a large
    # world's memory to its names rather than one set per entity.
    prop_sets: dict[frozenset[str], frozenset[str]] = {}
    rules: list[UnlikelyRule] = []
    happened: dict[EventTerm, int] = {}  # event -> line of its first row
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        kind = fields[0]
        if kind == "entity":
            if len(fields) not in (2, 3):
                raise ParseError("entity record takes a name and optional properties", lineno)
            props = frozenset(p for p in fields[2].split(",") if p) if len(fields) == 3 else frozenset()
            bad = props - set(ENTITY_PROPERTIES)
            if bad:
                raise ParseError(f"unknown entity properties {sorted(bad)}", lineno)
            if fields[1] in entities:
                raise ParseError(f"entity {fields[1]!r} declared twice", lineno)
            entities[fields[1]] = EntityDef(fields[1], prop_sets.setdefault(props, props))
        elif kind == "unlikely":
            if len(fields) != 4:
                raise ParseError("unlikely record takes action, agent prop, patient prop", lineno)
            action, agent_prop, patient_prop = fields[1:]
            if action not in ACTIONS:
                raise UnknownAction(f"action {action!r} is not one of {ACTIONS}", lineno)
            for prop in (agent_prop, patient_prop):
                if prop != WILDCARD and prop not in ENTITY_PROPERTIES:
                    raise ParseError(f"unknown property {prop!r}", lineno)
            rules.append(UnlikelyRule(action, agent_prop, patient_prop))
        elif kind == "hpd":
            if len(fields) != 4:
                raise ParseError("hpd record takes action, agent, patient", lineno)
            action, agent, patient = fields[1:]
            if action not in ACTIONS:
                raise UnknownAction(f"action {action!r} is not one of {ACTIONS}", lineno)
            happened.setdefault(EventTerm(action, agent, patient), lineno)
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)
    # Checked after the loop, so an hpd row may name an entity declared below it.
    for ev, lineno in happened.items():
        for name in (ev.agent, ev.patient):
            if name not in entities:
                raise UnknownEntity(f"entity {name!r} is not declared", lineno)
    return KnowledgeBase(tuple(entities.values()), tuple(rules), frozenset(happened))


def load_world(path: str | os.PathLike[str]) -> KnowledgeBase:
    """Load a world TSV file."""
    return parse_world(read_text(path))


def default_world() -> KnowledgeBase:
    """The knowledge base shipped with the package."""
    return parse_world(read_text(os.path.join(os.path.dirname(__file__), "data", "world.tsv")))
