"""Rule-based model of how second-language learners extract meaning from
controlled-English input, with a screener and generator for Processing
Instruction teaching materials."""

from types import ModuleType as _ModuleType

from .errors import (
    DuplicateEntry,
    EmptySentence,
    EmptyText,
    IndexOutOfRange,
    InputProcError,
    NoInterpretation,
    ParseError,
    UnknownAction,
    UnknownCategory,
    UnknownEntity,
    UnrecognizedTemplate,
)
from .lexicon import (
    CONTENT_WORDS,
    LEAF_CATEGORIES,
    NM_FORMS,
    NR_M_FORMS,
    R_M_FORMS,
    Concept,
    LearnerProfile,
    LexEntry,
    Lexicon,
    advanced_profile,
    beginner_profile,
    default_lexicon,
    entries_for,
    is_ml_ctg_closed,
    is_ml_pos_closed,
    load_lexicon,
    parse_lexicon,
)
from .principle1 import (
    CandidateMeaning,
    MapAtom,
    P1Model,
    candidate_meanings,
    deterministic_maps,
    enumerate_p1_models,
    skippable,
)
from .principle2 import (
    ACTIVE,
    EVENT_PROB_2B,
    FNP_DEFAULT,
    GRM_CUES,
    LEX_SEM_2A,
    PASSIVE,
    PRIOR_KNOWLEDGE_2D,
    DirRev,
    ExtractedMeaning,
    correct_meaning,
    dir_rev_m,
    extract_fnp,
    grm_cues_available,
    interpret_paragraph,
    surface_dir_rev,
)
from .pias import (
    Schema,
    ValuableVerdict,
    check_paragraph,
    check_sentence,
    generate_valuable,
    schemas,
)
from .text import (
    FINAL,
    INITIAL,
    MEDIAL,
    ParagraphEncoding,
    SentenceEncoding,
    encode_text,
    position_of,
)
from .world import (
    ACTIONS,
    EntityDef,
    EventTerm,
    KnowledgeBase,
    UnlikelyRule,
    WorldState,
    apply_effects,
    default_world,
    hpd,
    impossible,
    load_world,
    parse_world,
    unlikely,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
