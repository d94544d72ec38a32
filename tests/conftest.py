import pytest

from inputproc import (
    CONTENT_WORDS,
    advanced_profile,
    beginner_profile,
    default_lexicon,
    default_world,
    encode_text,
    enumerate_p1_models,
    schemas,
)

# Single-sentence inputs exercised throughout the suite.
SINGLE_SENTENCES = {
    "cat_bitten": "The cat was bitten by the dog.",
    "shoe_bitten": "The shoe was bitten by the dog.",
    "man_bitten": "The man was bitten by the dog.",
    "boxers": "Holyfield was bitten by Tyson.",
    "rabbit_ball": "The ball was pushed by the rabbit.",
}

# Two-sentence stories where the first event conditions the second sentence.
STORIES = {
    "push_then_bite": "The cat pushed the dog. Then, the dog was bitten by the cat.",
    "kill_then_push": "The cat killed the dog. Then, the dog was pushed by the cat.",
}


def sentence(text):
    return encode_text(text).sentences[0]


def assert_models_differ_only_in_skipped_forms(s, profile):
    """Every interpretation keeps each content-word atom of the canonical one,
    skips form atoms only, and extracts the same concepts, so extraction reads
    the same reading pair and cue concepts whichever one is chosen."""
    canonical, *others = enumerate_p1_models(s, profile)
    content = {a for a in canonical.atoms if a.category == CONTENT_WORDS}
    concepts = {a.concept for a in canonical.atoms}
    for model in others:
        assert content <= model.atoms
        assert model.skipped and all(a.category != CONTENT_WORDS for a in model.skipped)
        assert model.atoms | model.skipped == canonical.atoms
        assert {a.concept for a in model.atoms} == concepts


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def kb():
    return default_world()


@pytest.fixture(scope="session")
def advanced(lexicon):
    return advanced_profile(lexicon)


@pytest.fixture(scope="session")
def beginner(lexicon):
    return beginner_profile(lexicon)


@pytest.fixture(scope="session")
def cat_bitten():
    return sentence(SINGLE_SENTENCES["cat_bitten"])


@pytest.fixture(scope="session")
def grammar(lexicon):
    """Every sentence the schema grammar generates over the shipped vocabulary."""
    return [sentence(s.render()) for s in schemas(lexicon)]
