"""The indexed lexicon gives the same answers as scanning every entry."""

import copy
import pickle
from importlib import resources

import pytest

from inputproc import (
    Concept,
    LearnerProfile,
    Lexicon,
    ParseError,
    advanced_profile,
    beginner_profile,
    check_paragraph,
    encode_text,
    entries_for,
    enumerate_p1_models,
    generate_valuable,
    interpret_paragraph,
    load_lexicon,
    load_world,
    parse_lexicon,
    schemas,
    surface_dir_rev,
    voice_of,
)
from inputproc.cli import main

from conftest import SINGLE_SENTENCES, STORIES


def scan(lexicon, word):
    return frozenset(e for e in lexicon if e.word == word)


@pytest.mark.parametrize("slice_of", [advanced_profile, beginner_profile])
def test_readings_match_a_full_scan(lexicon, slice_of):
    indexed = slice_of(lexicon).lexicon
    assert isinstance(indexed, Lexicon)
    for word in sorted({e.word for e in lexicon}) + ["zzz"]:
        readings = indexed.readings(word)
        assert isinstance(readings, tuple)
        assert len(readings) == len(set(readings))
        assert frozenset(readings) == scan(indexed, word), word


def test_loaded_lexicon_is_indexed_and_still_a_frozenset(lexicon):
    assert isinstance(lexicon, Lexicon) and isinstance(lexicon, frozenset)
    plain = frozenset(lexicon)
    assert type(plain) is frozenset
    assert plain == lexicon and hash(plain) == hash(lexicon)
    assert isinstance(parse_lexicon(""), Lexicon)


def test_index_tables(lexicon):
    assert lexicon.nouns["cat"] == "cat"
    assert "was" not in lexicon.nouns
    assert lexicon.actions == {"bitten": "bite", "pushed": "push", "killed": "kill"}
    assert lexicon.verbs == ("bitten", "killed", "pushed")
    assert lexicon.form_words(Concept("sem", "passive_voice")) == {"was"}
    assert lexicon.form_words(Concept("entity", "cat")) == frozenset()
    assert lexicon.has_forms
    assert not beginner_profile(lexicon).lexicon.has_forms


def test_a_word_with_two_entity_readings_names_the_first():
    lexicon = parse_lexicon("bat\tcontent\tentity:club\nbat\tcontent\tentity:animal")
    assert lexicon.nouns["bat"] == "animal"


def test_lexicon_is_immutable(lexicon):
    with pytest.raises(AttributeError):
        lexicon._nouns = {}
    with pytest.raises(TypeError):
        lexicon.nouns["cat"] = "dog"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copies_and_pickles_keep_the_index(kb, lexicon, clone):
    twin = clone(lexicon)
    assert type(twin) is Lexicon and twin == lexicon
    assert set(twin.readings("was")) == set(lexicon.readings("was"))
    assert twin.nouns == lexicon.nouns and twin.verbs == lexicon.verbs
    for make in (advanced_profile, beginner_profile):
        profile = make(lexicon)
        assert clone(profile) == profile and type(clone(profile).lexicon) is Lexicon
    kb_twin = clone(kb)
    assert kb_twin == kb and kb_twin.entity_names() == kb.entity_names()


@pytest.mark.parametrize("load", [load_lexicon, load_world])
def test_loading_a_non_utf8_file_is_a_parse_error(tmp_path, load):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("caf\xe9\tcontent\tentity:cafe\n".encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.tsv: not UTF-8 text"):
        load(bad)


def test_profiles_index_once(lexicon):
    assert advanced_profile(lexicon).lexicon is lexicon
    plain = frozenset(lexicon)
    profile = LearnerProfile("custom", plain, 11)
    assert isinstance(profile.lexicon, Lexicon) and profile.lexicon == plain
    assert profile.n == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'lexicon'"):
        profile.lexicon = plain


def test_public_functions_accept_a_plain_frozenset(grammar, kb, lexicon):
    plain = frozenset(lexicon)
    texts = list(SINGLE_SENTENCES.values()) + list(STORIES.values())
    for make in (advanced_profile, beginner_profile):
        assert make(plain) == make(lexicon)
        for word in ("was", "cat", "zzz"):
            assert entries_for(word, make(plain)) == entries_for(word, make(lexicon))
    for text in texts:
        p = encode_text(text)
        assert check_paragraph(p, kb, plain) == check_paragraph(p, kb, lexicon)
        for make in (advanced_profile, beginner_profile):
            assert (interpret_paragraph(p, make(plain), kb, plain)
                    == interpret_paragraph(p, make(lexicon), kb, lexicon))
        for s in p.sentences:
            assert voice_of(s, plain) == voice_of(s, lexicon)
            assert surface_dir_rev(s, plain) == surface_dir_rev(s, lexicon)
    s = grammar[0]
    assert enumerate_p1_models(s, advanced_profile(plain)) == enumerate_p1_models(s, advanced_profile(lexicon))
    assert schemas(plain) == schemas(lexicon)
    assert generate_valuable(kb, plain) == generate_valuable(kb, lexicon)


def _shipped(name):
    return resources.files("inputproc.data").joinpath(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("story", sorted(STORIES))
def test_unused_nouns_leave_cli_output_unchanged(capsys, tmp_path, story):
    extra = [f"zoun{i:04d}" for i in range(2000)]
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(_shipped("lexicon.tsv") + "".join(f"{w}\tcontent\tentity:{w}\n" for w in extra),
                       encoding="utf-8")
    world = tmp_path / "world.tsv"
    world.write_text(_shipped("world.tsv") + "".join(f"entity\t{w}\n" for w in extra),
                     encoding="utf-8")
    text = tmp_path / "story.txt"
    text.write_text(STORIES[story], encoding="utf-8")
    for argv in (["check"], ["interpret", "--learner", "beginner"], ["interpret"]):
        argv += ["--text", str(text)]
        assert main(argv) == 0
        shipped = capsys.readouterr()
        assert main(argv + ["--lexicon", str(lexicon), "--world", str(world)]) == 0
        grown = capsys.readouterr()
        assert shipped.out and grown.out == shipped.out and grown.err == shipped.err == ""

