import os
import subprocess
import sys

import pytest

import inputproc
from inputproc.cli import main, parse_records, render_records

from conftest import SINGLE_SENTENCES, STORIES


@pytest.fixture
def text_file(tmp_path):
    def write(content, name="input.txt"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_p1map_capacity_one(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "p1map", "--text", path, "--capacity", "1")
    assert code == 0
    assert out == "model 1 of s1:\nmap(2, s1, content_words, cat)\n"


def test_p1map_capacity_zero_prints_one_empty_model(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "p1map", "--text", path, "--capacity", "0")
    assert code == 0
    assert out == "model 1 of s1:\n"


def test_p1map_capacity_eleven_prints_two_models(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "p1map", "--text", path)
    assert code == 0
    assert out.count("model 1 of s1:") == 1
    assert out.count("model 2 of s1:") == 1
    # the models differ exactly in the redundant person marker from "was"
    first, second = out.split("model 2 of s1:\n")
    first_atoms = set(first.splitlines()[1:])
    second_atoms = set(second.splitlines())
    assert first_atoms - second_atoms == {"map(3, s1, r_m_forms, third_person_singular)"}
    assert "map(5, s1, r_m_forms, agency)" in first_atoms & second_atoms


def test_interpret_beginner_misreads_the_passive(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "interpret", "--learner", "beginner", "--text", path)
    assert code == 0
    assert out.splitlines() == [
        "extr_m(ev(bite, cat, dog), s1)",
        "extr_m_by(s1, fnp)",
        "correct(s1, no)",
    ]


def test_interpret_advanced_reads_the_passive(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "interpret", "--learner", "advanced", "--text", path)
    assert code == 0
    assert out.splitlines() == [
        "extr_m(ev(bite, dog, cat), s1)",
        "extr_m_by(s1, grm_cues)",
        "correct(s1, yes)",
    ]


def test_interpret_story_shows_the_witness(capsys, text_file):
    path = text_file(STORIES["kill_then_push"])
    code, out, _ = run(capsys, "interpret", "--learner", "beginner", "--text", path)
    assert code == 0
    lines = out.splitlines()
    assert "extr_m(ev(push, cat, dog), s2)" in lines
    assert "impossible(ev(push, dog, cat), 2)" in lines
    assert "correct(s2, yes)" in lines


def test_interpret_reports_sparse_sentences(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "interpret", "--learner", "beginner",
                       "--capacity", "1", "--text", path)
    assert code == 0
    assert out == "no_meaning(s1)\n"


def test_check_single_sentences(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    code, out, _ = run(capsys, "check", "--text", path)
    assert code == 0
    assert out.splitlines()[0].startswith("valuable(s1) = true")
    assert out.splitlines()[-1] == "paragraph(p) valuable = true"

    path = text_file(SINGLE_SENTENCES["rabbit_ball"], "ball.txt")
    code, out, _ = run(capsys, "check", "--text", path)
    assert code == 0
    assert out.splitlines()[0].startswith("valuable(s1) = false")


def test_check_story(capsys, text_file):
    path = text_file(STORIES["push_then_bite"])
    code, out, _ = run(capsys, "check", "--text", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("valuable(s1) = false")
    assert lines[1].startswith("valuable(s2) = true")
    assert lines[2] == "paragraph(p) valuable = true"


def test_generate_includes_and_excludes_known_sentences(capsys):
    code, out, _ = run(capsys, "generate")
    assert code == 0
    assert "The cat was bitten by the dog. [fnp: ev(bite, cat, dog); cues: ev(bite, dog, cat)]" in out.splitlines()
    assert "The shoe was bitten by the dog." not in out


def test_generate_with_empty_lexicon(capsys, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no rows\n", encoding="utf-8")
    code, out, _ = run(capsys, "generate", "--lexicon", str(empty))
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("command", ["p1map", "interpret", "check", "generate"])
def test_structured_output_round_trips(capsys, text_file, command):
    argv = [command, "--format", "structured"]
    if command != "generate":
        argv += ["--text", text_file(STORIES["kill_then_push"])]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert render_records(parse_records(out)) == out


def test_structured_interpret_fields(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["shoe_bitten"])
    code, out, _ = run(capsys, "interpret", "--learner", "beginner",
                       "--format", "structured", "--text", path)
    assert code == 0
    assert parse_records(out) == [
        ("meaning", "s1", "1", "bite", "dog", "shoe", "lex_sem_2a", "fnp", "yes"),
    ]


def test_missing_text_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "interpret")
    assert code == 1
    assert "required" in err


def test_bad_flag_values_are_usage_errors(capsys, text_file):
    path = text_file(SINGLE_SENTENCES["cat_bitten"])
    assert run(capsys, "p1map", "--text", path, "--capacity", "-2")[0] == 1
    assert run(capsys, "p1map", "--text", path, "--n", "0")[0] == 1
    assert run(capsys, "p1map", "--text", path, "--learner", "expert")[0] == 1


def test_unknown_command_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_input_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "interpret", "--text", "/no/such/file.txt")
    assert code == 2
    assert "error" in err


def test_bad_lexicon_file_is_a_parse_error(capsys, text_file, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("cat\tnoun\tentity:cat\n", encoding="utf-8")
    code, _, err = run(capsys, "interpret", "--text", text_file(SINGLE_SENTENCES["cat_bitten"]),
                       "--lexicon", str(bad))
    assert code == 2


def test_degenerate_text_is_a_parse_error(capsys, text_file):
    code, _, _ = run(capsys, "interpret", "--text", text_file("."))
    assert code == 2


def test_template_failure_exits_three(capsys, text_file):
    code, _, err = run(capsys, "interpret", "--text", text_file("cat dog the."))
    assert code == 3
    code, _, err = run(capsys, "check", "--text", text_file("cat dog the."))
    assert code == 3


def test_custom_lexicon_and_world_files(capsys, text_file, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(
        "fox\tcontent\tentity:fox\n"
        "hen\tcontent\tentity:hen\n"
        "nipped\tcontent\taction:bite\n",
        encoding="utf-8",
    )
    world = tmp_path / "world.tsv"
    world.write_text("entity\tfox\tanimate\nentity\then\tanimate\n", encoding="utf-8")
    path = text_file("the fox nipped the hen.")
    code, out, _ = run(capsys, "interpret", "--learner", "beginner", "--text", path,
                       "--lexicon", str(lexicon), "--world", str(world))
    assert code == 0
    assert out.splitlines()[0] == "extr_m(ev(bite, fox, hen), s1)"
    assert "correct(s1, yes)" in out


def test_lexicon_noun_missing_from_the_world_is_a_parse_error(capsys, text_file, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text(
        "fox\tcontent\tentity:fox\n"
        "owl\tcontent\tentity:owl\n"
        "nipped\tcontent\taction:bite\n",
        encoding="utf-8",
    )
    world = tmp_path / "world.tsv"
    world.write_text("entity\tfox\tanimate\n", encoding="utf-8")
    path = text_file("the fox nipped the owl.")
    for command in ("interpret", "check"):
        code, out, err = run(capsys, command, "--text", path,
                             "--lexicon", str(lexicon), "--world", str(world))
        assert code == 2 and out == ""
        assert err == f"inputproc: error: {lexicon}: line 2: entity 'owl' of 'owl' is not declared in the world\n"


def test_world_row_error_names_the_world_file(capsys, text_file, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("fox\tcontent\tentity:fox\n", encoding="utf-8")
    world = tmp_path / "world.tsv"
    world.write_text("entity\tfox\tanimate\nunlikely\tfly\t*\t*\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--text", text_file("the fox."),
                         "--lexicon", str(lexicon), "--world", str(world))
    assert code == 2 and out == ""
    assert err == f"inputproc: error: {world}: line 2: action 'fly' is not one of ('bite', 'push', 'kill')\n"


def test_undeclared_entity_in_an_hpd_row_names_its_line(capsys, text_file, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("fox\tcontent\tentity:fox\n", encoding="utf-8")
    world = tmp_path / "world.tsv"
    world.write_text("entity\tfox\tanimate\nhpd\tbite\tfox\tghost\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--text", text_file("the fox."),
                         "--lexicon", str(lexicon), "--world", str(world))
    assert code == 2 and out == ""
    assert err == f"inputproc: error: {world}: line 2: entity 'ghost' is not declared\n"


def test_lexicon_word_no_text_can_contain_is_a_parse_error(capsys, tmp_path):
    # Such a noun makes `generate` render "The .. was bitten by the dog.", a
    # text with an empty sentence between the two dots.
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("..\tcontent\tentity:cat\ndog\tcontent\tentity:dog\n"
                       "bitten\tcontent\taction:bite\nbitten\tnr_m_form\tsem:past_participle\n",
                       encoding="utf-8")
    code, out, err = run(capsys, "generate", "--lexicon", str(lexicon))
    assert code == 2 and out == ""
    assert err == f"inputproc: error: {lexicon}: line 1: bad word '..'\n"


def test_import_loads_no_heavy_standard_modules():
    # -S skips `site`, whose .pth files may already have loaded some of these.
    src = os.path.dirname(os.path.dirname(inputproc.__file__))
    probe = "import sys, inputproc.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], check=True, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    heavy = {"dataclasses", "inspect", "importlib.resources", "tempfile", "zipfile"}
    assert "inputproc.cli" in loaded
    assert heavy.isdisjoint(loaded)


@pytest.mark.parametrize("flag", ["--text", "--lexicon", "--world"])
def test_non_utf8_input_file_is_a_parse_error(capsys, text_file, tmp_path, flag):
    files = {"--text": text_file(SINGLE_SENTENCES["cat_bitten"])}
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("Le chat a été mordu.".encode("latin-1"))
    files[flag] = str(bad)
    argv = [arg for pair in files.items() for arg in pair]
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert err == f"inputproc: error: {bad}: not UTF-8 text (byte 10)\n"
