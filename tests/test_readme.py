"""The README's examples print what it says they print.

The Python block of its Library section runs as written, and each `print`
line that ends in a `# ...` comment prints that comment, or the part of it
before a `: ` that explains the value. Each `$ inputproc ...` example runs
through `cli.main`, in order, in one temporary directory, and its stdout
equals the lines the README shows under it (the first line only for
`| head -n 1`); `$ echo "..." > file` writes the file the later examples read.
"""

import contextlib
import io
import os
import re
import shlex
import sys

from inputproc.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
HEAD = ["|", "head", "-n", "1"]


def blocks(language):
    with open(README, encoding="utf-8") as f:
        return re.findall(rf"^```{language}\n(.*?)^```$", f.read(), re.M | re.S)


def shell_examples():
    """(argv, the README's output) of every `$ ` line, in order."""
    return [(shlex.split(command), output.rstrip("\n"))
            for block in blocks("sh")
            for command, _, output in (chunk.partition("\n")
                                       for chunk in re.split(r"^\$ ", block, flags=re.M)[1:])]


def test_library_block_prints_its_commented_values():
    (code,) = blocks("python")
    printed: dict[int, list[str]] = {}

    def record(*args):
        printed.setdefault(sys._getframe(1).f_lineno, []).append(" ".join(map(str, args)))

    exec(compile(code, "README.md", "exec"), {"print": record})
    commented = {i: line.split("#", 1)[1].strip()
                 for i, line in enumerate(code.splitlines(), 1) if "print(" in line and "#" in line}
    assert len(commented) == 2
    for lineno, comment in commented.items():
        (out,) = printed[lineno]
        assert comment == out or comment.startswith(out + ": "), (lineno, out)


def test_shell_examples_print_what_the_readme_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = shell_examples()
    assert {argv[1] for argv, _ in examples if argv[0] == "inputproc"} == {
        "p1map", "interpret", "check", "generate"}
    for argv, expected in examples:
        if argv[0] == "echo":
            text, redirect, path = argv[1:]
            assert redirect == ">" and expected == ""
            (tmp_path / path).write_text(text + "\n", encoding="utf-8")
            continue
        assert argv[0] == "inputproc", argv
        head = argv[-len(HEAD):] == HEAD
        if head:
            argv = argv[:-len(HEAD)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0, argv
        lines = out.getvalue().splitlines()
        assert "\n".join(lines[:1] if head else lines) == expected, argv
