"""The README's examples run as written: the Library block prints what its
``#`` comments say, and the command-line example prints the output shown
under it."""

import re
import shlex
from pathlib import Path

from nsakit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _blocks(language):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def test_library_example_prints_its_comments(capsys):
    (block,) = _blocks("python")
    lines = block.splitlines()
    expected = []
    # a print's output is its inline comment, or the comment line below it
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("print("):
            inline = re.search(r"\)\s+# (.*)$", line)
            assert inline or below.startswith("# "), line
            expected.append(inline.group(1) if inline else below[2:])
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_command_line_example_prints_its_output(capsys, monkeypatch):
    (block,) = [b for b in _blocks("sh") if b.startswith("$ nsakit ")]
    command, *output = block.splitlines()
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command)[2:])
    shown = "".join(f"{line}\n" for line in output)
    assert (code, capsys.readouterr().out) == (0, shown)
