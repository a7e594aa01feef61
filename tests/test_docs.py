"""The examples in README.md and docs/FORMATS.md, run as written.

Each `$ tileatlas ...` line of a README console block runs through
``cli.main``, and the lines under it, up to the next `$` line or a blank
line, must be what it prints; a `...` line ends the comparison there.  A
`$ echo $?` line checks the exit code of the command before it.  README's
Python block runs as it stands, and the example tile set of FORMATS.md
must parse.
"""

import re
import shlex
from pathlib import Path

from tileatlas.cli import main
from tileatlas.tileset import parse_tileset

ROOT = Path(__file__).resolve().parent.parent


def fenced_blocks(path: Path, lang: str) -> list[list[str]]:
    """The lines of each ```lang block of the file, in order."""
    text = path.read_text(encoding="utf-8")
    return [body.splitlines()
            for body in re.findall(rf"^```{lang}\n(.*?)^```$", text,
                                   flags=re.M | re.S)]


def console_examples(lines: list[str]):
    """(argv or None for `echo $?`, expected lines) per `$` line; the
    expected lines run to the next `$` line or blank line."""
    examples, expected = [], None
    for line in lines:
        if line.startswith("$ "):
            expected = []
            examples.append((line[2:], expected))
        elif not line:
            expected = None
        else:
            assert expected is not None, f"output of no command: {line!r}"
            expected.append(line)
    return examples


def test_readme_console_examples(capsys):
    ran = checked_codes = 0
    code = None
    for block in fenced_blocks(ROOT / "README.md", "console"):
        for command, expected in console_examples(block):
            if command == "echo $?":
                assert expected == [str(code)], expected
                checked_codes += 1
                continue
            argv = shlex.split(command)
            if argv[0] != "tileatlas":
                continue  # install and test commands
            code = main(argv[1:])
            out = capsys.readouterr().out.splitlines()
            if "..." in expected:
                expected = expected[:expected.index("...")]
                out = out[:len(expected)]
            assert out == expected, command
            ran += 1
    assert ran == 4 and checked_codes == 1


def test_readme_python_block():
    (block,) = fenced_blocks(ROOT / "README.md", "python")
    exec(compile("\n".join(block), "README.md", "exec"), {})


def test_formats_example_tileset():
    text = (ROOT / "docs" / "FORMATS.md").read_text(encoding="utf-8")
    example = text.split("Example:\n\n```\n", 1)[1].split("```", 1)[0]
    ts = parse_tileset(example)
    assert ts.name == "demo" and ts.space == "square2d"
    assert [(p.id, p.colours) for p in ts.prototiles] == [
        ("a", (1, 2, 1, 2)), ("b", (2, 1, 2, 1))]
