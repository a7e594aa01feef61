"""The examples in README.md and docs/FORMATS.md, run as written.

Each `$ tileatlas ...` line of a README console block runs through
``cli.main``, and the lines under it, up to the next `$` line or a blank
line, must be what it prints; a `...` line ends the comparison there.  A
`$ echo $?` line checks the exit code of the command before it.  README's
Python block runs as it stands.  Each format's example in FORMATS.md
parses and is written back byte for byte, and its atlas is the one derived
from its reduced set.  Every repository path that README.md or FORMATS.md
names exists.
"""

import re
import shlex
from pathlib import Path

from tileatlas import (derive_atlas, parse_atlas, parse_patch, parse_reduced,
                       parse_tileset, serialize_atlas, serialize_patch,
                       serialize_reduced, serialize_tileset)
from tileatlas.cli import main

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


def formats_examples() -> list[str]:
    """FORMATS.md's examples, one a format: tile set, patch, reduced set
    and atlas."""
    text = (ROOT / "docs" / "FORMATS.md").read_text(encoding="utf-8")
    return re.findall(r"^Example\b.*?^```\n(.*?)^```$", text,
                      flags=re.M | re.S)


def test_formats_example_tileset():
    ts = parse_tileset(formats_examples()[0])
    assert ts.name == "demo" and ts.space == "square2d"
    assert [(p.id, p.colours) for p in ts.prototiles] == [
        ("a", (1, 2, 1, 2)), ("b", (2, 1, 2, 1))]
    assert serialize_tileset(ts) == formats_examples()[0]


def test_formats_examples_read_back_as_written():
    tiles, patch, reduced, atlas = formats_examples()
    ts = parse_tileset(tiles)
    found = parse_patch(patch, ts.space, {p.id for p in ts.prototiles})
    assert set(found.placements.values()) == {
        (c, "a", "r0") for c in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert serialize_patch(found) == patch
    rs = parse_reduced(reduced, ts)
    assert rs.forward == {"a": ("x0", "r0"), "b": ("x0", "r1")}
    assert serialize_reduced(rs) == reduced
    assert serialize_atlas(parse_atlas(atlas, rs)) == atlas
    assert serialize_atlas(derive_atlas(rs)) == atlas


def test_named_paths_exist():
    named = set()
    for doc in ("README.md", "docs/FORMATS.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        named.update(re.findall(
            r"(?<![\w/.])((?:src/)?tileatlas/\w+\.py|(?:tests|docs|bench)/"
            r"[\w./-]*\w)", text))
    paths = {ROOT / ("src/" + p if p.startswith("tileatlas/") else p)
             for p in named}
    assert len(paths) >= 3, named
    assert not [p for p in paths if not p.exists()]
