"""Command line interface tests.

Every subcommand is driven through ``main(argv)`` in process; stdout,
stderr and exit codes are checked against the documented contract
(0 success/found, 1 exhausted/invalid input, 2 node or memory limit,
3 usage).  Two tests run the real ``python -m tileatlas.cli`` entry point,
one of them under an address-space limit set in its own process alone.
"""

import inspect
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import tileatlas
import tileatlas.cli
from tileatlas.atlas import (
    DEFAULT_NODE_CAP,
    Atlas,
    corona_of,
    derive_atlas,
    enumerate_source_coronas,
)
from tileatlas.cli import build_parser, main
from tileatlas.geometry import ShapeKind
from tileatlas.reduction import decode_patch, parse_reduced, reduce_set, serialize_reduced
from tileatlas.solver import SolveConfig, solve
from tileatlas.patchtext import parse_patch, serialize_patch
from tileatlas.tileset import (
    FacetRule,
    Patch,
    Prototile,
    RegionSpec,
    TileSet,
    load_bundled,
    patch_valid,
    serialize_tileset,
)

COUNTS_LINES = {
    "wang13": "|P|=13, classes: [13], |G_s|: [8], C1=2, C2=2",
    "cubes21": "|P|=21, classes: [21], |G_s|: [48], C1=1, C2=1",
    "triangles6": "|P|=6, classes: [3, 3], |G_s|: [6, 6], C1=2, C2=1",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_bundled_sets(capsys):
    for name, line in COUNTS_LINES.items():
        code, out, _ = run(capsys, "counts", "--in", f"@{name}")
        assert code == 0
        assert out.strip() == line


def test_counts_from_file(tmp_path, capsys):
    path = tmp_path / "w.tiles"
    path.write_text(serialize_tileset(load_bundled("wang13")), encoding="utf-8")
    code, out, _ = run(capsys, "counts", "--in", str(path))
    assert code == 0
    assert out.strip() == COUNTS_LINES["wang13"]


def test_counts_and_reduce_refuse_a_set_placed_by_every_isometry(tmp_path,
                                                                 capsys):
    ts = load_bundled("wang13")
    path = tmp_path / "w.tiles"
    path.write_text(serialize_tileset(
        TileSet(ts.name, ts.prototiles, ts.rule, "all")), encoding="utf-8")
    refusal = "error: reduction is defined for translation-placed sets\n"
    for argv in (("counts",), ("reduce", "--mode", "c1")):
        assert run(capsys, *argv, "--in", str(path)) == (1, "", refusal)


def test_reduce_matches_library_output(tmp_path, capsys):
    for name in ("wang13", "cubes21", "triangles6"):
        ts = load_bundled(name)
        for mode in ("c1", "c2"):
            path = tmp_path / f"{name}-{mode}.reduced"
            code, out, _ = run(capsys, "reduce", "--in", f"@{name}",
                               "--mode", mode, "--out", str(path))
            assert code == 0
            assert out == ""
            text = path.read_text(encoding="utf-8")
            assert text == serialize_reduced(reduce_set(ts, mode))
            rs = parse_reduced(text, ts)
            assert rs.mode == mode


def test_reduce_to_stdout(capsys):
    code, out, _ = run(capsys, "reduce", "--in", "@triangles6", "--mode", "c2")
    assert code == 0
    assert out.splitlines()[0] == "reduced triangles6-c2 c2"
    assert "d1 -> x0 ut4" in out


def test_tile_writes_valid_patch(tmp_path, capsys):
    ts = load_bundled("wang13")
    path = tmp_path / "p.patch"
    code, out, err = run(capsys, "tile", "--in", "@wang13", "--width", "4",
                         "--height", "4", "--seed", "1", "--out", str(path))
    assert code == 0
    assert err.startswith("found nodes=")
    patch = parse_patch(path.read_text(encoding="utf-8"), "square2d",
                        set(ts.by_id))
    assert patch.region.extents == (4, 4)
    assert not patch.region.torus
    ok, violations = patch_valid(ts, patch)
    assert ok and violations == ()


def test_tile_exhausted_exit(tmp_path, capsys):
    path = tmp_path / "none.patch"
    code, _, err = run(capsys, "tile", "--in", "@wang13", "--width", "2",
                       "--height", "2", "--torus", "--out", str(path))
    assert code == 1
    assert err.startswith("exhausted nodes=")
    assert not path.exists()


def test_tile_node_limit_exit(tmp_path, capsys):
    path = tmp_path / "none.patch"
    code, _, err = run(capsys, "tile", "--in", "@wang13", "--width", "6",
                       "--height", "6", "--node-limit", "5",
                       "--out", str(path))
    assert code == 2
    assert err.startswith("limit nodes=")
    assert not path.exists()


def test_tile_atlas_mode(tmp_path, capsys):
    ts = load_bundled("triangles6")
    red = tmp_path / "t.reduced"
    code, _, _ = run(capsys, "reduce", "--in", "@triangles6", "--mode", "c1",
                     "--out", str(red))
    assert code == 0
    patch_path = tmp_path / "t.patch"
    code, _, err = run(capsys, "tile", "--in", "@triangles6",
                       "--reduced", str(red), "--width", "2", "--height", "2",
                       "--torus", "--seed", "3", "--out", str(patch_path))
    assert code == 0
    assert err.startswith("found nodes=")
    rs = parse_reduced(red.read_text(encoding="utf-8"), ts)
    patch = parse_patch(patch_path.read_text(encoding="utf-8"), "tri2d",
                        rs.rep_ids)
    decoded = decode_patch(rs, patch)
    ok, _ = patch_valid(ts, decoded)
    assert ok


def test_exhaust_kmax_negative(capsys):
    code, out, _ = run(capsys, "exhaust", "--in", "@wang13", "--kmax", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for k, line in enumerate(lines, start=1):
        assert re.fullmatch(rf"k={k}: exhausted nodes=\d+", line)


def test_exhaust_kmax_at_its_node_limit_exits_2(capsys):
    # a torus cut off by the node limit is no answer: the sweep goes on,
    # and the worst status it met sets the exit code
    code, out, _ = run(capsys, "exhaust", "--in", "@wang13", "--kmax", "3",
                       "--node-limit", "100")
    assert (code, out) == (2, "k=1: exhausted nodes=13\n"
                              "k=2: limit nodes=101\nk=3: limit nodes=101\n")


def test_exhaust_kmax_found_stops_early(tmp_path, capsys):
    path = tmp_path / "k.patch"
    code, out, _ = run(capsys, "exhaust", "--in", "@triangles6", "--kmax", "3",
                       "--out", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"k=1: found nodes=\d+", lines[0])
    ts = load_bundled("triangles6")
    patch = parse_patch(path.read_text(encoding="utf-8"), "tri2d",
                        set(ts.by_id))
    assert patch.region.torus and patch.region.extents == (1, 1)
    assert patch_valid(ts, patch)[0]


def test_exhaust_kmax_streams_its_tori(tmp_path):
    # one tile with every facet 0 tiles every torus: the sweep finds one at
    # k=1 and stops, without building the tori up to kmax first; it runs as
    # its own process, under an address-space limit set in that child alone
    tiles = tmp_path / "one.tiles"
    tiles.write_text("tileset one\nspace square2d\nisometries translations\n"
                     "rule identical\ntile a 0 0 0 0\n", encoding="utf-8")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(tileatlas.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "tileatlas.cli", "exhaust", "--in", str(tiles),
         "--kmax", "1" + "0" * 20], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "k=1: found nodes=1\n", "")


def test_memory_error_is_one_line_and_exit_2(capsys, monkeypatch):
    # a MemoryError that escapes a command reads as a limit reached; the
    # command is made to raise it, so nothing large is allocated
    def exhausted(ts):
        raise MemoryError

    monkeypatch.setattr(tileatlas.cli, "partition_translation", exhausted)
    code, out, err = run(capsys, "counts", "--in", "@wang13")
    assert (code, out, err) == (2, "", "error: out of memory\n")


class _GoneReader:
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_pipe_ends_quietly(capsys, monkeypatch):
    # output cut off by its reader, as by `| head`, ends the run with exit
    # 1 and no message, and what is printed after goes to the null device;
    # other OSErrors keep their message
    monkeypatch.setattr(sys, "stdout", _GoneReader())
    code = main(["exhaust", "--in", "@wang13", "--kmax", "1" + "0" * 20])
    assert (code, capsys.readouterr().err) == (1, "")
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    monkeypatch.undo()
    code, _, err = run(capsys, "counts", "--in", "/nonexistent/x.tiles")
    assert code == 1 and err.startswith("error: [Errno 2]"), err


def test_broken_pipe_at_exit_ends_quietly():
    # the same in a process of its own whose output pipe is closed before
    # it writes: the output buffered until exit is flushed inside the run,
    # so the interpreter's shutdown has nothing left to report
    src = str(Path(tileatlas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tileatlas.cli", "counts", "--in",
             "@wang13"], stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_exhaust_explicit_region(capsys):
    code, out, _ = run(capsys, "exhaust", "--in", "@wang13", "--width", "2",
                       "--height", "3")
    assert code == 1
    assert re.fullmatch(r"exhausted nodes=\d+", out.strip())


def test_verify_ok_and_invalid(tmp_path, capsys):
    ts = load_bundled("wang13")
    result = solve(ts, RegionSpec("square2d", (3, 3), False),
                   SolveConfig(seed=4))
    assert result.status == "found"
    good = tmp_path / "good.patch"
    good.write_text(serialize_patch(result.patch), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--in", "@wang13", "--patch",
                       str(good))
    assert code == 0
    assert out.strip() == "ok"

    # Swap the middle tile for one that breaks a facet match.
    cell = (1, 1)
    original = result.patch.placements[cell]
    for tile in ts.prototiles:
        if tile.id == original.tile:
            continue
        placements = dict(result.patch.placements)
        placements[cell] = original.__class__(cell, tile.id,
                                              original.orientation)
        tampered = Patch(result.patch.set_name, result.patch.region,
                         placements)
        if not patch_valid(ts, tampered)[0]:
            break
    else:
        raise AssertionError("no tampering broke the patch")
    bad = tmp_path / "bad.patch"
    bad.write_text(serialize_patch(tampered), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--in", "@wang13", "--patch",
                       str(bad))
    assert code == 1
    assert "invalid:" in out


def test_verify_unknown_tile_is_input_error(tmp_path, capsys):
    path = tmp_path / "odd.patch"
    path.write_text("patch wang13 1 1 free\n0 0 zz r0\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--in", "@wang13", "--patch",
                         str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "zz" in err
    assert out == ""


def test_verify_malformed_header_is_input_error(tmp_path, capsys):
    path = tmp_path / "odd.patch"
    for header in ("patch wang13 1 1", "patch wang13 x 3 free"):
        path.write_text(f"{header}\n0 0 a1 r0\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--in", "@wang13", "--patch",
                             str(path))
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


def test_verify_reduced_with_atlas(tmp_path, capsys):
    red = tmp_path / "t.reduced"
    run(capsys, "reduce", "--in", "@triangles6", "--mode", "c1",
        "--out", str(red))
    patch_path = tmp_path / "t.patch"
    code, _, _ = run(capsys, "tile", "--in", "@triangles6", "--reduced",
                     str(red), "--width", "3", "--height", "3", "--torus",
                     "--seed", "0", "--out", str(patch_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", "@triangles6", "--reduced",
                       str(red), "--patch", str(patch_path), "--with-atlas")
    assert code == 0
    assert out.strip() == "ok (decoded facets valid; 18 coronas in atlas)"
    code, out, _ = run(capsys, "verify", "--in", "@triangles6", "--reduced",
                       str(red), "--patch", str(patch_path))
    assert code == 0
    assert out.strip() == "ok (decoded facets valid)"


def test_verify_reduced_with_atlas_names_each_missing_corona(
        tmp_path, capsys, monkeypatch):
    # the atlas that verify derives, less the row of the patch's first
    # corona: every cell with that corona is named, in sorted order
    red = tmp_path / "t.reduced"
    run(capsys, "reduce", "--in", "@triangles6", "--mode", "c1",
        "--out", str(red))
    patch_path = tmp_path / "t.patch"
    run(capsys, "tile", "--in", "@triangles6", "--reduced", str(red),
        "--width", "3", "--height", "3", "--torus", "--seed", "0",
        "--out", str(patch_path))
    patch = parse_patch(patch_path.read_text(encoding="utf-8"), "tri2d")
    cells = sorted(patch.placements)
    coronas = [corona_of(patch.placements, patch.region, c) for c in cells]

    def short(rs, node_cap):
        atlas = derive_atlas(rs, node_cap=node_cap)
        return Atlas(atlas.name, set(atlas.coronas) - {coronas[0]})

    monkeypatch.setattr(tileatlas.cli, "derive_atlas", short)
    code, out, _ = run(capsys, "verify", "--in", "@triangles6", "--reduced",
                       str(red), "--patch", str(patch_path), "--with-atlas")
    assert code == 1
    assert out == "".join(f"invalid: corona at {cell} not in atlas\n"
                          for cell, c in zip(cells, coronas)
                          if c == coronas[0])


def test_verify_atlas_budget_crossed_is_node_limit(tmp_path, capsys):
    red = tmp_path / "w.reduced"
    run(capsys, "reduce", "--in", "@wang13", "--mode", "c2", "--out", str(red))
    patch_path = tmp_path / "w.patch"
    code, _, _ = run(capsys, "tile", "--in", "@wang13", "--reduced", str(red),
                     "--width", "3", "--height", "3", "--out", str(patch_path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--in", "@wang13", "--reduced",
                         str(red), "--patch", str(patch_path), "--with-atlas",
                         "--atlas-budget", "100")
    assert code == 2
    assert err == "error: corona enumeration exceeded 100 nodes\n"
    assert out == ""


def test_verify_reduced_decode_error(tmp_path, capsys):
    red = tmp_path / "t.reduced"
    run(capsys, "reduce", "--in", "@triangles6", "--mode", "c1",
        "--out", str(red))
    bad = tmp_path / "bad.patch"
    bad.write_text("patch triangles6-c1 1 1 torus\n"
                   "0 0 u x0 t3\n0 0 d x1 t0\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--in", "@triangles6", "--reduced",
                       str(red), "--patch", str(bad))
    assert code == 1
    assert out.startswith("invalid:")


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", "--in", "@wang13", "--mode", "c2",
                       "--width", "3", "--height", "3", "--seed", "7",
                       "--count", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["seed 7: ok", "seed 8: ok",
                     "2/2 patches round-tripped, 0 failures"]


def test_roundtrip_at_its_node_limit_counts_failures(capsys):
    # a seed cut off by the node limit is a failure, not a patch
    code, out, _ = run(capsys, "roundtrip", "--in", "@wang13", "--mode", "c2",
                       "--width", "4", "--height", "4", "--node-limit", "1",
                       "--count", "2")
    assert (code, out) == (1, "seed 0: limit\nseed 1: limit\n"
                              "0/2 patches round-tripped, 2 failures\n")


def test_roundtrip_without_patches_fails(tmp_path, capsys):
    # North never matches south, so no torus tiling exists.
    ts = TileSet("stuck", (Prototile("t", ShapeKind.SQUARE, (1, 3, 2, 3)),),
                 FacetRule("identical"), "translations")
    path = tmp_path / "stuck.tiles"
    path.write_text(serialize_tileset(ts), encoding="utf-8")
    code, out, _ = run(capsys, "roundtrip", "--in", str(path), "--mode", "c1",
                       "--width", "1", "--height", "1", "--torus",
                       "--seed", "0", "--count", "1")
    assert code == 1
    assert out.strip().splitlines() == [
        "seed 0: exhausted", "0/1 patches round-tripped, 0 failures"]


def test_render_source_patch(tmp_path, capsys):
    patch_path = tmp_path / "p.patch"
    run(capsys, "tile", "--in", "@wang13", "--width", "3", "--height", "3",
        "--seed", "2", "--out", str(patch_path))
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        code, _, _ = run(capsys, "render", "--in", "@wang13", "--patch",
                         str(patch_path), "--svg", str(target))
        assert code == 0
    data = svg_a.read_bytes()
    assert data == svg_b.read_bytes()
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")


def test_render_reduced_patch(tmp_path, capsys):
    red = tmp_path / "t.reduced"
    run(capsys, "reduce", "--in", "@triangles6", "--mode", "c2",
        "--out", str(red))
    patch_path = tmp_path / "t.patch"
    code, _, _ = run(capsys, "tile", "--in", "@triangles6", "--reduced",
                     str(red), "--width", "2", "--height", "2", "--torus",
                     "--seed", "1", "--out", str(patch_path))
    assert code == 0
    svg_path = tmp_path / "t.svg"
    code, _, _ = run(capsys, "render", "--in", "@triangles6", "--reduced",
                     str(red), "--patch", str(patch_path), "--svg",
                     str(svg_path))
    assert code == 0
    text = svg_path.read_text(encoding="utf-8")
    assert "<polyline" in text
    ET.fromstring(text)


def test_render_refuses_cells_outside_the_region(tmp_path, capsys):
    # a cube layer past the header's depth, and a square cell past its
    # height: exit 1 with the first such cell named, no traceback
    red = tmp_path / "c.reduced"
    run(capsys, "reduce", "--in", "@cubes21", "--mode", "c1",
        "--out", str(red))
    cube = tmp_path / "c.patch"
    cube.write_text("patch cubes21-c1 2 2 2 free\n"
                    "0 0 0 x0 sXYZ:+++/XYZ\n0 0 5 x0 sXYZ:+++/XYZ\n"
                    "1 0 7 x0 sXYZ:+++/XYZ\n", encoding="utf-8")
    square = tmp_path / "s.patch"
    square.write_text("patch wang13 2 2 free\n0 0 a1 r0\n0 5 a1 r0\n",
                      encoding="utf-8")
    for argv, where in (
            (("render", "--in", "@cubes21", "--reduced", str(red),
              "--patch", str(cube)), "(0, 0, 5) lies outside the 2x2x2"),
            (("render", "--in", "@wang13", "--patch", str(square)),
             "(0, 5) lies outside the 2x2")):
        svg = tmp_path / "out.svg"
        code, out, err = run(capsys, *argv, "--svg", str(svg))
        assert code == 1, argv
        assert err == f"error: cell {where} region\n", err
        assert out == "", argv
        assert not svg.exists()


def test_render_refuses_what_it_cannot_draw(tmp_path, capsys):
    # an up triangle's code on a down cell, which verify refuses too, and a
    # free wang13 cell whose x has 310 digits: exit 1, no traceback
    red = tmp_path / "t.reduced"
    run(capsys, "reduce", "--in", "@triangles6", "--mode", "c2",
        "--out", str(red))
    misfit = tmp_path / "m.patch"
    misfit.write_text("patch triangles6-c2 1 1 free\n0 0 d x0 t0\n",
                      encoding="utf-8")
    far = 10 ** 309
    wide = tmp_path / "w.patch"
    wide.write_text(f"patch wang13 {far + 1} 1 free\n{far} 0 a1 r0\n",
                    encoding="utf-8")
    for argv, fault in (
            (("--in", "@triangles6", "--reduced", str(red), "--patch",
              str(misfit)),
             "orientation 't0' does not fit tile x0 at (0, 0, 1)"),
            (("--in", "@wang13", "--patch", str(wide)),
             f"cell ({far}, 0) lies at 2**1000 or beyond on the canvas, out "
             "of a float's range")):
        svg = tmp_path / "out.svg"
        code, out, err = run(capsys, "render", *argv, "--svg", str(svg))
        assert code == 1, argv
        assert err == f"error: {fault}\n", err
        assert out == "" and not svg.exists()
    code, out, _ = run(capsys, "verify", "--in", "@triangles6", "--reduced",
                       str(red), "--patch", str(misfit))
    assert code == 1
    assert "orientation 't0' not allowed for tile u1 at (0, 0, 1)" in out


def test_render_refuses_a_patch_of_another_lattice(tmp_path, capsys):
    # a triangles6 placement line has one field more than a square one
    patch = tmp_path / "t.patch"
    patch.write_text("patch triangles6 2 2 torus\n0 0 u u1 t0\n",
                     encoding="utf-8")
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--in", "@wang13", "--patch",
                         str(patch), "--svg", str(svg))
    assert code == 1
    assert err == "error: line 2: expected x y tile code\n", err
    assert out == "" and not svg.exists()


def test_render_refuses_rep_on_another_lattice(tmp_path, capsys):
    # a rep no tile maps to, on another lattice: refused while the reduced
    # text is read, before a patch could place it
    red = tmp_path / "w.reduced"
    run(capsys, "reduce", "--in", "@wang13", "--mode", "c2", "--out", str(red))
    lines = red.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(3, "rep x9 cube\n")
    red.write_text("".join(lines), encoding="utf-8")
    patch = tmp_path / "p.patch"
    patch.write_text("patch wang13-c2 1 1 free\n0 0 x9 r0\n", encoding="utf-8")
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--in", "@wang13", "--reduced",
                         str(red), "--patch", str(patch), "--svg", str(svg))
    assert code == 1
    assert err.startswith("error: line 4: "), err
    assert "Traceback" not in err and out == ""
    assert not svg.exists()


def test_default_atlas_budget_is_one_constant():
    args = build_parser().parse_args(["verify", "--in", "@wang13",
                                      "--patch", "p"])
    assert args.atlas_budget == DEFAULT_NODE_CAP == 2 * 10 ** 8
    for fn in (derive_atlas, enumerate_source_coronas):
        default = inspect.signature(fn).parameters["node_cap"].default
        assert default == DEFAULT_NODE_CAP, fn


def test_usage_errors(capsys):
    # each refusal says why on one stderr line, whether argparse or a
    # command found it; argparse's own wording of an invalid choice differs
    # between Python versions, so that case is matched by its start
    req = "the following arguments are required: "
    below = "argument --{}: {} is below {}"
    sweep = "--kmax sweeps its own tori: give it no --width/--height/--depth"
    cases = [
        ([], req + "command"),
        (["bogus"], "argument command: invalid choice: "),
        (["counts"], req + "--in"),
        (["reduce", "--in", "@wang13"], req + "--mode"),
        (["exhaust", "--in", "@wang13"],
         "exhaust needs --kmax or --width/--height"),
        (["tile", "--in", "@cubes21", "--width", "2", "--height", "2"],
         "cube3d regions need --depth"),
        (["tile", "--in", "@wang13", "--width", "2", "--height", "2",
          "--depth", "2"], "--depth does not apply to square2d"),
        (["tile", "--in", "@wang13", "--width", "2", "--height", "2",
          "--node-limit", "-5"], below.format("node-limit", -5, 0)),
        (["exhaust", "--in", "@wang13", "--kmax", "0"],
         below.format("kmax", 0, 1)),
        # extents below 1, on every subcommand that takes them
        (["tile", "--in", "@wang13", "--width", "0", "--height", "3"],
         below.format("width", 0, 1)),
        (["tile", "--in", "@wang13", "--width", "3", "--height", "-2"],
         below.format("height", -2, 1)),
        (["tile", "--in", "@cubes21", "--width", "2", "--height", "2",
          "--depth", "0"], below.format("depth", 0, 1)),
        (["exhaust", "--in", "@wang13", "--width", "0", "--height", "3"],
         below.format("width", 0, 1)),
        (["roundtrip", "--in", "@wang13", "--mode", "c1", "--width", "2",
          "--height", "0"], below.format("height", 0, 1)),
        (["exhaust", "--in", "@wang13", "--kmax", "2", "--node-limit", "-1"],
         below.format("node-limit", -1, 0)),
        # a sweep chooses its own tori; extents beside it are refused,
        # also one that does not apply to the lattice
        (["exhaust", "--in", "@wang13", "--kmax", "2", "--width", "5",
          "--height", "5"], sweep),
        (["exhaust", "--in", "@wang13", "--kmax", "2", "--depth", "5"],
         sweep),
        (["verify", "--in", "@wang13", "--patch", "p", "--reduced", "r",
          "--with-atlas", "--atlas-budget", "-1"],
         below.format("atlas-budget", -1, 0)),
        (["roundtrip", "--in", "@wang13", "--mode", "c1", "--width", "2",
          "--height", "2", "--count", "0"], below.format("count", 0, 1)),
        # the atlas check needs a reduced set; refused before any file is read
        (["verify", "--in", "@wang13", "--patch", "p", "--with-atlas"],
         "--with-atlas needs --reduced"),
    ]
    for argv, why in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert out == "", argv
        line = f"usage error: {why}"
        if argv == ["bogus"]:
            assert err.startswith(line) and "bogus" in err, err
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == line + "\n", argv


def test_main_reuses_one_parser_with_a_fresh_parsers_results(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    # main builds its parser once; each call must still give what a parser
    # built for it alone gives, and no flag of one call may reach the next
    patch, svg = tmp_path / "p.patch", tmp_path / "p.svg"
    calls = [
        ["tile", "--in", "@wang13", "--width", "3", "--height", "3",
         "--seed", "2", "--out", str(patch)],
        ["verify", "--in", "@wang13", "--patch", str(patch)],
        ["tile", "--in", "@wang13", "--width", "2", "--height", "2",
         "--node-limit", "-5"],  # a usage error
        ["render", "--in", "@wang13", "--patch", str(patch), "--svg",
         str(svg)],
        # no --seed and no --out: the first call's values must not stay
        ["tile", "--in", "@wang13", "--width", "3", "--height", "3"],
        ["verify", "--in", "@wang13", "--patch", str(patch), "--with-atlas"],
        ["exhaust", "--in", "@wang13", "--kmax", "2"],
    ]

    def session():
        results = [run(capsys, *argv) for argv in calls]
        return results, svg.read_bytes()

    tileatlas.cli._parser.cache_clear()
    kept = session()
    info = tileatlas.cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    monkeypatch.setattr(tileatlas.cli, "_parser", build_parser)
    assert session() == kept
    codes = [code for code, _, _ in kept[0]]
    assert codes == [0, 0, 3, 0, 0, 3, 1]
    assert kept[0][4][1].startswith("patch wang13 3 3 free\n")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "counts", "--in", "/no/such/file.tiles")
    assert code == 1
    assert err.startswith("error:")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    good = tmp_path / "good.patch"
    good.write_text("patch wang13 1 1 free\n0 0 a1 r0\n", encoding="utf-8")
    for argv in (("verify", "--in", str(bad), "--patch", str(good)),
                 ("verify", "--in", "@wang13", "--patch", str(bad)),
                 ("render", "--in", "@wang13", "--patch", str(bad),
                  "--svg", str(tmp_path / "out.svg")),
                 ("verify", "--in", "@wang13", "--reduced", str(bad),
                  "--patch", str(good))):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and "not UTF-8" in err, argv
        assert "Traceback" not in err and out == "", argv


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(tileatlas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "tileatlas.cli", "counts", "--in", "@wang13"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == COUNTS_LINES["wang13"]
