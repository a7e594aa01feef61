"""A set's tile table, and a dense patch read as strings, one character
per cell, turned along its axes: the box reader that `patch_valid` and
`missing_coronas` share.

A set's labels are the characters of its one tile table (`tile_table`),
built when the set is made and kept as `TileSet.table`.  A label is legal
on one cell kind; str.translate tables take a character to its kind and,
per facet, to the hue it shows there, a character for its colour.

Sorted cell order steps along each axis by a fixed stride (a triangle's
orientation bit varies fastest).  So on a torus the cells at one offset
from every cell are the cells' string turned within each run of the axis
(`turned`); on a free region, the cells whose neighbour one step along an
axis lies in the region are one slice of each run, and those neighbours
another (`_met`).  `patch_text` gives a patch's labels as such a string:
a packed patch's own, translated once where its alphabet is another, or a
dict patch's placements packed, with a hole for each empty cell.

`dense_valid` decides a patch that lies in its region and fills it: its
string translated to kinds must be the region's kind string, and each
facet-sharing pair is met from one side (`facet_steps`), both kinds'
strings translated to the hues their facets show and tested by the rule
at once.  It only accepts; on False `patch_valid` runs its pair walk,
which words every violation.  `corona_rows` reads every corona row of a
torus, the string turned once per touching offset; a free region is read
as its box (`box`, `padded`).  `rings` gives one cell's ring, filled one
coordinate at a time.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import accumulate, count, islice, product, repeat
from math import prod
from operator import eq, itemgetter, mul
from typing import Callable, NamedTuple

from .geometry import (
    FACET_COUNT,
    SPACE_KINDS,
    cell_kind,
    facet_neighbor,
    origin_cell,
    space_dim,
    touching_offsets,
)

# a placement's (tile, orientation) label, read without a Python step
label_of = itemgetter(1, 2)

# per lattice, the touching offsets of each of its kinds
TOUCHING = {space: tuple(map(touching_offsets, kinds))
            for space, kinds in SPACE_KINDS.items()}


class _Wrapped(dict):
    """coordinate -> the ring's coordinates along one axis, each wrapped to
    its extent; an entry is made when its coordinate is first read."""

    __slots__ = ("steps", "extent")

    def __init__(self, steps, extent):
        self.steps, self.extent = steps, extent

    def __missing__(self, c):
        ring = self[c] = tuple([(c + d) % self.extent for d in self.steps])
        return ring


@lru_cache(maxsize=16)
def rings(space: str, extents: tuple) -> tuple:
    """Per kind of the lattice's cells, what its ring of touching cells on
    the torus of `extents` is read off: per axis a _Wrapped table, and the
    ring's orientation bits on tri2d.  A cell's ring is
    zip(*map(getitem, axes, cell), *bits)."""
    return tuple((tuple(map(_Wrapped, steps, extents)), steps[len(extents):])
                 for steps in (tuple(zip(*offsets))
                               for offsets in TOUCHING[space]))


def bounds(region) -> tuple[int, ...]:
    """Per entry of a cell of the region, the bound it lies below; a
    triangle's orientation bit lies below 2."""
    return region.extents + (2,) * (region.space == "tri2d")


def cells_in_region(region, cells) -> bool:
    """Whether every one of `cells` is a lattice cell in the region, as
    cell_in_region says: checked once for them all, their lengths first and
    then each entry's least and greatest value.  The entries are read in
    place, one position at a time: zip(*cells) would copy them, which
    raised the benchmark's patch-pipeline peak RSS by about 0.1 MB."""
    ext = bounds(region)
    return (all(map(len(ext).__eq__, map(len, cells)))
            and all(min(map(entry, cells), default=0) >= 0
                    and max(map(entry, cells), default=0) < e
                    for entry, e in zip(map(itemgetter, range(len(ext))),
                                        ext)))


def box(region):
    """The torus that corona_of reads `region` as: the region itself, or
    for a free region the torus one cell wider on each axis."""
    return region if region.torus else replace(
        region, extents=tuple(e + 1 for e in region.extents), torus=True)


def _runs(extents, step: int) -> list:
    """From the last axis, each axis's stride in a string of `step`
    characters per lattice point: runs[i] is an axis's stride, runs[i + 1]
    its extent times that."""
    return list(accumulate(reversed(extents), mul, initial=step))


def turned(text: str, extents, offset, step: int = 1) -> str:
    """`text`, `step` characters per point of the torus of `extents` in
    sorted order, read at `offset`: where `text` holds a cell's character,
    the result holds that of the cell `offset` away.  Entries of `offset`
    past the extents (a triangle's orientation bit) are not read."""
    runs = _runs(extents, step)
    for d, stride, size in zip(offset[len(extents) - 1::-1], runs, runs[1:]):
        k = d * stride % size
        if k:
            text = "".join([text[j + k:j + size] + text[j:j + k]
                            for j in range(0, len(text), size)])
    return text


def _met(xs: str, ys: str, extents, offset) -> tuple[str, str]:
    """`xs` at the cells of the free region of `extents` whose neighbour at
    `offset`, a step of +-1 along one axis or none, lies in the region, and
    `ys` at those neighbours; both are strings of one character per point
    in sorted order."""
    runs = _runs(extents, 1)
    for d, stride, size in zip(offset[::-1], runs, runs[1:]):
        if d:
            a, b = (0, stride) if d > 0 else (stride, 0)
            starts = range(0, len(xs), size)
            return ("".join([xs[j + a:j + size - b] for j in starts]),
                    "".join([ys[j + b:j + size - a] for j in starts]))
    return xs, ys


def corona_rows(region, text: str):
    """The rows of every cell of a torus, whose cells' row characters, in
    sorted cell order, are `text`: per kind of cell, its cells in that
    order and their rows, the cell's character and then those at its
    touching offsets.  A triangle's neighbours of one orientation bit are
    every second character of the turned text."""
    step = 2 if region.space == "tri2d" else 1
    for kind, offsets in enumerate(TOUCHING[region.space]):
        columns = [turned(text, region.extents, offset, step)
                   [offset[-1] % step::step] for offset in offsets]
        cells = product(*map(range, bounds(region)))
        yield (islice(cells, kind, None, step),
               map("".join, zip(text[kind::step], *columns)))


@lru_cache(maxsize=None)
def facet_steps(space: str) -> tuple:
    """Each facet-sharing pair of the lattice met from its smaller side:
    (kind index, facet, kind index met, facet met, offset of the cell met),
    for each facet of each kind whose (kind index, facet) is below the one
    it meets.  Square N and E, cube X+, Y+ and Z+, and the up triangle's
    three facets."""
    kinds, dim = SPACE_KINDS[space], space_dim(space)
    steps = []
    for k, kind in enumerate(kinds):
        for f in range(FACET_COUNT[kind]):
            nbr, nf = facet_neighbor(space, origin_cell(kind), f)
            j = kinds.index(cell_kind(space, nbr))
            if (k, f) < (j, nf):
                steps.append((k, f, j, nf, nbr[:dim]))
    return tuple(steps)


class _Deleting(dict):
    """A str.translate table that deletes the characters it lacks, where a
    plain one would keep them: a character outside a set's alphabet reads
    as no kind."""

    def __missing__(self, key):
        return None


class TileTable(NamedTuple):
    """A set's one compiled tile table; see tile_table."""

    labels: tuple  # the alphabet kind by kind: labels[i] is chr(i)'s label
    chars: dict  # label -> its character
    hues: dict  # cell kind -> {character: the hues it shows, per facet}
    kinds: dict  # character -> chr(k) for its kind's index k
    colours: list  # per facet: character -> the hue it shows there
    ints: list  # the sorted colours: hue chr(h) stands for ints[h]
    test: Callable  # the rule's test of two equal-length hue sequences


def tile_table(space: str, legal, rule) -> TileTable:
    """The tile table of a set on `space` under `rule`, compiled from
    `legal`, its (kind, label, facet colours) triples for each kind of the
    lattice in turn (a label is legal on one kind): chr(i) for the i-th
    label, chr(h) for the h-th of the sorted colours, per kind its labels'
    characters and their hue tuples, a str.translate table from each
    character to its kind and, per facet, one to the hue it shows there,
    and the rule's test of two sequences of hues."""
    kinds = SPACE_KINDS[space]
    ints = sorted({c for *_, eff in legal for c in eff})
    hue = {c: chr(h) for h, c in enumerate(ints)}
    tuples = [tuple(map(hue.__getitem__, eff)) for *_, eff in legal]
    hues = {kind: {} for kind in kinds}
    for i, (kind, _, _) in enumerate(legal):
        hues[kind][chr(i)] = tuples[i]
    pairs = {(hue[a], hue[b]) for a, b in rule.pairs
             if a in hue and b in hue}
    labels = tuple(label for _, label, _ in legal)
    return TileTable(
        labels, dict(zip(labels, map(chr, count()))), hues,
        _Deleting({i: chr(kinds.index(kind))
                   for i, (kind, _, _) in enumerate(legal)}),
        [dict(enumerate(column)) for column in zip(*tuples)], ints,
        eq if rule.kind == "identical"
        else lambda xs, ys: pairs.issuperset(zip(xs, ys)))


def dense_valid(ts, patch) -> bool:
    """Whether `patch`, whose cells lie in its region, fills the region with
    placements that `ts.table` holds for their cells' kinds and meets the
    facet rule on every facet-sharing pair.  False where it does not or the
    patch is sparse: patch_valid then runs its pair walk."""
    region = patch.region
    if ts.space != region.space or (patch.packed is None and len(
            patch.placements) != prod(bounds(region))):
        return False
    table, step = ts.table, len(SPACE_KINDS[ts.space])
    # a label the table lacks has no kind, so it fails the kind string
    text = patch_text(patch, table.labels)
    # tri2d's two kinds alternate
    if text.translate(table.kinds) != "\0\1"[:step] * (len(text) // step):
        return False
    texts = [text[k::step] for k in range(step)]
    for k, f, j, nf, offset in facet_steps(ts.space):
        xs = texts[k].translate(table.colours[f])
        ys = texts[j].translate(table.colours[nf])
        if region.torus:
            ys = turned(ys, region.extents, offset)
        else:
            xs, ys = _met(xs, ys, region.extents, offset)
        if not table.test(xs, ys):
            return False
    return True


# what an empty cell reads as when a patch's placements are packed: a
# placement whose label no patch holds
_HOLE = object()
_EMPTY = (None, _HOLE, _HOLE)


def patch_text(patch, labels: tuple) -> str:
    """The labels of `patch`, whose cells lie in its region, as characters
    of the alphabet `labels` (chr(i) for labels[i]), one per cell of the
    region in sorted order, chr(len(labels) + 1) where a label is not among
    `labels`.  A patch kept as a string (Patch.packed) is translated once,
    unless `labels` is its own alphabet; one built from placements is
    packed here, one placements.get a cell, chr(len(labels)) where a cell
    is empty."""
    if patch.packed is None:
        spare = chr(len(labels) + 1)
        return "".join(map(_packing(labels).get, map(label_of, map(
            patch.placements.get, product(*map(range, bounds(patch.region))),
            repeat(_EMPTY))), repeat(spare)))
    text, own = patch.packed
    return text if own is labels else text.translate(_recode(own, labels))


@lru_cache(maxsize=16)
def _packing(labels: tuple) -> dict:
    """label -> chr(i) for labels[i], and the empty cell's label -> the
    hole, chr(len(labels))."""
    return {**dict(zip(labels, map(chr, count()))),
            label_of(_EMPTY): chr(len(labels))}


@lru_cache(maxsize=16)
def _recode(own: tuple, labels: tuple) -> dict:
    """The str.translate table from the alphabet `own` to `labels`, as
    patch_text reads it: each character of `own` to that of its label among
    `labels`, or to chr(len(labels) + 1) where `labels` lacks it."""
    index, spare = _packing(labels), chr(len(labels) + 1)
    return {i: index.get(label, spare) for i, label in enumerate(own)}


def padded(text: str, extents, step: int, fill: str) -> str:
    """`text`, `step` characters per point of the region of `extents` in
    sorted order, as the text of the torus one point wider on each axis
    (box): its new points hold `fill`."""
    size = step
    for e in reversed(extents):
        run, pad = e * size, fill * size
        text = "".join([text[j:j + run] + pad
                        for j in range(0, len(text), run)])
        size *= e + 1
    return text
