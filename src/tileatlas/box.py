"""A dense patch read as strings, one character per cell, turned along its
axes: the box reader that `patch_valid` and `missing_coronas` share.

Sorted cell order steps along each axis by a fixed stride (the last entry,
a triangle's orientation bit, varies fastest).  So the cells at one offset
from every cell of a torus are read at once, the cells' string turned
within each run of an axis's extent times its stride (`turned`); on a free
region, the cells whose neighbour one step along an axis lies in the region
are one slice of each run, and those neighbours another (`_met`).

`missing_coronas` reads every corona row of a patch's box (`box`) from one
string of label characters, turned once per touching offset
(`corona_rows`).

`patch_valid` reads a patch that lies in its region and fills it by the
dense route (`dense_valid`): its labels, in sorted cell order, are packed
per cell kind by a table compiled once per set from `TileSet.legal`.  Each
facet-sharing pair is met from one side (`facet_steps`): per step, both
kinds' strings are translated to the colours their facets show and
compared, the neighbour's turned by the step on a torus and sliced on a
free region; under `identical` that is one string comparison, and a table
rule tests the pairs of characters.  On tri2d the up cells are the even
characters and the down cells the odd ones.

The route only accepts.  An unplaced cell, a label the table lacks (an
illegal placement) or a failed comparison returns False, and `patch_valid`
runs its pair walk, which words every violation in order.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import accumulate, islice, product
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


def hues(ts) -> dict:
    """Colour -> character, chr(h) for the h-th of the sorted colours that
    `ts.legal` shows."""
    return {c: chr(h) for h, c in enumerate(sorted(
        {c for table in ts.legal.values() for eff in table.values()
         for c in eff}))}


def hue_test(rule, hue: dict) -> Callable:
    """The rule's test of two equal-length strings of colours interned by
    `hue`: true when it accepts every position's pair."""
    if rule.kind == "identical":
        return eq
    pairs = {(hue[a], hue[b]) for a, b in rule.pairs if a in hue and b in hue}
    return lambda xs, ys: pairs.issuperset(zip(xs, ys))


class _DenseCheck(NamedTuple):
    """A set's compiled facet check over packed cell strings; see
    _dense_check."""

    chars: list  # per cell kind: label -> its character
    # per facet step: kind, character -> colour table, kind met, its table,
    # and the offset of the cell met
    steps: list
    test: Callable  # the rule's test of two colour strings


def _dense_check(ts) -> _DenseCheck:
    """Per cell kind of the set's lattice a character for each label that
    `ts.legal` holds for it, per facet step two str.translate tables from
    those characters to the colour each end's facet shows (interned by
    `hues`), and the rule's test.  Compiled once per set and kept on it."""
    if not ts.dense_check:
        kinds = SPACE_KINDS[ts.space]
        chars = [{label: chr(i) for i, label in enumerate(ts.legal[kind])}
                 for kind in kinds]
        hue = hues(ts)

        def paint(k, f):  # label char -> the colour char of facet f on kind k
            return {ord(ch): hue[ts.legal[kinds[k]][label][f]]
                    for label, ch in chars[k].items()}

        ts.dense_check.append(_DenseCheck(
            chars, [(k, paint(k, f), j, paint(j, nf), offset)
                    for k, f, j, nf, offset in facet_steps(ts.space)],
            hue_test(ts.rule, hue)))
    return ts.dense_check[0]


def dense_valid(ts, patch) -> bool:
    """Whether `patch`, whose cells lie in its region, fills the region with
    placements that `ts.legal` holds for their cells' kinds and meets the
    facet rule on every facet-sharing pair.  False where it does not or the
    patch is sparse: patch_valid then runs its pair walk."""
    region, placements = patch.region, patch.placements
    ext = bounds(region)
    if ts.space != region.space or len(placements) != prod(ext):
        return False
    check = _dense_check(ts)
    step = len(check.chars)  # tri2d's two kinds alternate
    try:
        labels = list(map(label_of, map(placements.__getitem__,
                                        product(*map(range, ext)))))
        texts = ["".join(map(table.__getitem__,
                             islice(labels, k, None, step)))
                 for k, table in enumerate(check.chars)]
    except KeyError:  # a cell of the region unplaced, or an illegal label
        return False
    for k, paint, j, meet, offset in check.steps:
        xs, ys = texts[k].translate(paint), texts[j].translate(meet)
        if region.torus:
            ys = turned(ys, region.extents, offset)
        else:
            xs, ys = _met(xs, ys, region.extents, offset)
        if not check.test(xs, ys):
            return False
    return True
