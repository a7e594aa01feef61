"""Search engine tests.

Oracle: the plain depth-first search, a copy of the engine's loop before it
kept records of solution-free subtrees.  Both run on the same candidate
lists and check schedule (each through `region_search`), and must agree on
status, first solution, nodes and solutions seen, and make the same `each`
calls in the same order.  The engine tests the set table's hues by its
test; the oracle reads the same candidates' integer colours by rule_eval.
"""

import random
import re
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache, partial

import pytest

from conftest import random_tileset
from tileatlas import search
from tileatlas.atlas import derive_atlas, enumerate_source_coronas
from tileatlas.geometry import cell_kind
from tileatlas.search import EXHAUSTED, FOUND, LIMIT, _getter, region_search
from tileatlas.reduction import reduce_set
from tileatlas.solver import (
    SolveConfig,
    count_solutions,
    exhaust_torus,
    solve,
    solve_atlas,
)
from tileatlas.tileset import (
    FacetRule,
    FormatError,
    RegionSpec,
    load_bundled,
    region_cells,
    rule_eval,
)

ENGINE = search._search


def _plain_search(per_cell, checks, width, rule, limit, each=None, at=None,
                  dead=None):
    # `at`, if given, gets the node count at each solution, and `dead` the
    # list length of each cell entered without survivors
    n = len(per_cell)
    tables = {}  # (candidate list, own checks, earlier facets) -> table
    table, keys = [], []
    for i, lst in enumerate(per_cell):
        own = tuple((f, nf) for f, nf, j in checks[i] if j == i)
        earlier = [(f, nf, j) for f, nf, j in checks[i] if j != i]
        sig = (id(lst), own, tuple(f for f, _, _ in earlier))
        if sig not in tables:
            # extent-1 wraps: the candidate meets itself, whatever is around
            base = [(p, label, e) for p, (label, e) in enumerate(lst)
                    if all(rule_eval(rule, e[f], e[nf]) for f, nf in own)]
            tables[sig] = (base, sig[2], len(lst), {})
        table.append(tables[sig])
        keys.append(_getter([j * width + nf for _, nf, j in earlier]))

    limit = float("inf") if limit is None else limit
    colours = [None] * (n * width)  # cell i's facets at i * width
    labels = [None] * n
    stack = []  # (survivors, next survivor, nodes charged) of earlier cells
    # the current cell: its survivors under the colours of its earlier
    # neighbours, the next survivor to try, and its candidates charged so far
    i, surv, k, spent = 0, table[0][0], 0, 0  # cell 0 has no earlier cells
    nodes = count = 0
    first = None
    while True:
        if k < len(surv):
            p, label, e = surv[k]
            k += 1
            # every candidate up to p counts: the ones skipped would fail
            nodes += p + 1 - spent
            spent = p + 1
            if nodes > limit:
                break
            colours[i * width:(i + 1) * width] = e
            labels[i] = label
            if i + 1 == n:
                count += 1
                if at is not None:
                    at.append(nodes)
                if first is None:
                    first = list(labels)
                if each is None:
                    return FOUND, first, nodes, count
                each(labels)
                continue
            stack.append((surv, k, spent))
            i += 1
            base, facets, _, memo = table[i]
            key = keys[i](colours)
            surv = memo.get(key)
            if surv is None:
                surv = memo[key] = [
                    cand for cand in base
                    if all(rule_eval(rule, cand[2][f], v)
                           for f, v in zip(facets, key))]
            if dead is not None and not surv:
                dead.append(table[i][2])
            k = spent = 0
        else:
            nodes += table[i][2] - spent
            if nodes > limit or i == 0:
                break
            i -= 1
            surv, k, spent = stack.pop()
    if nodes > limit:
        return LIMIT, first, limit + 1, count
    return (EXHAUSTED if first is None else FOUND), first, nodes, count


def _with_checks(oracle, checks, ts, per_cell, plan, test, limit, each=None):
    # the oracle reads integer colours under the rule, not the table's hues
    # under its test: each shared candidate list is read back once, and
    # stays shared
    ints, lists = ts.table.ints, {}
    for lst in per_cell:
        if id(lst) not in lists:
            lists[id(lst)] = [(label, tuple([ints[ord(h)] for h in e]))
                              for label, e in lst]
    return oracle([lists[id(lst)] for lst in per_cell], checks, plan.width,
                  ts.rule, limit, each)


def _run(engine, ts, region, limit, seed, counting):
    """(status, labels, nodes, count), the `each` calls and the nodes
    replayed (None for the oracle) of one search under `engine`."""
    calls = []
    each = (lambda labels: calls.append(tuple(labels))) if counting else None
    if engine is not ENGINE:
        # the oracle reads the check schedule that the plan is made from
        _, checks = search._schedule(region, region_cells(region))
        engine = partial(_with_checks, engine, checks, ts)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_search", engine)
        status, labels, nodes, count, *replayed = region_search(
            ts, region, limit, seed, each)
    return ((status, labels, nodes, count), calls,
            replayed[0] if replayed else None)


CAP = 20000  # nodes per search; a search that reaches it ends in LIMIT


def test_engine_matches_plain_search():
    rng = random.Random(20261018)
    runs = 0
    replaying = set()  # (trial, lattice) of the searches that replayed
    for trial in range(90):
        space = ("square2d", "tri2d", "cube3d")[trial % 3]
        dim = 3 if space == "cube3d" else 2
        ts = random_tileset(rng, space, rng.randint(3, 8),
                            colours=rng.randint(2, 4))
        if trial % 2:
            ts = replace(ts, allowed="all")
        if trial % 4 == 2:
            pairs = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)}
            ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        torus = rng.random() < 0.6
        kmax = 3 if space == "cube3d" else 5
        extents = tuple(rng.randint(1, kmax) for _ in range(dim))
        region = RegionSpec(space, extents, torus)
        seed = rng.randrange(1000) if rng.random() < 0.5 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, CAP, seed,
                                       counting)
            limits = {CAP} if want[2] > CAP else {CAP, None}
            limits.update(rng.randrange(want[2] + 1) for _ in range(3))
            for limit in limits:
                want, want_calls, _ = _run(_plain_search, ts, region, limit,
                                           seed, counting)
                got, got_calls, rep = _run(ENGINE, ts, region, limit, seed,
                                           counting)
                case = (trial, region, ts.allowed, ts.rule.kind, seed,
                        counting, limit)
                assert got == want, case
                assert got_calls == want_calls, case
                assert 0 <= rep <= got[2], case
                if rep:
                    replaying.add((trial, space))
                runs += 1
    # the comparison means something only where records were replayed
    assert runs > 800 and len(replaying) >= 10
    assert {space for _, space in replaying} == {"square2d", "tri2d", "cube3d"}


def test_engine_matches_plain_search_on_longer_rows():
    # square regions of 4 to 7 cells a side, whose rows meet the same
    # frontier again; with a seed each row has its own candidate order, so
    # a memo shared by two rows would replay one row's order in the other,
    # which the solutions' order and count at the limit show
    rng = random.Random(1)
    cleared = 0  # searches that replayed with a memo of 3 entries
    for trial in range(24):
        ts = random_tileset(rng, "square2d", rng.randint(4, 10),
                            colours=rng.randint(2, 3))
        region = RegionSpec("square2d", (rng.randint(4, 7), rng.randint(4, 7)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if trial % 3 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, 5 * CAP,
                                       seed, counting)
            got, got_calls, _ = _run(ENGINE, ts, region, 5 * CAP, seed,
                                     counting)
            case = (trial, region, seed, counting)
            assert got == want, case
            assert got_calls == want_calls, case
            # a memo of a few entries, cleared again and again
            with pytest.MonkeyPatch.context() as m:
                m.setattr(search, "MEMO_SIZE", 3)
                small = _run(ENGINE, ts, region, 5 * CAP, seed, counting)
            assert small[:2] == (want, want_calls), case
            cleared += small[2] > 0
    assert cleared >= 10


def test_engine_matches_plain_search_on_longer_rows_under_table_rules():
    # the test above under random table rules, whose compiled test checks
    # colour pairs against the table instead of comparing colours; the
    # pairs are one-sided, as written in tile-set text, and the rule closes
    # them
    rng = random.Random(2)
    replaying = 0  # searches that replayed nodes
    for trial in range(30):
        colours = rng.randint(2, 3)
        ts = random_tileset(rng, "square2d", rng.randint(4, 10),
                            colours=colours)
        pairs = {(rng.randint(0, colours), rng.randint(0, colours))
                 for _ in range(rng.randint(2, 5))}
        ts = replace(ts, rule=FacetRule("table", frozenset(pairs)))
        region = RegionSpec("square2d", (rng.randint(4, 7), rng.randint(4, 7)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if trial % 3 else None
        for counting in (False, True):
            want, want_calls, _ = _run(_plain_search, ts, region, 5 * CAP,
                                       seed, counting)
            got, got_calls, rep = _run(ENGINE, ts, region, 5 * CAP, seed,
                                       counting)
            case = (trial, region, pairs, seed, counting)
            assert got == want, case
            assert got_calls == want_calls, case
            replaying += rep > 0
            # a limit inside the search ends where the plain search ends
            limit = rng.randrange(want[2] + 1)
            assert (_run(ENGINE, ts, region, limit, seed, counting)[:2]
                    == _run(_plain_search, ts, region, limit, seed,
                            counting)[:2]), case + (limit,)
    assert replaying >= 10


def test_engine_matches_plain_search_at_every_limit():
    # seeded counting searches on 3x3 tori of random sets, cut at every limit
    # up to their full charge: some limits fall inside the charge of a cell
    # without survivors, which the engine charges without entering it, and
    # some inside a replayed record's charge
    for space, set_seed, size in (("square2d", 30, (1014, 24)),
                                  ("tri2d", 272, (354, 8))):
        rng = random.Random(set_seed)
        ts = random_tileset(rng, space, rng.randint(4, 7), colours=2)
        region = RegionSpec(space, (3, 3), True)
        dead = []
        full, _, _ = _run(partial(_plain_search, dead=dead), ts, region, None,
                          5, True)
        assert full[2:] == size
        # dead ends whose lists are longer than one candidate, so that some
        # limits fall strictly inside their charge
        assert dead and max(dead) > 1, region
        replayed = 0
        for limit in range(full[2] + 1):
            want, want_calls, _ = _run(_plain_search, ts, region, limit, 5,
                                       True)
            got, got_calls, rep = _run(ENGINE, ts, region, limit, 5, True)
            assert got == want and got_calls == want_calls, (region, limit)
            assert rep <= got[2], (region, limit)
            replayed = max(replayed, rep)
        # replays need record cells
        assert replayed > 0, region


def test_limit_inside_a_replayed_charge():
    # with a limit falling inside a replayed charge, the engine answers
    # limit + 1, as the plain search does when it crosses the limit inside
    # the subtree
    # the search's usual memo and one of 3 entries, cleared again and again
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (4, 4), True)
    for size in (search.MEMO_SIZE, 3):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "MEMO_SIZE", size)
            full = _run(ENGINE, wang, region, None, None, False)
            assert full[0][0] == EXHAUSTED and full[2] > 0
            rng = random.Random(7)
            for limit in sorted(rng.sample(range(full[0][2]), 150)):
                want = _run(_plain_search, wang, region, limit, None, False)[0]
                got, _, rep = _run(ENGINE, wang, region, limit, None, False)
                assert got == want == (LIMIT, None, limit + 1, 0), (size, limit)
                assert rep <= limit + 1


def test_solver_results_carry_replayed_nodes():
    wang = load_bundled("wang13")
    r = exhaust_torus(wang, (5, 5))
    assert (r.status, r.nodes) == (EXHAUSTED, 192062)
    assert 0 < r.replayed < r.nodes
    free = solve(wang, RegionSpec("square2d", (6, 6), False))
    assert free.status == FOUND and 0 <= free.replayed <= free.nodes
    tri = count_solutions(load_bundled("triangles6"),
                          RegionSpec("tri2d", (6, 6), True))
    assert tri.count == 3 and 0 <= tri.replayed <= tri.nodes
    # a limit caps the replayed part with the nodes
    short = solve(wang, RegionSpec("square2d", (5, 5), True),
                  SolveConfig(node_limit=r.nodes - 1))
    assert (short.status, short.nodes) == (LIMIT, r.nodes)
    assert short.replayed <= short.nodes


def test_region_on_another_lattice_is_refused():
    # no search runs: a wrong-lattice region is no "exhausted" verdict
    wang = load_bundled("wang13")
    tri = load_bundled("triangles6")
    cases = ((solve, wang, RegionSpec("tri2d", (2, 2), True)),
             (count_solutions, tri, RegionSpec("square2d", (2, 2), True)),
             (solve_atlas, reduce_set(wang, "c2"),
              RegionSpec("cube3d", (2, 2, 2), False)),
             (region_search, tri, RegionSpec("square2d", (1, 1), False)))
    for fn, ts, region in cases:
        with pytest.raises(FormatError, match="region is on"):
            fn(ts, region)


def test_replayed_nodes_are_pinned():
    # the subtree records replay exactly these nodes of an exhausted torus
    wang = load_bundled("wang13")
    r = exhaust_torus(wang, (6, 6))
    assert (r.status, r.nodes, r.replayed) == (EXHAUSTED, 631189, 421590)
    # and of free counts, where subtrees with solutions are searched again:
    # 3x3 is the tree of the c2 corona window
    for extents, want in (((3, 3), (FOUND, 1073, 41626, 2028)),
                          ((5, 3), (FOUND, 10933, 537121, 126945))):
        r = count_solutions(wang, RegionSpec("square2d", extents, False))
        assert (r.status, r.count, r.nodes, r.replayed) == want, extents


# (nodes, replayed) of the benchmark's torus sweep: wang13 k = 1..7 and
# cubes21 k = 1..3 exhausted, then the triangles6 12x12 torus counted
SWEEP = ([(13, 0), (559, 0), (6461, 676), (56940, 24219), (192062, 114933),
          (631189, 421590), (2360176, 2038933)],
         [(21, 0), (3045, 1113), (1676409, 1597050)],
         (3, 2586, 0))


@pytest.mark.parametrize("seed", [None, 3, 12345])
def test_torus_sweep_counts_are_pinned(seed):
    # an exhaustive search walks the same tree in any candidate order, and
    # its records replay the same nodes
    config = SolveConfig(seed=seed)
    got = []
    for name, dim, kmax in (("wang13", 2, 7), ("cubes21", 3, 3)):
        ts = load_bundled(name)
        runs = [exhaust_torus(ts, (k,) * dim, config)
                for k in range(1, kmax + 1)]
        assert {r.status for r in runs} == {EXHAUSTED}
        got.append([(r.nodes, r.replayed) for r in runs])
    tri = count_solutions(load_bundled("triangles6"),
                          RegionSpec("tri2d", (12, 12), True), config)
    got.append((tri.count, tri.nodes, tri.replayed))
    assert tuple(got) == SWEEP


def _refusal(what, value):
    return pytest.raises(FormatError, match=(
        f"^{what} must be a non-negative integer, not "
        f"{re.escape(repr(value))}$"))


@pytest.mark.parametrize("limit", [-5, 2.5, True, False, "10"])
def test_invalid_node_limits_are_refused(limit):
    # refused before any search runs, naming the value
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (3, 3), True)
    for run in (solve, count_solutions):
        with _refusal("node limit", limit):
            run(wang, region, SolveConfig(node_limit=limit))


@pytest.mark.parametrize("cap", [None, -1, 10.0, True])
def test_invalid_node_caps_are_refused(cap):
    tri = load_bundled("triangles6")
    with _refusal("node cap", cap):
        enumerate_source_coronas(tri, node_cap=cap)
    with _refusal("node cap", cap):
        derive_atlas(reduce_set(tri, "c2"), node_cap=cap)


@contextmanager
def _frontier_keyed(frontier=True):
    """A context in which, if `frontier`, the search keys every record on
    the whole frontier, as if each subtree reached the last cell."""
    records = search._records

    def whole(checks, width):
        last, recs, _ = records(checks, width)
        return last, recs, [len(checks) - 1] * len(checks)

    with pytest.MonkeyPatch.context() as m:
        if frontier:
            m.setattr(search, "_records", whole)
            # plans made with it go into a cache of their own
            m.setattr(search, "_plan",
                      lru_cache(maxsize=16)(search._plan.__wrapped__))
        yield


def test_reach_keyed_records_replay_more():
    # on a torus the frontier holds row 0's bottom colours, which only the
    # last row reads; a subtree that dies before it is keyed without them,
    # so it is charged again under another row 0
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (6, 6), True)
    for seed in (None, 4):
        with _frontier_keyed():
            whole = _run(ENGINE, wang, region, None, seed, False)
        got = _run(ENGINE, wang, region, None, seed, False)
        assert got[0] == whole[0] == (EXHAUSTED, None, 631189, 0)
        # frontier-keyed records replay 201,916 nodes, reach-keyed 421,590
        assert whole[2] < got[2] < got[0][2], seed


def test_limit_inside_a_reach_keyed_charge():
    # wang13 5x5 torus, unseeded and seeded: every limit ends where the
    # plain search ends, and some limits fall on nodes that reach-keyed
    # records replay but frontier-keyed ones would search
    wang = load_bundled("wang13")
    region = RegionSpec("square2d", (5, 5), True)

    def replayed(limit, seed, frontier=False):
        with _frontier_keyed(frontier):
            return _run(ENGINE, wang, region, limit, seed, False)[2]

    rng = random.Random(1)
    for seed in (None, 4):
        reach_only = 0
        for limit in sorted(rng.sample(range(1, 192062), 40)):
            want = _run(_plain_search, wang, region, limit, seed, False)[0]
            got, _, rep = _run(ENGINE, wang, region, limit, seed, False)
            assert got == want == (LIMIT, None, limit + 1, 0), (seed, limit)
            assert rep <= got[2]
            # node limit + 1 is replayed keyed on its reach, searched keyed
            # on the whole frontier
            if (rep - replayed(limit - 1, seed) == 1
                    and replayed(limit, seed, True)
                    == replayed(limit - 1, seed, True)):
                reach_only += 1
        assert reach_only >= 5, (seed, reach_only)


def test_limit_at_a_solution_node():
    # counting searches on free wang13 regions and on small random square
    # sets: a limit just before or at the node that completes a solution
    # ends where the plain search ends
    wang = load_bundled("wang13")
    searches = [(wang, RegionSpec("square2d", extents, False), None)
                for extents in ((5, 3), (4, 4))]
    rng = random.Random(5)
    while len(searches) < 5:
        ts = random_tileset(rng, "square2d", rng.randint(3, 6),
                            colours=rng.randint(2, 3))
        region = RegionSpec("square2d", (rng.randint(4, 6), rng.randint(4, 6)),
                            rng.random() < 0.5)
        seed = rng.randrange(1000) if rng.random() < 0.5 else None
        full = _run(ENGINE, ts, region, CAP, seed, True)[0]
        if full[2] <= CAP and full[3] >= 20:
            searches.append((ts, region, seed))
    for ts, region, seed in searches:
        at = []  # the node that completes each solution
        full = _run(partial(_plain_search, at=at), ts, region, None, seed,
                    True)[0]
        assert full[0] == FOUND and len(at) == full[3]
        if ts is wang:
            assert full[2:] in ((537121, 10933), (482391, 7168))
        for end in sorted(rng.sample(at, 20)):
            for limit in (end - 1, end):
                case = (region, seed, limit)
                want, want_calls, _ = _run(_plain_search, ts, region, limit,
                                           seed, True)
                got, got_calls, rep = _run(ENGINE, ts, region, limit, seed,
                                           True)
                assert got == want and got_calls == want_calls, case
                assert rep <= got[2], case


def test_cached_plans_search_as_fresh_ones():
    # searches of two sets on one region, seeded and not, first hit and
    # counting, interleaved on one plan, each equal to the same search on
    # a plan made afresh
    rng = random.Random(17)
    for name, region in (("wang13", RegionSpec("square2d", (4, 4), True)),
                         ("triangles6", RegionSpec("tri2d", (6, 6), True))):
        other = replace(random_tileset(rng, region.space, 5, colours=2),
                        allowed="all")
        runs = [(ts, seed, counting)
                for seed in (None, 5) for counting in (False, True)
                for ts in (load_bundled(name), other)]
        search._plan.cache_clear()
        shared = [_run(ENGINE, ts, region, CAP, seed, counting)
                  for ts, seed, counting in runs]
        assert search._plan.cache_info().hits == len(runs) - 1
        for run, got in zip(runs, shared):
            search._plan.cache_clear()
            assert _run(ENGINE, run[0], region, CAP, *run[1:]) == got, run
        # the comparisons mean something only where nodes were charged and
        # replayed, and solutions found
        assert any(got[2] for got in shared), region
        assert any(got[0][3] > 1 for got in shared), region


def _per_cell(ts, region, seed):
    """The candidate lists that region_search hands the engine."""
    seen = []

    def engine(per_cell, plan, test, limit, each=None):
        seen.append(per_cell)
        return EXHAUSTED, None, 0, 0, 0

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_search", engine)
        region_search(ts, region, seed=seed)
    return seen[0]


@pytest.mark.parametrize("name, region, length", [
    ("triangles6", RegionSpec("tri2d", (20, 20), True), 3),
    ("wang13", RegionSpec("square2d", (5, 4), False), 13),
    ("cubes21", RegionSpec("cube3d", (2, 3, 2), True), 21)])
def test_seeded_orders_are_shuffled_lists(name, region, length):
    # each cell's list is what shuffling a copy of its kind's list draws,
    # cell by cell in search order; cells with equal orders share one list
    ts = load_bundled(name)
    for seed in (0, 7, 12345):
        rng = random.Random(seed)
        want = []
        for cell in region_cells(region):
            lst = list(ts.table.hues[cell_kind(region.space, cell)].items())
            assert len(lst) == length
            rng.shuffle(lst)
            want.append(lst)
        got = _per_cell(ts, region, seed)
        assert got == want, seed
        orders = {tuple(map(tuple, lst)) for lst in got}
        assert len({id(lst) for lst in got}) == len(orders), seed

