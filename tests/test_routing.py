import dataclasses
import functools
import hashlib
import math
import random
import time
from bisect import bisect_left
from itertools import groupby, repeat

import networkx as nx
import pytest

from planarfab.core import Coord, Order, build_layout, manhattan
from planarfab.placement import Placement
from planarfab.routing import (
    DISPENSE,
    MOVE,
    REST,
    SWAP,
    RestingSite,
    RoutedPlan,
    RoutingInfeasible,
    Transit,
    assign_resting_sites,
    build_dag,
    build_paths,
    detect_conflicts,
    extract_transits,
    generate_resting_sites,
    merge_batches,
    propagate_starts,
    _assign_greedy,
    _site_cost,
    _site_options,
    resolve_conflicts,
    route_schedule,
    site_candidates,
    validate_plan,
)
from planarfab.scheduling import (
    DISPENSING,
    FINISH,
    START,
    OperationSpec,
    Schedule,
    ScheduledOp,
    SchedulingInstance,
    build_operations,
    schedule,
    validate_schedule,
)

from conftest import random_orders, random_placement, realize, tick_list
from test_placement import line_placement


def matching_oracle_max_sites(layout, interfaces):
    """Capacity-constrained site selection as maximum-cardinality matching.

    Interface tiles are split into two copies (capacity 2); valid only when no
    two interface tiles are adjacent, which the caller must ensure.
    """
    for a in interfaces:
        for b in interfaces:
            if a != b:
                assert manhattan(a, b) != 1, "oracle precondition"
    G = nx.Graph()

    def copies(t):
        if t in interfaces:
            return [(t, 0), (t, 1)]
        return [(t, 0)]

    for s in site_candidates(layout):
        for ca in copies(s.tile_a):
            for cb in copies(s.tile_b):
                G.add_edge(ca, cb)
    matching = nx.max_weight_matching(G, maxcardinality=True)
    return len(matching)


# --- resting sites -------------------------------------------------------------------

def test_site_candidates_are_the_4_adjacent_tile_pairs():
    l_shape = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
    for layout in (build_layout("ring", 5, 0), build_layout("square", (3, 4), 0),
                   build_layout("explicit", l_shape, 0)):
        tiles = layout.tiles
        pairs = sorted((a, b) for a in tiles for b in tiles if a < b and manhattan(a, b) == 1)
        assert [s.tiles for s in site_candidates(layout)] == pairs


def test_sites_two_tile_layout():
    layout = build_layout("line", 2, 1)
    sel = generate_resting_sites(layout, {Coord(1, 1)})
    assert len(sel.sites) == 1 and sel.exact
    (site,) = sel.sites
    assert site.tiles == (Coord(1, 1), Coord(1, 2))
    assert site.location == (1.0, 1.5)


def test_sites_single_tile_empty():
    layout = build_layout("line", 1, 0)
    sel = generate_resting_sites(layout, set())
    assert sel.sites == () and sel.exact


def test_sites_fig9_square_4x4_optimum_9():
    layout = build_layout("square", (4, 4), 2)
    interfaces = {Coord(2, 1), Coord(3, 3)}
    sel = generate_resting_sites(layout, interfaces)
    assert sel.exact
    assert len(sel.sites) == 9
    assert len(sel.sites) == matching_oracle_max_sites(layout, interfaces)
    # per-tile capacities respected
    count: dict = {}
    for s in sel.sites:
        for t in s.tiles:
            count[t] = count.get(t, 0) + 1
    for t, c in count.items():
        assert c <= (2 if t in interfaces else 1)


def test_sites_match_oracle_on_random_small_layouts():
    import random

    for seed in range(12):
        rng = random.Random(seed)
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        layout = build_layout("square", (rows, cols), 2)
        tiles = sorted(layout.tiles)
        rng.shuffle(tiles)
        interfaces = set()
        for t in tiles:
            if len(interfaces) == 2:
                break
            if all(manhattan(t, i) > 1 for i in interfaces):
                interfaces.add(t)
        sel = generate_resting_sites(layout, interfaces)
        assert sel.exact
        assert len(sel.sites) == matching_oracle_max_sites(layout, interfaces), seed


def flow_oracle_max_sites(layout, interfaces):
    """Maximum site count as one max-flow over the (x + y) parity split.

    Source -> even tile (capacity 1, or 2 at an interface), one unit per
    candidate site, odd tile -> sink.  Unlike matching_oracle_max_sites it
    holds when interface tiles are adjacent.
    """
    G = nx.DiGraph()
    G.add_nodes_from(["source", "sink"])
    for t in layout.tiles:
        cap = 2 if t in interfaces else 1
        if (t.x + t.y) % 2 == 0:
            G.add_edge("source", t, capacity=cap)
        else:
            G.add_edge(t, "sink", capacity=cap)
    for s in site_candidates(layout):
        a, b = s.tiles if (s.tile_a.x + s.tile_a.y) % 2 == 0 else s.tiles[::-1]
        G.add_edge(a, b, capacity=1)
    return nx.maximum_flow_value(G, "source", "sink")


def greedy_site_pass(layout, interfaces):
    """Reference degree-ordered greedy pass: sites in (endpoint degree sum,
    site) order, taken while both tiles have capacity left."""
    cands = site_candidates(layout)
    cap = {t: (2 if t in interfaces else 1) for t in layout.tiles}
    degree = dict.fromkeys(cap, 0)
    for s in cands:
        degree[s.tile_a] += 1
        degree[s.tile_b] += 1
    picked = []
    for s in sorted(cands, key=lambda s: (degree[s.tile_a] + degree[s.tile_b], s)):
        if cap[s.tile_a] > 0 and cap[s.tile_b] > 0:
            cap[s.tile_a] -= 1
            cap[s.tile_b] -= 1
            picked.append(s)
    return tuple(sorted(picked))


def test_sites_maximum_by_flow_oracle_sweep():
    """420 cases, 15 layouts x 28 random sets of 1-4 interfaces (adjacent
    ones allowed): the selection always has the max-flow cardinality, uses
    only candidate sites and respects capacities, and a maximum greedy pass
    comes back unchanged."""
    layouts = [build_layout("square", n, 2) for n in range(4, 13)] + [
        build_layout("ring", 5, 2),
        build_layout("ring", 17, 2),
        build_layout("line", 30, 2),
        build_layout("line", 64, 2),
        build_layout("doubleline", 16, 2),
        build_layout("doubleline", 32, 2),
    ]
    rng = random.Random(6)
    greedy_short = 0
    for layout in layouts:
        for _ in range(28):
            interfaces = set(rng.sample(sorted(layout.tiles), rng.randint(1, 4)))
            sel = generate_resting_sites(layout, interfaces)
            best = flow_oracle_max_sites(layout, interfaces)
            assert sel.exact is True
            assert len(sel.sites) == best, (layout.n_tiles, sorted(interfaces))
            assert set(sel.sites) <= set(site_candidates(layout))
            used: dict = {}
            for s in sel.sites:
                for t in s.tiles:
                    used[t] = used.get(t, 0) + 1
            assert all(c <= (2 if t in interfaces else 1) for t, c in used.items())
            seed = greedy_site_pass(layout, interfaces)
            if len(seed) == best:
                assert sel.sites == seed
            else:
                greedy_short += 1
    assert greedy_short > 0  # the sweep exercises augmenting paths, not only the seed


# --- transits ------------------------------------------------------------------------

def make_schedule(rows, eta=2):
    """rows: (order, kind, target, tile, start, duration)"""
    sos = []
    for op_id, (order, kind, target, tile, start, dur) in enumerate(rows):
        from planarfab.scheduling import OperationSpec

        sos.append(ScheduledOp(OperationSpec(op_id, order, target, dur, kind), rows[op_id][6] if len(rows[op_id]) > 6 else 0, tile, start))
    return Schedule(tuple(sos), max(s.end for s in sos))


def test_extract_transits_idle_and_tight():
    pl = line_placement(["IF", ("a",), ("b",)])
    from planarfab.scheduling import OperationSpec

    iface, ta = Coord(1, 1), Coord(1, 2)
    sos = (
        ScheduledOp(OperationSpec(0, 0, "interface", 2, START), 0, iface, 0),
        ScheduledOp(OperationSpec(1, 0, "a", 4, DISPENSING), 0, ta, 12),  # gap 10, travel 1
        ScheduledOp(OperationSpec(2, 0, "interface", 2, FINISH), 0, iface, 17),  # gap 1 == travel
    )
    s = Schedule(sos, 19)
    transits = extract_transits(realize(s, pl))
    assert len(transits) == 1
    (tr,) = transits
    assert tr.gap == 10 and tr.travel == 1 and tr.idle == 9
    assert tr.depart == 2 and tr.arrive == 12


def test_extract_transits_four_mover_structure():
    # four movers, each with exactly one idle gap (after the start swap)
    # and a tight return to the interface -> exactly four transits
    pl = line_placement(["IF", ("a",), ("b",), ("c",), ("d",), "IF"])
    from planarfab.scheduling import OperationSpec

    iface = Coord(1, 1)
    sos = []
    op = 0
    for m, drug_tile in enumerate([Coord(1, 2), Coord(1, 3), Coord(1, 4), Coord(1, 5)]):
        drug = "abcd"[m]
        travel = m + 1
        disp_start = 30 + 3 * m
        sos.append(ScheduledOp(OperationSpec(op, m, "interface", 2, START), m, iface, 0 + 3 * m)); op += 1
        sos.append(ScheduledOp(OperationSpec(op, m, drug, 4, DISPENSING), m, drug_tile, disp_start)); op += 1
        sos.append(ScheduledOp(OperationSpec(op, m, "interface", 2, FINISH), m, iface, disp_start + 4 + travel)); op += 1
    s = Schedule(tuple(sos), max(x.end for x in sos))
    transits = [t for t in extract_transits(realize(s, pl)) if t.idle > 0]
    assert len(transits) == 4
    assert sorted({t.mover for t in transits}) == [0, 1, 2, 3]


# --- site assignment -----------------------------------------------------------------

def test_assign_single_transit_single_site():
    pl = line_placement(["IF", ("a",), ("b",)])
    site = RestingSite(Coord(1, 2), Coord(1, 3))
    tr = Transit(0, 0, 1, Coord(1, 1), Coord(1, 1), 0, 20, 0)
    got = assign_resting_sites([tr], [site], pl)
    assert got == {0: site}


def test_assign_two_overlapping_transits_min_cost():
    # detours 2 and 8: both transits overlap so they take distinct sites
    layout = build_layout("line", 10, 1)
    pl = Placement(layout, {Coord(1, 2): ("a",)}, frozenset({Coord(1, 1)}))
    near = RestingSite(Coord(1, 2), Coord(1, 3))
    far = RestingSite(Coord(1, 5), Coord(1, 6))
    # from/to tile (1,1): near detour = 1+(1)+2 - 0 = ... use distinct from/to for clean numbers
    t1 = Transit(0, 0, 1, Coord(1, 1), Coord(1, 1), 0, 30, 0)
    t2 = Transit(1, 2, 3, Coord(1, 1), Coord(1, 1), 5, 25, 0)
    got = assign_resting_sites([t1, t2], [near, far], pl)
    assert set(got) == {0, 1}
    assert got[0] != got[1]
    from planarfab.routing import _site_cost

    total = sum(_site_cost([t1, t2][i], s, pl.layout.distance)[0] for i, s in got.items())
    near_c = _site_cost(t1, near, pl.layout.distance)[0]
    far_c = _site_cost(t1, far, pl.layout.distance)[0]
    assert total == near_c + far_c  # one near, one far is forced and minimal


def test_assign_three_pairwise_overlaps_two_sites_infeasible():
    # three mutually overlapping transits on two sites: the two cheapest
    # distinct sites go to two of them, and the third waits in place
    pl = line_placement(["IF", ("a",), ("b",)])
    s1 = RestingSite(Coord(1, 1), Coord(1, 2))
    s2 = RestingSite(Coord(1, 2), Coord(1, 3))
    ts = [Transit(m, 2 * m, 2 * m + 1, Coord(1, 1), Coord(1, 1), 0, 40, 0) for m in range(3)]
    assert assign_resting_sites(ts, [s1, s2], pl) == {0: s1, 1: s2}


def test_assign_respects_gap_reachability():
    pl = line_placement(["IF", ("a",), ("b",), ("c",), ("d",)])
    far = RestingSite(Coord(1, 4), Coord(1, 5))
    tr = Transit(0, 0, 1, Coord(1, 1), Coord(1, 1), 0, 4, 0)  # gap 4 < round trip
    assert assign_resting_sites([tr], [far], pl) == {}
    assert assign_resting_sites([tr], [], pl) == {}
    # with a site in reach it takes the least detour
    near = RestingSite(Coord(1, 1), Coord(1, 2))
    mid = RestingSite(Coord(1, 2), Coord(1, 3))
    assert assign_resting_sites([tr], [far, mid, near], pl) == {0: near}


def test_assign_failure_names_what_was_found():
    # two overlapping transits that reach only the near site: no full
    # assignment exists (Hall's condition), so the first takes it and the
    # second is left out
    pl = line_placement(["IF", ("a",), ("b",), ("c",), ("d",)])
    near = RestingSite(Coord(1, 1), Coord(1, 2))
    far = RestingSite(Coord(1, 4), Coord(1, 5))  # a round trip of 6 > gap 4
    pair = [Transit(m, 2 * m, 2 * m + 1, Coord(1, 1), Coord(1, 1), m, m + 4, 0) for m in range(2)]
    assert assign_resting_sites(pair, [near, far], pl) == {0: near}

    # the same pair among 29 disjoint transits: the regret greedy leaves out
    # transit 1 only
    later = [
        Transit(m, 2 * m, 2 * m + 1, Coord(1, 1), Coord(1, 1), 10 * m, 10 * m + 4, 0)
        for m in range(2, 30 + 1)
    ]
    got = assign_resting_sites(pair + later, [near, far], pl)
    assert sorted(got) == [0] + list(range(2, 30 + 1))
    assert set(got.values()) == {near}

    # three transits on one reachable site: two of them are left out
    three = [Transit(m, 2 * m, 2 * m + 1, Coord(1, 1), Coord(1, 1), 0, 4, 0) for m in range(3)]
    assert assign_resting_sites(three, [near, far], pl) == {0: near}


def reference_assign_greedy(options, overlap):
    """The regret greedy that recomputes every pending regret in every round."""
    assign: dict[int, int] = {}
    pending = set(range(len(options)))
    while pending:
        def regret(i):
            feas = [
                (d, j) for d, j in options[i] if all(assign.get(k) != j for k in overlap[i])
            ]
            if not feas:
                return None
            spread = (feas[1][0] - feas[0][0]) if len(feas) > 1 else math.inf
            return (spread, feas[0])

        scored = []
        for i in sorted(pending):
            r = regret(i)
            if r is None:  # no free site left: it waits in place
                pending.remove(i)
            else:
                scored.append((r[0], i, r[1]))
        if not scored:
            break
        scored.sort(key=lambda x: (-x[0] if x[0] != math.inf else -1e18, x[1]))
        _, i, (d, j) = scored[0]
        assign[i] = j
        pending.remove(i)
    return assign


def test_incremental_greedy_matches_full_recompute():
    outcomes = {"full": 0, "partial": 0}
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(30 + 1, 30 + 40)
        n_sites = rng.randint(4, 24)
        options = []
        for _ in range(n):
            js = rng.sample(range(n_sites), rng.randint(1, n_sites))
            options.append(sorted((rng.randint(0, 6), j) for j in js))
        if seed % 2:  # interval overlaps, as assign_resting_sites builds them
            spans = []
            for _ in range(n):
                a = rng.randint(0, 60)
                spans.append((a, a + rng.randint(1, 40)))
            overlap = [
                [k for k, (a2, b2) in enumerate(spans) if k != i and not (b2 <= a1 or b1 <= a2)]
                for i, (a1, b1) in enumerate(spans)
            ]
        else:  # dense random symmetric overlaps
            density = rng.uniform(0.2, 0.9)
            overlap = [[] for _ in range(n)]
            for i in range(n):
                for k in range(i + 1, n):
                    if rng.random() < density:
                        overlap[i].append(k)
                        overlap[k].append(i)
        want = reference_assign_greedy(options, overlap)
        assert _assign_greedy(options, overlap) == want, seed
        outcomes["full" if len(want) == n else "partial"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("topology, size", [("square", (5, 5)), ("square", (3, 6)), ("ring", 5)])
def test_site_options_match_per_site_cost(topology, size):
    layout = build_layout(topology, size, 2)
    tiles = layout.sorted_tiles()
    sites = site_candidates(layout)
    rng = random.Random(str(size))
    transits = []
    for k in range(60):
        a, b = rng.choice(tiles), rng.choice(tiles)
        travel = layout.distance(a, b)
        depart = rng.randint(0, 20)
        transits.append(Transit(k % 4, k, k + 1, a, b, depart, depart + travel + rng.randint(1, 12), travel))
    if topology == "ring":  # the table is a BFS table there, not l1
        assert any(layout.distance(a, b) != manhattan(a, b) for a in tiles for b in tiles)
    got = _site_options(transits, sites, layout)
    for tr, opts in zip(transits, got):
        want = []
        for j, site in enumerate(sites):
            detour, via, _ = _site_cost(tr, site, layout.distance)
            if via + 2 <= tr.gap:  # a round trip that leaves a tick at the site
                want.append((detour, j))
        assert opts == sorted(want)
        assert all(type(d) is int and type(j) is int for d, j in opts)


def _four_pair_site_cost(transit, site, dist):
    """(detour, via, (a, b)): the least round trip that enters the site at
    tile a and leaves from tile b, over the pairs (a, a), (a, b), (b, a),
    (b, b) in that order, the first minimum kept."""
    best = None
    for a in site.tiles:
        for b in site.tiles:
            via = dist(transit.from_tile, a) + (0 if a == b else 1) + dist(b, transit.to_tile)
            if best is None or via < best[0]:
                best = (via, a, b)
    via, a, b = best
    return via - transit.travel, via, (a, b)


@pytest.mark.parametrize("topology, size", [("square", (4, 5)), ("ring", 5)])
def test_site_cost_nearer_tile_matches_four_pair_reference(topology, size):
    # a site's two tiles are neighbours, so a round trip that enters at one
    # and leaves from the other is never the first minimum
    layout = build_layout(topology, size, 2)
    tiles, dist = layout.sorted_tiles(), layout.distance
    for site in site_candidates(layout):
        for a in tiles:
            for b in tiles:
                tr = Transit(0, 0, 1, a, b, 0, 99, dist(a, b))
                detour, via, (enter, leave) = _four_pair_site_cost(tr, site, dist)
                assert enter == leave
                assert _site_cost(tr, site, dist) == (detour, via, enter)


# --- paths and conflicts -------------------------------------------------------------

def test_build_paths_staircase():
    layout = build_layout("square", (4, 4), 1)
    pl = Placement(layout, {Coord(3, 2): ("a",)}, frozenset({Coord(1, 1)}))
    from planarfab.scheduling import OperationSpec

    sos = (
        ScheduledOp(OperationSpec(0, 0, "interface", 2, START), 0, Coord(1, 1), 0),
        ScheduledOp(OperationSpec(1, 0, "a", 3, DISPENSING), 0, Coord(3, 2), 5),
        ScheduledOp(OperationSpec(2, 0, "interface", 2, FINISH), 0, Coord(1, 1), 11),
    )
    s = Schedule(sos, 13)
    paths = build_paths(realize(s, pl), {})
    pos = tick_list(paths[0])
    assert pos[2][:2] == (1.0, 1.0)  # departure tick
    assert pos[3][:2] == (2.0, 1.0)  # x first
    assert pos[4][:2] == (3.0, 1.0)
    assert pos[5][:2] == (3.0, 2.0)  # then y
    assert pos[5][2] == "dispense"


def test_build_paths_leave_no_tick_of_a_waiting_transit_empty():
    """Without a resting site an idle transit waits at its previous tile and
    leaves just in time, so every tick from a mover's first op start to its
    last end holds a cell, the leaving tick too."""
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcdef")
    waits = 0
    for seed in range(40):
        pl = random_placement(layout, drugs, seed=seed)
        orders = random_orders(drugs, 6, seed=seed, size_range=(1, 3))
        s = schedule(orders, pl, 3, eta=2, seed=seed, max_iterations=2)
        paths = build_paths(realize(s, pl), {})
        for m, ops in s.by_mover().items():
            first, last = ops[0].start, max(so.end for so in ops)
            pos = tick_list(paths[m], last)
            assert None not in pos[first:], (seed, m, pos.index(None, first))
            waits += sum(p[2] == REST for p in pos[first:])
    assert waits > 100


def test_build_paths_segment_lengths_match_distance():
    layout = build_layout("square", (5, 5), 2)
    drugs = list("abc")
    for seed in range(10):
        pl = random_placement(layout, drugs, seed=seed)
        orders = random_orders(drugs, 5, seed=seed, size_range=(1, 3))
        s = schedule(orders, pl, 2, eta=2, seed=seed, max_iterations=10)
        plan = route_schedule(s, pl)
        for m, runs in plan.paths.items():
            prev = None
            for p in tick_list(runs):
                if p is None:
                    continue
                if prev is not None:
                    assert abs(p[0] - prev[0]) + abs(p[1] - prev[1]) <= 1.0 + 1e-9
                prev = p


def test_detect_conflicts_single_mover_zero():
    pl = line_placement(["IF", ("a",)])
    s = schedule([Order(0, (("a", 5),))], pl, 1, eta=2)
    paths = build_paths(realize(s, pl), {})
    assert all(v == 0 for v in detect_conflicts(paths, realize(s, pl)).values())


def hand_crossing_fixture():
    """Line IF a b IF; mover 0 dispenses a for 20 ticks; mover 1 crosses once."""
    layout = build_layout("line", 4, 2)
    pl = Placement(
        layout,
        {Coord(1, 2): ("a",), Coord(1, 3): ("b",)},
        frozenset({Coord(1, 1), Coord(1, 4)}),
    )
    from planarfab.scheduling import OperationSpec

    orders = (Order(0, (("a", 20),)), Order(1, (("b", 3),)))
    ops = build_operations(orders, eta=2)
    key = {(o.order_id, o.kind): o for o in ops}
    sos = (
        ScheduledOp(key[(0, START)], 0, Coord(1, 4), 0),
        ScheduledOp(key[(0, DISPENSING)], 0, Coord(1, 2), 4),
        ScheduledOp(key[(0, FINISH)], 0, Coord(1, 4), 26),
        ScheduledOp(key[(1, START)], 1, Coord(1, 1), 5),
        ScheduledOp(key[(1, DISPENSING)], 1, Coord(1, 3), 9),
        ScheduledOp(key[(1, FINISH)], 1, Coord(1, 4), 13),
    )
    s = Schedule(sos, 28)
    return pl, orders, s


def test_detect_conflicts_constructed_crossing():
    pl, orders, s = hand_crossing_fixture()
    inst = SchedulingInstance(orders, pl, 2, 2)
    assert validate_schedule(s, inst) == []
    paths = build_paths(realize(s, pl), {})
    ledger = detect_conflicts(paths, realize(s, pl))
    disp_a = next(so.op.op_id for so in s.ops if so.op.target == "a")
    assert ledger[disp_a] == 1  # mover 1 crosses (1,2) at tick 8
    assert all(v == 0 for k, v in ledger.items() if k != disp_a)


def _tick_grid_conflicts(paths, s, pauses):
    """Independent oracle: a global occupancy grid per tick."""
    grid: dict = {}
    for m, runs in paths.items():
        for t, p in enumerate(tick_list(runs)):
            if p is not None and p[2] in (MOVE, REST):
                grid.setdefault(t, {}).setdefault((p[0], p[1]), set()).add(m)
    want = {}
    for so in s.ops:
        if so.op.kind != DISPENSING:
            continue
        tile = (float(so.tile.x), float(so.tile.y))
        want[so.op.op_id] = sum(
            1
            for t in range(so.start, so.end + pauses.get(so.op.op_id, 0))
            if grid.get(t, {}).get(tile, set()) - {so.mover}
        )
    return want


def test_detect_conflicts_matches_tick_grid_oracle():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcd")
    for seed in range(8):
        pl = random_placement(layout, drugs, seed=seed + 30)
        orders = random_orders(drugs, 8, seed=seed, size_range=(1, 3), dur_range=(2, 6))
        s = schedule(orders, pl, 4, eta=2, seed=seed, max_iterations=8)
        transits = extract_transits(realize(s, pl))
        sel = generate_resting_sites(pl.layout, pl.interfaces)
        assignment = assign_resting_sites(transits, sel.sites, pl) if transits else {}
        key_assignment = {
            (transits[i].mover, transits[i].from_op, transits[i].to_op): x
            for i, x in assignment.items()
        }
        paths = build_paths(realize(s, pl), key_assignment, transits)
        assert detect_conflicts(paths, realize(s, pl)) == _tick_grid_conflicts(paths, s, {})

    # routed plans, whose paths and schedule carry the fixpoint's pauses, then
    # the same paths under random pauses that stretch windows past the paths
    paused = 0
    for topology, size, movers in (("square", (7, 7), 8), ("ring", 5, 4), ("ring", 6, 8)):
        layout = build_layout(topology, size, 2)
        drugs = list("abcdef")
        for seed in range(6):
            pl = random_placement(layout, drugs, seed=seed + 40)
            orders = random_orders(drugs, 2 * movers, seed=seed, size_range=(1, 3), dur_range=(2, 9))
            s = schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=4)
            plan = route_schedule(s, pl)
            pauses = plan.interruptions
            paused += bool(pauses)
            paths = build_paths(realize(plan.schedule, pl, pauses), plan.resting_assignment)
            assert paths == plan.paths
            assert detect_conflicts(paths, realize(plan.schedule, pl, pauses)) == _tick_grid_conflicts(
                paths, plan.schedule, pauses
            )
            rng = random.Random(seed)
            extra = {so.op.op_id: rng.randint(0, 30) for so in plan.schedule.ops}
            assert detect_conflicts(paths, realize(plan.schedule, pl, extra)) == _tick_grid_conflicts(
                paths, plan.schedule, extra
            )
    assert paused >= 6


# --- resolution ----------------------------------------------------------------------

def test_resolve_conflict_free_is_identity():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 5),))]
    s = schedule(orders, pl, 1, eta=2)
    plan = resolve_conflicts(s, pl)
    assert plan.iterations == 1
    assert plan.makespan == s.makespan
    assert [so.start for so in sorted(plan.schedule.ops, key=lambda x: x.op.op_id)] == [
        so.start for so in sorted(s.ops, key=lambda x: x.op.op_id)
    ]
    assert all(v == 0 for v in plan.interruptions.values())


def test_resolve_single_crossing_extends_makespan_by_one():
    pl, orders, s = hand_crossing_fixture()
    plan = resolve_conflicts(s, pl)
    disp_a = next(so.op.op_id for so in s.ops if so.op.target == "a")
    assert plan.interruptions[disp_a] == 1
    assert plan.makespan == s.makespan + 1
    inst = SchedulingInstance(orders, pl, 2, 2)
    assert validate_plan(plan, inst) == []


def test_ledger_and_makespan_monotone_across_iterations():
    pl, orders, s = hand_crossing_fixture()
    from planarfab.routing import generate_resting_sites as gen

    sites = gen(pl.layout, pl.interfaces)
    prev_led: dict = {}
    prev_make = 0
    led: dict = {}
    dag = build_dag(s, pl)
    for _ in range(4):
        # drive the loop manually: one propagation per pass
        starts = propagate_starts(dag, led)
        cur = Schedule(
            tuple(ScheduledOp(so.op, so.mover, so.tile, starts[so.op.op_id]) for so in s.ops),
            max(starts[so.op.op_id] + so.op.duration for so in s.ops),
        )
        r = realize(cur, pl, led)
        transits = extract_transits(r)
        sel = assign_resting_sites(transits, sites.sites, pl) if transits else {}
        key_sel = {
            (transits[i].mover, transits[i].from_op, transits[i].to_op): x
            for i, x in sel.items()
        }
        paths = build_paths(r, key_sel, transits)
        found = detect_conflicts(paths, r)
        led = {k: max(led.get(k, 0), v) for k, v in found.items()}
        assert all(led.get(k, 0) >= v for k, v in prev_led.items())
        assert cur.makespan >= prev_make
        prev_led, prev_make = dict(led), cur.makespan


def test_dag_structure_and_slack():
    pl, orders, s = hand_crossing_fixture()
    ledger = {so.op.op_id: so.op.op_id % 3 for so in s.ops}
    dag = build_dag(s, pl)
    kinds = {k for *_ab, k in dag.edges}
    assert kinds == {"anchor", "same-mover", "same-dispenser"}
    starts = propagate_starts(dag, ledger)
    by_id = {so.op.op_id: so for so in s.ops}
    for u, v, w, kind in dag.edges:
        base = 0 if u == -1 else starts[u] + ledger[u]  # u's pauses weigh on every edge out of u
        assert starts[v] >= base + w or u == -1 and starts[v] >= w  # slack >= 0
    # same-dispenser edges keep original tile order, weighted by the earlier
    # op's duration; propagated, by its realized duration
    tile_edges = [(u, v, w) for u, v, w, k in dag.edges if k == "same-dispenser"]
    assert tile_edges
    for u, v, w in tile_edges:
        assert w == by_id[u].op.duration
        assert starts[v] >= starts[u] + by_id[u].op.duration + ledger[u]
        assert by_id[u].tile == by_id[v].tile
        assert (by_id[u].start, u) < (by_id[v].start, v)


def test_routed_plans_reach_fixpoint_and_validate_fuzz(monkeypatch):
    rounds = check_rounds_against_repair_loop(monkeypatch)
    layout = build_layout("square", (5, 5), 2)
    drugs = list("abcde")
    for seed in range(20):
        pl = random_placement(layout, drugs, seed=seed + 60)
        orders = random_orders(drugs, 6 + seed % 5, seed=seed, size_range=(1, 3), dur_range=(2, 8))
        movers = 2 + seed % 3
        s = schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=10)
        before = len(rounds)
        plan = route_schedule(s, pl)
        assert len(rounds) - before == plan.iterations  # one propagation per round
        assert plan.iterations <= 100
        assert plan.makespan >= s.makespan
        found = detect_conflicts(plan.paths, realize(plan.schedule, pl, plan.interruptions))
        assert all(v <= plan.interruptions.get(k, 0) for k, v in found.items())
        inst = SchedulingInstance(tuple(orders), pl, movers, 2)
        assert validate_plan(plan, inst) == [], seed
        # every assigned transit rests at its site's midpoint for a tick or more
        for tr in plan.transits:
            site = plan.resting_assignment.get((tr.mover, tr.from_op, tr.to_op))
            if site is not None:
                cells = tick_list(plan.paths[tr.mover])[tr.depart : tr.arrive]
                assert site.location + (REST,) in cells, (seed, tr)
    # a round where pauses push an op into its tile successor: a repair binds
    assert any(ledger and repairs for ledger, repairs in rounds)


def _line_plan_with_two_idle_movers():
    """A valid schedule on a 3-tile line (interface, a, b), whose one
    resting site two movers would both need: each dispenses, then idles
    across [9, 39) before its finish."""
    pl = line_placement(["IF", ("a",), ("b",)])
    orders = [Order(0, (("b", 4),)), Order(1, (("a", 4),))]
    iface, a, b = Coord(1, 1), Coord(1, 2), Coord(1, 3)
    # (mover, tile, start) of build_operations' ops: start, dispense, finish
    timing = [(0, iface, 0), (0, b, 4), (0, iface, 50), (1, iface, 2), (1, a, 5), (1, iface, 40)]
    sos = tuple(ScheduledOp(op, m, t, start)
                for op, (m, t, start) in zip(build_operations(orders), timing))
    s = Schedule(sos, max(so.end for so in sos))
    return pl, s, SchedulingInstance(tuple(orders), pl, 2, 2)


def test_idle_movers_outnumbering_the_sites_wait_in_place():
    pl, s, inst = _line_plan_with_two_idle_movers()
    assert validate_schedule(s, inst) == []
    assert len(generate_resting_sites(pl.layout, pl.interfaces).sites) == 1
    plan = route_schedule(s, pl)
    assert validate_plan(plan, inst) == []
    assert [t.mover for t in plan.transits] == [0, 1]
    (key, _site), = plan.resting_assignment.items()
    # the mover left out waits at its dispensing tile until it leaves
    waiting = next(t for t in plan.transits if (t.mover, t.from_op, t.to_op) != key)
    cells = tick_list(plan.paths[waiting.mover])
    leave = waiting.arrive - waiting.travel
    tile = (float(waiting.from_tile.x), float(waiting.from_tile.y))
    assert {cells[t] for t in range(waiting.depart, leave)} == {tile + (REST,)}
    assert plan.makespan == s.makespan  # nobody dispenses where it waits


def _retimed(s, dist, rng, wait):
    """The schedule's ops walked in (start, mover, op id) order, each started
    at max(its mover's ready tick + travel + a random wait of 0..wait, its
    tile's free tick): valid, and with idle transits of every length."""
    ready, at, free, ops = {}, {}, {}, []
    for so in sorted(s.ops, key=lambda x: (x.start, x.mover, x.op.op_id)):
        m = so.mover
        travel = dist(at[m], so.tile) if m in at else 0
        start = max(ready.get(m, 0) + travel + rng.randint(0, wait), free.get(so.tile, 0))
        ops.append(ScheduledOp(so.op, m, so.tile, start))
        ready[m], at[m], free[so.tile] = ops[-1].end, so.tile, ops[-1].end
    return Schedule(tuple(ops), max(so.end for so in ops))


def test_valid_schedules_route_with_transits_left_without_sites_fuzz():
    """Routing never refuses a valid schedule for want of resting sites:
    every routed plan validates, and the only refusal is the fixpoint cap."""
    layouts = [("line", 5, 1), ("ring", 3, 2), ("square", (2, 3), 1), ("doubleline", 3, 1)]
    drugs = list("abcde")
    left_out = 0
    for seed in range(160):
        rng = random.Random(seed)
        topology, size, n_inter = layouts[seed % 4]
        layout = build_layout(topology, size, n_inter)
        pl = random_placement(layout, drugs, seed=seed)
        # four orders or more: never the exhaustive search
        orders = random_orders(drugs, rng.randint(4, 5), seed=seed, size_range=(1, 3),
                               dur_range=(2, 8))
        movers = rng.randint(2, 5)
        s = schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=0)
        s = _retimed(s, layout.distance, rng, 16)
        inst = SchedulingInstance(tuple(orders), pl, movers, 2)
        assert validate_schedule(s, inst) == [], seed
        try:
            plan = route_schedule(s, pl)
        except RoutingInfeasible as e:
            assert "did not reach a fixpoint" in str(e), seed
            continue
        assert validate_plan(plan, inst) == [], seed
        left_out += len(plan.resting_assignment) < len(plan.transits)
    assert left_out >= 20, left_out


def test_retimed_ring_plans_route_fast():
    """Rounds of 20-30 transits on few sites, where an exhaustive search for
    the least total detour blows up: 40 re-timings of one 7-order ring plan
    all validate and route in under a second of process CPU together."""
    layout = build_layout("ring", 4, 2)
    drugs = list("abcde")
    pl = random_placement(layout, drugs, seed=65)
    orders = random_orders(drugs, 7, seed=65, size_range=(1, 3), dur_range=(2, 8))
    s = schedule(orders, pl, 4, eta=2, seed=65, max_iterations=0)
    inst = SchedulingInstance(tuple(orders), pl, 4, 2)
    plans = [_retimed(s, layout.distance, random.Random(r), 30) for r in range(40)]
    cpu = time.process_time()
    routed = [route_schedule(p, pl) for p in plans]
    cpu = time.process_time() - cpu
    assert all(validate_plan(plan, inst) == [] for plan in routed)
    assert cpu < 1.0, cpu


def test_resting_paths_enter_sites_from_adjacent_tiles_only():
    layout = build_layout("square", (5, 5), 2)
    drugs = list("ab")
    pl = random_placement(layout, drugs, seed=8)
    orders = random_orders(drugs, 8, seed=8, size_range=(1, 2), dur_range=(2, 5))
    s = schedule(orders, pl, 3, eta=2, seed=8, max_iterations=10)
    plan = route_schedule(s, pl)
    assert plan.resting_assignment
    rest_ticks = 0
    for m, runs in plan.paths.items():
        prev = None
        for p in tick_list(runs):
            if p is not None and p[2] == REST and not float(p[0]).is_integer() or (
                p is not None and p[2] == REST and not float(p[1]).is_integer()
            ):
                rest_ticks += 1
                if prev is not None and prev[:2] != p[:2]:
                    # entered the midpoint this tick; previous tile must be adjacent
                    dx = abs(prev[0] - p[0]) + abs(prev[1] - p[1])
                    assert dx == pytest.approx(0.5)
            prev = p
    assert rest_ticks > 0
    inst = SchedulingInstance(tuple(orders), pl, 3, 2)
    assert validate_plan(plan, inst) == []


def test_routed_8x8_batched_plan_matches_pinned_digest(monkeypatch):
    """100 orders, 8 movers, batches of 25 on the 8x8~2 reference: the routed
    plan and its tick paths, recorded with the tick x mover conflict scan, the
    per-round regret recomputation and the nested exclusivity-repair loop."""
    from planarfab.pipeline import paths_to_csv, plan_to_json, schedule_batched
    from test_acceptance import build_8x8_instance

    pl, orders, config = build_8x8_instance(3, 100, movers=8)
    merged, _ = schedule_batched(orders, pl, config, batch_size=25, seed=3, iterations=1)
    rounds = check_rounds_against_repair_loop(monkeypatch)
    plan = resolve_conflicts(merged, pl)
    assert len(rounds) == plan.iterations
    # the repair loop added 78 edges in the last round; 66 of them set a start
    assert len(rounds[-1][1]) == 78
    assert (plan.iterations, plan.exclusivity_repairs, sum(plan.interruptions.values())) == (3, 66, 176)
    assert hashlib.sha256(plan_to_json(plan).encode()).hexdigest() == (
        "bbc13dd0330ed03c36ee6872cd48fc0f3738ddef7efafe7e3228193b8f8e3efa"
    )
    assert hashlib.sha256(paths_to_csv(plan).encode()).hexdigest() == (
        "946158637d67307fe73291dbf177132de2b95a2845caa7930383f4087d4e6d36"
    )
    assert validate_plan(plan, SchedulingInstance(tuple(orders), pl, 8, 2)) == []



def _pinned_plan(topology, size, movers, n_orders, drugs, seed):
    layout = build_layout(topology, size, 2)
    pl = random_placement(layout, list(drugs), seed=seed)
    orders = random_orders(list(drugs), n_orders, seed=seed, size_range=(1, 3), dur_range=(2, 9))
    return pl, schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=4)


def _plan_digests(plan):
    from planarfab.pipeline import paths_to_csv, plan_to_json

    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (plan_to_json(plan), paths_to_csv(plan)))


def test_routed_ring_plan_matches_pinned_digest(monkeypatch):
    """Ring 9, 6 movers, 24 orders: paths leave the staircase and are walked
    on the layout's distance table, which the 8x8 pin never reaches.
    Recorded with paths rebuilt in every fixpoint round, and with BFS paths."""
    import planarfab.core as core

    walk, calls = core._walk, []

    def counted_walk(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(core, "_walk", counted_walk)
    pl, s = _pinned_plan("ring", 9, 6, 24, "abcdefghij", 1)
    plan = route_schedule(s, pl)
    assert calls
    assert (plan.iterations, plan.exclusivity_repairs, sum(plan.interruptions.values()),
            len(plan.resting_assignment)) == (4, 20, 50, 19)
    assert _plan_digests(plan) == (
        "6caa880ab884f0148bb8ac0fa6b85fc6151d5b425ded51c530193e940b151903",
        "a8112e4ce0d89dc5fc4c8200e6d1e10bdb4706a40897e8ffbfe9da020106f0ef",
    )


def test_routed_small_plan_matches_pinned_digest():
    """Square 6x6, 4 movers, 10 orders: rounds of a few transits, where the
    8x8 pin has many.  Recorded with paths rebuilt in every round."""
    pl, s = _pinned_plan("square", (6, 6), 4, 10, "abcdef", 2)
    plan = route_schedule(s, pl)
    assert (plan.iterations, plan.exclusivity_repairs, sum(plan.interruptions.values()),
            len(plan.resting_assignment)) == (3, 10, 13, 8)
    assert _plan_digests(plan) == (
        "dc218b1d492ece6f4df05c480db9dd918861e9fcd40fdf64a91c030f716a0c5f",
        "d68812deaac112fdba7314c754ac7a8cc6e48ceb3f1e38533bca6813d14adb19",
    )


def test_one_dag_per_call_and_one_path_per_tile_pair(monkeypatch):
    """The DAG is built once per resolve_conflicts call and propagated once
    per round; each (from, to) path is asked of the layout once per call."""
    import planarfab.core as core
    import planarfab.routing as routing

    build, propagate, shortest = routing.build_dag, routing.propagate_starts, core.Layout.shortest_path
    calls = {"build_dag": 0, "propagate_starts": 0}
    pairs: dict = {}

    def counted_build(*args):
        calls["build_dag"] += 1
        return build(*args)

    def counted_propagate(*args):
        calls["propagate_starts"] += 1
        return propagate(*args)

    def counted_shortest(layout, a, b):
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
        return shortest(layout, a, b)

    monkeypatch.setattr(routing, "build_dag", counted_build)
    monkeypatch.setattr(routing, "propagate_starts", counted_propagate)
    monkeypatch.setattr(core.Layout, "shortest_path", counted_shortest)
    pl, s = _pinned_plan("ring", 9, 6, 24, "abcdefghij", 1)
    plan = resolve_conflicts(s, pl)
    assert plan.iterations > 1
    assert calls == {"build_dag": 1, "propagate_starts": plan.iterations}
    assert pairs and max(pairs.values()) == 1

# --- one longest-path pass against the repair loop ----------------------------------
#
# ref_propagate_with_repairs is the nested exclusivity-repair loop that the
# realized-duration same-dispenser edges replaced, kept to pin build_dag and
# propagate_starts to it.

def ref_propagate_with_repairs(schedule: Schedule, placement, ledger):
    """Starts of one fixpoint round as the nested repair loop computed them.

    Weight-1 same-dispenser edges keep tile order; each same-tile pair that
    still overlaps gets a full-duration edge, and the whole DAG is propagated
    again until no pair overlaps.  Returns the starts and the repair edges.
    """
    dist = placement.layout.distance
    order = sorted(schedule.ops, key=lambda s: (s.start, s.mover, s.op.op_id))
    edges = [(-1, so.op.op_id, so.start) for so in order]
    by_mover: dict = {}
    by_tile: dict = {}
    for so in order:
        by_mover.setdefault(so.mover, []).append(so)
        by_tile.setdefault(so.tile, []).append(so)
    for seq in by_mover.values():
        seq.sort(key=lambda s: (s.start, s.op.op_id))
        edges += [(a.op.op_id, b.op.op_id, ledger.get(a.op.op_id, 0) + a.op.duration + dist(a.tile, b.tile))
                  for a, b in zip(seq, seq[1:])]
    pairs = []
    for seq in by_tile.values():
        seq.sort(key=lambda s: (s.start, s.op.op_id))
        pairs += zip(seq, seq[1:])
    edges += [(a.op.op_id, b.op.op_id, 1) for a, b in pairs]

    def longest_path(edges):
        incoming: dict = {}
        for u, v, w in edges:
            incoming.setdefault(v, []).append((u, w))
        starts: dict = {}
        for so in order:
            starts[so.op.op_id] = max((0 if u == -1 else starts[u]) + w for u, w in incoming[so.op.op_id])
        return starts

    starts = longest_path(edges)
    extra: list = []
    while True:
        new = []
        for a, b in pairs:
            dur_a = a.op.duration + ledger.get(a.op.op_id, 0)
            r = (a.op.op_id, b.op.op_id, dur_a)
            if starts[b.op.op_id] < starts[a.op.op_id] + dur_a and r not in extra:
                new.append(r)
        if not new:
            return starts, extra
        extra += new
        starts = longest_path(edges + extra)


def check_rounds_against_repair_loop(monkeypatch):
    """Check every propagate_starts call of resolve_conflicts against
    ref_propagate_with_repairs; returns one (ledger, repairs) per round."""
    import planarfab.routing as routing

    build, propagate = routing.build_dag, routing.propagate_starts
    rounds: list = []
    built: dict = {}  # the arguments and the result of the last build_dag call

    def recording_build(s, pl):
        built.update(s=s, pl=pl, dag=build(s, pl))
        return built["dag"]

    def checked_propagate(dag, ledger):
        starts = propagate(dag, ledger)
        assert built["dag"] is dag
        ledger = dict(ledger)
        ref, repairs = ref_propagate_with_repairs(built["s"], built["pl"], ledger)
        assert starts == ref
        rounds.append((ledger, repairs))
        return starts

    monkeypatch.setattr(routing, "build_dag", recording_build)
    monkeypatch.setattr(routing, "propagate_starts", checked_propagate)
    return rounds


# --- runs against the tick-list references -------------------------------------------
#
# ref_build_paths, ref_detect_conflicts and ref_validate_plan are the tick-list
# versions that paths as runs replaced (one cell or None per tick), kept as
# they were to pin the run versions to them; _realized_ops and _transits_of
# are the per-round regroup-and-sort passes ref_build_paths was written on.

def _realized_ops(schedule: Schedule, pauses):
    out = {}
    for so in schedule.ops:
        pause = pauses.get(so.op.op_id, 0)
        out[so.op.op_id] = (so.mover, so.tile, so.start, so.end + pause, so.op)
    return out


def _transits_of(realized, dist):
    by_mover: dict[int, list] = {}
    for op_id, (m, tile, s, e, op) in realized.items():
        by_mover.setdefault(m, []).append((s, e, tile, op_id))
    transits = []
    for m, seq in sorted(by_mover.items()):
        seq.sort()
        for (s1, e1, t1, id1), (s2, e2, t2, id2) in zip(seq, seq[1:]):
            travel = dist(t1, t2)
            if s2 - e1 > travel:
                transits.append(Transit(m, id1, id2, t1, t2, e1, s2, travel))
    return transits


def ref_build_paths(schedule: Schedule, resting_assignment, placement, pauses=None,
                    transits=None):
    """Per-mover tick-indexed positions (x, y, state); None = off-grid.

    Movement segments are x-then-y staircases at one tile per tick (BFS paths
    on non-convex layouts); idle transits detour through their assigned
    resting site and wait at its midpoint, leaving just in time to arrive at
    the next operation's start.
    """
    pauses = pauses or {}
    realized = _realized_ops(schedule, pauses)
    if transits is None:
        transits = _transits_of(realized, placement.layout.distance)
    t_by_key = {(t.mover, t.from_op, t.to_op): t for t in transits}
    site_of = {}
    for idx, site in resting_assignment.items():
        tr = transits[idx] if isinstance(idx, int) else t_by_key[idx]
        site_of[(tr.mover, tr.from_op, tr.to_op)] = site

    horizon = max((e for (_m, _t, _s, e, _o) in realized.values()), default=0)
    layout = placement.layout
    dist = layout.distance
    shortest_path = functools.cache(layout.shortest_path)
    paths: dict[int, list] = {}

    by_mover: dict[int, list] = {}
    for op_id, rec in realized.items():
        by_mover.setdefault(rec[0], []).append(rec + (op_id,))
    for m, seq in sorted(by_mover.items()):
        seq.sort(key=lambda r: r[2])
        pos = [None] * (horizon + 1)

        def put(t, xy, state):
            if 0 <= t <= horizon and pos[t] is None:
                pos[t] = (xy[0], xy[1], state)

        def fill(t0, t1, cell):  # one shared cell tuple at every free tick of [t0, t1)
            for t in range(max(t0, 0), min(t1, horizon + 1)):
                if pos[t] is None:
                    pos[t] = cell

        for (_m, tile, s, e, op, op_id) in seq:
            state = DISPENSE if op.kind == DISPENSING else SWAP
            pos[s:e] = [(float(tile.x), float(tile.y), state)] * (e - s)
        for (r1, r2) in zip(seq, seq[1:]):
            _m1, t1, _s1, e1, _o1, id1 = r1
            _m2, t2, s2, _e2, _o2, id2 = r2
            site = site_of.get((m, id1, id2))
            if site is not None:
                put(e1, (float(t1.x), float(t1.y)), MOVE)  # departure tick
                _detour, _via, a = _site_cost(
                    Transit(m, id1, id2, t1, t2, e1, s2, dist(t1, t2)), site, dist
                )
                p_in = shortest_path(t1, a)
                for j in range(1, len(p_in)):
                    put(e1 + j, (float(p_in[j].x), float(p_in[j].y)), MOVE)
                arrive = e1 + len(p_in) - 1
                depart = s2 - dist(a, t2)
                fill(arrive + 1, depart, site.location + (REST,))
                p_out = shortest_path(a, t2)
                for j in range(len(p_out) - 1):
                    put(depart + j, (float(p_out[j].x), float(p_out[j].y)), MOVE)
            else:
                # a tight transit, or an idle one left without a site
                travel = dist(t1, t2)
                leave = s2 - travel
                fill(e1, leave, (float(t1.x), float(t1.y), REST))
                p = shortest_path(t1, t2)
                for j in range(len(p)):  # the first from the leaving tick
                    put(leave + j, (float(p[j].x), float(p[j].y)), MOVE)
        paths[m] = pos
    return paths


def ref_detect_conflicts(paths, schedule: Schedule, pauses=None) -> dict[int, int]:
    """Ticks per dispensing op during which another mover transits its tile.

    Only transit-state occupancy (moving or resting) pauses dispensing; two
    operations parked on one tile are a scheduling overlap, handled by the
    exclusivity repair in resolve_conflicts, not a routing conflict.
    """
    pauses = pauses or {}
    dispensing = [so for so in schedule.ops if so.op.kind == DISPENSING]
    # dispensing tile center -> sorted (tick, mover) pairs in a transit state
    occupancy: dict[tuple, list] = {
        (float(so.tile.x), float(so.tile.y)): [] for so in dispensing
    }
    for m, pos in paths.items():
        t = 0
        for p, run in groupby(pos):  # runs of one position (build_paths shares their tuple)
            n = len(list(run))
            if p is not None and (p[2] == MOVE or p[2] == REST):
                seq = occupancy.get((p[0], p[1]))
                if seq is not None:
                    seq.extend(zip(range(t, t + n), repeat(m)))
            t += n
    for seq in occupancy.values():
        seq.sort()
    ledger: dict[int, int] = {}
    for so in dispensing:
        seq = occupancy[(float(so.tile.x), float(so.tile.y))]
        end = so.end + pauses.get(so.op.op_id, 0)
        lo, hi = bisect_left(seq, (so.start,)), bisect_left(seq, (end,))
        ledger[so.op.op_id] = len({t for t, m in seq[lo:hi] if m != so.mover})
    return ledger


def ref_validate_plan(plan: RoutedPlan, instance) -> list[str]:
    """Full plan check: realized schedule validity plus path consistency.

    The adjusted schedule is validated with durations inflated by the accounted
    pauses; travel gaps are re-verified against the realized paths (one tile
    per tick, segments matching the schedule, sites entered only from their
    two adjacent tiles).
    """
    issues = []
    pauses = plan.interruptions
    real_ops = tuple(
        ScheduledOp(
            OperationSpec(
                so.op.op_id,
                so.op.order_id,
                so.op.target,
                so.op.duration + pauses.get(so.op.op_id, 0),
                so.op.kind,
            ),
            so.mover,
            so.tile,
            so.start,
        )
        for so in plan.schedule.ops
    )
    realized = Schedule(real_ops, max(o.end for o in real_ops))
    for v in validate_schedule(realized, instance):
        # realized durations legitimately exceed the nominal ones
        if "rule 6" in v or ("rule 1" in v and "does not match" in v):
            continue
        issues.append(v)

    for m, pos in plan.paths.items():
        prev = None
        for t, p in enumerate(pos):
            if p is None:
                prev = None
                continue
            x, y, state = p
            if prev is not None:
                step = abs(x - prev[0]) + abs(y - prev[1])
                if step > 1.0 + 1e-9:
                    issues.append(f"path: mover {m} jumps {step} tiles at tick {t}")
            on_center = float(x).is_integer() and float(y).is_integer()
            if state == REST and not on_center:
                site = RestingSite(
                    Coord(int(x - 0.5), int(y)) if x != int(x) else Coord(int(x), int(y - 0.5)),
                    Coord(int(x + 0.5), int(y)) if x != int(x) else Coord(int(x), int(y + 0.5)),
                )
                if prev is not None and prev[:2] != (x, y):
                    frm = Coord(int(prev[0]), int(prev[1]))
                    if frm not in site.tiles:
                        issues.append(
                            f"path: mover {m} enters site {site.location} from {tuple(frm)}"
                        )
            elif not on_center and state != REST:
                issues.append(f"path: mover {m} off-center at tick {t} in state {state}")
            prev = p
    for so in plan.schedule.ops:
        end = so.end + pauses.get(so.op.op_id, 0)
        pos = plan.paths.get(so.mover, [])
        for t in range(so.start, min(end, len(pos))):
            p = pos[t]
            if p is None or (p[0], p[1]) != (float(so.tile.x), float(so.tile.y)):
                issues.append(
                    f"path: mover {so.mover} absent from op {so.op.op_id} tile at tick {t}"
                )
                break
    return issues


def _horizon(schedule, pauses):
    """Length of the reference tick lists: the latest realized end, plus one."""
    return max(so.end + pauses.get(so.op.op_id, 0) for so in schedule.ops) + 1


def _round_schedule(realized):
    """A round's ops at the round's starts, as the schedule the references read."""
    ops = tuple(ScheduledOp(op, m, tile, s)
                for m, seq in realized.ops.items() for tile, s, _e, op in seq)
    return Schedule(ops, max((so.end for so in ops), default=0))


def _assert_runs_expand_to(runs_by_mover, ticks_by_mover):
    assert set(runs_by_mover) == set(ticks_by_mover)
    for m, runs in runs_by_mover.items():
        ref = ticks_by_mover[m]
        assert all(t0 < t1 for t0, t1, _ in runs), m
        for (_a0, a1, a), (b0, _b1, b) in zip(runs, runs[1:]):
            assert a1 < b0 or (a1 == b0 and a != b), m  # sorted, disjoint and maximal
        assert tick_list(runs, len(ref)) == ref, m


def _routing_instances():
    for topology, size, movers in (("square", (5, 5), 3), ("ring", 5, 4), ("square", (7, 7), 8),
                                   ("ring", 6, 8)):
        layout = build_layout(topology, size, 2)
        drugs = list("abcdef")
        for seed in range(4):
            pl = random_placement(layout, drugs, seed=seed + 90)
            orders = random_orders(drugs, 2 * movers, seed=seed, size_range=(1, 3), dur_range=(2, 9))
            yield pl, orders, movers, schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=4)


def test_runs_match_tick_reference_on_every_fixpoint_iteration(monkeypatch):
    import planarfab.routing as routing

    build, detect = routing.build_paths, routing.detect_conflicts
    calls = {"build": 0, "detect": 0}

    def checked_build(realized, assignment, transits=None):
        runs = build(realized, assignment, transits)
        ref = ref_build_paths(_round_schedule(realized), assignment, realized.frame.placement,
                              pauses=realized.pauses, transits=transits)
        _assert_runs_expand_to(runs, ref)
        calls["build"] += 1
        return runs

    def checked_detect(paths, realized):
        ledger = detect(paths, realized)
        s, pauses = _round_schedule(realized), realized.pauses
        n = _horizon(s, pauses)
        ticks = {m: tick_list(runs, n) for m, runs in paths.items()}
        assert ledger == ref_detect_conflicts(ticks, s, pauses=pauses)
        calls["detect"] += 1
        return ledger

    monkeypatch.setattr(routing, "build_paths", checked_build)
    monkeypatch.setattr(routing, "detect_conflicts", checked_detect)
    paused = 0
    for pl, _orders, _movers, s in _routing_instances():
        plan = route_schedule(s, pl)
        paused += bool(plan.interruptions)
    assert paused >= 4
    assert calls["build"] == calls["detect"] > 16  # some instances iterate more than once


def test_runs_match_tick_reference_under_foreign_pauses():
    """Pauses that differ from the ones the transits and sites were chosen
    under stretch ops into their successors, so ops overwrite ops and transit
    segments land on ticks written before them."""
    overlaps = jumps = 0
    for pl, orders, movers, s in _routing_instances():
        plan = route_schedule(s, pl)
        transits = extract_transits(realize(plan.schedule, pl, plan.interruptions))
        inst = SchedulingInstance(tuple(orders), pl, movers, 2)
        rng = random.Random(len(transits))
        for trial in range(3):
            extra = {so.op.op_id: rng.choice((0, 0, rng.randint(1, 4), rng.randint(5, 30)))
                     for so in plan.schedule.ops}
            given = transits if trial else None
            assignment = plan.resting_assignment if trial else {}
            runs = build_paths(realize(plan.schedule, pl, extra), assignment, given)
            ref = ref_build_paths(plan.schedule, assignment, pl, pauses=extra, transits=given)
            _assert_runs_expand_to(runs, ref)
            assert detect_conflicts(runs, realize(plan.schedule, pl, extra)) == ref_detect_conflicts(
                ref, plan.schedule, extra
            )
            # paths handed to other movers: a mover's own runs on its tile count now
            ids = sorted(runs)
            moved = dict(zip(ids[1:] + ids[:1], (runs[m] for m in ids)))
            moved_ref = dict(zip(ids[1:] + ids[:1], (ref[m] for m in ids)))
            assert detect_conflicts(moved, realize(plan.schedule, pl, extra)) == ref_detect_conflicts(
                moved_ref, plan.schedule, extra
            )
            paused = dataclasses.replace(plan, interruptions=extra, paths=runs)
            issues = validate_plan(paused, inst)
            assert issues == ref_validate_plan(dataclasses.replace(paused, paths=ref), inst)
            jumps += any("jumps" in v for v in issues)
            realized = sorted((so.mover, so.start, so.end + extra[so.op.op_id]) for so in plan.schedule.ops)
            overlaps += sum(a[0] == b[0] and a[2] > b[1] for a, b in zip(realized, realized[1:]))
    assert overlaps > 0 and jumps > 0


def test_build_paths_matches_tick_reference_on_adversarial_rounds():
    """Inputs the fuzz rarely builds, each against ref_build_paths: a mover's
    ops that overlap, a gap shorter than the travel (the mover leaves before
    its op ends), rests of zero ticks, and segments clipped at tick 0 and at
    the end of the horizon.  Pins the expansion of movement legs to the
    tick-list reference."""
    layout = build_layout("square", (4, 4), 1)
    pl = Placement(layout, {Coord(4, 4): ("a",)}, frozenset({Coord(1, 1)}))

    def op(op_id, mover, tile, start, duration=2, kind=DISPENSING):
        return ScheduledOp(OperationSpec(op_id, op_id, "a", duration, kind), mover, Coord(*tile), start)

    site = RestingSite(Coord(3, 1), Coord(4, 1))
    cases = [
        # overlap: op 1 starts before op 0 ends; leaving at 3 - 6 clips the move at tick 0
        ([op(0, 0, (1, 1), 0, 5), op(1, 0, (4, 4), 3)], {}, None),
        # gap 2 shorter than travel 4: the mover leaves at tick 2, before op 0 ends at 4
        ([op(0, 0, (1, 1), 0, 4), op(1, 0, (3, 3), 6)], {}, None),
        # gap equal to travel: a rest of zero ticks at the previous tile
        ([op(0, 0, (1, 1), 0), op(1, 0, (1, 3), 4), op(2, 1, (2, 2), 1, 5, SWAP)], {}, None),
        # a site reached just in time: a rest of zero ticks at its midpoint
        ([op(0, 0, (1, 1), 0), op(1, 0, (2, 1), 6)], {}, "site"),
        # op 0 paused to the last tick: the detour to the site is clipped at the top
        ([op(0, 0, (1, 1), 0, 3), op(1, 0, (2, 1), 5)], {0: 10}, "site"),
    ]
    for ops, pauses, with_site in cases:
        s = Schedule(tuple(ops), max(o.end for o in ops))
        # transits and sites chosen without the pauses, as in a round whose pauses grew
        transits = extract_transits(realize(s, pl)) if with_site else None
        assignment = {}
        if with_site:
            (tr,) = transits
            assignment = {(tr.mover, tr.from_op, tr.to_op): site}
        runs = build_paths(realize(s, pl, pauses), assignment, transits)
        _assert_runs_expand_to(runs, ref_build_paths(s, assignment, pl, pauses=pauses, transits=transits))

    # the same kinds of rounds at random: starts that overlap or leave short
    # gaps, foreign pauses, and sites assigned to any transit
    rng = random.Random(5)
    sites = generate_resting_sites(layout, pl.interfaces).sites
    tiles = layout.sorted_tiles()
    for trial in range(200):
        ops, op_id = [], 0
        for m in range(rng.randint(1, 3)):
            t = rng.randint(-2, 3)
            for _ in range(rng.randint(2, 5)):
                kind = rng.choice((DISPENSING, SWAP))
                ops.append(op(op_id, m, rng.choice(tiles), max(t, 0), rng.randint(1, 4), kind))
                op_id += 1
                t += rng.randint(-3, 8)
        s = Schedule(tuple(ops), max(o.end for o in ops))
        transits = extract_transits(realize(s, pl))
        assignment = {
            (tr.mover, tr.from_op, tr.to_op): rng.choice(sites) for tr in transits if rng.random() < 0.6
        }
        pauses = {o.op.op_id: rng.choice((0, 0, 1, 3, 9)) for o in ops}
        runs = build_paths(realize(s, pl, pauses), assignment, transits)
        _assert_runs_expand_to(runs, ref_build_paths(s, assignment, pl, pauses=pauses, transits=transits))

def _corrupt(plan, m, k, new_runs):
    """plan with mover m's k-th run replaced by new_runs."""
    runs = list(plan.paths[m])
    runs[k : k + 1] = new_runs
    return dataclasses.replace(plan, paths={**plan.paths, m: runs})


def test_validate_plan_tolerates_only_the_pauses_in_an_ops_duration():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abc")
    pl = random_placement(layout, drugs, seed=2)
    orders = random_orders(drugs, 8, seed=1, size_range=(1, 3), dur_range=(2, 6))
    s = schedule(orders, pl, 2, eta=2, seed=1, max_iterations=10)
    plan = route_schedule(s, pl)
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_plan(plan, inst) == []  # realized durations include the pauses

    def edited(op_id, **change):
        ops = tuple(
            dataclasses.replace(so, op=dataclasses.replace(so.op, **change))
            if so.op.op_id == op_id else so
            for so in plan.schedule.ops
        )
        return dataclasses.replace(plan, schedule=dataclasses.replace(plan.schedule, ops=ops))

    # a dispensing op given the other drug of its two-drug tile: same paths
    so = next(
        so for so in plan.schedule.ops
        if so.op.kind == DISPENSING and len(pl.drug_tiles[so.tile]) == 2
    )
    other = next(g for g in pl.drug_tiles[so.tile] if g != so.op.target)
    swapped = edited(so.op.op_id, target=other)
    want = [f"rule 1: op {so.op.op_id} does not match the instance"]
    assert validate_schedule(swapped.schedule, inst) == want
    assert validate_plan(swapped, inst) == want

    # a paused op whose nominal duration is short by its pauses: the realized
    # duration, and so the paths, match the instance, the op does not
    op_id, pause = next((k, v) for k, v in sorted(plan.interruptions.items()) if v)
    short = next(so for so in plan.schedule.ops if so.op.op_id == op_id)
    assert validate_plan(edited(op_id, duration=short.op.duration - pause), inst) == [
        f"rule 1: op {op_id} does not match the instance"
    ]


def test_validate_plan_reports_a_stale_stored_makespan():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abc")
    pl = random_placement(layout, drugs, seed=2)
    orders = random_orders(drugs, 8, seed=1, size_range=(1, 3), dur_range=(2, 6))
    plan = route_schedule(schedule(orders, pl, 2, eta=2, seed=1, max_iterations=10), pl)
    assert plan.interruptions  # the realized ends differ from the nominal ones
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    stale = dataclasses.replace(
        plan, schedule=dataclasses.replace(plan.schedule, makespan=plan.schedule.makespan + 1)
    )
    assert validate_plan(stale, inst) == ["rule 7: stored makespan is not the latest finish"]


def test_validate_plan_reads_a_mover_without_paths_as_absent():
    layout = build_layout("square", (4, 4), 2)
    pl = random_placement(layout, list("abc"), seed=2)
    orders = random_orders(list("abc"), 4, seed=1, size_range=(1, 3), dur_range=(2, 6))
    plan = route_schedule(schedule(orders, pl, 2, eta=2, seed=1, max_iterations=0), pl)
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_plan(plan, inst) == []
    paths = dict(plan.paths)
    del paths[0]
    issues = validate_plan(dataclasses.replace(plan, paths=paths), inst)
    assert issues == [f"path: mover 0 absent from op {so.op.op_id} tile at tick {so.start}"
                      for so in plan.schedule.ops if so.mover == 0]
    assert issues == validate_plan(dataclasses.replace(plan, paths={**paths, 0: []}), inst)


def test_validate_plan_matches_tick_reference_on_corrupted_runs():
    layout = build_layout("square", (5, 5), 2)
    drugs = list("ab")
    pl = random_placement(layout, drugs, seed=8)
    orders = random_orders(drugs, 8, seed=8, size_range=(1, 2), dur_range=(2, 5))
    s = schedule(orders, pl, 3, eta=2, seed=8, max_iterations=10)
    plan = route_schedule(s, pl)
    assert len(plan.resting_assignment) == 2
    inst = SchedulingInstance(tuple(orders), pl, 3, 2)
    assert validate_plan(plan, inst) == []
    n = _horizon(plan.schedule, plan.interruptions)
    kinds = set()
    for m, runs in plan.paths.items():
        for k, (t0, t1, (x, y, state)) in enumerate(runs):
            bad = []  # (run index, the runs that replace it)
            if state == MOVE:  # a jump; an off-center move
                bad += [(k, [(t0, t1, (x + 2.0, y, MOVE))]), (k, [(t0, t1, (x + 0.5, y, MOVE))])]
            if state == REST and not float(x).is_integer() and k and runs[k - 1][1] == t0:
                p0, p1, (px, py, _) = runs[k - 1]  # the tile the site is entered from, moved away
                bad.append((k - 1, [(p0, p1, (px - 1.0, py + 1.0, MOVE))]))
            if state == DISPENSE:  # absent from its op: the whole op, its first tick, one inside
                cell = (x, y, state)
                bad += [(k, []), (k, [(t0 + 1, t1, cell)])]
                if t1 - t0 >= 3:
                    bad.append((k, [(t0, t0 + 1, cell), (t0 + 2, t1, cell)]))
            for j, new_runs in bad:
                corrupted = _corrupt(plan, m, j, new_runs)
                issues = validate_plan(corrupted, inst)
                ticks = {i: tick_list(r, n) for i, r in corrupted.paths.items()}
                assert issues == ref_validate_plan(dataclasses.replace(corrupted, paths=ticks), inst)
                kinds.update(v.split()[3] for v in issues if v.startswith("path:"))
    assert kinds >= {"jumps", "off-center", "enters", "absent"}


# --- merging -------------------------------------------------------------------------

def test_merge_single_batch_unchanged():
    pl = line_placement(["IF", ("a",)])
    s = schedule([Order(0, (("a", 5),))], pl, 1, eta=2)
    merged = merge_batches([s], pl)
    assert merged.makespan == s.makespan
    assert [x.start for x in merged.ops] == [x.start for x in sorted(s.ops, key=lambda o: (o.start, o.mover, o.op.op_id))]


def test_merge_two_single_order_batches_one_mover():
    pl = line_placement(["IF", ("a",)])
    o1, o2 = Order(0, (("a", 10),)), Order(1, (("a", 10),))
    b1 = schedule([o1], pl, 1, eta=2)
    b2 = schedule([o2], pl, 1, eta=2)
    merged = merge_batches([b1, b2], pl)
    # brute force on the 2-order instance gives the same shape: b1 + hop + b2
    direct = schedule([o1, o2], pl, 1, eta=2)
    assert merged.makespan == direct.makespan == 32
    inst = SchedulingInstance((o1, o2), pl, 1, 2)
    assert validate_schedule(merged, inst) == []


def test_merge_makespan_at_least_max_batch():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abc")
    pl = random_placement(layout, drugs, seed=5)
    orders = random_orders(drugs, 12, seed=6, size_range=(1, 3))
    b1 = schedule(orders[:6], pl, 2, eta=2, seed=1, max_iterations=10)
    b2 = schedule(orders[6:], pl, 2, eta=2, seed=2, max_iterations=10)
    merged = merge_batches([b1, b2], pl)
    assert merged.makespan >= max(b1.makespan, b2.makespan)
    plan = resolve_conflicts(merged, pl)
    assert plan.makespan >= merged.makespan
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_plan(plan, inst) == []


def test_merge_numbers_ops_as_build_operations_over_orders_in_id_order():
    """Batches list their orders in any order; the merged ids follow the
    orders' ids, and an order in two batches is refused."""
    pl = line_placement(["IF", ("a",), ("b",)])
    orders = [Order(2, (("a", 3), ("b", 4))), Order(0, (("b", 2),)), Order(1, (("a", 5),))]
    b1 = schedule(orders[:2], pl, 2, eta=2)
    b2 = schedule(orders[2:], pl, 2, eta=2)
    merged = merge_batches([b1, b2], pl)
    ordered = sorted(orders, key=lambda o: o.id)
    assert validate_schedule(merged, SchedulingInstance(tuple(ordered), pl, 2, 2)) == []
    with pytest.raises(ValueError, match="order 1 appears twice"):
        merge_batches([b1, b2, b2], pl)
