import itertools
import math

import numpy as np
import pytest

from planarfab import shppn
from planarfab.core import Coord, Order, build_layout
from planarfab.scheduling import lower_bound
from planarfab.shppn import kappa

from conftest import random_placement


def brute_force_kappa(order, placement):
    dist = placement.layout.distance
    interfaces = sorted(placement.interfaces)
    best = math.inf
    alts = [sorted(placement.dispensers_for(g)) for g in order.drugs]
    for perm in itertools.permutations(range(len(alts))):
        for combo in itertools.product(*(alts[i] for i in perm)):
            inner = sum(dist(a, b) for a, b in zip(combo, combo[1:]))
            start = min(dist(i, combo[0]) for i in interfaces)
            end = min(dist(combo[-1], i) for i in interfaces)
            best = min(best, start + inner + end)
    return best


# --- kappa ---------------------------------------------------------------------------

def test_kappa_single_drug_closed_form(golden_placement):
    # with one drug the optimum is min over (interface, tile, interface)
    order = Order(0, (("OMEPRAZOLE", 5),))
    got = kappa(order, golden_placement)
    dist = golden_placement.layout.distance
    tiles = golden_placement.dispensers_for("OMEPRAZOLE")
    ifaces = sorted(golden_placement.interfaces)
    want = min(
        dist(i1, t) + dist(t, i2) for t in tiles for i1 in ifaces for i2 in ifaces
    )
    assert got.kappa == want == 6


def test_kappa_fig6_values(golden_placement, golden_orders):
    assert [kappa(o, golden_placement).kappa for o in golden_orders] == [3, 6, 3]


def test_kappa_sequence_consistent(golden_placement, golden_orders):
    for o in golden_orders:
        res = kappa(o, golden_placement)
        labels = [lab for lab, _ in res.sequence]
        assert labels[0] == "interface" and labels[-1] == "interface"
        assert sorted(labels[1:-1]) == sorted(o.drugs)
        dist = golden_placement.layout.distance
        cost = sum(
            dist(a, b)
            for (_, a), (_, b) in zip(res.sequence, res.sequence[1:])
        )
        assert cost == res.kappa


def test_kappa_equals_bruteforce_on_random_instances():
    cases = [  # (layout, drugs per order, max alternatives, seeds)
        (build_layout("square", (5, 5), 2), 5, 3, range(25)),
        (build_layout("ring", 5, 2), 5, 3, range(10)),
        (build_layout("ring", 4, 2), 6, 2, range(6)),
        (build_layout("square", (3, 4), 2), 7, 2, range(3)),
        (build_layout("ring", 4, 1), 7, 1, range(4)),
    ]
    shared = 0
    for layout, k, alts, seeds in cases:
        drugs = [f"d{i}" for i in range(k)]
        for seed in seeds:
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=alts)
            shared += any(len(ds) > 1 for ds in pl.drug_tiles.values())
            order = Order(0, tuple((g, 4) for g in drugs))
            got = kappa(order, pl)
            assert got.kappa == brute_force_kappa(order, pl), (layout.topology, k, seed)
            (_, start), *stops, (_, end) = got.sequence
            assert start in pl.interfaces and end in pl.interfaces
            assert sorted(g for g, _ in stops) == drugs
            assert all(t in pl.dispensers_for(g) for g, t in stops)
            path = [start] + [t for _, t in stops] + [end]
            assert sum(map(layout.distance, path, path[1:])) == got.kappa
    assert shared >= 10  # drugs sharing a tile are visited at zero distance


def order_graph(order, placement):
    """The path graph of one order on the layout's distance table.

    Returns (interfaces, alts, tiles, d, to_iface): the sorted interfaces; per
    drug of the order, its sorted dispenser tiles; the (drug, tile) vertices'
    tiles in alts order; travel times between vertices; and travel times from
    each vertex to each interface, which are also those from each interface
    to each vertex (graph distances are symmetric).
    """
    interfaces = sorted(placement.interfaces)
    alts = [(g, sorted(placement.dispensers_for(g))) for g in order.drugs]
    tiles = [t for _, ts in alts for t in ts]
    layout = placement.layout
    return interfaces, alts, tiles, layout.distances(tiles), layout.distances(tiles, interfaces)


def mask_by_mask_kappa(order, placement):
    """The subset DP relaxed one mask at a time, in increasing mask order."""
    interfaces, alts, tiles, d, to_iface = order_graph(order, placement)
    bits = np.array([1 << gi for gi, (_, ts) in enumerate(alts) for _ in ts], dtype=np.int64)
    nearest = to_iface.min(axis=1)
    full = (1 << len(alts)) - 1
    cols = np.arange(len(tiles))
    dp = np.full((full + 1, len(tiles)), np.iinfo(np.int64).max // 4, dtype=np.int64)
    parent = np.full((full + 1, len(tiles)), -1, dtype=np.int64)
    dp[bits, cols] = nearest
    for mask in range(1, full):
        ext = dp[mask][:, None] + d
        arg = ext.argmin(axis=0)
        best = ext[arg, cols]
        w = np.flatnonzero(((bits & mask) == 0) & (best < dp[mask | bits, cols]))
        dp[mask | bits[w], w] = best[w]
        parent[mask | bits[w], w] = arg[w]
    closing = dp[full] + nearest
    v = int(closing.argmin())
    total = int(closing[v])
    chain = []
    mask = full
    while v >= 0:
        chain.append(v)
        v, mask = int(parent[mask, v]), mask ^ int(bits[v])
    chain.reverse()
    owner = [g for g, ts in alts for _ in ts]
    seq = (
        (("interface", interfaces[int(to_iface[chain[0]].argmin())]),)
        + tuple((owner[v], tiles[v]) for v in chain)
        + (("interface", interfaces[int(to_iface[chain[-1]].argmin())]),)
    )
    return shppn.PathResult(total, seq)


def test_layered_kappa_matches_mask_by_mask_dp():
    cases = [  # (layout, max alternatives, seeds per order size)
        (build_layout("square", (5, 5), 2), 3, range(4)),
        (build_layout("square", (8, 8), 2), 2, range(3)),
        (build_layout("ring", 5, 2), 3, range(4)),
        (build_layout("ring", 6, 1), 2, range(3)),
    ]
    shared = 0
    for layout, alts, seeds in cases:
        for k in range(1, 9):
            drugs = [f"d{i}" for i in range(k)]
            for seed in seeds:
                pl = random_placement(layout, drugs, seed=100 * k + seed, max_alternatives=alts)
                shared += any(len(ds) > 1 for ds in pl.drug_tiles.values())
                order = Order(0, tuple((g, 4) for g in drugs))
                assert kappa(order, pl) == mask_by_mask_kappa(order, pl), (layout.topology, k, seed)
    assert shared >= 10


def parent_table_routes(drug_sets, placement, ties):
    """kappa_routes as a DP that keeps a predecessor table and backtracks
    through it; ties counts the layer entries with more than one predecessor
    at the minimum."""
    drug_sets = list(dict.fromkeys(drug_sets))
    out = {}
    index, table = placement.layout.index_table
    ifaces = sorted(index[c] for c in placement.interfaces)
    for k, chunk, tid, bits, d, nearest, real in shppn._chunks(drug_sets, placement):
        n, width = bits.shape
        full = (1 << k) - 1
        dp = np.full((n, full + 1, width), shppn._INF, dtype=np.int64)
        parent = np.full((n, full + 1, width), -1, dtype=np.int64)
        b, w = np.nonzero(real)
        dp[b, bits[b, w], w] = nearest[b, w]
        into = d.transpose(0, 2, 1)
        masks = np.arange(full + 1, dtype=np.int64)
        popcount = ((masks[:, None] >> np.arange(k)) & 1).sum(axis=1)
        for layer in range(1, k):
            m = masks[popcount == layer]
            b, r, w = np.nonzero(((m[:, None] & bits[:, None, :]) == 0) & real[:, None, :])
            m = m[r]
            ext = dp[b, m] + into[b, w]
            to = m | bits[b, w]
            dp[b, to, w] = ext.min(axis=1)
            parent[b, to, w] = ext.argmin(axis=1)
            ties[0] += int(((ext == ext.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
        to_iface = np.where(real[:, :, None], table[tid[:, :, None], ifaces], shppn._INF)
        closing = dp[:, -1, :, None] + to_iface
        lengths = closing.min(axis=1)
        v = closing.argmin(axis=1)
        b = np.arange(len(chunk))[:, None]
        mask = full
        stops = []
        for _ in range(k):
            stops.append(v)
            v, mask = parent[b, mask, v], mask ^ bits[b, v]
        ends = to_iface[b, stops[-1]].argmin(axis=2)
        stops = np.stack(stops, axis=2).tolist()
        for row, i in enumerate(chunk):
            drugs = drug_sets[i]
            owner = [g for g in drugs for _ in placement.dispensers_for(g)]
            vertex = list(zip(owner, tid[row].tolist()))
            routes = tuple(
                (n_, ifaces[e], tuple(vertex[u] for u in path), ifaces[end])
                for e, (n_, path, end) in enumerate(
                    zip(lengths[row].tolist(), stops[row], ends[row].tolist()))
            )
            out[drugs] = shppn.RouteSet(min(r[0] for r in routes), routes)
    return out


def test_kappa_routes_match_the_parent_table_backtrack():
    """Backtracking by recomputing each predecessor's first minimum gives
    the routes of a DP that keeps its predecessor table, ties included."""
    from conftest import random_orders

    layouts = [build_layout("square", (5, 5), 2), build_layout("ring", 6, 3),
               build_layout("line", 12, 2)]
    drugs = [f"d{i}" for i in range(7)]
    ties = [0]
    checked = 0
    for li, layout in enumerate(layouts):
        for seed in range(8):
            pl = random_placement(layout, drugs, seed=40 * li + seed, max_alternatives=3)
            sets = [o.drugs for o in random_orders(drugs, 25, seed=seed, size_range=(1, 6))]
            got = shppn.kappa_routes(sets, pl)
            assert got == parent_table_routes(sets, pl, ties), (layout.topology, seed)
            checked += len(got)
    assert checked >= 400 and ties[0] >= 1000


def int64_reference_kappa_routes(drug_sets, placement):
    """kappa_routes as its int64 DP computed it: the same layered subset DP,
    first-minimum backtrack and nearest end interface, in int64 with an
    int64 infinity, one drug set at a time (no chunks, no padding)."""
    inf = np.iinfo(np.int64).max // 4
    index, table = placement.layout.index_table
    ifaces = sorted(index[c] for c in placement.interfaces)
    nearest_of = table[:, ifaces].min(axis=1)
    out = {}
    for drugs in dict.fromkeys(drug_sets):
        vertex = [(g, index[t]) for g in drugs for t in placement.dispensers_for(g)]
        tid = np.array([t for _, t in vertex], dtype=np.int64)
        bits = np.array([1 << drugs.index(g) for g, _ in vertex], dtype=np.int64)
        d = table[np.ix_(tid, tid)].astype(np.int64)
        to_iface = table[np.ix_(tid, ifaces)].astype(np.int64)
        k = len(drugs)
        full = (1 << k) - 1
        dp = np.full((full + 1, len(vertex)), inf, dtype=np.int64)
        dp[bits, np.arange(len(vertex))] = nearest_of[tid]
        masks = np.arange(full + 1, dtype=np.int64)
        popcount = ((masks[:, None] >> np.arange(k)) & 1).sum(axis=1)
        for layer in range(1, k):
            m = masks[popcount == layer]
            r, w = np.nonzero((m[:, None] & bits[None, :]) == 0)
            m = m[r]
            ext = dp[m] + d[:, w].T  # ext[i, v] = dp[m_i, v] + d[v, w_i]
            dp[m | bits[w], w] = ext.min(axis=1)
        closing = dp[full][:, None] + to_iface  # (vertex, interface)
        lengths, v = closing.min(axis=0), closing.argmin(axis=0)
        mask = np.full(len(ifaces), full)
        stops = [v]
        for _ in range(k - 1):
            mask = mask ^ bits[v]
            v = (dp[mask] + d[:, v].T).argmin(axis=1)
            stops.append(v)
        ends = to_iface[stops[-1]].argmin(axis=1)
        routes = tuple(
            (int(n), ifaces[e], tuple(vertex[u] for u in path), ifaces[end])
            for e, (n, path, end) in enumerate(zip(lengths, zip(*stops), ends))
        )
        out[drugs] = shppn.RouteSet(min(r[0] for r in routes), routes)
    return out


def test_int32_kappa_routes_match_the_int64_reference():
    """κ and routes of the int32 DP equal the int64 DP's on square, ring,
    line 64 (diameter 63) and doubleline, with 8-drug sets among sets of 1-8
    drugs and up to 6 dispensers per drug."""
    from conftest import random_orders

    layouts = [build_layout("square", (8, 8), 2), build_layout("ring", 8, 2),
               build_layout("line", 64, 2), build_layout("doubleline", 16, 2)]
    drugs = [f"d{i}" for i in range(10)]
    eight = 0
    for li, layout in enumerate(layouts):
        for seed in range(2):
            pl = random_placement(layout, drugs, seed=70 * li + seed, max_alternatives=6)
            assert max(len(pl.dispensers_for(g)) for g in drugs) > 3
            sets = [o.drugs for o in random_orders(drugs, 16, seed=seed, size_range=(8, 8))]
            sets += [o.drugs for o in random_orders(drugs, 16, seed=seed, size_range=(1, 7))]
            got = shppn.kappa_routes(sets, pl)
            assert got == int64_reference_kappa_routes(sets, pl), (layout.topology, seed)
            eight += sum(len(ds) == 8 for ds in got)
    assert layouts[2].index_table[1].max() == 63 and eight >= 100


def test_kappa_refuses_a_layout_whose_routes_could_reach_inf(golden_placement, golden_orders, monkeypatch):
    """_chunks refuses a diameter times (drugs + 2) that reaches _INF; just
    below, κ is unchanged."""
    diameter = int(golden_placement.layout.index_table[1].max())
    drug_sets = [o.drugs for o in golden_orders]
    want = shppn.kappa_routes(drug_sets, golden_placement)
    most = max(len(ds) for ds in drug_sets)
    monkeypatch.setattr(shppn, "_INF", diameter * (most + 2))
    with pytest.raises(ValueError, match="too large for int32 routes"):
        shppn.kappa_routes(drug_sets, golden_placement)
    monkeypatch.setattr(shppn, "_INF", diameter * (most + 2) + 1)
    assert shppn.kappa_routes(drug_sets, golden_placement) == want


def per_order_kappa_loop(placement, orders):
    """κ of each order by one single-order kappa per distinct drug set."""
    solved = {}
    for o in orders:
        if o.drugs not in solved:
            solved[o.drugs] = kappa(o, placement).kappa
    return [solved[o.drugs] for o in orders]


def test_per_order_kappa_matches_per_order_loop():
    from planarfab.placement import per_order_kappa

    from conftest import random_orders

    cases = [  # (layout, max alternatives, order sizes)
        (build_layout("square", (8, 8), 2), 4, (1, 8)),
        (build_layout("ring", 7, 2), 3, (1, 6)),
        (build_layout("square", (5, 5), 1), 2, (2, 5)),
    ]
    drugs = [f"d{i:02d}" for i in range(10)]
    multiplicities = set()
    for layout, alts, sizes in cases:
        for seed in range(4):
            pl = random_placement(layout, drugs, seed=500 + seed, max_alternatives=alts)
            multiplicities |= {len(pl.dispensers_for(g)) for g in drugs}
            orders = random_orders(drugs, 30, seed=seed, size_range=sizes)
            orders += [Order(100 + o.id, o.items) for o in orders[::3]]  # repeated drug sets
            assert len({len(o.drugs) for o in orders}) > 2
            assert per_order_kappa(pl, orders) == per_order_kappa_loop(pl, orders)
    assert multiplicities == {1, 2, 3, 4}
    assert per_order_kappa(pl, []) == [] and shppn.kappa_routes([], pl) == {}


def test_kappa_routes_chunks_match_per_order_loop(monkeypatch):
    # 40 distinct 8-drug sets of 16 vertices each: several sets per pass at
    # the real pass size, and one set and a few masks per pass at a tiny one
    from planarfab.placement import Placement, per_order_kappa

    layout = build_layout("square", (8, 8), 2)
    drugs = [f"d{i:02d}" for i in range(12)]
    ifaces = frozenset({Coord(1, 1), Coord(8, 8)})
    coords = [c for c in sorted(layout.tiles) if c not in ifaces]
    pl = Placement(layout, {c: (drugs[i % 12],) for i, c in enumerate(coords[:24])}, ifaces)
    sets = list(itertools.combinations(drugs, 8))[::12][:40]
    orders = [Order(i, tuple((g, 1) for g in s)) for i, s in enumerate(sets)]
    assert len(orders) == 40 and {len(pl.dispensers_for(g)) for g in drugs} == {2}
    per_pass = shppn._KAPPA_PASS // (math.comb(8, 4) * 16 * 16)
    assert 1 < per_pass < len(orders)
    want = per_order_kappa_loop(pl, orders)
    assert per_order_kappa(pl, orders) == want
    monkeypatch.setattr(shppn, "_KAPPA_PASS", 600)
    assert per_order_kappa(pl, orders[:6]) == want[:6]


def test_kappa_monotone_in_alternatives(golden_placement):
    order = Order(0, (("LISINOPRIL", 5), ("SIMVASTATIN", 5)))
    base = kappa(order, golden_placement).kappa
    richer = dict(golden_placement.drug_tiles)
    richer[Coord(4, 4)] = ("WARFARIN", "LISINOPRIL")  # extra alternative
    from planarfab.placement import Placement

    pl2 = Placement(golden_placement.layout, richer, golden_placement.interfaces)
    assert kappa(order, pl2).kappa <= base


def test_kappa_respects_metric_sanity_bound():
    # kappa is at least "reach some required tile, return from some required tile"
    layout = build_layout("square", (5, 5), 2)
    drugs = [f"d{i}" for i in range(4)]
    for seed in range(15):
        pl = random_placement(layout, drugs, seed=seed + 300, max_alternatives=3)
        order = Order(0, tuple((g, 2) for g in drugs))
        dist = pl.layout.distance
        required = [t for g in drugs for t in pl.dispensers_for(g)]
        reach = min(dist(i, t) for i in pl.interfaces for t in required)
        back = min(dist(t, i) for i in pl.interfaces for t in required)
        assert kappa(order, pl).kappa >= reach + back


def test_kappa_errors(golden_placement):
    with pytest.raises(ValueError):
        kappa(Order(0, (("UNPLACED", 1),)), golden_placement)
    from planarfab.placement import Placement

    no_iface_layout = build_layout("square", (2, 2), 0)
    pl = Placement(no_iface_layout, {Coord(1, 1): ("a",)}, frozenset())
    with pytest.raises(ValueError):
        kappa(Order(0, (("a", 1),)), pl)


def test_lower_bound_path_time_formula(golden_placement):
    order = Order(0, (("ATORVASTATIN", 5), ("HYDROCHLOROTHIAZIDE", 5)))
    assert lower_bound([order], golden_placement, 1, eta=2).t_values == {0: 2 * 2 + 3 + 10}

    # all drugs on one interface-adjacent tile
    order2 = Order(1, (("LOSARTAN", 7), ("AMLODIPINE", 3)))
    k = kappa(order2, golden_placement).kappa
    assert lower_bound([order2], golden_placement, 1, eta=2).t_values == {1: 4 + k + 10}


def test_lower_bound_path_times_match_kappa_recomputation(golden_placement):
    from conftest import random_orders

    drugs = ["LISINOPRIL", "SIMVASTATIN", "OMEPRAZOLE", "ATORVASTATIN"]
    orders = random_orders(drugs, 10, seed=3, size_range=(1, 3))
    want = {o.id: 2 * 5 + brute_force_kappa(o, golden_placement) + o.total_dispensing
            for o in orders}
    assert lower_bound(orders, golden_placement, 2, eta=5).t_values == want
