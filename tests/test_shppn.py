import itertools
import math

import numpy as np
import pytest

from planarfab import shppn
from planarfab.core import Coord, Order, build_layout
from planarfab.shppn import (
    GtspInstance,
    kappa,
    noon_bean,
    order_time_bound,
    solve_gtsp,
    solve_tsp,
)

from conftest import random_placement


def brute_force_tsp(C):
    n = C.shape[0]
    return min(
        C[0, p[0]] + sum(C[p[i], p[i + 1]] for i in range(len(p) - 1)) + C[p[-1], 0]
        for p in itertools.permutations(range(1, n))
    )


def brute_force_gtsp(clusters, C):
    best = math.inf
    for perm in itertools.permutations(range(len(clusters))):
        for combo in itertools.product(*(clusters[p] for p in perm)):
            cost = sum(C[combo[i], combo[(i + 1) % len(combo)]] for i in range(len(combo)))
            best = min(best, cost)
    return best


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


# --- solve_tsp ---------------------------------------------------------------------

def test_tsp_trivial_sizes():
    assert solve_tsp(np.zeros((1, 1), dtype=int))[0] == 0
    C = np.array([[0, 3], [7, 0]])
    assert solve_tsp(C)[0] == 10


def test_tsp_triangle_symmetric():
    C = np.array([[0, 2, 4], [2, 0, 3], [4, 3, 0]])
    assert solve_tsp(C)[0] == 9


def test_tsp_matches_bruteforce_n9_many_seeds():
    # vectorized permutation oracle reused across seeds
    n = 9
    perms = np.array(list(itertools.permutations(range(1, n))))
    for seed in range(200):
        rng = np.random.default_rng(seed)
        C = rng.integers(1, 40, (n, n)).astype(np.int64)
        np.fill_diagonal(C, 0)
        costs = C[0, perms[:, 0]] + C[perms[:, -1], 0]
        for i in range(n - 2):
            costs = costs + C[perms[:, i], perms[:, i + 1]]
        got, tour = solve_tsp(C)
        assert got == int(costs.min()), seed
        assert sorted(tour) == list(range(n))
        assert sum(C[tour[i], tour[(i + 1) % n]] for i in range(n)) == got


def test_tsp_size_guard():
    with pytest.raises(ValueError):
        solve_tsp(np.zeros((shppn.HELD_KARP_LIMIT + 1,) * 2, dtype=int))


# --- noon_bean ----------------------------------------------------------------------

def test_noon_bean_singleton_clusters_degenerate_to_tsp():
    rng = np.random.default_rng(5)
    n = 6
    C = rng.integers(1, 20, (n, n)).astype(float)
    np.fill_diagonal(C, 0)
    inst = GtspInstance(tuple((i,) for i in range(n)), C)
    got, chosen = solve_gtsp(inst)
    assert got == int(brute_force_tsp(C.astype(int)))
    assert sorted(chosen) == list(range(n))


def test_noon_bean_matches_bruteforce_100_seeds():
    sizes = [2, 1, 2]
    clusters = []
    v = 0
    for s in sizes:
        clusters.append(tuple(range(v, v + s)))
        v += s
    for seed in range(100):
        rng = np.random.default_rng(seed)
        C = rng.integers(1, 11, (v, v)).astype(float)
        np.fill_diagonal(C, 0)
        inst = GtspInstance(tuple(clusters), C)
        got, chosen = solve_gtsp(inst)
        assert got == int(brute_force_gtsp(clusters, C))
        assert len(chosen) == len(clusters)


def test_noon_bean_shift_and_structure():
    C = np.array([[0.0, 4, 2], [4, 0, 1], [2, 1, 0]])
    inst = GtspInstance(((0, 1), (2,)), C)
    nb = noon_bean(inst)
    assert nb.shift == int(C.sum()) + 1
    # intra-cluster zero cycle between 0 and 1
    assert nb.matrix[0, 1] == 0 and nb.matrix[1, 0] == 0
    # inter-cluster arcs rerooted at the successor and shifted by M
    assert nb.matrix[0, 2] == C[1, 2] + nb.shift  # leaving 0 means entered at 1
    assert nb.matrix[1, 2] == C[0, 2] + nb.shift


def test_gtsp_single_cluster_plus_interfaces_closed_form(golden_placement):
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


# --- kappa ---------------------------------------------------------------------------

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


def mask_by_mask_kappa(order, placement):
    """The subset DP relaxed one mask at a time, in increasing mask order."""
    interfaces, alts, tiles, d, to_iface = shppn.order_graph(order, placement)
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


def per_order_kappa_loop(placement, orders):
    """κ of each order by one single-order kappa per distinct drug set."""
    solved = {}
    for o in orders:
        if o.drugs not in solved:
            solved[o.drugs] = kappa(o, placement).kappa
    return [solved[o.drugs] for o in orders]


def test_kappa_batch_matches_per_order_loop():
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
    assert per_order_kappa(pl, []) == shppn.kappa_batch([], pl) == []


def test_kappa_batch_chunks_match_per_order_loop(monkeypatch):
    # 40 distinct 8-drug sets of 16 vertices each: several sets per pass at
    # the real pass size, and one set and a few masks per pass at a tiny one
    from planarfab.placement import Placement

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
    assert shppn.kappa_batch([o.drugs for o in orders], pl) == want
    monkeypatch.setattr(shppn, "_KAPPA_PASS", 600)
    assert shppn.kappa_batch([o.drugs for o in orders[:6]], pl) == want[:6]


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


def test_order_time_bound_formula(golden_placement):
    order = Order(0, (("ATORVASTATIN", 5), ("HYDROCHLOROTHIAZIDE", 5)))
    assert order_time_bound(order, golden_placement, eta=2) == 2 * 2 + 3 + 10

    # all drugs on one interface-adjacent tile
    order2 = Order(1, (("LOSARTAN", 7), ("AMLODIPINE", 3)))
    k = kappa(order2, golden_placement).kappa
    assert order_time_bound(order2, golden_placement, eta=2) == 4 + k + 10


def test_order_time_bound_matches_kappa_recomputation(golden_placement):
    from conftest import random_orders

    drugs = ["LISINOPRIL", "SIMVASTATIN", "OMEPRAZOLE", "ATORVASTATIN"]
    for o in random_orders(drugs, 10, seed=3, size_range=(1, 3)):
        want = 2 * 5 + brute_force_kappa(o, golden_placement) + o.total_dispensing
        assert order_time_bound(o, golden_placement, eta=5) == want
