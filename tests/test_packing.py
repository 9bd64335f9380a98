import itertools
import math
import random

import numpy as np
import pytest

from planarfab.core import DrugCatalog, InstanceConfig
from planarfab.ordergen import DemandVector
from planarfab.packing import (
    EPS,
    MAX_PASSES,
    PackingInfeasible,
    correlation_sum,
    pack_correlation,
    pack_min_load,
    validate_packing,
)

from conftest import make_catalog


def brute_force_min_load(u, n_tiles, d_max, m_max, n_dispensers):
    """Exhaustive optimum over all multiplicities and tile assignments."""
    drugs = sorted(u)
    z_cap = min(m_max, n_tiles)
    best = math.inf

    def assignments(items, bins):
        if not items:
            yield [list(b) for b in bins]
            return
        g = items[0]
        seen = set()
        for i, b in enumerate(bins):
            key = (len(b), tuple(sorted(b)))
            if key in seen or len(b) >= d_max or g in b:
                continue
            seen.add(key)
            bins[i].append(g)
            yield from assignments(items[1:], bins)
            bins[i].pop()
        if len(bins) < n_tiles:
            bins.append([g])
            yield from assignments(items[1:], bins)
            bins.pop()

    for zs in itertools.product(*(range(1, z_cap + 1) for _ in drugs)):
        if sum(zs) > n_dispensers or sum(zs) > n_tiles * d_max:
            continue
        pi = {g: u[g] / z for g, z in zip(drugs, zs)}
        items = [g for g, z in zip(drugs, zs) for _ in range(z)]
        for bins in assignments(items, []):
            load = max(sum(pi[g] for g in b) for b in bins)
            best = min(best, load)
    return best


def cfg(n_dispensers, m_max=4, d_max=4, n_movers=1, **kw):
    return InstanceConfig(
        n_dispensers=n_dispensers, m_max=m_max, n_movers=n_movers, d_max=d_max, seed=0, **kw
    )


def test_single_drug_single_tile():
    p = pack_min_load(DemandVector({"a": 10.0}), 1, cfg(1, m_max=1))
    assert p.z == {"a": 1} and p.pi["a"] == 10.0 and p.mu_max == 10.0
    assert p.exact
    assert validate_packing(p, cfg(1, m_max=1), DemandVector({"a": 10.0})) == []


def test_two_drug_example_split():
    # u = {a:9, b:3}, 2 tiles, 3 dispensers, d_max=2, m_max=2
    demand = DemandVector({"a": 9.0, "b": 3.0})
    p = pack_min_load(demand, 2, cfg(3, m_max=2, d_max=2))
    assert p.z == {"a": 2, "b": 1}
    assert p.mu_max == pytest.approx(7.5)
    assert p.tiles == (("a",), ("a", "b"))
    assert validate_packing(p, cfg(3, m_max=2, d_max=2), demand) == []


def test_demand_outside_the_drugs_to_pack_is_infeasible():
    demand = DemandVector({"a": 9.0, "b": 3.0, "zzz": 3.0})
    with pytest.raises(PackingInfeasible, match="'zzz'"):
        pack_min_load(demand, 2, cfg(3, m_max=2, d_max=2), drugs=["a", "b"])
    # a packing that gives a demanded drug no dispenser fails validation
    p = pack_min_load(DemandVector({"a": 9.0, "b": 3.0}), 2, cfg(3, m_max=2, d_max=2))
    assert validate_packing(p, cfg(3, m_max=2, d_max=2), demand) == [
        "drug zzz: demanded but has no dispenser"]


def test_exact_matches_bruteforce_suite():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n_drugs = int(rng.integers(2, 5))
        n_tiles = int(rng.integers(1, 4))
        d_max = int(rng.integers(1, 4))
        m_max = int(rng.integers(1, 4))
        n_disp = int(rng.integers(n_drugs, 9))
        u = {f"g{i}": float(rng.integers(0, 30)) for i in range(n_drugs)}
        if n_tiles * d_max < n_drugs:
            continue
        config = cfg(n_disp, m_max=m_max, d_max=d_max)
        oracle = brute_force_min_load(u, n_tiles, d_max, m_max, n_disp)
        if oracle is math.inf:
            with pytest.raises(PackingInfeasible):
                pack_min_load(DemandVector(u), n_tiles, config)
            continue
        p = pack_min_load(DemandVector(u), n_tiles, config)
        assert p.exact
        assert p.mu_max == pytest.approx(oracle), (trial, u)
        assert p.lower_bound <= p.mu_max + 1e-9
        assert validate_packing(p, config, DemandVector(u)) == []


def test_exact_matches_bruteforce_desk_scale():
    # the full exactness envelope: up to 6 drugs, 6 tiles, 10 dispensers
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(12):
        n_drugs = int(rng.integers(4, 7))
        n_tiles = int(rng.integers(4, 7))
        d_max = int(rng.integers(2, 4))
        m_max = int(rng.integers(2, 4))
        n_disp = int(rng.integers(n_drugs, 11))
        u = {f"g{i}": float(rng.integers(0, 50)) for i in range(n_drugs)}
        if n_tiles * d_max < n_drugs:
            continue
        oracle = brute_force_min_load(u, n_tiles, d_max, m_max, n_disp)
        if oracle is math.inf:
            continue
        config = cfg(n_disp, m_max=m_max, d_max=d_max)
        p = pack_min_load(DemandVector(u), n_tiles, config)
        assert p.exact and p.mu_max == pytest.approx(oracle), trial
        checked += 1
    assert checked >= 10


def test_monotone_in_dispensers():
    u = {f"g{i}": float(v) for i, v in enumerate([40, 25, 10, 5])}
    prev = math.inf
    for n_disp in range(4, 12):
        p = pack_min_load(DemandVector(u), 4, cfg(n_disp, m_max=4, d_max=3))
        assert p.exact
        assert p.mu_max <= prev + 1e-9
        prev = p.mu_max


def test_zero_demand_drug_still_purchasable():
    u = {"a": 12.0, "b": 0.0}
    p = pack_min_load(DemandVector(u), 2, cfg(3, m_max=2))
    assert p.z["b"] >= 1 and p.pi["b"] == 0.0


def test_infeasible_reports():
    with pytest.raises(PackingInfeasible):
        pack_min_load(DemandVector({"a": 1.0, "b": 1.0}), 2, cfg(1))
    with pytest.raises(PackingInfeasible):
        pack_min_load(DemandVector({f"g{i}": 1.0 for i in range(5)}), 2, cfg(5, d_max=2))


def test_heuristic_mode_feasible_and_bounded():
    rng = np.random.default_rng(5)
    u = {f"g{i}": float(rng.integers(1, 100)) for i in range(20)}
    config = cfg(40, m_max=6, d_max=4, n_movers=2)
    p = pack_min_load(DemandVector(u), 15, config, mode="heuristic", seed=3)
    assert not p.exact
    assert validate_packing(p, config, DemandVector(u)) == []
    assert p.mu_max >= p.lower_bound - 1e-9


def tile_utilization(packing, demand):
    """Per-tile (drug, contribution) breakdown and its sum."""
    out = []
    for t in packing.tiles:
        parts = [(g, float(demand[g]) / packing.z[g] if packing.z[g] else 0.0) for g in t]
        out.append((parts, sum(c for _, c in parts)))
    return out


def test_tile_utilization_breakdown():
    demand = DemandVector({"a": 9.0, "b": 3.0})
    p = pack_min_load(demand, 2, cfg(3, m_max=2, d_max=2))
    util = tile_utilization(p, demand)
    # re-sum independently
    for (parts, total), mu in zip(util, p.mu):
        assert total == pytest.approx(sum(c for _, c in parts))
        assert total == pytest.approx(mu)
    mixed = next(parts for parts, total in util if len(parts) == 2)
    assert ("a", 4.5) in mixed and ("b", 3.0) in mixed


def test_validator_flags_broken_packings():
    demand = DemandVector({"a": 9.0, "b": 3.0})
    config = cfg(3, m_max=2, d_max=2)
    p = pack_min_load(demand, 2, config)
    import dataclasses

    bad = dataclasses.replace(p, z={**p.z, "a": 1})
    assert any("z=" in v or "placed dispensers" in v for v in validate_packing(bad, config, demand))
    crowded = dataclasses.replace(p, tiles=(("a", "b", "a"),))
    assert validate_packing(crowded, config, demand) != []


def test_validator_flags_a_lower_bound_above_the_peak_load():
    import dataclasses

    demand = DemandVector({"a": 9.0, "b": 3.0})
    config = cfg(3, m_max=2, d_max=2)
    p = pack_min_load(demand, 2, config)
    assert validate_packing(p, config, demand) == []
    assert validate_packing(dataclasses.replace(p, lower_bound=p.mu_max), config, demand) == []
    doctored = dataclasses.replace(p, lower_bound=p.mu_max * 1.01)
    assert validate_packing(doctored, config, demand) == [
        "stored lower_bound exceeds the recomputed peak load"
    ]


def test_packing_names_why_stage_one_is_not_exact(monkeypatch):
    from planarfab import packing

    small = DemandVector({"a": 9.0, "b": 3.0, "c": 4.0})
    config = cfg(6, m_max=2, d_max=2)
    assert pack_min_load(small, 3, config).fallback is None
    assert pack_min_load(small, 3, config, mode="heuristic").fallback == "heuristic mode"
    assert pack_min_load(small, 13, config).fallback == "size guard"
    wide = DemandVector({f"g{i:02d}": float(i + 1) for i in range(13)})
    assert pack_min_load(wide, 8, cfg(16, m_max=2, d_max=2)).fallback == "size guard"
    monkeypatch.setattr(packing, "NODE_CAP", 3)
    capped = pack_min_load(small, 3, config, mode="exact")
    assert not capped.exact and capped.fallback == "node cap"
    # the second stage keeps the first stage's reason
    catalog = DrugCatalog(("a", "b", "c"), (0.5,) * 3, np.zeros((3, 3)))
    assert pack_correlation(capped, catalog, config).fallback == "node cap"
    with pytest.raises(ValueError, match="unknown packing mode"):
        pack_min_load(small, 3, config, mode="greedy")
    with pytest.raises(ValueError, match="unknown packing mode"):
        pack_correlation(capped, catalog, config, mode="exactt")


# --- stage 2: correlation ---------------------------------------------------------

def catalog_for(pairs, drugs):
    corr = np.zeros((len(drugs), len(drugs)))
    idx = {g: i for i, g in enumerate(drugs)}
    for (a, b), v in pairs.items():
        corr[idx[a], idx[b]] = corr[idx[b], idx[a]] = v
    return DrugCatalog(tuple(drugs), tuple([0.5] * len(drugs)), corr)


def test_correlation_single_tile_unchanged():
    demand = DemandVector({"a": 4.0, "b": 4.0})
    config = cfg(2, m_max=1, d_max=2)
    p = pack_min_load(demand, 1, config)
    catalog = catalog_for({("a", "b"): 0.7}, ["a", "b"])
    q = pack_correlation(p, catalog, config)
    assert q.tiles == p.tiles
    assert q.correlation_objective == pytest.approx(0.7)


def test_correlation_pairing_example():
    # 4 drugs, z=1 each, equal load, 2 tiles with d_max=2:
    # o(a,b)=0.5, o(c,d)=0.4, others -0.1 -> tiles {a,b},{c,d}, objective 0.9
    drugs = ["a", "b", "c", "d"]
    demand = DemandVector({g: 6.0 for g in drugs})
    config = cfg(4, m_max=1, d_max=2)
    stage1 = pack_min_load(DemandVector({g: 6.0 for g in drugs}), 2, config)
    pairs = {("a", "b"): 0.5, ("c", "d"): 0.4}
    full = {}
    for x, y in itertools.combinations(drugs, 2):
        full[(x, y)] = pairs.get((x, y), -0.1)
    catalog = catalog_for(full, drugs)
    q = pack_correlation(stage1, catalog, config)
    assert q.correlation_objective == pytest.approx(0.9)
    assert set(q.tiles) == {("a", "b"), ("c", "d")}
    # brute force over the 3 perfect pairings agrees
    oracle = max(
        full[("a", "b")] + full[("c", "d")],
        full.get(("a", "c"), -0.1) + full.get(("b", "d"), -0.1),
        full.get(("a", "d"), -0.1) + full.get(("b", "c"), -0.1),
    )
    assert q.correlation_objective == pytest.approx(oracle)


def test_correlation_preserves_stage1_quantities():
    rng = np.random.default_rng(9)
    catalog = make_catalog(7, seed=9, corr_scale=0.4)
    u = {g: float(rng.integers(5, 60)) for g in catalog.drugs}
    config = cfg(12, m_max=3, d_max=3)
    stage1 = pack_min_load(DemandVector(u), 5, config)
    q = pack_correlation(stage1, catalog, config)
    assert q.z == stage1.z
    assert q.pi == stage1.pi
    assert max(q.mu) <= stage1.mu_max + 1e-9
    assert q.correlation_objective >= correlation_sum(stage1.tiles, catalog) - 1e-9
    assert validate_packing(q, config, DemandVector(u)) == []


def test_correlation_objective_counts_unordered_pairs_once():
    catalog = catalog_for({("a", "b"): 0.5}, ["a", "b"])
    tiles = (("a", "b"),)
    assert correlation_sum(tiles, catalog) == pytest.approx(0.5)


def test_correlation_direction_matches_reference_improvement():
    # the reference run improves the pair sum at unchanged peak load;
    # assert the same direction on a seeded instance
    catalog = make_catalog(9, seed=13, corr_scale=0.5)
    rng = np.random.default_rng(13)
    u = {g: float(rng.integers(10, 90)) for g in catalog.drugs}
    config = cfg(16, m_max=3, d_max=3)
    stage1 = pack_min_load(DemandVector(u), 6, config)
    q = pack_correlation(stage1, catalog, config)
    assert q.mu_max == pytest.approx(stage1.mu_max)
    assert q.correlation_objective >= correlation_sum(stage1.tiles, catalog) - 1e-12


# --- the searches vs their full re-sum references --------------------------------

def sum_left_to_right(values):
    total = 0.0
    for x in values:
        total += x
    return total


def reference_improve_min_load(tiles, pi, n_tiles, d_max):
    """Stage-1 improvement one trial at a time: each pass takes the first
    trial in scan order whose whole sorted load profile, every tile summed
    left to right, sorts before the pass's.  A trial that is turned down
    changes nothing."""
    tiles = [list(t) for t in tiles]

    def load(t):
        return sum_left_to_right(pi[g] for g in t)

    def trials(peak):
        # (tile, the peak's list after, that tile's list after) in scan order:
        # every relocation off the peak, then every swap with a peak dispenser
        on_peak = tiles[peak]
        for g in sorted(on_peak, key=lambda g: (-pi[g], g)):
            rest = [x for x in on_peak if x != g]
            for ti, t in enumerate(tiles + [[]] * (len(tiles) < n_tiles)):
                if len(t) < d_max and g not in t:
                    yield ti, rest, [*t, g]
        for g in on_peak:
            rest = [x for x in on_peak if x != g]
            for ti, t in enumerate(tiles):
                for h in t:
                    if pi[h] < pi[g] and h not in on_peak and g not in t:
                        yield ti, [*rest, h], [x for x in t if x != h] + [g]

    for _ in range(MAX_PASSES):
        loads = [load(t) for t in tiles]
        peak = loads.index(max(loads))
        for ti, at_peak, at_ti in trials(peak):
            after = loads + [0.0] * (ti == len(tiles))
            after[peak], after[ti] = load(at_peak), load(at_ti)
            if sorted(after, reverse=True) < sorted(loads, reverse=True):
                if ti == len(tiles):
                    tiles.append([])
                tiles[peak], tiles[ti] = at_peak, at_ti
                break
        else:
            break
    return [tuple(t) for t in tiles if t]


def improve_as_reference(tiles, pi, n_tiles, d_max):
    """_improve_min_load's tiles, asserted equal to the reference's, tile lists
    and loads (each summed left to right)."""
    from planarfab.packing import _improve, _improve_min_load

    got = _improve_min_load(tiles, pi, n_tiles, d_max)
    want = reference_improve_min_load(tiles, pi, n_tiles, d_max)
    assert got == want
    names = sorted({g for t in tiles for g in t})
    loads, _ = _improve([[names.index(g) for g in t] for t in tiles],
                        [pi[g] for g in names], n_tiles, d_max)
    assert loads == [sum_left_to_right(pi[g] for g in t) for t in want]
    return got


def reference_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    """Stage-2 local search one trial at a time.  The tiles are n_tiles rows,
    an empty row serving as a new tile.  Each pass takes the first trial that
    is feasible and raises the score by more than EPS: the dispensers (a, s)
    in row-major order, each with its relocations onto the rows b in index
    order, then its swaps with the dispensers (b, t) in row-major order.
    Loads and scores are left-to-right sums of the lists, a score adding
    corr[t[i]][t[j]] with j the outer loop.  A trial that is turned down
    changes nothing."""
    corr = catalog.correlation.tolist()
    idx = {g: catalog.index(g) for t in tiles for g in t}
    rows = [list(t) for t in tiles] + [[] for _ in range(n_tiles - len(tiles))]

    def load(t):
        return sum_left_to_right(pi[g] for g in t)

    def score(t):
        return sum_left_to_right(
            corr[idx[t[i]]][idx[t[j]]] for j in range(len(t)) for i in range(j)
        )

    def trials(a, s):
        # (b, a's list after, b's list after) of each feasible trial, in order
        g, rest = rows[a][s], rows[a][:s] + rows[a][s + 1:]
        for b, t in enumerate(rows):
            if b != a and len(t) < d_max and g not in t and load([*t, g]) <= mu_cap:
                yield b, rest, [*t, g]
        for b, t in enumerate(rows):
            for k, h in enumerate(t):
                if b != a and h not in rows[a] and g not in t:
                    at_a, at_b = [*rest, h], [*t[:k], *t[k + 1:], g]
                    if load(at_a) <= mu_cap and load(at_b) <= mu_cap:
                        yield b, at_a, at_b

    def first_taken():
        for a, t in enumerate(rows):
            for s in range(len(t)):
                for b, at_a, at_b in trials(a, s):
                    if (score(at_a) + score(at_b)) - (scores[a] + scores[b]) > EPS:
                        return a, at_a, b, at_b
        return None

    scores = [score(t) for t in rows]
    while (move := first_taken()) is not None:
        a, at_a, b, at_b = move
        rows[a], rows[b], scores[a], scores[b] = at_a, at_b, score(at_a), score(at_b)
    return [tuple(t) for t in rows if t], sum_left_to_right(scores)


def search_as_reference(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    """_local_search_correlation's tiles and objective, asserted equal to the
    reference's bit for bit, tile loads included."""
    from planarfab.packing import _loads, _local_search_correlation

    got = _local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
    want = reference_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
    assert got[0] == want[0]
    assert _loads(got[0], pi) == _loads(want[0], pi)
    assert got[1] == want[1]
    return got[0]


def random_tiles(rng, drugs, copies, n_used, d_max):
    """Drug copies dealt onto n_used tiles, no drug twice on a tile, or None."""
    tiles = [[] for _ in range(n_used)]
    for g in drugs:
        for _ in range(copies[g]):
            room = [t for t in tiles if len(t) < d_max and g not in t]
            if not room:
                return None
            room[int(rng.integers(len(room)))].append(g)
    return [tuple(t) for t in tiles if t]


def random_search_instances(seed, count):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n_drugs = int(rng.integers(2, 9))
        drugs = [f"g{i}" for i in range(n_drugs)]
        copies = {g: int(rng.integers(1, 4)) for g in drugs}
        d_max = int(rng.integers(2, 5))
        n_used = int(rng.integers(1, 8))
        tiles = random_tiles(rng, drugs, copies, n_used, d_max)
        if tiles is None:
            continue
        n_tiles = len(tiles) + int(rng.integers(0, 3))
        # loads with repeated and irrational values so list order shows in the sums
        pi = {g: float(rng.choice([0.1, 0.3, 1 / 3, 0.7, 2.2, float(rng.uniform(0, 5))]))
              for g in drugs}
        made += 1
        yield rng, drugs, tiles, pi, n_tiles, d_max


def test_improve_min_load_matches_full_resum_reference():
    checked = moved = 0
    for _, _, tiles, pi, n_tiles, d_max in random_search_instances(21, 150):
        got = improve_as_reference(tiles, pi, n_tiles, d_max)
        checked += 1
        moved += got != tiles
    assert checked == 150 and moved >= 30


def screen_instances(seed, count):
    """Small packings with loads tied at the peak (pi drawn from a few exact
    values), zero-demand drugs, correlations tied at zero gain, a correlation
    matrix symmetric only up to rounding, and d_max from 1 to 4."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        d_max = 1 + made % 4
        n_drugs = int(rng.integers(2, 9))
        drugs = [f"g{i}" for i in range(n_drugs)]
        copies = {g: int(rng.integers(1, 4)) for g in drugs}
        n_used = int(rng.integers(1, 9))
        tiles = random_tiles(rng, drugs, copies, n_used, d_max)
        if tiles is None:
            continue
        n_tiles = len(tiles) + int(rng.integers(0, 3))
        pi = {g: float(rng.choice([0.0, 0.0, 0.5, 1.0, 1.0, 1 / 3, 2.0])) for g in drugs}
        corr = rng.choice([-0.5, -0.25, 0.0, 0.0, 0.25, 0.5], size=(n_drugs, n_drugs))
        corr = np.triu(corr, 1) + np.triu(corr, 1).T
        if made % 3 == 0:  # off-symmetric by less than the catalog's tolerance
            corr = corr + np.triu(rng.uniform(-1e-9, 1e-9, (n_drugs, n_drugs)), 1)
        catalog = DrugCatalog(tuple(drugs), (0.5,) * n_drugs, corr)
        made += 1
        yield tiles, pi, n_tiles, d_max, catalog


def grid_instances(seed, count):
    """Stage-2 inputs shaped like the 8x8~2 reference: 62 tiles, 40 drugs, 82
    dispensers, d_max 4 with a tile of three; pi drawn from a few exact
    values, zero and irrational ones; a catalog symmetric only up to rounding
    (one unit in the last place); and mu_cap alternately the peak + EPS, as
    pack_correlation sets it, and the load of the tile of three summed in its
    order of smallest sum, which a list of the same drugs in another order
    exceeds."""
    rng = np.random.default_rng(seed)
    drugs = [f"g{i:02d}" for i in range(40)]
    made = 0
    while made < count:
        dispensers = drugs + [drugs[i] for i in rng.integers(0, 40, 42)]
        dispensers = [dispensers[i] for i in rng.permutation(82)]
        tiles = [[g] for g in dispensers[:62]]
        big = tiles[int(rng.integers(2))]
        for g in dispensers[62:]:
            room = [t for t in tiles if len(t) < 4 and g not in t and t is not big]
            if len(big) < 3 and g not in big:
                big.append(g)
            elif room:
                room[int(rng.integers(len(room)))].append(g)
        if len(big) < 3 or sum(map(len, tiles)) < 82:
            continue
        pi = {g: float(rng.choice([0.0, 0.0, 0.5, 1 / 3, 0.7, 2.2, float(rng.uniform(0, 3))]))
              for g in drugs}
        for g in big:
            pi[g] = float(rng.uniform(0, 3))
        # the tile of three in the order of its smallest sum, among several
        orders = sorted(itertools.permutations(big), key=lambda p: sum(pi[g] for g in p))
        if len({sum(pi[g] for g in p) for p in orders}) < 2:
            continue
        big[:] = orders[0]
        corr = make_catalog(40, seed=int(rng.integers(1 << 30)), corr_scale=0.25).correlation
        lower = np.tril(rng.random((40, 40)) < 0.5, -1)
        corr = np.where(lower, np.nextafter(corr, np.inf), corr)
        catalog = DrugCatalog(tuple(drugs), (0.5,) * 40, corr)
        if made % 2:
            mu_cap = sum(pi[g] for g in big)
        else:
            mu_cap = max(sum(pi[g] for g in t) for t in tiles) + EPS
        made += 1
        yield [tuple(t) for t in tiles], pi, catalog, mu_cap


def near_cap_instances(seed, count):
    """Small packings whose mu_cap is the load of a tile of three summed in
    its order of smallest sum, other orders summing higher; the other drugs
    take zero, one of that tile's pi or a random pi, so load tests of
    relocations and swaps read mu_cap on either side depending on the order
    of the list a trial leaves."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n_drugs = int(rng.integers(5, 8))
        drugs = [f"d{i}" for i in range(n_drugs)]
        pi = {g: float(rng.uniform(0.05, 1.0)) for g in drugs[:3]}
        orders = sorted(itertools.permutations(drugs[:3]), key=lambda p: sum(pi[g] for g in p))
        if sum(pi[g] for g in orders[0]) == sum(pi[g] for g in orders[-1]):
            continue
        for g in drugs[3:]:
            pi[g] = float(rng.choice([0.0, pi["d0"], pi["d1"], float(rng.uniform(0, 1))]))
        copies = {g: 1 for g in drugs[3:]}
        for i in rng.integers(0, n_drugs, int(rng.integers(0, 3))):
            copies[drugs[i]] = copies.get(drugs[i], 0) + 1
        others = random_tiles(rng, list(copies), copies, int(rng.integers(1, 4)), 4)
        if others is None:
            continue
        at = int(rng.integers(0, 2))
        tiles = [*others[:at], orders[0], *others[at:]]
        corr = rng.choice([-0.5, -0.2, 0.0, 0.3, 0.6], size=(n_drugs, n_drugs))
        corr = np.triu(corr, 1) + np.triu(corr, 1).T
        catalog = DrugCatalog(tuple(drugs), (0.5,) * n_drugs, corr)
        made += 1
        yield tiles, pi, catalog, len(tiles) + int(rng.integers(0, 2)), sum(pi[g] for g in orders[0])


def test_local_search_correlation_matches_reference_on_screen_instances():
    from planarfab.packing import _loads

    ties = zeros = singles = moved = 0
    for tiles, pi, n_tiles, d_max, catalog in screen_instances(23, 400):
        loads = _loads(tiles, pi)
        ties += loads.count(max(loads)) > 1
        zeros += any(pi[g] == 0.0 for t in tiles for g in t)
        singles += d_max == 1

        got = improve_as_reference(tiles, pi, n_tiles, d_max)
        moved += got != tiles

        peak = max(_loads(got, pi))
        for mu_cap in (peak + EPS, 2 * peak + EPS):
            moved += search_as_reference(got, pi, catalog, n_tiles, d_max, mu_cap) != got
    assert ties >= 100 and zeros >= 100 and singles == 100 and moved >= 100


def test_local_search_correlation_matches_full_resum_reference():
    from planarfab.packing import _loads

    checked = moved = 0
    for rng, drugs, tiles, pi, n_tiles, d_max in random_search_instances(22, 400):
        catalog = make_catalog(len(drugs), seed=int(rng.integers(1 << 30)), corr_scale=0.6)
        catalog = DrugCatalog(tuple(drugs), catalog.marginals, catalog.correlation)
        mu_cap = max(_loads(tiles, pi)) * float(rng.choice([1.0, 1.2, 2.0])) + EPS
        moved += search_as_reference(tiles, pi, catalog, n_tiles, d_max, mu_cap) != tiles
        checked += 1
    assert checked == 400 and moved >= 280


def test_array_pass_searches_match_scalar_reference():
    from planarfab.packing import _loads

    checked = moved = 0
    for tiles, pi, n_tiles, d_max, catalog in screen_instances(27, 200):
        got = improve_as_reference(tiles, pi, n_tiles, d_max)
        peak = max(_loads(got, pi))
        for mu_cap in (peak + EPS, 2 * peak + EPS):
            moved += search_as_reference(got, pi, catalog, n_tiles, d_max, mu_cap) != got
            checked += 1
    for rng, drugs, tiles, pi, n_tiles, d_max in random_search_instances(28, 150):
        improve_as_reference(tiles, pi, n_tiles, d_max)
        catalog = make_catalog(len(drugs), seed=int(rng.integers(1 << 30)), corr_scale=0.6)
        catalog = DrugCatalog(tuple(drugs), catalog.marginals, catalog.correlation)
        mu_cap = max(_loads(tiles, pi)) * float(rng.choice([1.0, 1.2, 2.0])) + EPS
        moved += search_as_reference(tiles, pi, catalog, n_tiles, d_max, mu_cap) != tiles
        checked += 1
    for tiles, pi, catalog, n_tiles, mu_cap in near_cap_instances(30, 400):
        improve_as_reference(tiles, pi, n_tiles, 4)
        moved += search_as_reference(tiles, pi, catalog, n_tiles, 4, mu_cap) != tiles
        checked += 1
    grid = 0
    for tiles, pi, catalog, mu_cap in grid_instances(29, 2):
        improve_as_reference(tiles, pi, 62, 4)
        moved += search_as_reference(tiles, pi, catalog, 62, 4, mu_cap) != tiles
        grid += 1
    assert checked == 950 and grid == 2 and moved >= 620


def test_local_search_correlation_with_one_dispenser_per_tile():
    # d_max = 1: no tile holds a pair, so every score is 0.0 and no trial is taken
    from planarfab.packing import _local_search_correlation

    catalog = catalog_for({("a", "b"): 0.7, ("b", "c"): 0.4}, ["a", "b", "c"])
    tiles = [("a",), ("b",), ("c",), ("a",)]
    pi = {"a": 0.5, "b": 1.0, "c": 1 / 3}
    assert search_as_reference(tiles, pi, catalog, 6, 1, 1.0 + EPS) == tiles
    assert _local_search_correlation(tiles, pi, catalog, 6, 1, 1.0 + EPS) == (tiles, 0.0)
    config = cfg(5, m_max=2, d_max=1)
    stage1 = pack_min_load(DemandVector({"a": 2.0, "b": 1.0, "c": 1.0}), 6, config)
    q = pack_correlation(stage1, catalog, config, mode="heuristic")
    assert q.tiles == stage1.tiles and q.correlation_objective == 0.0
    assert validate_packing(q, config) == []


def test_local_search_correlation_matches_reference_under_compensated_sum(monkeypatch):
    # stage 2 makes no decision through sum(), so an interpreter whose sum()
    # is compensated (Python 3.12 on) finds the same tiles and objective:
    # simulate one
    from planarfab import packing

    cases = []
    for rng, drugs, tiles, pi, n_tiles, d_max in random_search_instances(36, 200):
        catalog = make_catalog(len(drugs), seed=int(rng.integers(1 << 30)), corr_scale=0.6)
        catalog = DrugCatalog(tuple(drugs), catalog.marginals, catalog.correlation)
        mu_cap = max(packing._loads(tiles, pi)) * float(rng.choice([1.0, 2.0])) + EPS
        cases.append((tiles, pi, catalog, n_tiles, d_max, mu_cap))
    plain = [packing._local_search_correlation(*case) for case in cases]
    monkeypatch.setattr(packing, "sum", compensated_sum, raising=False)
    differ = 0
    for case, want in zip(cases, plain):
        got = packing._local_search_correlation(*case)
        assert got == want == reference_local_search_correlation(*case)
        pi, corr = case[1], case[2].correlation
        for t in want[0]:
            ids = [case[2].index(g) for g in t]
            terms = [corr[ids[i], ids[j]] for j in range(len(t)) for i in range(j)]
            differ += math.fsum(terms) != sum_left_to_right(terms)
            differ += math.fsum(pi[g] for g in t) != sum_left_to_right(pi[g] for g in t)
    assert differ >= 20


# --- LPT fill and array-form relocations vs the per-tile loops --------------------
#
# reference_lpt_fill is the stage-1 fill as it was before it opened new bins
# directly, kept verbatim.

def reference_lpt_fill(items, pi, n_tiles, d_max):
    bins: list[list[str]] = []
    loads: list[float] = []
    for g in items:
        cands = [
            i for i in range(len(bins)) if len(bins[i]) < d_max and g not in bins[i]
        ]
        if len(bins) < n_tiles:
            cands.append(-1)
        if not cands:
            return None
        pick = min(
            cands, key=lambda i: (loads[i] if i >= 0 else 0.0, i if i >= 0 else len(bins))
        )
        if pick == -1:
            bins.append([g])
            loads.append(pi[g])
        else:
            bins[pick].append(g)
            loads[pick] += pi[g]
    return [tuple(b) for b in bins]


def fill_instances():
    """Both instance generators above, plus packings with a zero-demand drug
    (an open bin of load 0.0 sends the fill back to its scan) and with spare
    tiles (relocations onto a new tile)."""
    for _, _, tiles, pi, n_tiles, d_max in random_search_instances(24, 150):
        yield tiles, pi, n_tiles, d_max
    for tiles, pi, n_tiles, d_max, _ in screen_instances(25, 150):
        yield tiles, pi, n_tiles, d_max
    rng = np.random.default_rng(26)
    for made in range(100):
        d_max = 2 + made % 3
        drugs = [f"g{i}" for i in range(int(rng.integers(3, 9)))]
        pi = {g: float(rng.choice([0.0, 1 / 3, 0.7, 2.2, float(rng.uniform(0, 5))])) for g in drugs}
        pi[drugs[made % len(drugs)]] = 0.0
        copies = {g: int(rng.integers(1, 4)) for g in drugs}
        tiles = random_tiles(rng, drugs, copies, int(rng.integers(1, 6)), d_max)
        if tiles is not None:
            yield tiles, pi, len(tiles) + int(rng.integers(1, 4)), d_max


def test_lpt_fill_and_relocations_match_per_tile_reference():
    from planarfab.packing import _lpt_fill

    scanned = spread = checked = 0
    for tiles, pi, n_tiles, d_max in fill_instances():
        items = sorted((g for t in tiles for g in t), key=lambda g: (-pi[g], g))
        rng = random.Random(checked)
        for attempt in range(3):
            if attempt:
                rng.shuffle(items)
            got = _lpt_fill(items, pi, n_tiles, d_max)
            assert got == reference_lpt_fill(items, pi, n_tiles, d_max)
            # fewer than n_tiles bins throughout and a bin of load 0.0 open
            # before the last item: the items after it took the scan
            scanned += (got is not None and len(got) < n_tiles
                        and 0.0 in (pi[g] for g in items[:-1]))

        got = improve_as_reference(tiles, pi, n_tiles, d_max)
        spread += len(got) > len(tiles)
        checked += 1
    assert checked >= 300 and scanned >= 25 and spread >= 100


# --- heap fill and heap multiplicities vs the scalar stage 1 -----------------------
#
# scalar_lpt_fill and scalar_multiplicities (the multiplicity loop of
# _heuristic_min_load) are stage 1 as it was before the fill and the
# multiplicities used heaps, kept verbatim.

def scalar_lpt_fill(items, pi, n_tiles, d_max):
    bins: list[list[str]] = []
    loads: list[float] = []
    for g in items:
        if len(bins) < n_tiles and min(loads, default=1.0) > 0.0:
            # a new bin's key (0.0, len(bins)) beats every open bin's
            pick = -1
        else:
            cands = [
                i for i in range(len(bins)) if len(bins[i]) < d_max and g not in bins[i]
            ]
            if len(bins) < n_tiles:
                cands.append(-1)
            if not cands:
                return None
            pick = min(
                cands, key=lambda i: (loads[i] if i >= 0 else 0.0, i if i >= 0 else len(bins))
            )
        if pick == -1:
            bins.append([g])
            loads.append(pi[g])
        else:
            bins[pick].append(g)
            loads[pick] += pi[g]
    return [tuple(b) for b in bins]



def scalar_multiplicities(u, drugs, z_cap, budget):
    # multiplicity: repeatedly add a dispenser to the currently heaviest drug
    z = {g: 1 for g in drugs}
    spent = len(drugs)
    while spent < budget:
        cand = max(drugs, key=lambda g: (u[g] / z[g], g))
        if z[cand] >= z_cap or u[cand] == 0.0:
            break
        z[cand] += 1
        spent += 1
    return z


def compensated_sum(values, start=0):
    """A float sum that, like Python 3.12's sum(), need not add left to right
    (math.fsum: correctly rounded), while a sum of two floats is the same."""
    values = list(values)
    return math.fsum(values) if values else start


def fuzzed_fills(seed, count):
    """LPT fills of a few drugs with zero demands and ties, d_max from 1 to
    4, the items in search order or shuffled, and tile counts near the least
    that fits, so that about half the fills find no room."""
    rng = random.Random(seed)
    for _ in range(count):
        d_max = rng.randint(1, 4)
        drugs = [f"g{i}" for i in range(rng.randint(1, 7))]
        pi = {g: rng.choice([0.0, 0.0, 0.5, 1.0, 1 / 3, 2.2, rng.uniform(0, 3)]) for g in drugs}
        copies = {g: rng.randint(1, 4) for g in drugs}
        items = sorted((g for g in drugs for _ in range(copies[g])), key=lambda g: (-pi[g], g))
        if rng.random() < 0.8:
            rng.shuffle(items)
        least = max(max(copies.values()), -(-len(items) // d_max))
        yield items, pi, max(1, least + rng.randint(-1, 1)), d_max


def test_heap_fill_matches_reference_and_scalar_fills():
    from planarfab.packing import _lpt_fill

    fills = none = 0
    for items, pi, n_tiles, d_max in fuzzed_fills(31, 20_000):
        got = _lpt_fill(items, pi, n_tiles, d_max)
        assert got == reference_lpt_fill(items, pi, n_tiles, d_max)
        assert got == scalar_lpt_fill(items, pi, n_tiles, d_max)
        fills += 1
        none += got is None
    assert fills == 20_000 and 0.3 < none / fills < 0.7


def test_heap_multiplicities_match_scalar_loop():
    from planarfab.packing import _multiplicities

    rng = random.Random(32)
    capped = idle = 0
    for _ in range(3000):
        drugs = sorted(f"g{i}" for i in range(rng.randint(1, 9)))
        # integer demands tie u/z often; zeros stop the loop
        u = {g: float(rng.choice([0, 0, 0, 1, 2, 3, 4, 6, 12, rng.randint(1, 50)])) for g in drugs}
        z_cap = rng.randint(1, 5)
        budget = rng.randint(len(drugs) - 1, 6 * len(drugs))
        got = _multiplicities(u, drugs, z_cap, budget)
        assert got == scalar_multiplicities(u, drugs, z_cap, budget)
        spent = sum(got.values())
        if spent < budget:  # the loop broke: its drug was at z_cap or had no demand
            top = max(drugs, key=lambda g: (u[g] / got[g], g))
            capped += got[top] >= z_cap and u[top] > 0.0
            idle += u[top] == 0.0
    assert capped >= 1000 and idle >= 50


def peak_instances(seed, count):
    """Stage-1 searches built around the peak: tiles of three or four drugs,
    a zero-demand drug on the heaviest tile, loads tied at the peak (pi drawn
    from a few exact values, whose sums of three differ by order) and spare
    tiles."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        d_max = 3 + made % 2
        drugs = [f"g{i}" for i in range(int(rng.integers(3, 10)))]
        copies = {g: int(rng.integers(1, 4)) for g in drugs}
        tiles = random_tiles(rng, drugs, copies, int(rng.integers(1, 7)), d_max)
        if tiles is None:
            continue
        pool = [0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1.0]
        pi = {g: float(rng.choice(pool)) for g in drugs}
        heaviest = max(tiles, key=lambda t: (len(t), sum(pi[g] for g in t)))
        if made % 2:
            pi[heaviest[int(rng.integers(len(heaviest)))]] = 0.0
        made += 1
        yield tiles, pi, len(tiles) + int(rng.integers(0, 3)), d_max


def test_array_improve_matches_reference_on_peak_instances():
    from planarfab.packing import _loads

    ties = zeros = big = moved = 0
    for tiles, pi, n_tiles, d_max in peak_instances(33, 600):
        loads = _loads(tiles, pi)
        peak = tiles[loads.index(max(loads))]
        ties += loads.count(max(loads)) > 1
        zeros += any(pi[g] == 0.0 for g in peak)
        big += max(map(len, tiles)) >= 3
        got = improve_as_reference(tiles, pi, n_tiles, d_max)
        moved += got != tiles
    assert ties >= 100 and zeros >= 150 and big >= 400 and moved >= 300


@pytest.mark.parametrize("seed", [34, 35])
def test_array_improve_matches_scalar_reference_under_compensated_sum(seed, monkeypatch):
    # stage 1 makes no decision through sum(), so an interpreter whose sum()
    # is compensated (Python 3.12 on) finds the same tiles: simulate one
    from planarfab import packing

    cases = list(peak_instances(seed, 300))
    plain = [packing._improve_min_load(*case) for case in cases]
    monkeypatch.setattr(packing, "sum", compensated_sum, raising=False)
    differ = 0
    for case, want in zip(cases, plain):
        assert packing._improve_min_load(*case) == want == reference_improve_min_load(*case)
        pi = case[1]
        differ += any(math.fsum(pi[g] for g in t) != sum_left_to_right(pi[g] for g in t)
                      for t in want)
    assert differ >= 20


# sha256 of stage-1 (heuristic) and stage-2 (local search) packing.json on the
# 8x8~2 reference, per (order seed, stage-1 restarts; 3 is what the bench's
# shuffled_8x8 and the acceptance tests' build_8x8_instance run).  Stage 1's
# half was recorded before stage 1 stopped moving a rejected trial's drugs
# last; the whole text after stage 2 did the same and summed each tile's
# pairs left to right (seeds 4 and 5 kept their text through that change)
PACKING_8X8_DIGESTS = {
    (1, 20): "998b928b3d7a31364fd3142fc9766e2aaaa72af8f0f7f36d855168da9d16ef56",
    (2, 20): "dffd3a0b7613a953928b82e27c224826269c72090b297c6368c5155408e093db",
    (3, 20): "bd976a740299eaa000846dd71873e3b2f98dbcac70652e5b283525da597298d5",
    (4, 20): "de77cdedb3b212f6243ca006a548b8c86eb9e21219295e045d721656627bd539",
    (5, 20): "5fa12b20398addbbf48bea5703a789863c4b184af7894ceae5e64d36b35639ad",
    (6, 20): "87a009dcf3863d52a264cf90ec34857041c27319ff29c292f166d9fdbf166a75",
    (7, 20): "3d47ae6b8a3c8705c2d6892f5f96cff2d96837dd6dd53e6a4b53a737bfe2e49b",
    (8, 20): "aa92eb2ebf8b6de1acb09559ac52b1d51481290791cbe2560495d1ed74544935",
    (1, 3): "998b928b3d7a31364fd3142fc9766e2aaaa72af8f0f7f36d855168da9d16ef56",
}


def packing_8x8_digest(seed, restarts):
    import hashlib

    from planarfab.core import build_layout
    from planarfab.ordergen import estimate_demand, sample_orders
    from planarfab.pipeline import packing_to_json

    layout = build_layout("square", (8, 8), 2)
    catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    config = InstanceConfig(n_dispensers=82, m_max=12, n_movers=4, dispensing_speed=100, seed=0)
    oset = sample_orders(catalog, 30, (3, 6), seed=seed, dispensing_speed=100)
    stage1 = pack_min_load(
        estimate_demand(oset.orders), layout.n_tiles, config, drugs=catalog.drugs,
        mode="heuristic", seed=seed, restarts=restarts,
    )
    stage2 = pack_correlation(stage1, catalog, config, mode="heuristic")
    text = packing_to_json(stage1) + packing_to_json(stage2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed, restarts", [
    pytest.param(seed, restarts, id=str(seed) if restarts == 20 else f"{seed}-restarts{restarts}")
    for seed, restarts in PACKING_8X8_DIGESTS
])
def test_packing_8x8_matches_pinned_digest(seed, restarts):
    assert packing_8x8_digest(seed, restarts) == PACKING_8X8_DIGESTS[seed, restarts]


def test_packing_8x8_digest_under_compensated_sum(monkeypatch):
    # no packing.json number goes through sum(): with the packing module's
    # sum() compensated, as from Python 3.12 on, the text is the same
    from planarfab import packing

    monkeypatch.setattr(packing, "sum", compensated_sum, raising=False)
    assert packing_8x8_digest(1, 3) == PACKING_8X8_DIGESTS[1, 3]
    # a stored tile load, which fsum rounds to 0.6
    assert packing._loads([("a", "b", "c")], {"a": 0.1, "b": 0.2, "c": 0.3}) == [0.6000000000000001]
