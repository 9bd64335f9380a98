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
    _screen_margin,
    _without,
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


# --- touched-tile re-sums vs the full re-sum searches ------------------------------

def reference_improve_min_load(tiles, pi, n_tiles, d_max, max_passes=200):
    """Stage-1 improvement as it was before it cached tile loads: every trial
    move re-sums every tile."""
    tiles = [list(t) for t in tiles]

    def profile():
        return tuple(sorted((sum(pi[g] for g in t) for t in tiles), reverse=True))

    for _ in range(max_passes):
        cur = profile()
        improved = False
        loads = [sum(pi[g] for g in t) for t in tiles]
        peak = max(range(len(tiles)), key=loads.__getitem__)
        for g in sorted(tiles[peak], key=lambda g: (-pi[g], g)):
            for ti in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                if ti == peak:
                    continue
                if ti < len(tiles) and (len(tiles[ti]) >= d_max or g in tiles[ti]):
                    continue
                tiles[peak].remove(g)
                if ti == len(tiles):
                    tiles.append([g])
                else:
                    tiles[ti].append(g)
                if profile() < cur:
                    improved = True
                else:
                    if ti == len(tiles) - 1 and len(tiles[ti]) == 1 and tiles[ti][0] == g:
                        tiles.pop()
                    else:
                        tiles[ti].remove(g)
                    tiles[peak].append(g)
                if improved:
                    break
            if improved:
                break
        if improved:
            continue
        for g in list(tiles[peak]):
            for ti in range(len(tiles)):
                if ti == peak:
                    continue
                for h in list(tiles[ti]):
                    if h == g or pi[h] >= pi[g]:
                        continue
                    if h in tiles[peak] or g in tiles[ti]:
                        continue
                    tiles[peak].remove(g)
                    tiles[peak].append(h)
                    tiles[ti].remove(h)
                    tiles[ti].append(g)
                    if profile() < cur:
                        improved = True
                    else:
                        tiles[peak].remove(h)
                        tiles[peak].append(g)
                        tiles[ti].remove(g)
                        tiles[ti].append(h)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    tiles = [t for t in tiles if t]
    return [tuple(t) for t in tiles]


def reference_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    """Stage-2 local search as it was before it cached tile scores and loads:
    every trial move re-sums every tile's correlations through numpy scalars."""
    corr = catalog.correlation
    idx = {g: catalog.index(g) for t in tiles for g in t}
    tiles = [list(t) for t in tiles]

    def tile_score(t):
        return sum(
            corr[idx[t[i]], idx[t[j]]] for i in range(len(t)) for j in range(i + 1, len(t))
        )

    def total():
        return sum(tile_score(t) for t in tiles)

    def load(t):
        return sum(pi[g] for g in t)

    improved = True
    while improved:
        improved = False
        cur = total()
        for a in range(len(tiles)):
            for g in list(tiles[a]):
                for b in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                    if b == a:
                        continue
                    if b < len(tiles) and (
                        len(tiles[b]) >= d_max or g in tiles[b] or load(tiles[b]) + pi[g] > mu_cap
                    ):
                        continue
                    tiles[a].remove(g)
                    new_tile = b == len(tiles)
                    if new_tile:
                        tiles.append([g])
                    else:
                        tiles[b].append(g)
                    if total() > cur + EPS:
                        improved = True
                        tiles[:] = [t for t in tiles if t]
                        break
                    if new_tile:
                        tiles.pop()
                    else:
                        tiles[b].remove(g)
                    tiles[a].append(g)
                if improved:
                    break
                for b in range(len(tiles)):
                    if b == a:
                        continue
                    for h in list(tiles[b]):
                        if h == g or h in tiles[a] or g in tiles[b]:
                            continue
                        if load(tiles[a]) - pi[g] + pi[h] > mu_cap:
                            continue
                        if load(tiles[b]) - pi[h] + pi[g] > mu_cap:
                            continue
                        tiles[a].remove(g)
                        tiles[a].append(h)
                        tiles[b].remove(h)
                        tiles[b].append(g)
                        if total() > cur + EPS:
                            improved = True
                            break
                        tiles[a].remove(h)
                        tiles[a].append(g)
                        tiles[b].remove(g)
                        tiles[b].append(h)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
    return [tuple(t) for t in tiles if t], total()


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
    from planarfab.packing import _improve_min_load

    checked = moved = 0
    for _, _, tiles, pi, n_tiles, d_max in random_search_instances(21, 150):
        got = _improve_min_load(tiles, pi, n_tiles, d_max)
        assert got == reference_improve_min_load(tiles, pi, n_tiles, d_max)
        checked += 1
        moved += got != tiles
    assert checked == 150 and moved >= 30


def test_local_search_correlation_matches_full_resum_reference():
    from planarfab.packing import _local_search_correlation

    checked = moved = 0
    for rng, drugs, tiles, pi, n_tiles, d_max in random_search_instances(22, 150):
        catalog = make_catalog(len(drugs), seed=int(rng.integers(1 << 30)), corr_scale=0.6)
        catalog = DrugCatalog(tuple(drugs), catalog.marginals, catalog.correlation)
        peak = max(sum(pi[g] for g in t) for t in tiles)
        mu_cap = peak * float(rng.choice([1.0, 1.2, 2.0])) + EPS
        got = _local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
        want = reference_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
        assert got[0] == want[0]
        assert got[1] == want[1]  # same objective, bit for bit
        checked += 1
        moved += got[0] != tiles
    assert checked == 150 and moved >= 30


# --- screened trials vs the searches they screen -----------------------------------
#
# The two functions below are the searches as they were before they screened
# trial moves (touched-tile re-sums, every trial mutated, compared and undone),
# kept verbatim.  The screened searches must return exactly what they return.

def cached_improve_min_load(tiles, pi, n_tiles, d_max, max_passes=200):
    tiles = [list(t) for t in tiles]
    loads = [sum(pi[g] for g in t) for t in tiles]

    def resum(*touched):
        # a tile's load is the sum over its list order, which a move or an
        # undo (re-appending an item) changes; other tiles keep theirs
        for ti in touched:
            if ti < len(tiles):
                loads[ti] = sum(pi[g] for g in tiles[ti])

    def profile():
        return tuple(sorted(loads, reverse=True))

    for _ in range(max_passes):
        cur = profile()
        improved = False
        peak = max(range(len(tiles)), key=loads.__getitem__)
        # relocate one dispenser off the peak tile
        for g in sorted(tiles[peak], key=lambda g: (-pi[g], g)):
            for ti in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                if ti == peak:
                    continue
                if ti < len(tiles) and (len(tiles[ti]) >= d_max or g in tiles[ti]):
                    continue
                tiles[peak].remove(g)
                if ti == len(tiles):
                    tiles.append([g])
                    loads.append(0.0)
                else:
                    tiles[ti].append(g)
                resum(peak, ti)
                if profile() < cur:
                    improved = True
                else:
                    if ti == len(tiles) - 1 and len(tiles[ti]) == 1 and tiles[ti][0] == g:
                        tiles.pop()
                        loads.pop()
                    else:
                        tiles[ti].remove(g)
                    tiles[peak].append(g)
                    resum(peak, ti)
                if improved:
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swap involving the peak tile
        for g in list(tiles[peak]):
            for ti in range(len(tiles)):
                if ti == peak:
                    continue
                for h in list(tiles[ti]):
                    if h == g or pi[h] >= pi[g]:
                        continue
                    if h in tiles[peak] or g in tiles[ti]:
                        continue
                    tiles[peak].remove(g)
                    tiles[peak].append(h)
                    tiles[ti].remove(h)
                    tiles[ti].append(g)
                    resum(peak, ti)
                    if profile() < cur:
                        improved = True
                    else:
                        tiles[peak].remove(h)
                        tiles[peak].append(g)
                        tiles[ti].remove(g)
                        tiles[ti].append(h)
                        resum(peak, ti)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    tiles = [t for t in tiles if t]
    return [tuple(t) for t in tiles]


def cached_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    corr = catalog.correlation.tolist()
    idx = {g: catalog.index(g) for t in tiles for g in t}
    tiles = [list(t) for t in tiles]

    def tile_score(t):
        return sum(
            corr[idx[t[i]]][idx[t[j]]] for i in range(len(t)) for j in range(i + 1, len(t))
        )

    def load(t):
        return sum(pi[g] for g in t)

    scores = [tile_score(t) for t in tiles]
    loads = [load(t) for t in tiles]

    def resum(*touched):
        # pair sums and loads follow the tile's list order, which a move or
        # an undo (re-appending an item) changes; other tiles keep theirs
        for ti in touched:
            if ti < len(tiles):
                scores[ti] = tile_score(tiles[ti])
                loads[ti] = load(tiles[ti])

    improved = True
    while improved:
        improved = False
        cur = sum(scores)
        for a in range(len(tiles)):
            for g in list(tiles[a]):
                # relocation
                for b in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                    if b == a:
                        continue
                    if b < len(tiles) and (
                        len(tiles[b]) >= d_max or g in tiles[b] or loads[b] + pi[g] > mu_cap
                    ):
                        continue
                    tiles[a].remove(g)
                    new_tile = b == len(tiles)
                    if new_tile:
                        tiles.append([g])
                        scores.append(0)
                        loads.append(0)
                    else:
                        tiles[b].append(g)
                    resum(a, b)
                    if sum(scores) > cur + EPS:
                        improved = True
                        kept = [i for i, t in enumerate(tiles) if t]
                        tiles[:] = [tiles[i] for i in kept]
                        scores[:] = [scores[i] for i in kept]
                        loads[:] = [loads[i] for i in kept]
                        break
                    if new_tile:
                        tiles.pop()
                        scores.pop()
                        loads.pop()
                    else:
                        tiles[b].remove(g)
                    tiles[a].append(g)
                    resum(a, b)
                if improved:
                    break
                # swaps
                for b in range(len(tiles)):
                    if b == a:
                        continue
                    for h in list(tiles[b]):
                        if h == g or h in tiles[a] or g in tiles[b]:
                            continue
                        if loads[a] - pi[g] + pi[h] > mu_cap:
                            continue
                        if loads[b] - pi[h] + pi[g] > mu_cap:
                            continue
                        tiles[a].remove(g)
                        tiles[a].append(h)
                        tiles[b].remove(h)
                        tiles[b].append(g)
                        resum(a, b)
                        if sum(scores) > cur + EPS:
                            improved = True
                            break
                        tiles[a].remove(h)
                        tiles[a].append(g)
                        tiles[b].remove(g)
                        tiles[b].append(h)
                        resum(a, b)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
    return [tuple(t) for t in tiles if t], sum(scores)


def screen_instances(seed, count):
    """Small packings built to hit the screens' edge cases: loads tied at the
    peak (pi drawn from a few exact values), zero-demand drugs, correlations
    tied at zero gain, a correlation matrix symmetric only up to rounding,
    and d_max from 1 to 4."""
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


def test_screened_searches_match_unscreened_reference():
    from planarfab.packing import _improve_min_load, _loads, _local_search_correlation

    ties = zeros = moved = 0
    for tiles, pi, n_tiles, d_max, catalog in screen_instances(23, 400):
        loads = _loads(tiles, pi)
        ties += loads.count(max(loads)) > 1
        zeros += any(pi[g] == 0.0 for t in tiles for g in t)

        got = _improve_min_load(tiles, pi, n_tiles, d_max)
        want = cached_improve_min_load(tiles, pi, n_tiles, d_max)
        assert got == want
        assert _loads(got, pi) == _loads(want, pi)
        moved += got != tiles

        peak = max(_loads(got, pi))
        for mu_cap in (peak + EPS, 2 * peak + EPS):
            got_c = _local_search_correlation(got, pi, catalog, n_tiles, d_max, mu_cap)
            want_c = cached_local_search_correlation(got, pi, catalog, n_tiles, d_max, mu_cap)
            assert got_c[0] == want_c[0]
            assert _loads(got_c[0], pi) == _loads(want_c[0], pi)
            assert got_c[1] == want_c[1]  # same objective, bit for bit
            moved += got_c[0] != got
    assert ties >= 100 and zeros >= 100 and moved >= 100


# --- LPT fill and array-form relocations vs the per-tile loops --------------------
#
# reference_lpt_fill and screened_improve_min_load are the stage-1 fill and
# search as they were before the fill opened new bins directly and the search
# screened each dispenser's relocations in one array pass, kept verbatim.

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


def screened_improve_min_load(tiles, pi, n_tiles, d_max, max_passes=200):
    tiles = [list(t) for t in tiles]
    loads = [sum(pi[g] for g in t) for t in tiles]

    def resum(*touched):
        # a tile's load is the sum over its list order, which a move or an
        # undo (re-appending an item) changes; other tiles keep theirs
        for ti in touched:
            if ti < len(tiles):
                loads[ti] = sum(pi[g] for g in tiles[ti])

    def to_end(ti, g):
        # what a rejected trial's undo leaves behind: g re-appended last
        if tiles[ti][-1] != g:
            tiles[ti].remove(g)
            tiles[ti].append(g)
            resum(ti)

    def profile():
        return tuple(sorted(loads, reverse=True))

    for _ in range(max_passes):
        cur = profile()
        improved = False
        peak = max(range(len(tiles)), key=loads.__getitem__)
        # relocate one dispenser off the peak tile
        for g in sorted(tiles[peak], key=lambda g: (-pi[g], g)):
            for ti in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                if ti == peak:
                    continue
                if ti < len(tiles) and (len(tiles[ti]) >= d_max or g in tiles[ti]):
                    continue
                # screen: ti's load after the move, summed in the order resum
                # sums it (g appended); above cur[0] it leads the new profile,
                # which then sorts after cur, so profile() < cur must fail.  A
                # new or empty tile is never screened: its load is pi[g], at
                # most the peak's
                if ti < len(tiles) and sum(pi[h] for h in (*tiles[ti], g)) > cur[0]:
                    to_end(peak, g)
                    continue
                tiles[peak].remove(g)
                if ti == len(tiles):
                    tiles.append([g])
                    loads.append(0.0)
                else:
                    tiles[ti].append(g)
                resum(peak, ti)
                if profile() < cur:
                    improved = True
                else:
                    if ti == len(tiles) - 1 and len(tiles[ti]) == 1 and tiles[ti][0] == g:
                        tiles.pop()
                        loads.pop()
                    else:
                        tiles[ti].remove(g)
                    tiles[peak].append(g)
                    resum(peak, ti)
                if improved:
                    break
            if improved:
                break
        if improved:
            continue
        # pairwise swap involving the peak tile
        for g in list(tiles[peak]):
            for ti in range(len(tiles)):
                if ti == peak:
                    continue
                for h in list(tiles[ti]):
                    if h == g or pi[h] >= pi[g]:
                        continue
                    if h in tiles[peak] or g in tiles[ti]:
                        continue
                    # screen: as for a relocation, ti's load after the swap
                    if sum(pi[x] for x in (*tiles[ti], g) if x != h) > cur[0]:
                        to_end(peak, g)
                        to_end(ti, h)
                        continue
                    tiles[peak].remove(g)
                    tiles[peak].append(h)
                    tiles[ti].remove(h)
                    tiles[ti].append(g)
                    resum(peak, ti)
                    if profile() < cur:
                        improved = True
                    else:
                        tiles[peak].remove(h)
                        tiles[peak].append(g)
                        tiles[ti].remove(g)
                        tiles[ti].append(h)
                        resum(peak, ti)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    tiles = [t for t in tiles if t]
    return [tuple(t) for t in tiles]


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
    from planarfab.packing import _improve_min_load, _loads, _lpt_fill

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

        got = _improve_min_load(tiles, pi, n_tiles, d_max)
        want = screened_improve_min_load(tiles, pi, n_tiles, d_max)
        assert got == want
        assert _loads(got, pi) == _loads(want, pi)
        spread += len(got) > len(tiles)
        checked += 1
    assert checked >= 300 and scanned >= 25 and spread >= 100


# --- array passes vs the scalar searches -------------------------------------------
#
# scalar_improve_min_load and scalar_local_search_correlation are the searches
# as they were before stage 1 decided a trial from the two entries it changes
# and stage 2 screened each pass as one array pass, kept verbatim: one trial
# at a time, each rejected trial moving its items last and re-summing.

def scalar_improve_min_load(tiles, pi, n_tiles, d_max):
    tiles = [list(t) for t in tiles]
    loads = [sum(pi[g] for g in t) for t in tiles]

    def to_end(ti, g):
        # what a rejected trial leaves behind: g last on its tile
        if tiles[ti][-1] != g:
            tiles[ti].remove(g)
            tiles[ti].append(g)
            loads[ti] = sum(pi[h] for h in tiles[ti])

    def lowers(cur, peak, ti, at_peak, at_ti):
        # commits the trial leaving at_peak on the peak and at_ti on tile ti
        # (a new tile when ti == len(tiles)) if its load profile, with those
        # two loads summed in list order, sorts before cur
        new = sum(pi[h] for h in at_ti)
        if new > cur[0]:  # it would lead the profile, which then sorts after cur
            return False
        after = loads[:] if ti < len(tiles) else [*loads, new]
        after[peak], after[ti] = sum(pi[h] for h in at_peak), new
        if not tuple(sorted(after, reverse=True)) < cur:
            return False
        if ti == len(tiles):
            tiles.append(at_ti)
        tiles[peak], tiles[ti], loads[:] = at_peak, at_ti, after
        return True

    # relative rounding allowance of the relocation screen: a float sum of
    # k <= d_max nonnegative terms, recursive or compensated (Python 3.12's
    # sum), is within k unit roundoffs u of the real sum, so two such sums
    # differ by at most 2 k u; this allows 8 u per term and two terms more
    slack = (d_max + 2) * 2.0**-50
    for _ in range(MAX_PASSES):
        cur = tuple(sorted(loads, reverse=True))
        improved = False
        peak = max(range(len(tiles)), key=loads.__getitem__)
        # relocate one dispenser off the peak tile.  Until a move is accepted
        # the other tiles keep their lists, so each g's eligible tiles and
        # screen values are taken for all tiles at once: room and no g (which
        # rules out the peak)
        room = np.array([len(t) < d_max for t in tiles])
        load = np.array(loads)
        spare = [len(tiles)] if len(tiles) < n_tiles else []
        for g in sorted(tiles[peak], key=lambda g: (-pi[g], g)):
            eligible = room & np.array([g not in t for t in tiles])
            if not (spare or eligible.any()):
                continue
            # screen: ti's load after the move, summed with g appended, above
            # cur[0] makes the trial fail.  load + pi[g] is that sum up to
            # rounding, so only tiles above cur[0] by more than ``slack``
            # relative are skipped; a new tile is never screened (its load
            # pi[g] is at most the peak's).  Every trial of g, skipped or
            # rejected, leaves g last on the peak
            after = load + pi[g]
            eligible &= after - cur[0] <= after * slack
            to_end(peak, g)
            at_peak = _without(tiles[peak], g)
            improved = any(
                lowers(cur, peak, ti, at_peak, [*tiles[ti], g] if ti < len(tiles) else [g])
                for ti in np.flatnonzero(eligible).tolist() + spare
            )
            if improved:
                break
        if improved:
            continue
        # pairwise swap involving the peak tile
        for g in list(tiles[peak]):
            for ti in range(len(tiles)):
                if ti == peak:
                    continue
                for h in list(tiles[ti]):
                    if h == g or pi[h] >= pi[g]:
                        continue
                    if h in tiles[peak] or g in tiles[ti]:
                        continue
                    if lowers(
                        cur, peak, ti, [*_without(tiles[peak], g), h], [*_without(tiles[ti], h), g]
                    ):
                        improved = True
                        break
                    to_end(peak, g)
                    to_end(ti, h)
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    tiles = [t for t in tiles if t]
    return [tuple(t) for t in tiles]


def scalar_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    corr = catalog.correlation.tolist()
    idx = {g: catalog.index(g) for t in tiles for g in t}
    tiles = [list(t) for t in tiles]

    def tile_score(t):
        return sum(
            corr[idx[t[i]]][idx[t[j]]] for i in range(len(t)) for j in range(i + 1, len(t))
        )

    def load(t):
        return sum(pi[g] for g in t)

    scores = [tile_score(t) for t in tiles]
    loads = [load(t) for t in tiles]

    def to_end(ti, g):
        # what a rejected trial leaves behind: g last on its tile
        if tiles[ti][-1] != g:
            tiles[ti].remove(g)
            tiles[ti].append(g)
            scores[ti], loads[ti] = tile_score(tiles[ti]), load(tiles[ti])

    def raises(cur, a, b, at_a, at_b):
        # commits the trial leaving at_a on tile a and at_b on tile b (a new
        # tile when b == len(tiles)) if the total score, with those two tiles'
        # pair sums taken in list order, exceeds cur + EPS
        after = scores[:] if b < len(tiles) else [*scores, 0]
        after[a], after[b] = tile_score(at_a), tile_score(at_b)
        if not sum(after) > cur + EPS:
            return False
        if b == len(tiles):
            tiles.append(at_b)
            loads.append(0)
        tiles[a], tiles[b], scores[:] = at_a, at_b, after
        loads[a], loads[b] = load(at_a), load(at_b)
        return True

    # screen: a trial's gain is estimated from partner sums, part[t][col[x]]
    # being x's correlation with the drugs of tile t other than x; when the
    # estimate is at most EPS - margin (_screen_margin), the trial must fail.
    # The partner sums hold between accepted moves, since a rejected trial
    # only reorders lists
    col = {g: i for i, g in enumerate(idx)}
    sub = catalog.correlation[np.ix_(list(idx.values()), list(idx.values()))]
    partner = np.vstack([sub - np.diag(np.diag(sub)), np.zeros(len(col))])  # + a padding row
    floor = EPS - _screen_margin(sub, n_tiles, d_max)

    improved = True
    while improved:
        improved = False
        cur = sum(scores)
        member = [[col[g] for g in t] + [len(col)] * (d_max - len(t)) for t in tiles]
        part = partner[member].sum(axis=1).tolist()
        for a in range(len(tiles)):
            for g in list(tiles[a]):
                # relocation
                for b in range(len(tiles) + (1 if len(tiles) < n_tiles else 0)):
                    if b == a:
                        continue
                    if b < len(tiles) and (
                        len(tiles[b]) >= d_max or g in tiles[b] or loads[b] + pi[g] > mu_cap
                    ):
                        continue
                    ig = col[g]  # gain: g's partners on b less its partners on a
                    gain = (part[b][ig] if b < len(tiles) else 0.0) - part[a][ig]
                    if gain > floor and raises(
                        cur, a, b, _without(tiles[a], g), [*tiles[b], g] if b < len(tiles) else [g]
                    ):
                        improved = True
                        kept = [i for i, t in enumerate(tiles) if t]
                        tiles[:] = [tiles[i] for i in kept]
                        scores[:] = [scores[i] for i in kept]
                        loads[:] = [loads[i] for i in kept]
                        break
                    to_end(a, g)
                if improved:
                    break
                # swaps
                for b in range(len(tiles)):
                    if b == a:
                        continue
                    for h in list(tiles[b]):
                        if h == g or h in tiles[a] or g in tiles[b]:
                            continue
                        if loads[a] - pi[g] + pi[h] > mu_cap:
                            continue
                        if loads[b] - pi[h] + pi[g] > mu_cap:
                            continue
                        # gain: h joins a's partners other than g, g joins
                        # b's other than h; part counts g-h on both sides
                        ig, ih = col[g], col[h]
                        gain = part[a][ih] - part[a][ig] + part[b][ig] - part[b][ih]
                        if gain - 2 * corr[idx[g]][idx[h]] > floor and raises(
                            cur, a, b, [*_without(tiles[a], g), h], [*_without(tiles[b], h), g]
                        ):
                            improved = True
                            break
                        to_end(a, g)
                        to_end(b, h)
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
    return [tuple(t) for t in tiles if t], sum(scores)


def grid_instances(seed, count):
    """Stage-2 inputs shaped like the 8x8~2 reference: 62 tiles, 40 drugs, 82
    dispensers, d_max 4 with a tile of three; pi drawn from a few exact
    values, zero and irrational ones; a catalog symmetric only up to rounding
    (one unit in the last place); and mu_cap alternately the peak + EPS, as
    pack_correlation sets it, and the load of the tile of three summed in
    one of its orders, which a re-sum in another order reads on either side."""
    rng = np.random.default_rng(seed)
    drugs = [f"g{i:02d}" for i in range(40)]
    made = 0
    while made < count:
        dispensers = drugs + [drugs[i] for i in rng.integers(0, 40, 42)]
        dispensers = [dispensers[i] for i in rng.permutation(82)]
        tiles = [[g] for g in dispensers[:62]]
        big = tiles[int(rng.integers(2))]  # reordered early in every pass
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
    relocations onto the tile and swaps with it read mu_cap on either side
    as the tile is reordered and re-summed within a pass."""
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


def test_array_pass_searches_match_scalar_reference():
    from planarfab.packing import _improve_min_load, _loads, _local_search_correlation

    checked = moved = 0
    for tiles, pi, n_tiles, d_max, catalog in screen_instances(27, 200):
        got = _improve_min_load(tiles, pi, n_tiles, d_max)
        want = scalar_improve_min_load(tiles, pi, n_tiles, d_max)
        assert got == want
        assert _loads(got, pi) == _loads(want, pi)
        peak = max(_loads(got, pi))
        for mu_cap in (peak + EPS, 2 * peak + EPS):
            got_c = _local_search_correlation(got, pi, catalog, n_tiles, d_max, mu_cap)
            want_c = scalar_local_search_correlation(got, pi, catalog, n_tiles, d_max, mu_cap)
            assert got_c[0] == want_c[0]
            assert _loads(got_c[0], pi) == _loads(want_c[0], pi)
            assert got_c[1] == want_c[1]
            checked += 1
            moved += got_c[0] != got
    for rng, drugs, tiles, pi, n_tiles, d_max in random_search_instances(28, 150):
        got = _improve_min_load(tiles, pi, n_tiles, d_max)
        want = scalar_improve_min_load(tiles, pi, n_tiles, d_max)
        assert got == want
        assert _loads(got, pi) == _loads(want, pi)
        catalog = make_catalog(len(drugs), seed=int(rng.integers(1 << 30)), corr_scale=0.6)
        catalog = DrugCatalog(tuple(drugs), catalog.marginals, catalog.correlation)
        mu_cap = max(_loads(tiles, pi)) * float(rng.choice([1.0, 1.2, 2.0])) + EPS
        got_c = _local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
        want_c = scalar_local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap)
        assert got_c[0] == want_c[0]
        assert _loads(got_c[0], pi) == _loads(want_c[0], pi)
        assert got_c[1] == want_c[1]
        checked += 1
        moved += got_c[0] != tiles
    grid = 0
    for tiles, pi, catalog, mu_cap in grid_instances(29, 12):
        got = _improve_min_load(tiles, pi, 62, 4)
        assert got == scalar_improve_min_load(tiles, pi, 62, 4)
        got_c = _local_search_correlation(tiles, pi, catalog, 62, 4, mu_cap)
        want_c = scalar_local_search_correlation(tiles, pi, catalog, 62, 4, mu_cap)
        assert got_c[0] == want_c[0]
        assert _loads(got_c[0], pi) == _loads(want_c[0], pi)
        assert got_c[1] == want_c[1]
        grid += 1
        moved += got_c[0] != tiles
    for tiles, pi, catalog, n_tiles, mu_cap in near_cap_instances(30, 400):
        got_c = _local_search_correlation(tiles, pi, catalog, n_tiles, 4, mu_cap)
        want_c = scalar_local_search_correlation(tiles, pi, catalog, n_tiles, 4, mu_cap)
        assert got_c[0] == want_c[0]
        assert _loads(got_c[0], pi) == _loads(want_c[0], pi)
        assert got_c[1] == want_c[1]
        checked += 1
        moved += got_c[0] != tiles
    assert checked == 950 and grid == 12 and moved >= 500


# sha256 of stage-1 (heuristic) and stage-2 (local search) packing.json on the
# 8x8~2 reference, per order seed, recorded before either search cached tile sums
PACKING_8X8_DIGESTS = {
    1: "2c2dda98fe2bfcab2ff90d8a94291d912614453389579533168956d6f5571e57",
    2: "bd1d83c88028fea27c9ef236131ba03ac7bfe3e27eff4dea21e5dc9e3e82771c",
    3: "febd8833677ca6e743487d7aad9d03840d23923c384cf23db91fb76f0175b6af",
}


@pytest.mark.parametrize("seed", sorted(PACKING_8X8_DIGESTS))
def test_packing_8x8_matches_pinned_digest(seed):
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
        mode="heuristic", seed=seed,
    )
    stage2 = pack_correlation(stage1, catalog, config, mode="heuristic")
    text = packing_to_json(stage1) + packing_to_json(stage2)
    assert hashlib.sha256(text.encode()).hexdigest() == PACKING_8X8_DIGESTS[seed]
