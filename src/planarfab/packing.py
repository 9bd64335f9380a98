"""Tactical dispenser packing.

Stage 1 decides each drug's dispenser multiplicity and groups dispensers onto
unplaced tiles so the maximum expected tile load is minimal.  The bilinear
load-split constraint (per-dispenser load x multiplicity = demand) is handled
by enumerating integer multiplicities, which turns every candidate into a
min-max bin-packing subproblem that is solved exactly at desk scale and by
seeded local search above it.  A certified lower bound is always reported.

Stage 2 keeps the multiplicities, per-dispenser loads and the achieved maximum
load fixed and re-groups dispensers to maximize the sum of pairwise drug
correlations on shared tiles (unordered pairs counted once).

Empty tiles are permitted: when fewer dispensers than tiles exist the model's
one-dispenser-per-tile floor is unsatisfiable, so tiles are treated as "up to
n_tiles usable".

Both local searches change their tiles only when they take a move: a trial
they turn down leaves every list, load and score as it was.  A tile's load,
and stage 2's pair score, is the float sum of its list added left to right
(``_left_to_right``), so neither search makes a decision through ``sum``
(compensated from Python 3.12 on) and both return the same tiles on every
Python.  Each checks a pass's trials in numpy, from per-tile sums of the
tile's list less one slot, in the float additions a scan one trial at a time
would make.

Stage 1 (``_improve_min_load``) checks all its relocations off the peak tile
in one numpy pass and, if none is taken, all its swaps in another.  The
multiplicities and the starting fill of each restart (Graham's LPT rule) take
their next drug and next tile from heaps.

Stage 2 (``_local_search_correlation``) keeps n_tiles rows, an empty row
serving as a new tile, and takes in each pass the first relocation or swap
in scan order that raises the summed pair correlation by more than EPS.
The rows' sums live across passes; a move sums its two rows again.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from itertools import product, zip_longest
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import DrugCatalog, InstanceConfig

EPS = 1e-9
NODE_CAP = 500_000  # search nodes of each exact packing search before it gives up
MAX_PASSES = 200  # improvement passes of the stage-1 local search


class PackingInfeasible(ValueError):
    pass


@dataclass(frozen=True)
class Packing:
    """Grouping of dispensers onto unplaced tiles."""

    tiles: tuple[tuple[str, ...], ...]  # used tiles, drugs sorted within a tile
    z: dict[str, int]
    pi: dict[str, float]
    mu: tuple[float, ...]
    mu_max: float
    lower_bound: float
    exact: bool
    n_tiles_available: int
    correlation_objective: float | None = None
    # why the first stage's peak load is not proven minimal: "size guard"
    # (auto mode above 12 drugs or 12 tiles), "node cap" (the exact search
    # gave up at NODE_CAP) or "heuristic mode" (forced); None when exact
    fallback: str | None = None

    @property
    def n_dispensers_used(self) -> int:
        return sum(len(t) for t in self.tiles)


def _canonical(tiles: list[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(t)) for t in tiles if t))


def _loads(tiles, pi) -> list[float]:
    return [_left_to_right(pi[g] for g in t) for t in tiles]


def _make_packing(tiles, z, pi, lower, exact, n_tiles, fallback=None) -> Packing:
    tiles = _canonical(list(tiles))
    mu = _loads(tiles, pi)
    return Packing(
        tiles,
        dict(z),
        dict(pi),
        tuple(mu),
        max(mu) if mu else 0.0,
        lower,
        exact,
        n_tiles,
        fallback=fallback,
    )


def validate_packing(packing: Packing, config: InstanceConfig, demand=None) -> list[str]:
    """Machine check of every Packing invariant; empty list means consistent."""
    issues = []
    counts: dict[str, int] = {}
    for t in packing.tiles:
        if not 1 <= len(t) <= config.d_max:
            issues.append(f"tile {t} holds {len(t)} dispensers (1..{config.d_max})")
        if len(set(t)) != len(t):
            issues.append(f"tile {t} repeats a drug")
        for g in t:
            counts[g] = counts.get(g, 0) + 1
    for g, zg in packing.z.items():
        if counts.get(g, 0) != zg:
            issues.append(f"drug {g}: {counts.get(g, 0)} placed dispensers != z={zg}")
        if zg > config.m_max:
            issues.append(f"drug {g}: z={zg} exceeds m_max={config.m_max}")
        if zg < 1:
            issues.append(f"drug {g}: z={zg} < 1 (every drug must be purchasable)")
        if demand is not None and zg >= 1:
            want = float(demand[g])
            if abs(packing.pi[g] * zg - want) > 1e-6 * max(1.0, want):
                issues.append(f"drug {g}: pi*z != demand")
    if demand is not None:
        for g in sorted(set(demand.u) - set(packing.z)):
            if demand[g] > 0:
                issues.append(f"drug {g}: demanded but has no dispenser")
    if packing.n_dispensers_used > config.n_dispensers:
        issues.append("dispenser budget exceeded")
    if len(packing.tiles) > packing.n_tiles_available:
        issues.append("more used tiles than available")
    loads = _loads(packing.tiles, packing.pi)
    for got, want in zip(loads, packing.mu):
        if abs(got - want) > 1e-6:
            issues.append("stored tile load disagrees with recomputation")
    if loads and abs(max(loads) - packing.mu_max) > 1e-6:
        issues.append("stored mu_max disagrees with recomputation")
    # a certified bound cannot exceed a peak load some packing achieves
    if loads and packing.lower_bound > max(loads) + 1e-6 * max(1.0, max(loads)):
        issues.append("stored lower_bound exceeds the recomputed peak load")
    return issues


def correlation_sum(tiles, catalog: DrugCatalog) -> float:
    """Sum of pairwise correlations of drugs sharing a tile."""
    total = 0.0
    for t in tiles:
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                total += catalog.correlation[catalog.index(t[i]), catalog.index(t[j])]
    return total


# --- stage 1: minimize the maximum expected tile load ----------------------------

def pack_min_load(
    demand,
    n_tiles: int,
    config: InstanceConfig,
    drugs=None,
    mode: str = "auto",
    seed: int = 0,
    restarts: int = 20,
) -> Packing:
    """Choose multiplicities and tile groups minimizing the peak tile load.

    drugs: the drugs to pack (default: those of the demand); demand for a
    drug outside them is infeasible, since no dispenser could serve it.
    mode: "exact" forces branch and bound, "heuristic" forces local search,
    "auto" is exact up to 12 drugs x 12 tiles.  A packing that is not exact
    names the reason in ``fallback``.
    """
    _check_mode(mode)
    if drugs is None:
        drugs = sorted(demand.u)
    drugs = sorted(set(drugs))
    unserved = [g for g in sorted(demand.u) if demand[g] > 0 and g not in drugs]
    if unserved:
        raise PackingInfeasible(f"demanded drugs outside the drugs to pack: {unserved}")
    u = {g: float(demand[g]) for g in drugs}
    n_drugs = len(drugs)
    if n_drugs == 0:
        raise PackingInfeasible("no drugs to pack")
    if config.n_dispensers < n_drugs:
        raise PackingInfeasible(
            f"insufficient dispensers: {config.n_dispensers} < {n_drugs} drugs"
        )
    if n_tiles * config.d_max < n_drugs:
        raise PackingInfeasible(
            f"coverage impossible: {n_tiles} tiles x d_max={config.d_max} < {n_drugs} drugs"
        )

    z_cap = max(1, min(config.m_max, n_tiles))
    budget = min(config.n_dispensers, n_tiles * config.d_max)
    lower = _certified_lower_bound(u, drugs, n_tiles, z_cap, budget)

    if mode == "heuristic":
        fallback = "heuristic mode"
    elif mode == "auto" and (n_drugs > 12 or n_tiles > 12):
        fallback = "size guard"
    else:
        result = _exact_min_load(u, drugs, n_tiles, config.d_max, z_cap, budget, lower)
        if result is not None:
            tiles, z = result
            pi = {g: (u[g] / z[g] if z[g] else 0.0) for g in drugs}
            return _make_packing(tiles, z, pi, lower, True, n_tiles)
        fallback = "node cap"
    tiles, z = _heuristic_min_load(
        u, drugs, n_tiles, config.d_max, z_cap, budget, seed, restarts
    )
    pi = {g: (u[g] / z[g] if z[g] else 0.0) for g in drugs}
    return _make_packing(tiles, z, pi, lower, False, n_tiles, fallback)


def _check_mode(mode):
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown packing mode {mode!r} (auto, exact or heuristic)")


def _certified_lower_bound(u, drugs, n_tiles, z_cap, budget) -> float:
    per_drug_cap = min(z_cap, budget - (len(drugs) - 1))
    lb1 = max((u[g] / max(1, per_drug_cap) for g in drugs), default=0.0)
    lb2 = _left_to_right(u.values()) / n_tiles
    return max(lb1, lb2)


def _exact_min_load(u, drugs, n_tiles, d_max, z_cap, budget, lower):
    """Optimal (tiles, z), or None when the search gave up at NODE_CAP: one
    dispenser per drug always packs, so an uncapped search finds one."""
    order = sorted(drugs, key=lambda g: (-u[g], g))
    best = {"mu": math.inf, "tiles": None, "z": None, "nodes": 0}

    def z_bound(z_partial, idx, spent):
        cur = max((u[g] / z_partial[g] for g in order[:idx]), default=0.0)
        rest = len(order) - idx
        opt = 0.0
        if rest:
            room = budget - spent - (rest - 1)
            cap = min(z_cap, max(1, room))
            opt = max(u[g] / cap for g in order[idx:])
        return max(cur, opt, lower)

    def dfs_z(idx, z_partial, spent):
        if best["nodes"] > NODE_CAP:
            return
        if best["mu"] <= lower + EPS:
            return
        if idx == len(order):
            if spent > n_tiles * d_max:
                return
            quick = max((u[g] / z_partial[g] for g in order), default=0.0)
            quick = max(quick, _left_to_right(u.values()) / min(n_tiles, spent) if spent else 0.0)
            if quick >= best["mu"] - EPS:
                return
            pi = {g: u[g] / z_partial[g] for g in order}
            packed = _exact_bin_pack(
                order, z_partial, pi, n_tiles, d_max, best["mu"], best
            )
            if packed is not None:
                mu, tiles = packed
                if mu < best["mu"] - EPS:
                    best["mu"] = mu
                    best["tiles"] = tiles
                    best["z"] = dict(z_partial)
            return
        g = order[idx]
        rest = len(order) - idx - 1
        hi = min(z_cap, budget - spent - rest)
        for zg in range(hi, 0, -1):
            z_partial[g] = zg
            if z_bound(z_partial, idx + 1, spent + zg) < best["mu"] - EPS:
                dfs_z(idx + 1, z_partial, spent + zg)
        del z_partial[g]

    dfs_z(0, {}, 0)
    if best["tiles"] is None or best["nodes"] > NODE_CAP:
        return None
    return best["tiles"], best["z"]


def _exact_bin_pack(order, z, pi, n_tiles, d_max, incumbent_mu, counter):
    """Exact min-max packing of dispenser copies into at most n_tiles tiles."""
    items = []
    for g in order:
        items.extend([g] * z[g])
    items.sort(key=lambda g: (-pi[g], g))
    total = _left_to_right(pi[g] for g in items)
    best = {"mu": incumbent_mu, "tiles": None}
    bins: list[list[str]] = []
    loads: list[float] = []

    def dfs(i, cur_max, remaining):
        counter["nodes"] += 1
        if counter["nodes"] > NODE_CAP:
            return
        lb = max(cur_max, (_left_to_right(loads) + remaining) / n_tiles)
        if lb >= best["mu"] - EPS:
            return
        if i == len(items):
            best["mu"] = cur_max
            best["tiles"] = [tuple(b) for b in bins if b]
            return
        g = items[i]
        tried = set()
        for bi in range(len(bins)):
            b = bins[bi]
            if len(b) >= d_max or g in b:
                continue
            key = (round(loads[bi], 12), len(b), frozenset(b))
            if key in tried:
                continue
            tried.add(key)
            new_load = loads[bi] + pi[g]
            if new_load >= best["mu"] - EPS:
                continue
            b.append(g)
            loads[bi] += pi[g]
            dfs(i + 1, max(cur_max, new_load), remaining - pi[g])
            b.pop()
            loads[bi] -= pi[g]
        if len(bins) < n_tiles:
            if pi[g] < best["mu"] - EPS:
                bins.append([g])
                loads.append(pi[g])
                dfs(i + 1, max(cur_max, pi[g]), remaining - pi[g])
                bins.pop()
                loads.pop()

    dfs(0, 0.0, total)
    if best["tiles"] is None:
        return None
    return best["mu"], best["tiles"]


def _heuristic_min_load(u, drugs, n_tiles, d_max, z_cap, budget, seed, restarts):
    # the restarts work on drug ids in name order, which sort as the names do
    z = _multiplicities(u, drugs, z_cap, budget)
    names = sorted(drugs)
    pv = [u[g] / z[g] for g in names]
    items = sorted((i for i, g in enumerate(names) for _ in range(z[g])), key=lambda i: (-pv[i], i))

    rng = random.Random(seed)
    best_tiles, best_profile = None, None
    for attempt in range(max(1, restarts)):
        ordered = list(items)
        if attempt:
            rng.shuffle(ordered)
        tiles = _lpt_fill(ordered, pv, n_tiles, d_max)
        if tiles is None:
            continue
        loads, found = _improve(tiles, pv, n_tiles, d_max)
        profile = tuple(sorted(loads, reverse=True))
        if best_profile is None or profile < best_profile:
            best_profile, best_tiles = profile, found()
    if best_tiles is None:
        raise PackingInfeasible("could not fit dispensers into tiles")
    return [tuple(names[i] for i in t) for t in best_tiles], z


def _multiplicities(u, drugs, z_cap, budget):
    """One dispenser per drug, then one more at a time for the heaviest drug,
    the largest (u/z, drug), until the budget is spent, that drug has z_cap
    dispensers or no demand.  A heap keyed on (-(u/z), -rank) pops that drug."""
    z = {g: 1 for g in drugs}
    rank = {g: i for i, g in enumerate(sorted(drugs))}
    heap = [(-u[g], -rank[g], g) for g in drugs]
    heapq.heapify(heap)
    for _ in range(budget - len(drugs)):
        g = heap[0][2]
        if z[g] >= z_cap or u[g] == 0.0:
            break
        z[g] += 1
        heapq.heapreplace(heap, (-(u[g] / z[g]), -rank[g], g))
    return z


def _lpt_fill(items, pi, n_tiles, d_max):
    """Graham's LPT rule: each item in turn joins the open tile of least
    (load, index) that has room and lacks its drug, or opens a new tile,
    whose key is (0.0, number of tiles); None when neither exists.

    A heap holds (load, index) of the tiles with room.  Tiles already holding
    the item's drug are popped, set aside and pushed back.  An open tile's
    key beats the new tile's exactly when its load is at most 0.0, its index
    being the smaller.

    Exactness rule: a tile's load grows by one float addition per item, in
    the order the items join, as the scan's did; it never goes through
    ``sum``, whose rounding differs from Python 3.12 on, so the fill is the
    scan's tile for tile on every Python.
    """
    bins: list[list[str]] = []
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for g in items:
        aside = None
        if heap and g in bins[heap[0][1]]:
            aside = [pop(heap)]
            while heap and g in bins[heap[0][1]]:
                aside.append(pop(heap))
        if len(bins) < n_tiles and not (heap and heap[0][0] <= 0.0):
            key = (pi[g], len(bins))
            bins.append([g])
        elif heap:
            load, i = pop(heap)
            bins[i].append(g)
            key = (load + pi[g], i)
        else:
            return None
        if len(bins[key[1]]) < d_max:
            push(heap, key)
        if aside:
            for entry in aside:
                push(heap, entry)
    return [tuple(b) for b in bins]


def _without(t, g):
    """Tile list t less the drug g (a tile holds each drug at most once)."""
    return [x for x in t if x != g]


def _left_to_right(values):
    """The float sum (or numpy column sum) of values added left to right, as
    ``sum`` adds floats before Python 3.12 (from 3.12 on it is compensated)."""
    return reduce(operator.add, values, 0.0)


def _pair_lowers(rest, new, top, load):
    """Elementwise: whether a trial leaving rest on the peak tile, whose load
    top is the largest, and new on a tile of load ``load`` (0.0 for a new
    tile) sorts the load profile first, that is sorted((rest, new),
    reverse=True) < [top, load]: the larger of rest and new below top, or at
    top with the smaller below load."""
    return np.maximum(rest, new) < np.where(
        np.minimum(rest, new) < load, math.nextafter(top, math.inf), top
    )


def _improve_min_load(tiles, pi, n_tiles, d_max):
    """Local search on the peak tile: relocate one of its dispensers, else
    swap one for a lighter dispenser of another tile, while the sorted load
    profile falls.  ``_improve`` does the work, on drug ids in name order.

    Each pass takes the first trial in scan order whose load profile sorts
    before the pass's.  First the relocations: each dispenser g of the peak,
    heaviest first, onto each tile with room and no copy of g in index
    order, then onto a new tile.  If none is taken, the swaps: each g in the
    peak's list order with each lighter h of another tile, in tile and list
    order, that is not on the peak while g is not on h's tile.  A taken
    trial drops g (then appends h) on the peak and appends g to the other
    tile (less h).  A trial that is turned down changes nothing: tile lists,
    loads and the drug x tile membership change only when a move is taken.

    Each load is the left-to-right float sum of its tile's list, so it is
    the same float on every Python.  The loads thus always hold the pass's
    profile, and a trial replaces two of its entries, the peak's and the
    other tile's (0.0 for a new tile): the new profile sorts first exactly
    when its two new entries sort before the two they replace, since the
    largest value whose count changes decides (``_pair_lowers``).  So each
    pass checks all its relocations in one numpy pass, and all its swaps in
    another, from a table of each tile's list less one slot.
    """
    names = sorted({g for t in tiles for g in t})
    ids = {g: i for i, g in enumerate(names)}
    tiles = [[ids[g] for g in t] for t in tiles]
    _, found = _improve(tiles, [pi[g] for g in names], n_tiles, d_max)
    return [tuple(names[i] for i in t) for t in found()]


def _improve(tiles, pv, n_tiles, d_max):
    """_improve_min_load on tiles of drug ids 0..len(pv) - 1, pv[i] being
    drug i's pi.  Returns the loads of the tiles found and a function that
    lists those tiles."""
    pad = len(pv)  # the id of an empty slot, whose pi is 0.0
    pis = np.array([*pv, 0.0])
    n = len(tiles)
    width = max(d_max, *map(len, tiles))
    slots = np.full((max(n, n_tiles), width), pad)
    slots.T[: max(map(len, tiles)), :n] = list(zip_longest(*tiles, fillvalue=pad))
    size = np.zeros(len(slots), dtype=np.intp)
    size[:n] = list(map(len, tiles))
    member = np.zeros((pad + 1, len(slots)), dtype=bool)  # member[g, t]: drug g on tile t
    member[slots, np.arange(len(slots))[:, None]] = True
    member[pad] = False
    loads = _left_to_right(pis.take(slots).T)  # by columns, empty slots adding 0.0

    def listed(t):
        return slots[t, : size[t]].tolist()

    def put(t, row, value):
        member[:, t] = False
        member[row, t] = True
        slots[t] = pad
        slots[t, : len(row)] = row
        size[t], loads[t] = len(row), value

    for _ in range(MAX_PASSES):
        m = n + (n < n_tiles)  # the tiles a relocation may reach, a new one last
        load = loads[:m]
        peak = int(load.argmax())
        top = float(load[peak])
        row = listed(peak)
        rests = [_left_to_right(pv[x] for x in row if x != g) for g in row]
        js = sorted(range(len(row)), key=lambda j: (-pv[row[j]], row[j]))
        gs = [row[j] for j in js]
        new = load + pis.take(gs)[:, None]
        keep = (size[:m] < d_max) & ~member[gs, :m] & _pair_lowers(
            np.array([rests[j] for j in js])[:, None], new, top, load
        )
        if keep.any():
            i, ti = divmod(int(keep.argmax()), m)
            put(peak, _without(row, gs[i]), rests[js[i]])
            put(ti, [*listed(ti), gs[i]], float(new[i, ti]))
            n = max(n, ti + 1)
            continue
        # swap g = row[i] with h = slots[ti, j], leaving rest[i, ti, j] on the
        # peak and new[i, ti, j] on tile ti; less[ti, j]: ti's list less slot j
        ph = pis.take(slots[:n])
        less = np.zeros((n, width))
        for j, k in product(range(width), repeat=2):
            if j != k:
                less[:, j] += ph[:, k]
        away = ~member[:, peak]
        away[pad] = False
        gv = pis.take(row)[:, None, None]
        rest = np.array(rests)[:, None, None] + ph
        new = less + gv
        keep = (ph < gv) & away.take(slots[:n]) & ~member[row, :n, None] & _pair_lowers(
            rest, new, top, load[:n, None]
        )
        if not keep.any():
            break
        i, ti, j = np.unravel_index(int(keep.argmax()), keep.shape)
        h = int(slots[ti, j])
        put(peak, [*_without(row, row[i]), h], float(rest[i, ti, j]))
        put(ti, [*_without(listed(ti), h), row[i]], float(new[i, ti, j]))

    def found():
        return [t[:k] for t, k in zip(slots.tolist(), size[:n].tolist()) if k]

    return loads[:n][size[:n] > 0].tolist(), found


# --- stage 2: maximize pairwise correlations at fixed load -----------------------

def pack_correlation(
    stage1: Packing,
    catalog: DrugCatalog,
    config: InstanceConfig,
    mode: str = "auto",
) -> Packing:
    """Re-group dispensers to maximize co-located drug correlation.

    Multiplicities, per-dispenser loads and the stage-1 peak load are frozen;
    the result's objective never falls below the stage-1 grouping's own score.
    Both searches are deterministic.

    mode: "exact" forces the exact search, "heuristic" the local search,
    "auto" is exact up to 12 drugs; the exact search falls back to the
    local search at NODE_CAP.
    """
    _check_mode(mode)
    issues = validate_packing(stage1, config)
    if issues:
        raise ValueError(f"stage-1 packing invalid: {issues}")
    drugs = sorted(stage1.z)
    z, pi = stage1.z, stage1.pi
    mu_cap = stage1.mu_max + EPS
    n_tiles = stage1.n_tiles_available
    d_max = config.d_max

    baseline = correlation_sum(stage1.tiles, catalog)
    use_exact = mode == "exact" or (mode == "auto" and len(drugs) <= 12)
    tiles, objective, exact = None, baseline, False
    if use_exact:
        found = _exact_correlation(
            drugs, z, pi, catalog, n_tiles, d_max, mu_cap, baseline, stage1.tiles
        )
        if found is not None:
            tiles, objective, exact = found
    if tiles is None:
        tiles, objective = _local_search_correlation(
            stage1.tiles, pi, catalog, n_tiles, d_max, mu_cap
        )
        exact = False
    if objective < baseline - EPS:
        tiles, objective = stage1.tiles, baseline

    return Packing(
        _canonical(list(tiles)),
        dict(z),
        dict(pi),
        tuple(_loads(_canonical(list(tiles)), pi)),
        stage1.mu_max,
        stage1.lower_bound,
        exact,
        n_tiles,
        correlation_objective=objective,
        fallback=stage1.fallback,
    )


def _exact_correlation(
    drugs, z, pi, catalog, n_tiles, d_max, mu_cap, baseline, fallback_tiles
):
    items = [g for g in sorted(drugs, key=lambda g: (-pi[g], g)) for _ in range(z[g])]
    corr = catalog.correlation
    idx = {g: catalog.index(g) for g in drugs}
    # admissible per-item optimism: the d_max-1 best positive partners
    best_gain = {}
    for g in drugs:
        partners = sorted((max(0.0, corr[idx[g], idx[h]]) for h in drugs if h != g), reverse=True)
        best_gain[g] = _left_to_right(partners[: max(0, d_max - 1)])
    suffix = [0.0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + best_gain[items[i]]

    best = {"obj": baseline, "tiles": list(fallback_tiles), "nodes": 0, "capped": False}
    bins: list[list[str]] = []
    loads: list[float] = []

    def dfs(i, score):
        best["nodes"] += 1
        if best["nodes"] > NODE_CAP:
            best["capped"] = True
            return
        if score + suffix[i] <= best["obj"] + EPS:
            return
        if i == len(items):
            best["obj"] = score
            best["tiles"] = [tuple(b) for b in bins if b]
            return
        g = items[i]
        tried = set()
        for bi in range(len(bins)):
            b = bins[bi]
            if len(b) >= d_max or g in b or loads[bi] + pi[g] > mu_cap:
                continue
            key = frozenset(b)
            if key in tried:
                continue
            tried.add(key)
            gain = _left_to_right(corr[idx[g], idx[h]] for h in b)
            b.append(g)
            loads[bi] += pi[g]
            dfs(i + 1, score + gain)
            b.pop()
            loads[bi] -= pi[g]
        if len(bins) < n_tiles and pi[g] <= mu_cap:
            bins.append([g])
            loads.append(pi[g])
            dfs(i + 1, score)
            bins.pop()
            loads.pop()

    dfs(0, 0.0)
    if best["capped"]:
        return None
    return best["tiles"], best["obj"], True


def _local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
    """Relocate a dispenser onto another tile, or swap two dispensers of
    different tiles, while the tiles' summed pair correlation rises.

    The tiles are n_tiles rows, an empty row serving as a new tile.  Each pass
    takes the first trial in scan order that is feasible and raises the
    score: the dispensers (a, s) in row-major order, and for each its
    relocations onto the rows b in index order, then its swaps with the
    dispensers (b, t) in row-major order.  A relocation of g appends g to b;
    a swap with h leaves a's list less g plus h and b's less h plus g.  A
    trial is feasible when the drug it adds to a tile is not there, the tile
    has room for a relocation, and the list it leaves on each tile it adds
    to loads at most mu_cap.  It is taken when (after_a + after_b) -
    (score_a + score_b) > EPS; a trial turned down changes nothing.

    A load is the left-to-right float sum of its list's pis and a score that
    of corr[t[i]][t[j]] over i < j, j the outer loop, so that appending g adds
    g's pairs last.  Each row keeps its load, its score and, per slot, those
    of its list less that slot, empty slots adding 0.0; a trial's new loads
    and scores are these plus its new drug's terms, added in the same order.
    So a block of dispensers' trials is checked at once in numpy and decides
    what the scan one trial at a time would.  Only the two rows a move edits
    are summed again.
    """
    names = sorted({g for t in tiles for g in t})
    ids = {g: i for i, g in enumerate(names)}
    pad = len(names)  # the id of an empty slot, whose pi and pairs are 0.0
    cols = [catalog.index(g) for g in names]
    corr = np.zeros((pad + 1, pad + 1))
    corr[:pad, :pad] = catalog.correlation[np.ix_(cols, cols)]
    pis = np.array([*(pi[g] for g in names), 0.0])
    n, width = max(n_tiles, len(tiles)), max([d_max, *map(len, tiles)])
    slots = np.full((n, width), pad)
    for r, t in enumerate(tiles):
        slots[r, : len(t)] = [ids[g] for g in t]
    js, is_ = np.tril_indices(width, -1)  # the pairs (i, j), j outer and i inner
    rows = np.arange(n)
    size = np.zeros(n, dtype=np.intp)
    member = np.zeros((pad + 1, n), dtype=bool)  # member[g, b]: drug g on row b
    loads, scores = np.zeros(n), np.zeros(n)
    others = np.empty((n, width, width), dtype=np.intp)  # others[b, s]: row b less slot s
    less_load, less_score = np.zeros((n, width)), np.zeros((n, width))

    def refresh(changed):
        at = slots[changed]
        size[changed] = (at != pad).sum(1)
        member[:, changed] = False
        member[at, changed[:, None]] = True
        member[pad] = False
        others[changed] = np.where(np.eye(width, dtype=bool), pad, at[:, None, :])
        # by slot: each list less one slot, then the whole list, of each row
        lists = np.concatenate([others[changed], at[:, None]], axis=1).T
        load = _left_to_right(pis[lists])
        score = _left_to_right([np.zeros(lists.shape[1:]), *corr[lists[is_], lists[js]]])
        less_load[changed], loads[changed] = load[:-1].T, load[-1]
        less_score[changed], scores[changed] = score[:-1].T, score[-1]

    def search():
        # the pass's first trial taken, as (a, a's list after, b, b's list
        # after), or None.  Rows are the dispensers (a, s), columns the rows b
        # to relocate onto, then the dispensers (b, t) to swap with; rows go
        # in blocks of 16, doubling, since most passes take a trial early
        flat = slots.ravel()
        disp = np.flatnonzero(flat != pad)  # a * width + s, in row-major order
        da, dg = disp // width, flat[disp]
        od = others.reshape(-1, width)[disp]  # each one's tile list less it
        ll, ls = less_load.ravel()[disp], less_score.ravel()[disp]
        lo, step = 0, 16
        while lo < len(disp):
            k = slice(lo, lo + step)
            a, g, pg, sa = da[k, None], dg[k], pis[dg[k], None], scores[da[k], None]
            onto = _left_to_right([scores, *corr[slots.T[:, None], g[:, None]]])
            reloc = (size < d_max) & (rows != a) & ~member[g] & (loads + pg <= mu_cap)
            reloc &= (ls[k, None] + onto) - (sa + scores) > EPS
            at_a = _left_to_right([ls[k, None], *corr[od[k].T[..., None], dg]])
            at_b = _left_to_right([ls, *corr[od.T[:, None], g[:, None]]])
            swap = (da != a) & ~member[dg, a] & ~member[g[:, None], da]
            swap &= (ll[k, None] + pis[dg] <= mu_cap) & (ll + pg <= mu_cap)
            swap &= (at_a + at_b) - (sa + scores[da]) > EPS
            hit = np.hstack([reloc, swap])
            if hit.any():
                r, c = divmod(int(hit.argmax()), n + len(disp))
                rest = [x for x in od[lo + r] if x != pad]
                if c < n:
                    return da[lo + r], rest, c, [*slots[c, : size[c]], g[r]]
                c -= n
                return da[lo + r], [*rest, dg[c]], da[c], [*(x for x in od[c] if x != pad), g[r]]
            lo, step = lo + step, 2 * step
        return None

    refresh(rows)
    while (move := search()) is not None:
        a, at_a, b, at_b = move
        for row, at in ((a, at_a), (b, at_b)):
            slots[row] = pad
            slots[row, : len(at)] = at
        refresh(np.array([a, b]))
    found = [tuple(names[x] for x in row[:k]) for row, k in zip(slots.tolist(), size.tolist()) if k]
    return found, _left_to_right(scores.tolist())
