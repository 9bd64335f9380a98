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

Both local searches (stage-1 improvement, stage-2 correlation search) keep
each tile's load (and stage-2 pair-correlation score) in a list.  A trial
move never edits a tile: it builds the lists the move would leave on the one
or two tiles it touches, sums them in that list order, and compares the load
profile (stage 1) or the total score (stage 2) with only those entries
replaced.  An accepted trial commits its lists.  A rejected one only moves
its items last on their tiles, as undoing the move would, and re-sums those
tiles, since a tile's sum follows its list order.  Every comparison
therefore sees the floats a full re-sum would give, and the searches return
the groupings they returned when every trial re-summed every tile.

Both searches also screen each trial before building its lists: when a
cheap test proves that the exact comparison must fail, the trial is
rejected unsummed, leaving what any rejected trial leaves.  Stage 1 screens
all of a dispenser's relocations off the peak tile at once, one array pass
over the tiles; the screen allows for the rounding of Python's float
``sum`` (recursive, or compensated from Python 3.12 on), so it never skips a
trial that the exact test could accept.  A stage-1 trial changes two entries
of the load profile; while the loads still hold the pass's profile (no
rejected trial's re-sum has changed a value), the new profile sorts first
exactly when the largest value whose count changes loses a copy, which those
two entries decide without sorting the profile.

Stage 2 runs each pass, the stretch between two accepted moves, as one array
pass.  Within a pass no tile changes its members, sizes or partner sums, so
every trial's load tests and screen are taken at once for a block of rows
(dispensers), in the scan's float expressions; Python walks the rows in scan
order and runs the scan itself only from a row's first trial that passes the
screen.  For the other rows it replays what their rejected trials leave: the
dispenser last on its tile when any trial was eligible, and on each other
tile the eligible swap partners last, in order.  A tile of one never
changes; a tile of two only needs its order, since float addition commutes
and, with an exactly symmetric catalog, its pair score is the same either
way; a tile of three or more (or of two, with an asymmetric catalog) is
re-summed in its new order before the scan reads a sum.  Such a re-sum can
move a load by a rounding error, and with it a load test: when a test of a
tile of three or more lies within that rounding of mu_cap, the pass runs
through the scan, one trial at a time.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate, compress
from dataclasses import dataclass

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

    @property
    def n_dispensers_used(self) -> int:
        return sum(len(t) for t in self.tiles)


def _canonical(tiles: list[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(t)) for t in tiles if t))


def _loads(tiles, pi) -> list[float]:
    return [sum(pi[g] for g in t) for t in tiles]


def _make_packing(tiles, z, pi, lower, exact, n_tiles, corr=None) -> Packing:
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
        corr,
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

    mode: "exact" forces branch and bound, "heuristic" forces local search,
    "auto" is exact up to 12 drugs x 12 tiles.
    """
    if drugs is None:
        drugs = sorted(demand.u)
    drugs = sorted(set(drugs))
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

    use_exact = mode == "exact" or (mode == "auto" and n_drugs <= 12 and n_tiles <= 12)
    if use_exact:
        result = _exact_min_load(u, drugs, n_tiles, config.d_max, z_cap, budget, lower)
        if result is not None:
            tiles, z = result
            pi = {g: (u[g] / z[g] if z[g] else 0.0) for g in drugs}
            return _make_packing(tiles, z, pi, lower, True, n_tiles)
    tiles, z = _heuristic_min_load(
        u, drugs, n_tiles, config.d_max, z_cap, budget, seed, restarts
    )
    pi = {g: (u[g] / z[g] if z[g] else 0.0) for g in drugs}
    return _make_packing(tiles, z, pi, lower, False, n_tiles)


def _certified_lower_bound(u, drugs, n_tiles, z_cap, budget) -> float:
    per_drug_cap = min(z_cap, budget - (len(drugs) - 1))
    lb1 = max((u[g] / max(1, per_drug_cap) for g in drugs), default=0.0)
    lb2 = sum(u.values()) / n_tiles
    return max(lb1, lb2)


def _exact_min_load(u, drugs, n_tiles, d_max, z_cap, budget, lower):
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
            quick = max(quick, sum(u.values()) / min(n_tiles, spent) if spent else 0.0)
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
    total = sum(pi[g] for g in items)
    best = {"mu": incumbent_mu, "tiles": None}
    bins: list[list[str]] = []
    loads: list[float] = []

    def dfs(i, cur_max, remaining):
        counter["nodes"] += 1
        if counter["nodes"] > NODE_CAP:
            return
        lb = max(cur_max, (sum(loads) + remaining) / n_tiles)
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
    # multiplicity: repeatedly add a dispenser to the currently heaviest drug
    z = {g: 1 for g in drugs}
    spent = len(drugs)
    while spent < budget:
        cand = max(drugs, key=lambda g: (u[g] / z[g], g))
        if z[cand] >= z_cap or u[cand] == 0.0:
            break
        z[cand] += 1
        spent += 1
    pi = {g: u[g] / z[g] for g in drugs}
    items = [g for g in drugs for _ in range(z[g])]

    rng = random.Random(seed)
    best_tiles, best_profile = None, None
    for attempt in range(max(1, restarts)):
        ordered = sorted(items, key=lambda g: (-pi[g], g))
        if attempt:
            rng.shuffle(ordered)
        tiles = _lpt_fill(ordered, pi, n_tiles, d_max)
        if tiles is None:
            continue
        tiles = _improve_min_load(tiles, pi, n_tiles, d_max)
        profile = tuple(sorted((_loads(tiles, pi)), reverse=True))
        if best_profile is None or profile < best_profile:
            best_profile, best_tiles = profile, tiles
    if best_tiles is None:
        raise PackingInfeasible("could not fit dispensers into tiles")
    return best_tiles, z


def _lpt_fill(items, pi, n_tiles, d_max):
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


def _without(t, g):
    """Tile list t less the drug g (a tile holds each drug at most once)."""
    return [x for x in t if x != g]


def _improve_min_load(tiles, pi, n_tiles, d_max):
    tiles = [list(t) for t in tiles]
    loads = [sum(pi[g] for g in t) for t in tiles]
    steady = True  # loads holds the floats of the pass's profile cur

    def to_end(ti, g):
        # what a rejected trial leaves behind: g last on its tile
        nonlocal steady
        if tiles[ti][-1] != g:
            tiles[ti].remove(g)
            tiles[ti].append(g)
            was, loads[ti] = loads[ti], sum(pi[h] for h in tiles[ti])
            steady = steady and loads[ti] == was

    def lowers(cur, peak, ti, at_peak, at_ti):
        # commits the trial leaving at_peak on the peak and at_ti on tile ti
        # (a new tile when ti == len(tiles)) if its load profile, with those
        # two loads summed in list order, sorts before cur
        new = sum(pi[h] for h in at_ti)
        if new > cur[0]:  # it would lead the profile, which then sorts after cur
            return False
        rest = sum(pi[h] for h in at_peak)
        # while loads holds cur's floats, the entries the trial replaces
        # decide: the profile sorts first iff the largest value whose count
        # changes loses a copy, that is iff the new entries sort first (a
        # new tile's entry counts as added)
        if steady and not sorted((rest, new), reverse=True) < sorted(
            (loads[peak], loads[ti]) if ti < len(tiles) else (loads[peak],), reverse=True
        ):
            return False
        after = loads[:] if ti < len(tiles) else [*loads, new]
        after[peak], after[ti] = rest, new
        if not (steady or tuple(sorted(after, reverse=True)) < cur):
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
        steady = True
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
    """
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
        best_gain[g] = sum(partners[: max(0, d_max - 1)])
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
            gain = sum(corr[idx[g], idx[h]] for h in b)
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


def _screen_margin(corr, n_tiles, d_max) -> float:
    """How far the exact test's ``sum(scores) - cur`` can exceed a trial's
    estimated gain, for the drugs' correlation matrix ``corr``.

    Both totals are float sums of at most ``pairs`` co-located correlations
    of magnitude at most ``cmax``, each term passing through at most
    n_tiles + d_max**2 additions; the gain adds four partner sums (d_max
    terms each, plus padding zeros) and one pair term.  By the recursive
    summation bound |fl(sum x) - sum x| <= gamma_k * sum |x|, with
    gamma_k = k u / (1 - k u) <= 2 k u for the unit roundoff u = 2**-53, each
    lies within the terms below of its real value, and the real totals differ
    by exactly the real gain.  A catalog symmetric only up to rounding adds
    ``asym`` per pair, since a tile's sum takes each pair in list order.  The
    bound is doubled for the rounding of ``EPS - margin`` itself.
    """
    if not len(corr):
        return 0.0
    cmax = float(np.abs(corr).max())
    asym = float(np.abs(corr - corr.T).max())
    pairs = n_tiles * d_max * (d_max - 1) // 2
    gamma = 2.0**-52  # 2u: gamma_k <= k * gamma while k u <= 1/2
    total = (n_tiles + d_max * d_max) * gamma * pairs * cmax
    gain = (len(corr) + 6) * gamma * (4 * d_max + 2) * cmax
    return 2 * (2 * total + gain + 2 * pairs * asym)


def _local_search_correlation(tiles, pi, catalog, n_tiles, d_max, mu_cap):
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
    # a reordered tile of two keeps its load (float addition commutes) and,
    # with an exactly symmetric catalog, its score; a larger tile's sums
    # follow its order
    asym = not np.array_equal(sub, sub.T)
    twice = 2 * sub
    pis = np.array([pi[g] for g in col], dtype=float)
    slack = (d_max + 2) * 2.0**-50  # stage 1's allowance for two orders of a sum
    steadies = {}

    def steady(t, at):
        # whether every load test reads the same for any order of the tile
        # list t of three or more, given its load at, which a re-sum in
        # another order moves by less than spread.  The tests, that load
        # (less one of t's dispensers) plus any dispenser's pi against
        # mu_cap, are monotone in it, so they are taken at both ends
        key = (frozenset(t), at)
        if key not in steadies:
            spread = slack * sum(abs(pi[g]) for g in t)
            lo, hi = (np.array([x, *(x - pi[g] for g in t)])[:, None] + pis > mu_cap
                      for x in (at - spread, at + spread))
            steadies[key] = bool((lo == hi).all())
        return steadies[key]

    def trials(cur, part, a, g, relocs, swaps):
        # g's trials off tile a in scan order: relocations onto the tiles
        # relocs (len(tiles): a new tile), then swaps with the dispensers of
        # the tiles swaps; True once one is accepted
        ig = col[g]
        for b in relocs:
            if b == a:
                continue
            if b < len(tiles) and (
                len(tiles[b]) >= d_max or g in tiles[b] or loads[b] + pi[g] > mu_cap
            ):
                continue
            gain = (part[b][ig] if b < len(tiles) else 0.0) - part[a][ig]
            if gain > floor and raises(
                cur, a, b, _without(tiles[a], g), [*tiles[b], g] if b < len(tiles) else [g]
            ):
                kept = [i for i, t in enumerate(tiles) if t]
                tiles[:] = [tiles[i] for i in kept]
                scores[:] = [scores[i] for i in kept]
                loads[:] = [loads[i] for i in kept]
                return True
            to_end(a, g)
        for b in swaps:
            if b == a:
                continue
            for h in list(tiles[b]):
                if h == g or h in tiles[a] or g in tiles[b]:
                    continue
                if loads[a] - pi[g] + pi[h] > mu_cap:
                    continue
                if loads[b] - pi[h] + pi[g] > mu_cap:
                    continue
                # gain: h joins a's partners other than g, g joins b's other
                # than h; part counts g-h on both sides
                ih = col[h]
                gain = part[a][ih] - part[a][ig] + part[b][ig] - part[b][ih]
                if gain - 2 * corr[idx[g]][idx[h]] > floor and raises(
                    cur, a, b, [*_without(tiles[a], g), h], [*_without(tiles[b], h), g]
                ):
                    return True
                to_end(a, g)
                to_end(b, h)
        return False

    def sweep(cur):
        # one pass, up to its first accepted move (True) or to its end.  Rows
        # r are the dispensers (a, g) in tile order, columns the tiles b or
        # the dispensers (b, h).  Rows are screened in blocks of whole tiles,
        # doubling, since most passes accept a move within their first rows
        n = len(tiles)
        new = [n] if n < n_tiles else []
        items = [g for t in tiles for g in t]
        if not items:
            return False
        sizes = [len(t) for t in tiles]
        first = [0, *accumulate(sizes)]
        size = np.array(sizes)
        ta = np.repeat(np.arange(n), size)
        ca = np.fromiter(map(col.__getitem__, items), np.intp, len(items))
        pa = np.fromiter(map(pi.__getitem__, items), float, len(items))
        member = np.full((n, d_max), len(col))
        member[ta, np.arange(len(items)) - np.array(first)[ta]] = ca
        part = partner[member].sum(axis=1)
        has = np.zeros((n, len(col)), dtype=bool)
        has[ta, ca] = True
        on = has[:, ca]  # on[b, s]: dispenser s's drug is on tile b
        across = part[:, ca]  # across[b, s] = part[b][col of s's drug]
        own = part[ta, ca]  # part[a][col[g]] of each row
        level = np.array(loads, dtype=float)
        tail = level[ta] - pa  # each dispenser's tile load less its pi
        room = size < d_max
        twos = [(b, first[b]) for b, m in enumerate(sizes) if m == 2]
        pair = np.array([k for _, k in twos], dtype=np.intp)  # first dispenser of each
        bigs = [b for b, m in enumerate(sizes) if m > 2]
        inbig = [k for b in bigs for k in range(first[b], first[b + 1])]
        ends = list(accumulate(sizes[b] for b in bigs))
        spans = list(zip(bigs, [0, *ends], ends))  # each one's dispensers in inbig
        dealt = [items[k] for k in inbig]
        sensitive = [b for b, m in enumerate(sizes) if m > 2 or asym and m == 2]

        def resum():
            for t in sensitive:
                scores[t], loads[t] = tile_score(tiles[t]), load(tiles[t])

        def replay(flip, last, deal, below):
            # a rejected swap moves its partner h last on h's tile: the moves
            # of one row's rejected swaps onto the tiles before below.  A tile
            # of two changes when one of its dispensers is an eligible
            # partner (flip; last: the second one), a larger tile when some
            # are (deal)
            for (b, k), second in compress(zip(twos, last), flip):
                if b >= below:
                    break
                t = tiles[b]
                if t[1] != items[k + second]:
                    t.reverse()
            for b, lo, hi in spans:
                if b < below:
                    s = set(compress(dealt[lo:hi], deal[lo:hi]))
                    t = tiles[b]
                    tiles[b] = [x for x in t if x not in s] + [x for x in t if x in s]

        if not all(steady(tiles[b], loads[b]) for b in bigs):
            for a in range(n):
                for g in list(tiles[a]):
                    if trials(cur, part, a, g, range(n + len(new)), range(n)):
                        return True
            return False

        a0, width = 0, 16
        while a0 < n:
            a1 = min(n, bisect_left(first, first[a0] + width))
            rows = slice(first[a0], first[a1])
            ra, rc, rp, mine = ta[rows], ca[rows], pa[rows], own[rows]
            # every test of the scan, then its screen, in the scan's float
            # expressions, for each trial of the block's rows
            g_on = on[:, rows].T  # g's drug on tile b
            reloc = ~(g_on | (level + rp[:, None] > mu_cap)) & room
            swap = ~(
                on[ra] | g_on[:, ta] | (tail[rows][:, None] + pa > mu_cap)
                | (tail + rp[:, None] > mu_cap)
            )
            onto = across[:, rows].T  # part[b][col[g]]
            hop = reloc & (onto - mine[:, None] > floor)
            gain = across[ra] - mine[:, None] + onto[:, ta] - own - twice[rc][:, ca]
            jump = swap & (gain > floor)
            hit = hop.any(1) | jump.any(1)
            busy = reloc.any(1) | swap.any(1)
            if new:
                fresh = 0.0 - mine > floor  # onto a new tile
                hit |= fresh
                busy[:] = True
            hit, busy = hit.tolist(), busy.tolist()
            last = swap[:, pair + 1]
            flips = (swap[:, pair] != last).tolist()
            lasts, deals = last.tolist(), swap[:, inbig].tolist()
            for a in range(a0, a1):
                for g in list(tiles[a]):
                    r = items.index(g, first[a], first[a + 1]) - first[a0]  # g's row
                    if not hit[r]:
                        # every trial fails: replay what the rejected trials leave
                        t = tiles[a]
                        if busy[r] and t[-1] != g:
                            t.remove(g)
                            t.append(g)
                        replay(flips[r], lasts[r], deals[r], n)
                        continue
                    # a trial passes the screen.  The row's trials before the
                    # first such one leave g last on a, as the first will,
                    # and their swap partners last: replay those, then scan
                    # the rest of the row
                    to_end(a, g)
                    relocs = np.flatnonzero(reloc[r]).tolist() + new
                    swaps = list(dict.fromkeys(ta[swap[r]].tolist()))
                    hops = np.flatnonzero(hop[r]).tolist() + (new if new and fresh[r] else [])
                    if hops:
                        relocs = relocs[relocs.index(hops[0]):]
                    else:
                        b0 = int(ta[np.argmax(jump[r])])
                        replay(flips[r], lasts[r], deals[r], b0)
                        relocs, swaps = [], swaps[swaps.index(b0):]
                    resum()
                    if trials(cur, part, a, g, relocs, swaps):
                        return True
            a0, width = a1, 2 * width
        resum()
        return False

    while sweep(sum(scores)):
        pass
    return [tuple(t) for t in tiles if t], sum(scores)
