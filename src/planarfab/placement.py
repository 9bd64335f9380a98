"""Assign packed tiles and interfaces to layout coordinates.

Two scorers are exposed: a stochastic fitness that simulates episodes of a
mover greedily-but-noisily visiting dispensers (next stop sampled with weight
1/distance, distance 0 weighing as 1, so co-located drugs are dispensed in one
visit), and an exact analytical cost that averages the optimal per-order path
value.  The stochastic scorer regularises towards placements whose second-best
routes are also short, which is what the operational level ends up using when
the nearest dispenser is busy.

The genetic search is permutation-encoded: every layout coordinate receives
exactly one of {packed tile, interface, empty filler}, so order crossover and
inversion mutation keep individuals valid by construction.

A generation's children are bred from the previous generation's scores only,
so ``ga_place`` breeds the whole generation first and scores its distinct
unseen placements in one ``fitness_batch`` call.  That call samples every
(placement, order) pair of the generation together, in stacks of pairs with
the same candidate-tile count, gathering distances from the layout's table
rows; ``fitness`` is its one-placement case.  Each pair keeps its own random
stream, so a score does not depend on the batch it was sampled in, and the GA
trace and placement are those of scoring one child at a time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from . import shppn
from .core import INTERFACE, Coord, Layout


@dataclass(frozen=True)
class Placement:
    """Physical configuration: which layout tile hosts which drugs / interface."""

    layout: Layout
    drug_tiles: dict[Coord, tuple[str, ...]]
    interfaces: frozenset[Coord]

    def __post_init__(self):
        for c in list(self.drug_tiles) + list(self.interfaces):
            if c not in self.layout.tiles:
                raise ValueError(f"placed cell {c} outside the layout")
        if set(self.drug_tiles) & set(self.interfaces):
            raise ValueError("interface tiles carry no dispensers")
        if len(self.interfaces) != self.layout.n_inter:
            raise ValueError(
                f"{len(self.interfaces)} interfaces placed, layout reserves {self.layout.n_inter}"
            )
        index: dict[str, list[Coord]] = {}
        for c, drugs in self.drug_tiles.items():
            for g in drugs:
                index.setdefault(g, []).append(c)
        object.__setattr__(self, "_by_drug", {g: tuple(sorted(v)) for g, v in index.items()})

    def dispensers_for(self, drug: str) -> tuple[Coord, ...]:
        return self._by_drug.get(drug, ())

    def drugs_at(self, tile: Coord) -> tuple[str, ...]:
        return self.drug_tiles.get(tile, ())

    def coords(self) -> list[Coord]:
        return sorted(set(self.drug_tiles) | self.interfaces)

    def to_json(self) -> str:
        cells = []
        for c in self.layout.sorted_tiles():
            if c in self.interfaces:
                cells.append({"coord": [c.x, c.y], "kind": INTERFACE, "drugs": []})
            elif c in self.drug_tiles:
                cells.append(
                    {"coord": [c.x, c.y], "kind": "tile", "drugs": list(self.drug_tiles[c])}
                )
        doc = {
            "layout": {
                "topology": self.layout.topology,
                "tiles": [[t.x, t.y] for t in self.layout.sorted_tiles()],
                "n_inter": self.layout.n_inter,
            },
            "cells": cells,
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "Placement":
        doc = json.loads(text)
        lay = doc["layout"]
        layout = Layout(
            frozenset(Coord(x, y) for x, y in lay["tiles"]),
            lay["n_inter"],
            lay.get("topology", "explicit"),
        )
        drug_tiles = {}
        interfaces = set()
        for cell in doc["cells"]:
            c = Coord(*cell["coord"])
            if cell["kind"] == INTERFACE:
                interfaces.add(c)
            else:
                drug_tiles[c] = tuple(cell["drugs"])
        return Placement(layout, drug_tiles, frozenset(interfaces))

    def signature(self) -> bytes:
        parts = [f"{c.x},{c.y}:{'|'.join(d)}" for c, d in sorted(self.drug_tiles.items())]
        parts += [f"I{c.x},{c.y}" for c in sorted(self.interfaces)]
        return hashlib.sha256(";".join(parts).encode()).digest()


@dataclass(frozen=True)
class PlacementScore:
    mean_steps: float
    per_order_steps: tuple[float, ...]
    episodes: int
    seed: int


@dataclass(frozen=True)
class GaParams:
    population: int = 150
    max_evaluations: int = 50_000
    episodes: int = 20
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    tournament: int = 3

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.max_evaluations < self.population:
            raise ValueError("max_evaluations must be >= population")


# --- stochastic fitness (episode sampler) ---------------------------------------

def fitness(placement: Placement, history, episodes: int, seed: int) -> PlacementScore:
    """Expected mover steps per order under inverse-distance routing episodes."""
    return fitness_batch([placement], history, episodes, [seed])[0]


# pairs x episodes x candidate tiles per sampler call: bounds the temporaries
_CHUNK = 1 << 13


def fitness_batch(placements, history, episodes: int, seeds) -> list[PlacementScore]:
    """``fitness`` of each placement under its own seed, sampled in one pass.

    The placements share one layout.  Every (placement, order) pair keeps its
    own stream, ``SeedSequence(seed, spawn_key=(order index,))``, which draws
    the start interfaces and then one block of uniforms that the steps consume
    in order; PCG64 doubles are not buffered, so this equals one draw per
    step.  Pairs are stacked only with pairs of the same candidate-tile count:
    padding rows to a common width would regroup numpy's pairwise sum of the
    weights.  Each score is therefore the one its placement gets alone.
    """
    placements, seeds, orders = list(placements), list(seeds), list(history)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if not placements:
        return []
    layout = placements[0].layout
    if any(pl.layout != layout for pl in placements):
        raise ValueError("placements of one batch must share a layout")
    if not layout.n_inter:
        raise ValueError("placement has no interfaces")
    index, table = layout.index_table
    interfaces = np.array(
        [[index[c] for c in sorted(pl.interfaces)] for pl in placements], dtype=np.int64
    )
    hosts = _hosts(placements, orders, index)

    # per candidate-tile count n: (placement rows, order index, drug count,
    # candidate tiles, their drug bitmasks), candidates ascending in table order
    stacks: dict[int, list[tuple]] = {}
    for oi, order in enumerate(orders):
        served = np.zeros((len(placements), len(index)), dtype=np.int64)  # drug bitmasks
        for bit, g in enumerate(order.drugs):
            held = hosts[g]
            if not held.any(axis=1).all():
                raise ValueError(f"no dispenser placed for drug {g!r}")
            served[held] |= 1 << bit
        counts = np.count_nonzero(served, axis=1)
        k = len(order.drugs)
        for n in set(counts.tolist()):  # not np.unique: it imports numpy.ma (~0.5 MB)
            rows = np.flatnonzero(counts == n)
            sub = served[rows].ravel()
            cand = np.flatnonzero(sub)
            stacks.setdefault(n, []).append((
                rows, np.full(len(rows), oi), np.full(len(rows), k),
                (cand % len(index)).reshape(-1, n), sub[cand].reshape(-1, n),
            ))

    per_order = np.zeros((len(placements), len(orders)))
    for n, parts in stacks.items():
        rows, cols, n_drugs, tiles, masks = (np.concatenate(f) for f in zip(*parts))
        size = max(1, _CHUNK // (n * episodes))
        for lo in range(0, len(rows), size):
            part = slice(lo, lo + size)
            keys = [(seeds[p], o, nd) for p, o, nd in zip(
                rows[part].tolist(), cols[part].tolist(), n_drugs[part].tolist()
            )]
            per_order[rows[part], cols[part]] = _sample_pairs(
                table, interfaces[rows[part]], tiles[part], masks[part],
                (1 << n_drugs[part]) - 1, _Uniforms(keys, layout.n_inter, episodes),
            )

    scores = []
    for steps, seed in zip(per_order.tolist(), seeds):
        mean = float(sum(steps) / len(steps)) if steps else 0.0
        scores.append(PlacementScore(mean, tuple(steps), episodes, seed))
    return scores


def _hosts(placements, orders, index) -> dict[str, np.ndarray]:
    """For each drug of the orders, placements x table rows: where it is dispensed."""
    drugs = {g for order in orders for g in order.drugs}
    hosts = {g: np.zeros((len(placements), len(index)), dtype=bool) for g in drugs}
    for p, pl in enumerate(placements):
        for g, tiles in pl._by_drug.items():
            if g in hosts:
                hosts[g][p, [index[t] for t in tiles]] = True
    return hosts


def _sample_pairs(table, interfaces, tiles, masks, full, uniforms) -> np.ndarray:
    """Mean episode steps of (placement, order) pairs with equal candidate counts.

    One row per pair: its interfaces, its candidate tiles (table rows), each
    candidate's drug bitmask and the bitmask of all the order's drugs.
    Episode arrays are pairs x episodes; distances are gathered from the
    layout's table rows at every step.
    """
    loc = np.take_along_axis(interfaces, uniforms.start, axis=1)
    remaining = np.repeat(full[:, None], loc.shape[1], axis=1)
    steps = np.zeros(loc.shape, dtype=np.int64)
    while True:
        alive = remaining != 0
        if not alive.any():
            break
        r, e = np.nonzero(alive)
        cand = tiles[r]
        d = table[loc[r, e][:, None], cand]
        usable = (masks[r] & remaining[r, e][:, None]) != 0
        pick = _choose(d, usable, uniforms.take(alive))
        k = np.arange(len(pick))
        steps[r, e] += d[k, pick]
        remaining[r, e] &= ~masks[r, pick]
        loc[r, e] = cand[k, pick]

    d = table[loc[:, :, None], interfaces[:, None, :]].reshape(loc.size, -1)
    pick = _choose(d, None, uniforms.take(np.ones(loc.shape, dtype=bool)))
    steps += d[np.arange(len(pick)), pick].reshape(loc.shape)
    return steps.sum(axis=1) / loc.shape[1]


def _choose(d, usable, u) -> np.ndarray:
    """Per row, the column sampled with weight 1/distance (0 weighing as 1)."""
    w = 1.0 / np.maximum(d, 1)
    if usable is not None:
        w[~usable] = 0.0
    r = u * w.sum(axis=1)
    return (np.cumsum(w, axis=1) > r[:, None]).argmax(axis=1)


def _stream(seed, order, n_interfaces, episodes):
    """A pair's generator and its uniform start interfaces, the stream's first draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(order,)))
    return rng, rng.integers(0, n_interfaces, size=episodes)


class _Uniforms:
    """Each pair's start interfaces and uniforms, handed out in stream order.

    ``keys`` holds each pair's (seed, order index, drug count).  An order of k
    drugs takes at most k steps per episode plus the return, so
    ``episodes * (k + 1)`` uniforms are drawn up front.  Only when rounding
    puts a draw past the last cumulative weight does a pick land on an
    unusable tile and cost an extra step; a block that runs dry is then
    extended by replaying the pair's stream.
    """

    def __init__(self, keys, n_interfaces, episodes):
        self.keys, self.n_interfaces, self.episodes = keys, n_interfaces, episodes
        self.length = np.array([episodes * (k + 1) for _, _, k in keys])
        self.block = np.empty((len(keys), int(self.length.max())))
        self.start = np.empty((len(keys), episodes), dtype=np.int64)
        for i, (seed, order, _) in enumerate(keys):
            rng, self.start[i] = _stream(seed, order, n_interfaces, episodes)
            rng.random(out=self.block[i, : self.length[i]])
        self.used = np.zeros(len(keys), dtype=np.int64)

    def take(self, mask) -> np.ndarray:
        """One uniform per True of ``mask`` (pairs x episodes), row-major."""
        need = self.used + mask.sum(axis=1)
        short = np.nonzero(need > self.length)[0]
        if len(short):
            grow = int(need.max()) - self.block.shape[1]
            if grow > 0:
                self.block = np.pad(self.block, ((0, 0), (0, grow)))
            for i in short:
                seed, order, _ = self.keys[i]
                rng, _ = _stream(seed, order, self.n_interfaces, self.episodes)
                self.block[i, : need[i]] = rng.random(need[i])
                self.length[i] = need[i]
        r, e = np.nonzero(mask)
        rank = np.cumsum(mask, axis=1)[r, e] - 1
        u = self.block[r, self.used[r] + rank]
        self.used = need
        return u


# --- exact analytical scorer -----------------------------------------------------

def analytical_cost(placement: Placement, history) -> float:
    """Mean optimal per-order path value (exact)."""
    kappas = per_order_kappa(placement, history)
    return sum(kappas) / len(kappas) if kappas else 0.0


def per_order_kappa(placement: Placement, history) -> list[int]:
    """Exact κ of each order, solved once per distinct drug set."""
    orders = list(history)
    solved: dict[tuple[str, ...], int] = {}
    for o in orders:
        if o.drugs not in solved:
            solved[o.drugs] = shppn.kappa(o, placement).kappa
    return [solved[o.drugs] for o in orders]


# --- genetic search ---------------------------------------------------------------

_EMPTY = ("__empty__",)
_IFACE = ("__interface__",)


@dataclass
class GaResult:
    placement: Placement
    best_fitness: float
    trace: list[tuple[int, float]]  # (generation, best fitness)
    evaluations: int


def _decode(perm, contents, coords, layout) -> Placement:
    drug_tiles = {}
    interfaces = set()
    for pos, gene in enumerate(perm):
        content = contents[gene]
        if content is _IFACE:
            interfaces.add(coords[pos])
        elif content is not _EMPTY:
            drug_tiles[coords[pos]] = content
    return Placement(layout, drug_tiles, frozenset(interfaces))


def order_crossover(p1: list[int], p2: list[int], rng: random.Random) -> list[int]:
    """OX1: copy a slice of p1, fill the remainder in p2's order."""
    n = len(p1)
    a, b = sorted(rng.sample(range(n), 2))
    child = [-1] * n
    child[a : b + 1] = p1[a : b + 1]
    used = set(child[a : b + 1])
    fill = [g for g in p2 if g not in used]
    it = iter(fill)
    for i in list(range(b + 1, n)) + list(range(a)):
        child[i] = next(it)
    return child


def inversion_mutation(perm: list[int], rng: random.Random) -> list[int]:
    n = len(perm)
    a, b = sorted(rng.sample(range(n), 2))
    return perm[:a] + perm[a : b + 1][::-1] + perm[b + 1 :]


def ga_place(packing, layout: Layout, history, ga_params: GaParams, seed: int) -> GaResult:
    """Permutation GA over placements, scored by the episode sampler."""
    used = [tuple(t) for t in packing.tiles if t]
    n_cells = len(layout.tiles)
    if len(used) + layout.n_inter > n_cells:
        raise ValueError(
            f"{len(used)} packed tiles + {layout.n_inter} interfaces exceed "
            f"{n_cells} layout tiles"
        )
    contents: list[tuple[str, ...]] = list(used)
    contents += [_IFACE] * layout.n_inter
    contents += [_EMPTY] * (n_cells - len(used) - layout.n_inter)
    coords = layout.sorted_tiles()

    rng = random.Random(seed)
    cache: dict[bytes, float] = {}

    def evaluate(perms) -> list[float]:
        # one sampler pass per generation; each unseen placement is scored once
        placed = [_decode(p, contents, coords, layout) for p in perms]
        sigs = [pl.signature() for pl in placed]
        fresh = {sig: pl for sig, pl in zip(sigs, placed) if sig not in cache}
        seeds = [int.from_bytes(sig[:4], "big") for sig in fresh]
        scored = fitness_batch(fresh.values(), history, ga_params.episodes, seeds)
        cache.update(zip(fresh, (s.mean_steps for s in scored)))
        return [cache[sig] for sig in sigs]

    n = len(contents)
    population = []
    for _ in range(ga_params.population):
        perm = list(range(n))
        rng.shuffle(perm)
        population.append(perm)
    scores = evaluate(population)
    evaluations = len(population)

    best_idx = min(range(len(scores)), key=scores.__getitem__)
    best_perm, best_score = list(population[best_idx]), scores[best_idx]
    trace = [(0, best_score)]
    generation = 0

    while evaluations < ga_params.max_evaluations:
        generation += 1
        # children breed from the previous generation's scores only, so the
        # whole generation is scored after it is bred
        children = []
        while 1 + len(children) < ga_params.population:  # elitism of one
            def pick():
                cand = rng.sample(range(len(population)), min(ga_params.tournament, len(population)))
                return min(cand, key=scores.__getitem__)

            pa, pb = population[pick()], population[pick()]
            if rng.random() < ga_params.crossover_rate:
                child = order_crossover(pa, pb, rng)
            else:
                child = list(pa)
            if rng.random() < ga_params.mutation_rate:
                child = inversion_mutation(child, rng)
            children.append(child)
            evaluations += 1
            if evaluations >= ga_params.max_evaluations:
                break
        population = [list(best_perm)] + children
        scores = [best_score] + evaluate(children)
        gen_best = min(range(len(scores)), key=scores.__getitem__)
        if scores[gen_best] < best_score:
            best_perm, best_score = list(population[gen_best]), scores[gen_best]
        trace.append((generation, best_score))

    return GaResult(
        _decode(best_perm, contents, coords, layout), best_score, trace, evaluations
    )


def trace_to_csv(trace) -> str:
    lines = ["generation,best_fitness"]
    lines += [f"{g},{f}" for g, f in trace]
    return "\n".join(lines) + "\n"
