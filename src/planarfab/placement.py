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


# --- stochastic fitness (episode sampler) ---------------------------------------

def fitness(placement: Placement, history, episodes: int, seed: int) -> PlacementScore:
    """Expected mover steps per order under inverse-distance routing episodes."""
    interfaces = sorted(placement.interfaces)
    if not interfaces:
        raise ValueError("placement has no interfaces")
    per_order = []
    orders = list(history)
    for oi, order in enumerate(orders):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(oi,)))
        per_order.append(_order_episodes(placement, order, interfaces, episodes, rng))
    mean = float(sum(per_order) / len(per_order)) if per_order else 0.0
    return PlacementScore(mean, tuple(per_order), episodes, seed)


def _order_episodes(placement, order, interfaces, episodes, rng) -> float:
    # candidate tiles = union of the order's dispenser alternatives,
    # each with a bitmask of the order's drugs it can serve
    drugs = order.drugs
    for g in drugs:
        if not placement.dispensers_for(g):
            raise ValueError(f"no dispenser placed for drug {g!r}")
    tile_mask: dict[Coord, int] = {}
    for bit, g in enumerate(drugs):
        for t in placement.dispensers_for(g):
            tile_mask[t] = tile_mask.get(t, 0) | (1 << bit)
    tiles = sorted(tile_mask)
    masks = np.array([tile_mask[t] for t in tiles], dtype=np.int64)

    n_i = len(interfaces)
    d_all = placement.layout.distances(list(interfaces) + tiles)
    to_tiles = d_all[:, n_i:]
    to_ifaces = d_all[:, :n_i]

    full = (1 << len(drugs)) - 1
    loc = rng.integers(0, n_i, size=episodes)  # uniform start interface
    remaining = np.full(episodes, full, dtype=np.int64)
    steps = np.zeros(episodes, dtype=np.int64)

    while True:
        alive = remaining != 0
        if not alive.any():
            break
        d = to_tiles[loc[alive]]
        usable = (masks[None, :] & remaining[alive, None]) != 0
        w = np.where(d == 0, 1.0, 1.0 / np.maximum(d, 1))
        w = np.where(usable, w, 0.0)
        totals = w.sum(axis=1)
        r = rng.random(alive.sum()) * totals
        pick = (np.cumsum(w, axis=1) > r[:, None]).argmax(axis=1)
        steps[alive] += d[np.arange(len(pick)), pick]
        remaining[alive] &= ~masks[pick]
        loc[alive] = n_i + pick

    d = to_ifaces[loc]
    w = np.where(d == 0, 1.0, 1.0 / np.maximum(d, 1))
    totals = w.sum(axis=1)
    r = rng.random(episodes) * totals
    pick = (np.cumsum(w, axis=1) > r[:, None]).argmax(axis=1)
    steps += d[np.arange(episodes), pick]
    return float(steps.sum() / episodes)


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

    def evaluate(perm) -> float:
        pl = _decode(perm, contents, coords, layout)
        sig = pl.signature()
        if sig not in cache:
            sub_seed = int.from_bytes(sig[:4], "big")
            cache[sig] = fitness(pl, history, ga_params.episodes, sub_seed).mean_steps
        return cache[sig]

    n = len(contents)
    population = []
    for _ in range(ga_params.population):
        perm = list(range(n))
        rng.shuffle(perm)
        population.append(perm)
    scores = [evaluate(p) for p in population]
    evaluations = len(population)

    best_idx = min(range(len(scores)), key=scores.__getitem__)
    best_perm, best_score = list(population[best_idx]), scores[best_idx]
    trace = [(0, best_score)]
    generation = 0

    while evaluations < ga_params.max_evaluations:
        generation += 1
        next_pop = [list(best_perm)]  # elitism of one
        next_scores = [best_score]
        while len(next_pop) < ga_params.population:
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
            next_pop.append(child)
            next_scores.append(evaluate(child))
            evaluations += 1
            if evaluations >= ga_params.max_evaluations:
                break
        population, scores = next_pop, next_scores
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
