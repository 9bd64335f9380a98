"""Assign packed tiles and interfaces to layout coordinates.

Two scorers are exposed: a stochastic fitness that simulates episodes of a
mover greedily-but-noisily visiting dispensers (next stop sampled with weight
1/distance, distance 0 weighing as 1, so co-located drugs are dispensed in one
visit), and an exact analytical cost that averages the optimal per-order path
value.  What was measured of the two (30-order history, 300 GA evaluations,
100 held-out orders scheduled on 8 movers, seeds 1-4): on an 8x8 square
grid and a 64-tile line, a GA on the sampler gives a summed makespan no
worse than a GA on the exact cost (30,307 against 30,340 and 32,174 against
32,372), and only 0.4% and 1.4% below a random shuffle of the packed tiles.
At 4 movers the sampler was no worse than the exact cost either.

The genetic search is permutation-encoded: every layout coordinate receives
exactly one of {packed tile, interface, empty filler}, so order crossover and
inversion mutation keep individuals valid by construction.  A gene is an
index into that list of contents, and position i of a permutation is table
row i of the layout (``sorted_tiles()``, the ``index_table`` order).

A generation's children are bred from the previous generation's scores only,
so ``ga_place`` breeds the whole generation first and keeps it as one int
array of permutations up to its scores: each child's signature (its cache key
and seed) is joined from coordinate and content strings built once per call
(``_signer``), and its distinct unseen placements are scored by ``_score``
on the array itself.
Only the returned best is decoded to a ``Placement``.  ``fitness_batch``
maps its placements onto the same placement x table row -> gene arrays and
calls the same scorer; ``fitness`` is its one-placement case.

The scorer samples every (placement, order) pair of its batch together, in
one stack per candidate-tile count that holds the pairs of every order and
placement with that count.  Each order's candidate tiles come from one
gather of an order x gene bitmask table, which is built once per call from
the gene x drug membership (``_Genes``, ``_stacks``).  The pairs of a stack
may come in any order: each draws from its own stream and sums its own
weight rows.  Each chunk of a stack gathers once, per pair, the distances
from its interfaces and candidates (its slots) to its candidates and
interfaces, with their weights.  Every step reads whole rows of these tables
for the alive episodes, kept in flat arrays, and takes their uniforms from
one counter per pair.

Each pair keeps its own random stream, so a score does not depend on the
batch it was sampled in, and the GA trace and placement are those of
scoring one child at a time.  The stream is counter-based (Salmon et al.
2011): a pair's key is a 64-bit mix of its seed's two halves and its order
index, and its draw j is SplitMix64's output function (Steele, Lea & Flood
2014) of key + j * 0x9E3779B97F4A7C15, whose top 53 bits give a uniform.
Any draw of any pair is one hash of integers, computed for every alive
episode of a chunk at once, and the same on every platform and Python.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from . import shppn
from .core import INTERFACE, Coord, Layout, check_json

# the contents of GA genes that are no packed tile, compared by identity
_EMPTY = ("__empty__",)
_IFACE = ("__interface__",)


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
        doc = check_json(json.loads(text), {
            "layout": {"tiles": [[int]], "n_inter": int, "topology": str},
            "cells": [{"coord": [int], "kind": str, "drugs": [str]}],
        })
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
            if c in interfaces or c in drug_tiles:
                raise ValueError(f"cell {tuple(c)} is listed twice")
            if cell["kind"] == INTERFACE:
                interfaces.add(c)
            elif cell["kind"] == "tile":
                drug_tiles[c] = tuple(cell["drugs"])
            else:
                raise ValueError(f"cell {tuple(c)} has unknown kind {cell['kind']!r}")
        return Placement(layout, drug_tiles, frozenset(interfaces))

    def signature(self) -> bytes:
        """The GA's cache key and seed source for this placement (``_signatures``)."""
        tiles, interfaces = sorted(self.drug_tiles), sorted(self.interfaces)
        xy, drugs = _signature_strings(tiles + interfaces, [self.drug_tiles[c] for c in tiles])
        return _signatures(xy[None, : len(tiles)], drugs[None], xy[None, len(tiles) :])[0]


def _signature_strings(coords, contents):
    """Object arrays of the strings that signatures join: each coordinate's
    ``x,y`` and each content's ``:`` and drugs joined by ``|``."""
    xy, drugs = np.empty(len(coords), dtype=object), np.empty(len(contents), dtype=object)
    xy[:] = [f"{c.x},{c.y}" for c in coords]
    drugs[:] = [":" + "|".join(d) for d in contents]
    return xy, drugs


def _signatures(tile_xy, tile_drugs, interface_xy) -> list[bytes]:
    """sha256 of each row's parts joined by ``;``: its drug tiles'
    ``x,y:drugs``, then its interfaces' ``Ix,y``, each in sorted ``Coord``
    order (object arrays, one row per placement).  Drug names hold neither
    ``|`` nor ``;`` (``ga_place`` checks), so distinct placements have
    distinct signatures."""
    tiles, interfaces = (tile_xy + tile_drugs).tolist(), ("I" + interface_xy).tolist()
    return [hashlib.sha256(";".join(t + i).encode()).digest() for t, i in zip(tiles, interfaces)]


@dataclass(frozen=True)
class PlacementScore:
    mean_steps: float
    per_order_steps: tuple[float, ...]
    episodes: int
    seed: int


CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.2
TOURNAMENT = 3  # parents are the fittest of this many distinct draws


@dataclass(frozen=True)
class GaParams:
    population: int = 150
    max_evaluations: int = 50_000
    episodes: int = 20

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


# a stack (every pair of one candidate count, across orders and placements)
# is sampled in chunks of at most _CHUNK pairs x max(episodes, slots) x
# candidates, which bounds the episode arrays and the slot tables; a chunk
# may start at any pair, as the pairs of a stack are independent
_CHUNK = 1 << 15


def fitness_batch(placements, history, episodes: int, seeds) -> list[PlacementScore]:
    """``fitness`` of each placement under its own seed, sampled in one pass.

    The placements share one layout; seeds are integers in [0, 2**128), one
    per placement.  The placements are mapped onto a gene array, placement x
    table row -> index into a list of contents (``_Genes``), and scored by
    ``_score``, the scorer that ``ga_place`` calls on its permutation arrays.
    """
    placements, seeds = list(placements), list(seeds)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if len(seeds) != len(placements):
        raise ValueError(f"{len(seeds)} seeds for {len(placements)} placements")
    if not placements:
        return []
    layout = placements[0].layout
    if any(pl.layout != layout for pl in placements):
        raise ValueError("placements of one batch must share a layout")
    genes, contents = _as_genes(placements, layout.index_table[0])
    return _score(genes, _Genes(contents, history), layout, episodes, seeds)


def _as_genes(placements, index):
    """Placements as a gene array, placement x table row, and its contents:
    gene 0 is ``_EMPTY``, gene 1 ``_IFACE``, then each distinct drug tuple."""
    tiles: dict[tuple, int] = {}
    genes = np.zeros((len(placements), len(index)), dtype=np.intp)
    for p, pl in enumerate(placements):
        for c, drugs in pl.drug_tiles.items():
            genes[p, index[c]] = tiles.setdefault(drugs, len(tiles) + 2)
        genes[p, [index[c] for c in pl.interfaces]] = 1
    return genes, [_EMPTY, _IFACE, *tiles]


class _Genes:
    """What each gene (an index into ``contents``: a drug tuple, ``_IFACE``
    or ``_EMPTY``) holds, for the orders of one scoring call.

    ``iface`` flags the interface genes.  ``membership`` is the gene x drug
    membership of the orders' drugs, in order of first appearance;
    ``masks`` folds it over each order: entry (order, gene) is the bitmask
    of the order's drugs that the gene dispenses, drug k of the order at
    bit k, in the narrowest unsigned type that holds an order's bits.
    """

    def __init__(self, contents, history):
        self.orders = list(history)
        self.iface = np.array([c is _IFACE for c in contents])
        self.drugs = list(dict.fromkeys(g for o in self.orders for g in o.drugs))
        column = {g: i for i, g in enumerate(self.drugs)}
        # gene x drug, plus an empty column that pads orders to width
        membership = np.zeros((len(contents), len(column) + 1), dtype=bool)
        for gene, content in enumerate(contents):
            if content is not _IFACE and content is not _EMPTY:
                membership[gene, [column[g] for g in content if g in column]] = True
        width = max((len(o.drugs) for o in self.orders), default=0)
        members = np.full((len(self.orders), width), len(column))
        for oi, order in enumerate(self.orders):
            members[oi, : len(order.drugs)] = [column[g] for g in order.drugs]
        mask_type = np.min_scalar_type((1 << width) - 1)
        self.masks = np.zeros((len(self.orders), len(contents)), dtype=mask_type)
        for bit in range(width):
            self.masks |= membership[:, members[:, bit]].T.astype(mask_type) << bit
        self.membership = membership[:, :-1]


def _score(genes, held: _Genes, layout, episodes, seeds) -> list[PlacementScore]:
    """``fitness`` of each row of a gene array, under its own seed.

    Row p, column i of ``genes`` is the gene on table row i of placement p
    (``layout.index_table``, which is ``sorted_tiles()`` order), so a GA
    permutation is a row as it is.  A placement's interfaces are the
    positions of its interface genes, ascending.

    Every (placement, order) pair keeps its own counter-based stream, keyed
    by the placement's seed and the order index (``_pair_keys``): draws 0 to
    ``episodes - 1`` give the start interfaces, and the steps take the draws
    after them in the order they ask for them.  Each chunk builds one
    ``_Uniforms`` that hashes the counters of the draws it hands out; no
    generator is built and no block of draws is held.

    All pairs with the same candidate-tile count n form one stack, across
    orders and placements (``_stacks``), so no row is padded.  Within a
    stack the order of the pairs is free, because a pair draws from its own
    stream and each of its weight rows is summed on its own, so each score
    is the one its placement gets alone.  A placement's mean adds its orders
    left to right (``cumsum``), as ``sum()`` did before Python 3.12
    compensated it.
    """
    if not len(genes):
        return []
    if not layout.n_inter:
        raise ValueError("placement has no interfaces")
    keys = _seed_keys(seeds)
    present = np.zeros((len(genes), len(held.iface)), dtype=bool)
    present[np.arange(len(genes))[:, None], genes] = True
    everywhere = (present @ held.membership).all(axis=0)
    for g, placed in zip(held.drugs, everywhere.tolist()):
        if not placed:
            raise ValueError(f"no dispenser placed for drug {g!r}")

    _, table = layout.index_table
    orders = held.orders
    interfaces = np.nonzero(held.iface[genes])[1].reshape(len(genes), layout.n_inter)
    n_drugs = np.array([len(o.drugs) for o in orders], dtype=np.int64)
    per_order = np.zeros((len(genes), len(orders)))
    stacks = _stacks(genes, held.masks)
    for rows, cols, tiles, masks in _chunks(stacks, episodes, layout.n_inter):
        full = ((1 << n_drugs[cols]) - 1).astype(masks.dtype)
        uniforms = _Uniforms(_pair_keys(keys[rows], cols), layout.n_inter, episodes)
        per_order[rows, cols] = _sample_pairs(
            table, interfaces[rows], tiles, masks, full, uniforms
        )

    means = np.cumsum(per_order, axis=1)[:, -1] / len(orders) if orders else np.zeros(len(genes))
    return [
        PlacementScore(mean, tuple(steps), episodes, seed)
        for mean, steps, seed in zip(means.tolist(), per_order.tolist(), seeds)
    ]


def _stacks(genes, masks) -> dict[int, tuple]:
    """Per candidate-tile count n, every (placement, order) pair with n
    candidates: (placement rows, order indices, candidate tiles, their drug
    bitmasks), one pair per row, candidates ascending in table order.

    ``genes`` is placement x table row (``_score``), ``masks`` order x gene
    (``_Genes.masks``).  One gather, ``masks[:, genes]``, gives each order's
    served plane: per placement and table row, the bitmask of the order's
    drugs that the tile dispenses.  The nonzero tiles are the pair's
    candidates.
    """
    served = masks[:, genes]
    counts = np.count_nonzero(served, axis=2)
    stacks = {}
    for n in set(counts.ravel().tolist()):  # not np.unique: it imports numpy.ma (~0.5 MB)
        cols, rows = np.nonzero(counts == n)
        sub = served[cols, rows]
        tiles = np.nonzero(sub)[1].reshape(-1, n)
        stacks[n] = (rows, cols, tiles, np.take_along_axis(sub, tiles, axis=1))
    return stacks


def _chunks(stacks, episodes, n_inter):
    """Each stack's pairs as (placement rows, order indices, tiles, masks),
    in chunks of at most ``_CHUNK`` samples or slot-table entries."""
    for n in list(stacks):
        stack = stacks.pop(n)
        size = max(1, _CHUNK // (n * max(episodes, n_inter + n)))
        for lo in range(0, len(stack[0]), size):
            yield tuple(a[lo : lo + size] for a in stack)


def _sample_pairs(table, interfaces, tiles, masks, full, uniforms) -> np.ndarray:
    """Mean episode steps of (placement, order) pairs with equal candidate counts.

    One row per pair: its interfaces, its candidate tiles (table rows), each
    candidate's drug bitmask and the bitmask of all the order's drugs.  A
    pair's slots are its interfaces followed by its candidates; the
    distances from every slot to every candidate and to every interface, and
    their weights, are gathered once, one table row per (pair, slot).  Only
    the alive episodes are stepped, in flat arrays in row-major order.
    """
    (pairs, n_inter), n = interfaces.shape, tiles.shape[1]
    episodes = uniforms.start.shape[1]
    slots = np.concatenate([interfaces, tiles], axis=1)
    to_tiles = table[slots[:, :, None], tiles[:, None, :]].reshape(-1, n)
    to_inter = table[slots[:, :, None], interfaces[:, None, :]].reshape(-1, n_inter)
    first = np.arange(pairs) * slots.shape[1]  # each pair's first row
    every = np.repeat(np.arange(pairs), episodes)  # pair row of each flat index
    loc, total = (first[:, None] + uniforms.start).ravel(), np.zeros(every.size, dtype=np.int64)
    # alive episodes: pair row, slot-table row, drugs left, steps, flat index
    row, at, left, steps, flat = every, loc.copy(), full[every], total.copy(), np.arange(every.size)
    weights = _weights(to_tiles)
    while True:
        done = left == 0
        if done.any():  # retired: slot row and steps written once
            gone, keep = flat[done], ~done
            loc[gone], total[gone] = at[done], steps[done]
            row, at, left, steps, flat = row[keep], at[keep], left[keep], steps[keep], flat[keep]
        if not len(row):
            break
        bits = masks.take(row, axis=0)
        w = weights.take(at, axis=0)
        w *= (bits & left[:, None]) != 0  # unusable tiles weigh 0
        pick = _choose(w, uniforms.take(row))
        steps += to_tiles.take(at * n + pick)
        left &= ~bits.take(np.arange(0, bits.size, n) + pick)
        at = first[row] + n_inter + pick

    w = _weights(to_inter).take(loc, axis=0)
    pick = _choose(w, uniforms.take(every))
    total += to_inter.take(loc * n_inter + pick)
    return total.reshape(pairs, episodes).sum(axis=1) / episodes


def _weights(d) -> np.ndarray:
    """Sampling weight 1/distance of each distance, 0 weighing as 1."""
    return 1.0 / np.maximum(d, 1)


def _choose(w, u) -> np.ndarray:
    """Per row, the column sampled with the row's weights ``w``.

    ``r`` scales the uniform by the last cumulative weight, not by a
    separate sum, so it stays below it and the first cumulative weight above
    ``r`` is always a column of positive weight.
    """
    c = np.cumsum(w, axis=1)
    r = u * c[:, -1]
    return (c > r[:, None]).argmax(axis=1)


# --- per-pair random streams ----------------------------------------------------
#
# A counter-based stream (Salmon et al. 2011): draw j of a pair is SplitMix64's
# output function (Steele, Lea & Flood 2014) of key + j * _GAMMA, so any draw
# of any pair is computed directly, in wrapping uint64 arithmetic that every
# platform shares.  The multiplies run on arrays only: a numpy scalar that
# wraps warns of an overflow.

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(z) -> np.ndarray:
    """SplitMix64's output function of each entry of a uint64 array."""
    z = (z ^ (z >> 30)) * _MIX_A
    z = (z ^ (z >> 27)) * _MIX_B
    return z ^ (z >> 31)


def _seed_keys(seeds) -> np.ndarray:
    """Each seed's 64-bit key: its high half mixed, xor its low half, mixed."""
    seeds = [int(s) for s in seeds]
    if any(not 0 <= s < 1 << 128 for s in seeds):
        raise ValueError("seeds must be integers in [0, 2**128)")
    high = np.array([s >> 64 for s in seeds], dtype=np.uint64)
    low = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    return _mix(_mix(high) ^ low)


def _pair_keys(seed_keys, orders) -> np.ndarray:
    """The key of each (seed key, order index) pair: output ``order`` of
    SplitMix64 seeded with the seed key."""
    return _mix(seed_keys + (np.asarray(orders).astype(np.uint64) + 1) * _GAMMA)


def _stream(keys, counters) -> np.ndarray:
    """Draw ``counters`` of the streams ``keys`` as uniforms in [0, 1): the top
    53 bits of each hash, times 2**-53."""
    return (_mix(keys + counters.astype(np.uint64) * _GAMMA) >> 11).astype(np.float64) * 2.0**-53


class _Uniforms:
    """Each pair's start interfaces and uniforms, handed out in stream order.

    Draws 0 to ``episodes - 1`` of a pair give its start interfaces,
    ``floor(u * n_interfaces)``; ``take`` hands out its draws from
    ``episodes`` on, and ``used`` counts each pair's draws so far.
    """

    def __init__(self, keys, n_interfaces, episodes):
        self.keys = keys
        first = _stream(keys[:, None], np.arange(episodes))
        self.start = (first * n_interfaces).astype(np.int64)
        self.used = np.full(len(keys), episodes, dtype=np.int64)

    def take(self, rows) -> np.ndarray:
        """Each pair's next uniforms in stream order, one per entry of ``rows``
        (pair indices, ascending)."""
        counts = np.bincount(rows, minlength=len(self.used))
        # entry i of pair r is its draw used[r] + i - (r's first entry)
        skip = self.used - np.cumsum(counts) + counts
        self.used += counts
        return _stream(self.keys[rows], skip[rows] + np.arange(len(rows)))


# --- exact analytical scorer -----------------------------------------------------

def analytical_cost(placement: Placement, history) -> float:
    """Mean optimal per-order path value (exact)."""
    kappas = per_order_kappa(placement, history)
    return sum(kappas) / len(kappas) if kappas else 0.0


def per_order_kappa(placement: Placement, history) -> list[int]:
    """Exact κ of each order, read from one shppn.kappa_routes table over
    the orders' drug sets."""
    orders = list(history)
    table = shppn.kappa_routes((o.drugs for o in orders), placement)
    return [table[o.drugs].kappa for o in orders]


# --- genetic search ---------------------------------------------------------------

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


def _signer(contents, coords):
    """``Placement.signature`` of each row of a permutation array, without
    decoding it: ``perm[i]`` is the gene on ``coords[i]`` (``sorted_tiles()``).

    The coordinates' and the contents' strings are built once; a row's drug
    tiles and interfaces are its positions holding such genes, ascending,
    which is sorted ``Coord`` order.  The rows are permutations of the same
    genes, so each holds as many drug tiles and interfaces.
    """
    xy, drugs = _signature_strings(coords, contents)
    iface = np.array([c is _IFACE for c in contents])
    tile = ~iface & np.array([c is not _EMPTY for c in contents])

    def signatures(perms) -> list[bytes]:
        rows, at = len(perms), np.broadcast_to(xy, perms.shape)
        tiles, interfaces = tile[perms], iface[perms]
        return _signatures(
            at[tiles].reshape(rows, -1), drugs[perms[tiles]].reshape(rows, -1),
            at[interfaces].reshape(rows, -1),
        )

    return signatures


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
    for g in dict.fromkeys(g for t in used for g in t):
        if "|" in g or ";" in g:  # they join the parts of a signature, the GA's cache key
            raise ValueError(f"drug name {g!r} contains '|' or ';'")
    contents: list[tuple[str, ...]] = list(used)
    contents += [_IFACE] * layout.n_inter
    contents += [_EMPTY] * (n_cells - len(used) - layout.n_inter)
    coords = layout.sorted_tiles()
    held = _Genes(contents, history)
    signatures = _signer(contents, coords)

    rng = random.Random(seed)
    cache: dict[bytes, float] = {}

    def evaluate(perms) -> list[float]:
        # one sampler pass per generation; each unseen placement is scored once
        perms = np.array(perms, dtype=np.intp)
        sigs = signatures(perms)
        fresh: dict[bytes, int] = {}
        for row, sig in enumerate(sigs):
            if sig not in cache:
                fresh.setdefault(sig, row)
        seeds = [int.from_bytes(sig[:4], "big") for sig in fresh]
        scored = _score(perms[list(fresh.values())], held, layout, ga_params.episodes, seeds)
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
                cand = rng.sample(range(len(population)), min(TOURNAMENT, len(population)))
                return min(cand, key=scores.__getitem__)

            pa, pb = population[pick()], population[pick()]
            if rng.random() < CROSSOVER_RATE:
                child = order_crossover(pa, pb, rng)
            else:
                child = list(pa)
            if rng.random() < MUTATION_RATE:
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
