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
unseen placements in one ``fitness_batch`` call; ``fitness`` is its
one-placement case.  That call samples every (placement, order) pair of the
generation together, in one stack per candidate-tile count that holds the
pairs of every order and placement with that count.  The pairs of a stack
may come in any order: each draws from its own stream and sums its own
weight rows.  Each chunk of a stack gathers once, per pair, the distances
from its interfaces and candidates (its slots) to its candidates and
interfaces, with their weights.  Every step reads whole rows of these tables
for the alive episodes, kept in flat arrays, and takes their uniforms from
one cursor per pair.

Each pair keeps its own random stream, numpy's
``default_rng(SeedSequence(seed, spawn_key=(order index,)))``, so a score
does not depend on the batch it was sampled in, and the GA trace and
placement are those of scoring one child at a time.  The streams are not
built one generator at a time: SeedSequence hashing is uint32 arithmetic and
PCG64 a 128-bit LCG, so a stream is a pure function of (seed, order) and
``_pcg_states``/``_draw`` compute a whole run of pairs' streams in a few
array passes, bit for bit what numpy's generators draw.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from . import shppn
from .core import INTERFACE, Coord, Layout, check_json


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
# uniforms drawn per stream pass over consecutive chunks, of one stack or
# more: bounds the block that fitness_batch holds
_STREAM = 1 << 16


def fitness_batch(placements, history, episodes: int, seeds) -> list[PlacementScore]:
    """``fitness`` of each placement under its own seed, sampled in one pass.

    The placements share one layout; seeds are integers in [0, 2**128), one
    per placement.  Every (placement, order) pair keeps its own stream, what
    ``default_rng(SeedSequence(seed, spawn_key=(order index,)))`` would draw:
    the start interfaces (``integers``), then one block of uniforms
    (``random``) that the steps consume in order; PCG64 doubles are not
    buffered, so this equals one draw per step.  The streams of a run of
    chunks (about ``_STREAM`` uniforms) are seeded, jumped and stepped
    together in numpy (``_Uniforms``); no generator is built per pair.

    All pairs of the batch with the same candidate-tile count n form one
    stack, across orders and placements (``_stacks``).  Pairs are stacked
    only with pairs of the same n: padding rows to a common width would
    regroup numpy's pairwise sum of the weights.  Within a stack the order of
    the pairs is free, because a pair draws from its own stream and each of
    its weight rows is summed on its own, so each score is the one its
    placement gets alone.
    """
    placements, seeds, orders = list(placements), list(seeds), list(history)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if len(seeds) != len(placements):
        raise ValueError(f"{len(seeds)} seeds for {len(placements)} placements")
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
    n_drugs = np.array([len(o.drugs) for o in orders], dtype=np.int64)
    per_order = np.zeros((len(placements), len(orders)))
    words = _seed_words(seeds)
    stacks = _stacks(placements, orders, index)
    for run in _runs(_chunks(stacks, episodes, layout.n_inter), episodes, n_drugs):
        rows, cols = (np.concatenate(f) for f in list(zip(*run))[:2])
        uniforms = _Uniforms(
            _pcg_states(words[rows], cols), layout.n_inter, episodes,
            episodes * (int(n_drugs[cols].max()) + 1),
        )
        at = 0
        for rows, cols, tiles, masks in run:
            full = ((1 << n_drugs[cols]) - 1).astype(masks.dtype)
            per_order[rows, cols] = _sample_pairs(
                table, interfaces[rows], tiles, masks, full,
                uniforms.rows(at, at + len(rows)),
            )
            at += len(rows)

    scores = []
    for steps, seed in zip(per_order.tolist(), seeds):
        mean = float(sum(steps) / len(steps)) if steps else 0.0
        scores.append(PlacementScore(mean, tuple(steps), episodes, seed))
    return scores


def _stacks(placements, orders, index) -> dict[int, tuple]:
    """Per candidate-tile count n, every (placement, order) pair with n
    candidates: (placement rows, order indices, candidate tiles, their drug
    bitmasks), one pair per row, candidates ascending in table order.

    A drug's host plane marks, per placement, the table rows that dispense
    it; an order's served plane ORs the host planes of its k drugs, shifted
    to bits 0 to k - 1, so each tile holds the bitmask of the order's drugs
    it dispenses and the nonzero tiles are the pair's candidates.
    """
    drugs = {g: i for i, g in enumerate(dict.fromkeys(g for o in orders for g in o.drugs))}
    width = max((len(o.drugs) for o in orders), default=0)
    mask_type = np.min_scalar_type((1 << width) - 1)
    # drug x placement x table row, plus an empty plane that pads orders to width
    hosts = np.zeros((len(drugs) + 1, len(placements), len(index)), dtype=mask_type)
    held = [
        (drugs[g], p, index[t])
        for p, pl in enumerate(placements)
        for g, tiles in pl._by_drug.items() if g in drugs
        for t in tiles
    ]
    if held:
        hosts[tuple(np.array(held).T)] = 1
    everywhere = hosts[:-1].any(axis=2).all(axis=1)
    for g, i in drugs.items():
        if not everywhere[i]:
            raise ValueError(f"no dispenser placed for drug {g!r}")

    members = np.full((len(orders), width), len(drugs))
    for oi, order in enumerate(orders):
        members[oi, : len(order.drugs)] = [drugs[g] for g in order.drugs]
    served = np.zeros((len(orders), len(placements), len(index)), dtype=mask_type)
    for bit in range(width):
        served |= hosts[members[:, bit]] << bit
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


def _runs(chunks, episodes, n_drugs):
    """Consecutive chunks whose streams are drawn in one pass, each run
    holding about ``_STREAM`` uniforms (at least one chunk)."""
    run, size = [], 0
    for chunk in chunks:
        cost = len(chunk[0]) * episodes * (int(n_drugs[chunk[1]].max()) + 1)
        if run and size + cost > _STREAM:
            yield run
            run, size = [], 0
        run.append(chunk)
        size += cost
    if run:
        yield run


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
    """Per row, the column sampled with the row's weights ``w``."""
    r = u * w.sum(axis=1)
    return (np.cumsum(w, axis=1) > r[:, None]).argmax(axis=1)


# --- per-pair random streams ----------------------------------------------------
#
# A pair's stream is numpy's ``default_rng(SeedSequence(seed, spawn_key=(order,)))``.
# SeedSequence hashes its entropy with uint32 multiply/xor/shift rounds, and
# PCG64 is a 128-bit LCG with an XSL-RR output permutation (O'Neill 2014), so
# the stream is a pure function of (seed, order): it is computed here for a
# whole run of pairs at once, in uint64 halves of the 128-bit state.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's default multiplier
_PCG_MULT_HALVES = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence constants
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_LANES = 1 << 12  # rows x lanes stepped together by _pcg_raw


def _seed_words(seeds) -> np.ndarray:
    """Each seed's entropy as four uint32 words, low word first."""
    seeds = [int(s) for s in seeds]
    if any(not 0 <= s <= _MASK128 for s in seeds):
        raise ValueError("seeds must be integers in [0, 2**128)")
    return np.array(
        [[(s >> 32 * i) & _MASK32 for i in range(4)] for s in seeds], dtype=np.uint32
    ).reshape(-1, 4)


def _pcg_states(words, orders):
    """PCG64 (state, increment) as (high, low) uint64 halves, one per pair.

    ``words`` is pairs x 4 seed words (``_seed_words``), ``orders`` the spawn
    keys.  A seed below 2**128 fills at most the pool's four words, and numpy
    zero-pads it there because a spawn key follows, so every pair hashes the
    same five-word entropy layout and the hash constants run in lockstep.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> 16)

    orders = np.asarray(orders).astype(np.uint32)
    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(orders))

    # generate_state(4, uint64): eight hashed pool words, paired low word first
    hash_const, state = _HASH_INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    v0, v1, v2, v3 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))

    # pcg64_set_seed: inc = (v2:v3) << 1 | 1; state = ((0 * M + inc) + (v0:v1)) * M + inc
    inc = ((v2 << 1) | (v3 >> 63), (v3 << 1) | 1)
    state = _add128(*inc, v0, v1)
    state = _add128(*_mul128(*state, *_PCG_MULT_HALVES), *inc)
    return state + inc


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2**128 in (high, low) uint64 halves."""
    return ah * bl + al * bh + _mulhi64(al, bl), al * bl


def _add128(ah, al, bh, bl):
    """(a + b) mod 2**128 in (high, low) uint64 halves."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _halves(values):
    """128-bit Python integers as (high, low) uint64 arrays."""
    values = list(values)
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _pcg_raw(state, n) -> np.ndarray:
    """The next ``n`` 64-bit outputs of each stream (``random_raw``), rows x n.

    Few rows with long streams are split into lanes that start ``steps``
    outputs apart (jump-ahead: after k steps the state is M**k s + G_k inc,
    G_k = M**(k-1) + ... + 1), so every step advances about ``_LANES`` states
    at once.
    """
    sh, sl, ih, il = state
    rows = len(sh)
    lanes = max(1, min(n, _LANES // max(rows, 1)))
    steps = max(1, -(-n // lanes))
    lanes = -(-n // steps)
    mult, grow = 1, 0  # M**steps and G_steps
    for _ in range(steps):
        mult, grow = mult * _PCG_MULT & _MASK128, (grow * _PCG_MULT + 1) & _MASK128
    jump = [(1, 0)]
    for _ in range(lanes - 1):
        a, g = jump[-1]
        jump.append((a * mult & _MASK128, (g * mult + grow) & _MASK128))
    inc = (ih[:, None], il[:, None])
    h, lo = _add128(
        *_mul128(sh[:, None], sl[:, None], *_halves(a for a, _ in jump)),
        *_mul128(*inc, *_halves(g for _, g in jump)),
    )
    inc = tuple(np.broadcast_to(v, h.shape) for v in inc)
    out = np.empty((rows, lanes, steps), dtype=np.uint64)
    for t in range(steps):
        h, lo = _add128(*_mul128(h, lo, *_PCG_MULT_HALVES), *inc)
        x, rot = h ^ lo, h >> 58  # XSL-RR
        out[:, :, t] = (x >> rot) | (x << ((64 - rot) & 63))
    return out.reshape(rows, lanes * steps)[:, :n]


def _draw(state, n_interfaces, episodes, width):
    """Each stream's start interfaces, then its next ``width`` uniforms.

    The same draws as ``rng.integers(0, n_interfaces, episodes)`` followed by
    ``rng.random(width)``.  ``integers`` draws nothing for one interface and
    otherwise runs Lemire's method on the generator's buffered uint32 halves,
    low half first; ``random`` takes whole outputs, ``(x >> 11) * 2**-53``.
    """
    rows = len(state[0])
    skip = (episodes + 1) // 2 if n_interfaces > 1 else 0
    raw = _pcg_raw(state, skip + width)
    start = np.zeros((rows, episodes), dtype=np.int64)
    if n_interfaces > 1:
        halves = np.stack([raw[:, :skip] & _MASK32, raw[:, :skip] >> 32], axis=2)
        m = halves.reshape(rows, 2 * skip)[:, :episodes] * np.uint64(n_interfaces)
        start[:] = m >> 32
        rejected = ((m & _MASK32) < (1 << 32) % n_interfaces).any(axis=1)
        for i in np.flatnonzero(rejected):
            start[i], raw[i, skip:] = _lemire_row(
                tuple(s[i : i + 1] for s in state), n_interfaces, episodes, width
            )
    block = np.right_shift(raw[:, skip:], 11, out=raw[:, skip:]).astype(np.float64)
    block *= 2.0**-53
    return start, block


def _lemire_row(state, n_interfaces, episodes, width):
    """One stream whose Lemire draw was rejected: numpy draws another uint32
    until the low product word reaches 2**32 mod n, so later draws shift."""
    threshold = (1 << 32) % n_interfaces
    extra = 1
    while True:
        raw = _pcg_raw(state, (episodes + 1) // 2 + extra + width)[0]
        halves = [w for x in raw.tolist() for w in (x & _MASK32, x >> 32)]
        start, pos = [], 0
        while len(start) < episodes and pos < len(halves):
            m = halves[pos] * n_interfaces
            pos += 1
            if m & _MASK32 >= threshold:
                start.append(m >> 32)
        skip = (pos + 1) // 2
        if len(start) == episodes and skip + width <= len(raw):
            return start, raw[skip : skip + width]
        extra *= 2


class _Uniforms:
    """Each pair's start interfaces and uniforms, handed out in stream order.

    ``state`` holds the pairs' seeded generators (``_pcg_states``); ``width``
    uniforms per pair are drawn up front, and ``used`` counts each pair's
    uniforms handed out.  An order of k drugs takes at most
    k steps per episode plus the return, so ``episodes * (k + 1)`` suffice
    unless rounding puts a draw past the last cumulative weight: the pick
    then lands on an unusable tile and costs an extra step.  A block that
    runs dry is drawn again from the same streams, wider.
    """

    def __init__(self, state, n_interfaces, episodes, width):
        self.state, self.n_interfaces, self.episodes = state, n_interfaces, episodes
        self.start, self.block = _draw(state, n_interfaces, episodes, width)
        self.used = np.zeros(len(self.start), dtype=np.int64)

    def rows(self, lo, hi) -> "_Uniforms":
        """Pairs ``lo`` to ``hi - 1``, handed out on their own."""
        part = copy.copy(self)
        part.state = tuple(s[lo:hi] for s in self.state)
        part.start, part.block, part.used = self.start[lo:hi], self.block[lo:hi], self.used[lo:hi]
        return part

    def take(self, rows) -> np.ndarray:
        """Each pair's next uniforms in stream order, one per entry of ``rows``
        (pair indices, ascending)."""
        counts = np.bincount(rows, minlength=len(self.used))
        need = self.used + counts
        if need.max(initial=0) > self.block.shape[1]:
            _, self.block = _draw(self.state, self.n_interfaces, self.episodes, int(need.max()))
        # entry i of pair r: flat block index r * width + used[r] + i - (r's first entry)
        skip = np.arange(len(counts)) * self.block.shape[1] + self.used - np.cumsum(counts) + counts
        self.used = need
        return self.block.take(skip[rows] + np.arange(len(rows)))


# --- exact analytical scorer -----------------------------------------------------

def analytical_cost(placement: Placement, history) -> float:
    """Mean optimal per-order path value (exact)."""
    kappas = per_order_kappa(placement, history)
    return sum(kappas) / len(kappas) if kappas else 0.0


def per_order_kappa(placement: Placement, history) -> list[int]:
    """Exact κ of each order, solved once per distinct drug set (shppn.kappa_batch)."""
    orders = list(history)
    sets = list(dict.fromkeys(o.drugs for o in orders))
    solved = dict(zip(sets, shppn.kappa_batch(sets, placement)))
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
