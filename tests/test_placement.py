import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planarfab.core import Coord, Order, build_layout
from planarfab.packing import Packing
from planarfab.placement import (
    _EMPTY,
    _IFACE,
    GaParams,
    Placement,
    _Genes,
    _Uniforms,
    _as_genes,
    _choose,
    _chunks,
    _decode,
    _pair_keys,
    _sample_pairs,
    _score,
    _seed_keys,
    _signer,
    _stacks,
    _weights,
    analytical_cost,
    fitness,
    fitness_batch,
    ga_place,
    inversion_mutation,
    order_crossover,
    per_order_kappa,
    trace_to_csv,
)

from conftest import random_orders, random_placement
from test_shppn import brute_force_kappa


def line_placement(cells):
    """cells: list of drug tuples / 'IF' markers along a 1xN line."""
    n = len(cells)
    layout = build_layout("line", n, sum(1 for c in cells if c == "IF"))
    drug_tiles = {}
    ifaces = set()
    for j, c in enumerate(cells, start=1):
        if c == "IF":
            ifaces.add(Coord(1, j))
        elif c:
            drug_tiles[Coord(1, j)] = tuple(c)
    return Placement(layout, drug_tiles, frozenset(ifaces))


def test_fitness_forced_path():
    pl = line_placement(["IF", ("a",)])
    score = fitness(pl, [Order(0, (("a", 5),))], episodes=50, seed=1)
    assert score.mean_steps == pytest.approx(2.0)
    assert score.per_order_steps == (2.0,)


def test_fitness_two_alternatives_expectation():
    # alternatives at distances 1 and 3: P = (1)/(4/3) = 0.75 and 0.25,
    # costs 2 and 6 -> expectation 3 (oracle: closed form of the sampler)
    pl = line_placement(["IF", ("a",), (), ("a",)])
    score = fitness(pl, [Order(0, (("a", 5),))], episodes=100_000, seed=7)
    assert abs(score.mean_steps - 3.0) <= 0.05


def test_fitness_colocated_drugs_single_visit():
    for d in (1, 3):
        cells = ["IF"] + [()] * (d - 1) + [("a", "b")]
        pl = line_placement(cells)
        score = fitness(pl, [Order(0, (("a", 5), ("b", 5)))], episodes=64, seed=3)
        assert score.mean_steps == pytest.approx(2.0 * d)


def test_fitness_errors():
    pl = line_placement(["IF", ("a",)])
    with pytest.raises(ValueError):
        fitness(pl, [Order(0, (("zz", 1),))], episodes=4, seed=0)


def test_fitness_deterministic_per_seed():
    layout = build_layout("square", (4, 4), 2)
    pl = random_placement(layout, ["a", "b", "c"], seed=4)
    orders = random_orders(["a", "b", "c"], 6, seed=5)
    s1 = fitness(pl, orders, episodes=40, seed=11)
    s2 = fitness(pl, orders, episodes=40, seed=11)
    assert s1 == s2
    assert s1 != fitness(pl, orders, episodes=40, seed=12)


# --- a scalar reference of the counter-based stream -------------------------------

MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z: int) -> int:
    """SplitMix64's output function on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ReferenceStream:
    """One (seed, order) pair's stream, one draw at a time: the key mixes the
    seed's high half, xors its low half and mixes again, then takes output
    ``order`` of SplitMix64 from there; draw j hashes key + j * GAMMA."""

    def __init__(self, seed, order):
        seed_key = reference_mix(reference_mix(seed >> 64) ^ (seed & MASK64))
        self.key = reference_mix((seed_key + (order + 1) * GAMMA) & MASK64)
        self.drawn = 0

    def uniform(self) -> float:
        z = reference_mix((self.key + self.drawn * GAMMA) & MASK64)
        self.drawn += 1
        return (z >> 11) * 2.0**-53

    def starts(self, n_interfaces, episodes) -> np.ndarray:
        return np.array([int(self.uniform() * n_interfaces) for _ in range(episodes)])

    def random(self, n) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])


# --- batched sampler vs the per-placement reference ---------------------------------

def reference_order_episodes(placement, order, interfaces, episodes, stream) -> float:
    """The per-(placement, order) sampler that the batched one replaced."""
    drugs = order.drugs
    for g in drugs:
        if not placement.dispensers_for(g):
            raise ValueError(f"no dispenser placed for drug {g!r}")
    tile_mask = {}
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
    loc = stream.starts(n_i, episodes)
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
        cum = np.cumsum(w, axis=1)
        r = stream.random(alive.sum()) * cum[:, -1]
        pick = (cum > r[:, None]).argmax(axis=1)
        steps[alive] += d[np.arange(len(pick)), pick]
        remaining[alive] &= ~masks[pick]
        loc[alive] = n_i + pick

    d = to_ifaces[loc]
    w = np.where(d == 0, 1.0, 1.0 / np.maximum(d, 1))
    cum = np.cumsum(w, axis=1)
    r = stream.random(episodes) * cum[:, -1]
    pick = (cum > r[:, None]).argmax(axis=1)
    steps += d[np.arange(episodes), pick]
    return float(steps.sum() / episodes)


def reference_fitness(placement, history, episodes, seed):
    """(mean, per-order steps) of one placement, one order at a time."""
    interfaces = sorted(placement.interfaces)
    per_order = []
    for oi, order in enumerate(history):
        stream = ReferenceStream(seed, oi)
        per_order.append(reference_order_episodes(placement, order, interfaces, episodes, stream))
    total = 0.0
    for steps in per_order:  # left to right: sum() compensates from Python 3.12 on
        total += steps
    return (total / len(per_order) if per_order else 0.0), tuple(per_order)


@pytest.mark.parametrize("episodes", [1, 3, 10, 20])
@pytest.mark.parametrize("topology, size", [("square", (5, 5)), ("ring", 6)])
def test_fitness_batch_matches_per_placement_reference(topology, size, episodes):
    layout = build_layout(topology, size, 2)
    drugs = [f"d{i}" for i in range(8)]
    placements = [random_placement(layout, drugs, seed=s, max_alternatives=3) for s in range(6)]
    seeds = [1000 + 17 * s for s in range(6)]
    # duplicates in one batch: under their own seed and under another one
    placements += [placements[0], placements[1], placements[1]]
    seeds += [seeds[0], seeds[1], 7]
    orders = random_orders(drugs, 14, seed=3, size_range=(1, 5))

    # the batch covers single-drug orders, co-located drugs of one order and
    # candidate counts of 8 or more
    candidates = [
        (set().union(*(pl.dispensers_for(g) for g in o.drugs)), o.drugs)
        for pl in placements for o in orders
    ]
    assert any(len(o.drugs) == 1 for o in orders)
    assert max(len(tiles) for tiles, _ in candidates) >= 8
    assert any(
        len(set(pl.drugs_at(t)) & set(o.drugs)) >= 2
        for pl in placements for o in orders for t in pl.drug_tiles
    )

    scores = fitness_batch(placements, orders, episodes, seeds)
    assert len(scores) == len(placements)
    for pl, seed, score in zip(placements, seeds, scores):
        mean, per_order = reference_fitness(pl, orders, episodes, seed)
        assert score.mean_steps == mean
        assert score.per_order_steps == per_order
        assert (score.episodes, score.seed) == (episodes, seed)
        assert score == fitness(pl, orders, episodes, seed)
    assert scores[6] == scores[0] and scores[7] == scores[1]


def test_fitness_batch_colocated_single_visit_matches_reference():
    pl = line_placement(["IF", (), ("a", "b"), ("c",), ("a",), "IF"])
    orders = [Order(0, (("a", 5), ("b", 5))), Order(1, (("c", 2),)), Order(2, (("a", 1), ("c", 1)))]
    for episodes in (1, 5, 64):
        (score,) = fitness_batch([pl], orders, episodes, [5])
        want = reference_fitness(pl, orders, episodes, 5)
        assert (score.mean_steps, score.per_order_steps) == want


def test_fitness_batch_errors_and_empty_batch():
    pl = line_placement(["IF", ("a",)])
    assert fitness_batch([], [Order(0, (("a", 1),))], 4, []) == []
    for seeds in ([0], [0, 1, 2]):  # one seed per placement, no fewer, no more
        with pytest.raises(ValueError, match="seeds for 2 placements"):
            fitness_batch([pl, pl], [Order(0, (("a", 1),))], 4, seeds)
    with pytest.raises(ValueError, match="'zz'"):
        fitness_batch([pl, pl], [Order(0, (("a", 1),)), Order(1, (("a", 1), ("zz", 1)))], 4, [0, 1])
    with pytest.raises(ValueError, match="episodes"):
        fitness(pl, [Order(0, (("a", 1),))], episodes=0, seed=0)
    other = line_placement(["IF", (), ("a",)])
    with pytest.raises(ValueError, match="share a layout"):
        fitness_batch([pl, other], [Order(0, (("a", 1),))], 4, [0, 1])


# --- one stack per candidate count vs the per-order stacks and sampler ------------
#
# reference_stacks, reference_sample_pairs and reference_choose are the stack
# build and the sampler as they were before the stacks spanned orders and the
# sampler read per-pair slot tables, kept verbatim but for the draw ``r``,
# which scales by the last cumulative weight as ``_choose`` does.

def reference_stacks(placements, orders, index) -> dict[int, list[tuple]]:
    """Per candidate-tile count n: (placement rows, order index, drug count,
    candidate tiles, their drug bitmasks), one entry per order."""
    drugs = {g for order in orders for g in order.drugs}
    hosts = {g: np.zeros((len(placements), len(index)), dtype=bool) for g in drugs}
    for p, pl in enumerate(placements):
        for g, tiles in pl._by_drug.items():
            if g in hosts:
                hosts[g][p, [index[t] for t in tiles]] = True
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
        for n in set(counts.tolist()):
            rows = np.flatnonzero(counts == n)
            sub = served[rows].ravel()
            cand = np.flatnonzero(sub)
            stacks.setdefault(n, []).append(
                (rows, oi, k, (cand % len(index)).reshape(-1, n), sub[cand].reshape(-1, n))
            )
    return stacks


def reference_choose(d, usable, u) -> np.ndarray:
    w = 1.0 / np.maximum(d, 1)
    if usable is not None:
        w[~usable] = 0.0
    cum = np.cumsum(w, axis=1)
    r = u * cum[:, -1]
    return (cum > r[:, None]).argmax(axis=1)


def reference_sample_pairs(table, interfaces, tiles, masks, full, uniforms) -> np.ndarray:
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
        pick = reference_choose(d, usable, uniforms.take(np.nonzero(alive)[0]))
        k = np.arange(len(pick))
        steps[r, e] += d[k, pick]
        remaining[r, e] &= ~masks[r, pick]
        loc[r, e] = cand[k, pick]

    d = table[loc[:, :, None], interfaces[:, None, :]].reshape(loc.size, -1)
    pick = reference_choose(d, None, uniforms.take(np.nonzero(np.ones(loc.shape, dtype=bool))[0]))
    steps += d[np.arange(len(pick)), pick].reshape(loc.shape)
    return steps.sum(axis=1) / loc.shape[1]


def wide_batch(topology, size):
    """Placements and orders of 1 to 9 drugs, whose pairs have from fewer
    than 8 to more than 16 candidate tiles."""
    layout = build_layout(topology, size, 2)
    drugs = [f"d{i}" for i in range(12)]
    placements = [random_placement(layout, drugs, seed=s, max_alternatives=4) for s in range(5)]
    return layout, placements, random_orders(drugs, 12, seed=8, size_range=(1, 9))


def stacks_of(placements, orders, index):
    """``_stacks`` of placements, mapped onto a gene array as fitness_batch maps them."""
    genes, contents = _as_genes(placements, index)
    return _stacks(genes, _Genes(contents, orders).masks)


def pairs_by_count(stacks):
    """{n: {(placement row, order index): (tiles, masks)}} of stacks given as
    {n: [(placement rows, order indices, tiles, masks), ...]}."""
    out = {}
    for n, parts in stacks.items():
        for rows, cols, tiles, masks in parts:
            pairs = zip(rows.tolist(), cols.tolist())
            for pair, t, m in zip(pairs, tiles.tolist(), masks.tolist()):
                assert pair not in out.setdefault(n, {})
                out[n][pair] = (t, m)
    return out


@pytest.mark.parametrize("topology, size", [("square", (6, 6)), ("ring", 8)])
def test_stacks_hold_the_per_order_stacks_pairs(topology, size):
    layout, placements, orders = wide_batch(topology, size)
    index, _ = layout.index_table
    got = stacks_of(placements, orders, index)
    want = {
        n: [(rows, np.full(len(rows), oi), tiles, masks) for rows, oi, _, tiles, masks in parts]
        for n, parts in reference_stacks(placements, orders, index).items()
    }
    assert sorted(got) == sorted(want)
    assert min(got) < 8 and any(8 <= n < 16 for n in got) and max(got) >= 16
    assert pairs_by_count({n: [stack] for n, stack in got.items()}) == pairs_by_count(want)
    for n, (rows, cols, tiles, masks) in got.items():
        # bitmasks of up to 9 drugs in the narrowest type that holds them
        assert tiles.shape == masks.shape == (len(rows), n) and masks.dtype == np.uint16


@pytest.mark.parametrize("episodes", [1, 10])
@pytest.mark.parametrize("topology, size", [("square", (6, 6)), ("ring", 8)])
def test_sample_pairs_matches_per_step_reference(topology, size, episodes):
    # each side samples its own stacks, chunked as fitness_batch chunks them,
    # from its pairs' streams; every pair's mean steps must agree bit for bit
    layout, placements, orders = wide_batch(topology, size)
    index, table = layout.index_table
    keys = _seed_keys([31 * p + 5 for p in range(len(placements))])
    interfaces = np.array([[index[c] for c in sorted(pl.interfaces)] for pl in placements])
    n_drugs = np.array([len(o.drugs) for o in orders])

    def uniforms(rows, cols):
        return _Uniforms(_pair_keys(keys[rows], cols), layout.n_inter, episodes)

    got, counts = {}, set()
    stacks = stacks_of(placements, orders, index)
    for rows, cols, tiles, masks in _chunks(stacks, episodes, layout.n_inter):
        full = ((1 << n_drugs[cols]) - 1).astype(masks.dtype)
        steps = _sample_pairs(table, interfaces[rows], tiles, masks, full, uniforms(rows, cols))
        got.update(zip(zip(rows.tolist(), cols.tolist()), steps.tolist()))
        counts.add(tiles.shape[1])
    want = {}
    for n, parts in reference_stacks(placements, orders, index).items():
        for rows, oi, k, tiles, masks in parts:
            cols = np.full(len(rows), oi)
            full = np.full(len(rows), (1 << k) - 1, dtype=np.int64)
            steps = reference_sample_pairs(
                table, interfaces[rows], tiles, masks, full, uniforms(rows, cols)
            )
            want.update(zip(zip(rows.tolist(), cols.tolist()), steps.tolist()))
    assert min(counts) < 8 and any(8 <= n < 16 for n in counts) and max(counts) >= 16
    assert len(got) == len(placements) * len(orders)
    assert got == want


def test_choose_never_picks_a_zero_weight_column():
    # u is scaled by the last cumulative weight, so it falls below it, and the
    # first cumulative weight above it follows a column of positive weight.
    # This row of 9 weights sums (pairwise) above its last cumulative weight:
    # scaled by that sum, the largest uniform below 1 fell past every usable
    # tile and picked the unusable column 0
    top = np.nextafter(1.0, 0.0)
    w = _weights(np.array([[12, 9, 8, 4, 5, 1, 2, 1, 3]])) * (np.arange(9) > 0)
    assert w.sum() > np.cumsum(w)[-1]
    assert _choose(w, np.array([top])).tolist() == [8]

    rng = np.random.default_rng(6)
    for n in (2, 5, 9, 17, 40):
        d = rng.integers(0, 30, size=(2000, n))
        w = _weights(d) * (rng.random(d.shape) < 0.5)
        w[~w.any(axis=1), -1] = 1.0  # every row has a usable tile
        u = np.concatenate([rng.random(1000), np.full(1000, top)])
        pick = _choose(w, u)
        assert (w[np.arange(len(pick)), pick] > 0).all()


def test_sample_pairs_matches_reference_after_a_pair_retires():
    # one stack of two candidates holds a one-drug and a two-drug order; from
    # step 2 on the one-drug pair's episodes have all retired and only the
    # other pair takes uniforms, each from its own counter
    pl = line_placement(["IF", ("a",), ("b",), (), ("a",), ("c",), "IF"])
    orders = [Order(0, (("a", 1),)), Order(1, (("b", 1), ("c", 1)))]
    index, table = pl.layout.index_table
    (rows, cols, tiles, masks), = stacks_of([pl], orders, index).values()
    full = np.array([1, 3], dtype=masks.dtype)[cols]
    assert sorted(full.tolist()) == [1, 3]
    interfaces = np.array([[index[c] for c in sorted(pl.interfaces)]])[rows]
    episodes = 6
    keys = _pair_keys(_seed_keys([41] * len(rows)), cols)

    def sample(kernel):
        uniforms = _Uniforms(keys, 2, episodes)
        steps = kernel(table, interfaces, tiles, masks, full, uniforms)
        return steps.tolist(), uniforms.used.tolist()

    got = sample(_sample_pairs)
    assert got == sample(reference_sample_pairs)
    # starts, one step per drug and the return: no pick is wasted
    assert sorted(got[1]) == [episodes * 3, episodes * 4]


# --- the counter-based streams vs the scalar reference ----------------------------


@given(
    st.lists(st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 10_000)), min_size=1, max_size=5),
    st.integers(1, 12),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@example([(0, 0), (2**128 - 1, 10_000)], 1, 1, 0)
@example([(2**64, 3), (2**64 - 1, 3), (2**64, 3)], 7, 3, 1)
@settings(max_examples=60, deadline=None)
def test_uniforms_hand_out_the_reference_draws_in_stream_order(
    pairs, episodes, n_interfaces, mask_seed
):
    seeds, orders = [s for s, _ in pairs], [o for _, o in pairs]
    uniforms = _Uniforms(_pair_keys(_seed_keys(seeds), orders), n_interfaces, episodes)
    streams = [ReferenceStream(s, o) for s, o in pairs]
    for stream, start in zip(streams, uniforms.start.tolist()):
        assert start == stream.starts(n_interfaces, episodes).tolist()
    draw = random.Random(mask_seed)
    for _ in range(4):  # takes of random (pair, episode) masks, rows ascending
        mask = np.array([[draw.random() < 0.7 for _ in range(episodes)] for _ in pairs])
        want = [u for i, stream in enumerate(streams) for u in stream.random(int(mask[i].sum()))]
        assert uniforms.take(np.nonzero(mask)[0]).tolist() == want
    assert uniforms.used.tolist() == [stream.drawn for stream in streams]


def test_pair_streams_differ_across_seed_halves_and_orders():
    # each half of a 128-bit seed and the order index reach the key
    seeds = [0, 1, 2**64, 2**64 + 1, 2**127]
    keys = _pair_keys(_seed_keys(seeds * 3), [0] * 5 + [1] * 5 + [10_000] * 5)
    assert len(set(keys.tolist())) == 15


def test_fitness_batch_builds_no_generator_per_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair generator")

    layout = build_layout("square", (4, 4), 2)
    drugs = ["a", "b", "c"]
    placements = [random_placement(layout, drugs, seed=s) for s in range(3)]
    orders = random_orders(drugs, 5, seed=5)
    want = fitness_batch(placements, orders, 6, [1, 2, 3])
    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    assert fitness_batch(placements, orders, 6, [1, 2, 3]) == want


def test_fitness_seed_range():
    pl = line_placement(["IF", ("a",), (), ("a",), "IF"])
    orders = [Order(0, (("a", 5),)), Order(1, (("a", 1),))]
    big = 2**128 - 1
    score = fitness(pl, orders, episodes=3, seed=big)
    assert score.per_order_steps == reference_fitness(pl, orders, 3, big)[1]
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match="seeds"):
            fitness(pl, orders, episodes=3, seed=bad)


def test_analytical_cost_golden(golden_placement, golden_orders):
    from planarfab.placement import per_order_kappa

    assert per_order_kappa(golden_placement, golden_orders) == [3, 6, 3]
    assert analytical_cost(golden_placement, golden_orders) == pytest.approx(4.0)


def test_analytical_cost_interface_adjacent_single_drug():
    pl = line_placement(["IF", ("a",)])
    assert analytical_cost(pl, [Order(0, (("a", 9),))]) == pytest.approx(2.0)


def test_analytical_cost_matches_permutation_oracle():
    layout = build_layout("square", (4, 4), 2)
    drugs = ["a", "b", "c", "d"]
    for seed in range(8):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=2)
        orders = random_orders(drugs, 5, seed=seed + 50, size_range=(1, 4))
        oracle = sum(brute_force_kappa(o, pl) for o in orders) / len(orders)
        assert analytical_cost(pl, orders) == pytest.approx(oracle)


def test_analytical_cost_exact_beyond_enumeration_size():
    # a 9-drug order with up to 4 alternatives each, far past enumeration:
    # κ is solved, not refused; it lies above the reach-and-return bound and
    # is the least of the shortest routes from each start interface, each of
    # which walks its length on the layout
    from planarfab import shppn

    layout = build_layout("square", (6, 6), 2)
    drugs = [f"d{i}" for i in range(9)]
    pl = random_placement(layout, drugs, seed=2, max_alternatives=4)
    big = [Order(0, tuple((g, 1) for g in drugs))]
    cost = analytical_cost(pl, big)
    dist = layout.distance
    required = [t for g in drugs for t in pl.dispensers_for(g)]
    reach = min(dist(i, t) for i in pl.interfaces for t in required)
    routes = shppn.kappa_routes([big[0].drugs], pl)[big[0].drugs].routes
    tiles = layout.sorted_tiles()
    for n, start, stops, end in routes:
        path = [tiles[start], *(tiles[t] for _, t in stops), tiles[end]]
        assert sum(map(dist, path, path[1:])) == n
    assert 2 * reach <= cost == min(n for n, *_ in routes)
    assert cost == analytical_cost(pl, big * 3) == per_order_kappa(pl, big)[0]


def test_fitness_dominates_analytical_statistically(golden_placement):
    # the sampler's routes are never shorter than optimal; over 30 random
    # placements the mean episode cost stays above analytical - 3 sigma
    layout = build_layout("square", (4, 4), 2)
    drugs = ["a", "b", "c"]
    orders = random_orders(drugs, 5, seed=9, size_range=(1, 3))
    episodes = 10_000
    for seed in range(30):
        pl = random_placement(layout, drugs, seed=seed + 200, max_alternatives=2)
        exact = analytical_cost(pl, orders)
        score = fitness(pl, orders, episodes=episodes, seed=seed)
        sigma_hat = max(1e-9, np.std(score.per_order_steps) / math.sqrt(episodes))
        assert score.mean_steps >= exact - 3 * sigma_hat


def test_analytical_cost_permutation_symmetric(golden_placement, golden_orders):
    # relabelling packed-tile indices = permuting the dict insertion order
    items = list(golden_placement.drug_tiles.items())
    random.Random(3).shuffle(items)
    shuffled = Placement(
        golden_placement.layout, dict(items), golden_placement.interfaces
    )
    assert analytical_cost(shuffled, golden_orders) == analytical_cost(
        golden_placement, golden_orders
    )


# --- GA ------------------------------------------------------------------------------

perm_lists = st.integers(4, 10).flatmap(
    lambda n: st.tuples(st.permutations(list(range(n))), st.permutations(list(range(n))))
)


@given(perm_lists, st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_order_crossover_closed_over_permutations(pair, seed):
    p1, p2 = list(pair[0]), list(pair[1])
    child = order_crossover(p1, p2, random.Random(seed))
    assert sorted(child) == sorted(p1)


@given(st.permutations(list(range(9))), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inversion_mutation_closed_over_permutations(perm, seed):
    child = inversion_mutation(list(perm), random.Random(seed))
    assert sorted(child) == list(range(9))


def small_packing(drugs_per_tile):
    tiles = tuple(tuple(t) for t in drugs_per_tile)
    z = {}
    for t in tiles:
        for g in t:
            z[g] = z.get(g, 0) + 1
    pi = {g: 1.0 for g in z}
    mu = tuple(float(len(t)) for t in tiles)
    return Packing(tiles, z, pi, mu, max(mu), 0.0, True, len(tiles))


def test_ga_two_cell_line_returns_optimum():
    packing = small_packing([("a",)])
    layout = build_layout("line", 2, 1)
    orders = [Order(0, (("a", 5),))]
    result = ga_place(packing, layout, orders, GaParams(population=4, max_evaluations=20, episodes=4), seed=0)
    # both permutations are equivalent by symmetry here; cost is forced
    assert result.best_fitness == pytest.approx(2.0)


def test_ga_deterministic_under_seed():
    packing = small_packing([("a",), ("b",), ("a", "c"), ("d",)])
    layout = build_layout("square", (3, 3), 2)
    orders = random_orders(["a", "b", "c", "d"], 6, seed=21, size_range=(1, 3))
    params = GaParams(population=8, max_evaluations=120, episodes=5)
    r1 = ga_place(packing, layout, orders, params, seed=5)
    r2 = ga_place(packing, layout, orders, params, seed=5)
    assert r1.placement == r2.placement
    assert r1.trace == r2.trace


def test_ga_beats_random_search_at_equal_budget():
    packing = small_packing([("a",), ("b",), ("c",), ("a", "d"), ("e",)])
    layout = build_layout("square", (3, 3), 2)
    orders = random_orders(["a", "b", "c", "d", "e"], 8, seed=31, size_range=(2, 4))
    budget = 300
    params = GaParams(population=15, max_evaluations=budget, episodes=6)
    ga = ga_place(packing, layout, orders, params, seed=1)

    # random-search oracle at the same evaluation budget
    rng = random.Random(1)
    used = [tuple(t) for t in packing.tiles]
    contents = used + [_IFACE] * layout.n_inter
    contents += [_EMPTY] * (len(layout.tiles) - len(contents))
    coords = layout.sorted_tiles()
    best = math.inf
    for i in range(budget):
        perm = list(range(len(contents)))
        rng.shuffle(perm)
        pl = _decode(perm, contents, coords, layout)
        best = min(best, fitness(pl, orders, 6, seed=i).mean_steps)
    assert ga.best_fitness <= best + 1e-9


# --- permutation arrays: the GA's signatures and scores without decoding ----------

def permutation_batch(topology, size, seed):
    """A layout, GA contents over 7 drugs (two empty cells), 12 random
    permutations of them (one repeated, one with two equal tiles swapped)
    and 9 orders."""
    layout = build_layout(topology, size, 2)
    rng = random.Random(seed)
    drugs = [f"d{i}" for i in range(7)]
    used = [(g,) for g in drugs] + [("d0",)]
    used += [tuple(rng.sample(drugs, rng.randint(2, 3))) for _ in range(len(layout.tiles) - 12)]
    contents = used + [_IFACE] * 2 + [_EMPTY] * 2
    perms = [rng.sample(range(len(contents)), len(contents)) for _ in range(10)]
    swapped = list(perms[0])
    i, j = swapped.index(0), swapped.index(7)  # genes 0 and 7 both hold ("d0",)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    perms += [perms[3], swapped]
    return layout, contents, perms, random_orders(drugs, 9, seed=seed, size_range=(1, 4))


LAYOUTS = [("square", (4, 5)), ("ring", 6), ("line", 14)]


@pytest.mark.parametrize("topology, size", LAYOUTS)
def test_permutation_signatures_equal_decoded_signatures(topology, size):
    import hashlib

    layout, contents, perms, _ = permutation_batch(topology, size, seed=4)
    coords = layout.sorted_tiles()
    placed = [_decode(p, contents, coords, layout) for p in perms]
    got = _signer(contents, coords)(np.array(perms))
    assert got == [pl.signature() for pl in placed]
    assert got[10] == got[3] and got[11] == got[0] and len(set(got)) == 10
    for pl, sig in zip(placed, got):  # the signature's bytes as first defined
        parts = [f"{c.x},{c.y}:{'|'.join(d)}" for c, d in sorted(pl.drug_tiles.items())]
        parts += [f"I{c.x},{c.y}" for c in sorted(pl.interfaces)]
        assert sig == hashlib.sha256(";".join(parts).encode()).digest()


@pytest.mark.parametrize("topology, size", LAYOUTS)
def test_score_of_permutations_equals_fitness_batch_of_decoded(topology, size):
    layout, contents, perms, orders = permutation_batch(topology, size, seed=5)
    coords = layout.sorted_tiles()
    seeds = [101 * s + 3 for s in range(len(perms))]
    got = _score(np.array(perms), _Genes(contents, orders), layout, 5, seeds)
    placed = [_decode(p, contents, coords, layout) for p in perms]
    assert got == fitness_batch(placed, orders, 5, seeds)
    for score in got:  # the mean adds left to right on every Python version
        total = 0.0
        for steps in score.per_order_steps:
            total += steps
        assert score.mean_steps == total / len(orders)


def test_ga_place_decodes_only_its_best(monkeypatch):
    built = []
    post_init = Placement.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    def refuse(self):
        raise AssertionError("ga_place signs permutations, not placements")

    monkeypatch.setattr(Placement, "__post_init__", counted)
    monkeypatch.setattr(Placement, "signature", refuse)
    packing = small_packing([("a",), ("b",), ("a", "c"), ("d",)])
    orders = random_orders(["a", "b", "c", "d"], 6, seed=21, size_range=(1, 3))
    result = ga_place(
        packing, build_layout("square", (3, 3), 2), orders,
        GaParams(population=8, max_evaluations=120, episodes=5), seed=5,
    )
    assert len(built) == 1 and built[0] is result.placement


def test_ga_place_rejects_the_signature_separators_in_drug_names():
    # a tile of ("a", "b") and one of ("a|b",) sign alike, so a GA over both
    # would give a swap of the two the other placement's cached score
    layout = build_layout("square", (2, 2), 1)
    iface = frozenset({Coord(2, 2)})
    one = Placement(layout, {Coord(1, 1): ("a", "b"), Coord(1, 2): ("a|b",)}, iface)
    other = Placement(layout, {Coord(1, 1): ("a|b",), Coord(1, 2): ("a", "b")}, iface)
    assert one != other and one.signature() == other.signature()
    orders = [Order(0, (("a", 1), ("b", 1)))]
    params = GaParams(population=2, max_evaluations=2, episodes=1)
    for name in ("a|b", "a;b"):
        with pytest.raises(ValueError, match=re.escape(f"drug name '{name}' contains")):
            ga_place(small_packing([("a", "b"), (name,), ("a",)]), layout, orders, params, seed=0)


def test_ga_trace_monotone_nonincreasing():
    packing = small_packing([("a",), ("b", "c"), ("d",)])
    layout = build_layout("square", (3, 3), 2)
    orders = random_orders(["a", "b", "c", "d"], 5, seed=41, size_range=(1, 3))
    result = ga_place(
        packing, layout, orders, GaParams(population=6, max_evaluations=90, episodes=4), seed=2
    )
    values = [v for _, v in result.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))
    csv = trace_to_csv(result.trace)
    assert csv.startswith("generation,best_fitness")


def test_ga_params_validation():
    with pytest.raises(ValueError, match="population"):
        GaParams(population=1)
    with pytest.raises(ValueError, match="episodes"):
        GaParams(episodes=0)
    with pytest.raises(ValueError, match="max_evaluations"):
        GaParams(population=8, max_evaluations=3)
    assert GaParams(population=8, max_evaluations=8).max_evaluations == 8


def test_ga_size_mismatch_error():
    packing = small_packing([("a",)] * 9)
    layout = build_layout("square", (3, 3), 2)  # 9 cells < 9 tiles + 2 interfaces
    with pytest.raises(ValueError):
        ga_place(packing, layout, [Order(0, (("a", 1),))], GaParams(population=4, max_evaluations=8), seed=0)


def test_placement_json_roundtrip(golden_placement):
    text = golden_placement.to_json()
    back = Placement.from_json(text)
    assert back == golden_placement


def test_placement_rejects_dispensers_on_interfaces():
    from planarfab.core import Coord, build_layout

    layout = build_layout("line", 2, 1)
    with pytest.raises(ValueError):
        Placement(layout, {Coord(1, 1): ("a",)}, frozenset({Coord(1, 1)}))
    with pytest.raises(ValueError):
        Placement(layout, {Coord(5, 5): ("a",)}, frozenset({Coord(1, 1)}))


def test_ga_place_8x8_matches_pinned_digest():
    # sha256 of the GA trace CSV and placement.json on the 8x8~2 reference,
    # recorded when the sampler's streams became counter-based (SplitMix64)
    import hashlib

    from planarfab.core import InstanceConfig
    from planarfab.ordergen import estimate_demand, sample_orders
    from planarfab.packing import pack_min_load

    from conftest import make_catalog

    layout = build_layout("square", (8, 8), 2)
    catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    config = InstanceConfig(n_dispensers=82, m_max=12, n_movers=4, dispensing_speed=100, seed=0)
    oset = sample_orders(catalog, 20, (3, 6), seed=1, dispensing_speed=100)
    packed = pack_min_load(
        estimate_demand(oset.orders), layout.n_tiles, config, drugs=catalog.drugs,
        mode="heuristic", seed=1, restarts=3,
    )
    ga = ga_place(
        packed, layout, oset.orders, GaParams(population=10, max_evaluations=60, episodes=5),
        seed=2,
    )
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    assert ga.best_fitness == pytest.approx(25.61)
    assert digest(trace_to_csv(ga.trace)) == (
        "7d35c294d3cbc7d8c1eaf5b3bb4c8589c08ecd4867749f61cebe40d31bc0c4e6"
    )
    assert digest(ga.placement.to_json()) == (
        "b69b750e1673f46cbe9b4993928c9a25a1238eabbf82b983fee06cbb5a9de578"
    )
