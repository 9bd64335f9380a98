import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planarfab.core import Coord, Order, build_layout
from planarfab.packing import Packing
from planarfab.placement import (
    GaParams,
    Placement,
    _Uniforms,
    _choose,
    _chunks,
    _draw,
    _pcg_raw,
    _pcg_states,
    _sample_pairs,
    _seed_words,
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


# --- batched sampler vs the per-placement reference ---------------------------------

def reference_order_episodes(placement, order, interfaces, episodes, rng) -> float:
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
    loc = rng.integers(0, n_i, size=episodes)
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


def reference_fitness(placement, history, episodes, seed):
    """(mean, per-order steps) of one placement, one order at a time."""
    interfaces = sorted(placement.interfaces)
    per_order = []
    for oi, order in enumerate(history):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(oi,)))
        per_order.append(reference_order_episodes(placement, order, interfaces, episodes, rng))
    return (float(sum(per_order) / len(per_order)) if per_order else 0.0), tuple(per_order)


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
    # candidate counts of 8 or more, where numpy's sum turns pairwise
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
# sampler read per-pair slot tables, kept verbatim.

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
    r = u * w.sum(axis=1)
    return (np.cumsum(w, axis=1) > r[:, None]).argmax(axis=1)


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
    got = _stacks(placements, orders, index)
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
    words = _seed_words([31 * p + 5 for p in range(len(placements))])
    interfaces = np.array([[index[c] for c in sorted(pl.interfaces)] for pl in placements])
    n_drugs = np.array([len(o.drugs) for o in orders])

    def uniforms(rows, cols):
        width = episodes * (int(n_drugs[cols].max()) + 1)
        return _Uniforms(_pcg_states(words[rows], cols), layout.n_inter, episodes, width)

    got, counts = {}, set()
    stacks = _stacks(placements, orders, index)
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


def test_choose_rounding_can_pick_an_unusable_tile():
    # numpy sums a row of 8 or more weights pairwise, which can exceed the last
    # cumulative weight: the largest uniform below 1 then falls past every
    # usable tile, argmax picks column 0 and the episode takes an extra step,
    # so a pair can need more uniforms than its drugs suggest
    d = np.array([[12, 9, 8, 4, 5, 1, 2, 1, 3]])
    w = _weights(d) * (np.arange(9)[None, :] > 0)  # column 0 unusable
    assert _choose(w, np.array([np.nextafter(1.0, 0.0)])).tolist() == [0]


def test_sample_pairs_matches_reference_when_the_block_runs_dry_after_retirements():
    # one stack of two candidates holds a one-drug and a two-drug order; a
    # block of one uniform per episode runs dry at step 2, when the one-drug
    # pair's episodes have all retired and only the other pair takes uniforms
    pl = line_placement(["IF", ("a",), ("b",), (), ("a",), ("c",), "IF"])
    orders = [Order(0, (("a", 1),)), Order(1, (("b", 1), ("c", 1)))]
    index, table = pl.layout.index_table
    (rows, cols, tiles, masks), = _stacks([pl], orders, index).values()
    full = np.array([1, 3], dtype=masks.dtype)[cols]
    assert sorted(full.tolist()) == [1, 3]
    interfaces = np.array([[index[c] for c in sorted(pl.interfaces)]])[rows]
    episodes = 6
    state = _pcg_states(_seed_words([41] * len(rows)), cols)

    def sample(kernel, width):
        uniforms = _Uniforms(state, 2, episodes, width)
        steps = kernel(table, interfaces, tiles, masks, full, uniforms)
        return steps.tolist(), uniforms.block.shape[1]

    got, width = sample(_sample_pairs, episodes)
    assert width > episodes  # the block was drawn again, wider
    assert (got, width) == sample(reference_sample_pairs, episodes)
    # drawn again from the same streams: as if the block had been wide enough
    assert got == sample(_sample_pairs, 3 * episodes)[0]


def test_sample_pairs_matches_reference_on_a_rounding_pick_of_an_unusable_tile():
    # the row of test_choose_rounding_can_pick_an_unusable_tile: from the
    # tile of drug a (column 0), already dispensed, the largest uniform
    # below 1 picks column 0 again, so episode 0 takes an extra step
    table = np.zeros((10, 10), dtype=np.int64)
    table[0, 1:] = table[1:, 0] = np.arange(1, 10)  # slot 0 is the interface
    table[1, 2:] = [9, 8, 4, 5, 1, 2, 1, 3]
    interfaces, tiles = np.array([[0]]), np.arange(1, 10)[None, :]
    masks = np.array([[1] + [2] * 8], dtype=np.uint8)  # drug a, then drug b
    full = np.array([3], dtype=np.uint8)
    top = np.nextafter(1.0, 0.0)
    # in stream order: step 1 of episodes 0 and 1, step 2 of both, step 3 of
    # episode 0 (its extra one), then both returns
    values = [0.0, 0.0, top, 0.5, 0.5, 0.25, 0.25]
    state = _pcg_states(_seed_words([3]), [0])

    def sample(kernel):
        uniforms = _Uniforms(state, 1, 2, 8)
        uniforms.block[0, : len(values)] = values
        steps = kernel(table, interfaces, tiles, masks, full, uniforms)
        return steps.tolist(), uniforms.used.tolist()

    got = sample(_sample_pairs)
    assert got == sample(reference_sample_pairs)
    # episode 0: 1 to a, 0 for the extra pick, 2 to b, 7 back; episode 1:
    # 1 to a, 2 to b, 7 back; seven uniforms, one more than without rounding
    assert got == ([(10 + 10) / 2], [7])


def test_uniforms_extend_a_dry_block_from_the_same_stream():
    # blocks of 2 x episodes uniforms (one drug per order), which the takes
    # below overrun
    episodes = 3
    state = _pcg_states(_seed_words([99] * 3), range(3))
    uniforms = _Uniforms(state, 2, episodes, 2 * episodes)
    streams = []
    for oi in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(oi,)))
        assert list(uniforms.start[oi]) == list(rng.integers(0, 2, size=episodes))
        streams.append(rng)
    rng = np.random.default_rng(4)
    for _ in range(6):
        mask = rng.random((3, episodes)) < 0.7
        expected = np.concatenate([streams[i].random(int(mask[i].sum())) for i in range(3)])
        assert uniforms.take(np.nonzero(mask)[0]).tolist() == expected.tolist()
    assert uniforms.block.shape[1] > 2 * episodes  # the block was extended


# --- batched streams vs numpy's per-pair generators -------------------------------

pair_lists = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10_000)), min_size=1, max_size=5
)


@given(pair_lists, st.integers(1, 12), st.integers(1, 5), st.integers(1, 40))
@example([(0, 0), (2**32 - 1, 10_000)], 1, 1, 1)
@example([(0, 0), (1, 1)], 7, 3, 2)
@settings(max_examples=60, deadline=None)
def test_batched_streams_match_default_rng(pairs, episodes, n_interfaces, width):
    state = _pcg_states(_seed_words([s for s, _ in pairs]), [o for _, o in pairs])
    raw = _pcg_raw(state, 2 * width)
    start, block = _draw(state, n_interfaces, episodes, width)
    uniforms = _Uniforms(state, n_interfaces, episodes, 1)
    mask = np.ones((len(pairs), episodes), dtype=bool)
    rows = np.nonzero(mask)[0]
    taken = np.concatenate([uniforms.take(rows) for _ in range(3)]).reshape(3, len(pairs), -1)
    for i, (seed, order) in enumerate(pairs):
        want = lambda: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(order,)))  # noqa: E731
        assert raw[i].tolist() == want().bit_generator.random_raw(2 * width).tolist()
        rng = want()
        assert start[i].tolist() == rng.integers(0, n_interfaces, size=episodes).tolist()
        assert uniforms.start[i].tolist() == start[i].tolist()
        assert block[i].tolist() == rng.random(width).tolist()
        rng = want()
        rng.integers(0, n_interfaces, size=episodes)
        # one uniform per pair is drawn up front, so every take refills
        assert taken[:, i].ravel().tolist() == rng.random(3 * episodes).tolist()


def test_draw_redraws_a_rejected_lemire_sample_as_numpy_does():
    # a PCG64 state whose next output is 0 (equal state halves, so XSL-RR
    # gives 0): each uint32 half times n has low word 0 < 2**32 mod n, so
    # numpy's Lemire step rejects both and draws on; later draws shift
    from planarfab.placement import _PCG_MULT

    mod = 1 << 128
    inc = (0x9E3779B97F4A7C15 << 1) | 1
    after = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    before = (after - inc) * pow(_PCG_MULT, -1, mod) % mod
    state = tuple(
        np.array([v], dtype=np.uint64)
        for v in (before >> 64, before & (2**64 - 1), inc >> 64, inc & (2**64 - 1))
    )

    def numpy_rng():
        bits = np.random.PCG64()
        bits.state = {
            "bit_generator": "PCG64", "state": {"state": before, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return np.random.Generator(bits)

    assert numpy_rng().bit_generator.random_raw() == 0
    for n_interfaces, episodes in [(3, 4), (5, 5), (3, 1)]:
        rng = numpy_rng()
        start, block = _draw(state, n_interfaces, episodes, 6)
        assert start[0].tolist() == rng.integers(0, n_interfaces, size=episodes).tolist()
        assert block[0].tolist() == rng.random(6).tolist()


def test_fitness_batch_builds_no_generator_per_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair generator")

    layout = build_layout("square", (4, 4), 2)
    drugs = ["a", "b", "c"]
    placements = [random_placement(layout, drugs, seed=s) for s in range(3)]
    orders = random_orders(drugs, 5, seed=5)
    want = fitness_batch(placements, orders, 6, [1, 2, 3])
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
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
    # κ is solved, not refused, and lies between the reach-and-return bound
    # and every feasible greedy route
    from planarfab.scheduling import _OrderPaths, _Timer

    layout = build_layout("square", (6, 6), 2)
    drugs = [f"d{i}" for i in range(9)]
    pl = random_placement(layout, drugs, seed=2, max_alternatives=4)
    big = [Order(0, tuple((g, 1) for g in drugs))]
    cost = analytical_cost(pl, big)
    dist = layout.distance
    required = [t for g in drugs for t in pl.dispensers_for(g)]
    reach = min(dist(i, t) for i in pl.interfaces for t in required)
    paths = _OrderPaths(big[0], _Timer(pl, big, 2))
    assert 2 * reach <= cost <= min(n for n, *_ in paths.greedy_routes(paths.lead(None).tolist()))
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
    from planarfab.placement import _EMPTY, _IFACE, _decode

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
    # recorded before the fitness sampler read the layout's distance table
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
    assert ga.best_fitness == pytest.approx(25.36)
    assert digest(trace_to_csv(ga.trace)) == (
        "3192db7837d21368516dcaf4498d25f9920db00355f07d10aef2708cfdd8371f"
    )
    assert digest(ga.placement.to_json()) == (
        "e0b4ccbe385967bf300a9ed9caa34e008fda823cf10b9fd40666529aec293c75"
    )
