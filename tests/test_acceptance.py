"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with -s to see them); tolerances
are pinned in the assertions.  Criterion 12 (robustness study) is marked slow
and excluded from the default run.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from planarfab import ordergen, packing, routing, scheduling, shppn
from planarfab.core import Coord, InstanceConfig, Order, build_layout
from planarfab.ordergen import estimate_demand, sample_orders
from planarfab.packing import correlation_sum, pack_correlation, pack_min_load
from planarfab.placement import _EMPTY, _IFACE, GaParams, _decode, analytical_cost, ga_place, per_order_kappa
from planarfab.routing import generate_resting_sites, resolve_conflicts, route_schedule
from planarfab.scheduling import (
    SchedulingInstance,
    lower_bound,
    p_cmax,
    schedule,
    validate_schedule,
)

from conftest import make_catalog, random_orders, random_placement, realize
from test_ordergen import sample_inclusion_matrix
from test_packing import brute_force_min_load
from test_routing import matching_oracle_max_sites
from test_scheduling import oracle_best_makespan
from test_shppn import brute_force_kappa

pytestmark = pytest.mark.acceptance


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def build_8x8_instance(seed, n_orders, movers, speed=100, sizes=(3, 6)):
    """Reference-scale instance: 8x8~2 grid, 40 drugs, 82 dispensers."""
    layout = build_layout("square", (8, 8), 2)
    catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    config = InstanceConfig(
        n_dispensers=82, m_max=12, n_movers=movers, dispensing_speed=speed, seed=seed
    )
    oset = sample_orders(catalog, n_orders, sizes, seed=seed, dispensing_speed=speed)
    demand = estimate_demand(oset.orders)
    packed = pack_min_load(
        demand, layout.n_tiles, config, drugs=catalog.drugs, mode="heuristic",
        seed=seed, restarts=3,
    )
    used = [tuple(t) for t in packed.tiles]
    contents = used + [_IFACE] * 2 + [_EMPTY] * (64 - len(used) - 2)
    perm = list(range(len(contents)))
    random.Random(seed).shuffle(perm)
    pl = _decode(perm, contents, sorted(layout.tiles), layout)
    return pl, list(oset.orders), config


def test_criterion_1_golden_fig6(golden_placement, golden_orders):
    t0 = time.perf_counter()
    kappas = per_order_kappa(golden_placement, golden_orders)
    cost = analytical_cost(golden_placement, golden_orders)
    elapsed = time.perf_counter() - t0
    assert kappas == [3, 6, 3]
    assert cost == 4.0
    assert elapsed < 1.0
    report(1, f"golden fixture: kappas {kappas}, mean {cost}, {elapsed:.3f}s")


def test_criterion_2_shppn_oracle_equivalence():
    # the planner's κ (per_order_kappa on the kappa_routes table, and kappa on
    # one order) against brute force
    t0 = time.perf_counter()
    layouts = [
        build_layout("square", (5, 5), 2),
        build_layout("ring", 5, 2),
        build_layout("line", 12, 2),
        build_layout("doubleline", 8, 2),
    ]
    drugs = [f"d{i}" for i in range(6)]
    n_orders = padded = 0
    for trial in range(40):
        layout = layouts[trial % len(layouts)]
        pl = random_placement(layout, drugs, seed=trial, max_alternatives=3)
        orders = random_orders(drugs, 5, seed=trial, size_range=(1, 5))
        # sets of one drug count but different vertex counts share a padded chunk
        widths = {}
        for o in orders:
            widths.setdefault(len(o.drugs), set()).add(
                sum(len(pl.dispensers_for(g)) for g in o.drugs))
        padded += sum(len(w) > 1 for w in widths.values())
        want = [brute_force_kappa(o, pl) for o in orders]
        assert per_order_kappa(pl, orders) == want, trial
        assert [shppn.kappa(o, pl).kappa for o in orders] == want, trial
        n_orders += len(orders)
    elapsed = time.perf_counter() - t0
    assert n_orders == 200 and padded >= 30
    assert elapsed < 30.0
    report(2, f"{n_orders} orders on 4 topologies: per_order_kappa and kappa == brute force, "
              f"{elapsed:.1f}s")


def test_criterion_3_p_cmax_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(500):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        times = rng.integers(1, 60, n)
        val, assign = p_cmax(list(times), m)
        grid = np.indices((m,) * n).reshape(n, -1)
        loads = np.zeros((m, grid.shape[1]), dtype=int)
        for i in range(n):
            for mi in range(m):
                loads[mi] += np.where(grid[i] == mi, times[i], 0)
        assert val == int(loads.max(axis=0).min()), trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"500 P||Cmax instances exact == brute force, {elapsed:.1f}s")


def test_criterion_4_lower_bound_soundness():
    violations = 0
    rng = random.Random(4)
    for trial in range(100):
        side = rng.choice([4, 5, 6])
        layout = build_layout("square", (side, side), 2)
        n_drugs = rng.randint(4, 8)
        drugs = [f"d{i}" for i in range(n_drugs)]
        pl = random_placement(layout, drugs, seed=trial, max_alternatives=2)
        n_orders = rng.randint(3, 20)
        movers = rng.randint(1, 4)
        orders = random_orders(
            drugs, n_orders, seed=trial + 500, size_range=(1, 4), dur_range=(3, 15)
        )
        lb = lower_bound(orders, pl, movers, eta=2)
        s = schedule(orders, pl, movers, eta=2, seed=trial, max_iterations=5)
        plan = route_schedule(s, pl)
        if lb.value > plan.makespan:
            violations += 1
    assert violations == 0
    report(4, "100 full instances: lower bound <= routed makespan, zero violations")


def test_criterion_5_gap_envelope():
    seeds = range(10)
    within = 0
    gaps = []
    budget = 60.0
    for seed in seeds:
        pl, orders, config = build_8x8_instance(seed, 25, movers=2)
        lb = lower_bound(orders, pl, 2, eta=2)
        t0 = time.perf_counter()
        s = schedule(orders, pl, 2, eta=2, seed=seed, time_limit=budget, max_iterations=60)
        assert time.perf_counter() - t0 <= budget + 5
        gap = 100.0 * (s.makespan - lb.value) / lb.value
        gaps.append(gap)
        if gap <= 35.0:
            within += 1
    assert within >= 0.9 * len(list(seeds))
    report(5, f"makespan/LB gaps {['%.1f%%' % g for g in gaps]}; {within}/10 within 35%")


def test_criterion_6_scheduler_validity_and_toy_optimality():
    # 200 fuzzed instances validate clean
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcdef")
    for seed in range(200):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=2)
        orders = random_orders(
            drugs, 3 + seed % 6, seed=seed, size_range=(1, 3), dur_range=(2, 9)
        )
        movers = 1 + seed % 3
        s = schedule(orders, pl, movers, eta=2, seed=seed, max_iterations=3)
        inst = SchedulingInstance(tuple(orders), pl, movers, 2)
        assert validate_schedule(s, inst) == [], seed

    # toy-scale optimality equals the exhaustive oracle exactly
    from test_placement import line_placement

    toy_cases = []
    pl1 = line_placement(["IF", ("a",), ("b",)])
    toy_cases.append(([Order(0, (("a", 4), ("b", 3))), Order(1, (("b", 5),))], pl1, 2))
    toy_cases.append(
        ([Order(0, (("a", 6),)), Order(1, (("a", 2),)), Order(2, (("b", 3),))], pl1, 2)
    )
    pl2 = line_placement(["IF", ("a",), ("a",), "IF"])
    toy_cases.append(([Order(0, (("a", 5),)), Order(1, (("a", 5),))], pl2, 2))
    for orders, pl, movers in toy_cases:
        got = schedule(orders, pl, movers, eta=2, seed=0).makespan
        want = oracle_best_makespan(orders, pl, movers, 2)
        assert got == want
    report(6, "200 fuzzed schedules valid; toy instances match the exhaustive oracle")


def test_criterion_7_routing_fixpoint_and_overhead():
    t0 = time.perf_counter()
    overheads = []
    for seed in range(20):
        pl, orders, config = build_8x8_instance(seed + 100, 30, movers=8)
        s = schedule(orders, pl, 8, eta=2, seed=seed, max_iterations=6)
        plan = route_schedule(s, pl)
        assert plan.iterations <= 100
        found = routing.detect_conflicts(
            plan.paths, realize(plan.schedule, pl, plan.interruptions)
        )
        assert all(v <= plan.interruptions.get(k, 0) for k, v in found.items())
        overheads.append(100.0 * (plan.makespan - s.makespan) / s.makespan)
    elapsed = time.perf_counter() - t0
    med = statistics.median(overheads)
    assert med <= 5.0
    assert elapsed < 300.0
    report(7, f"20 seeds routed to fixpoint; median overhead {med:.2f}% ({elapsed:.0f}s)")


def test_criterion_8_resting_sites_fig9():
    layout = build_layout("square", (4, 4), 2)
    interfaces = {Coord(2, 1), Coord(3, 3)}
    sel = generate_resting_sites(layout, interfaces)
    oracle = matching_oracle_max_sites(layout, interfaces)
    assert sel.exact
    assert len(sel.sites) == oracle == 9
    report(8, "4x4~2 maximum capacity-feasible site set has cardinality 9")


def test_criterion_9_batch_merging():
    from planarfab.pipeline import schedule_batched

    pl, orders, config = build_8x8_instance(7, 100, movers=8, sizes=(3, 8))
    budget = 300.0

    t0 = time.perf_counter()
    merged, parts = schedule_batched(
        orders, pl, config, batch_size=50, seed=7, time_limit=None, iterations=10
    )
    plan = resolve_conflicts(merged, pl)
    batched_time = time.perf_counter() - t0
    assert batched_time < budget

    assert plan.makespan >= max(p.makespan for p in parts)
    ordered = sorted(orders, key=lambda o: o.id)
    inst = SchedulingInstance(tuple(ordered), pl, 8, 2)
    assert validate_schedule(merged, inst) == []

    # the unbatched reference runs a fixed LNS budget, not a wall-clock limit:
    # 250 iterations, more than a 60 s limit reached (229, 236 and 244 in three
    # runs on one core of a shared 2-core VM, makespan 9054 in each)
    t0 = time.perf_counter()
    direct = schedule(
        orders, pl, 8, eta=2, seed=7, time_limit=None, max_iterations=250,
    )
    direct_time = time.perf_counter() - t0
    assert batched_time < direct_time
    assert plan.schedule.makespan <= 1.10 * direct.makespan
    report(
        9,
        f"batched {plan.schedule.makespan} in {batched_time:.0f}s vs "
        f"unbatched {direct.makespan} in {direct_time:.0f}s (within 10%, faster)",
    )


def test_criterion_10_generator_fidelity():
    catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    inc = sample_inclusion_matrix(catalog, 100_000, seed=10)
    freq = inc.mean(axis=0)
    worst = float(np.max(np.abs(freq - np.array(catalog.marginals))))
    assert worst <= 0.02
    oset = sample_orders(catalog, 500, (3, 8), seed=11)
    assert all(3 <= len(o.items) <= 8 for o in oset)
    report(10, f"marginals within +-0.02 (worst {worst:.4f}); all sizes in [3,8]")


def test_criterion_11_packing_exactness_and_correlation():
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(15):
        n_drugs = int(rng.integers(2, 7))
        n_tiles = int(rng.integers(1, 4))
        d_max = int(rng.integers(1, 4))
        m_max = int(rng.integers(1, 4))
        n_disp = int(rng.integers(n_drugs, 10))
        if n_tiles * d_max < n_drugs:
            continue
        u = {f"g{i}": float(rng.integers(0, 40)) for i in range(n_drugs)}
        config = InstanceConfig(
            n_dispensers=n_disp, m_max=m_max, n_movers=1, d_max=d_max, seed=0
        )
        oracle = brute_force_min_load(u, n_tiles, d_max, m_max, n_disp)
        if oracle is math.inf:
            continue
        p = pack_min_load(ordergen.DemandVector(u), n_tiles, config)
        assert p.exact and p.mu_max == pytest.approx(oracle)
        checked += 1

        catalog = make_catalog(n_drugs, seed=trial, corr_scale=0.5)
        cat = catalog
        u2 = {g: u[f"g{i}"] for i, g in enumerate(cat.drugs)}
        p1 = pack_min_load(ordergen.DemandVector(u2), n_tiles, config)
        p2 = pack_correlation(p1, cat, config)
        assert p2.z == p1.z and p2.pi == p1.pi
        assert max(p2.mu) <= p1.mu_max + 1e-9
        assert p2.correlation_objective >= correlation_sum(p1.tiles, cat) - 1e-9
    assert checked >= 8
    report(11, f"{checked} exact packings == exhaustive optimum; stage 2 never regresses")


@pytest.mark.slow
def test_criterion_12_robustness_spread():
    layout = build_layout("square", (8, 8), 2)
    catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    config = InstanceConfig(
        n_dispensers=82, m_max=12, n_movers=4, dispensing_speed=100, seed=0
    )
    train = sample_orders(catalog, 20, (3, 8), seed=1, dispensing_speed=100)
    demand = estimate_demand(train.orders)
    packed_1 = pack_min_load(
        demand, layout.n_tiles, config, drugs=catalog.drugs, mode="heuristic", seed=1
    )
    packed = pack_correlation(packed_1, catalog, config, mode="heuristic")
    ga = ga_place(
        packed, layout, train.orders,
        GaParams(population=16, max_evaluations=260, episodes=6), seed=2,
    )
    pl = ga.placement

    makespans = []
    for seed in range(20):
        oset = sample_orders(catalog, 20, (3, 8), seed=100 + seed, dispensing_speed=100)
        s = schedule(list(oset.orders), pl, 4, eta=2, seed=seed, max_iterations=25)
        makespans.append(s.makespan)
    mean = statistics.mean(makespans)
    spread = max(abs(m - mean) / mean for m in makespans)
    assert spread <= 0.15
    report(12, f"20 unseen sets: makespan spread {100 * spread:.1f}% of mean (<= 15%)")
