import dataclasses
import hashlib
import itertools
import math
import random
import time
from typing import NamedTuple

import numpy as np
import pytest

from planarfab import shppn
from planarfab.core import Coord, Order, build_layout
from planarfab.placement import Placement
from planarfab.scheduling import (
    CANDIDATES,
    DISPENSING,
    FINISH,
    P_CMAX_EXACT_LIMIT,
    START,
    Schedule,
    ScheduledOp,
    SchedulingInstance,
    _insert_best,
    _load_bound,
    _lpt,
    _Plan,
    _commits,
    _lower_bound,
    _run,
    _Timer,
    _route_count,
    _splice_heads,
    _splice_tails,
    _tails,
    build_operations,
    lower_bound,
    p_cmax,
    schedule,
    schedule_issues,
    validate_schedule,
)

from conftest import random_orders, random_placement
from test_placement import line_placement


class Route(NamedTuple):
    """A route on Coords: the form the references below build and compare."""

    start_iface: Coord
    stops: tuple  # (drug, tile) visit order
    end_iface: Coord

    def length(self, dist, prev_loc=None):
        total = 0 if prev_loc is None else dist(prev_loc, self.start_iface)
        cur = self.start_iface
        for _, t in self.stops:
            total += dist(cur, t)
            cur = t
        return total + dist(cur, self.end_iface)


def _coords(layout, route):
    """The Coord form of a scheduler Route or ranking key (length, start, stops,
    end): tile ids map back through Layout.sorted_tiles()."""
    tiles = layout.sorted_tiles()
    _, start, stops, end = route[:4]
    return Route(tiles[start], tuple((g, tiles[t]) for g, t in stops), tiles[end])


def _tile_id(layout, tile):
    return None if tile is None else layout.index_table[0][tile]


# --- independent exhaustive oracle --------------------------------------------------
# Enumerates order-to-mover maps, per-mover order sequences and per-order
# operation routes, and times each combination with its own left-shift
# simulator: repeatedly start, among every mover's next pending operation, the
# one with the smallest feasible start (ties by mover), where the feasible
# start respects mover travel and the first free slot on the target tile.

def _oracle_routes(order, placement):
    ifaces = sorted(placement.interfaces)
    alts = [sorted(placement.dispensers_for(g)) for g in order.drugs]
    routes = []
    for perm in itertools.permutations(range(len(alts))):
        for combo in itertools.product(*(alts[i] for i in perm)):
            for si in ifaces:
                for ei in ifaces:
                    stops = [("interface", si, None)]
                    stops += [
                        (order.drugs[p], c, dict(order.items)[order.drugs[p]])
                        for p, c in zip(perm, combo)
                    ]
                    stops.append(("interface", ei, None))
                    routes.append(stops)
    return routes


def _oracle_timing(sequences, placement, eta):
    """Commits [(mover, tile, start, duration)] in commit order."""
    dist = placement.layout.distance
    chains = []
    for seq in sequences:
        chain = []
        for order, route in seq:
            for target, tile, dur in route:
                chain.append((tile, eta if dur is None else dur))
        chains.append(chain)
    busy: dict = {}
    ptr = [0] * len(chains)
    ready = [0] * len(chains)
    loc = [None] * len(chains)
    commits = []
    remaining = sum(len(c) for c in chains)
    while remaining:
        pick = None
        for m, chain in enumerate(chains):
            if ptr[m] >= len(chain):
                continue
            tile, dur = chain[ptr[m]]
            t = ready[m] + (dist(loc[m], tile) if loc[m] is not None else 0)
            for s, e in sorted(busy.get(tile, [])):
                if t + dur <= s:
                    break
                t = max(t, e)
            if pick is None or (t, m) < pick[:2]:
                pick = (t, m, tile, dur)
        t, m, tile, dur = pick
        busy.setdefault(tile, []).append((t, t + dur))
        ready[m] = t + dur
        loc[m] = tile
        ptr[m] += 1
        commits.append((m, tile, t, dur))
        remaining -= 1
    return commits


def oracle_best_makespan(orders, placement, n_movers, eta):
    routes = [_oracle_routes(o, placement) for o in orders]
    best = math.inf
    for assign in itertools.product(range(n_movers), repeat=len(orders)):
        groups = {}
        for oi, m in enumerate(assign):
            groups.setdefault(m, []).append(oi)
        seq_options = []
        for m in sorted(groups):
            seq_options.append(list(itertools.permutations(groups[m])))
        for seqs in itertools.product(*seq_options):
            flat = [oi for s in seqs for oi in s]
            for combo in itertools.product(*(routes[oi] for oi in flat)):
                sequences = [[] for _ in range(n_movers)]
                ci = 0
                for m, s in zip(sorted(groups), seqs):
                    for oi in s:
                        sequences[m].append((orders[oi], combo[ci]))
                        ci += 1
                commits = _oracle_timing(sequences, placement, eta)
                best = min(best, max(t + dur for _, _, t, dur in commits))
    return best


# --- operations ----------------------------------------------------------------------

def test_build_operations_counts():
    one = Order(0, (("a", 5),))
    four = Order(1, tuple((g, 2) for g in "abcd"))
    ops = build_operations([one, four], eta=2)
    assert len(ops) == 3 + 6
    kinds = [o.kind for o in ops if o.order_id == 0]
    assert kinds == [START, DISPENSING, FINISH]
    assert all(o.duration == 2 for o in ops if o.target == "interface")


def test_operation_multiset_matches_gantt_structure():
    # structural check: 4 movers' worth of orders produce exactly
    # 2 interface bars per order plus one bar per prescribed drug
    orders = random_orders(list("abcdef"), 10, seed=2, size_range=(1, 4))
    ops = build_operations(orders, eta=2)
    n_disp = sum(len(o.items) for o in orders)
    assert sum(1 for o in ops if o.kind == DISPENSING) == n_disp
    assert sum(1 for o in ops if o.kind in (START, FINISH)) == 2 * len(orders)


# --- toy examples --------------------------------------------------------------------

def test_single_order_forced_shape():
    pl = line_placement(["IF", ("a",)])
    s = schedule([Order(0, (("a", 10),))], pl, 1, eta=2)
    assert s.makespan == 16
    inst = SchedulingInstance((Order(0, (("a", 10),)),), pl, 1, 2)
    assert validate_schedule(s, inst) == []


def test_two_identical_orders_single_mover():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 10),)), Order(1, (("a", 10),))]
    s = schedule(orders, pl, 1, eta=2)
    assert s.makespan == 32
    assert s.makespan == oracle_best_makespan(orders, pl, 1, 2)


def test_shared_dispenser_serializes():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 10),)), Order(1, (("a", 10),))]
    s = schedule(orders, pl, 2, eta=2)
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_schedule(s, inst) == []
    assert s.makespan >= 20 + 1  # dispensing cannot overlap; travel adds at least 1
    assert s.makespan == oracle_best_makespan(orders, pl, 2, 2)


# --- validator -----------------------------------------------------------------------

def _lookup(s, order_id, kind, target=None):
    return next(
        so for so in s.ops
        if so.op.order_id == order_id and so.op.kind == kind
        and (target is None or so.op.target == target)
    )


def test_validator_catches_tile_overlap():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 10),)), Order(1, (("a", 10),))]
    s = schedule(orders, pl, 2, eta=2)
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    # force both dispensing ops to the same window
    a0 = _lookup(s, 0, DISPENSING)
    moved = tuple(
        ScheduledOp(so.op, so.mover, so.tile, a0.start if so.op.kind == DISPENSING else so.start)
        for so in s.ops
    )
    bad = Schedule(moved, max(so.end for so in moved))
    assert any("rule 4" in v for v in validate_schedule(bad, inst))


def test_validator_catches_interleaving():
    pl = line_placement(["IF", ("a",), ("b",)])
    orders = [Order(0, (("a", 4),)), Order(1, (("b", 4),))]
    ops = build_operations(orders, eta=2)
    iface, ta, tb = Coord(1, 1), Coord(1, 2), Coord(1, 3)
    tiles = {START: iface, FINISH: iface, DISPENSING: None}
    # interleave the two orders on one mover
    seq = [
        (0, START, iface, 0),
        (1, START, iface, 10),
        (0, DISPENSING, ta, 3),
        (1, DISPENSING, tb, 14),
        (0, FINISH, iface, 20),
        (1, FINISH, iface, 30),
    ]
    by_key = {(o.order_id, o.kind): o for o in ops}
    sos = tuple(
        ScheduledOp(by_key[(oid, kind)], 0, tile, start) for oid, kind, tile, start in seq
    )
    bad = Schedule(sos, max(s.end for s in sos))
    inst = SchedulingInstance(tuple(orders), pl, 1, 2)
    assert any("rule 3" in v for v in validate_schedule(bad, inst))


def test_validator_catches_wrong_tile_and_negative_time():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 4),))]
    s = schedule(orders, pl, 1, eta=2)
    inst = SchedulingInstance(tuple(orders), pl, 1, 2)
    wrong = tuple(
        ScheduledOp(so.op, so.mover, Coord(1, 1), so.start) if so.op.kind == DISPENSING else so
        for so in s.ops
    )
    assert any("rule 1" in v for v in validate_schedule(Schedule(wrong, s.makespan), inst))
    neg = tuple(ScheduledOp(so.op, so.mover, so.tile, so.start - 5) for so in s.ops)
    assert any("rule 8" in v for v in validate_schedule(Schedule(neg, s.makespan - 5), inst))


def test_validator_checks_travel_and_overlaps_on_realized_ends():
    """Pauses lengthen an op's realized end: one pause makes an op overrun
    the next op on its tile (rule 4), another its mover's travel (rule 2)."""
    pl = line_placement(["IF", ("a",), ("b",)])
    iface, ta, tb = Coord(1, 1), Coord(1, 2), Coord(1, 3)
    orders = [Order(0, (("a", 4),)), Order(1, (("b", 4),))]
    # ops 0-2 (order 0) on mover 0, ops 3-5 (order 1) on mover 1
    placed = [(0, iface, 0), (0, ta, 5), (0, iface, 10), (1, iface, 2), (1, tb, 6), (1, iface, 12)]
    ops = tuple(
        ScheduledOp(op, mover, tile, start)
        for op, (mover, tile, start) in zip(build_operations(orders, eta=2), placed)
    )
    s = Schedule(ops, 14)
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_schedule(s, inst) == []
    # op 0 ends at 3 on the interface, where op 3 starts at 2; it still
    # reaches op 1 in time.  Op 1 ends at 10 and op 2 starts at 10, one tile away.
    pauses = {0: 1, 1: 1}
    assert validate_schedule(s, inst, pauses) == [
        "rule 2: mover 0 ops 1->2 gap 0 < travel 1",
        "rule 4: tile (1, 1) ops 0,3 overlap",
    ]
    assert validate_schedule(s, inst, {0: 1}) == ["rule 4: tile (1, 1) ops 0,3 overlap"]
    assert validate_schedule(s, inst, {1: 1}) == ["rule 2: mover 0 ops 1->2 gap 0 < travel 1"]


def test_validator_reports_a_changed_duration_once_under_rule_1():
    """ScheduledOp.end is start plus the op's own duration, so a duration that
    differs from the instance shows only as a rule 1 mismatch."""
    pl = line_placement(["IF", ("a",), ("b",)])
    iface, ta, tb = Coord(1, 1), Coord(1, 2), Coord(1, 3)
    orders = [Order(0, (("a", 4),)), Order(1, (("b", 4),))]
    placed = [(0, iface, 0), (0, ta, 5), (0, iface, 10), (1, iface, 2), (1, tb, 6), (1, iface, 12)]
    ops = [
        ScheduledOp(op, mover, tile, start)
        for op, (mover, tile, start) in zip(build_operations(orders, eta=2), placed)
    ]
    inst = SchedulingInstance(tuple(orders), pl, 2, 2)
    assert validate_schedule(Schedule(tuple(ops), 14), inst) == []
    ops[1] = ScheduledOp(dataclasses.replace(ops[1].op, duration=3), 0, ta, 5)
    assert validate_schedule(Schedule(tuple(ops), 14), inst) == [
        "rule 1: op 1 does not match the instance"
    ]


def test_schedule_issues_reports_movers_outside_the_fleet_and_repeated_ids():
    """The order-free rules: a fleet too small for the schedule's movers, and
    two ops under one id."""
    pl = line_placement(["IF", ("a",)])
    s = schedule([Order(0, (("a", 5),))], pl, 1, eta=2)
    assert schedule_issues(s, pl, 1) == []
    assert sorted(schedule_issues(s, pl, 0)) == [
        f"rule 1: op {i} mover 0 is outside the fleet of 0" for i in range(3)
    ]
    ops = [dataclasses.replace(so, op=dataclasses.replace(so.op, op_id=0)) for so in s.ops]
    assert schedule_issues(Schedule(tuple(ops), s.makespan), pl, 1) == [
        "rule 1: op id 0 is used 3 times"
    ]


def test_validator_reports_off_layout_tiles_without_raising():
    # square and ring layouts; (3, 3) is in the ring's hole
    for layout in (build_layout("square", (4, 4), 2), build_layout("ring", 5, 2)):
        pl = random_placement(layout, list("ab"), seed=3)
        orders = [Order(0, (("a", 4), ("b", 3))), Order(1, (("b", 5),))]
        s = schedule(orders, pl, 1, eta=2, seed=0, max_iterations=3)
        inst = SchedulingInstance(tuple(orders), pl, 1, 2)
        assert validate_schedule(s, inst) == []
        for kind, off in ((DISPENSING, Coord(3, 3)), (START, Coord(9, 9))):
            if off in layout.tiles:
                off = Coord(9, 9)
            target = _lookup(s, 0, kind)
            moved = tuple(
                ScheduledOp(so.op, so.mover, off, so.start) if so is target else so
                for so in s.ops
            )
            issues = validate_schedule(Schedule(moved, s.makespan), inst)
            assert any(f"op {target.op.op_id} " in v for v in issues), (layout.topology, kind)


def test_scheduler_outputs_valid_over_seeded_suite():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcde")
    for seed in range(50):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=2)
        orders = random_orders(drugs, 4 + seed % 4, seed=seed, size_range=(1, 3))
        n_movers = 1 + seed % 3
        s = schedule(orders, pl, n_movers, eta=2, seed=seed, max_iterations=15)
        inst = SchedulingInstance(tuple(orders), pl, n_movers, 2)
        assert validate_schedule(s, inst) == [], seed


# --- P||Cmax -------------------------------------------------------------------------

def test_p_cmax_examples():
    assert p_cmax([5], 2)[0] == 5
    assert p_cmax([3, 3, 2, 2, 2], 2)[0] == 6
    assert p_cmax([7, 7, 7], 3)[0] == 7


def test_p_cmax_exact_matches_bruteforce_500():
    rng = np.random.default_rng(0)
    for trial in range(500):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        times = rng.integers(1, 50, n)
        val, assign = p_cmax(list(times), m)
        # vectorized assignment brute force
        grid = np.indices((m,) * n).reshape(n, -1)
        loads = np.zeros((m, grid.shape[1]), dtype=int)
        for i in range(n):
            for mi in range(m):
                loads[mi] += np.where(grid[i] == mi, times[i], 0)
        oracle = int(loads.max(axis=0).min())
        assert val == oracle, (trial, list(times), m)
        got = [0] * m
        for i, mi in enumerate(assign):
            got[mi] += times[i]
        assert max(got) == val


def test_p_cmax_modes():
    times = [9, 8, 7, 1]
    exact, _ = p_cmax(times, 2)
    bound = _load_bound(times, 2)
    lpt, assign = _lpt(times, 2)
    assert bound <= exact <= lpt
    assert bound == max(max(times), math.ceil(sum(times) / 2))
    with pytest.raises(ValueError):
        p_cmax(list(range(25)), 2)
    with pytest.raises(ValueError):
        p_cmax([1], 0)


@pytest.mark.parametrize("times, optimum, assign", [
    ([16, 29, 23, 43, 39, 44, 34, 19, 38, 32, 24, 23, 24, 20, 18, 22, 28, 20, 27, 26], 70,
     [4, 2, 6, 1, 2, 0, 4, 7, 3, 3, 5, 6, 6, 4, 5, 7, 5, 7, 1, 0]),
    ([36, 33, 16, 44, 28, 37, 22, 29, 39, 16, 32, 23, 40, 30, 31, 33, 23, 27, 23, 37], 76,
     [1, 3, 4, 0, 7, 2, 7, 5, 2, 5, 0, 6, 1, 6, 5, 4, 6, 4, 7, 3]),
    ([38, 41, 25, 33, 40, 32, 45, 43, 47, 36, 50, 31, 37, 49, 34, 36, 28, 48, 21, 47], 98,
     [5, 3, 6, 7, 4, 5, 2, 3, 1, 6, 0, 7, 4, 1, 7, 6, 5, 0, 4, 2]),
])
def test_p_cmax_at_the_exact_limit_prunes_by_waste(times, optimum, assign):
    """Twenty jobs on 8 machines that the branch and bound took 3.6-16 s
    over (2-core VM) before it pruned machines that cannot take a job below
    the incumbent and subtrees whose jobs left exceed the usable room; the
    pruned search returns the same optimum and assignment."""
    assert len(times) == P_CMAX_EXACT_LIMIT
    t0 = time.process_time()
    assert p_cmax(times, 8) == (optimum, assign)
    assert time.process_time() - t0 < 2.0


# --- lower bound ---------------------------------------------------------------------

def test_lower_bound_single_order(golden_placement):
    order = Order(0, (("ATORVASTATIN", 5), ("HYDROCHLOROTHIAZIDE", 5)))
    lb = lower_bound([order], golden_placement, 3, eta=2)
    assert lb.value == lb.t_values[0] == 4 + 3 + 10
    assert lb.exact


def test_lower_bound_two_equal_orders_two_movers():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 10),)), Order(1, (("a", 10),))]
    lb = lower_bound(orders, pl, 2, eta=2)
    assert lb.t_values == {0: 16, 1: 16}
    assert lb.value == 16


def test_schedule_and_lower_bound_reject_repeated_order_ids():
    # two orders of id 0 would share op ids in the schedule and one entry
    # in the bound's t_values and assignment
    pl = random_placement(build_layout("square", (4, 4), 2), list("abc"), seed=1)
    orders = [Order(0, (("a", 3),)), Order(1, (("b", 4),)), Order(0, (("c", 2),))]
    with pytest.raises(ValueError, match="order id 0 appears twice"):
        schedule(orders, pl, 2, eta=2)
    with pytest.raises(ValueError, match="order id 0 appears twice"):
        lower_bound(orders, pl, 2, eta=2)


def test_lower_bound_below_schedule_on_seeded_instances():
    layout = build_layout("square", (5, 5), 2)
    drugs = list("abcdef")
    for seed in range(10):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=2)
        orders = random_orders(drugs, 10, seed=seed + 10, size_range=(1, 4), dur_range=(5, 20))
        lb = lower_bound(orders, pl, 2, eta=2)
        s = schedule(orders, pl, 2, eta=2, seed=seed, max_iterations=25)
        assert lb.value <= s.makespan, seed


def test_lower_bound_inexact_mode_above_guard():
    pl = line_placement(["IF", ("a",), ("b",)])
    orders = random_orders(["a", "b"], 25, seed=3, size_range=(1, 2))
    lb = lower_bound(orders, pl, 2, eta=2)
    assert not lb.exact
    assert set(lb.assignment) == {o.id for o in orders}


def test_construction_puts_each_order_on_its_lower_bound_mover():
    """The search's warm start is lower_bound's assignment, the P||Cmax
    optimum up to P_CMAX_EXACT_LIMIT orders and LPT over T_p above: with no
    LNS iteration, every order runs on its mover there."""
    drugs = list("abcdef")
    layouts = [build_layout("square", (5, 5), 2), build_layout("ring", 6, 2),
               build_layout("line", 10, 2)]
    not_lpt = 0
    for li, layout in enumerate(layouts):
        for seed, n_orders in enumerate((5, 9, 14, 20, 27, 40)):
            rng = random.Random(100 * li + seed)
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
            orders = random_orders(drugs, n_orders, seed=seed, size_range=(1, 4),
                                   dur_range=(1, 9))
            n_movers = rng.randint(2, 5)
            lb = lower_bound(orders, pl, n_movers, eta=2)
            s = schedule(orders, pl, n_movers, eta=2, seed=seed, max_iterations=0)
            assert {so.op.order_id: so.mover for so in s.ops} == lb.assignment, (li, seed)
            lpt = _lpt([lb.t_values[o.id] for o in orders], n_movers)[1]
            not_lpt += lpt != [lb.assignment[o.id] for o in orders]
    assert not_lpt  # the exact assignment is not LPT's on some instances


# --- optimality and search behaviour -------------------------------------------------

def test_toy_scale_optimality_matches_oracle():
    cases = []
    pl1 = line_placement(["IF", ("a",), ("b",)])
    cases.append(([Order(0, (("a", 4), ("b", 3))), Order(1, (("b", 5),))], pl1, 2))
    cases.append(([Order(0, (("a", 6),)), Order(1, (("a", 2),)), Order(2, (("b", 3),))], pl1, 2))
    pl2 = line_placement(["IF", ("a",), ("a",), "IF"])
    cases.append(([Order(0, (("a", 5),)), Order(1, (("a", 5),))], pl2, 2))
    layout = build_layout("square", (3, 3), 2)
    pl3 = Placement(
        layout,
        {Coord(1, 1): ("a",), Coord(3, 3): ("b",), Coord(2, 2): ("a", "b")},
        frozenset({Coord(1, 3), Coord(3, 1)}),
    )
    cases.append(([Order(0, (("a", 3), ("b", 3))), Order(1, (("a", 4),))], pl3, 2))
    for orders, pl, movers in cases:
        s = schedule(orders, pl, movers, eta=2, seed=0)
        oracle = oracle_best_makespan(orders, pl, movers, 2)
        assert s.makespan == oracle, (orders, s.makespan, oracle)
        inst = SchedulingInstance(tuple(orders), pl, movers, 2)
        assert validate_schedule(s, inst) == []


def test_incumbent_trace_monotone():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcd")
    pl = random_placement(layout, drugs, seed=3, max_alternatives=2)
    orders = random_orders(drugs, 8, seed=4, size_range=(1, 3))
    s = schedule(orders, pl, 2, eta=2, seed=1, max_iterations=60)
    trace = s.incumbent_trace
    assert len(trace) > 1
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_schedule_deterministic_under_seed_and_iterations():
    layout = build_layout("square", (4, 4), 2)
    drugs = list("abcd")
    pl = random_placement(layout, drugs, seed=8, max_alternatives=2)
    orders = random_orders(drugs, 7, seed=9, size_range=(1, 3))
    a = schedule(orders, pl, 2, eta=2, seed=5, max_iterations=40)
    b = schedule(orders, pl, 2, eta=2, seed=5, max_iterations=40)
    assert a.ops == b.ops


def test_schedule_on_a_given_route_table_matches_its_own():
    """schedule() given a route table over more drug sets than its orders
    have, as the pipeline hands one to every batch, returns the plan it
    finds on the table it solves itself."""
    layouts = [build_layout("square", (5, 5), 2), build_layout("ring", 5, 3),
               build_layout("line", 9, 2)]
    drugs = list("abcdefg")
    for li, layout in enumerate(layouts):
        for seed in range(3):
            pl = random_placement(layout, drugs, seed=20 * li + seed, max_alternatives=3)
            orders = random_orders(drugs, 24, seed=seed, size_range=(1, 6))
            table = shppn.kappa_routes((o.drugs for o in orders), pl)
            mine = orders[seed::2]
            own = schedule(mine, pl, 3, eta=2, seed=seed, max_iterations=8)
            given = schedule(mine, pl, 3, eta=2, seed=seed, max_iterations=8, route_table=table)
            assert given.ops == own.ops and given.incumbent_trace == own.incumbent_trace, (li, seed)


def test_schedule_errors(golden_placement):
    with pytest.raises(ValueError):
        schedule([], golden_placement, 1)
    with pytest.raises(ValueError):
        schedule([Order(0, (("nope", 1),))], golden_placement, 1)
    with pytest.raises(ValueError):
        schedule([Order(0, (("OMEPRAZOLE", 1),))], golden_placement, 0)
    with pytest.raises(ValueError):
        schedule([Order(0, (("OMEPRAZOLE", 1),))], golden_placement, 1, eta=0)


@pytest.mark.parametrize("time_limit", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_schedule_refuses_a_time_limit_not_finite_and_positive(golden_placement, time_limit):
    # a NaN or infinite deadline never stops the search
    orders = [Order(0, (("OMEPRAZOLE", 1),))]
    with pytest.raises(ValueError, match="time_limit must be a finite number > 0"):
        schedule(orders, golden_placement, 1, time_limit=time_limit, max_iterations=1)
    with pytest.raises(ValueError, match="max_iterations must be >= 0"):
        schedule(orders, golden_placement, 1, max_iterations=-1)


def test_schedule_csv_and_json_roundtrip():
    pl = line_placement(["IF", ("a",)])
    orders = [Order(0, (("a", 10),))]
    s = schedule(orders, pl, 1, eta=2)
    text = s.to_json()
    back = Schedule.from_json(text)
    assert back.ops == s.ops and back.makespan == s.makespan
    csv = s.to_csv()
    assert csv.splitlines()[0] == "op_id,order,drug,mover,tile_x,tile_y,start,end"
    assert len(csv.strip().splitlines()) == 1 + len(s.ops)


# --- timing engine against the oracle ------------------------------------------------

def _engine_layouts():
    """Square grids (distance is l1) and a ring (distance is BFS around the hole)."""
    return [
        build_layout("square", (4, 4), 2),
        build_layout("square", (5, 5), 3),
        build_layout("ring", 5, 2),
    ]


def _random_plan(rng, timer, orders, n_movers):
    """Random movers, sequences and routes, as an engine _Plan and as oracle sequences."""
    placement = timer.placement
    layout = placement.layout
    plan = _Plan(n_movers)
    sequences = [[] for _ in range(n_movers)]
    ifaces = sorted(placement.interfaces)
    for order in rng.sample(orders, len(orders)):
        m = rng.randrange(n_movers)
        drugs = list(order.drugs)
        rng.shuffle(drugs)
        stops = tuple((g, rng.choice(sorted(placement.dispensers_for(g)))) for g in drugs)
        route = Route(rng.choice(ifaces), stops, rng.choice(ifaces))
        plan.seqs[m].append((order, timer.route(
            order, route.length(layout.distance), _tile_id(layout, route.start_iface),
            tuple((g, _tile_id(layout, t)) for g, t in stops), _tile_id(layout, route.end_iface),
        )))
        dur = dict(order.items)
        sequences[m].append((
            order,
            [("interface", route.start_iface, None)]
            + [(g, t, dur[g]) for g, t in stops]
            + [("interface", route.end_iface, None)],
        ))
    return plan, sequences


def test_timing_matches_busy_list_oracle_on_random_plans():
    drugs = list("abcdef")
    ring = _engine_layouts()[2]
    assert ring.distance(Coord(1, 3), Coord(5, 3)) == 8  # around the hole; l1 says 4
    checked = 0
    for li, layout in enumerate(_engine_layouts()):
        for seed in range(60):
            rng = random.Random(1000 * li + seed)
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
            orders = random_orders(drugs, rng.randint(1, 9), seed=seed,
                                   size_range=(1, 4), dur_range=(1, 9))
            n_movers = rng.randint(1, 4)
            eta = rng.randint(1, 3)
            timer = _Timer(pl, orders, eta)
            plan, sequences = _random_plan(rng, timer, orders, n_movers)
            placed = []
            timer.run(plan, placed=placed)
            want = _oracle_timing(sequences, pl, eta)
            tiles = layout.sorted_tiles()
            assert [(m, tiles[tile], t) for _, m, tile, t in placed] == [
                (m, tile, t) for m, tile, t, _ in want
            ], (li, seed)
            starts = [t for *_, t in placed]
            assert starts == sorted(starts), (li, seed)
            checked += 1
    assert checked == 180


def _naive_insert_best(plan, order, timer, movers=None):
    """Reference insertion: re-time the whole plan for every candidate.

    Returns the first strict minimum and the number of candidates whose key
    equals it."""
    best = best_key = None
    ties = 0
    for m in range(len(plan.seqs)) if movers is None else movers:
        seq = plan.seqs[m]
        for pos in range(len(seq) + 1):
            prev_loc = seq[pos - 1][1].end if pos > 0 else None
            for route in timer.candidates(order, prev_loc):
                seq.insert(pos, (order, route))
                key = timer.run(plan)
                seq.pop(pos)
                if best_key is None or key < best_key:
                    best, best_key, ties = (m, pos, route), key, 1
                elif key == best_key:
                    ties += 1
    return best, best_key, ties


def test_prefix_reusing_insertion_matches_naive_retiming():
    drugs = list("abcdef")
    layouts = _engine_layouts()
    # (0, 184): identical orders where a later candidate with a lower starting
    # bound ties the winner's key, so only the tie rule picks the earlier one
    cases = [(li, seed) for li in range(len(layouts)) for seed in range(40)] + [(0, 184)]
    tied = 0
    for li, seed in cases:
        layout = layouts[li]
        rng = random.Random(7000 + 1000 * li + seed)
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
        orders = random_orders(drugs, rng.randint(2, 12), seed=seed + 50,
                               size_range=(1, 4), dur_range=(1, 9))
        if seed % 4 == 0:  # identical orders: many candidates share the least key
            orders = [Order(o.id, orders[0].items) for o in orders]
        n_movers = rng.randint(1, 8)
        timer = _Timer(pl, orders, eta=rng.randint(1, 3))
        plan, _ = _random_plan(rng, timer, orders[1:], n_movers)
        movers = None if seed % 3 else [rng.randrange(n_movers)]
        (m, pos, route), want_key, ties = _naive_insert_best(plan, orders[0], timer, movers)
        tied += ties > 1
        want = plan.copy()
        want.seqs[m].insert(pos, (orders[0], route))
        got_key = _insert_best(plan, orders[0], timer, movers)
        assert (plan.seqs, got_key) == (want.seqs, want_key), (li, seed)
    assert tied >= 20


def test_splice_heads_match_spliced_tails_at_every_candidate():
    """The O(1) starting-bound tails of every (mover, position, route)
    candidate equal entry 0 of _splice_tails and entry k of the _tails of the
    spliced chain, whose entries from k on _splice_tails returns."""
    drugs = list("abcdef")
    checked = at_end = 0
    for li, layout in enumerate(_engine_layouts()):
        for seed in range(30):
            rng = random.Random(3000 + 1000 * li + seed)
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
            orders = random_orders(drugs, rng.randint(2, 12), seed=seed + 30,
                                   size_range=(1, 4), dur_range=(1, 9))
            n_movers = 8 if seed % 2 else rng.randint(1, 7)
            timer = _Timer(pl, orders, eta=rng.randint(1, 3))
            plan, _ = _random_plan(rng, timer, orders[1:], n_movers)
            dist = timer.dist
            for seq, chain in zip(plan.seqs, timer.chains(plan)):
                span, flow = _tails(chain, dist)
                k = 0
                for pos in range(len(seq) + 1):
                    prev_loc = seq[pos - 1][1].end if pos > 0 else None
                    options = timer.candidates(orders[0], prev_loc)
                    heads = _splice_heads(chain, span, flow, k, options, dist)
                    assert len(heads) == len(options)
                    for route, head in zip(options, heads):
                        d = dist[route.seg[-1][2]][chain[k][2]] if k < len(chain) else 0
                        spliced = _splice_tails(span, flow, k, route.tails, d)
                        full = _tails(chain[:k] + route.seg + chain[k:], dist)
                        assert head == (spliced[0][0], spliced[1][0]), (li, seed, pos)
                        assert spliced == (full[0][k:], full[1][k:]), (li, seed, pos)
                        assert head == (full[0][k], full[1][k]), (li, seed, pos)
                        checked += 1
                        at_end += k == len(chain)
                    if pos < len(seq):
                        k += len(seq[pos][1].seg)
    assert at_end >= 100 and checked - at_end >= 1000


@pytest.mark.parametrize("n_movers", [1, 8])
def test_plan_timing_entries_match_sequences_around_every_insertion(monkeypatch, n_movers):
    """Every (chain, span, flow) that a plan keeps equals the chain and tails
    recomputed from its sequences, before and after each insertion of the
    construction and of at least 20 LNS iterations."""
    import planarfab.scheduling as scheduling

    insert = scheduling._insert_best
    calls = {"insertions": 0, "kept": 0}

    def check(plan, timer):
        chains = timer.chains(plan)
        spans, flows = timer.tails(chains)
        for m, entry in enumerate(plan.timing):
            if entry is not None:
                assert entry == (chains[m], spans[m], flows[m]), m
                calls["kept"] += 1

    def checked_insert(plan, order, timer, movers=None):
        check(plan, timer)
        key = insert(plan, order, timer, movers)
        check(plan, timer)
        calls["insertions"] += 1
        return key

    monkeypatch.setattr(scheduling, "_insert_best", checked_insert)
    drugs = list("abcdefgh")
    pl = random_placement(build_layout("square", (5, 5), 2), drugs, seed=4, max_alternatives=3)
    orders = random_orders(drugs, 16, seed=5, size_range=(1, 4), dur_range=(1, 9))
    got = schedule(orders, pl, n_movers, seed=3, max_iterations=25)
    assert validate_schedule(got, SchedulingInstance(tuple(orders), pl, n_movers, 2)) == []
    assert len(got.incumbent_trace) == 26  # the construction, then 25 LNS iterations
    assert calls["insertions"] > len(orders) + 25
    assert calls["kept"] >= calls["insertions"] * (n_movers - 1)


def _timeline_from_origin(plan, timer):
    """The state after every finish op of a run from the origin over the
    plan's current chains, per mover: what its timeline may keep."""
    chains = timer.chains(plan)
    states = [[] for _ in chains]
    _run(chains, timer.tails(chains), timer.dist, *timer.origin(chains),
         marks=timer.finishes, snaps=states)
    return states


@pytest.mark.parametrize("topology", ["square", "ring", "line"])
@pytest.mark.parametrize("n_movers", [1, 4, 8])
def test_plan_timeline_matches_a_run_from_the_origin_around_every_insertion(
        monkeypatch, topology, n_movers):
    """Every state that a plan keeps past pruning equals the state of a run
    from the origin over its current chains, before and after each insertion
    of the construction and of 25 LNS iterations: after every removal, after
    every reinsertion, and after the states of its own runs are added."""
    import planarfab.scheduling as scheduling

    insert = scheduling._insert_best
    calls = {"insertions": 0, "kept": 0, "dropped": 0}

    def check(plan, timer):
        pruned = plan.copy()
        pruned.prune()
        assert pruned.change == [math.inf] * n_movers
        want = _timeline_from_origin(plan, timer)
        for m, states in enumerate(pruned.timeline):
            assert states == want[m][:len(states)], m
            calls["kept"] += len(states)
            calls["dropped"] += len(plan.timeline[m]) - len(states)

    def checked_insert(plan, order, timer, movers=None):
        check(plan, timer)
        key = insert(plan, order, timer, movers)
        check(plan, timer)
        calls["insertions"] += 1
        return key

    monkeypatch.setattr(scheduling, "_insert_best", checked_insert)
    layout = {"square": build_layout("square", (5, 5), 2), "ring": build_layout("ring", 6, 2),
              "line": build_layout("line", 14, 2)}[topology]
    drugs = list("abcdefgh")
    pl = random_placement(layout, drugs, seed=6, max_alternatives=3)
    orders = random_orders(drugs, 16, seed=7, size_range=(1, 4), dur_range=(1, 9))
    got = schedule(orders, pl, n_movers, seed=2, max_iterations=25)
    assert validate_schedule(got, SchedulingInstance(tuple(orders), pl, n_movers, 2)) == []
    assert len(got.incumbent_trace) == 26  # the construction, then 25 LNS iterations
    assert calls["insertions"] > len(orders) + 25
    assert calls["kept"] >= 2 * calls["insertions"] and calls["dropped"] >= calls["insertions"]


def test_insertion_resumes_from_the_latest_state_left_valid(monkeypatch):
    """An insertion's timeline run starts at the latest state that the
    previous winner's splice left valid: after a tail insertion that is
    past the origin, so it commits fewer ops than a run from the origin;
    after an insertion at position 0 of a mover, the origin itself.  A copy
    of the plan shares the states."""
    import planarfab.scheduling as scheduling

    run = scheduling._run
    starts = []

    def recorded_run(chains, tails, dist, ptr, *args, marks=None, **kwargs):
        if marks is not None:
            starts.append(sum(ptr))
        return run(chains, tails, dist, ptr, *args, marks=marks, **kwargs)

    monkeypatch.setattr(scheduling, "_run", recorded_run)
    drugs = list("abcdefgh")
    tail = head = 0
    for li, layout in enumerate(_engine_layouts()):
        for seed in range(10):
            rng = random.Random(5000 + 100 * li + seed)
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
            orders = random_orders(drugs, 10, seed=seed + 90, size_range=(1, 4),
                                   dur_range=(1, 9))
            n_movers = rng.randint(1, 4)
            timer = _Timer(pl, orders, eta=2)
            plan = _Plan(n_movers)
            last = None  # (mover, position, length) of the previous winner
            for order in orders:
                movers = None if rng.random() < 0.5 else [rng.randrange(n_movers)]
                if last is not None:
                    latest = plan.copy()
                    latest.prune()
                    states = [s[-1] for s in latest.timeline if s]
                    want = max((sum(s[0]) for s in states), default=0)
                total = sum(map(len, timer.chains(plan)))
                del starts[:]
                seqs = [list(seq) for seq in plan.seqs]
                _insert_best(plan, order, timer, movers)
                m = next(m for m, (a, b) in enumerate(zip(seqs, plan.seqs)) if len(a) < len(b))
                pos = next(i for i, (o, _) in enumerate(plan.seqs[m]) if o is order)
                assert plan.change[m] == sum(len(r.seg) for _, r in plan.seqs[m][:pos])
                if last is not None and starts:
                    assert starts == [want], (li, seed)
                    if last[1] == 0:
                        assert want == 0, (li, seed)
                        head += 1
                    if last[1] == last[2] >= 2:  # a state after the mover's first order is left
                        assert 0 < want < total, (li, seed)
                        tail += 1
                last = (m, pos, len(plan.seqs[m]) - 1)
            copy = plan.copy()
            for mine, theirs in zip(copy.timeline, plan.timeline):
                assert mine is not theirs and mine == theirs
                assert all(a is b for a, b in zip(mine, theirs))
    assert tail >= 20 and head >= 20


def test_lns_restart_with_a_bare_best_matches_retiming_from_the_origin(monkeypatch):
    """The LNS keeps its best plan without a timeline, so a restart after
    500 stale iterations resumes from the origin; every schedule equals the
    one found when each insertion drops every state first."""
    import planarfab.scheduling as scheduling

    copy = scheduling._Plan.copy
    bare = [0]

    def counted_copy(plan, timeline=True):
        bare[0] += any(plan.seqs) and not any(plan.timeline)
        return copy(plan, timeline)

    def drop_all(plan):
        plan.timeline = [[] for _ in plan.seqs]
        plan.change = [math.inf] * len(plan.seqs)

    drugs = list("abcdef")
    for seed, layout in enumerate(_engine_layouts()):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
        orders = random_orders(drugs, 10, seed=seed + 20, size_range=(1, 3), dur_range=(1, 9))
        with monkeypatch.context() as patch:
            patch.setattr(scheduling._Plan, "copy", counted_copy)
            got = schedule(orders, pl, 2, seed=seed, max_iterations=700)
        with monkeypatch.context() as patch:
            patch.setattr(scheduling._Plan, "prune", drop_all)
            want = schedule(orders, pl, 2, seed=seed, max_iterations=700)
        assert got == want, seed
    assert bare[0] >= 1  # some search restarted from its best plan


def _bounded_run_cases():
    """(case, chains, tails, dist, state) over random plans on four layouts:
    each plan's origin and the state after some mover's k-th op, the states
    (ptr, nxt, wait, free, makespan, flow) that a run starts or resumes from."""
    drugs = list("abcdefgh")
    layouts = _engine_layouts() + [build_layout("square", (3, 3), 1)]  # 3x3: shared tiles
    for li, layout in enumerate(layouts):
        for seed in range(25):
            rng = random.Random(9000 + 1000 * li + seed)
            pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
            orders = random_orders(drugs, rng.randint(1, 14), seed=seed + 70,
                                   size_range=(1, 5), dur_range=(1, 9))
            n_movers = 8 if seed % 2 else rng.randint(1, 7)
            timer = _Timer(pl, orders, eta=rng.randint(1, 3))
            plan, _ = _random_plan(rng, timer, orders, n_movers)
            chains = timer.chains(plan)
            tails = timer.tails(chains)
            # resume from the origin or from the state after some mover's k-th op
            states = [timer.origin(chains)]
            busy = [m for m, c in enumerate(chains) if c]
            m = rng.choice(busy)
            k = rng.randint(1, len(chains[m]))
            snaps = [[] for _ in range(n_movers)]
            _run(chains, tails, timer.dist, *timer.origin(chains), marks={chains[m][k - 1][0]},
                 snaps=snaps)
            states.append(snaps[m][0][:6])
            for state in states:
                yield (li, seed), chains, tails, timer.dist, state


def test_bounded_run_returns_none_exactly_when_key_reaches_bound():
    checked = 0
    for case, chains, tails, dist, (ptr, nxt, wait, free, makespan, flow) in _bounded_run_cases():
        def resume(bound=(math.inf, math.inf)):
            return _run(chains, tails, dist, ptr[:], nxt[:], wait[:], free[:],
                        makespan, flow, bound)

        key = resume()
        lb = _lower_bound(chains, tails, ptr, nxt, makespan, flow)
        assert lb[0] <= key[0] and lb[1] <= key[1], case
        for dm in (-3, -1, 0, 1, 2):
            for df in (-40, -1, 0, 1, 25):
                bound = (key[0] + dm, key[1] + df)
                got = resume(bound)
                assert got == (None if key >= bound else key), (case, bound)
                checked += 1
    assert checked == 4 * 25 * 2 * 25


def test_suspended_run_resumes_to_the_uninterrupted_run():
    """A run suspended at a rising series of bounds and resumed each time
    commits what an uninterrupted run commits and returns its key.  Every
    bound it yields is at least the bound it was given and equals the
    _lower_bound of the suspended state; sent a bound it has already
    reached, it yields that bound again without a commit."""
    suspensions = at_origin = 0
    for case, chains, tails, dist, (ptr, nxt, wait, free, makespan, flow) in _bounded_run_cases():
        rng = random.Random(repr(case))
        durations = {op_id: dur for chain in chains for op_id, dur, _ in chain}
        want = []
        key = _run(chains, tails, dist, ptr[:], nxt[:], wait[:], free[:], makespan, flow,
                   placed=want)
        lb = _lower_bound(chains, tails, ptr, nxt, makespan, flow)
        state = ptr[:], nxt[:], wait[:], free[:]
        placed = []
        bound = lb if rng.random() < 0.3 else (lb[0], lb[1] + rng.randint(1, 20))
        run = _commits(chains, tails, dist, *state, makespan, flow, bound, placed, None, None)
        try:
            got = next(run)
            while True:
                assert got >= bound, case
                ends = [start + durations[op_id] for op_id, _, _, start in placed]
                assert got == _lower_bound(chains, tails, state[0], state[1],
                                           max([makespan, *ends]), flow + sum(ends)), case
                commits = len(placed)
                assert run.send(got) == got and len(placed) == commits, case
                suspensions += 1
                at_origin += not placed
                if rng.random() < 0.8:
                    bound = (got[0], got[1] + rng.randint(1, 10))
                else:
                    bound = (got[0] + 1, got[1] - rng.randint(0, 40))
                got = run.send(bound)
        except StopIteration as done:
            assert done.value == key, case
        assert placed == want, case
    assert suspensions >= 500 and at_origin >= 50


# --- route oracle ------------------------------------------------------------------
# Every route of an order, listed in the exhaustive search's enumeration order;
# the references below rank and check the κ DP's routes against it.

def _reference_enumeration(order, placement):
    interfaces = sorted(placement.interfaces)
    alts = [(g, sorted(placement.dispensers_for(g))) for g in order.drugs]
    routes = []
    for perm in itertools.permutations(range(len(alts))):
        for combo in itertools.product(*(alts[i][1] for i in perm)):
            stops = tuple((alts[i][0], c) for i, c in zip(perm, combo))
            for si in interfaces:
                for ei in interfaces:
                    routes.append(Route(si, stops, ei))
    return routes


def test_candidate_routes_are_the_shortest_per_start_interface():
    """The κ DP's candidates from every previous location, against every
    route of the order: each candidate's length is its lead-in leg plus the
    least every_route() length among routes with its start interface, and
    its stops walk that length on the layout, ending at the interface
    nearest the last stop.  The candidates are the CANDIDATES least (length,
    start) of those, and the table's κ is the least every_route() length."""
    layouts = [build_layout("square", (4, 4), 2), build_layout("ring", 5, 3),
               build_layout("line", 8, 2), build_layout("ring", 4, 1)]
    drugs = list("abcde")
    checked = shared = tied = 0
    for li, layout in enumerate(layouts):
        dist = layout.distance
        for seed in range(6):
            pl = random_placement(layout, drugs, seed=10 * li + seed, max_alternatives=3)
            orders = random_orders(drugs, 6, seed=seed, size_range=(1, 5))
            table = shppn.kappa_routes((o.drugs for o in orders), pl)
            timer = _Timer(pl, orders, 2, table)
            interfaces = sorted(pl.interfaces)
            for o in orders:
                if _route_count(o, pl, len(interfaces)) > 600:
                    continue
                tiles = [t for g in o.drugs for t in pl.dispensers_for(g)]
                shared += len(tiles) != len(set(tiles))
                every = timer.every_route(o)
                want = _reference_enumeration(o, pl)
                assert [_coords(layout, r) for r in every] == want
                assert [r.length for r in every] == [r.length(dist) for r in want]
                best = {i: min(r.length(dist) for r in want if r.start_iface == i)
                        for i in interfaces}
                assert table[o.drugs].kappa == min(best.values())
                tied += any(sum(r.length(dist) == best[r.start_iface] for r in want
                                if r.start_iface == i) > 1 for i in interfaces)
                for prev_loc in [None] + sorted(layout.tiles):
                    lead = {i: 0 if prev_loc is None else dist(prev_loc, i) for i in interfaces}
                    got = timer.candidates(o, _tile_id(layout, prev_loc))
                    ranked = sorted((lead[i] + best[i], i) for i in interfaces)[:CANDIDATES]
                    assert [(r.length, _coords(layout, r).start_iface) for r in got] == ranked, (
                        li, seed, o.id, prev_loc)
                    for r in got:
                        path = _coords(layout, r)
                        assert r.length == path.length(dist, prev_loc), (li, seed, o.id, prev_loc)
                        assert sorted(g for g, _ in path.stops) == sorted(o.drugs)
                        assert all(t in pl.dispensers_for(g) for g, t in path.stops)
                        last = path.stops[-1][1]
                        assert path.end_iface == min(interfaces, key=lambda i: (dist(last, i), i))
                        assert [t for *_, t in r.seg] == [r.start, *(t for _, t in r.stops), r.end]
                        checked += 1
    assert shared >= 10 and tied >= 20 and checked > 1000


# --- exhaustive size rule ------------------------------------------------------------

def reference_exhaustive_count(orders, placement, n_movers):
    """The enumeration that _exhaustive_count replaced: over every order-to-mover
    map, the per-mover order permutations times every order's route count.
    It stopped once past EXHAUSTIVE_CAP; here it runs to the end."""
    if len(orders) > 3 or n_movers > 2:
        return None
    total = 0
    route_counts = []
    for o in orders:
        c = _route_count(o, placement, len(placement.interfaces))
        if c > 64:
            return None
        route_counts.append(c)
    for assign in itertools.product(range(n_movers), repeat=len(orders)):
        groups: dict[int, list[int]] = {}
        for oi, m in enumerate(assign):
            groups.setdefault(m, []).append(oi)
        combos = 1
        for m, members in groups.items():
            combos *= math.factorial(len(members))
        for oi in range(len(orders)):
            combos *= route_counts[oi]
        total += combos
    return total


def test_exhaustive_count_matches_enumeration_and_picks_the_path(monkeypatch):
    """The closed form equals the enumeration for every n <= 3 and m <= 2, on
    both sides of EXHAUSTIVE_CAP, and schedule() searches exhaustively
    exactly when the enumerated count is within the cap."""
    import planarfab.scheduling as scheduling

    class Taken(Exception):
        pass

    def stop(path):
        def search(*args):
            raise Taken(path)
        return search

    monkeypatch.setattr(scheduling, "_exhaustive_search", stop("exhaustive"))
    monkeypatch.setattr(scheduling, "_lns_search", stop("lns"))
    layout = build_layout("square", (4, 4), 2)
    drugs = [f"d{i}" for i in range(4)]
    within = set()
    for seed in range(12):
        pl = random_placement(layout, drugs, seed=seed, max_alternatives=3)
        orders = random_orders(drugs, 3, seed=seed, size_range=(1, 2))
        for n, m in itertools.product((1, 2, 3), (1, 2)):
            want = reference_exhaustive_count(orders[:n], pl, m)
            assert scheduling._exhaustive_count(orders[:n], pl, m) == want, (seed, n, m)
            exhaustive = want is not None and want <= scheduling.EXHAUSTIVE_CAP
            with pytest.raises(Taken) as took:
                schedule(orders[:n], pl, m, max_iterations=1)
            assert took.value.args[0] == ("exhaustive" if exhaustive else "lns"), (seed, n, m)
            if want is not None:
                within.add(exhaustive)
    assert within == {True, False}


# --- outputs pinned across engine versions --------------------------------------------
# sha256 of schedule(...).to_json(): the exhaustive pins as produced by the
# busy-list timing engine that preceded the free-slot one, the LNS pins on
# insertion routes from the κ DP; the engine must keep every decision.

def _digest(s):
    return hashlib.sha256(s.to_json().encode()).hexdigest()


def test_exhaustive_schedule_matches_pinned_digest():
    layout = build_layout("square", (3, 3), 2)
    pl = Placement(
        layout,
        {Coord(1, 1): ("a",), Coord(3, 3): ("b",), Coord(2, 2): ("a", "b")},
        frozenset({Coord(1, 3), Coord(3, 1)}),
    )
    orders = [Order(0, (("a", 3), ("b", 3))), Order(1, (("a", 4),)), Order(2, (("b", 2),))]
    s = schedule(orders, pl, 2, eta=2, seed=0)
    assert s.makespan == 22
    assert _digest(s) == "9e01b17dea22d46c96be0b6668de5bbbe3a39613912ce58f231d7e4d38340fd8"


def test_lns_schedule_4x4_matches_pinned_digest():
    pl = random_placement(build_layout("square", (4, 4), 2), list("abcd"), seed=8)
    orders = random_orders(list("abcd"), 9, seed=9, size_range=(1, 3))
    s = schedule(orders, pl, 2, eta=2, seed=5, max_iterations=40)
    assert s.makespan == 116
    assert _digest(s) == "e495caef2d6f8b02ab683de4c82ec78b8c9110086db31777bfd87e9e2880a01d"


def test_lns_schedule_8x8_matches_pinned_digest():
    from test_acceptance import build_8x8_instance

    pl, orders, _config = build_8x8_instance(3, 30, movers=4)
    s = schedule(orders, pl, 4, eta=2, seed=11, max_iterations=5)
    assert s.incumbent_trace == (4056, 4052, 4052, 4051, 4051, 4051)
    assert _digest(s) == "84b2a99e3dd774ac146b83f4cc947f4d078d87dd790206d9d01417b45fdf50f4"


def test_lns_schedule_8x8_with_8_movers_matches_pinned_digest():
    # with 8 movers many insertion candidates interleave and tie, so the
    # best-first search suspends and resumes candidate runs often
    from test_acceptance import build_8x8_instance

    pl, orders, _config = build_8x8_instance(2, 25, movers=8)
    s = schedule(orders, pl, 8, eta=2, seed=2, max_iterations=5)
    assert s.incumbent_trace == (1869, 1869, 1869, 1869, 1869, 1869)
    assert _digest(s) == "15821c229693ec15a5fde1d092326b38e19b35cd35c1a5fe930c744c687f01e6"


def test_schedules_on_ring_with_empty_tiles_match_pinned_digests():
    # pinned while the timing engine still ran on placed-tile positions: on
    # this ring 10 of 16 tiles are empty, so those positions differ from the
    # layout's tile ids, and travel goes around the hole, not by l1
    layout = build_layout("ring", 5, 2)
    pl = random_placement(layout, list("abcd"), seed=4, max_alternatives=2)
    assert len(pl.coords()) == 6
    orders = random_orders(list("abcd"), 8, seed=6, size_range=(1, 3))
    s = schedule(orders, pl, 2, eta=2, seed=3, max_iterations=30)
    assert s.makespan == 109
    assert _digest(s) == "69173d131147aae720b26be2021922f75a3e0149f4d89c8aaf3f1254f82f0de6"
    s = schedule(orders[:2], pl, 2, eta=2, seed=0)  # exhaustive
    assert s.makespan == 32
    assert _digest(s) == "c1809de364845a588341504d67c563fa4ab240638f0e0a00c198830fc1796e13"
