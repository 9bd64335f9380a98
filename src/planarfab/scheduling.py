"""Operational scheduling: orders onto movers, operations onto dispensers and ticks.

Movers are take-give resources: an order's operations run contiguously on one
mover (cartridge load first, collection last) and no other order may interleave
on that mover.  Travel times between consecutive operations of a mover equal
the tile distance; every placed tile serves one mover at a time.  Rather than
shipping a constraint engine, the feasibility semantics live in an explicit
validator (the validator IS the model) and are searched by constructive
insertion plus seeded large-neighborhood search; instances small enough to
enumerate are solved exhaustively.

Timing policy (shared by construction, search and the exhaustive mode): given
per-mover order sequences and per-order routes, repeatedly commit, among every
mover's next pending operation, the one with the earliest feasible start (ties
by mover index); an operation's feasible start is the first instant at or
after mover-ready + travel for which its tile has a free slot of the required
length.  Start times are therefore left-shifted for the chosen decisions.

Slot rule: commits come in nondecreasing start order.  A mover that did not
commit keeps a candidate start that can only grow as tiles fill, and the
committing mover's next start is at least t + duration.  Every duration is at
least one tick (eta >= 1 is enforced here, dispensing >= 1 by Order), so a new
interval on a tile starts at or after every earlier interval's start there,
hence at or after its end: the feasible start is max(mover-ready + travel,
end of the tile's last interval), one "free" tick per tile.  The same order
lets a plan keep its timeline, the timing state wherever a mover ends an
order: a state stays valid until an edit reaches an op that it has
committed or waits for, so insertion resumes the plan without the new order
from the latest state still valid, and each candidate from the state where
its mover reaches the insertion point.  A timing run can also stop and
resume in the middle: it suspends whenever its bound reaches the one it was
given and goes on, unchanged, under a higher one, which lets insertion
advance many candidate runs best first, each only while its bound is the
least.

The makespan lower bound follows the relaxation route: exact per-order path
times T_p = 2 eta + κ + dispensing feed a parallel-machines problem whose
optimum (or, above the guard, the load bound max(max T, ceil(sum T / m)))
bounds every valid schedule from below.  Its machine assignment, the
P||Cmax optimum up to the guard and Graham's LPT rule over T_p above it, is
the search's warm start: construction inserts each order on its mover.

Routes: the scheduler has one tile-id space, the layout's sorted tiles
(Layout.index_table), shared by the route oracle and the timing engine;
Coords appear only in the ScheduledOps.  An order's insertion candidates
come from the κ DP (shppn.kappa_routes), the pass whose κ values also feed
the lower bound: for each start interface, the order's shortest route from
there.  Each schedule() call has one context (_Timer) that holds the route
table, builds every order's Routes once, each carrying its chain segment
of (op_id, duration, tile id) and the segment's tails, and ranks them once
per previous location: the candidates are the CANDIDATES routes of least
lead-in leg plus length.  Only the exhaustive search enumerates every
route of its orders.  Schedule documents are written as indent-2 JSON text
directly, byte-equal to json.dumps(doc, indent=2).
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import shppn
from .core import INTERFACE, Coord, Order, check_json

_str = json.encoder.encode_basestring_ascii  # json.dumps's string escaping (ensure_ascii)

START = "start"
DISPENSING = "dispensing"
FINISH = "finish"

EXHAUSTIVE_CAP = 300_000
P_CMAX_EXACT_LIMIT = 20
CANDIDATES = 4  # insertion candidates per (order, previous location)


@dataclass(frozen=True)
class OperationSpec:
    op_id: int
    order_id: int
    target: str  # drug name or "interface"
    duration: int
    kind: str  # start | dispensing | finish


@dataclass(frozen=True)
class ScheduledOp:
    op: OperationSpec
    mover: int
    tile: Coord
    start: int

    @property
    def end(self) -> int:
        return self.start + self.op.duration


@dataclass(frozen=True)
class Schedule:
    ops: tuple[ScheduledOp, ...]
    makespan: int
    incumbent_trace: tuple[int, ...] = ()

    def by_mover(self) -> dict[int, list[ScheduledOp]]:
        out: dict[int, list[ScheduledOp]] = {}
        for so in sorted(self.ops, key=lambda s: (s.mover, s.start, s.op.op_id)):
            out.setdefault(so.mover, []).append(so)
        return out

    def to_csv(self) -> str:
        lines = ["op_id,order,drug,mover,tile_x,tile_y,start,end"]
        for so in sorted(self.ops, key=lambda s: (s.start, s.mover, s.op.op_id)):
            lines.append(
                f"{so.op.op_id},{so.op.order_id},{so.op.target},{so.mover},"
                f"{so.tile.x},{so.tile.y},{so.start},{so.end}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The schedule document, byte-equal to json.dumps(doc, indent=2)."""
        return schedule_json(self, "")

    @staticmethod
    def from_json(text: str) -> "Schedule":
        doc = check_json(json.loads(text), {"makespan": int, "ops": [{
            "op_id": int, "order": int, "target": str, "kind": str, "duration": int,
            "mover": int, "tile": [int], "start": int,
        }]})
        ops = tuple(
            ScheduledOp(
                OperationSpec(o["op_id"], o["order"], o["target"], o["duration"], o["kind"]),
                o["mover"],
                Coord(*o["tile"]),
                o["start"],
            )
            for o in doc["ops"]
        )
        return Schedule(ops, doc["makespan"])


def schedule_json(schedule: Schedule, pad: str) -> str:
    """Schedule.to_json's text with pad before every line but the first.

    Written directly, one f-string per op: with an indent, json.dumps runs
    its pure-Python encoder.  Strings go through json's own escaping.  pad
    nests the document in another one (routed.json).
    """
    a, b, c = pad + "    ", pad + "      ", pad + "        "
    ops = ",\n".join(
        f'{a}{{\n{b}"op_id": {so.op.op_id},\n{b}"order": {so.op.order_id},\n'
        f'{b}"target": {_str(so.op.target)},\n{b}"kind": {_str(so.op.kind)},\n'
        f'{b}"duration": {so.op.duration},\n{b}"mover": {so.mover},\n'
        f'{b}"tile": [\n{c}{so.tile.x},\n{c}{so.tile.y}\n{b}],\n{b}"start": {so.start}\n{a}}}'
        for so in sorted(schedule.ops, key=lambda s: (s.start, s.mover, s.op.op_id))
    )
    ops = f"[\n{ops}\n{pad}  ]" if ops else "[]"
    return f'{{\n{pad}  "makespan": {schedule.makespan},\n{pad}  "ops": {ops}\n{pad}}}'


@dataclass(frozen=True)
class SchedulingInstance:
    orders: tuple[Order, ...]
    placement: object
    n_movers: int
    eta: int


@dataclass(frozen=True)
class LowerBoundResult:
    t_values: dict[int, int]  # order id -> T_p
    assignment: dict[int, int]  # order id -> mover: schedule()'s construction follows it
    value: int
    exact: bool


def build_operations(orders, eta: int = 2) -> list[OperationSpec]:
    """Start + one dispensing per (order, drug) + finish, ids in listing order."""
    ops = []
    oid = 0
    for order in orders:
        ops.append(OperationSpec(oid, order.id, INTERFACE, eta, START))
        oid += 1
        for g, dur in order.items:
            ops.append(OperationSpec(oid, order.id, g, dur, DISPENSING))
            oid += 1
        ops.append(OperationSpec(oid, order.id, INTERFACE, eta, FINISH))
        oid += 1
    return ops


# --- validator (the model) -------------------------------------------------------

_KIND_RANK = {START: 0, DISPENSING: 1, FINISH: 2}  # an op's place within its order


def op_key(op: OperationSpec) -> tuple:
    """(order, kind rank, target): sorted, the ops of ``build_operations`` over
    the orders in id order, since ``Order`` sorts its items by drug."""
    return op.order_id, _KIND_RANK[op.kind], op.target


def schedule_issues(schedule: Schedule, placement, n_movers: int, pauses=None) -> list[str]:
    """The validity rules that need no order list; an empty report certifies
    every rule of ``validate_schedule`` but the instance's own.

    Rule 1 (order-free part): op ids are unique, every op has a known kind,
    lasts at least one tick, runs on a mover of the fleet and sits on the
    layout, a dispensing op at a tile holding its drug.  Rule 2: each
    mover's consecutive ops leave room for the travel between them.  Rule 4:
    no two ops overlap on a tile.  Rule 5: start and finish ops sit on
    interfaces.  Rule 7: the stored makespan is the latest end.  Rule 8: no
    op starts before tick 0.

    ``pauses`` (op id -> ticks, a routed plan's interruptions) lengthens each
    op's realized end, so travel gaps (rule 2) and tile overlaps (rule 4) are
    checked from ``so.end + pauses.get(op_id, 0)``; every other rule reads the
    nominal ops.
    """
    issues = []
    pauses = pauses or {}

    def end(so):
        return so.end + pauses.get(so.op.op_id, 0)

    dist = placement.layout.distance
    on_layout = placement.layout.tiles

    uses = Counter(so.op.op_id for so in schedule.ops)
    issues += [f"rule 1: op id {i} is used {n} times" for i, n in uses.items() if n > 1]
    for so in schedule.ops:
        op, tile = so.op, so.tile
        if op.kind not in _KIND_RANK:
            issues.append(f"rule 1: op {op.op_id} kind {op.kind!r} is unknown")
        if op.duration < 1:
            issues.append(f"rule 1: op {op.op_id} duration {op.duration} is below 1 tick")
        if so.mover not in range(n_movers):
            issues.append(
                f"rule 1: op {op.op_id} mover {so.mover} is outside the fleet of {n_movers}"
            )
        if tile not in on_layout:
            issues.append(f"rule 1: op {op.op_id} tile {tuple(tile)} is not on the layout")
        elif op.kind == DISPENSING:
            if tile not in placement.dispensers_for(op.target):
                issues.append(
                    f"rule 1: op {op.op_id} tile {tuple(tile)} lacks a {op.target} dispenser"
                )
        elif tile not in placement.interfaces:
            issues.append(f"rule 5: op {op.op_id} ({op.kind}) off-interface")

    for mover, seq in schedule.by_mover().items():
        for a, b in zip(seq, seq[1:]):
            if a.tile not in on_layout or b.tile not in on_layout:
                continue  # an off-layout op is reported by rule 1
            need = dist(a.tile, b.tile)
            if b.start < end(a) + need:
                issues.append(
                    f"rule 2: mover {mover} ops {a.op.op_id}->{b.op.op_id} "
                    f"gap {b.start - end(a)} < travel {need}"
                )

    by_tile: dict[Coord, list[ScheduledOp]] = {}
    for so in schedule.ops:
        by_tile.setdefault(so.tile, []).append(so)
    for tile, sos in by_tile.items():
        sos.sort(key=lambda s: s.start)
        for a, b in zip(sos, sos[1:]):
            if b.start < end(a):
                issues.append(f"rule 4: tile {tuple(tile)} ops {a.op.op_id},{b.op.op_id} overlap")

    for so in schedule.ops:
        if so.start < 0:
            issues.append(f"rule 8: op {so.op.op_id} starts before tick 0")
    if schedule.ops and schedule.makespan != max(so.end for so in schedule.ops):
        issues.append("rule 7: stored makespan is not the latest finish")
    return issues


def validate_schedule(schedule: Schedule, instance: SchedulingInstance, pauses=None) -> list[str]:
    """The validity rules; an empty report certifies the schedule.

    Rule 1: every op of the instance is scheduled once, as the instance
    specifies it (kind, target, order and duration; a changed duration is a
    "does not match the instance" issue, since ``ScheduledOp.end`` is start
    plus that duration).  Rule 3: each order is one contiguous block on one
    mover, start first and finish last.  Every other rule, and ``pauses``,
    are those of ``schedule_issues``.
    """
    issues = []
    expected = {op.op_id: op for op in build_operations(instance.orders, instance.eta)}
    if sorted(so.op.op_id for so in schedule.ops) != sorted(expected):
        issues.append("rule 1: operations not scheduled exactly once")
    for so in schedule.ops:
        spec = expected.get(so.op.op_id)
        if spec is not None and spec != so.op:
            issues.append(f"rule 1: op {so.op.op_id} does not match the instance")

    orders = {o.id: o for o in instance.orders}
    for mover, seq in schedule.by_mover().items():
        # take-give: orders must form contiguous blocks, start first, finish last
        done: set[int] = set()
        for oid, block in itertools.groupby(seq, key=lambda s: s.op.order_id):
            kinds = [s.op.kind for s in block]
            if oid in done:
                issues.append(f"rule 3: order {oid} interleaved on mover {mover}")
            done.add(oid)
            n_items = len(orders[oid].items) if oid in orders else -1
            if kinds[0] != START or kinds[-1] != FINISH or len(kinds) != n_items + 2:
                issues.append(f"rule 3: order {oid} block malformed on mover {mover}")
    movers: dict[int, set[int]] = {}
    for so in schedule.ops:
        movers.setdefault(so.op.order_id, set()).add(so.mover)
    issues += [
        f"rule 3: order {oid} split across movers" for oid, ms in movers.items() if len(ms) > 1
    ]
    return issues + schedule_issues(schedule, instance.placement, instance.n_movers, pauses)


# --- P||Cmax ----------------------------------------------------------------------

def _load_bound(times, m: int) -> int:
    """max(max T, ceil(sum T / m)): no schedule of the jobs on m machines ends earlier."""
    return max(max(times), math.ceil(sum(times) / m))


def _lpt(times, m: int) -> tuple[int, list[int]]:
    """Graham's LPT rule, (makespan, machine per job): by decreasing time, each
    job onto the least loaded machine, ties by index.  Never a bound."""
    n = len(times)
    loads = [0] * m
    assign = [0] * n
    for i in sorted(range(n), key=lambda i: (-times[i], i)):
        mi = min(range(m), key=lambda j: (loads[j], j))
        loads[mi] += times[i]
        assign[i] = mi
    return max(loads), assign


def p_cmax(times, m: int) -> tuple[int, list[int]]:
    """Makespan scheduling on identical machines for at most P_CMAX_EXACT_LIMIT
    jobs: (optimum, machine index per job), by branch and bound from _lpt."""
    times = [int(t) for t in times]
    n = len(times)
    if m < 1:
        raise ValueError("need at least one machine")
    if n == 0:
        return 0, []
    if n > P_CMAX_EXACT_LIMIT:
        raise ValueError(f"exact P||Cmax guard exceeded: {n} > {P_CMAX_EXACT_LIMIT}")

    order = sorted(range(n), key=lambda i: -times[i])
    best_val, lpt_assign = _lpt(times, m)
    best = {"val": best_val, "assign": lpt_assign}
    floor = _load_bound(times, m)
    if best_val == floor:
        return best_val, lpt_assign

    loads = [0] * m
    assign = [0] * n
    suffix = [0] * (n + 1)
    width = min(best_val, 1 << 16)  # reach[i]: bit s set when jobs order[i:] sum to s <= width
    reach = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        t = times[order[i]]
        suffix[i] = suffix[i + 1] + t
        reach[i] = (reach[i + 1] | reach[i + 1] << min(t, width + 1)) & (2 << width) - 1

    def dfs(i):
        if best["val"] == floor:
            return
        cur_max = max(loads)
        if cur_max >= best["val"]:
            return
        if max(cur_max, math.ceil((sum(loads) + suffix[i]) / m)) >= best["val"]:
            return
        if i == n:
            best["val"] = cur_max
            best["assign"] = assign.copy()
            return
        # waste: a room below best - 1 takes at most the largest sum of jobs left that fits
        rooms = (best["val"] - 1 - x for x in loads)
        if suffix[i] > sum((reach[i] & (2 << r) - 1).bit_length() - 1 if r <= width else r
                           for r in rooms):
            return
        t = times[order[i]]
        tried = set()
        for mi in range(m):
            if loads[mi] in tried or loads[mi] + t >= best["val"]:
                continue
            tried.add(loads[mi])
            loads[mi] += t
            assign[order[i]] = mi
            dfs(i + 1)
            loads[mi] -= t
        assign[order[i]] = 0

    dfs(0)
    return best["val"], best["assign"]


def _distinct_ids(orders) -> list:
    """The orders as a list; a ValueError when two of them share an id."""
    orders = list(orders)
    ids = sorted(o.id for o in orders)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"order id {a} appears twice")
    return orders


def lower_bound(orders, placement, n_movers: int, eta: int,
                route_table: dict | None = None) -> LowerBoundResult:
    """Relaxation bound: exact per-order path times fed into parallel machines.

    Valid because any schedule also satisfies every relaxed constraint: it only
    drops tile exclusivity and the travel between consecutive orders' interfaces.
    The jobs are the orders' T_p = 2 * eta + κ + total dispensing; up to
    P_CMAX_EXACT_LIMIT orders the bound is their P||Cmax optimum, above it
    their _load_bound with the _lpt assignment.  route_table is
    shppn.kappa_routes over a superset of the orders' drug sets on this
    placement, as schedule() takes it; without it the bound solves its own.
    """
    orders = _distinct_ids(orders)
    if n_movers < 1:
        raise ValueError("need at least one mover")
    if route_table is None:
        route_table = shppn.kappa_routes((o.drugs for o in orders), placement)
    times = [2 * eta + route_table[o.drugs].kappa + o.total_dispensing for o in orders]
    exact = len(orders) <= P_CMAX_EXACT_LIMIT
    if exact:
        value, assign = p_cmax(times, n_movers)
    else:
        value, assign = _load_bound(times, n_movers), _lpt(times, n_movers)[1]
    return LowerBoundResult({o.id: t for o, t in zip(orders, times)},
                            {o.id: mi for o, mi in zip(orders, assign)}, value, exact)


# --- routes -----------------------------------------------------------------------

class Route(NamedTuple):
    """One insertion candidate of an order, on the layout's tile ids.

    (length, start, stops, end) is its ranking key: the travel from the
    start interface through the (drug, tile) stops and on to the end
    interface, plus, in a candidate, the lead-in leg from the previous
    location.  seg is the order's chain segment of (op_id, duration, tile)
    and tails its _tails.
    """

    length: int
    start: int
    stops: tuple[tuple[str, int], ...]
    end: int
    seg: tuple[tuple[int, int, int], ...]
    tails: tuple[list[int], list[int]]


def _route_count(order, placement, n_if: int) -> int:
    """How many routes every_route lists for order: drug orders x dispenser
    choices x start and end interfaces."""
    count = math.factorial(len(order.drugs)) * n_if * n_if
    for g in order.drugs:
        count *= max(1, len(placement.dispensers_for(g)))
    return count


def candidate_routes(routes: list[Route], lead: list[int], limit: int) -> list[Route]:
    """The limit shortest of an order's routes from a previous location.

    routes holds the order's shortest route from each start interface
    (shppn.kappa_routes), lead the travel from the previous location to
    each tile.  Each route counts lead[start] + its length, ties by start;
    the starts are distinct, so no tie reads further.
    """
    ranked = sorted((lead[r.start] + r.length, r.start, i) for i, r in enumerate(routes))
    return [routes[i]._replace(length=n) for n, _, i in ranked[:limit]]


# --- timing engine ----------------------------------------------------------------

_NEVER = math.inf  # next start of a mover with nothing left to commit


class _Plan:
    """Per-mover sequences of (order, Route); the search state.

    timing[m] keeps mover m's timing inputs (chain, span, flow), its chain
    and the chain's _tails, across insertions; None means not built.
    _insert_best builds every None entry.

    The timeline is the plan's timing run, kept where movers end orders:
    timeline[m][j] is the state right after mover m commits the finish op
    of its order j, a _commits snapshot (ptr, nxt, wait, free, makespan,
    flow, end, tile).  States are never changed in place, and copy() shares
    them.  Each list holds a prefix of the run: _insert_best drops (prune)
    and extends it.  change[m] is the op count from which mover m's chain
    has changed since the states were taken (_NEVER: unchanged).

    Whoever changes seqs[m] calls edited(m, k), which resets timing[m] and
    records the change point k: _insert_best the winner's mover after
    inserting, _lns_search every mover that a removal shortened.
    _Timer.run reads seqs alone, so a plan whose seqs are edited directly
    is still timed right.
    """

    __slots__ = ("seqs", "timing", "timeline", "change")

    def __init__(self, n_movers: int):
        self.seqs: list[list[tuple[Order, Route]]] = [[] for _ in range(n_movers)]
        self.timing: list[tuple | None] = [None] * n_movers
        self.timeline: list[list[tuple]] = [[] for _ in range(n_movers)]
        self.change: list[float] = [_NEVER] * n_movers

    def copy(self, timeline: bool = True) -> "_Plan":
        """A copy that shares the states; without timeline, one that keeps
        none, so that its next insertion runs from the origin."""
        p = _Plan(len(self.seqs))
        p.seqs = [list(s) for s in self.seqs]
        p.timing = self.timing[:]
        if timeline:
            p.timeline = [list(s) for s in self.timeline]
            p.change = self.change[:]
        return p

    def edited(self, m: int, k: int) -> None:
        """Record that mover m's chain changed from its op k on."""
        self.timing[m] = None
        if k < self.change[m]:
            self.change[m] = k

    def prune(self) -> None:
        """Drop every state that the changes since made stale.

        A state in which each changed mover c has committed fewer than
        change[c] ops is one that a run over the current chains reaches
        step for step: every op it has committed, and every next op it
        waits for, is unchanged.  ptr only grows along a run, so the states
        left are a prefix of it, and each list loses a suffix.
        """
        changed = [(c, k) for c, k in enumerate(self.change) if k != _NEVER]
        if not changed:
            return
        for states in self.timeline:
            while states and any(states[-1][0][c] >= k for c, k in changed):
                states.pop()
        self.change = [_NEVER] * len(self.change)


class _Timer:
    """The context of one schedule() call: its ops, routes and timing tables.

    Tiles are the layout's tile ids (Layout.index_table, sorted tiles), so
    id order is Coord order.  dist is the layout's distance table as lists,
    with an extra last row: the "no location yet" origin, 0 ticks from
    every tile.  op maps (order id, kind, target) to an op's (op_id,
    duration), and finishes holds the op ids that end an order, where a
    plan's timeline keeps a state.  table is the κ route table
    (shppn.kappa_routes), schedule()'s or one over the orders.  Each
    order's Routes, its shortest from each start interface, are built once
    and ranked once per previous location (candidates).
    """

    def __init__(self, placement, orders, eta: int, route_table: dict | None = None):
        specs = build_operations(orders, eta)
        self.ops_by_id = {op.op_id: op for op in specs}
        self.finishes = frozenset(op.op_id for op in specs if op.kind == FINISH)
        self.op = {(op.order_id, op.kind, op.target): (op.op_id, op.duration) for op in specs}
        self.eta = eta
        self.placement = placement
        self.dist = placement.layout.index_table[1].tolist()
        self.dist.append([0] * len(self.dist))
        if route_table is None:
            route_table = shppn.kappa_routes((o.drugs for o in orders), placement)
        self.table = route_table
        self._routes: dict[int, list[Route]] = {}
        self._candidates: dict[tuple, list[Route]] = {}

    def route(self, order, length: int, start: int, stops, end: int) -> Route:
        """The Route of a ranking key, with its segment and the segment's
        _tails: the start op at the start interface, one dispensing op per
        (drug, tile) stop, the finish op at the end interface."""
        op = self.op
        seg = ((*op[order.id, START, INTERFACE], start),
               *((*op[order.id, DISPENSING, g], t) for g, t in stops),
               (*op[order.id, FINISH, INTERFACE], end))
        return Route(length, start, stops, end, seg, _tails(seg, self.dist))

    def every_route(self, order) -> list[Route]:
        """Every route of order, without a lead-in leg, in enumeration order:
        drug permutation, dispenser tile per stop (first stop slowest, tiles
        sorted), start interface, end interface.  The exhaustive search's."""
        placement, dist, drugs = self.placement, self.dist, order.drugs
        index = placement.layout.index_table[0]
        interfaces = sorted(index[c] for c in placement.interfaces)
        alts = [[index[t] for t in placement.dispensers_for(g)] for g in drugs]
        out = []
        for perm in itertools.permutations(range(len(drugs))):
            for tiles in itertools.product(*(alts[i] for i in perm)):
                stops = tuple((drugs[i], t) for i, t in zip(perm, tiles))
                inner = sum(dist[u][v] for u, v in zip(tiles, tiles[1:]))
                for s in interfaces:
                    for e in interfaces:
                        length = dist[s][tiles[0]] + inner + dist[tiles[-1]][e]
                        out.append(self.route(order, length, s, stops, e))
        return out

    def candidates(self, order, prev_loc) -> list[Route]:
        """Order's insertion candidates after tile id prev_loc (None: first
        on its mover), the CANDIDATES best of its routes (candidate_routes)."""
        key = (order.id, prev_loc)
        out = self._candidates.get(key)
        if out is None:
            routes = self._routes.get(order.id)
            if routes is None:
                routes = self._routes[order.id] = [
                    self.route(order, *r) for r in self.table[order.drugs].routes
                ]
            lead = self.dist[-1 if prev_loc is None else prev_loc]  # the origin row is all 0
            out = self._candidates[key] = candidate_routes(routes, lead, CANDIDATES)
        return out

    def run(self, plan: _Plan, bound=(_NEVER, _NEVER), placed=None):
        """Time plan from the origin: its (makespan, flow), or None once the
        run's bound reaches bound.  With placed, each commit is appended as
        (op_id, mover, tile id, start)."""
        chains = self.chains(plan)
        return _run(chains, self.tails(chains), self.dist, *self.origin(chains), bound=bound,
                    placed=placed)

    def chains(self, plan: _Plan) -> list[tuple]:
        return [_chain(seq) for seq in plan.seqs]

    def tails(self, chains) -> tuple[list[list[int]], list[list[int]]]:
        """(spans, flows): _tails of every chain."""
        spans, flows = zip(*(_tails(c, self.dist) for c in chains))
        return list(spans), list(flows)

    def origin(self, chains) -> tuple:
        """State before the first commit: (ptr, nxt, wait, free, makespan, flow)."""
        return (
            [0] * len(chains),
            [0 if c else _NEVER for c in chains],
            [c[0][2] if c else -1 for c in chains],
            [0] * (len(self.dist) - 1),
            0,
            0,
        )


def _chain(seq) -> tuple:
    """The ops (op_id, duration, tile id) of a mover's sequence, in order."""
    return tuple(op for _, route in seq for op in route.seg)


def _tails(chain, dist) -> tuple[list[int], list[int]]:
    """Per position k of chain, its ops k.. run back to back from op k's start.

    span[k] is the time from op k's start to the last op's end, and flow[k]
    the sum over ops k.. of their end minus op k's start; both are 0 at
    k = len(chain).  No timing can do better: an op starts no earlier than
    the end of the previous op plus the travel between their tiles.
    """
    n = len(chain)
    span = [0] * (n + 1)
    flow = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        _, dur, tile = chain[k]
        if k + 1 < n:
            step = dur + dist[tile][chain[k + 1][2]]
            span[k] = step + span[k + 1]
            flow[k] = dur + (n - k - 1) * step + flow[k + 1]
        else:
            span[k] = flow[k] = dur
    return span, flow


def _splice_tails(span, flow, k, seg_tails, d):
    """_tails of seg + chain[k:], the spliced chain chain[:k] + seg + chain[k:]
    from position k on.

    span, flow are the chain's _tails, seg_tails the segment's own, and d
    the travel from the segment's last tile to chain[k] (0 when k is the
    chain's end).  A run resumed at position k reads no entry before it.
    """
    seg_span, seg_flow = seg_tails
    left = len(span) - 1 - k
    if not left:
        return seg_span, seg_flow
    after = d + span[k]
    return (
        [x + after for x in seg_span[:-1]] + span[k:],
        [f + left * (x + d) + flow[k] for x, f in zip(seg_span[:-1], seg_flow[:-1])]
        + flow[k:],
    )


def _splice_heads(chain, span, flow, k, routes, dist) -> list[tuple[int, int]]:
    """Entry 0 of _splice_tails(span, flow, k, route.tails, d) for each route, O(1) each.

    The spliced chain runs the route's segment from position k, then
    chain[k:] after the travel d from the segment's last tile to chain[k]:
    span seg_span[0] + d + span[k] and flow seg_flow[0] + left * (seg_span[0]
    + d) + flow[k] for left = len(chain) - k ops after it; at the chain's
    end, the segment's own seg_span[0] and seg_flow[0].
    """
    left = len(chain) - k
    if not left:
        return [(r.tails[0][0], r.tails[1][0]) for r in routes]
    rest, after_span, after_flow = chain[k][2], span[k], flow[k]
    heads = []
    for r in routes:
        lead = r.tails[0][0] + dist[r.seg[-1][2]][rest]  # seg_span[0] + d
        heads.append((lead + after_span, r.tails[1][0] + left * lead + after_flow))
    return heads


def _lower_bound(chains, tails, ptr, nxt, makespan, flow) -> tuple[int, int]:
    """(makespan, flow) bound of every completion of a timing state.

    Mover m's remaining ops end no earlier than nxt[m] plus their back-to-back
    offsets: its last op at nxt[m] + span[ptr[m]], and their ends sum to at
    least r * nxt[m] + flow[ptr[m]] for r = ops left.
    """
    spans, flows = tails
    for o, k in enumerate(ptr):
        r = len(chains[o]) - k
        if r:
            t = nxt[o]
            if t + spans[o][k] > makespan:
                makespan = t + spans[o][k]
            flow += r * t + flows[o][k]
    return makespan, flow


def _run(chains, tails, dist, ptr, nxt, wait, free, makespan=0, flow=0,
         bound=(_NEVER, _NEVER), placed=None, marks=None, snaps=None, until=()):
    """Commit the remaining ops of chains; return (makespan, flow), or None
    once the run's bound reaches bound.  The driver of _commits, which
    documents the state and every argument."""
    run = _commits(chains, tails, dist, ptr, nxt, wait, free, makespan, flow, bound,
                   placed, marks, snaps, until)
    try:
        next(run)
    except StopIteration as done:
        return done.value
    return None


def _commits(chains, tails, dist, ptr, nxt, wait, free, makespan, flow, bound,
             placed=None, marks=None, snaps=None, until=()):
    """Commit the remaining ops of chains, suspending at bound; the timing engine.

    A generator: it returns (makespan, flow) through StopIteration, and
    whenever its bound reaches bound it yields that bound and takes the next
    bound by send, resuming exactly where it stopped.

    The state is advanced in place: per mover, ops committed (ptr) and the
    feasible start and tile id of its next op (nxt, wait; _NEVER and -1 once
    done); per tile id, the end of its last busy interval (free); makespan
    and flow (sum of op ends) so far.  Each step commits, among the movers'
    next ops, the one with the earliest feasible start
    max(ready + travel, tile free), ties by mover index.  tails holds each
    chain's _tails.

    Bound: the run keeps the _lower_bound (lb_makespan, lb_flow) of its
    completion.  Both parts only grow, and only when a next start moves past
    its back-to-back time (the mover waits for a busy tile, or another mover
    occupies the tile it waits for): the makespan part is a running max of
    nxt[m] + span, and the flow part grows by (ops left) x (the delay).  It
    is tested before the first commit and after every change, and the run
    suspends as soon as it reaches bound; at the end it equals the key.  So
    the run suspends exactly when its (makespan, flow) would be at least
    bound, and each bound it yields is the _lower_bound of the suspended
    state.  With placed, each commit is appended as (op_id, mover, tile id,
    start).  With marks (a set of op ids), snaps[m] gets a copy of the state
    plus the end and tile id of the commit appended right after mover m
    commits one of them, and the run ends once every mover in until (a set)
    has committed a marked last op.
    """
    spans = tails[0]
    lb_makespan, lb_flow = _lower_bound(chains, tails, ptr, nxt, makespan, flow)
    while (lb_makespan, lb_flow) >= bound:
        bound = yield lb_makespan, lb_flow
    bound_makespan, bound_flow = bound
    movers = range(len(chains))
    lens = [len(c) for c in chains]
    remaining = sum(lens) - sum(ptr)
    pending = len(until)
    while remaining:
        t = min(nxt)
        m = nxt.index(t)
        chain = chains[m]
        n = lens[m]
        k = ptr[m]
        op_id, dur, tile = chain[k]
        end = t + dur
        free[tile] = end
        flow += end
        if end > makespan:
            makespan = end
        if placed is not None:
            placed.append((op_id, m, tile, t))
        k += 1
        ptr[m] = k
        grew = False
        if k < n:
            nxt_tile = chain[k][2]
            t0 = end + dist[tile][nxt_tile]
            f = free[nxt_tile]
            if f > t0:
                nxt[m] = f
                lb_flow += (n - k) * (f - t0)
                if f + spans[m][k] > lb_makespan:
                    lb_makespan = f + spans[m][k]
                grew = True
            else:
                nxt[m] = t0
            wait[m] = nxt_tile
        else:
            nxt[m] = _NEVER
            wait[m] = -1
        if tile in wait:  # another mover waits for the tile just taken
            for o in movers:
                if wait[o] == tile and nxt[o] < end:
                    lb_flow += (lens[o] - ptr[o]) * (end - nxt[o])
                    if end + spans[o][ptr[o]] > lb_makespan:
                        lb_makespan = end + spans[o][ptr[o]]
                    nxt[o] = end
                    grew = True
        if grew:
            while lb_makespan >= bound_makespan and (
                lb_makespan > bound_makespan or lb_flow >= bound_flow
            ):
                bound_makespan, bound_flow = yield lb_makespan, lb_flow
        remaining -= 1
        if marks is not None and op_id in marks:
            snaps[m].append((ptr[:], nxt[:], wait[:], free[:], makespan, flow, end, tile))
            if k == n and m in until:
                pending -= 1
                if not pending:
                    break
    return makespan, flow


def _plan_to_schedule(plan: _Plan, timer: _Timer, trace=()) -> Schedule:
    placed: list[tuple[int, int, int, int]] = []
    makespan, _ = timer.run(plan, placed=placed)
    tiles, ops = timer.placement.layout.sorted_tiles(), timer.ops_by_id
    sos = tuple(ScheduledOp(ops[op_id], m, tiles[tile], start) for op_id, m, tile, start in placed)
    return Schedule(sos, makespan, tuple(trace))


# --- scheduler --------------------------------------------------------------------

def schedule(
    orders,
    placement,
    n_movers: int,
    time_limit: float | None = None,
    seed: int = 0,
    eta: int = 2,
    max_iterations: int | None = None,
    route_table: dict | None = None,
) -> Schedule:
    """Best-found valid schedule for the order set.

    Search: insertion of each order on its lower_bound mover, then seeded
    LNS (remove-and-reinsert up to 4 orders, roulette over destroy sizes,
    restart after 500 stale iterations).  Tiny instances are enumerated exhaustively.
    Deterministic for a fixed (seed, max_iterations); time_limit is wall-clock
    seconds, a finite number above 0 (None: no limit), and max_iterations
    at least 0 (0: construction only).  route_table is shppn.kappa_routes
    over a superset of the orders' drug sets on this placement (the
    pipeline's); without it the search solves one over its own orders.
    The schedule does not depend on which.
    """
    orders = _distinct_ids(orders)
    if not orders:
        raise ValueError("no orders to schedule")
    if n_movers < 1:
        raise ValueError("need at least one mover")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
        raise ValueError(f"time_limit must be a finite number > 0, not {time_limit}")
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, not {max_iterations}")
    for o in orders:
        for g in o.drugs:
            if not placement.dispensers_for(g):
                raise ValueError(f"no dispenser placed for drug {g!r}")
    if not placement.interfaces:
        raise ValueError("placement has no interfaces")

    timer = _Timer(placement, orders, eta, route_table)
    exhaustive = _exhaustive_count(orders, placement, n_movers)
    if exhaustive is not None and exhaustive <= EXHAUSTIVE_CAP:
        plan, trace = _exhaustive_search(orders, n_movers, timer)
    else:
        plan, trace = _lns_search(orders, n_movers, timer, seed, time_limit, max_iterations)
    return _plan_to_schedule(plan, timer, trace)


def _exhaustive_count(orders, placement, n_movers):
    """How many plans _exhaustive_search times, or None above its size guards.

    Timing tie-breaks by mover index, so relabelled assignments are NOT
    interchangeable: the search lays the n orders into n_movers ordered
    sequences, m (m + 1) ... (m + n - 1) ways, times every route choice.
    """
    if len(orders) > 3 or n_movers > 2:
        return None
    route_counts = [_route_count(o, placement, len(placement.interfaces)) for o in orders]
    if any(c > 64 for c in route_counts):
        return None
    return math.prod(range(n_movers, n_movers + len(orders))) * math.prod(route_counts)


def _exhaustive_search(orders, n_movers, timer):
    all_routes = [timer.every_route(o) for o in orders]
    best = None
    best_key = (_NEVER, _NEVER)
    for assign in itertools.product(range(n_movers), repeat=len(orders)):
        groups: dict[int, list[int]] = {}
        for oi, m in enumerate(assign):
            groups.setdefault(m, []).append(oi)
        movers = sorted(groups)
        perms_by_mover = [list(itertools.permutations(groups[m])) for m in movers]
        for perm_combo in itertools.product(*perms_by_mover):
            flat = [oi for perm in perm_combo for oi in perm]
            for route_combo in itertools.product(*(all_routes[oi] for oi in flat)):
                plan = _Plan(n_movers)
                ri = 0
                for m, perm in zip(movers, perm_combo):
                    for oi in perm:
                        plan.seqs[m].append((orders[oi], route_combo[ri]))
                        ri += 1
                key = timer.run(plan, best_key)
                if key is not None:
                    best_key = key
                    best = plan
    return best, (best_key[0],)


def _lns_search(orders, n_movers, timer, seed, time_limit, max_iterations):
    rng = random.Random(seed)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if max_iterations is None:
        max_iterations = 10_000_000 if time_limit is not None else 2_000

    warm = lower_bound(orders, timer.placement, n_movers, timer.eta, timer.table).assignment
    plan = _Plan(n_movers)
    for o in sorted(orders, key=lambda o: (-(o.total_dispensing), o.id)):
        best_key = _insert_best(plan, o, timer, movers=[warm[o.id]])
    best = plan.copy(timeline=False)  # no states of its own: a restart resumes from the origin
    trace = [best_key[0]]

    stale = 0
    size_weights = {k: 1.0 for k in range(1, min(4, len(orders)) + 1)}
    it = 0
    while it < max_iterations:
        it += 1
        if deadline is not None and time.monotonic() > deadline:
            break
        sizes = sorted(size_weights)
        weights = [size_weights[k] for k in sizes]
        k = rng.choices(sizes, weights=weights)[0]
        removed = rng.sample(orders, min(k, len(orders)))
        work = plan.copy()
        removed_ids = {o.id for o in removed}
        for m, seq in enumerate(work.seqs):
            kept = [(o, r) for o, r in seq if o.id not in removed_ids]
            if len(kept) < len(seq):
                first = next(i for i, (o, _) in enumerate(seq) if o.id in removed_ids)
                work.seqs[m] = kept
                work.edited(m, sum(len(r.seg) for _, r in seq[:first]))
        for o in sorted(removed, key=lambda o: (-(o.total_dispensing), o.id)):
            key = _insert_best(work, o, timer)
        if key < best_key:
            best, best_key = work.copy(timeline=False), key
            plan = work
            size_weights[k] = min(8.0, size_weights[k] * 1.3)
            stale = 0
        else:
            size_weights[k] = max(0.25, size_weights[k] * 0.98)
            stale += 1
            if key[0] <= best_key[0]:
                plan = work  # sideways moves on equal makespan keep diversity
            if stale >= 500:
                plan = best.copy()
                stale = 0
        trace.append(best_key[0])
    return best, trace


def _insert_best(plan: _Plan, order: Order, timer: _Timer, movers=None) -> tuple[int, int]:
    """Insert order where the plan's (makespan, flow) is least; return that key.

    The winner is the least key, ties by enumeration index (mover, position,
    route): the first strict minimum of the enumeration.  A candidate at
    (m, pos) takes exactly the same steps as the run of the plan without
    the order up to the state right after mover m ends its first pos orders
    (the origin at pos 0), so it resumes from there with m's chain spliced.
    Those states are the plan's timeline: the stale ones are dropped
    (_Plan.prune), then one run resumes from the latest state left and
    keeps a state wherever a mover ends an order, until every candidate
    mover has ended its last.

    Best first: each candidate's starting _lower_bound is taken from its
    resume state, and a heap holds every candidate by (bound, index).  The
    search pops the least and advances its run (_commits) until its (bound,
    index) passes the heap top's: the run gets the top's bound, plus one
    flow tick when the candidate comes earlier in the enumeration, since it
    also wins an equal key (keys are integers).  A suspended run goes back
    on the heap with the bound it reached and resumes where it stopped when
    it is the least again.  The first run to finish is the winner: its
    (key, index) is below every (bound, index) left on the heap, and a
    run's bound never exceeds its key, so it is the least (key, index), and
    no run is advanced once its bound passes the winner's key.

    Cost: the timeline run commits only the ops after the latest state
    that the edits since the last call left valid: after the previous
    winner's insertion point, or an LNS removal's, on its mover.  A
    starting bound reads m's spliced tails at k only, O(1) from the route's
    tails and m's (_splice_heads), so queueing a candidate is O(1); only a
    candidate whose run starts pays for its spliced chain and tails from k
    on (_candidate_run).  The movers' (chain, span, flow) come from
    plan.timing, which rebuilds only the entries reset since they were last
    built.
    """
    dist = timer.dist
    timing = plan.timing
    for m, entry in enumerate(timing):
        if entry is None:
            chain = _chain(plan.seqs[m])
            timing[m] = (chain, *_tails(chain, dist))
    chains, spans, flows = (list(x) for x in zip(*timing))
    candidates = range(len(chains)) if movers is None else movers
    origin = (*timer.origin(chains), 0, len(dist) - 1)  # ready at tick 0, from nowhere
    plan.prune()
    timeline = plan.timeline
    latest = max((states[-1] for states in timeline if states), key=lambda s: sum(s[0]),
                 default=origin)
    until = {m for m in candidates if latest[0][m] < len(chains[m])}
    if until:
        ptr, nxt, wait, free, makespan, flow, _, _ = latest
        _run(chains, (spans, flows), dist, ptr[:], nxt[:], wait[:], free[:], makespan, flow,
             marks=timer.finishes, snaps=timeline, until=until)

    queue = []  # (bound, index, m, pos, snap, route, first start, run: None until it starts)
    for m in candidates:
        seq = plan.seqs[m]
        base = chains[m]
        for pos, snap in enumerate([origin, *timeline[m]]):
            prev_loc = seq[pos - 1][1].end if pos > 0 else None
            options = timer.candidates(order, prev_loc)
            ptr, nxt, wait, free, makespan, flow, ready, loc = snap
            k = ptr[m]
            # the bound of the other movers: m counts as done here
            others = _lower_bound(chains, (spans, flows), ptr[:m] + [len(base)] + ptr[m + 1:],
                                  nxt, makespan, flow)
            left = len(base) - k
            heads = _splice_heads(base, spans[m], flows[m], k, options, dist)
            for route, (span_k, flow_k) in zip(options, heads):
                tile = route.start
                t0 = ready + dist[loc][tile]
                start = t0 if t0 > free[tile] else free[tile]
                lb = (max(others[0], start + span_k),
                      others[1] + (len(route.seg) + left) * start + flow_k)
                queue.append((lb, len(queue), m, pos, snap, route, start, None))
    heapq.heapify(queue)  # by (bound, index): indexes are distinct, so no comparison reads further

    while True:
        lb, index, m, pos, snap, route, start, run = heapq.heappop(queue)
        if queue:  # suspend once (bound, index) passes the top's; keys are integers
            top, top_index = queue[0][0], queue[0][1]
            bound = (top[0], top[1] + 1) if index < top_index else top
        else:
            bound = (_NEVER, _NEVER)
        try:
            if run is None:
                run = _candidate_run(chains, spans, flows, dist, snap, m, route, start, bound)
                lb = next(run)
            else:
                lb = run.send(bound)
        except StopIteration as done:
            key = done.value
            break
        heapq.heappush(queue, (lb, index, m, pos, snap, route, start, run))
    plan.seqs[m].insert(pos, (order, route))
    plan.edited(m, snap[0][m])
    return key


def _candidate_run(chains, spans, flows, dist, snap, m, route, start, bound):
    """The _commits run of the candidate that splices route into mover m's
    chain from snap, the timeline state after m's first k ops.  Those ops
    are committed in snap, so the run holds only the rest of its spliced
    chain, route.seg + chain[k:], from position 0."""
    ptr, nxt, wait, free, makespan, flow, _, _ = snap
    base = chains[m]
    k = ptr[m]
    run_chains, run_spans, run_flows = chains[:], spans[:], flows[:]
    run_chains[m] = route.seg + base[k:]
    run_spans[m], run_flows[m] = _splice_tails(
        spans[m], flows[m], k, route.tails,
        dist[route.seg[-1][2]][base[k][2]] if k < len(base) else 0)
    ptr = ptr[:]
    ptr[m] = 0
    nxt = nxt[:]
    nxt[m] = start
    wait = wait[:]
    wait[m] = route.start
    return _commits(run_chains, (run_spans, run_flows), dist, ptr, nxt, wait, free[:],
                    makespan, flow, bound)
