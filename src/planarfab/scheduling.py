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
lets insertion time the plan without the new order once and resume each
candidate from the state where its mover reaches the insertion point.

The makespan lower bound follows the relaxation route: exact per-order path
values feed a parallel-machines problem whose optimum (or, above the guard,
the load bound max(max T, ceil(sum T / m))) bounds every valid schedule from
below; its machine assignment doubles as the scheduler warm start.

Routes: the scheduler has one tile-id space, the layout's sorted tiles
(Layout.index_table), shared by the route oracle and the timing engine;
Coords appear only in the ScheduledOps.  Each schedule() call builds one
path table per order (_OrderPaths), and every insertion candidate of that
order is read from it as a Route that carries its chain segment of
(op_id, duration, tile id) and the segment's tails.  Orders with at most
ROUTE_ENUM_CAP routes are ranked exactly over their whole route space,
computed once for all drug permutations; the lead-in leg from the previous
location is added per call.  Larger orders take nearest-neighbour routes,
one per start interface, from per-location candidate lists ranked once per
table.  Schedule documents are written as indent-2 JSON text directly,
byte-equal to json.dumps(doc, indent=2).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import INTERFACE, Coord, Order, check_json
from .placement import per_order_kappa

_str = json.encoder.encode_basestring_ascii  # json.dumps's string escaping (ensure_ascii)

START = "start"
DISPENSING = "dispensing"
FINISH = "finish"

EXHAUSTIVE_CAP = 300_000
ROUTE_ENUM_CAP = 4_000
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
    assignment: dict[int, int]  # order id -> mover (warm-start quality)
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

def p_cmax(times, m: int, mode: str = "exact") -> tuple[int, list[int]]:
    """Makespan scheduling on identical machines.

    Returns (value, machine index per job).  mode "exact" (n <= 20) gives the
    optimum, "bound" the valid lower bound max(max, ceil(sum/m)) with no
    meaningful assignment, "lpt" the longest-processing-time heuristic (an
    upper estimate: warm-start quality only, never a bound).
    """
    times = [int(t) for t in times]
    n = len(times)
    if m < 1:
        raise ValueError("need at least one machine")
    if n == 0:
        return 0, []
    if mode == "bound":
        return max(max(times), math.ceil(sum(times) / m)), [0] * n
    if mode == "lpt":
        return _lpt(times, m)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if n > P_CMAX_EXACT_LIMIT:
        raise ValueError(f"exact mode guard exceeded: {n} > {P_CMAX_EXACT_LIMIT}")

    order = sorted(range(n), key=lambda i: -times[i])
    best_val, lpt_assign = _lpt(times, m)
    best = {"val": best_val, "assign": lpt_assign}
    floor = max(max(times), math.ceil(sum(times) / m))
    if best_val == floor:
        return best_val, lpt_assign

    loads = [0] * m
    assign = [0] * n
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + times[order[i]]

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
        t = times[order[i]]
        tried = set()
        for mi in range(m):
            if loads[mi] in tried:
                continue
            tried.add(loads[mi])
            loads[mi] += t
            assign[order[i]] = mi
            dfs(i + 1)
            loads[mi] -= t
        assign[order[i]] = 0

    dfs(0)
    return best["val"], best["assign"]


def _lpt(times, m):
    n = len(times)
    loads = [0] * m
    assign = [0] * n
    for i in sorted(range(n), key=lambda i: (-times[i], i)):
        mi = min(range(m), key=lambda j: (loads[j], j))
        loads[mi] += times[i]
        assign[i] = mi
    return max(loads), assign


def lower_bound(orders, placement, n_movers: int, eta: int,
                t_values: dict[int, int] | None = None) -> LowerBoundResult:
    """Relaxation bound: exact per-order path times fed into parallel machines.

    Valid because any schedule also satisfies every relaxed constraint: it only
    drops tile exclusivity and the travel between consecutive orders' interfaces.
    t_values: path times 2 * eta + κ + dispensing already computed on the same
    placement and eta for a superset of these orders; κ is not solved again.
    """
    orders = list(orders)
    if t_values is None:
        kappas = per_order_kappa(placement, orders)
        t_values = {o.id: 2 * eta + k + o.total_dispensing for o, k in zip(orders, kappas)}
    t_values = {o.id: t_values[o.id] for o in orders}

    ids = [o.id for o in orders]
    times = [t_values[i] for i in ids]
    if len(orders) <= P_CMAX_EXACT_LIMIT:
        value, assign = p_cmax(times, n_movers, mode="exact")
        exact = True
    else:
        value, _ = p_cmax(times, n_movers, mode="bound")
        _, assign = p_cmax(times, n_movers, mode="lpt")
        exact = False
    assignment = {oid: assign[i] for i, oid in enumerate(ids)}
    return LowerBoundResult(t_values, assignment, int(value), exact)


# --- routes -----------------------------------------------------------------------

class Route(NamedTuple):
    """One insertion candidate of an order, on the layout's tile ids.

    (length, start, stops, end) is its ranking key: the travel from the
    previous location to the start interface, through the (drug, tile)
    stops and on to the end interface.  seg is the order's chain segment of
    (op_id, duration, tile) and tails its _tails.
    """

    length: int
    start: int
    stops: tuple[tuple[str, int], ...]
    end: int
    seg: tuple[tuple[int, int, int], ...]
    tails: tuple[list[int], list[int]]


def _route_count(order, placement, n_if: int) -> int:
    count = math.factorial(len(order.drugs)) * n_if * n_if
    for g in order.drugs:
        count *= max(1, len(placement.dispensers_for(g)))
        if count > 10 * ROUTE_ENUM_CAP:
            return count
    return count


def greedy_route_orders(orders, placement) -> int:
    """How many orders take insertion candidates from the greedy fallback
    (more than ROUTE_ENUM_CAP routes) rather than from the exact ranking."""
    n_if = len(placement.interfaces)
    return sum(_route_count(o, placement, n_if) > ROUTE_ENUM_CAP for o in orders)


class _OrderPaths:
    """One order's routes on the layout's tile ids; the scheduler builds it once per call.

    Tile ids index the layout's sorted tiles (Layout.index_table), as in the
    timer, so id order is Coord order.  The order's vertices are its (drug,
    dispenser tile) pairs, drugs in order and tiles sorted.  Route space
    (exact): route (p, c, s, e) starts at interfaces[s], makes stop j at
    vertex stops[p, c, j] and ends at interfaces[e]; lengths[p, c, s, e]
    leaves out the lead-in leg from the previous location.  Index order is
    the enumeration order: drug permutation, dispenser combination (first
    stop slowest), start interface, end interface.  The greedy fallback
    reads distance rows between the order's distinct tiles instead.  Both
    rank plain (length, start, stops, end) keys; route turns a key into a
    Route with its segment: the start op at the start interface, one
    dispensing op per stop, the finish op at the end interface.
    """

    def __init__(self, order, timer):
        placement = timer.placement
        index, self._table = placement.layout.index_table
        self.interfaces = sorted(index[c] for c in placement.interfaces)
        if not self.interfaces:
            raise ValueError("placement has no interfaces")
        self.drugs = order.drugs
        self.alts = []
        for g in order.drugs:
            tiles = placement.dispensers_for(g)
            if not tiles:
                raise ValueError(f"no dispenser placed for drug {g!r}")
            self.alts.append([index[t] for t in tiles])
        self.greedy = _route_count(order, placement, len(self.interfaces)) > ROUTE_ENUM_CAP
        self._vertices = [(g, t) for g, ts in zip(self.drugs, self.alts) for t in ts]
        self._timer = timer
        ids = timer.op_ids
        self._start_op = ids[(order.id, START, INTERFACE)]
        self._finish_op = ids[(order.id, FINISH, INTERFACE)]
        self._dispensing = {g: (ids[(order.id, DISPENSING, g)], d) for g, d in order.items}

    def lead(self, prev_loc) -> np.ndarray:
        """Travel from prev_loc to each interface (0 without a previous location)."""
        if prev_loc is None:
            return np.zeros(len(self.interfaces), dtype=np.int64)
        return self._table[prev_loc, self.interfaces]

    @cached_property
    def space(self) -> tuple[np.ndarray, np.ndarray]:
        """(stops, lengths) of every route, all permutations in one gather."""
        vertices = [t for ts in self.alts for t in ts]
        d = self._table[np.ix_(vertices, vertices)]
        to_iface = self._table[np.ix_(vertices, self.interfaces)]
        n = np.array([len(ts) for ts in self.alts], dtype=np.int64)
        offset = np.cumsum(n) - n
        perms = np.array(list(itertools.permutations(range(len(n)))), dtype=np.int64)
        sizes = n[perms]
        strides = np.ones_like(sizes)  # combination c picks (c // stride) % size at each stop
        strides[:, :-1] = np.cumprod(sizes[:, :0:-1], axis=1)[:, ::-1]
        combos = np.arange(int(n.prod()), dtype=np.int64)[None, :, None]
        stops = combos // strides[:, None, :] % sizes[:, None, :] + offset[perms][:, None, :]
        inner = d[stops[..., :-1], stops[..., 1:]].sum(axis=2)
        lengths = (inner[..., None, None] + to_iface[stops[..., 0]][..., :, None]
                   + to_iface[stops[..., -1]][..., None, :])
        return stops, lengths

    def key(self, length: int, p: int, c: int, s: int, e: int) -> tuple:
        """(length, start, stops, end) of route (p, c, s, e) of the route space."""
        vertices = self._vertices
        stops = tuple(vertices[v] for v in self.space[0][p, c].tolist())
        return length, self.interfaces[s], stops, self.interfaces[e]

    def route(self, length: int, start: int, stops, end: int) -> Route:
        """The Route of a ranking key, with its segment and the segment's _tails."""
        eta, dispensing = self._timer.eta, self._dispensing
        seg = ((self._start_op, eta, start), *((*dispensing[g], t) for g, t in stops),
               (self._finish_op, eta, end))
        return Route(length, start, stops, end, seg, _tails(seg, self._timer.dist))

    def every_route(self) -> list[Route]:
        """Every route in enumeration order, without a lead-in leg."""
        lengths = self.space[1]
        return [self.route(*self.key(int(lengths[i]), *i)) for i in np.ndindex(lengths.shape)]

    @cached_property
    def _greedy_tables(self):
        """(tiles, back, hosts, ranked) over the order's distinct tiles u (sorted).

        back[u] is the travel from u to each interface and hosts[u] the
        drugs u hosts.  The candidate (distance, tile u, drug i) ranks as one
        integer (distance * len(tiles) + u) * len(drugs) + i; ranked[r]
        lists every candidate from location r in rank order: from interface
        r for r < len(interfaces), else from tile r - len(interfaces).
        """
        tiles = sorted({t for ts in self.alts for t in ts})
        local = {t: u for u, t in enumerate(tiles)}
        hosts = [set() for _ in tiles]
        pairs = []  # (u, i) per vertex
        for i, ts in enumerate(self.alts):
            for t in ts:
                hosts[local[t]].add(i)
                pairs += (local[t], i)
        u, i = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        rows = np.array(self.interfaces + tiles, dtype=np.int64)
        ids = rows[len(self.interfaces):]
        ranked = np.sort((self._table[rows[:, None], ids[u]] * len(tiles) + u) * len(self.drugs) + i,
                         axis=1)
        back = self._table[ids[:, None], self.interfaces].tolist()
        return tiles, back, hosts, ranked.tolist()

    def greedy_routes(self, lead, rng: random.Random | None = None) -> list[tuple]:
        """(length, start, stops, end) of the nearest-neighbour route from each
        start interface, length from the previous location.

        From the current location, the next stop is the least candidate
        (distance, tile, drug) over the drugs left, or with rng, the second
        least with probability 0.3; every drug left that the tile hosts is
        served there, in the order of the drugs left.  rng shuffles the drugs
        once per start interface and draws only when two candidates or more
        are left.
        """
        tiles, back, hosts, ranked = self._greedy_tables
        k = len(self.drugs)
        span = len(tiles) * k
        n_if = len(self.interfaces)
        out = []
        for s, start in enumerate(self.interfaces):
            left = list(range(k))
            if rng is not None:
                rng.shuffle(left)
            alive = [True] * k
            r = s
            length = lead[s]
            stops = []
            while left:
                first = second = -1
                for key in ranked[r]:
                    if alive[key % k]:
                        if first < 0:
                            first = key
                            if rng is None:
                                break
                        else:
                            second = key
                            break
                if second >= 0 and rng.random() < 0.3:
                    first = second
                u = first % span // k
                hosted = hosts[u]
                for i in left:
                    if i in hosted:
                        stops.append((self.drugs[i], tiles[u]))
                        alive[i] = False
                left = [i for i in left if alive[i]]
                length += first // span
                r = n_if + u
            to_iface = back[u]
            e = to_iface.index(min(to_iface))
            out.append((length + to_iface[e], start, tuple(stops), self.interfaces[e]))
        return out


def candidate_routes(paths: _OrderPaths, prev_loc: int | None, limit: int,
                     rng: random.Random | None = None) -> list[Route]:
    """The limit shortest routes of paths' order from tile prev_loc, ties by
    (start, stops, end).

    Orders with at most ROUTE_ENUM_CAP routes are ranked exactly: the
    order's route lengths plus the lead-in leg, with keys built only for
    routes no longer than the limit-th smallest length.  Above the cap the
    ranking is over the greedy routes.  Only the kept keys become Routes.
    """
    lead = paths.lead(prev_loc)
    if paths.greedy:
        ranked = paths.greedy_routes(lead.tolist(), rng)
    else:
        lengths = paths.space[1] + lead[:, None]
        flat = lengths.ravel()
        cut = np.partition(flat, limit - 1)[limit - 1] if limit < flat.size else flat.max()
        ranked = [
            paths.key(int(flat[i]), *np.unravel_index(i, lengths.shape))
            for i in np.flatnonzero(flat <= cut)
        ]
    ranked.sort()
    return [paths.route(*key) for key in ranked[:limit]]


# --- timing engine ----------------------------------------------------------------

_NEVER = math.inf  # next start of a mover with nothing left to commit


class _Plan:
    """Per-mover sequences of (order, Route); the search state.

    timing[m] keeps mover m's timing inputs (chain, span, flow), its chain
    and the chain's _tails, across insertions; None means not built.
    _insert_best builds every None entry.  Whoever changes seqs[m]
    resets timing[m] to None: _insert_best the winner's mover after
    inserting, _lns_search every mover that a removal shortened.  _timing
    and _plan_makespan read seqs alone, so a plan whose seqs are edited
    directly is still timed right.
    """

    __slots__ = ("seqs", "timing")

    def __init__(self, n_movers: int):
        self.seqs: list[list[tuple[Order, Route]]] = [[] for _ in range(n_movers)]
        self.timing: list[tuple | None] = [None] * n_movers

    def copy(self) -> "_Plan":
        p = _Plan(len(self.seqs))
        p.seqs = [list(s) for s in self.seqs]
        p.timing = self.timing[:]
        return p


class _Timer:
    """Timing context of one schedule() call.

    Tiles are the layout's tile ids (Layout.index_table, sorted tiles), the
    ids that each order's path table builds its Routes on.  dist is the
    layout's distance table as lists, with an extra last row: the "no
    location yet" origin, 0 ticks from every tile.  A plan's chains are its
    Routes' segments, built once per route by the path table.
    """

    def __init__(self, placement, orders, eta: int):
        specs = build_operations(orders, eta)
        self.ops_by_id = {op.op_id: op for op in specs}
        self.op_ids = {
            (op.order_id, op.kind, op.target if op.kind == DISPENSING else INTERFACE): op.op_id
            for op in specs
        }
        self.eta = eta
        self.placement = placement
        self.dist = placement.layout.index_table[1].tolist()
        self.dist.append([0] * len(self.dist))

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
    """_tails of chain[:k] + seg + chain[k:] from position k on.

    span, flow are the chain's _tails, seg_tails the segment's own, and d
    the travel from the segment's last tile to chain[k] (0 when k is the
    chain's end).  Entries before k stay the chain's: a run resumed at
    position k never reads them.
    """
    seg_span, seg_flow = seg_tails
    left = len(span) - 1 - k
    if not left:
        return span[:k] + seg_span, flow[:k] + seg_flow
    after = d + span[k]
    return (
        span[:k] + [x + after for x in seg_span[:-1]] + span[k:],
        flow[:k]
        + [f + left * (x + d) + flow[k] for x, f in zip(seg_span[:-1], seg_flow[:-1])]
        + flow[k:],
    )


def _splice_heads(chain, span, flow, k, routes, dist) -> list[tuple[int, int]]:
    """Entry k of _splice_tails(span, flow, k, route.tails, d) for each route, O(1) each.

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
         bound=(_NEVER, _NEVER), placed=None, marks=None, snaps=None):
    """Commit the remaining ops of chains; return (makespan, flow).

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
    returns None as soon as it reaches bound; at the end it equals the key.
    So the run returns None exactly when its (makespan, flow) would be at
    least bound, and the key otherwise.  With placed, each commit is
    appended as (op_id, mover, tile id, start).  With marks (a set of op
    counts per mover), snaps[(m, k)] gets a copy of the state plus the end
    and tile id of the commit right after mover m commits its k-th op; the
    run ends once every mark is taken.
    """
    bound_makespan, bound_flow = bound
    spans = tails[0]
    lb_makespan, lb_flow = _lower_bound(chains, tails, ptr, nxt, makespan, flow)
    if (lb_makespan, lb_flow) >= bound:
        return None
    movers = range(len(chains))
    lens = [len(c) for c in chains]
    remaining = sum(lens) - sum(ptr)
    pending = sum(map(len, marks)) if marks is not None else 0
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
        if grew and lb_makespan >= bound_makespan and (
            lb_makespan > bound_makespan or lb_flow >= bound_flow
        ):
            return None
        remaining -= 1
        if marks is not None and k in marks[m]:
            snaps[(m, k)] = (ptr[:], nxt[:], wait[:], free[:], makespan, flow, end, tile)
            pending -= 1
            if not pending:
                break
    return makespan, flow


def _timing(plan: _Plan, timer: _Timer) -> list[tuple[int, int, Coord, int]]:
    """Deterministic left-shift timing; [(op_id, mover, tile, start)] in commit order."""
    chains = timer.chains(plan)
    placed: list[tuple[int, int, int, int]] = []
    _run(chains, timer.tails(chains), timer.dist, *timer.origin(chains), placed=placed)
    tiles = timer.placement.layout.sorted_tiles()
    return [(op_id, m, tiles[tile], start) for op_id, m, tile, start in placed]


def _plan_to_schedule(plan: _Plan, timer: _Timer, trace=()) -> Schedule:
    sos = tuple(
        ScheduledOp(timer.ops_by_id[op_id], m, tile, start)
        for op_id, m, tile, start in _timing(plan, timer)
    )
    makespan = max(s.end for s in sos) if sos else 0
    return Schedule(sos, makespan, tuple(trace))


def _plan_makespan(plan: _Plan, timer: _Timer, bound=(_NEVER, _NEVER)):
    """(makespan, flow) of the timed plan, or None once it reaches bound."""
    chains = timer.chains(plan)
    return _run(chains, timer.tails(chains), timer.dist, *timer.origin(chains), bound=bound)


# --- scheduler --------------------------------------------------------------------

def schedule(
    orders,
    placement,
    n_movers: int,
    time_limit: float | None = None,
    warm_start: dict[int, int] | None = None,
    seed: int = 0,
    eta: int = 2,
    max_iterations: int | None = None,
) -> Schedule:
    """Best-found valid schedule for the order set.

    Search: warm-started constructive insertion followed by seeded LNS
    (remove-and-reinsert up to 4 orders, roulette over destroy sizes, restart
    after 500 stale iterations).  Tiny instances are enumerated exhaustively.
    Deterministic for a fixed (seed, max_iterations); time_limit is wall-clock.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("no orders to schedule")
    if n_movers < 1:
        raise ValueError("need at least one mover")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    for o in orders:
        for g in o.drugs:
            if not placement.dispensers_for(g):
                raise ValueError(f"no dispenser placed for drug {g!r}")
    if not placement.interfaces:
        raise ValueError("placement has no interfaces")

    timer = _Timer(placement, orders, eta)
    exhaustive = _exhaustive_count(orders, placement, n_movers)
    if exhaustive is not None and exhaustive <= EXHAUSTIVE_CAP:
        plan, trace = _exhaustive_search(orders, n_movers, timer)
    else:
        plan, trace = _lns_search(
            orders, n_movers, timer, warm_start, seed, time_limit, max_iterations
        )
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
    all_routes = [_OrderPaths(o, timer).every_route() for o in orders]
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
                key = _plan_makespan(plan, timer, best_key)
                if key is not None:
                    best_key = key
                    best = plan
    return best, (best_key[0],)


class _RouteCache:
    """Insertion candidates per (order, previous location), on one _OrderPaths per order."""

    def __init__(self, timer, rng):
        self.timer = timer
        self.rng = rng
        self.store: dict[tuple, list[Route]] = {}
        self.paths: dict[int, _OrderPaths] = {}

    def get(self, order, prev_loc):
        key = (order.id, prev_loc)
        routes = self.store.get(key)
        if routes is None:
            paths = self.paths.get(order.id)
            if paths is None:
                paths = self.paths[order.id] = _OrderPaths(order, self.timer)
            routes = self.store[key] = candidate_routes(paths, prev_loc, CANDIDATES, self.rng)
        return routes


def _lns_search(orders, n_movers, timer, warm_start, seed, time_limit, max_iterations):
    rng = random.Random(seed)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if max_iterations is None:
        max_iterations = 10_000_000 if time_limit is not None else 2_000
    routes = _RouteCache(timer, random.Random(seed + 1))

    if warm_start is None:
        rough = {
            o.id: min(r.length for r in routes.get(o, None))
            + o.total_dispensing + 2 * timer.eta
            for o in orders
        }
        _, assign = p_cmax([rough[o.id] for o in orders], n_movers, mode="lpt")
        warm_start = {o.id: assign[i] for i, o in enumerate(orders)}

    plan = _Plan(n_movers)
    for o in sorted(orders, key=lambda o: (-(o.total_dispensing), o.id)):
        m = warm_start.get(o.id, 0) % n_movers
        best_key = _insert_best(plan, o, timer, routes, movers=[m])
    best = plan.copy()
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
                work.seqs[m] = kept
                work.timing[m] = None
        for o in sorted(removed, key=lambda o: (-(o.total_dispensing), o.id)):
            key = _insert_best(work, o, timer, routes)
        if key < best_key:
            best, best_key = work.copy(), key
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


def _insert_best(plan: _Plan, order: Order, timer: _Timer, routes: _RouteCache,
                 movers=None) -> tuple[int, int]:
    """Insert order where the plan's (makespan, flow) is least; return that key.

    The winner is the least key, ties by enumeration index (mover, position,
    route): the first strict minimum of the enumeration.  The plan without
    the order is timed once, keeping the state right after each candidate
    mover m has committed the ops of its first pos orders.  A candidate at
    (m, pos) takes exactly the same steps up to that point, so it resumes
    from there with m's chain spliced.

    Best first: each candidate's starting _lower_bound is taken from its
    resume state, and candidates run in ascending order of (bound, index).
    A candidate that comes later in the enumeration than the incumbent must
    beat its key; one that comes earlier also wins on an equal key, so it
    runs against (makespan, flow + 1) (keys are integers).  _run stops a
    candidate as soon as its bound reaches that, and the search ends at the
    first candidate whose starting bound reaches (makespan, flow + 1).
    Route candidates are fetched in enumeration order, as a cache miss draws
    from the route cache's rng.

    Cost: a starting bound reads m's spliced tails at k only, O(1) from the
    route's tails and m's (_splice_heads), so queueing a candidate is O(1);
    only a candidate that runs pays for its spliced chain and tails
    (_splice_tails).  The movers' (chain, span, flow) come from plan.timing,
    which rebuilds only the entries reset since they were last built.
    """
    dist = timer.dist
    timing = plan.timing
    for m, entry in enumerate(timing):
        if entry is None:
            chain = _chain(plan.seqs[m])
            timing[m] = (chain, *_tails(chain, dist))
    chains, spans, flows = (list(x) for x in zip(*timing))
    candidates = range(len(plan.seqs)) if movers is None else movers
    boundaries = {  # ops before each position, per candidate mover
        m: list(itertools.accumulate((len(r.seg) for _, r in plan.seqs[m]), initial=0))
        for m in candidates
    }
    ptr, nxt, wait, free, _, _ = timer.origin(chains)
    nowhere = len(dist) - 1
    snaps = {(m, 0): (ptr, nxt, wait, free, 0, 0, 0, nowhere) for m in candidates}
    marks = [set(boundaries.get(m, (0,))[1:]) for m in range(len(chains))]
    if any(marks):
        _run(chains, (spans, flows), dist, ptr[:], nxt[:], wait[:], free[:], marks=marks,
             snaps=snaps)

    queue = []  # (starting bound, index, m, pos, k, route, first start): no chain built yet
    for m in candidates:
        seq = plan.seqs[m]
        base = chains[m]
        for pos, k in enumerate(boundaries[m]):
            prev_loc = seq[pos - 1][1].end if pos > 0 else None
            options = routes.get(order, prev_loc)
            ptr, nxt, wait, free, makespan, flow, ready, loc = snaps[(m, k)]
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
                queue.append((lb, len(queue), m, pos, k, route, start))
    queue.sort()  # by (bound, index): indexes are distinct, so no comparison reads further

    best = None
    best_key = (_NEVER, _NEVER)
    best_index = len(queue)
    for lb, index, m, pos, k, route, start in queue:
        tie_wins = (best_key[0], best_key[1] + 1)
        if lb >= tie_wins:
            break
        bound = tie_wins if index < best_index else best_key
        if lb >= bound:
            continue
        ptr, nxt, wait, free, makespan, flow, _, _ = snaps[(m, k)]
        base = chains[m]
        run_chains, run_spans, run_flows = chains[:], spans[:], flows[:]
        run_chains[m] = base[:k] + route.seg + base[k:]
        run_spans[m], run_flows[m] = _splice_tails(
            spans[m], flows[m], k, route.tails,
            dist[route.seg[-1][2]][base[k][2]] if k < len(base) else 0)
        nxt_m = nxt[:]
        nxt_m[m] = start
        wait_m = wait[:]
        wait_m[m] = route.start
        key = _run(run_chains, (run_spans, run_flows), dist, ptr[:], nxt_m, wait_m, free[:],
                   makespan, flow, bound)
        if key is not None:
            best, best_key, best_index = (m, pos, route), key, index
    m, pos, route = best
    plan.seqs[m].insert(pos, (order, route))
    timing[m] = None
    return best_key
