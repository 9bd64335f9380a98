"""Conflict-free execution of a schedule.

Movers may share tiles freely while travelling; the one conflict that matters
is a mover occupying a tile where another mover is actively dispensing, which
pauses that dispensing.  The pipeline is: generate resting sites (edge
midpoints where an idle mover obstructs nothing, selected as a maximum
b-matching of the tile grid by augmenting paths), assign every idle transit
to a site at minimum round-trip detour, realise tick-level paths (x-then-y
staircases at one tile per tick), count interruption ticks per dispensing
operation, and push start times right through a precedence DAG (longest path
from a virtual source) until the interruption ledger stops growing.

Starts only ever move later: every operation is anchored at its original start
by a source edge, mover chains carry interruption + duration + travel weights,
and operations sharing a tile keep their original relative order with edges
weighted by the earlier operation's realized duration (duration + pauses), so
one longest-path pass per round leaves no two of them overlapping.  The ledger
is monotone and bounded, so the iteration terminates; a cap of 100 guards
pathological cases.

Each resolve_conflicts call builds what its rounds share once, since only
the pause ledger changes between rounds: the precedence DAG of the input
schedule with ledger-free weights (``propagate_starts`` adds each round's
pauses), and a frame over the layout's distance table (``_Frame``: rows of
tile ids, and the MOVE cells of every path asked for, keyed by tile id pair).
Every round reads distances from that table: transit x site round trips are
four table blocks (``_site_options``), and the regret greedy above 30
transits updates only the regrets an assignment touches.  A mover's path is a
sorted list of maximal runs (t0, t1, (x, y, state)), one per stretch of ticks
on one cell, so building, checking and writing paths costs O(runs), not
O(horizon): a movement segment is written once as a leg and expanded to one
run per tick after the first-writer pass, and conflict counting indexes the
transit-state runs on each dispensing tile and takes, per dispensing window,
the length of the union of other movers' runs inside it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .core import Coord
from .scheduling import DISPENSING, OperationSpec, Schedule, ScheduledOp

MAX_ITERATIONS = 100
ASSIGN_EXACT_LIMIT = 30

MOVE, DISPENSE, SWAP, REST = "move", "dispense", "swap", "rest"


class RoutingInfeasible(ValueError):
    def __init__(self, message, clique=None):
        super().__init__(message)
        self.clique = clique or []


@dataclass(frozen=True, order=True)
class RestingSite:
    """Midpoint of an edge shared by two adjacent tiles."""

    tile_a: Coord
    tile_b: Coord

    @property
    def location(self) -> tuple[float, float]:
        return ((self.tile_a.x + self.tile_b.x) / 2, (self.tile_a.y + self.tile_b.y) / 2)

    @property
    def tiles(self) -> tuple[Coord, Coord]:
        return (self.tile_a, self.tile_b)


@dataclass(frozen=True)
class SiteSelection:
    sites: tuple[RestingSite, ...]
    exact: bool


@dataclass(frozen=True)
class Transit:
    mover: int
    from_op: int
    to_op: int
    from_tile: Coord
    to_tile: Coord
    depart: int  # realized end of the earlier op
    arrive: int  # start of the later op
    travel: int

    @property
    def gap(self) -> int:
        return self.arrive - self.depart

    @property
    def idle(self) -> int:
        return self.gap - self.travel


@dataclass(frozen=True)
class PrecedenceDag:
    # (u, v, weight, kind); u == -1 is the virtual source.  Weights leave out
    # the ledger: propagate_starts adds u's pauses to every edge out of u.
    edges: tuple[tuple[int, int, int, str], ...]
    # per op in topological order: (op_id, anchor, ((u, weight), ...) into it)
    rows: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]


@dataclass
class RoutedPlan:
    schedule: Schedule  # adjusted start times, nominal durations
    interruptions: dict[int, int]  # op_id -> accounted pause ticks
    paths: dict[int, list]  # mover -> sorted runs (t0, t1, (x, y, state)), ticks [t0, t1)
    resting_assignment: dict[tuple[int, int, int], RestingSite]
    sites: SiteSelection
    makespan: int  # latest realized finish (duration + pauses)
    iterations: int
    # same-dispenser edges whose realized duration alone sets the later start
    exclusivity_repairs: int = 0
    transits: tuple[Transit, ...] = ()  # the final round's transits


def site_candidates(layout) -> list[RestingSite]:
    cands = []
    for t in layout.sorted_tiles():
        for d in ((1, 0), (0, 1)):
            n = Coord(t.x + d[0], t.y + d[1])
            if n in layout.tiles:
                cands.append(RestingSite(t, n))
    return sorted(cands)


def generate_resting_sites(layout, interfaces) -> SiteSelection:
    """Maximum-cardinality site selection under per-tile capacities.

    A dispensing tile tolerates one adjacent resting site (the dispensing
    mover needs rotation clearance), an interface tile two (movers stay
    centered during swaps).  Sites are edges of the tile grid, which is
    bipartite under (x + y) parity, so the selection is a maximum b-matching:
    a degree-ordered greedy pass seeds it, then BFS augmenting paths from the
    even tiles with spare capacity to an odd one grow it until none is left,
    which proves it maximum (max-flow/min-cut).  A maximum greedy seed comes
    back unchanged.
    """
    cands = site_candidates(layout)
    cap = {t: (2 if t in interfaces else 1) for t in layout.tiles}
    nbrs: dict[Coord, list[Coord]] = {t: [] for t in cap}
    for s in cands:
        nbrs[s.tile_a].append(s.tile_b)
        nbrs[s.tile_b].append(s.tile_a)
    picked = set()
    # scarce tiles first: prefer sites whose tiles have few other options
    for s in sorted(cands, key=lambda s: (len(nbrs[s.tile_a]) + len(nbrs[s.tile_b]), s)):
        if cap[s.tile_a] > 0 and cap[s.tile_b] > 0:
            cap[s.tile_a] -= 1
            cap[s.tile_b] -= 1
            picked.add(s)

    def site(u, v):
        return RestingSite(min(u, v), max(u, v))

    even = sorted(t for t in cap if (t.x + t.y) % 2 == 0)
    while True:
        # alternating BFS: even -> odd over unpicked sites, odd -> even over picked ones
        frontier = [u for u in even if cap[u] > 0]
        parent = dict.fromkeys(frontier)
        end = None
        for u in frontier:
            for v in nbrs[u]:
                if v in parent or site(u, v) in picked:
                    continue
                parent[v] = u
                if cap[v] > 0:
                    end = v
                    break
                for w in nbrs[v]:
                    if w not in parent and site(v, w) in picked:
                        parent[w] = v
                        frontier.append(w)
            if end is not None:
                break
        if end is None:
            return SiteSelection(tuple(sorted(picked)), True)
        cap[end] -= 1
        while parent[end] is not None:  # flip the path: one more site in total
            picked ^= {site(parent[end], end)}
            end = parent[end]
        cap[end] -= 1


# --- transits and site assignment -------------------------------------------------

class _Frame:
    """What every round of one resolve_conflicts call reads of the layout:
    the distance table as rows of tile ids (``Layout.index_table``), one
    (x, y, state) cell per tile and state, and the MOVE cells of every path
    asked for so far, keyed by (from, to) tile id.  It lives for one call
    only, so no path cache outlasts the plan it was built for."""

    def __init__(self, placement):
        layout = placement.layout
        self.placement = placement
        self.layout = layout
        self.index, table = layout.index_table
        self.rows = table.tolist()
        self.tiles = layout.sorted_tiles()  # tile id -> Coord
        self.cells = {
            state: [(float(t.x), float(t.y), state) for t in self.tiles]
            for state in (MOVE, DISPENSE, SWAP, REST)
        }
        self._steps: dict[tuple[int, int], list] = {}

    def dist(self, a: Coord, b: Coord) -> int:
        index = self.index
        return self.rows[index[a]][index[b]]

    def steps(self, a: int, b: int) -> list:
        """The MOVE cell of every tile of the a -> b path, a and b tile ids."""
        cells = self._steps.get((a, b))
        if cells is None:
            move, index = self.cells[MOVE], self.index
            path = self.layout.shortest_path(self.tiles[a], self.tiles[b])
            cells = self._steps[(a, b)] = [move[index[c]] for c in path]
        return cells


class Realized:
    """One fixpoint round: a schedule, its pauses and its realized ops
    (``_realized_ops``), on the frame of the call the round belongs to."""

    def __init__(self, schedule: Schedule, pauses, frame: _Frame):
        self.schedule = schedule
        self.pauses = pauses
        self.frame = frame
        self.ops = _realized_ops(schedule, pauses)


def realize(schedule: Schedule, placement, pauses=None) -> Realized:
    """A schedule realized under ``pauses`` on a frame of its own."""
    return Realized(schedule, pauses or {}, _Frame(placement))


def extract_transits(realized: Realized) -> list[Transit]:
    """Idle transits of a realized schedule (gap exceeding travel), per mover."""
    return _transits_of(realized.ops, realized.frame.dist)


def _realized_ops(schedule: Schedule, pauses):
    out = {}
    for so in schedule.ops:
        pause = pauses.get(so.op.op_id, 0)
        out[so.op.op_id] = (so.mover, so.tile, so.start, so.end + pause, so.op)
    return out


def _transits_of(realized, dist):
    by_mover: dict[int, list] = {}
    for op_id, (m, tile, s, e, op) in realized.items():
        by_mover.setdefault(m, []).append((s, e, tile, op_id))
    transits = []
    for m, seq in sorted(by_mover.items()):
        seq.sort()
        for (s1, e1, t1, id1), (s2, e2, t2, id2) in zip(seq, seq[1:]):
            travel = dist(t1, t2)
            if s2 - e1 > travel:
                transits.append(Transit(m, id1, id2, t1, t2, e1, s2, travel))
    return transits


def _site_cost(transit: Transit, site: RestingSite, dist):
    """(detour, via, anchors): whole-tick round trip through the site."""
    best = None
    for a in site.tiles:
        for b in site.tiles:
            via = dist(transit.from_tile, a) + (0 if a == b else 1) + dist(b, transit.to_tile)
            if best is None or via < best[0]:
                best = (via, a, b)
    via, a, b = best
    return via - transit.travel, via, (a, b)


def assign_resting_sites(transits, sites, placement) -> dict[int, RestingSite]:
    """Min-detour assignment; overlapping transits never share a site.

    Exact branch and bound up to 30 transits, regret-greedy above.  Raises
    RoutingInfeasible with the violating clique when no assignment exists.
    """
    if not transits:
        return {}
    sites = list(sites)
    if not sites:
        raise RoutingInfeasible("idle transits exist but no resting sites", clique=list(range(len(transits))))
    options = _site_options(transits, sites, placement.layout)
    for i, opts in enumerate(options):
        if not opts:
            raise RoutingInfeasible(
                f"transit {i} (mover {transits[i].mover}) can reach no resting site in its gap",
                clique=[i],
            )

    depart = np.array([t.depart for t in transits])
    arrive = np.array([t.arrive for t in transits])
    disjoint = (arrive[None, :] <= depart[:, None]) | (arrive[:, None] <= depart[None, :])
    np.fill_diagonal(disjoint, True)
    overlap = [np.flatnonzero(~row).tolist() for row in disjoint]

    if len(transits) <= ASSIGN_EXACT_LIMIT:
        assign = _assign_exact(transits, options, overlap)
    else:
        assign = _assign_greedy(transits, options, overlap)
    if assign is None:
        clique = _overlap_clique(transits, overlap)
        raise RoutingInfeasible(
            f"{len(clique)} mutually overlapping transits exceed available sites",
            clique=clique,
        )
    return {i: sites[j] for i, j in assign.items()}


def _site_options(transits, sites, layout) -> list[list[tuple[int, int]]]:
    """Per transit, the sorted (detour, site index) of every site within its gap.

    A site's best round trip (``_site_cost``) enters at tile a and leaves from
    tile b; since the two tiles differ, min over (a, b) of
    d(from, a) + [a != b] + d(b, to) is the minimum of four table blocks below.
    """
    frm = [t.from_tile for t in transits]
    to = [t.to_tile for t in transits]
    fa = layout.distances(frm, [s.tile_a for s in sites])
    fb = layout.distances(frm, [s.tile_b for s in sites])
    at = layout.distances(to, [s.tile_a for s in sites])
    bt = layout.distances(to, [s.tile_b for s in sites])
    via = np.minimum(np.minimum(fa + at, fb + bt), np.minimum(fa, fb) + 1 + np.minimum(at, bt))
    detour = via - np.array([t.travel for t in transits])[:, None]
    reachable = via <= np.array([t.gap for t in transits])[:, None]
    options = []
    for d_row, ok in zip(detour, reachable):
        js = np.flatnonzero(ok)
        options.append(sorted(zip(d_row[js].tolist(), js.tolist())))
    return options


def _overlap_clique(transits, overlap):
    best = [0] if transits else []
    for i in range(len(transits)):
        clique = [i]
        for j in sorted(overlap[i]):
            if all(j in overlap[k] or j == k for k in clique):
                clique.append(j)
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _assign_exact(transits, options, overlap):
    order = sorted(range(len(transits)), key=lambda i: len(options[i]))
    best = {"cost": math.inf, "assign": None}
    assign: dict[int, int] = {}
    # cheapest detours of order[pos:], a bound on what is left to assign
    rest = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        rest[pos] = rest[pos + 1] + options[order[pos]][0][0]
    # held[i][j]: how many transits of overlap[i] hold site j now
    held: list[dict[int, int]] = [{} for _ in transits]

    def dfs(pos, cost):
        if cost >= best["cost"]:
            return
        if pos == len(order):
            best["cost"] = cost
            best["assign"] = dict(assign)
            return
        i = order[pos]
        if cost + rest[pos] >= best["cost"]:
            return
        for detour, j in options[i]:
            if held[i].get(j):
                continue
            assign[i] = j
            for k in overlap[i]:
                held[k][j] = held[k].get(j, 0) + 1
            dfs(pos + 1, cost + detour)
            for k in overlap[i]:
                held[k][j] -= 1
            del assign[i]

    dfs(0, 0)
    return best["assign"]


def _assign_greedy(transits, options, overlap):
    """Regret heuristic: place the pending transit with the largest spread
    between its two cheapest free sites first (a single free site counts as
    an infinite spread; ties go to the lowest index) on its cheapest free site.
    None when some pending transit has no free site left.

    A site is free for transit i unless an assigned transit in overlap[i]
    holds it.  Each transit keeps its blocked sites and its regret; overlap
    is symmetric, so assigning i changes only the regrets in overlap[i].
    """
    n = len(transits)
    blocked: list[set] = [set() for _ in range(n)]

    def regret(i):
        feas = []
        for dj in options[i]:
            if dj[1] not in blocked[i]:
                feas.append(dj)
                if len(feas) == 2:
                    break
        if not feas:
            return None
        spread = (feas[1][0] - feas[0][0]) if len(feas) > 1 else math.inf
        return ((-spread, i), feas[0][1])

    pending: dict[int, tuple] = {}
    for i in range(n):
        r = regret(i)
        if r is None:
            return None
        pending[i] = r
    assign: dict[int, int] = {}
    while pending:
        key, j = min(pending.values())
        i = key[1]
        assign[i] = j
        del pending[i]
        for k in overlap[i]:
            if k in pending and j not in blocked[k]:
                blocked[k].add(j)
                r = regret(k)
                if r is None:
                    return None
                pending[k] = r
    return assign


# --- paths as runs and conflicts --------------------------------------------------

def _first_writer(writes, top) -> list:
    """Sorted runs (t0, t1, what) of ticks [0, top) after each write
    (t0, t1, what) of ``writes``, in order, takes the ticks of its [t0, t1)
    that no earlier write took.  ``what`` is a cell or a leg (``_expanded``)."""
    runs: list = []
    ends: list[int] = []
    for run in writes:
        t0, t1, what = run
        if t0 < 0 or t1 > top:
            t0, t1 = max(t0, 0), min(t1, top)
            run = (t0, t1, what)
        k = bisect_right(ends, t0)  # the first run ending after t0
        while t0 < t1 and k < len(runs) and runs[k][0] < t1:
            held = runs[k][0]
            if t0 < held:
                runs.insert(k, (t0, held, what))
                ends.insert(k, held)
                k += 1
            t0 = ends[k]
            k += 1
            run = (t0, t1, what)
        if t0 < t1:
            runs.insert(k, run)
            ends.insert(k, t1)
    return runs


def _expanded(runs) -> list:
    """Maximal runs of cells from runs holding a cell (x, y, state) or a leg
    (cells, base), whose tick t holds cells[t - base]: a leg piece becomes one
    run per tick, and neighbours holding one cell become one run.  The cells
    of a leg are the tiles of a path, so no two neighbours in it are equal."""
    out: list = []
    for t0, t1, cell in runs:
        rest = ()
        if len(cell) == 2:  # a leg piece: its first tick here, the others in rest
            cells, base = cell
            cell = cells[t0 - base]
            rest = zip(range(t0 + 1, t1), range(t0 + 2, t1 + 1), cells[t0 + 1 - base : t1 - base])
            t1 = t0 + 1
        if out and out[-1][1] == t0 and out[-1][2] == cell:
            out[-1] = (out[-1][0], t1, cell)
        else:
            out.append((t0, t1, cell))
        out += rest
    return out


def build_paths(realized: Realized, resting_assignment, transits=None):
    """Per-mover runs (t0, t1, (x, y, state)): the mover holds that cell for
    ticks [t0, t1).  Runs are sorted, disjoint and maximal; off-grid ticks have
    none, and no run reaches past the latest realized end.

    Movement segments are x-then-y staircases at one tile per tick (BFS paths
    on non-convex layouts); idle transits detour through their assigned
    resting site and wait at its midpoint, leaving just in time to arrive at
    the next operation's start.  The first writer of a tick wins: operations
    come first (of two that share a tick, the later-starting one), then each
    transit's segments in order.  A movement segment is written once, as a
    leg ``(cells, base)`` over its ticks, and expanded after the first-writer
    pass.
    """
    frame = realized.frame
    ops_of = realized.ops
    if transits is None:
        transits = _transits_of(ops_of, frame.dist)
    t_by_key = {(t.mover, t.from_op, t.to_op): t for t in transits}
    site_of = {}
    for idx, site in resting_assignment.items():
        tr = transits[idx] if isinstance(idx, int) else t_by_key[idx]
        site_of[(tr.mover, tr.from_op, tr.to_op)] = (tr, site)

    top = max((e for (_m, _t, _s, e, _o) in ops_of.values()), default=0) + 1
    index, rows, steps = frame.index, frame.rows, frame.steps
    dispense, swap, rest = frame.cells[DISPENSE], frame.cells[SWAP], frame.cells[REST]

    paths: dict[int, list] = {}
    by_mover: dict[int, list] = {}
    for op_id, rec in ops_of.items():
        by_mover.setdefault(rec[0], []).append(rec + (op_id,))
    for m, seq in sorted(by_mover.items()):
        seq.sort(key=lambda r: r[2])
        # ops in reverse: the last writer among them wins
        writes = [
            (s, e, (dispense if op.kind == DISPENSING else swap)[index[tile]])
            for (_m, tile, s, e, op, _id) in reversed(seq)
        ]
        for r1, r2 in zip(seq, seq[1:]):
            _m1, t1, _s1, e1, _o1, id1 = r1
            _m2, t2, s2, _e2, _o2, id2 = r2
            i1, i2 = index[t1], index[t2]
            assigned = site_of.get((m, id1, id2))
            if assigned is not None:
                tr, site = assigned
                _detour, _via, (a, b) = _site_cost(tr, site, frame.dist)
                ib = index[b]
                p_in = steps(i1, index[a])  # from the departure tick e1 on
                arrive_a = e1 + len(p_in)
                depart_b = s2 - rows[ib][i2]
                writes.append((e1, arrive_a, (p_in, e1)))
                writes.append((arrive_a, depart_b, site.location + (REST,)))
                writes.append((depart_b, s2, (steps(ib, i2), depart_b)))
            else:
                # tight transit (or fallback wait at the previous tile)
                leave = s2 - rows[i1][i2]
                p = steps(i1, i2)
                writes.append((e1, e1 + 1, p[0]))  # departure tick
                writes.append((e1, leave, rest[i1]))
                writes.append((leave + 1, s2 + 1, (p, leave)))
        paths[m] = _expanded(_first_writer(writes, top))
    return paths


def detect_conflicts(paths, schedule: Schedule, pauses=None) -> dict[int, int]:
    """Ticks per dispensing op during which another mover transits its tile.

    Only transit-state occupancy (moving or resting) pauses dispensing; two
    operations parked on one tile are a scheduling overlap, kept apart by the
    realized-duration same-dispenser edges of build_dag, not a routing conflict.
    """
    pauses = pauses or {}
    dispensing = [so for so in schedule.ops if so.op.kind == DISPENSING]
    # dispensing tile center -> (t0, t1, mover) transit-state runs on it
    occupancy: dict[tuple, list] = {
        (float(so.tile.x), float(so.tile.y)): [] for so in dispensing
    }
    for m, runs in paths.items():
        for t0, t1, (x, y, state) in runs:
            if state == MOVE or state == REST:
                seq = occupancy.get((x, y))
                if seq is not None:
                    seq.append((t0, t1, m))
    index = {}
    for tile, seq in occupancy.items():
        seq.sort()
        # reach[k]: the latest end among seq[:k + 1], so runs before
        # bisect_right(reach, s) all end by tick s
        index[tile] = (seq, [r[0] for r in seq], list(accumulate((r[1] for r in seq), max)))
    ledger: dict[int, int] = {}
    for so in dispensing:
        seq, starts, reach = index[(float(so.tile.x), float(so.tile.y))]
        end = so.end + pauses.get(so.op.op_id, 0)
        covered, done = 0, so.start  # ticks before `done` are counted or excluded
        for k in range(bisect_right(reach, so.start), bisect_left(starts, end)):
            t0, t1, m = seq[k]
            if m != so.mover and t1 > done:  # the union of other movers' runs
                t1 = min(t1, end)
                covered += t1 - max(t0, done)
                done = t1
        ledger[so.op.op_id] = covered
    return ledger


# --- DAG propagation ---------------------------------------------------------------

def build_dag(schedule: Schedule, placement) -> PrecedenceDag:
    """The precedence DAG of a schedule, with ledger-free weights.

    Anchors carry the original start, same-mover edges duration + travel and
    same-dispenser edges the duration; ``propagate_starts`` adds the earlier
    op's pauses to every edge out of it.  Raises ValueError on an edge that
    runs against the original-start topological order.
    """
    index, table = placement.layout.index_table
    ops = sorted(schedule.ops, key=lambda s: (s.start, s.mover, s.op.op_id))
    edges = []
    for so in ops:
        edges.append((-1, so.op.op_id, so.start, "anchor"))
    by_mover: dict[int, list] = {}
    for so in ops:
        by_mover.setdefault(so.mover, []).append(so)
    for m, seq in sorted(by_mover.items()):
        seq.sort(key=lambda s: (s.start, s.op.op_id))
        for a, b in zip(seq, seq[1:]):
            w = a.op.duration + table.item(index[a.tile], index[b.tile])
            edges.append((a.op.op_id, b.op.op_id, w, "same-mover"))
    by_tile: dict[Coord, list] = {}
    for so in ops:
        by_tile.setdefault(so.tile, []).append(so)
    for tile, seq in sorted(by_tile.items()):
        seq.sort(key=lambda s: (s.start, s.op.op_id))
        for a, b in zip(seq, seq[1:]):
            edges.append((a.op.op_id, b.op.op_id, a.op.duration, "same-dispenser"))

    rank = {so.op.op_id: i for i, so in enumerate(ops)}
    incoming: dict[int, list] = {so.op.op_id: [] for so in ops}
    for u, v, w, kind in edges:
        if u != -1:
            if rank[u] >= rank[v]:
                raise ValueError("precedence DAG has a backward edge (cycle risk)")
            incoming[v].append((u, w))
    # starts are never negative: the longest path starts from 0
    rows = tuple((so.op.op_id, max(so.start, 0), tuple(incoming[so.op.op_id])) for so in ops)
    return PrecedenceDag(tuple(edges), rows)


def propagate_starts(dag: PrecedenceDag, ledger) -> dict[int, int]:
    """Longest path from the source in original-start topological order; an
    edge out of op u weighs its base weight plus u's pauses in ``ledger``."""
    starts: dict[int, int] = {}
    for v, s, preds in dag.rows:
        for u, w in preds:
            t = starts[u] + w + ledger.get(u, 0)
            if t > s:
                s = t
        starts[v] = s
    return starts


def _binding_tile_edges(dag: PrecedenceDag, starts, ledger) -> int:
    """Same-dispenser edges whose realized duration alone sets the later start.

    Counts edges a -> b with starts[a] + w above b's anchor, its same-mover
    bound and starts[a] + 1 (what tile order alone would ask for), where w is
    the edge's weight under ``ledger``.
    """
    other: dict[int, int] = {}
    for u, v, w, kind in dag.edges:
        if kind != "same-dispenser":
            reach = w if u == -1 else starts[u] + w + ledger.get(u, 0)
            other[v] = max(other.get(v, 0), reach)
    return sum(
        starts[u] + w + ledger.get(u, 0) > max(other[v], starts[u] + 1)
        for u, v, w, kind in dag.edges
        if kind == "same-dispenser"
    )


def resolve_conflicts(
    schedule: Schedule,
    placement,
    sites: SiteSelection | None = None,
    ledger: dict[int, int] | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> RoutedPlan:
    """Iterate path building, conflict counting and DAG repropagation to a fixpoint.

    The DAG and the layout frame (distance rows, path cache) are built once
    per call: between rounds only the ledger changes.
    """
    if sites is None:
        sites = generate_resting_sites(placement.layout, placement.interfaces)
    ledger = dict(ledger or {})
    dag = build_dag(schedule, placement)
    frame = _Frame(placement)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        starts = propagate_starts(dag, ledger)
        current = Schedule(
            tuple(
                ScheduledOp(so.op, so.mover, so.tile, starts[so.op.op_id])
                for so in schedule.ops
            ),
            max(starts[so.op.op_id] + so.op.duration for so in schedule.ops),
            schedule.incumbent_trace,
        )
        realized = Realized(current, ledger, frame)
        transits = extract_transits(realized)
        assignment = assign_resting_sites(transits, sites.sites, placement) if transits else {}
        key_assignment = {
            (transits[i].mover, transits[i].from_op, transits[i].to_op): s
            for i, s in assignment.items()
        }
        paths = build_paths(realized, key_assignment, transits)
        found = detect_conflicts(paths, current, pauses=ledger)
        new_ledger = {k: max(ledger.get(k, 0), v) for k, v in found.items() if v > 0}
        for k, v in ledger.items():
            new_ledger[k] = max(new_ledger.get(k, 0), v)
        if new_ledger == ledger:
            realized_makespan = max(
                so.end + ledger.get(so.op.op_id, 0) for so in current.ops
            )
            return RoutedPlan(
                current,
                ledger,
                paths,
                key_assignment,
                sites,
                realized_makespan,
                iterations,
                exclusivity_repairs=_binding_tile_edges(dag, starts, ledger),
                transits=tuple(transits),
            )
        ledger = new_ledger
    residual = {k: v for k, v in ledger.items() if v}
    raise RoutingInfeasible(
        f"conflict resolution did not reach a fixpoint in {max_iterations} iterations; "
        f"residual interruptions: {residual}"
    )


def route_schedule(schedule: Schedule, placement, max_iterations: int = MAX_ITERATIONS) -> RoutedPlan:
    """Generate sites and resolve conflicts in one call."""
    return resolve_conflicts(schedule, placement, max_iterations=max_iterations)


def validate_plan(plan: RoutedPlan, instance) -> list[str]:
    """Full plan check: realized schedule validity plus path consistency.

    The adjusted schedule is validated with durations inflated by the accounted
    pauses; travel gaps are re-verified against the realized paths (one tile
    per tick, segments matching the schedule, sites entered only from their
    two adjacent tiles).
    """
    from .scheduling import validate_schedule  # local import to stay cycle-free

    issues = []
    pauses = plan.interruptions
    real_ops = tuple(
        ScheduledOp(
            OperationSpec(
                so.op.op_id,
                so.op.order_id,
                so.op.target,
                so.op.duration + pauses.get(so.op.op_id, 0),
                so.op.kind,
            ),
            so.mover,
            so.tile,
            so.start,
        )
        for so in plan.schedule.ops
    )
    realized = Schedule(real_ops, max(o.end for o in real_ops))
    for v in validate_schedule(realized, instance):
        # realized durations legitimately exceed the nominal ones
        if "rule 6" in v or ("rule 1" in v and "does not match" in v):
            continue
        issues.append(v)

    for m, runs in plan.paths.items():
        prev, prev_end = None, 0
        for t0, t1, p in runs:
            if t0 != prev_end:  # off-grid ticks in between
                prev = None
            x, y, state = p
            if prev is not None:
                step = abs(x - prev[0]) + abs(y - prev[1])
                if step > 1.0 + 1e-9:
                    issues.append(f"path: mover {m} jumps {step} tiles at tick {t0}")
            on_center = float(x).is_integer() and float(y).is_integer()
            if state == REST and not on_center:
                site = RestingSite(
                    Coord(int(x - 0.5), int(y)) if x != int(x) else Coord(int(x), int(y - 0.5)),
                    Coord(int(x + 0.5), int(y)) if x != int(x) else Coord(int(x), int(y + 0.5)),
                )
                if prev is not None and prev[:2] != (x, y):
                    frm = Coord(int(prev[0]), int(prev[1]))
                    if frm not in site.tiles:
                        issues.append(
                            f"path: mover {m} enters site {site.location} from {frm}"
                        )
            elif not on_center and state != REST:
                issues += [f"path: mover {m} off-center at tick {t} in state {state}"
                           for t in range(t0, t1)]
            prev, prev_end = p, t1
    for so in plan.schedule.ops:
        center = (float(so.tile.x), float(so.tile.y))
        end = so.end + pauses.get(so.op.op_id, 0)
        runs = plan.paths.get(so.mover)
        if runs is None:
            continue
        t = so.start  # first tick of the op not yet seen at its tile
        k = bisect_right(runs, t, key=itemgetter(1))
        while t < end and k < len(runs) and runs[k][0] <= t and runs[k][2][:2] == center:
            t = runs[k][1]
            k += 1
        if t < end:
            issues.append(f"path: mover {so.mover} absent from op {so.op.op_id} tile at tick {t}")
    return issues


# --- batch merging -----------------------------------------------------------------

def merge_batches(batch_schedules, placement, n_movers: int | None = None) -> Schedule:
    """Concatenate independently scheduled batches into one left-anchored schedule.

    Per mover, batch b starts only after its last op in batch b-1 plus travel;
    tiles stay exclusive across the seam.  Start times are propagated batch by
    batch with a uniform shift (internal timings are preserved), then the
    caller runs resolve_conflicts on the merged whole.
    """
    batches = [b for b in batch_schedules if b.ops]
    if not batches:
        raise ValueError("nothing to merge")
    if n_movers is not None:
        for bi, b in enumerate(batches):
            stray = {s.mover for s in b.ops} - set(range(n_movers))
            if stray:
                raise ValueError(f"batch {bi} uses movers {sorted(stray)} outside the fleet")
    dist = placement.layout.distance

    merged_ops: list[ScheduledOp] = []
    mover_last: dict[int, ScheduledOp] = {}
    tile_last_end: dict[Coord, int] = {}
    next_id = 0
    for b in batches:
        ops = sorted(b.ops, key=lambda s: s.op.op_id)
        shift = 0
        firsts: dict[int, ScheduledOp] = {}
        for so in sorted(b.ops, key=lambda s: (s.start, s.op.op_id)):
            firsts.setdefault(so.mover, so)
        for m, first in firsts.items():
            prev = mover_last.get(m)
            if prev is not None:
                need = prev.end + dist(prev.tile, first.tile) - first.start
                shift = max(shift, need)
        tile_first: dict[Coord, ScheduledOp] = {}
        for so in sorted(b.ops, key=lambda s: (s.start, s.op.op_id)):
            tile_first.setdefault(so.tile, so)
        for tile, first in tile_first.items():
            if tile in tile_last_end:
                shift = max(shift, tile_last_end[tile] - first.start)
        remap: dict[int, int] = {}
        for so in ops:
            remap[so.op.op_id] = next_id
            next_id += 1
        for so in sorted(b.ops, key=lambda s: (s.start, s.mover, s.op.op_id)):
            spec = OperationSpec(
                remap[so.op.op_id], so.op.order_id, so.op.target, so.op.duration, so.op.kind
            )
            shifted = ScheduledOp(spec, so.mover, so.tile, so.start + shift)
            merged_ops.append(shifted)
            mover_last[so.mover] = shifted
            tile_last_end[so.tile] = max(tile_last_end.get(so.tile, 0), shifted.end)
    makespan = max(s.end for s in merged_ops)
    return Schedule(tuple(merged_ops), makespan)
