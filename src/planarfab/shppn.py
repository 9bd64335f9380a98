"""Exact solvers for the inner path problems.

An order's travel component κ is the shortest interface-to-interface path
that visits one dispenser alternative per required drug.  ``kappa`` solves it
for every order size with one subset DP over the drug clusters (Held-Karp on
clusters), vectorized over the (drug, tile) vertices on a slice of the
layout's distance table and over all subsets of one size at a time; its cost
grows as 2^drugs, not with the number of visiting sequences.  ``order_graph``
builds that slice; the scheduler ranks whole routes on the same graph.

The Noon-Bean reduction of a generalized (clustered) TSP to an asymmetric TSP
is kept as an API (``noon_bean``, ``solve_gtsp``, ``transform_dump``); the
exact TSP behind it is Held-Karp up to HELD_KARP_LIMIT = 18 vertices.  All
arithmetic is integer; every result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Coord

HELD_KARP_LIMIT = 18
_KAPPA_PASS = 1 << 20  # (mask, vertex, vertex) entries relaxed per numpy pass of kappa


@dataclass(frozen=True)
class GtspInstance:
    """Clustered TSP: visit exactly one vertex of every cluster, in a cycle.

    ``clusters`` partitions range(n); ``cost`` is an n x n integer matrix
    (asymmetric allowed, may contain ``inf_cost`` markers for forbidden arcs).
    """

    clusters: tuple[tuple[int, ...], ...]
    cost: np.ndarray

    def __post_init__(self):
        n = self.cost.shape[0]
        seen = sorted(v for c in self.clusters for v in c)
        if seen != list(range(n)):
            raise ValueError("clusters must partition the vertex set")
        if any(len(c) == 0 for c in self.clusters):
            raise ValueError("empty cluster")


@dataclass(frozen=True)
class PathResult:
    kappa: int
    sequence: tuple[tuple[str, Coord], ...]  # (drug or "interface", coord)


@dataclass(frozen=True)
class NoonBeanResult:
    matrix: np.ndarray
    shift: int  # M, added once per inter-cluster arc
    cluster_of: tuple[int, ...]
    successor: tuple[int, ...]  # next vertex in the intra-cluster zero cycle
    n_clusters: int

    def decode(self, tour: list[int]) -> tuple[int, list[int]]:
        """Recover the GTSP cost and one chosen vertex per cluster (cycle order)."""
        chosen = []
        for idx, v in enumerate(tour):
            prev = tour[idx - 1]
            if self.cluster_of[prev] != self.cluster_of[v]:
                chosen.append(v)  # entry vertex of its cluster block
        if len(chosen) != self.n_clusters:
            raise ValueError("tour does not traverse clusters contiguously")
        total = 0
        for idx, v in enumerate(chosen):
            w = chosen[(idx + 1) % len(chosen)]
            total += int(self.matrix_cost_original(v, w))
        return total, chosen

    def matrix_cost_original(self, v: int, w: int) -> int:
        # original inter-cluster cost: transformed arc leaves from the cluster
        # predecessor of v, i.e. the vertex whose successor is v
        pred = self.successor.index(v) if v in self.successor else v
        return int(self.matrix[pred, w]) - self.shift


def noon_bean(instance: GtspInstance) -> NoonBeanResult:
    """Standard Noon-Bean reduction of a clustered TSP to an asymmetric TSP.

    Intra-cluster arcs form zero-cost cycles; every inter-cluster arc is
    shifted by M = 1 + sum of finite costs and re-rooted at the cluster
    successor, which forces optimal tours to sweep each cluster contiguously.
    """
    n = instance.cost.shape[0]
    finite = instance.cost[np.isfinite(instance.cost)]
    M = int(finite[finite >= 0].sum()) + 1
    inf_cost = M * (n + 2)

    cluster_of = [0] * n
    successor = list(range(n))
    for ci, cluster in enumerate(instance.clusters):
        for idx, v in enumerate(cluster):
            cluster_of[v] = ci
            successor[v] = cluster[(idx + 1) % len(cluster)]

    out = np.full((n, n), inf_cost, dtype=np.int64)
    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            if cluster_of[u] == cluster_of[w]:
                if successor[u] == w:
                    out[u, w] = 0
            else:
                c = instance.cost[successor[u], w]
                if np.isfinite(c):
                    out[u, w] = int(c) + M
    return NoonBeanResult(
        out, M, tuple(cluster_of), tuple(successor), len(instance.clusters)
    )


def solve_gtsp(instance: GtspInstance) -> tuple[int, list[int]]:
    """Exact clustered-TSP cycle via Noon-Bean + exact TSP."""
    if len(instance.clusters) == 1:
        v = min(instance.clusters[0])
        return 0, [v]
    nb = noon_bean(instance)
    _, tour = solve_tsp(nb.matrix)
    return nb.decode(tour)


# --- exact TSP -------------------------------------------------------------------

def solve_tsp(cost: np.ndarray) -> tuple[int, list[int]]:
    """Exact minimum Hamiltonian cycle; returns (cost, tour starting at 0)."""
    cost = np.asarray(cost, dtype=np.int64)
    n = cost.shape[0]
    if n > HELD_KARP_LIMIT:
        raise ValueError(f"TSP size {n} exceeds exact-solver guard {HELD_KARP_LIMIT}")
    if n == 1:
        return 0, [0]
    if n == 2:
        return int(cost[0, 1] + cost[1, 0]), [0, 1]
    return _held_karp(cost)


def _held_karp(cost: np.ndarray) -> tuple[int, list[int]]:
    n = cost.shape[0]
    size = 1 << (n - 1)
    big = np.iinfo(np.int64).max // 4
    dp = np.full((size, n - 1), big, dtype=np.int64)
    parent = np.full((size, n - 1), -1, dtype=np.int8)
    for j in range(1, n):
        dp[1 << (j - 1), j - 1] = cost[0, j]
    sub = cost[1:, 1:]
    for mask in range(1, size):
        row = dp[mask]
        if row.min() >= big:
            continue
        ext = row[:, None] + sub
        best = ext.min(axis=0)
        arg = ext.argmin(axis=0)
        for j in range(n - 1):
            bit = 1 << j
            if mask & bit:
                continue
            t = mask | bit
            if best[j] < dp[t, j]:
                dp[t, j] = best[j]
                parent[t, j] = arg[j]
    full = size - 1
    closing = dp[full] + cost[1:, 0]
    last = int(np.argmin(closing))
    total = int(closing[last])
    tour = [last + 1]
    mask = full
    while parent[mask, tour[-1] - 1] >= 0:
        p = int(parent[mask, tour[-1] - 1])
        mask ^= 1 << (tour[-1] - 1)
        tour.append(p + 1)
    tour.append(0)
    tour.reverse()
    return total, tour


# --- order-level path value ------------------------------------------------------

def order_graph(order, placement):
    """The path graph of one order on the layout's distance table.

    Returns (interfaces, alts, tiles, d, to_iface): the sorted interfaces; per
    drug of the order, its sorted dispenser tiles; the (drug, tile) vertices'
    tiles in alts order; travel times between vertices; and travel times from
    each vertex to each interface, which are also those from each interface
    to each vertex (graph distances are symmetric).
    """
    interfaces = sorted(placement.interfaces)
    if not interfaces:
        raise ValueError("placement has no interfaces")
    alts: list[tuple[str, list[Coord]]] = []
    for g in order.drugs:
        tiles = placement.dispensers_for(g)
        if not tiles:
            raise ValueError(f"no dispenser placed for drug {g!r}")
        alts.append((g, sorted(tiles)))
    tiles = [t for _, ts in alts for t in ts]
    layout = placement.layout
    return interfaces, alts, tiles, layout.distances(tiles), layout.distances(tiles, interfaces)


def kappa(order, placement) -> PathResult:
    """Exact optimal travel for one order: interface -> one dispenser per drug -> interface.

    Vertices are (drug, tile) pairs; dp[mask, v] is the shortest path from the
    nearest interface through one vertex of each drug in mask, ending at v.
    Each state (mask | bit(v), v) has exactly one predecessor mask, so the DP
    runs one popcount layer at a time: all masks of a layer are relaxed in one
    (masks, V, V) pass, argmin over the predecessor vertex (first minimum, as
    a mask-by-mask pass would take it), then scattered to the next layer.
    """
    interfaces, alts, tiles, d, to_iface = order_graph(order, placement)
    bits = np.array([1 << gi for gi, (_, ts) in enumerate(alts) for _ in ts], dtype=np.int64)
    nearest = to_iface.min(axis=1)

    full = (1 << len(alts)) - 1
    cols = np.arange(len(tiles))
    dp = np.full((full + 1, len(tiles)), np.iinfo(np.int64).max // 4, dtype=np.int64)
    parent = np.full((full + 1, len(tiles)), -1, dtype=np.int64)
    dp[bits, cols] = nearest
    masks = np.arange(full + 1, dtype=np.int64)
    popcount = ((masks[:, None] >> np.arange(len(alts))) & 1).sum(axis=1)
    step = max(1, _KAPPA_PASS // len(tiles) ** 2)  # masks per pass, bounding its memory
    for layer in range(1, len(alts)):  # every nonempty mask is reachable
        members = masks[popcount == layer]
        for lo in range(0, len(members), step):
            m = members[lo:lo + step]
            ext = dp[m][:, :, None] + d
            arg = ext.argmin(axis=1)
            rows, w = np.nonzero((m[:, None] & bits) == 0)  # v's drug not in the mask yet
            to = m[rows] | bits[w]
            dp[to, w] = ext[rows, arg[rows, w], w]
            parent[to, w] = arg[rows, w]

    closing = dp[full] + nearest
    v = int(closing.argmin())
    total = int(closing[v])
    chain = []
    mask = full
    while v >= 0:
        chain.append(v)
        v, mask = int(parent[mask, v]), mask ^ int(bits[v])
    chain.reverse()
    owner = [g for g, ts in alts for _ in ts]
    seq = (
        (("interface", interfaces[int(to_iface[chain[0]].argmin())]),)
        + tuple((owner[v], tiles[v]) for v in chain)
        + (("interface", interfaces[int(to_iface[chain[-1]].argmin())]),)
    )
    return PathResult(total, seq)


def order_time_bound(order, placement, eta: int) -> int:
    """Per-order processing-time lower bound: 2*eta + kappa + total dispensing."""
    return 2 * eta + kappa(order, placement).kappa + order.total_dispensing


def transform_dump(order, placement) -> dict:
    """Debug view of the transformed instance for one order (CLI --dump-gtsp)."""
    interfaces = sorted(placement.interfaces)
    alts = [(g, sorted(placement.dispensers_for(g))) for g in order.drugs]
    vertices = (
        [("interface/start", i) for i in interfaces]
        + [(g, t) for g, tiles in alts for t in tiles]
        + [("interface/end", i) for i in interfaces]
    )
    clusters = [tuple(range(len(interfaces)))]
    v = len(interfaces)
    for _, tiles in alts:
        clusters.append(tuple(range(v, v + len(tiles))))
        v += len(tiles)
    clusters.append(tuple(range(v, v + len(interfaces))))
    cost = placement.layout.distances([c for _, c in vertices])
    instance = GtspInstance(tuple(clusters), cost.astype(float))
    nb = noon_bean(instance)
    return {
        "order": order.id,
        "vertices": [[label, [c.x, c.y]] for label, c in vertices],
        "clusters": [list(c) for c in instance.clusters],
        "shift": nb.shift,
        "matrix": nb.matrix.tolist(),
    }
