"""Exact solvers for the inner path problems.

An order's travel component κ is the shortest interface-to-interface path
that visits one dispenser alternative per required drug.  It is solved for
every order size with one subset DP over the drug clusters (Held-Karp on
clusters, ``_subset_dp``), vectorized over the (drug, tile) vertices on a
slice of the layout's distance table and over all subsets of one size at a
time; its cost grows as 2^drugs, not with the number of visiting sequences.
``kappa_batch`` gives the κ values of many drug sets with one DP per drug
count, batched over the sets (padded to the largest); ``kappa`` runs the DP
on a batch of one and backtracks the path.  ``order_graph`` builds one
order's slice.

The Noon-Bean reduction of a generalized (clustered) TSP to an asymmetric TSP
is kept as an API (``noon_bean``, ``solve_gtsp``, ``transform_dump``); the
exact TSP behind it is Held-Karp up to HELD_KARP_LIMIT = 18 vertices.  All
arithmetic is integer; every result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Coord

HELD_KARP_LIMIT = 18
_KAPPA_PASS = 1 << 16  # (graph, mask, vertex, vertex) entries relaxed per numpy pass of κ
_INF = np.iinfo(np.int64).max // 4  # unreached state or padding; two of them still add up


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

    The subset DP of _subset_dp on a batch of one, backtracked from the best
    closing vertex.
    """
    interfaces, alts, tiles, d, to_iface = order_graph(order, placement)
    bits = np.array([1 << gi for gi, (_, ts) in enumerate(alts) for _ in ts], dtype=np.int64)
    nearest = to_iface.min(axis=1)
    dp, parent = _subset_dp(bits[None], d[None], nearest[None], len(alts), parents=True)
    dp, parent = dp[0], parent[0]

    full = (1 << len(alts)) - 1
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


def kappa_batch(drug_sets, placement) -> list[int]:
    """κ of each drug set (one order's drugs), by one _subset_dp per drug count.

    The sets of one drug count share the DP's mask layers.  They are sorted
    by vertex count and cut into chunks whose widest layer pass holds at
    most _KAPPA_PASS (set, mask, vertex, vertex) entries; each set's (drug,
    tile) vertices are padded to the widest set of its chunk.
    """
    drug_sets = list(drug_sets)
    if not drug_sets:
        return []
    if not placement.interfaces:
        raise ValueError("placement has no interfaces")
    index, table = placement.layout.index_table
    nearest_of = table[:, [index[c] for c in placement.interfaces]].min(axis=1)
    tile_ids: dict[str, list[int]] = {}
    for g in dict.fromkeys(g for drugs in drug_sets for g in drugs):
        tiles = placement.dispensers_for(g)
        if not tiles:
            raise ValueError(f"no dispenser placed for drug {g!r}")
        tile_ids[g] = [index[t] for t in tiles]

    out = [0] * len(drug_sets)
    by_size: dict[int, list[int]] = {}
    for i, drugs in enumerate(drug_sets):
        by_size.setdefault(len(drugs), []).append(i)
    for k, members in by_size.items():
        widths = {i: sum(len(tile_ids[g]) for g in drug_sets[i]) for i in members}
        members.sort(key=widths.__getitem__, reverse=True)  # chunks of similar widths
        lo = 0
        while lo < len(members):
            width = widths[members[lo]]
            step = max(1, _KAPPA_PASS // (math.comb(k, k // 2) * width * width))
            chunk = members[lo:lo + step]
            lo += step
            tid = np.zeros((len(chunk), width), dtype=np.int64)
            bits = np.zeros((len(chunk), width), dtype=np.int64)
            for b, i in enumerate(chunk):
                v = 0
                for gi, g in enumerate(drug_sets[i]):
                    ids = tile_ids[g]
                    tid[b, v:v + len(ids)] = ids
                    bits[b, v:v + len(ids)] = 1 << gi
                    v += len(ids)
            real = bits > 0
            d = np.where(real[:, :, None] & real[:, None, :],
                         table[tid[:, :, None], tid[:, None, :]], _INF)
            nearest = np.where(real, nearest_of[tid], _INF)
            dp, _ = _subset_dp(bits, d, nearest, k)
            closing = (dp[:, -1] + nearest).min(axis=1)
            for i, value in zip(chunk, closing.tolist()):
                out[i] = value
    return out


def _subset_dp(bits, d, nearest, n_drugs: int, parents: bool = False):
    """The layered subset DP over a batch of order graphs of n_drugs drugs each.

    bits (B, V) holds each vertex's drug bit, d (B, V, V) the travel times
    between vertices and nearest (B, V) the travel from the nearest
    interface; a padding vertex has bit 0 and _INF costs.  dp[b, mask, v] is
    the shortest path from an interface through one vertex of each drug in
    mask, ending at v.  Each state (mask | bit(w), w) has exactly one
    predecessor mask, so the DP runs one popcount layer at a time: for
    every (graph, mask of the layer, vertex w whose drug is not in mask) it
    takes the minimum over the predecessor v of dp[mask, v] + d[v, w], in
    passes over at most _KAPPA_PASS (graph, mask, vertex, vertex) entries,
    and writes it to the next layer.  With parents, the predecessor (the
    first minimum, as a mask-by-mask pass would take it) is kept too.
    Returns (dp, parent), parent None without parents.
    """
    n, width = bits.shape
    full = (1 << n_drugs) - 1
    real = bits > 0
    dp = np.full((n, full + 1, width), _INF, dtype=np.int64)
    parent = np.full((n, full + 1, width), -1, dtype=np.int64) if parents else None
    b, w = np.nonzero(real)
    dp[b, bits[b, w], w] = nearest[b, w]
    into = d.transpose(0, 2, 1)  # into[b, w, v] = d[b, v, w]
    masks = np.arange(full + 1, dtype=np.int64)
    popcount = ((masks[:, None] >> np.arange(n_drugs)) & 1).sum(axis=1)
    step = max(1, _KAPPA_PASS // (n * width * width))  # masks per pass, bounding its memory
    for layer in range(1, n_drugs):  # every nonempty mask is reachable
        members = masks[popcount == layer]
        for lo in range(0, len(members), step):
            m = members[lo:lo + step]
            # w's drug not in the mask yet, and w no padding
            b, r, w = np.nonzero(((m[:, None] & bits[:, None, :]) == 0) & real[:, None, :])
            m = m[r]
            ext = dp[b, m] + into[b, w]
            to = m | bits[b, w]
            dp[b, to, w] = ext.min(axis=1)
            if parents:
                parent[b, to, w] = ext.argmin(axis=1)
    return dp, parent


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
