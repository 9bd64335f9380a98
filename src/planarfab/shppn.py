"""The exact solver of the inner path problem κ, and the routes it leaves.

An order's travel component κ is the shortest interface-to-interface path
that visits one dispenser alternative per required drug.  It is solved for
every order size with one subset DP over the drug clusters (Held-Karp on
clusters, ``_subset_dp``), vectorized over the (drug, tile) vertices on a
slice of the layout's distance table and over all subsets of one size at a
time; its cost grows as 2^drugs, not with the number of visiting sequences.
``kappa_routes`` runs one DP per drug count, batched over the drug sets of
that count (padded to the largest), and backtracks through its layers: the
same pass yields each drug set's κ and, for every interface, the shortest
route that starts there, the scheduler's insertion routes.  Its table
(drug set -> ``RouteSet``) is the planner's only κ and route source: the
placement's analytical cost, the lower bound's path times and the
scheduler's candidates all read it.  ``kappa`` is ``kappa_routes`` on a
batch of one.  All arithmetic is int32, half the memory of int64, and
every result is exact: ``_chunks`` refuses a layout whose diameter times
(drugs + 2) reaches ``_INF`` (int32 max // 4), so no route length reaches
``_INF`` and two ``_INF`` still add up without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Coord

_KAPPA_PASS = 1 << 16  # (graph, mask, vertex, vertex) entries relaxed per numpy pass of κ
_INF = np.iinfo(np.int32).max // 4  # unreached state or padding; two of them still add up


@dataclass(frozen=True)
class PathResult:
    kappa: int
    sequence: tuple[tuple[str, Coord], ...]  # (drug or "interface", coord)


class RouteSet(NamedTuple):
    """One drug set's κ and, per start interface, its shortest route.

    routes holds (length, start, stops, end) for each interface in sorted
    order, on the layout's tile ids (Layout.index_table): the route starts
    at interface start, makes the (drug, tile) stops in turn and ends at
    the interface nearest its last stop, length ticks in all.  κ is the
    least length.
    """

    kappa: int
    routes: tuple[tuple[int, int, tuple[tuple[str, int], ...], int], ...]


def kappa(order, placement) -> PathResult:
    """Exact optimal travel for one order: interface -> one dispenser per drug -> interface.

    kappa_routes on a batch of one.  The path is the least route by
    (length, first stop, start), reversed: the DP's first closing vertex
    with its nearest interface, since the order's drugs are sorted and its
    stops therefore compare in vertex order.
    """
    routes = kappa_routes([order.drugs], placement)[order.drugs].routes
    length, start, stops, end = min(routes, key=lambda r: (r[0], r[2][0], r[1]))
    tiles = placement.layout.sorted_tiles()
    seq = (
        (("interface", tiles[end]),)
        + tuple((g, tiles[t]) for g, t in reversed(stops))
        + (("interface", tiles[start]),)
    )
    return PathResult(length, seq)


def kappa_routes(drug_sets, placement) -> dict[tuple[str, ...], RouteSet]:
    """The RouteSet of each distinct drug set, by one _subset_dp per drug count.

    dp[full, v] + travel(v, e) is the shortest route through every drug that
    ends at interface e, its first minimum over v the DP's closing vertex for
    e.  Travel is symmetric, so that route reversed is the shortest one that
    starts at e: backtracking from the closing vertex lists its stops in the
    reversed order, and it ends at the interface nearest the DP's first
    vertex (ties by interface order).  The backtrack recomputes each
    predecessor as the DP took it, the first minimum over u of dp[mask
    without v's drug, u] + travel(u, v): one gather per drug, over every set
    of the chunk and every interface at once.
    """
    drug_sets = list(dict.fromkeys(drug_sets))
    out: dict[tuple[str, ...], RouteSet] = {}
    if not drug_sets:
        return out
    index, table = placement.layout.index_table
    ifaces = sorted(index[c] for c in placement.interfaces)
    for k, chunk, tid, bits, d, nearest, real in _chunks(drug_sets, placement):
        dp = _subset_dp(bits, d, nearest, k)
        to_iface = np.where(real[:, :, None], table[tid[:, :, None], ifaces], _INF).astype(np.int32)
        closing = dp[:, -1, :, None] + to_iface  # (set, vertex, interface)
        lengths = closing.min(axis=1)
        v = closing.argmin(axis=1)
        b = np.arange(len(chunk))[:, None]
        into = d.transpose(0, 2, 1)  # into[b, v, u] = d[b, u, v]
        mask = (1 << k) - 1
        stops = [v]
        for _ in range(k - 1):
            mask = mask ^ bits[b, v]
            v = (dp[b, mask] + into[b, v]).argmin(axis=2)
            stops.append(v)
        ends = to_iface[b, stops[-1]].argmin(axis=2)
        stops = np.stack(stops, axis=2).tolist()
        for row, i in enumerate(chunk):
            drugs = drug_sets[i]
            owner = [g for g in drugs for _ in placement.dispensers_for(g)]
            vertex = list(zip(owner, tid[row].tolist()))  # padding comes last
            routes = tuple(
                (n, ifaces[e], tuple(vertex[u] for u in path), ifaces[end])
                for e, (n, path, end) in enumerate(
                    zip(lengths[row].tolist(), stops[row], ends[row].tolist()))
            )
            out[drugs] = RouteSet(min(n for n, *_ in routes), routes)
    return out


def _chunks(drug_sets, placement):
    """The DP inputs of drug_sets, one chunk at a time.

    The sets of one drug count share the DP's mask layers.  They are sorted
    by vertex count and cut into chunks whose widest layer pass holds at
    most _KAPPA_PASS (set, mask, vertex, vertex) entries; each set's (drug,
    tile) vertices, drugs in order and tiles sorted, are padded to the
    widest set of its chunk.  Yields (k, chunk, tid, bits, d, nearest,
    real): the drug count, the chunk's indexes into drug_sets, each
    vertex's tile id and drug bit, the int32 travel between vertices and
    from the nearest interface (_INF at padding) and the mask of real
    vertices.  A route of k drugs is at most k + 1 diameters long, so a
    layout whose diameter times (k + 2) reaches _INF is refused.
    """
    if not drug_sets:
        return
    if not placement.interfaces:
        raise ValueError("placement has no interfaces")
    index, table = placement.layout.index_table
    most = max(len(drugs) for drugs in drug_sets)
    if int(table.max()) * (most + 2) >= _INF:
        raise ValueError(
            f"layout diameter {int(table.max())} is too large for int32 routes of {most} drugs"
        )
    nearest_of = table[:, [index[c] for c in placement.interfaces]].min(axis=1)
    tile_ids: dict[str, list[int]] = {}
    for g in dict.fromkeys(g for drugs in drug_sets for g in drugs):
        tiles = placement.dispensers_for(g)
        if not tiles:
            raise ValueError(f"no dispenser placed for drug {g!r}")
        tile_ids[g] = [index[t] for t in tiles]

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
                         table[tid[:, :, None], tid[:, None, :]], _INF).astype(np.int32)
            nearest = np.where(real, nearest_of[tid], _INF).astype(np.int32)
            yield k, chunk, tid, bits, d, nearest, real


def _subset_dp(bits, d, nearest, n_drugs: int):
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
    and writes it to the next layer.  A layer is final once the next one
    reads it.  Returns dp.
    """
    n, width = bits.shape
    full = (1 << n_drugs) - 1
    real = bits > 0
    dp = np.full((n, full + 1, width), _INF, dtype=np.int32)
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
    return dp
