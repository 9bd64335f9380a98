"""The exact solver of the inner path problem κ.

An order's travel component κ is the shortest interface-to-interface path
that visits one dispenser alternative per required drug.  It is solved for
every order size with one subset DP over the drug clusters (Held-Karp on
clusters, ``_subset_dp``), vectorized over the (drug, tile) vertices on a
slice of the layout's distance table and over all subsets of one size at a
time; its cost grows as 2^drugs, not with the number of visiting sequences.
``kappa_batch`` gives the κ values of many drug sets with one DP per drug
count, batched over the sets (padded to the largest); ``kappa`` runs the DP
on a batch of one and backtracks the path.  ``order_graph`` builds one
order's slice.  This DP is the planner's only κ solver.  All arithmetic is
integer; every result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Coord

_KAPPA_PASS = 1 << 16  # (graph, mask, vertex, vertex) entries relaxed per numpy pass of κ
_INF = np.iinfo(np.int64).max // 4  # unreached state or padding; two of them still add up


@dataclass(frozen=True)
class PathResult:
    kappa: int
    sequence: tuple[tuple[str, Coord], ...]  # (drug or "interface", coord)


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
