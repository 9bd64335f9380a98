"""Domain types shared by every planning stage.

The factory floor is a set of unit tiles on the positive integer lattice.
Movers travel between tile centers at one tile edge per tick; every duration
in the toolkit (travel, dispensing, cartridge swaps) is an integer tick count.

Distances are shortest-path distances in the 4-adjacent tile graph.  On convex
layouts (line, doubleline, square) this equals the Manhattan distance; on the
ring topology movers must travel around the central hole, so the graph
distance is the honest travel time there.

Each layout holds one distance table, built on first use: a tile -> index map
over the sorted tiles and an n x n int64 matrix of travel times (numpy
broadcasting of |dx| + |dy| on l1 layouts, one BFS per tile otherwise).
``Layout.distance`` reads one entry; ``Layout.distances`` slices a block of
it, which is how scheduling and κ get the matrix over the tiles they work on.
The placement sampler gathers rows of the table itself (``index_table``).
The same BFS checks that a layout is connected, and paths off the x-then-y
staircase are walked down the table's row of the target tile.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

INTERFACE = "interface"

TOPOLOGIES = ("line", "doubleline", "ring", "square", "explicit")


class Coord(NamedTuple):
    """Tile center on the positive integer lattice (1-based)."""

    x: int
    y: int


def manhattan(a: Coord, b: Coord) -> int:
    """l1 distance in ticks between two tile centers."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class Layout:
    """The physical grid: a connected set of tiles plus a reserved interface count.

    Which tiles become interfaces is a placement decision; the layout only
    reserves how many there will be.  ``n_tiles`` is the number of dispensing
    tiles, i.e. ``len(tiles) - n_inter``.
    """

    tiles: frozenset[Coord]
    n_inter: int
    topology: str = "explicit"

    def __post_init__(self):
        if not self.tiles:
            raise ValueError("layout needs at least one tile")
        if self.n_inter < 0 or self.n_inter > len(self.tiles):
            raise ValueError(
                f"n_inter={self.n_inter} out of range for {len(self.tiles)} tiles"
            )
        if len(_bfs(self, next(iter(self.tiles)))) < len(self.tiles):
            raise ValueError("layout tiles must be connected under 4-adjacency")

    @property
    def n_tiles(self) -> int:
        return len(self.tiles) - self.n_inter

    def sorted_tiles(self) -> list[Coord]:
        return sorted(self.tiles)

    def neighbors(self, c: Coord) -> list[Coord]:
        out = []
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            n = Coord(c[0] + d[0], c[1] + d[1])
            if n in self.tiles:
                out.append(n)
        return out

    @property
    def l1_exact(self) -> bool:
        """True when every graph distance equals the Manhattan distance."""
        return self.topology in ("line", "doubleline", "square")

    @cached_property
    def index_table(self) -> tuple[dict[Coord, int], np.ndarray]:
        """The tile -> row map and the read-only all-pairs table behind
        ``distance``/``distances``, for callers that gather rows themselves."""
        # cached_property writes the instance __dict__, so it works on a frozen dataclass
        tiles = self.sorted_tiles()
        index = {t: i for i, t in enumerate(tiles)}
        if self.l1_exact:
            xy = np.array(tiles, dtype=np.int64)
            table = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
        else:
            dists = [_bfs(self, t) for t in tiles]
            table = np.array([[d[u] for u in tiles] for d in dists], dtype=np.int64)
        table.flags.writeable = False  # shared by every caller of this layout
        return index, table

    def distance(self, a: Coord, b: Coord) -> int:
        """Travel time in ticks between two tiles of the layout."""
        index, table = self.index_table
        return table.item(index[a], index[b])

    def distances(self, sources, targets=None) -> np.ndarray:
        """int64 travel times from each source tile (rows) to each target tile
        (columns; the sources again when omitted).  Tiles may repeat."""
        index, table = self.index_table
        rows = [index[t] for t in sources]
        cols = rows if targets is None else [index[t] for t in targets]
        return table[np.ix_(rows, cols)]

    def shortest_path(self, a: Coord, b: Coord) -> list[Coord]:
        """Tile sequence from a to b inclusive, one tile per tick.

        The x-then-y staircase where it stays on the tiles and is shortest;
        otherwise (ring layouts) the lexicographically least shortest path,
        walked on the distance table (``_walk``).
        """
        a, b = Coord(*a), Coord(*b)
        path = _staircase(a, b)
        if all(c in self.tiles for c in path) and (
            self.l1_exact or len(path) - 1 == self.distance(a, b)
        ):
            return path
        return _walk(self, a, b)


def _staircase(a: Coord, b: Coord) -> list[Coord]:
    path = [a]
    x, y = a
    step = 1 if b.x > x else -1
    while x != b.x:
        x += step
        path.append(Coord(x, y))
    step = 1 if b.y > y else -1
    while y != b.y:
        y += step
        path.append(Coord(x, y))
    return path


def _bfs(layout: Layout, src: Coord) -> dict[Coord, int]:
    """Graph distance from src to every tile it reaches."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        c = queue.popleft()
        for n in layout.neighbors(c):
            if n not in dist:
                dist[n] = dist[c] + 1
                queue.append(n)
    return dist


def _walk(layout: Layout, a: Coord, b: Coord) -> list[Coord]:
    """The lexicographically least shortest path from a to b: from each tile,
    step to the least neighbour one tick closer to b (the table is symmetric,
    so b's row holds every tile's distance to b)."""
    index, table = layout.index_table
    to_b = table[index[b]].tolist()
    path = [a]
    while a != b:
        closer = to_b[index[a]] - 1
        a = min(n for n in layout.neighbors(a) if to_b[index[n]] == closer)
        path.append(a)
    return path


def build_layout(topology: str, size_params, n_inter: int) -> Layout:
    """Construct one of the canonical tile sets.

    size_params: line/doubleline length, ring side, square (rows, cols) or a
    single side, or an explicit iterable of (x, y) pairs.
    """
    if topology in ("line", "doubleline"):
        n = int(size_params)
        if n < 1:
            raise ValueError(f"{topology} length must be at least 1, got {n}")
        rows = (1,) if topology == "line" else (1, 2)
        tiles = {Coord(i, j) for i in rows for j in range(1, n + 1)}
    elif topology == "ring":
        s = int(size_params)
        if s < 3:
            raise ValueError("ring side must be at least 3")
        tiles = {
            Coord(i, j)
            for i in range(1, s + 1)
            for j in range(1, s + 1)
            if i in (1, s) or j in (1, s)
        }
    elif topology == "square":
        if isinstance(size_params, (tuple, list)):
            rows, cols = size_params
        else:
            rows = cols = int(size_params)
        if rows < 1 or cols < 1:
            raise ValueError(f"square sides must be at least 1, got {rows}x{cols}")
        tiles = {
            Coord(i, j) for i in range(1, cols + 1) for j in range(1, rows + 1)
        }
    elif topology == "explicit":
        tiles = {Coord(int(x), int(y)) for x, y in size_params}
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return Layout(frozenset(tiles), n_inter, topology)


@dataclass(frozen=True)
class DrugCatalog:
    """Drug universe with marginal prescription probabilities and pairwise correlation."""

    drugs: tuple[str, ...]
    marginals: tuple[float, ...]
    correlation: np.ndarray  # symmetric, zero diagonal, entries in [-1, 1]

    def __post_init__(self):
        k = len(self.drugs)
        if len(set(self.drugs)) != k:
            raise ValueError("duplicate drug identifiers")
        if len(self.marginals) != k:
            raise ValueError("marginals/drugs length mismatch")
        if any(not 0.0 <= p <= 1.0 for p in self.marginals):
            raise ValueError("marginals must lie in [0, 1]")
        corr = np.asarray(self.correlation, dtype=float)
        if corr.shape != (k, k):
            raise ValueError("correlation must be square over the drugs")
        if not np.allclose(corr, corr.T):
            raise ValueError("correlation must be symmetric")
        if not np.allclose(np.diag(corr), 0.0):
            raise ValueError("correlation diagonal must be zero")
        if np.any(np.abs(corr) > 1.0 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "correlation", corr)

    def index(self, drug: str) -> int:
        return self.drugs.index(drug)

    @property
    def n_drugs(self) -> int:
        return len(self.drugs)


@dataclass(frozen=True)
class Order:
    """One prescription: a set of (drug, dispensing duration in ticks) pairs."""

    id: int
    items: tuple[tuple[str, int], ...]
    drugs: tuple[str, ...] = field(init=False, compare=False, repr=False)  # items' drugs, sorted

    def __post_init__(self):
        drugs = [g for g, _ in self.items]
        if len(set(drugs)) != len(drugs):
            raise ValueError(f"order {self.id}: drug listed twice")
        if not self.items:
            raise ValueError(f"order {self.id}: empty")
        if any(d < 1 for _, d in self.items):
            raise ValueError(f"order {self.id}: durations must be >= 1 tick")
        object.__setattr__(self, "items", tuple(sorted(self.items)))
        object.__setattr__(self, "drugs", tuple(g for g, _ in self.items))

    @property
    def total_dispensing(self) -> int:
        return sum(d for _, d in self.items)


@dataclass(frozen=True)
class InstanceConfig:
    """Hardware and run parameters."""

    n_dispensers: int
    m_max: int
    n_movers: int
    seed: int
    d_max: int = 4
    eta_interface: int = 2
    dispensing_speed: int = 100

    def __post_init__(self):
        if self.n_movers > self.m_max:
            raise ValueError("n_movers exceeds m_max")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if self.eta_interface < 1:
            raise ValueError("eta_interface must be >= 1")
        if self.n_dispensers < 1 or self.n_movers < 1 or self.m_max < 1:
            raise ValueError("counts must be positive")


def validate_instance(layout: Layout, catalog: DrugCatalog, config: InstanceConfig) -> list[str]:
    """Admissibility report; empty list means the instance is solvable in principle."""
    issues = []
    if config.n_dispensers < catalog.n_drugs:
        issues.append(
            f"insufficient dispensers: {config.n_dispensers} for {catalog.n_drugs} drugs"
        )
    usable = layout.n_tiles
    if usable < 1:
        issues.append("no dispensing tiles left after reserving interfaces")
    if usable * config.d_max < catalog.n_drugs:
        issues.append(
            f"coverage impossible: {usable} tiles x d_max={config.d_max} "
            f"< {catalog.n_drugs} drugs"
        )
    if layout.n_inter < 1:
        issues.append("at least one interface is required")
    return issues


# --- instance (de)serialisation -------------------------------------------------

_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          list: "a list", dict: "an object"}


def check_json(value, schema, where=""):
    """value, a parsed JSON document, once its fields have the schema's types;
    else a ValueError naming the first field that does not.

    A schema is a type (matched exactly, so a bool is no integer, but an
    integer is a number: float), a one-item list [schema of every item] or a
    dict {key: schema}, whose keys are checked where present (the loader's
    own lookup reports a missing one).
    """
    kind = type(schema) if isinstance(schema, (list, dict)) else schema
    if not (type(value) is kind or kind is float and type(value) is int):
        raise ValueError(f"{where or 'document'} must be {_KINDS[kind]}, got {value!r}")
    if isinstance(schema, list):
        for i, item in enumerate(value):
            check_json(item, schema[0], f"{where}[{i}]")
    elif isinstance(schema, dict):
        for key, sub in schema.items():
            if key in value:
                check_json(value[key], sub, f"{where}.{key}" if where else key)
    return value


def instance_to_json(layout: Layout, catalog: DrugCatalog, config: InstanceConfig) -> str:
    doc = {
        "topology": layout.topology,
        "tiles": [[c.x, c.y] for c in layout.sorted_tiles()],
        "n_inter": layout.n_inter,
        "drugs": list(catalog.drugs),
        "marginals": list(catalog.marginals),
        "correlation": catalog.correlation.tolist(),
        "config": {
            "n_dispensers": config.n_dispensers,
            "d_max": config.d_max,
            "m_max": config.m_max,
            "n_movers": config.n_movers,
            "eta_interface": config.eta_interface,
            "dispensing_speed": config.dispensing_speed,
            "seed": config.seed,
        },
    }
    return json.dumps(doc, indent=2)


def instance_from_json(text: str) -> tuple[Layout, DrugCatalog, InstanceConfig]:
    doc = check_json(json.loads(text), {
        "tiles": [[int]], "n_inter": int, "topology": str, "drugs": [str],
        "marginals": [float], "correlation": [[float]],
        "config": dict.fromkeys(("n_dispensers", "d_max", "m_max", "n_movers", "eta_interface",
                                 "dispensing_speed", "seed"), int),
    })
    layout = Layout(
        frozenset(Coord(x, y) for x, y in doc["tiles"]),
        doc["n_inter"],
        doc.get("topology", "explicit"),
    )
    catalog = DrugCatalog(
        tuple(doc["drugs"]),
        tuple(doc["marginals"]),
        np.asarray(doc["correlation"], dtype=float),
    )
    cfg = doc["config"]
    config = InstanceConfig(
        n_dispensers=cfg["n_dispensers"],
        d_max=cfg.get("d_max", 4),
        m_max=cfg["m_max"],
        n_movers=cfg["n_movers"],
        eta_interface=cfg.get("eta_interface", 2),
        dispensing_speed=cfg.get("dispensing_speed", 100),
        seed=cfg["seed"],
    )
    return layout, catalog, config


def orders_to_csv(orders: Iterable[Order]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["order_id", "drug", "duration_ticks"])
    for o in orders:
        for g, d in o.items:
            writer.writerow([o.id, g, d])
    return out.getvalue()


def orders_from_csv(text: str) -> list[Order]:
    rows: dict[int, list[tuple[str, int]]] = {}
    for rec in csv.DictReader(io.StringIO(text)):
        rows.setdefault(int(rec["order_id"]), []).append(
            (rec["drug"], int(rec["duration_ticks"]))
        )
    return [Order(oid, tuple(items)) for oid, items in sorted(rows.items())]
