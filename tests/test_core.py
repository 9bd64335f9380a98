import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planarfab.core import (
    Coord,
    DrugCatalog,
    InstanceConfig,
    Layout,
    Order,
    build_layout,
    instance_from_json,
    instance_to_json,
    manhattan,
    orders_from_csv,
    orders_to_csv,
    validate_instance,
)

coords = st.builds(Coord, st.integers(1, 40), st.integers(1, 40))


@given(coords, coords)
def test_manhattan_symmetry_nonnegative(a, b):
    assert manhattan(a, b) == manhattan(b, a) >= 0
    assert (manhattan(a, b) == 0) == (a == b)


@given(coords, coords, coords)
def test_manhattan_triangle(a, b, c):
    assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)


@given(st.integers(2, 30))
def test_line_and_doubleline_counts(n):
    assert len(build_layout("line", n, 1).tiles) == n
    assert len(build_layout("doubleline", n, 1).tiles) == 2 * n


@given(st.integers(3, 15))
def test_ring_count(s):
    assert len(build_layout("ring", s, 2).tiles) == 4 * (s - 1)


@given(st.integers(1, 9), st.integers(1, 9))
def test_square_count(r, c):
    assert len(build_layout("square", (r, c), 0).tiles) == r * c


def test_paper_layout_examples():
    line = build_layout("line", 25, 1)
    assert line.tiles == frozenset(Coord(1, j) for j in range(1, 26))
    assert line.n_inter == 1

    square = build_layout("square", (8, 8), 4)
    assert len(square.tiles) == 64

    ring = build_layout("ring", 17, 4)
    assert len(ring.tiles) == 64
    expected = {
        Coord(i, j)
        for i in range(1, 18)
        for j in range(1, 18)
        if not (2 <= i <= 16 and 2 <= j <= 16)
    }
    assert ring.tiles == frozenset(expected)


def test_build_layout_errors():
    with pytest.raises(ValueError, match="unknown topology 'hexagon'"):
        build_layout("hexagon", 5, 1)
    with pytest.raises(ValueError, match="ring side must be at least 3"):
        build_layout("ring", 2, 1)
    with pytest.raises(ValueError, match="n_inter=4 out of range for 3 tiles"):
        build_layout("line", 3, 4)
    # a size below 1 is blamed on the size, not on the interfaces
    with pytest.raises(ValueError, match="line length must be at least 1, got -2"):
        build_layout("line", -2, 2)
    with pytest.raises(ValueError, match="doubleline length must be at least 1, got 0"):
        build_layout("doubleline", 0, 1)
    with pytest.raises(ValueError, match="square sides must be at least 1, got 0x4"):
        build_layout("square", (0, 4), 1)
    with pytest.raises(ValueError, match="square sides must be at least 1, got -1x-1"):
        build_layout("square", -1, 0)
    with pytest.raises(ValueError, match="layout needs at least one tile"):
        Layout(frozenset(), 2)


def test_ring_distance_wraps_around_hole():
    ring = build_layout("ring", 5, 0)
    # opposite corners: l1 would cut the hole
    assert manhattan(Coord(1, 3), Coord(5, 3)) == 4
    assert ring.distance(Coord(1, 3), Coord(5, 3)) == 8


def test_shortest_path_is_staircase_on_square():
    sq = build_layout("square", (4, 4), 0)
    path = sq.shortest_path(Coord(1, 1), Coord(3, 2))
    assert path == [Coord(1, 1), Coord(2, 1), Coord(3, 1), Coord(3, 2)]


def test_shortest_path_on_ring_stays_on_tiles():
    ring = build_layout("ring", 5, 0)
    path = ring.shortest_path(Coord(1, 3), Coord(5, 3))
    assert len(path) - 1 == ring.distance(Coord(1, 3), Coord(5, 3))
    assert all(p in ring.tiles for p in path)
    for a, b in zip(path, path[1:]):
        assert manhattan(a, b) == 1


def ref_bfs_path(layout: Layout, a: Coord, b: Coord) -> list[Coord]:
    """A shortest path by BFS over sorted neighbours, the reference that
    ``shortest_path``'s walk on the distance table is pinned to."""
    if a == b:
        return [a]
    prev: dict[Coord, Coord] = {a: a}
    queue = deque([a])
    while queue:
        c = queue.popleft()
        if c == b:
            break
        for n in sorted(layout.neighbors(c)):
            if n not in prev:
                prev[n] = c
                queue.append(n)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _random_connected_tiles(rng, n, side):
    """n tiles grown from (1, 1) inside a side x side box, one random
    neighbour of a random tile at a time: connected, often with holes."""
    tiles = [(1, 1)]
    seen = set(tiles)
    while len(tiles) < n:
        x, y = rng.choice(tiles)
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        t = (x + dx, y + dy)
        if 1 <= t[0] <= side and 1 <= t[1] <= side and t not in seen:
            seen.add(t)
            tiles.append(t)
    return tiles


def test_shortest_path_matches_bfs_reference_on_every_pair():
    rng = random.Random(3)
    layouts = [build_layout("ring", s, 0) for s in (5, 9, 17)] + [
        build_layout("explicit", _random_connected_tiles(rng, 40, 9), 0) for _ in range(3)
    ]
    walked = 0
    for layout in layouts:
        tiles = layout.sorted_tiles()
        for a in tiles:
            for b in tiles:
                path = layout.shortest_path(a, b)
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 == layout.distance(a, b)
                assert all(manhattan(p, q) == 1 and q in layout.tiles for p, q in zip(path, path[1:]))
                staircase = [Coord(x, a.y) for x in range(a.x, b.x, 1 if b.x > a.x else -1)] + [
                    Coord(b.x, y) for y in range(a.y, b.y, 1 if b.y > a.y else -1)
                ] + [b]
                if all(c in layout.tiles for c in staircase) and len(staircase) == len(path):
                    assert path == staircase
                else:
                    assert path == ref_bfs_path(layout, a, b)
                    walked += 1
    assert walked > 1000


def test_distance_matrix_trivial_and_fig6(golden_placement):
    layout = golden_placement.layout
    coords = golden_placement.coords()
    dm = layout.distances(coords)
    a, b = coords.index(Coord(2, 1)), coords.index(Coord(3, 3))
    assert dm.dtype == np.int64 and dm.shape == (len(coords), len(coords))
    assert dm[a, a] == 0
    assert dm[a, b] == 3
    assert np.all(dm == dm.T)
    assert np.all(np.diag(dm) == 0)
    d = layout.distance(Coord(2, 1), Coord(3, 3))
    assert d == 3 and type(d) is int
    # rectangular blocks, repeated tiles
    block = layout.distances([Coord(2, 1), Coord(2, 1)], [Coord(3, 3), Coord(1, 1)])
    assert block.tolist() == [[3, 1], [3, 1]]


def _bfs_reference(layout):
    """Graph distances by plain BFS over 4-neighbors, keyed by tile pair."""
    out = {}
    for src in layout.tiles:
        dist, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for c in frontier:
                for n in layout.neighbors(c):
                    if n not in dist:
                        dist[n] = dist[c] + 1
                        nxt.append(n)
            frontier = nxt
        out.update({(src, t): v for t, v in dist.items()})
    return out


def test_distance_matrix_matches_manhattan(golden_placement):
    dm = golden_placement.layout.distances(golden_placement.coords())
    for i, a in enumerate(golden_placement.coords()):
        for j, b in enumerate(golden_placement.coords()):
            assert dm[i, j] == manhattan(a, b)
    # every table equals BFS graph distances; on the ring it departs from l1
    for layout in (build_layout("square", (3, 5), 0), build_layout("ring", 5, 2),
                   build_layout("doubleline", 4, 1),
                   build_layout("explicit", [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3)], 0)):
        tiles = layout.sorted_tiles()
        table = layout.distances(tiles)
        want = _bfs_reference(layout)
        assert table.tolist() == [[want[(a, b)] for b in tiles] for a in tiles]
        if layout.topology != "ring":
            continue
        l1 = np.array([[manhattan(a, b) for b in tiles] for a in tiles])
        assert np.any(table != l1)


def test_validate_instance_pigeonhole():
    layout = build_layout("square", (8, 8), 2)
    catalog = DrugCatalog(
        tuple(f"d{i}" for i in range(40)), tuple([0.3] * 40), np.zeros((40, 40))
    )
    short = InstanceConfig(n_dispensers=39, m_max=12, n_movers=8, seed=0)
    report = validate_instance(layout, catalog, short)
    assert any("insufficient dispensers" in v for v in report)

    # the reference configuration: 82 dispensers on an 8x8 grid, 40 drugs
    ok = InstanceConfig(n_dispensers=82, m_max=12, n_movers=8, seed=0)
    assert validate_instance(layout, catalog, ok) == []


def test_validate_instance_dmax_guard():
    layout = build_layout("line", 4, 1)
    catalog = DrugCatalog(
        tuple(f"d{i}" for i in range(9)), tuple([0.5] * 9), np.zeros((9, 9))
    )
    cfg = InstanceConfig(n_dispensers=9, m_max=3, n_movers=1, d_max=2, seed=0)
    report = validate_instance(layout, catalog, cfg)
    assert any("coverage impossible" in v for v in report)


def test_config_invariants():
    with pytest.raises(ValueError):
        InstanceConfig(n_dispensers=5, m_max=2, n_movers=3, seed=0)
    with pytest.raises(ValueError):
        InstanceConfig(n_dispensers=5, m_max=5, n_movers=2, d_max=0, seed=0)
    with pytest.raises(ValueError):
        InstanceConfig(n_dispensers=5, m_max=5, n_movers=2, eta_interface=0, seed=0)


def test_order_invariants():
    with pytest.raises(ValueError):
        Order(1, (("a", 5), ("a", 3)))
    with pytest.raises(ValueError):
        Order(1, ())
    with pytest.raises(ValueError):
        Order(1, (("a", 0),))


def test_layout_connectivity_required():
    with pytest.raises(ValueError):
        Layout(frozenset({Coord(1, 1), Coord(3, 3)}), 0)


def test_instance_json_roundtrip():
    layout = build_layout("ring", 5, 2)
    catalog = DrugCatalog(("a", "b"), (0.4, 0.7), np.array([[0.0, 0.1], [0.1, 0.0]]))
    config = InstanceConfig(n_dispensers=4, m_max=3, n_movers=2, seed=42)
    text = instance_to_json(layout, catalog, config)
    l2, c2, cfg2 = instance_from_json(text)
    assert l2.tiles == layout.tiles and l2.n_inter == layout.n_inter
    assert c2.drugs == catalog.drugs and c2.marginals == catalog.marginals
    assert np.allclose(c2.correlation, catalog.correlation)
    assert cfg2 == config


def test_orders_csv_roundtrip():
    orders = [Order(0, (("a", 5), ("b", 7))), Order(3, (("c", 1),))]
    assert orders_from_csv(orders_to_csv(orders)) == orders


def test_catalog_validation():
    with pytest.raises(ValueError):
        DrugCatalog(("a", "a"), (0.5, 0.5), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DrugCatalog(("a", "b"), (0.5, 1.5), np.zeros((2, 2)))
    bad = np.array([[0.0, 0.2], [0.3, 0.0]])
    with pytest.raises(ValueError):
        DrugCatalog(("a", "b"), (0.5, 0.5), bad)
