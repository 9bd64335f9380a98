import numpy as np
import pytest

from planarfab.core import Coord, DrugCatalog, Order, build_layout
from planarfab.placement import Placement


@pytest.fixture
def golden_placement():
    """4x4 square with 2 interfaces; 18 drugs over 14 tiles (two ATORVASTATIN
    alternatives), the reference configuration used across the docs."""
    layout = build_layout("square", (4, 4), 2)
    drug_tiles = {
        Coord(1, 4): ("OMEPRAZOLE",),
        Coord(1, 3): ("LEVOTHYROXINE",),
        Coord(1, 2): ("LOVASTATIN",),
        Coord(1, 1): ("VALSARTAN",),
        Coord(2, 4): ("METFORMIN", "GLIPIZIDE", "PRAVASTATIN"),
        Coord(2, 3): ("LISINOPRIL",),
        Coord(2, 2): ("SIMVASTATIN",),
        Coord(3, 4): ("METOPROLOL", "CLOPIDOGREL"),
        Coord(3, 2): ("HYDROCHLOROTHIAZIDE",),
        Coord(3, 1): ("LOSARTAN", "AMLODIPINE", "ATORVASTATIN"),
        Coord(4, 4): ("WARFARIN",),
        Coord(4, 3): ("ATORVASTATIN",),
        Coord(4, 2): ("ATENOLOL",),
        Coord(4, 1): ("FUROSEMIDE",),
    }
    return Placement(layout, drug_tiles, frozenset({Coord(2, 1), Coord(3, 3)}))


@pytest.fixture
def golden_orders():
    return [
        Order(1, (("ATORVASTATIN", 5), ("HYDROCHLOROTHIAZIDE", 5))),
        Order(2, (("OMEPRAZOLE", 5),)),
        Order(3, (("LISINOPRIL", 5), ("SIMVASTATIN", 5))),
    ]


def make_catalog(n_drugs, seed=0, corr_scale=0.25, marg_range=(0.2, 0.6)):
    rng = np.random.default_rng(seed)
    corr = np.zeros((n_drugs, n_drugs))
    for i in range(n_drugs):
        for j in range(i + 1, n_drugs):
            corr[i, j] = corr[j, i] = rng.uniform(-corr_scale, corr_scale)
    marg = rng.uniform(*marg_range, n_drugs)
    return DrugCatalog(
        tuple(f"drug{i:02d}" for i in range(n_drugs)), tuple(marg), corr
    )


def random_placement(layout, drugs, seed=0, max_alternatives=2, interfaces=None):
    """Scatter each drug onto 1..max_alternatives distinct tiles."""
    import random

    rng = random.Random(seed)
    coords = sorted(layout.tiles)
    rng.shuffle(coords)
    n_if = layout.n_inter
    iface = frozenset(interfaces) if interfaces else frozenset(coords[:n_if])
    rest = [c for c in coords if c not in iface]
    tiles: dict[Coord, list] = {}
    for g in drugs:
        for t in rng.sample(rest, rng.randint(1, max_alternatives)):
            tiles.setdefault(t, [])
            if g not in tiles[t]:
                tiles[t].append(g)
    return Placement(layout, {k: tuple(v) for k, v in tiles.items()}, iface)


def random_orders(drugs, n_orders, seed=0, size_range=(1, 3), dur_range=(3, 12)):
    import random

    rng = random.Random(seed)
    orders = []
    for i in range(n_orders):
        k = rng.randint(*size_range)
        chosen = rng.sample(list(drugs), min(k, len(drugs)))
        orders.append(Order(i, tuple((g, rng.randint(*dur_range)) for g in chosen)))
    return orders


def tick_list(runs, length=None):
    """Expand a mover's runs (t0, t1, cell) to one cell or None per tick of
    [0, length); length defaults to the end of the last run."""
    if length is None:
        length = runs[-1][1] if runs else 0
    pos = [None] * length
    for t0, t1, cell in runs:
        pos[t0:t1] = [cell] * (t1 - t0)
    return pos
