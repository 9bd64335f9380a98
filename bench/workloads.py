"""Seeded workload inputs for the planning benchmark.

Every input is derived from the workload seed passed on the command line; the
program only ever sees the generated layouts, catalogs, orders and
placements.  The helpers below mirror the fixtures of the test suite
(``make_catalog`` and the 8x8~2 reference instance) so the benchmark does
not import from ``tests/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from planarfab.core import DrugCatalog, InstanceConfig, build_layout
from planarfab.ordergen import estimate_demand, sample_orders
from planarfab.packing import pack_min_load
from planarfab.pipeline import PipelineConfig
from planarfab.placement import _EMPTY, _IFACE, GaParams, Placement, _decode


@dataclass
class Instance:
    """One plan request: a pipeline configuration plus its pre-built inputs."""

    name: str
    pc: PipelineConfig
    orders: list | None = None
    placed: Placement | None = None
    packed: object = None  # set-up packing, validated alongside the plan
    demand: object = None

    @property
    def n_orders(self) -> int:
        return len(self.orders) if self.orders is not None else self.pc.n_orders


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (workload, instance seed, output dir) -> Instance
    instances: int  # distinct instances per run
    lns_iterations: int | None = None  # LNS budget of every schedule call
    ga_evaluations: int | None = None  # GA budget of every place stage

    def build(self, seed: int, out_root: Path) -> list[Instance]:
        rng = random.Random(f"{self.name}/{seed}")
        return [
            self.make(self, rng.randrange(2**31), out_root / self.name / str(i))
            for i in range(self.instances)
        ]


# --- fixture equivalents ----------------------------------------------------------

def make_catalog(n_drugs, seed=0, corr_scale=0.25, marg_range=(0.2, 0.6)) -> DrugCatalog:
    rng = np.random.default_rng(seed)
    corr = np.zeros((n_drugs, n_drugs))
    for i in range(n_drugs):
        for j in range(i + 1, n_drugs):
            corr[i, j] = corr[j, i] = rng.uniform(-corr_scale, corr_scale)
    marg = rng.uniform(*marg_range, n_drugs)
    return DrugCatalog(tuple(f"drug{i:02d}" for i in range(n_drugs)), tuple(marg), corr)


def reference_catalog() -> DrugCatalog:
    """The 40-drug catalog of the 8x8~2 reference instance."""
    return make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))


def reference_config(seed: int, movers: int) -> InstanceConfig:
    return InstanceConfig(
        n_dispensers=82, m_max=12, n_movers=movers, dispensing_speed=100, seed=seed
    )


def shuffled_8x8(seed: int, n_orders: int, movers: int, sizes):
    """8x8~2 grid, 40 drugs, 82 dispensers; packed tiles placed by a seeded shuffle."""
    layout = build_layout("square", (8, 8), 2)
    catalog = reference_catalog()
    config = reference_config(seed, movers)
    oset = sample_orders(catalog, n_orders, sizes, seed=seed, dispensing_speed=100)
    demand = estimate_demand(oset.orders)
    packed = pack_min_load(
        demand, layout.n_tiles, config, drugs=catalog.drugs, mode="heuristic",
        seed=seed, restarts=3,
    )
    used = [tuple(t) for t in packed.tiles]
    contents = used + [_IFACE] * 2 + [_EMPTY] * (64 - len(used) - 2)
    perm = list(range(len(contents)))
    random.Random(seed).shuffle(perm)
    placed = _decode(perm, contents, sorted(layout.tiles), layout)
    return layout, catalog, config, list(oset.orders), placed, packed, demand


# --- per-workload builders --------------------------------------------------------

def _tactical(w: Workload, seed: int, out: Path) -> Instance:
    pc = PipelineConfig(
        layout=build_layout("square", (8, 8), 2),
        catalog=reference_catalog(),
        config=reference_config(seed, 4),
        n_orders=30,
        size_range=(3, 6),
        ga=GaParams(population=30, max_evaluations=w.ga_evaluations, episodes=10),
        schedule_time_limit=None,
        stages=("gen-orders", "pack", "place"),
        out_dir=out,
    )
    return Instance(f"{w.name}/{out.name}", pc)


def _shuffled(n_orders, movers, sizes, batch_size=None):
    def build(w: Workload, seed: int, out: Path) -> Instance:
        layout, catalog, config, orders, placed, packed, demand = shuffled_8x8(
            seed, n_orders, movers, sizes
        )
        pc = PipelineConfig(
            layout=layout,
            catalog=catalog,
            config=config,
            schedule_time_limit=None,
            schedule_iterations=w.lns_iterations,
            batch_size=batch_size,
            stages=("lower-bound", "schedule", "route"),
            out_dir=out,
        )
        return Instance(f"{w.name}/{out.name}", pc, orders, placed, packed, demand)

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tactical-8x8",
            "gen-orders, pack, place on the 8x8~2 reference with 300 GA evaluations: "
            "placement fitness dominates; scheduling and routing never run",
            _tactical, instances=5, ga_evaluations=300,
        ),
        Workload(
            "operational-8x8",
            "30 orders, 4 movers on a shuffled 8x8~2 placement, 2 LNS iterations: "
            "the LNS timing engine dominates; routing is about 1%",
            _shuffled(30, 4, (3, 6)), instances=16, lns_iterations=2,
        ),
        Workload(
            "batched-8x8",
            "100 orders, 8 movers in batches of 25: schedule_batched, merge_batches and "
            "8-mover routing with its tick x mover conflict loop",
            _shuffled(100, 8, (3, 6), batch_size=25), instances=3, lns_iterations=1,
        ),
    )
}
