"""End-to-end orchestration: orders -> pack -> place -> schedule -> route.

All randomness flows from one master seed through named substreams (ordergen,
ga, lns, batch); the derived seeds are logged in the run report so any stage
can be reproduced in isolation.  Order sets larger than the batch threshold
are split into random batches, scheduled independently and stitched by the
routing module's DAG merge.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ordergen, packing, placement as placement_mod, routing, scheduling
from .core import DrugCatalog, InstanceConfig, Layout, orders_to_csv
from .placement import GaParams, Placement
from .render import render_gantt, render_layout

BATCH_THRESHOLD = 150
_str = json.encoder.encode_basestring_ascii  # json.dumps's string escaping (ensure_ascii)


@dataclass
class PipelineConfig:
    layout: Layout
    catalog: DrugCatalog
    config: InstanceConfig
    n_orders: int = 20
    size_range: tuple[int, int] = (3, 8)
    duration_rule: str = "fixed"
    ga: GaParams = field(default_factory=lambda: GaParams(population=30, max_evaluations=600, episodes=10))
    schedule_time_limit: float | None = 30.0
    schedule_iterations: int | None = None
    batch_size: int | None = None  # default: unbatched below BATCH_THRESHOLD
    stages: tuple[str, ...] = ("gen-orders", "pack", "place", "lower-bound", "schedule", "route")
    out_dir: Path | None = None


def _substream(master: int, name: str) -> int:
    names = {"ordergen": 1, "ga": 2, "lns": 3, "batch": 5}
    return int(np.random.SeedSequence(master, spawn_key=(names[name],)).generate_state(1)[0])


@dataclass
class RunReport:
    seeds: dict
    stage_values: dict
    wall_times: dict
    exactness: dict

    @property
    def overhead_pct(self):
        pre = self.stage_values.get("makespan_scheduled")
        post = self.stage_values.get("makespan_routed")
        if pre is None or post is None or pre == 0:
            return None
        return 100.0 * (post - pre) / pre

    def to_json(self) -> str:
        values = dict(self.stage_values)
        if self.overhead_pct is not None:
            values["routing_overhead_pct"] = self.overhead_pct
        doc = {
            "seeds": self.seeds,
            "stage_values": values,
            "wall_times_s": {k: round(v, 4) for k, v in self.wall_times.items()},
            "exactness": self.exactness,
        }
        return json.dumps(doc, indent=2)


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def schedule_batched(orders, placed: Placement, cfg: InstanceConfig, batch_size: int,
                     seed: int, time_limit=None, iterations=None, t_values=None):
    """Random partition into batches, independent schedules, DAG merge.

    t_values: per-order path times of a lower_bound over these orders (the
    pipeline's lower-bound stage); batch warm starts reuse them instead of
    solving κ again.  The caller routes the merged schedule
    (resolve_conflicts) afterwards.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    orders = list(orders)
    rng = random.Random(seed)
    shuffled = list(orders)
    rng.shuffle(shuffled)
    batches = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    per_batch_limit = None if time_limit is None else time_limit / len(batches)
    schedules = []
    for bi, batch in enumerate(batches):
        lb = scheduling.lower_bound(
            batch, placed, cfg.n_movers, cfg.eta_interface, t_values=t_values
        )
        schedules.append(
            scheduling.schedule(
                batch,
                placed,
                cfg.n_movers,
                time_limit=per_batch_limit,
                warm_start=lb.assignment,
                seed=seed + bi,
                eta=cfg.eta_interface,
                max_iterations=iterations,
            )
        )
    merged = routing.merge_batches(schedules, placed, n_movers=cfg.n_movers)
    return merged, schedules


def run_pipeline(pc: PipelineConfig, orders=None, packed=None, placed=None) -> RunReport:
    """Execute the enabled stages; returns the report and writes artifacts."""
    master = pc.config.seed
    seeds = {name: _substream(master, name) for name in ("ordergen", "ga", "lns", "batch")}
    values: dict = {}
    times: dict = {}
    exact: dict = {}
    out = Path(pc.out_dir) if pc.out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    artifacts = 0.0  # seconds spent encoding and writing files

    def save(name, render):
        nonlocal artifacts
        if out:
            t0 = time.perf_counter()
            (out / name).write_text(render())
            artifacts += time.perf_counter() - t0

    stages = set(pc.stages)

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # noqa: BLE001 - stage-tagged diagnostics
            raise StageError(name, e) from e
        times[name] = time.perf_counter() - t0
        return result

    if "gen-orders" in stages:
        def gen():
            return ordergen.sample_orders(
                pc.catalog,
                pc.n_orders,
                pc.size_range,
                duration_rule=pc.duration_rule,
                seed=seeds["ordergen"],
                dispensing_speed=pc.config.dispensing_speed,
            )

        orders = run_stage("gen-orders", gen).orders
        save("orders.csv", lambda: orders_to_csv(orders))
    if orders is None:
        raise StageError("gen-orders", "no orders provided and stage disabled")
    values["n_orders"] = len(orders)

    demand = ordergen.estimate_demand(orders)

    if "pack" in stages and packed is None:
        def pack():
            stage1 = packing.pack_min_load(
                demand, pc.layout.n_tiles, pc.config, drugs=pc.catalog.drugs
            )
            stage2 = packing.pack_correlation(stage1, pc.catalog, pc.config)
            return stage1, stage2

        stage1, packed = run_stage("pack", pack)
        values["mu_max"] = packed.mu_max
        values["packing_lower_bound"] = packed.lower_bound
        values["correlation_objective"] = packed.correlation_objective
        values["correlation_baseline"] = packing.correlation_sum(stage1.tiles, pc.catalog)
        exact["packing"] = stage1.exact
        save("packing.json", lambda: packing_to_json(packed))

    if "place" in stages and placed is None:
        if packed is None:
            raise StageError("place", "no packing available")

        def place():
            return placement_mod.ga_place(packed, pc.layout, orders, pc.ga, seeds["ga"])

        ga_result = run_stage("place", place)
        placed = ga_result.placement
        values["placement_fitness"] = ga_result.best_fitness
        save("placement.json", placed.to_json)
        save("placement_trace.csv", lambda: placement_mod.trace_to_csv(ga_result.trace))
        save("layout.svg", lambda: render_layout(placed))
    if placed is None and (stages & {"lower-bound", "schedule", "route"}):
        raise StageError("place", "no placement available")
    if placed is not None:
        # κ once per distinct drug set, for the analytical score and the lower bound
        t0 = time.perf_counter()
        try:
            kappas = placement_mod.per_order_kappa(placed, orders)
        except ValueError as e:  # the placement does not serve these orders
            raise StageError("place", e) from e
        times["kappa"] = time.perf_counter() - t0
        values["placement_analytical"] = sum(kappas) / len(kappas) if kappas else 0.0

    lb = None
    if "lower-bound" in stages:
        eta = pc.config.eta_interface

        def bound():
            t_values = {o.id: 2 * eta + k + o.total_dispensing for o, k in zip(orders, kappas)}
            return scheduling.lower_bound(
                orders, placed, pc.config.n_movers, eta, t_values=t_values
            )

        lb = run_stage("lower-bound", bound)
        values["lower_bound"] = lb.value
        exact["lower_bound"] = lb.exact

    sched = None
    if "schedule" in stages:
        def do_schedule():
            threshold = pc.batch_size or BATCH_THRESHOLD
            if len(orders) > threshold:
                merged, _parts = schedule_batched(
                    orders,
                    placed,
                    pc.config,
                    pc.batch_size or BATCH_THRESHOLD,
                    seeds["batch"],
                    time_limit=pc.schedule_time_limit,
                    iterations=pc.schedule_iterations,
                    t_values=lb.t_values if lb else None,
                )
                return merged
            warm = lb.assignment if lb else None
            return scheduling.schedule(
                orders,
                placed,
                pc.config.n_movers,
                time_limit=pc.schedule_time_limit,
                warm_start=warm,
                seed=seeds["lns"],
                eta=pc.config.eta_interface,
                max_iterations=pc.schedule_iterations,
            )

        sched = run_stage("schedule", do_schedule)
        values["makespan_scheduled"] = sched.makespan
        values["greedy_route_orders"] = scheduling.greedy_route_orders(orders, placed)
        save("schedule.json", sched.to_json)
        save("schedule.csv", sched.to_csv)
        save("gantt.svg", lambda: render_gantt(sched))

    if "route" in stages:
        if sched is None:
            raise StageError("route", "no schedule available")

        def do_route():
            return routing.route_schedule(sched, placed)

        plan = run_stage("route", do_route)
        values["makespan_routed"] = plan.makespan
        values["routing_iterations"] = plan.iterations
        values["routing_interruption_ticks"] = sum(plan.interruptions.values())
        values["routing_exclusivity_repairs"] = plan.exclusivity_repairs
        values["resting_sites"] = len(plan.sites.sites)
        exact["resting_sites"] = plan.sites.exact
        save("routed.json", lambda: plan_to_json(plan))
        save("paths.csv", lambda: paths_to_csv(plan))
        save(
            "gantt_routed.svg",
            lambda: render_gantt(
                plan.schedule, interruptions=plan.interruptions, transits=plan.transits
            ),
        )
        save("layout_sites.svg", lambda: render_layout(placed, sites=plan.sites.sites))

    times["artifacts"] = artifacts
    report = RunReport(seeds, values, times, exact)
    save("report.json", report.to_json)
    return report


def packing_to_json(p: packing.Packing) -> str:
    return json.dumps(
        {
            "tiles": [list(t) for t in p.tiles],
            "z": p.z,
            "pi": p.pi,
            "mu": list(p.mu),
            "mu_max": p.mu_max,
            "lower_bound": p.lower_bound,
            "exact": p.exact,
            "n_tiles_available": p.n_tiles_available,
            "correlation_objective": p.correlation_objective,
        },
        indent=2,
    )


def packing_from_json(text: str) -> packing.Packing:
    doc = json.loads(text)
    return packing.Packing(
        tuple(tuple(t) for t in doc["tiles"]),
        {k: int(v) for k, v in doc["z"].items()},
        {k: float(v) for k, v in doc["pi"].items()},
        tuple(doc["mu"]),
        doc["mu_max"],
        doc["lower_bound"],
        doc["exact"],
        doc["n_tiles_available"],
        doc.get("correlation_objective"),
    )


def plan_to_json(plan: routing.RoutedPlan) -> str:
    """routed.json, byte-equal to json.dumps(doc, indent=2) and written directly
    like Schedule.to_json; the schedule nests one level deep."""

    def pair(site):  # a site's [[x, y], [x, y]], as the value of a key 6 spaces deep
        a, b, q = site.tile_a, site.tile_b, " " * 8
        return (f"[\n{q}[\n{q}  {a.x},\n{q}  {a.y}\n{q}],\n"
                f"{q}[\n{q}  {b.x},\n{q}  {b.y}\n{q}]\n      ]")

    def block(brackets, items):  # a top-level list or object
        return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}" if items else brackets

    interruptions = block("{}", [f"    {_str(str(k))}: {v}"
                                 for k, v in plan.interruptions.items() if v])
    sites = block("[]", [f'    {{\n      "tiles": {pair(s)}\n    }}'
                         for s in plan.sites.sites])
    assignments = block("[]", [
        f'    {{\n      "mover": {k[0]},\n      "from_op": {k[1]},\n      "to_op": {k[2]},\n'
        f'      "site": {pair(s)}\n    }}'
        for k, s in sorted(plan.resting_assignment.items())
    ])
    return (
        f'{{\n  "makespan": {plan.makespan},\n  "iterations": {plan.iterations},\n'
        f'  "interruptions": {interruptions},\n  "resting_sites": {sites},\n'
        f'  "assignments": {assignments},\n'
        f'  "schedule": {scheduling.schedule_json(plan.schedule, "  ")}\n}}'
    )


def paths_to_csv(plan: routing.RoutedPlan) -> str:
    """One row per tick a mover holds a cell, by mover, then tick.

    Each run formats its row suffix once; its rows are a join over one shared
    table of tick strings.
    """
    top = max((runs[-1][1] for runs in plan.paths.values() if runs), default=0)
    ticks = list(map(str, range(top)))
    parts = ["tick,mover,x,y,state\n"]
    for m in sorted(plan.paths):
        for t0, t1, (x, y, state) in plan.paths[m]:
            row = f",{m},{x:g},{y:g},{state}\n"
            parts.append(row.join(ticks[t0:t1]))
            parts.append(row)
    return "".join(parts)
