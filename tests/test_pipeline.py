import dataclasses
import json

import pytest

from planarfab.core import InstanceConfig, build_layout
from planarfab.packing import Packing
from planarfab.pipeline import (
    PipelineConfig,
    RunReport,
    StageError,
    packing_from_json,
    packing_to_json,
    run_pipeline,
    schedule_batched,
)
from planarfab.placement import GaParams
from planarfab.routing import resolve_conflicts, validate_plan
from planarfab import shppn
from planarfab.scheduling import SchedulingInstance, lower_bound, validate_schedule

from conftest import make_catalog, random_orders, random_placement, tick_list


def small_config(seed=5):
    layout = build_layout("square", (4, 4), 2)
    catalog = make_catalog(5, seed=3, marg_range=(0.3, 0.7))
    config = InstanceConfig(
        n_dispensers=10, m_max=4, n_movers=2, dispensing_speed=8, seed=seed
    )
    return PipelineConfig(
        layout=layout,
        catalog=catalog,
        config=config,
        n_orders=6,
        size_range=(1, 3),
        ga=GaParams(population=6, max_evaluations=40, episodes=3),
        schedule_time_limit=None,
        schedule_iterations=10,
    )


def test_run_pipeline_produces_consistent_report(tmp_path, golden_placement, golden_orders):
    for side in (4, 8):  # 8x8: the site selection is certified on a full-size grid too
        pc = small_config()
        pc.layout = build_layout("square", (side, side), 2)
        out = pc.out_dir = tmp_path / f"square{side}"
        report = run_pipeline(pc)
        v = report.stage_values
        assert v["lower_bound"] <= v["makespan_scheduled"] <= v["makespan_routed"]
        assert report.overhead_pct == pytest.approx(
            100.0 * (v["makespan_routed"] - v["makespan_scheduled"]) / v["makespan_scheduled"]
        )
        assert set(report.seeds) == {"ordergen", "ga", "lns", "batch"}
        assert v["correlation_objective"] >= v["correlation_baseline"] - 1e-9
        # report file carries the recomputable overhead
        doc = json.loads((out / "report.json").read_text())
        assert doc["stage_values"]["routing_overhead_pct"] == pytest.approx(report.overhead_pct)
        routed = json.loads((out / "routed.json").read_text())
        assert v["routing_iterations"] == routed["iterations"]
        assert v["routing_interruption_ticks"] == sum(routed["interruptions"].values())
        assert isinstance(v["routing_exclusivity_repairs"], int) and v["routing_exclusivity_repairs"] >= 0
        assert doc["exactness"]["resting_sites"] is True
        assert v["resting_sites"] == len(routed["resting_sites"])
        # orders of at most 3 drugs: every insertion candidate is ranked exactly
        assert v["greedy_route_orders"] == doc["stage_values"]["greedy_route_orders"] == 0

    # most orders of 3-6 drugs on the 8x8~2 reference outgrow the exact
    # ranking; the golden 4x4 orders do not
    from test_acceptance import build_8x8_instance

    ref_placement, ref_orders, _ = build_8x8_instance(3, 12, movers=2)
    for placed, orders, greedy in ((ref_placement, ref_orders, True),
                                   (golden_placement, golden_orders, False)):
        pc = small_config()
        pc.layout = placed.layout
        pc.stages = ("schedule",)
        v = run_pipeline(pc, orders=orders, placed=placed).stage_values
        assert (v["greedy_route_orders"] > 0) == greedy


def test_report_wall_times_cover_kappa_and_artifacts(tmp_path):
    import time

    pc = small_config()
    pc.out_dir = tmp_path
    t0 = time.perf_counter()
    report = run_pipeline(pc)
    elapsed = time.perf_counter() - t0
    stages = ("gen-orders", "pack", "place", "kappa", "lower-bound", "schedule", "route", "artifacts")
    assert list(report.wall_times) == list(stages)
    assert report.wall_times["artifacts"] > 0
    assert sum(report.wall_times.values()) <= elapsed
    doc = json.loads((tmp_path / "report.json").read_text())
    assert list(doc["wall_times_s"]) == list(stages)


def test_report_to_json_leaves_stage_values_unchanged():
    values = {"makespan_scheduled": 200, "makespan_routed": 210}
    report = RunReport({"lns": 1}, values, {"route": 0.5}, {"packing": True})
    text = report.to_json()
    assert report.stage_values == {"makespan_scheduled": 200, "makespan_routed": 210}
    assert report.to_json() == text
    doc = json.loads(text)
    assert doc["stage_values"] == {**values, "routing_overhead_pct": 5.0}
    assert list(doc) == ["seeds", "stage_values", "wall_times_s", "exactness"]


def test_pipeline_golden_fixture_reports_score_4(golden_placement, golden_orders):
    pc = small_config()
    pc.stages = ("lower-bound", "schedule", "route")
    pc.layout = golden_placement.layout
    report = run_pipeline(pc, orders=list(golden_orders), placed=golden_placement)
    assert report.stage_values["placement_analytical"] == pytest.approx(4.0)
    assert "mu_max" not in report.stage_values  # tactical fields absent


def test_pipeline_stage_toggles_schedule_only(golden_placement, golden_orders):
    pc = small_config()
    pc.stages = ("schedule",)
    report = run_pipeline(pc, orders=list(golden_orders), placed=golden_placement)
    assert "makespan_scheduled" in report.stage_values
    assert "makespan_routed" not in report.stage_values
    assert "lower_bound" not in report.stage_values


def test_pipeline_missing_inputs_fail_with_stage_tag():
    pc = small_config()
    pc.stages = ("place",)
    with pytest.raises(StageError) as err:
        run_pipeline(pc, orders=random_orders(["drug00"], 2, seed=1))
    assert err.value.stage == "place"

    pc2 = small_config()
    pc2.stages = ("route",)
    with pytest.raises(StageError):
        run_pipeline(pc2, orders=random_orders(["drug00"], 2, seed=1))


def test_packing_json_roundtrip():
    p = Packing(
        (("a", "b"), ("c",)),
        {"a": 1, "b": 1, "c": 1},
        {"a": 2.0, "b": 3.0, "c": 4.0},
        (5.0, 4.0),
        5.0,
        4.5,
        True,
        4,
        correlation_objective=0.25,
    )
    assert packing_from_json(packing_to_json(p)) == p


@pytest.mark.parametrize(
    "topology,size",
    [("line", 16), ("doubleline", 8), ("ring", 5), ("square", (4, 4))],
)
def test_pipeline_across_topologies(topology, size):
    # 16 tiles each; the ring exercises graph distances and BFS path fallback
    layout = build_layout(topology, size, 2)
    catalog = make_catalog(4, seed=6, marg_range=(0.4, 0.7))
    config = InstanceConfig(
        n_dispensers=8, m_max=4, n_movers=2, dispensing_speed=6, seed=9
    )
    pc = PipelineConfig(
        layout=layout,
        catalog=catalog,
        config=config,
        n_orders=6,
        size_range=(1, 3),
        ga=GaParams(population=6, max_evaluations=36, episodes=3),
        schedule_time_limit=None,
        schedule_iterations=8,
    )
    report = run_pipeline(pc)
    v = report.stage_values
    assert v["lower_bound"] <= v["makespan_scheduled"] <= v["makespan_routed"]
    assert v["routing_iterations"] <= 100


def test_routed_gantt_hatches_the_final_rounds_idle_transits(tmp_path, monkeypatch):
    from planarfab import routing

    calls = []
    route = routing.route_schedule

    def recording_route(sched, placed):
        calls.append((placed, route(sched, placed)))
        return calls[-1][1]

    monkeypatch.setattr(routing, "route_schedule", recording_route)
    pc = small_config()
    pc.n_orders, pc.config = 10, dataclasses.replace(pc.config, n_movers=4)
    pc.out_dir = tmp_path
    run_pipeline(pc)
    ((placed, plan),) = calls
    idle = sum(tr.idle > 0 for tr in plan.transits)
    assert idle > 0
    assert (tmp_path / "gantt_routed.svg").read_text().count('class="transit"') == idle
    # the final round's transits are those of the routed schedule under its pauses
    realized = routing.realize(plan.schedule, placed, plan.interruptions)
    assert list(plan.transits) == routing.extract_transits(realized)


def test_ring_routing_paths_stay_on_tiles():
    layout = build_layout("ring", 5, 2)
    drugs = list("abc")
    pl = random_placement(layout, drugs, seed=4)
    orders = random_orders(drugs, 8, seed=4, size_range=(1, 3), dur_range=(2, 6))
    from planarfab.routing import route_schedule
    from planarfab.scheduling import schedule

    s = schedule(orders, pl, 3, eta=2, seed=4, max_iterations=8)
    plan = route_schedule(s, pl)
    hole = {(float(x), float(y)) for x in range(2, 5) for y in range(2, 5)}
    for runs in plan.paths.values():
        for p in tick_list(runs):
            if p is not None and float(p[0]).is_integer() and float(p[1]).is_integer():
                assert (p[0], p[1]) not in hole, "path cut through the ring hole"
    inst = SchedulingInstance(tuple(orders), pl, 3, 2)
    assert validate_plan(plan, inst) == []


def test_schedule_batched_valid_and_merged(golden_placement):
    drugs = ["LISINOPRIL", "SIMVASTATIN", "OMEPRAZOLE", "ATORVASTATIN"]
    orders = random_orders(drugs, 12, seed=9, size_range=(1, 3), dur_range=(3, 8))
    config = InstanceConfig(n_dispensers=15, m_max=4, n_movers=2, seed=1)
    merged, parts = schedule_batched(
        orders, golden_placement, config, batch_size=4, seed=1, iterations=5
    )
    assert len(parts) == 3
    assert merged.makespan >= max(p.makespan for p in parts)
    plan = resolve_conflicts(merged, golden_placement)
    inst = SchedulingInstance(tuple(sorted(orders, key=lambda o: o.id)), golden_placement, 2, 2)
    assert validate_schedule(merged, inst) == []
    assert plan.makespan >= merged.makespan


@pytest.mark.parametrize("batch_size", [0, -1])
def test_schedule_batched_rejects_batch_size_below_one(golden_placement, batch_size):
    orders = random_orders(["LISINOPRIL", "OMEPRAZOLE"], 4, seed=9, size_range=(1, 2))
    config = InstanceConfig(n_dispensers=15, m_max=4, n_movers=2, seed=1)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        schedule_batched(orders, golden_placement, config, batch_size, seed=1, time_limit=1.0)


def test_schedule_batched_reuses_precomputed_path_times(golden_placement, monkeypatch):
    drugs = ["LISINOPRIL", "SIMVASTATIN", "OMEPRAZOLE", "ATORVASTATIN"]
    orders = random_orders(drugs, 12, seed=9, size_range=(1, 3), dur_range=(3, 8))
    config = InstanceConfig(n_dispensers=15, m_max=4, n_movers=2, seed=1)
    fresh, fresh_parts = schedule_batched(
        orders, golden_placement, config, batch_size=4, seed=1, iterations=5
    )
    lb = lower_bound(orders, golden_placement, 2, eta=2)
    real_kappa, real_batch = shppn.kappa, shppn.kappa_batch

    def no_kappa(*args, **kwargs):
        raise AssertionError("kappa solved again")

    monkeypatch.setattr(shppn, "kappa", no_kappa)
    monkeypatch.setattr(shppn, "kappa_batch", no_kappa)
    reused, reused_parts = schedule_batched(
        orders, golden_placement, config, batch_size=4, seed=1, iterations=5,
        t_values=lb.t_values,
    )
    assert reused.ops == fresh.ops
    assert [p.ops for p in reused_parts] == [p.ops for p in fresh_parts]

    # a pipeline run solves κ once per distinct drug set, for both the
    # analytical score and the lower bound: count the drug sets handed to
    # the batched solver, and any single-order solve besides
    solved = []

    def counting_kappa(order, placement):
        solved.append(order.drugs)
        return real_kappa(order, placement)

    def counting_batch(drug_sets, placement):
        drug_sets = list(drug_sets)
        solved.extend(drug_sets)
        return real_batch(drug_sets, placement)

    monkeypatch.setattr(shppn, "kappa", counting_kappa)
    monkeypatch.setattr(shppn, "kappa_batch", counting_batch)
    pc = small_config()
    pc.stages = ("lower-bound", "schedule")
    pc.layout = golden_placement.layout
    report = run_pipeline(pc, orders=orders, placed=golden_placement)
    assert sorted(solved) == sorted({o.drugs for o in orders})
    assert len({o.drugs for o in orders}) < len(orders)
    assert report.stage_values["lower_bound"] == lb.value
    want = sum(real_kappa(o, golden_placement).kappa for o in orders) / len(orders)
    assert report.stage_values["placement_analytical"] == want


# --- artifact JSON written directly -------------------------------------------------
# Schedule.to_json and plan_to_json write the indent-2 text themselves; the
# documents below are what they used to hand to json.dumps(doc, indent=2).

def schedule_doc(s):
    return {
        "makespan": s.makespan,
        "ops": [
            {
                "op_id": so.op.op_id,
                "order": so.op.order_id,
                "target": so.op.target,
                "kind": so.op.kind,
                "duration": so.op.duration,
                "mover": so.mover,
                "tile": [so.tile.x, so.tile.y],
                "start": so.start,
            }
            for so in sorted(s.ops, key=lambda so: (so.start, so.mover, so.op.op_id))
        ],
    }


def plan_doc(plan):
    return {
        "makespan": plan.makespan,
        "iterations": plan.iterations,
        "interruptions": {str(k): v for k, v in plan.interruptions.items() if v},
        "resting_sites": [
            {"tiles": [[s.tile_a.x, s.tile_a.y], [s.tile_b.x, s.tile_b.y]]}
            for s in plan.sites.sites
        ],
        "assignments": [
            {
                "mover": k[0],
                "from_op": k[1],
                "to_op": k[2],
                "site": [[s.tile_a.x, s.tile_a.y], [s.tile_b.x, s.tile_b.y]],
            }
            for k, s in sorted(plan.resting_assignment.items())
        ],
        "schedule": schedule_doc(plan.schedule),
    }


AWKWARD_NAMES = ['say "hi"', "back\\slash", "tab\tline\nfeed", "nul\x00bell\x07esc\x1b",
                 "émigré", "薬局", "line\u2028sep", "emoji \U0001F48A", "plain", "/slash"]


def random_schedule(rng, n_ops):
    from planarfab.core import Coord
    from planarfab.scheduling import OperationSpec, Schedule, ScheduledOp

    ops = tuple(
        ScheduledOp(
            OperationSpec(i, rng.randint(0, 9), rng.choice(AWKWARD_NAMES + ["interface"]),
                          rng.randint(1, 500), rng.choice(["start", "dispensing", "finish"])),
            rng.randint(0, 11),
            Coord(rng.randint(1, 99), rng.randint(1, 99)),
            rng.randint(0, 10**7),
        )
        for i in range(n_ops)
    )
    return Schedule(ops, rng.randint(0, 10**7))


def test_schedule_json_is_json_dumps_indent_2():
    import random

    from planarfab.scheduling import Schedule

    rng = random.Random(12)
    for n_ops in [0, 1, 2] + [rng.randint(3, 60) for _ in range(40)]:
        s = random_schedule(rng, n_ops)
        text = s.to_json()
        assert text == json.dumps(schedule_doc(s), indent=2)
        assert set(Schedule.from_json(text).ops) == set(s.ops)
    assert Schedule((), 0).to_json() == '{\n  "makespan": 0,\n  "ops": []\n}'


def test_plan_json_is_json_dumps_indent_2():
    import random

    from planarfab.core import Coord
    from planarfab.pipeline import plan_to_json
    from planarfab.routing import RestingSite, RoutedPlan, SiteSelection

    rng = random.Random(13)
    for trial in range(40):
        s = random_schedule(rng, rng.choice([0, 1, rng.randint(2, 30)]))
        ids = [so.op.op_id for so in s.ops] or [0]
        sites = tuple(
            RestingSite(Coord(x, y), Coord(x + 1, y))
            for x, y in {(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))}
        )
        # empty and non-empty ledgers and assignments, zero entries left out
        interruptions = {rng.choice(ids): rng.randint(0, 3) for _ in range(rng.randint(0, 5))}
        assignments = {
            (rng.randint(0, 3), rng.choice(ids), rng.choice(ids)): rng.choice(sites)
            for _ in range(rng.randint(0, 4) if sites else 0)
        }
        plan = RoutedPlan(s, interruptions, {}, assignments, SiteSelection(sites, True),
                          rng.randint(0, 10**6), rng.randint(1, 9))
        assert plan_to_json(plan) == json.dumps(plan_doc(plan), indent=2), trial
    assert json.loads(plan_to_json(plan))["interruptions"] == {
        str(k): v for k, v in interruptions.items() if v}


def test_routed_plan_json_on_a_batched_plan(golden_placement):
    from planarfab.pipeline import plan_to_json
    from planarfab.routing import route_schedule

    orders = random_orders(["LISINOPRIL", "SIMVASTATIN", "OMEPRAZOLE", "ATORVASTATIN"], 12,
                           seed=4, size_range=(1, 3))
    config = InstanceConfig(n_dispensers=15, m_max=4, n_movers=3, seed=1)
    merged, _ = schedule_batched(orders, golden_placement, config, batch_size=4, seed=2,
                                 iterations=3)
    plan = route_schedule(merged, golden_placement)
    assert plan.interruptions and plan.resting_assignment
    assert plan_to_json(plan) == json.dumps(plan_doc(plan), indent=2)


def test_batched_pipeline_artifacts_validate_against_orders_as_written(tmp_path):
    """A batched run's schedule.json, and routed.json with paths.csv, pass the
    validators against orders.csv as written: merged ops carry the ids of
    ``build_operations`` over the orders."""
    from planarfab.core import orders_from_csv
    from planarfab.placement import Placement
    from planarfab.routing import RoutedPlan
    from planarfab.scheduling import Schedule

    pc = small_config()
    pc.n_orders, pc.batch_size = 12, 5
    out = pc.out_dir = tmp_path
    run_pipeline(pc)
    orders = orders_from_csv((out / "orders.csv").read_text())
    placed = Placement.from_json((out / "placement.json").read_text())
    inst = SchedulingInstance(tuple(orders), placed, pc.config.n_movers, pc.config.eta_interface)
    assert validate_schedule(Schedule.from_json((out / "schedule.json").read_text()), inst) == []

    routed = json.loads((out / "routed.json").read_text())
    paths: dict = {}
    for row in (out / "paths.csv").read_text().splitlines()[1:]:
        t, m, x, y, state = row.split(",")
        paths.setdefault(int(m), []).append((int(t), int(t) + 1, (float(x), float(y), state)))
    plan = RoutedPlan(
        Schedule.from_json(json.dumps(routed["schedule"])),
        {int(k): v for k, v in routed["interruptions"].items()},
        paths, {}, None, routed["makespan"], routed["iterations"],
    )
    assert validate_plan(plan, inst) == []


def test_paths_csv_memory_follows_its_rows_not_the_horizon(golden_placement, golden_orders):
    """A plan shifted 10**6 ticks late writes the same rows, shifted, without
    a table of every tick before its first."""
    import tracemalloc

    from planarfab.pipeline import paths_to_csv
    from planarfab.routing import route_schedule
    from planarfab.scheduling import schedule

    off = 10**6
    plan = route_schedule(schedule(golden_orders[:1], golden_placement, 1, eta=2), golden_placement)
    late = dataclasses.replace(plan, paths={
        m: [(t0 + off, t1 + off, cell) for t0, t1, cell in runs] for m, runs in plan.paths.items()
    })
    tracemalloc.start()
    try:
        text = paths_to_csv(late)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    header, *rows = paths_to_csv(plan).splitlines(keepends=True)
    assert len(rows) > 1
    assert text == header + "".join(f"{int(t) + off},{rest}" for t, rest in
                                    (row.split(",", 1) for row in rows))
