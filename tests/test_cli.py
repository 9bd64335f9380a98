import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import planarfab
from planarfab.cli import CONFIG_ERROR, INFEASIBLE, OK, main
from planarfab.core import (
    Coord,
    InstanceConfig,
    Order,
    build_layout,
    instance_to_json,
)
from planarfab.render import render_gantt, render_layout
from planarfab.routing import generate_resting_sites
from planarfab.scheduling import Schedule, schedule

from conftest import make_catalog
from test_placement import line_placement


@pytest.fixture
def instance_file(tmp_path):
    layout = build_layout("square", (4, 4), 2)
    catalog = make_catalog(5, seed=2, marg_range=(0.3, 0.7))
    config = InstanceConfig(
        n_dispensers=10, m_max=4, n_movers=2, dispensing_speed=8, seed=17
    )
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(layout, catalog, config))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_full_cli_chain(tmp_path, instance_file):
    orders = tmp_path / "orders.csv"
    assert run("gen-orders", "--instance", instance_file, "--n", "6",
               "--size-min", "1", "--size-max", "3", "--orders-out", orders) == OK
    packing = tmp_path / "packing.json"
    assert run("pack", "--instance", instance_file, "--orders", orders, "--out", packing) == OK
    placement = tmp_path / "placement.json"
    assert run("place", "--instance", instance_file, "--orders", orders,
               "--packing", packing, "--population", "8", "--max-evaluations", "60",
               "--episodes", "4", "--out", placement,
               "--trace-out", tmp_path / "trace.csv") == OK
    sched = tmp_path / "schedule.json"
    assert run("schedule", "--instance", instance_file, "--orders", orders,
               "--placement", placement, "--iterations", "20", "--warm-start",
               "--out", sched, "--csv-out", tmp_path / "schedule.csv") == OK
    assert run("lower-bound", "--instance", instance_file, "--orders", orders,
               "--placement", placement, "--out", tmp_path / "lb.json") == OK
    routed = tmp_path / "routed.json"
    assert run("route", "--instance", instance_file, "--placement", placement,
               "--schedule", sched, "--out", routed,
               "--paths-csv", tmp_path / "paths.csv") == OK
    assert run("render", "--placement", placement, "--sites",
               "--out", tmp_path / "layout.svg") == OK
    assert run("render", "--schedule", sched, "--out", tmp_path / "gantt.svg") == OK

    lb = json.loads((tmp_path / "lb.json").read_text())
    plan = json.loads(routed.read_text())
    sch = json.loads(sched.read_text())
    assert lb["value"] <= sch["makespan"] <= plan["makespan"]
    paths = (tmp_path / "paths.csv").read_text().splitlines()
    assert paths[0] == "tick,mover,x,y,state"
    states = {ln.split(",")[4] for ln in paths[1:]}
    assert states <= {"move", "dispense", "swap", "rest"}


def test_cli_exit_codes(tmp_path, instance_file):
    # missing file -> config error
    assert run("pack", "--instance", tmp_path / "nope.json",
               "--orders", tmp_path / "nope.csv", "--out", tmp_path / "p.json") == CONFIG_ERROR
    # infeasible generation (size range beyond catalog) -> infeasible
    orders = tmp_path / "orders.csv"
    assert run("gen-orders", "--instance", instance_file, "--n", "3",
               "--size-min", "1", "--size-max", "99", "--orders-out", orders) == INFEASIBLE


def _broken_orders_header(tmp_path, instance_file):
    orders = tmp_path / "orders.csv"
    assert run("gen-orders", "--instance", instance_file, "--n", "3",
               "--size-min", "1", "--size-max", "2", "--orders-out", orders) == OK
    lines = orders.read_text().splitlines()
    orders.write_text("\n".join([lines[0].replace("duration_ticks", "duration")] + lines[1:]))
    return ("pack", "--instance", instance_file, "--orders", orders,
            "--out", tmp_path / "out.json")


def _ops_not_a_list(tmp_path, instance_file):
    placement, sched = _route_inputs(tmp_path, lambda op: None)
    doc = json.loads(sched.read_text())
    sched.write_text(json.dumps({**doc, "ops": {"op": doc["ops"][0]}}))
    return ("route", "--instance", instance_file, "--placement", placement,
            "--schedule", sched, "--out", tmp_path / "out.json")


def _marginals_not_matching_drugs(tmp_path, instance_file):
    doc = json.loads(instance_file.read_text())
    doc["marginals"] = doc["marginals"][:-1]
    instance_file.write_text(json.dumps(doc))
    return ("gen-orders", "--instance", instance_file, "--n", "3",
            "--orders-out", tmp_path / "out.json")


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_broken_orders_header, "cannot read orders"),
        (_ops_not_a_list, "cannot read schedule"),
        (_marginals_not_matching_drugs, "cannot read instance"),
    ],
    ids=["orders-wrong-header", "schedule-ops-not-a-list", "marginals-not-matching-drugs"],
)
def test_cli_malformed_artifacts_are_config_errors(tmp_path, instance_file, capsys,
                                                   make_argv, message):
    argv = make_argv(tmp_path, instance_file)
    capsys.readouterr()
    assert run(*argv) == CONFIG_ERROR
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _route_inputs(tmp_path, edit):
    """A placement and a one-order schedule on the 4x4 instance; edit(op) mutates each op."""
    from planarfab.placement import Placement

    layout = build_layout("square", (4, 4), 2)
    pl = Placement(layout, {Coord(1, 2): ("drug00",)}, frozenset({Coord(1, 1), Coord(4, 4)}))
    doc = json.loads(schedule([Order(0, (("drug00", 3),))], pl, 2, eta=2).to_json())
    for op in doc["ops"]:
        edit(op)
    placement, sched = tmp_path / "placement.json", tmp_path / "schedule.json"
    placement.write_text(pl.to_json())
    sched.write_text(json.dumps(doc))
    return placement, sched


def _tile_order_against_start_order(op):
    """Start and finish (op ids 0 and 2) share their interface tile and start
    tick, the lower id on the higher mover: they overlap on the tile, which
    would give the router's precedence DAG a backward edge."""
    if op["op_id"] == 0:
        op["mover"] = 1
    if op["op_id"] == 2:
        op["start"] = 0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda op: op.update(tile=[9, 9]), "tile (9, 9) is not on the layout"),
        (lambda op: op.update(mover=7), "mover 7 is outside the fleet of 2"),
        (_tile_order_against_start_order, "rule 4: tile (1, 1) ops 0,2 overlap"),
        (lambda op: op["op_id"] == 1 and op.update(op_id=0), "rule 1: op id 0 is used 2 times"),
        (lambda op: op["op_id"] == 2 and op.update(kind="swap"), "op 2 kind 'swap' is unknown"),
    ],
    ids=["tile-off-layout", "mover-outside-fleet", "tile-order-against-start-order",
         "op-id-repeated", "kind-unknown"],
)
@pytest.mark.parametrize("command, flag", [("route", "--schedule"), ("merge", "--schedules")])
def test_cli_route_rejects_schedule_off_layout_or_fleet(tmp_path, instance_file, capsys,
                                                        edit, message, command, flag):
    placement, sched = _route_inputs(tmp_path, edit)
    routed = tmp_path / "routed.json"
    assert run(command, "--instance", instance_file, "--placement", placement,
               flag, sched, "--out", routed) == INFEASIBLE
    assert message in capsys.readouterr().err
    assert not routed.exists()


def test_cli_merge_rejects_an_order_in_two_batches(tmp_path, instance_file, capsys):
    placement, sched = _route_inputs(tmp_path, lambda op: None)
    routed = tmp_path / "routed.json"
    assert run("merge", "--instance", instance_file, "--placement", placement,
               "--schedules", sched, sched, "--out", routed) == INFEASIBLE
    assert "order 0 appears twice in the batches" in capsys.readouterr().err
    assert not routed.exists()


def test_cli_prints_the_first_twenty_schedule_issues_one_per_line(tmp_path, instance_file,
                                                                 capsys):
    placement, sched = _route_inputs(tmp_path, lambda op: op.update(mover=7))
    assert run("merge", "--instance", instance_file, "--placement", placement,
               "--schedules", *[sched] * 8, "--out", tmp_path / "routed.json") == INFEASIBLE
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: the schedule fails its checks:"
    assert lines[1:] == [f"  {sched}: rule 1: op {i % 3} mover 7 is outside the fleet of 2"
                         for i in range(20)] + ["  … and 4 more"]


@pytest.mark.parametrize("duration", [0, -5])
@pytest.mark.parametrize("command, flag", [("route", "--schedule"), ("merge", "--schedules")])
def test_cli_route_rejects_durations_below_one_tick(tmp_path, instance_file, capsys,
                                                    duration, command, flag):
    def edit(op):
        if op["kind"] == "dispensing":
            op["duration"] = duration

    placement, sched = _route_inputs(tmp_path, edit)
    routed = tmp_path / "routed.json"
    assert run(command, "--instance", instance_file, "--placement", placement,
               flag, sched, "--out", routed) == INFEASIBLE
    assert f"duration {duration} is below 1 tick" in capsys.readouterr().err
    assert not routed.exists()


@pytest.mark.parametrize("command, flag", [("route", "--schedule"), ("merge", "--schedules")])
def test_cli_route_accepts_valid_schedule(tmp_path, instance_file, command, flag):
    placement, sched = _route_inputs(tmp_path, lambda op: None)
    assert run(command, "--instance", instance_file, "--placement", placement,
               flag, sched, "--out", tmp_path / "routed.json") == OK


def test_cli_route_writes_routed_json_as_json_dumps(tmp_path, instance_file):
    from planarfab.placement import Placement
    from planarfab.routing import route_schedule

    from conftest import random_orders, random_placement
    from test_pipeline import plan_doc

    drugs = [f"drug0{i}" for i in range(5)]
    pl = random_placement(build_layout("square", (4, 4), 2), drugs, seed=3)
    orders = random_orders(drugs, 8, seed=3, size_range=(1, 3))
    placement, sched = tmp_path / "placement.json", tmp_path / "schedule.json"
    placement.write_text(pl.to_json())
    sched.write_text(schedule(orders, pl, 2, eta=2, max_iterations=5).to_json())
    routed = tmp_path / "routed.json"
    assert run("route", "--instance", instance_file, "--placement", placement,
               "--schedule", sched, "--out", routed) == OK
    plan = route_schedule(Schedule.from_json(sched.read_text()),
                          Placement.from_json(placement.read_text()))
    assert plan.sites.sites and plan.interruptions
    assert routed.read_text() == json.dumps(plan_doc(plan), indent=2)


@pytest.mark.parametrize("command", ["lower-bound", "schedule"])
def test_cli_order_naming_unplaced_drug_is_infeasible(tmp_path, instance_file, capsys, command):
    from planarfab.core import orders_to_csv

    placement, _ = _route_inputs(tmp_path, lambda op: None)
    orders = tmp_path / "orders.csv"
    orders.write_text(orders_to_csv([Order(0, (("drug00", 3), ("drug04", 3)))]))
    out = tmp_path / "out.json"
    assert run(command, "--instance", instance_file, "--orders", orders,
               "--placement", placement, "--out", out) == INFEASIBLE
    assert "no dispenser placed for drug 'drug04'" in capsys.readouterr().err
    assert not out.exists()


def _schedule_inputs(tmp_path):
    """A placement of the instance's five drugs and six orders on the 4x4 layout."""
    from planarfab.core import orders_to_csv

    from conftest import random_orders, random_placement

    drugs = [f"drug0{i}" for i in range(5)]
    pl = random_placement(build_layout("square", (4, 4), 2), drugs, seed=3)
    placement, orders = tmp_path / "placement.json", tmp_path / "orders.csv"
    placement.write_text(pl.to_json())
    orders.write_text(orders_to_csv(random_orders(drugs, 6, seed=3, size_range=(1, 3))))
    return placement, orders


def test_cli_schedule_batches_use_movers_flag(tmp_path, instance_file):
    # the instance has 2 movers; --movers 1 holds for the batched run too
    placement, orders = _schedule_inputs(tmp_path)
    out = tmp_path / "schedule.json"
    assert run("schedule", "--instance", instance_file, "--orders", orders,
               "--placement", placement, "--movers", "1", "--batch-size", "3",
               "--iterations", "5", "--out", out) == OK
    assert {so.mover for so in Schedule.from_json(out.read_text()).ops} == {0}


@pytest.mark.parametrize("batch_size", ["0", "-1"])
@pytest.mark.parametrize("command", ["schedule", "pipeline"])
def test_cli_batch_size_below_one_is_config_error(tmp_path, instance_file, capsys, command,
                                                  batch_size):
    out = tmp_path / "out"
    if command == "schedule":
        placement, orders = _schedule_inputs(tmp_path)
        argv = ("schedule", "--instance", instance_file, "--orders", orders,
                "--placement", placement, "--time-limit", "1", "--out", out)
    else:
        argv = ("pipeline", "--instance", instance_file, "--n-orders", "3",
                "--size-min", "1", "--size-max", "2", "--out-dir", out)
    assert run(*argv, "--batch-size", batch_size) == CONFIG_ERROR
    assert "--batch-size must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("movers", ["0", "-1"])
@pytest.mark.parametrize("command", ["schedule", "lower-bound"])
def test_cli_movers_below_one_is_config_error(tmp_path, instance_file, capsys, command, movers):
    placement, orders = _schedule_inputs(tmp_path)
    out = tmp_path / "out.json"
    assert run(command, "--instance", instance_file, "--orders", orders,
               "--placement", placement, "--movers", movers, "--out", out) == CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == ["error: --movers must be >= 1"]
    assert not out.exists()


def test_cli_seed_env_override(tmp_path, instance_file, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    run("gen-orders", "--instance", instance_file, "--n", "5",
        "--size-min", "1", "--size-max", "3", "--orders-out", a)
    monkeypatch.setenv("PLANARFAB_SEED", "999")
    run("gen-orders", "--instance", instance_file, "--n", "5",
        "--size-min", "1", "--size-max", "3", "--orders-out", b)
    run("gen-orders", "--instance", instance_file, "--n", "5",
        "--size-min", "1", "--size-max", "3", "--orders-out", c)
    assert a.read_text() != b.read_text()
    assert b.read_text() == c.read_text()


def test_cli_bad_seed_env_is_config_error(tmp_path, instance_file):
    src = str(Path(planarfab.__file__).resolve().parent.parent)
    env = dict(os.environ, PLANARFAB_SEED="abc",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "planarfab.cli", "gen-orders", "--instance", str(instance_file),
         "--n", "5", "--orders-out", str(tmp_path / "a.csv")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == CONFIG_ERROR
    assert "PLANARFAB_SEED must be an integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "a.csv").exists()


def test_cli_pipeline_and_report_consistency(tmp_path, instance_file, capsys):
    out_dir = tmp_path / "run"
    assert run("pipeline", "--instance", instance_file, "--n-orders", "5",
               "--size-min", "1", "--size-max", "3", "--population", "6",
               "--max-evaluations", "40", "--episodes", "3",
               "--iterations", "15", "--out-dir", out_dir) == OK
    report = json.loads((out_dir / "report.json").read_text())
    vals = report["stage_values"]
    pre, post = vals["makespan_scheduled"], vals["makespan_routed"]
    assert vals["routing_overhead_pct"] == pytest.approx(100.0 * (post - pre) / pre)
    for f in ["orders.csv", "packing.json", "placement.json", "schedule.json",
              "routed.json", "gantt.svg", "layout.svg", "report.json"]:
        assert (out_dir / f).exists()


def test_cli_pipeline_reproducible(tmp_path, instance_file):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for out in (r1, r2):
        assert run("pipeline", "--instance", instance_file, "--n-orders", "4",
                   "--size-min", "1", "--size-max", "3", "--population", "6",
                   "--max-evaluations", "30", "--episodes", "3",
                   "--iterations", "10", "--out-dir", out) == OK
    for name in ["orders.csv", "packing.json", "placement.json", "schedule.csv", "paths.csv"]:
        assert (r1 / name).read_text() == (r2 / name).read_text(), name


def test_cli_report_names_each_packing_stage_exactness(tmp_path):
    # the CI ring instance: stage 1 (peak load) falls back to its heuristic,
    # stage 2 (correlation) is solved exactly; packing.json is stage 2's
    inst, out_dir = tmp_path / "ring.json", tmp_path / "ring"
    assert run("init-instance", "--topology", "ring", "--size", "6",
               "--marginals", "0.3,0.4,0.2,0.5,0.35,0.25", "--dispensers", "12",
               "--movers", "3", "--out", inst) == OK
    assert run("pipeline", "--instance", inst, "--n-orders", "12", "--size-min", "1",
               "--size-max", "3", "--population", "6", "--max-evaluations", "12",
               "--episodes", "2", "--iterations", "3", "--out-dir", out_dir) == OK
    exactness = json.loads((out_dir / "report.json").read_text())["exactness"]
    packing = json.loads((out_dir / "packing.json").read_text())
    assert exactness["packing"] is False and exactness["packing_correlation"] is True
    assert exactness["packing_correlation"] is packing["exact"]


def test_cli_init_instance_roundtrip(tmp_path):
    out = tmp_path / "inst.json"
    assert run("init-instance", "--topology", "ring", "--size", "5",
               "--interfaces", "2", "--marginals", "0.5,0.5",
               "--dispensers", "4", "--movers", "2", "--m-max", "4",
               "--out", out) == OK
    doc = json.loads(out.read_text())
    assert doc["topology"] == "ring" and len(doc["tiles"]) == 16


@pytest.mark.parametrize(
    "topology, size, extra",
    [
        ("square", "4", ("--marginals", "0.3,abc")),
        ("square", "4xq", ("--marginals", "0.3")),
        ("square", "4", ("--marginals", "0.3,0.4", "--drugs", "a")),
        ("ring", "0", ("--marginals", "0.3")),
        ("line", "-2", ("--marginals", "0.3")),
    ],
    ids=["bad-marginals", "bad-square-size", "drugs-mismatch", "ring-too-small",
         "line-negative"],
)
def test_cli_init_instance_bad_arguments_are_config_errors(tmp_path, capsys, topology, size,
                                                          extra):
    out = tmp_path / "inst.json"
    assert run("init-instance", "--topology", topology, "--size", size, *extra,
               "--dispensers", "4", "--out", out) == CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


# --- renders -------------------------------------------------------------------------

def test_render_gantt_structure():
    pl = line_placement(["IF", ("a",), ("b",)])
    orders = [Order(0, (("a", 5), ("b", 4),))]
    s = schedule(orders, pl, 1, eta=2)
    svg = render_gantt(s)
    assert svg.startswith("<svg")
    assert svg.count('class="dispense"') == 2
    assert svg.count('class="interface"') == 2
    assert "mover 0" in svg

    empty = Schedule((), 0)
    svg_empty = render_gantt(empty)
    assert svg_empty.startswith("<svg") and "rect" not in svg_empty.split("defs")[2]


def test_render_gantt_transit_hatching():
    from planarfab.routing import extract_transits, realize
    from planarfab.scheduling import OperationSpec, ScheduledOp, START, DISPENSING, FINISH

    pl = line_placement(["IF", ("a",)])
    sos = (
        ScheduledOp(OperationSpec(0, 0, "interface", 2, START), 0, Coord(1, 1), 0),
        ScheduledOp(OperationSpec(1, 0, "a", 4, DISPENSING), 0, Coord(1, 2), 10),
        ScheduledOp(OperationSpec(2, 0, "interface", 2, FINISH), 0, Coord(1, 1), 15),
    )
    s = Schedule(sos, 17)
    transits = extract_transits(realize(s, pl))
    svg = render_gantt(s, transits=transits)
    assert svg.count('class="transit"') == 1
    assert "url(#hatch)" in svg


def test_render_gantt_four_mover_rows_with_hatches():
    # four movers, one idle transit each
    from planarfab.routing import extract_transits, realize
    from planarfab.scheduling import OperationSpec, ScheduledOp, START, DISPENSING, FINISH

    pl = line_placement(["IF", ("a",), ("b",), ("c",), ("d",), "IF"])
    iface = Coord(1, 1)
    sos = []
    op = 0
    for m, drug_tile in enumerate([Coord(1, 2), Coord(1, 3), Coord(1, 4), Coord(1, 5)]):
        drug = "abcd"[m]
        travel = m + 1
        disp_start = 30 + 3 * m
        sos.append(ScheduledOp(OperationSpec(op, m, "interface", 2, START), m, iface, 3 * m)); op += 1
        sos.append(ScheduledOp(OperationSpec(op, m, drug, 4, DISPENSING), m, drug_tile, disp_start)); op += 1
        sos.append(ScheduledOp(OperationSpec(op, m, "interface", 2, FINISH), m, iface, disp_start + 4 + travel)); op += 1
    s = Schedule(tuple(sos), max(x.end for x in sos))
    transits = extract_transits(realize(s, pl))
    svg = render_gantt(s, transits=transits)
    assert svg.count("mover ") == 4
    assert svg.count('class="transit"') == 4


def test_render_gantt_marks_pauses():
    from test_routing import hand_crossing_fixture
    from planarfab.routing import resolve_conflicts

    pl, orders, s = hand_crossing_fixture()
    plan = resolve_conflicts(s, pl)
    svg = render_gantt(plan.schedule, interruptions=plan.interruptions)
    assert svg.count('class="pause"') == sum(1 for v in plan.interruptions.values() if v)


def test_render_layout_fig6(golden_placement):
    svg = render_layout(golden_placement)
    assert svg.count('class="cell"') == 16
    assert svg.count('class="iface"') == 2
    # one stripe per placed dispenser
    total_dispensers = sum(len(d) for d in golden_placement.drug_tiles.values())
    assert svg.count('class="stripe"') == total_dispensers


def test_render_layout_sites(golden_placement):
    sites = generate_resting_sites(
        golden_placement.layout, golden_placement.interfaces
    ).sites
    svg = render_layout(golden_placement, sites=sites)
    assert svg.count('class="site"') == len(sites) == 9


def _place_inputs(tmp_path, tiles, order_drugs):
    """A packing of ``tiles`` and a one-order history over ``order_drugs``."""
    from planarfab.core import orders_to_csv
    from planarfab.packing import Packing
    from planarfab.pipeline import packing_to_json

    z = {}
    for t in tiles:
        for g in t:
            z[g] = z.get(g, 0) + 1
    packed = Packing(tuple(tiles), z, {g: 1.0 for g in z}, tuple(float(len(t)) for t in tiles),
                     3.0, 0.0, False, len(tiles))
    packing, orders = tmp_path / "packing.json", tmp_path / "orders.csv"
    packing.write_text(packing_to_json(packed))
    orders.write_text(orders_to_csv([Order(0, tuple((g, 4) for g in order_drugs))]))
    return packing, orders


GA_FLAGS = {
    "population-1": ("--population", "1"),
    "episodes-0": ("--episodes", "0"),
    "evaluations-below-population": ("--population", "8", "--max-evaluations", "3"),
}


@pytest.mark.parametrize("flags", GA_FLAGS.values(), ids=GA_FLAGS.keys())
@pytest.mark.parametrize("command", ["place", "pipeline"])
def test_cli_bad_ga_params_are_config_errors(tmp_path, instance_file, capsys, command, flags):
    out = tmp_path / "out"
    if command == "place":
        packing, orders = _place_inputs(tmp_path, [("drug00",), ("drug01", "drug02")], ["drug00"])
        argv = ("place", "--instance", instance_file, "--orders", orders,
                "--packing", packing, "--out", out)
    else:
        argv = ("pipeline", "--instance", instance_file, "--n-orders", "3",
                "--size-min", "1", "--size-max", "2", "--out-dir", out)
    assert run(*argv, *flags) == CONFIG_ERROR
    assert "must be >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "tiles, order_drugs, message",
    [
        ([(f"drug0{i % 5}",) for i in range(15)], ["drug00"], "15 packed tiles + 2 interfaces"),
        ([("drug00",), ("drug01",)], ["drug00", "drug04"], "no dispenser placed for drug 'drug04'"),
    ],
    ids=["tiles-exceed-layout", "order-drug-not-packed"],
)
def test_cli_place_infeasible_inputs(tmp_path, instance_file, capsys, tiles, order_drugs, message):
    packing, orders = _place_inputs(tmp_path, tiles, order_drugs)
    out = tmp_path / "placement.json"
    assert run("place", "--instance", instance_file, "--orders", orders, "--packing", packing,
               "--population", "4", "--max-evaluations", "8", "--episodes", "2",
               "--out", out) == INFEASIBLE
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- malformed-artifact fuzzing ------------------------------------------------------

_DELETE = object()  # the mutation that deletes the field
FUZZ_VALUES = (None, -1, 0, 2**62, "x", [], {}, [1], 1.5, True, _DELETE)


def _json_fields(doc, path=()):
    """Every key path of a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _json_fields(v, path + (k,))


def _mutate_json(text, path, value):
    doc = json.loads(text)
    node = doc
    for k in path[:-1]:
        node = node[k]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


def _csv_fields(text):
    return [(r, c) for r, row in enumerate(csv.reader(io.StringIO(text))) for c in range(len(row))]


def _mutate_csv(text, cell, value):
    rows = list(csv.reader(io.StringIO(text)))
    r, c = cell
    if value is _DELETE:
        del rows[r][c]
    else:
        rows[r][c] = "" if value is None else value if isinstance(value, str) else json.dumps(value)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _fuzz_inputs(tmp_path, instance_file):
    """Valid artifacts of one small chain, and the commands that read each."""
    f = {"instance": instance_file}
    f.update((name, tmp_path / name) for name in ("orders", "packing", "placement", "schedule"))
    assert run("gen-orders", "--instance", f["instance"], "--n", "4", "--size-min", "1",
               "--size-max", "3", "--orders-out", f["orders"]) == OK
    assert run("pack", "--instance", f["instance"], "--orders", f["orders"],
               "--out", f["packing"]) == OK
    ga = ("--population", "4", "--max-evaluations", "8", "--episodes", "2")
    place = ("place", "--instance", f["instance"], "--orders", f["orders"],
             "--packing", f["packing"], *ga)
    assert run(*place, "--out", f["placement"]) == OK
    sched = ("schedule", "--instance", f["instance"], "--orders", f["orders"],
             "--placement", f["placement"], "--iterations", "3")
    assert run(*sched, "--out", f["schedule"]) == OK
    out = tmp_path / "out"
    inst, placed = ("--instance", f["instance"]), ("--placement", f["placement"])
    commands = {
        "gen-orders": ("gen-orders", *inst, "--n", "3", "--size-min", "1", "--size-max", "2",
                       "--orders-out", out),
        "pack": ("pack", *inst, "--orders", f["orders"], "--out", out),
        "place": (*place, "--out", out),
        "schedule": (*sched, "--out", out),
        "lower-bound": ("lower-bound", *inst, "--orders", f["orders"], *placed, "--out", out),
        "route": ("route", *inst, *placed, "--schedule", f["schedule"], "--out", out),
        "merge": ("merge", *inst, *placed, "--schedules", f["schedule"], "--out", out),
        "pipeline": ("pipeline", *inst, "--n-orders", "3", "--size-min", "1", "--size-max", "2",
                     *ga, "--iterations", "2", "--out-dir", out),
        "render-placement": ("render", *placed, "--sites", "--out", out),
        "render-schedule": ("render", "--schedule", f["schedule"], "--out", out),
    }
    readers = {
        "instance": ["gen-orders", "pack", "place", "schedule", "lower-bound", "route", "merge",
                     "pipeline"],
        "orders": ["pack", "place", "schedule", "lower-bound"],
        "packing": ["place"],
        "placement": ["schedule", "lower-bound", "route", "merge", "render-placement"],
        "schedule": ["route", "merge", "render-schedule"],
    }
    return f, {name: [commands[c] for c in cmds] for name, cmds in readers.items()}


def test_cli_malformed_artifacts_exit_with_a_code(tmp_path, instance_file, capsys):
    """One seeded field mutation of each input artifact at a time: every command
    that reads the file ends with exit 0, 2 or 3, never an exception."""
    files, readers = _fuzz_inputs(tmp_path, instance_file)
    rng = random.Random(7)
    for name, commands in readers.items():
        text = files[name].read_text()
        if name == "orders":
            fields, mutate = _csv_fields(text), _mutate_csv
        else:
            fields, mutate = list(_json_fields(json.loads(text))), _mutate_json
        cases = [(f, v) for f in fields for v in FUZZ_VALUES]
        for field, value in rng.sample(cases, 40):
            files[name].write_text(mutate(text, field, value))
            for argv in commands:
                try:
                    code = run(*argv)
                except Exception as e:  # noqa: BLE001 - name the case that escaped
                    pytest.fail(f"{name} {field} = {value!r}, {argv[0]}: {e!r}")
                assert code in (OK, CONFIG_ERROR, INFEASIBLE), (name, field, value, argv[0])
        files[name].write_text(text)
    capsys.readouterr()
