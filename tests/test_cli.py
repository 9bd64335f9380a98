import json
import os
import re
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
    tick, the lower id on the higher mover: the precedence DAG gets a
    backward edge."""
    if op["op_id"] == 0:
        op["mover"] = 1
    if op["op_id"] == 2:
        op["start"] = 0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda op: op.update(tile=[9, 9]), "tile (9, 9) is not on the layout"),
        (lambda op: op.update(mover=7), "mover 7 is outside the fleet of 2"),
        (_tile_order_against_start_order, "backward edge"),
    ],
    ids=["tile-off-layout", "mover-outside-fleet", "tile-order-against-start-order"],
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


def test_cli_init_instance_roundtrip(tmp_path):
    out = tmp_path / "inst.json"
    assert run("init-instance", "--topology", "ring", "--size", "5",
               "--interfaces", "2", "--marginals", "0.5,0.5",
               "--dispensers", "4", "--movers", "2", "--m-max", "4",
               "--out", out) == OK
    doc = json.loads(out.read_text())
    assert doc["topology"] == "ring" and len(doc["tiles"]) == 16


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


def test_render_layout_sites_and_heat(golden_placement):
    sites = generate_resting_sites(
        golden_placement.layout, golden_placement.interfaces
    ).sites
    svg = render_layout(golden_placement, sites=sites)
    assert svg.count('class="site"') == len(sites) == 9

    heat = {t: 1.0 for t in golden_placement.layout.tiles}
    svg_heat = render_layout(golden_placement, heat=heat)
    shades = set(re.findall(r'fill="rgb\(255,(\d+),\d+\)"', svg_heat))
    assert len(shades) == 1  # all-equal heat renders one uniform shade


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
