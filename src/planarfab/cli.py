"""Command-line surface.

Exit codes: 0 ok, 2 configuration error (bad arguments, unreadable or
malformed inputs), 3 infeasible instance, or a schedule that ``route`` or
``merge`` finds breaking ``scheduling.schedule_issues``.  A time limit stops
only the search: the best schedule found is returned.  Commands raise;
``main`` maps each exception to its code once.
PLANARFAB_SEED overrides the instance seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import ordergen, packing, routing, scheduling
from . import placement as placement_mod
from .core import (
    InstanceConfig,
    instance_from_json,
    instance_to_json,
    orders_from_csv,
    orders_to_csv,
    build_layout,
    validate_instance,
)
from .pipeline import (
    PipelineConfig,
    StageError,
    packing_from_json,
    packing_to_json,
    paths_to_csv,
    plan_to_json,
    run_pipeline,
    schedule_batched,
)
from .placement import GaParams, Placement
from .render import render_gantt, render_layout

OK, CONFIG_ERROR, INFEASIBLE = 0, 2, 3
MAX_ISSUES = 20  # schedule issues printed before the rest are counted


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load(what, path, parse):
    """Parse one input artifact.  A file that cannot be read or parsed, or
    whose content has the wrong shape (missing keys, wrong types, values that
    do not fit together), is a configuration error."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot read {what} {path}: {e}", CONFIG_ERROR)


def _load_instance(path):
    layout, catalog, config = _load("instance", path, instance_from_json)
    seed_override = os.environ.get("PLANARFAB_SEED")
    if seed_override is not None:
        try:
            seed = int(seed_override)
        except ValueError:
            raise CliError(f"PLANARFAB_SEED must be an integer, got {seed_override!r}",
                           CONFIG_ERROR) from None
        config = dataclasses.replace(config, seed=seed)
    return layout, catalog, config


def _write(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def cmd_init_instance(args):
    import numpy as np

    from .core import DrugCatalog

    try:
        layout = build_layout(args.topology, _size_params(args), args.interfaces)
        marg = [float(x) for x in args.marginals.split(",")] if args.marginals else []
        drugs = args.drugs.split(",") if args.drugs else [f"drug{i}" for i in range(len(marg))]
        if not marg:
            raise CliError("provide --marginals", CONFIG_ERROR)
        catalog = DrugCatalog(tuple(drugs), tuple(marg), np.zeros((len(drugs), len(drugs))))
    except ValueError as e:  # a malformed --size, --marginals or --drugs, or a bad size
        raise CliError(f"bad instance arguments: {e}", CONFIG_ERROR) from None
    config = InstanceConfig(
        n_dispensers=args.dispensers,
        d_max=args.d_max,
        m_max=args.m_max,
        n_movers=args.movers,
        eta_interface=args.eta,
        dispensing_speed=args.speed,
        seed=args.seed,
    )
    issues = validate_instance(layout, catalog, config)
    if issues:
        raise CliError("; ".join(issues), INFEASIBLE)
    _write(args.out, instance_to_json(layout, catalog, config))
    print(f"wrote {args.out}")
    return OK


def _size_params(args):
    if args.topology == "square":
        r, c = (args.size.split("x") + [args.size])[:2] if "x" in args.size else (args.size, args.size)
        return (int(r), int(c))
    return int(args.size)


def cmd_gen_orders(args):
    layout, catalog, config = _load_instance(args.instance)
    oset = ordergen.sample_orders(
        catalog,
        args.n,
        (args.size_min, args.size_max),
        duration_rule=args.duration_rule,
        seed=args.seed if args.seed is not None else config.seed,
        dispensing_speed=config.dispensing_speed,
        copula_mode=args.copula,
    )
    _write(args.orders_out, orders_to_csv(oset.orders))
    print(f"wrote {args.orders_out} ({len(oset.orders)} orders)")
    return OK


def cmd_pack(args):
    layout, catalog, config = _load_instance(args.instance)
    orders = _load("orders", args.orders, orders_from_csv)
    demand = ordergen.estimate_demand(orders)
    packed = packing.pack_min_load(demand, layout.n_tiles, config, drugs=catalog.drugs)
    if not args.skip_correlation:
        packed = packing.pack_correlation(packed, catalog, config)
    _write(args.out, packing_to_json(packed))
    print(
        f"wrote {args.out} (mu_max={packed.mu_max:.2f}, lb={packed.lower_bound:.2f}, "
        f"exact={packed.exact})"
    )
    return OK


def _ga_params(args) -> GaParams:
    try:
        return GaParams(
            population=args.population,
            max_evaluations=args.max_evaluations,
            episodes=args.episodes,
        )
    except ValueError as e:
        raise CliError(f"bad GA parameters: {e}", CONFIG_ERROR) from None


def _batch_size(args):
    """--batch-size, or None when not given."""
    if args.batch_size is not None and args.batch_size < 1:
        raise CliError("--batch-size must be >= 1", CONFIG_ERROR)
    return args.batch_size


def _movers(args, config):
    """--movers, or the instance's fleet when not given."""
    if args.movers is not None and args.movers < 1:
        raise CliError("--movers must be >= 1", CONFIG_ERROR)
    return args.movers or config.n_movers


def cmd_place(args):
    layout, catalog, config = _load_instance(args.instance)
    orders = _load("orders", args.orders, orders_from_csv)
    packed = _load("packing", args.packing, packing_from_json)
    params = _ga_params(args)
    result = placement_mod.ga_place(
        packed, layout, orders, params, args.seed if args.seed is not None else config.seed
    )
    _write(args.out, result.placement.to_json())
    if args.trace_out:
        _write(args.trace_out, placement_mod.trace_to_csv(result.trace))
    print(f"wrote {args.out} (fitness={result.best_fitness:.3f})")
    return OK


def cmd_schedule(args):
    layout, catalog, config = _load_instance(args.instance)
    orders = _load("orders", args.orders, orders_from_csv)
    placed = _load("placement", args.placement, Placement.from_json)
    movers = _movers(args, config)
    seed = args.seed if args.seed is not None else config.seed
    batch_size = _batch_size(args)
    if batch_size and len(orders) > batch_size:
        sched, _ = schedule_batched(
            orders, placed, dataclasses.replace(config, n_movers=movers), batch_size, seed,
            time_limit=args.time_limit, iterations=args.iterations,
        )
    else:
        warm = None
        if args.warm_start:
            lb = scheduling.lower_bound(orders, placed, movers, config.eta_interface)
            warm = lb.assignment
        sched = scheduling.schedule(
            orders, placed, movers,
            time_limit=args.time_limit,
            warm_start=warm,
            seed=seed,
            eta=config.eta_interface,
            max_iterations=args.iterations,
        )
    _write(args.out, sched.to_json())
    if args.csv_out:
        _write(args.csv_out, sched.to_csv())
    print(f"wrote {args.out} (makespan={sched.makespan})")
    return OK


def cmd_lower_bound(args):
    layout, catalog, config = _load_instance(args.instance)
    orders = _load("orders", args.orders, orders_from_csv)
    placed = _load("placement", args.placement, Placement.from_json)
    movers = _movers(args, config)
    lb = scheduling.lower_bound(orders, placed, movers, config.eta_interface)
    doc = {
        "value": lb.value,
        "exact": lb.exact,
        "t_values": {str(k): v for k, v in sorted(lb.t_values.items())},
        "assignment": {str(k): v for k, v in sorted(lb.assignment.items())},
    }
    if args.out:
        _write(args.out, json.dumps(doc, indent=2))
    if args.dump_gtsp:
        from . import shppn

        dumps = [shppn.transform_dump(o, placed) for o in orders]
        _write(args.dump_gtsp, json.dumps(dumps, indent=2))
    print(json.dumps(doc if args.verbose else {"value": lb.value, "exact": lb.exact}))
    return OK


def _reject(issues):
    """Exit 3 with one schedule issue per line, the first MAX_ISSUES of them."""
    if issues:
        more = [f"… and {len(issues) - MAX_ISSUES} more"] if len(issues) > MAX_ISSUES else []
        lines = [f"  {issue}" for issue in issues[:MAX_ISSUES] + more]
        raise CliError("\n".join(["the schedule fails its checks:", *lines]), INFEASIBLE)


def cmd_route(args):
    layout, catalog, config = _load_instance(args.instance)
    placed = _load("placement", args.placement, Placement.from_json)
    sched = _load("schedule", args.schedule, scheduling.Schedule.from_json)
    _reject(scheduling.schedule_issues(sched, placed, config.n_movers))
    plan = routing.route_schedule(sched, placed)
    _write(args.out, plan_to_json(plan))
    if args.paths_csv:
        _write(args.paths_csv, paths_to_csv(plan))
    overhead = 100.0 * (plan.makespan - sched.makespan) / max(1, sched.makespan)
    print(
        f"wrote {args.out} (makespan {sched.makespan} -> {plan.makespan}, "
        f"overhead {overhead:.2f}%, iterations {plan.iterations})"
    )
    return OK


def cmd_merge(args):
    layout, catalog, config = _load_instance(args.instance)
    placed = _load("placement", args.placement, Placement.from_json)
    batches = [_load("schedule", p, scheduling.Schedule.from_json) for p in args.schedules]
    _reject([
        f"{path}: {issue}"
        for path, b in zip(args.schedules, batches)
        for issue in scheduling.schedule_issues(b, placed, config.n_movers)
    ])
    merged = routing.merge_batches(batches, placed)
    plan = routing.route_schedule(merged, placed)
    _write(args.out, plan_to_json(plan))
    print(f"wrote {args.out} (merged makespan={plan.makespan})")
    return OK


def cmd_pipeline(args):
    layout, catalog, config = _load_instance(args.instance)
    pc = PipelineConfig(
        layout=layout,
        catalog=catalog,
        config=config,
        n_orders=args.n_orders,
        size_range=(args.size_min, args.size_max),
        ga=_ga_params(args),
        schedule_time_limit=args.time_limit,
        schedule_iterations=args.iterations,
        batch_size=_batch_size(args),
        out_dir=Path(args.out_dir),
    )
    print(run_pipeline(pc).to_json())
    return OK


def cmd_render(args):
    if args.placement:
        placed = _load("placement", args.placement, Placement.from_json)
        sites = None
        if args.sites:
            sites = routing.generate_resting_sites(placed.layout, placed.interfaces).sites
        _write(args.out, render_layout(placed, sites=sites))
    elif args.schedule:
        sched = _load("schedule", args.schedule, scheduling.Schedule.from_json)
        _write(args.out, render_gantt(sched))
    else:
        raise CliError("render needs --placement or --schedule", CONFIG_ERROR)
    print(f"wrote {args.out}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="planarfab",
        description="Planar-grid capsule manufacturing planner: packing, placement, "
        "scheduling, lower bounds and conflict-free routing.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("init-instance", help="write an instance JSON for the four topologies")
    sp.add_argument("--topology", required=True, choices=["line", "doubleline", "ring", "square"])
    sp.add_argument("--size", required=True, help="length, ring side, or RxC for square")
    sp.add_argument("--interfaces", type=int, default=2)
    sp.add_argument("--drugs", help="comma-separated drug names")
    sp.add_argument("--marginals", required=True, help="comma-separated probabilities")
    sp.add_argument("--dispensers", type=int, required=True)
    sp.add_argument("--d-max", type=int, default=4)
    sp.add_argument("--m-max", type=int, default=12)
    sp.add_argument("--movers", type=int, default=4)
    sp.add_argument("--eta", type=int, default=2)
    sp.add_argument("--speed", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_init_instance)

    sp = sub.add_parser("gen-orders", help="sample synthetic prescriptions")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--size-min", type=int, default=3)
    sp.add_argument("--size-max", type=int, default=8)
    sp.add_argument("--duration-rule", choices=["fixed", "dose"], default="fixed")
    sp.add_argument("--copula", choices=["raw", "tetrachoric"], default="raw")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--orders-out", required=True)
    sp.set_defaults(fn=cmd_gen_orders)

    sp = sub.add_parser("pack", help="two-stage dispenser packing")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--skip-correlation", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_pack)

    sp = sub.add_parser("place", help="GA placement of packed tiles and interfaces")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--packing", required=True)
    sp.add_argument("--population", type=int, default=150)
    sp.add_argument("--max-evaluations", type=int, default=50_000)
    sp.add_argument("--episodes", type=int, default=20)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trace-out")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_place)

    sp = sub.add_parser("schedule", help="operational scheduling (LNS)")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--movers", type=int)
    sp.add_argument("--time-limit", type=float, default=60.0)
    sp.add_argument("--iterations", type=int, help="deterministic iteration budget")
    sp.add_argument("--warm-start", action="store_true",
                    help="seed mover assignment from the lower bound")
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--csv-out")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_schedule)

    sp = sub.add_parser("lower-bound", help="relaxation lower bound on the makespan")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--movers", type=int)
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--dump-gtsp", help="write the transformed per-order matrices (debug)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_lower_bound)

    sp = sub.add_parser("route", help="conflict-free routing of a schedule")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--schedule", required=True)
    sp.add_argument("--paths-csv")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_route)

    sp = sub.add_parser("merge", help="stitch batch schedules and route the result")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--schedules", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_merge)

    sp = sub.add_parser("pipeline", help="run every stage and write a report")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--n-orders", type=int, default=20)
    sp.add_argument("--size-min", type=int, default=3)
    sp.add_argument("--size-max", type=int, default=8)
    sp.add_argument("--population", type=int, default=30)
    sp.add_argument("--max-evaluations", type=int, default=600)
    sp.add_argument("--episodes", type=int, default=10)
    sp.add_argument("--time-limit", type=float, default=30.0)
    sp.add_argument("--iterations", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(fn=cmd_pipeline)

    sp = sub.add_parser("render", help="SVG of a placement or a schedule")
    sp.add_argument("--placement")
    sp.add_argument("--schedule")
    sp.add_argument("--sites", action="store_true", help="overlay resting sites")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        error, code = e, e.code
    except (OSError, json.JSONDecodeError) as e:
        error, code = e, CONFIG_ERROR
    except StageError as e:  # PackingInfeasible and RoutingInfeasible are ValueErrors
        error, code = e, INFEASIBLE if isinstance(e.cause, ValueError) else CONFIG_ERROR
    except ValueError as e:  # a stage found the inputs infeasible
        error, code = e, INFEASIBLE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
