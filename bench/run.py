"""Deterministic, layered benchmark of the planarfab planning chain.

    python3 bench/run.py --workload operational-8x8 --seed 1 --seconds 30 --trace 0

One client runs plans back to back (a closed loop) through
``pipeline.run_pipeline``, in whole passes over the workload's seeded
instances, for as many passes as fit in ``--seconds``.  Every search has an
iteration budget and no wall-clock limit, so the work done does not depend
on host speed.  Outside the timed region each instance's artifacts
are validated with the validators the package ships and digested.

The host is a share of a machine whose speed drifts by up to two times
within seconds.  While a plan or a set-up runs, a timer samples a fixed
reference kernel; the gated times are scaled to the speed at which that
kernel takes REF_NOMINAL_S (see ``HostProbe``).  Raw times are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced plans of the same instance and reports per-layer metrics
from the traced ones.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when any check fails
and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up runs before the measured passes, at least SETUP_REPEATS times and
# SETUP_MIN_S seconds; setup_s is the median run.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
PROBE_EVERY_S = 0.02  # CPU seconds between two samples of the reference kernel
# About the reference kernel's time when sampled inside a plan on a quiet host
# (Python 3.11, numpy 2.4, one core of a shared 2-core VM); scaled times read
# as if the host always ran at that speed.
REF_NOMINAL_S = 0.00025
DIGESTED = ("packing.json", "placement.json", "schedule.json", "routed.json")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
PLAN_TIMEOUT_S = 60  # a plan this slow fails instead of overrunning the run


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- correctness ----------------------------------------------------------------

def golden_check() -> list[str]:
    """The 4x4~2 reference placement: per-order kappa [3, 6, 3], mean 4.0."""
    from planarfab.core import Coord, Order, build_layout
    from planarfab.placement import Placement, analytical_cost, per_order_kappa

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
    pl = Placement(
        build_layout("square", (4, 4), 2), drug_tiles, frozenset({Coord(2, 1), Coord(3, 3)})
    )
    orders = [
        Order(1, (("ATORVASTATIN", 5), ("HYDROCHLOROTHIAZIDE", 5))),
        Order(2, (("OMEPRAZOLE", 5),)),
        Order(3, (("LISINOPRIL", 5), ("SIMVASTATIN", 5))),
    ]
    issues = []
    if per_order_kappa(pl, orders) != [3, 6, 3]:
        issues.append("golden: per-order kappa != [3, 6, 3]")
    if analytical_cost(pl, orders) != 4.0:
        issues.append("golden: analytical cost != 4.0")
    return issues


def canonical_specs(ops, orders, eta):
    """Map merged-batch op ids to the per-order numbering of ``build_operations``."""
    from planarfab.scheduling import build_operations

    want: dict[tuple, list] = {}
    for op in build_operations(orders, eta):
        want.setdefault((op.order_id, op.kind, op.target), []).append(op)
    used = set()
    mapping = {}
    for so in sorted(ops, key=lambda s: s.op.op_id):
        spec = next(
            o for o in want[(so.op.order_id, so.op.kind, so.op.target)] if o.op_id not in used
        )
        used.add(spec.op_id)
        mapping[so.op.op_id] = spec
    return mapping


def relabel(schedule, mapping):
    from planarfab.scheduling import Schedule, ScheduledOp

    ops = tuple(
        ScheduledOp(mapping[so.op.op_id], so.mover, so.tile, so.start) for so in schedule.ops
    )
    return Schedule(ops, schedule.makespan, schedule.incumbent_trace)


def check_plan(inst, report, captured, budget) -> list[str]:
    """Run the shipped validators on one plan's outputs; empty means correct."""
    from dataclasses import replace

    from planarfab.core import orders_from_csv
    from planarfab.ordergen import estimate_demand
    from planarfab.packing import validate_packing
    from planarfab.pipeline import BATCH_THRESHOLD, packing_from_json
    from planarfab.routing import validate_plan
    from planarfab.scheduling import Schedule, SchedulingInstance, validate_schedule

    pc, out = inst.pc, inst.pc.out_dir
    issues = []
    if "pack" in pc.stages:
        demand = estimate_demand(orders_from_csv((out / "orders.csv").read_text()))
        packed = packing_from_json((out / "packing.json").read_text())
        issues += validate_packing(packed, pc.config, demand)
    if inst.packed is not None:
        issues += validate_packing(inst.packed, pc.config, inst.demand)
    if "schedule" not in pc.stages:
        return issues

    for s in captured["schedule"]:
        if len(s.incumbent_trace) != budget + 1:
            issues.append(
                f"budget: incumbent trace has {len(s.incumbent_trace)} entries, "
                f"LNS budget {budget}"
            )
    orders = list(inst.orders)
    sched = Schedule.from_json((out / "schedule.json").read_text())
    plan = captured["route_schedule"][-1]
    if len(orders) > (pc.batch_size or BATCH_THRESHOLD):
        orders.sort(key=lambda o: o.id)
        mapping = canonical_specs(sched.ops, orders, pc.config.eta_interface)
        sched = relabel(sched, mapping)
        plan = replace(
            plan,
            schedule=relabel(plan.schedule, mapping),
            interruptions={mapping[k].op_id: v for k, v in plan.interruptions.items()},
        )
    cfg = pc.config
    sinst = SchedulingInstance(tuple(orders), inst.placed, cfg.n_movers, cfg.eta_interface)
    issues += [f"schedule: {v}" for v in validate_schedule(sched, sinst)]
    issues += [f"plan: {v}" for v in validate_plan(plan, sinst)]
    lb = report.stage_values["lower_bound"]
    if lb > plan.makespan:
        issues.append(f"lower bound {lb} exceeds routed makespan {plan.makespan}")
    return issues


def digests(out: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (out / name).exists()
    }


# --- measurement ------------------------------------------------------------------

def set_up(workload, seed, times, probe):
    """Golden check plus instance building, repeated at least SETUP_REPEATS
    times and SETUP_MIN_S seconds; appends each (raw, scaled) duration to
    ``times``."""
    shutil.rmtree(OUT / workload.name, ignore_errors=True)
    start = len(times)
    while len(times) - start < SETUP_REPEATS or sum(t for t, _ in times[start:]) < SETUP_MIN_S:
        probe.start()
        t0 = perf_counter()
        issues = golden_check()
        instances = workload.build(seed, OUT)
        times.append(probe.stop(perf_counter() - t0))
    return issues, instances


_REF_ROWS = [[float((7 * i + j) % 11) for j in range(8)] for i in range(8)]


def ref_kernel() -> float:
    """Fixed work unrelated to the program; returns its duration in seconds.

    It mixes a pure-Python loop with numpy calls on an 8x8 array, the two
    kinds of code the planner spends its time in.  Over repeated plans of one
    instance (tactical-8x8, batched-8x8), log plan time followed log kernel
    time with a slope of 0.9-1.05 and a correlation of 0.95-0.98; the plans'
    coefficient of variation fell from 17% raw to 3-5% scaled.
    """
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(1500):
        acc = (acc + i * i) % 1_000_003
    x = np.array(_REF_ROWS)
    for _ in range(25):
        x = np.where(x > 3.0, x * 0.5, x + 1.0)
        acc += int(x.sum(axis=1).argmax())
    return perf_counter() - t0


class HostProbe:
    """Samples host speed while a plan or a set-up runs.

    Every PROBE_EVERY_S of the process's CPU time a SIGVTALRM handler times
    ``ref_kernel``.  Handlers run on the main thread between bytecodes, so the
    samples fall all over the measured code and see the host as it does.
    ``stop`` takes the samples' time out of the measured time and divides by
    the host factor: the mean sample over REF_NOMINAL_S.
    """

    def __init__(self):
        self.samples: list[float] = []  # every sample of the run
        self._first = 0

    def _sample(self, signum, frame):
        self.samples.append(ref_kernel())

    def start(self):
        self._first = len(self.samples)
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self, elapsed: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the code measured since ``start``."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        inside = self.samples[self._first:]
        raw = elapsed - sum(inside)
        if not inside:  # shorter than one interval: sample right after it
            self.samples.append(ref_kernel())
            inside = self.samples[self._first:]
        return raw, raw * REF_NOMINAL_S / statistics.fmean(inside)


class Capture:
    """Keeps the results of a few stage calls, for checks made after the plan."""

    NAMES = (("placement", "ga_place"), ("scheduling", "schedule"), ("routing", "route_schedule"))

    def __init__(self, patches):
        import planarfab

        self.results = {attr: [] for _, attr in self.NAMES}
        for mod, attr in self.NAMES:
            sink = self.results[attr]

            def make(orig, sink=sink):
                def wrapper(*args, **kwargs):
                    result = orig(*args, **kwargs)
                    sink.append(result)
                    return result

                return wrapper

            patches.wrap(getattr(planarfab, mod), attr, make)

    def take(self) -> dict:
        taken = {k: list(v) for k, v in self.results.items()}
        for v in self.results.values():
            v.clear()
        return taken


def summarize(captured) -> dict:
    """The few numbers per plan that the layer metrics need; results are dropped."""
    return {
        "ga_evaluations": sum(g.evaluations for g in captured["ga_place"]),
        "traces": [s.incumbent_trace for s in captured["schedule"]],
        "routes": [
            (p.iterations, sum(p.interruptions.values()), p.sites.exact)
            for p in captured["route_schedule"]
        ],
    }


def run_loop(workload, instances, seconds, tracer, probe):
    """Closed loop of whole passes over the instances; one record per plan.

    Passes repeat while another one is expected to fit in ``seconds``, so
    every instance is planned equally often.  Untraced plans run under
    ``probe``; traced ones do not, so their spans hold no probe time.
    """
    from planarfab import pipeline
    from tracing import Patches

    def timeout(signum, frame):
        raise TimeoutError(f"plan exceeded {PLAN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, timeout)
    patches = Patches()
    capture = Capture(patches)
    records, first = [], {}
    modes = (False,) if tracer is None else (True, False)
    start = perf_counter()
    try:
        while True:
            pass_start = perf_counter()
            for i, inst in enumerate(instances):
                order = modes if (len(records) // len(modes)) % 2 == 0 else modes[::-1]
                for traced in order:
                    if traced:
                        tracer.plan = len(records)
                        tracer.install()
                    else:
                        probe.start()
                    signal.alarm(PLAN_TIMEOUT_S)
                    t0 = perf_counter()
                    try:
                        report = pipeline.run_pipeline(
                            inst.pc, orders=inst.orders, placed=inst.placed
                        )
                        error = None
                    except (pipeline.StageError, TimeoutError) as e:
                        report, error = None, str(e)
                    elapsed, scaled = perf_counter() - t0, None
                    signal.alarm(0)
                    if traced:
                        tracer.remove()
                    else:
                        elapsed, scaled = probe.stop(elapsed)
                    captured = capture.take()
                    issues = [error] if error else []
                    if not issues:
                        got = digests(inst.pc.out_dir)
                        if i not in first:
                            issues = check_plan(inst, report, captured, workload.lns_iterations)
                            first[i] = (got, report)
                        elif got != first[i][0]:
                            issues = [f"{inst.name}: artifacts differ between repetitions"]
                    records.append(
                        {"instance": i, "s": elapsed, "scaled_s": scaled, "traced": traced,
                         "issues": issues, "report": report, **summarize(captured)}
                    )
            now = perf_counter()
            if 2 * now - pass_start - start > seconds:
                break
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        patches.remove()
    return records, first


# --- metrics ----------------------------------------------------------------------

def tail(samples):
    """(percentile, nearest-rank value) of the highest percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(len(xs) * p / 100)
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def quality(instances, first) -> dict:
    """Per-workload quality, the mean over distinct instances that produced it."""
    vals: dict[str, list] = {}
    for i, (_, report) in first.items():
        if report is None:
            continue
        sv = report.stage_values
        got = {
            "mu_max": sv.get("mu_max", getattr(instances[i].packed, "mu_max", None)),
            "placement_fitness": sv.get("placement_fitness"),
            "makespan_routed": sv.get("makespan_routed"),
            "routing_overhead_pct": report.overhead_pct,
        }
        if "makespan_scheduled" in sv:
            lb = sv["lower_bound"]
            got["lb_gap_pct"] = 100.0 * (sv["makespan_scheduled"] - lb) / lb
        for k, v in got.items():
            if v is not None:
                vals.setdefault(k, []).append(v)
    return {k: statistics.fmean(v) for k, v in vals.items()}


QUALITY_UNITS = {
    "mu_max": "expected_ticks",
    "placement_fitness": "steps/order",
    "makespan_routed": "ticks",
    "lb_gap_pct": "%",
    "routing_overhead_pct": "%",
}


GATED = ("setup_s", "orders_per_s_scaled", "peak_rss_mb")  # end_to_end of BENCHMARK.json


def end_to_end(instances, records, first, setup_times) -> dict:
    """name -> (value, unit) of every end-to-end quantity; only GATED ones are
    defined on every workload and never zero, the rest are printed only.

    ``orders_per_s`` divides the orders of all untraced plans by their summed
    time; ``orders_per_s_scaled`` does the same with each plan's time scaled
    to reference host speed (``HostProbe``).  ``setup_s`` is the median scaled
    set-up and ``setup_s_raw`` the median raw one.
    """
    plans = [r for r in records if not r["traced"]]
    times = [r["s"] for r in plans]
    orders = sum(instances[r["instance"]].n_orders for r in plans)
    m = {
        "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        "setup_s_raw": (statistics.median(t for t, _ in setup_times), "s"),
        "orders_per_s_scaled": (orders / sum(r["scaled_s"] for r in plans), "orders/s"),
        "orders_per_s": (orders / sum(times), "orders/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "plan_s_p50": (statistics.median(times), "s"),
    }
    m.update({k: (v, QUALITY_UNITS[k]) for k, v in quality(instances, first).items()})
    m["failed_frac"] = (sum(bool(r["issues"]) for r in records) / len(records), "failed/attempted")
    return m


LAYER_PCT = [
    "pipeline.schedule_batched", "routing.merge_batches", "ordergen.sample_orders",
    "packing.pack_min_load", "packing.pack_correlation", "placement.fitness",
    "placement.analytical_cost", "shppn.kappa", "scheduling.schedule",
    "scheduling.candidate_routes", "scheduling.lower_bound", "scheduling.p_cmax",
    "routing.route_schedule", "routing.generate_resting_sites", "routing.extract_transits",
    "routing.assign_resting_sites", "routing.build_paths", "routing.detect_conflicts",
    "routing.build_dag", "routing.propagate_starts",
]
LAYER_SELF_PCT = ["pipeline.run_pipeline", "pipeline.schedule_batched", "placement.ga_place"]
LAYER_CALLS = [
    "placement.fitness", "shppn.kappa", "core.Layout.distance", "scheduling.candidate_routes",
    "scheduling.p_cmax", "routing.generate_resting_sites", "routing.propagate_starts",
]


def per_layer(instances, records, tracer, first, probe) -> dict:
    from tracing import ARTIFACTS, ROOT_SPAN

    traced = [r for r in records if r["traced"]]
    tot = tracer.totals()
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    plan_s = tot[ROOT_SPAN]["s"]
    n = len(traced)
    m: dict[str, tuple] = {}

    def pct(x):
        return 100.0 * x / plan_s

    m["pipeline.artifacts.pct"] = (pct(sum(tot.get(a, zero)["s"] for a in ARTIFACTS)), "%")
    for name in LAYER_PCT:
        m[f"{name}.pct"] = (pct(tot.get(name, zero)["s"]), "%")
    for name in LAYER_SELF_PCT:
        m[f"{name}.self_pct"] = (pct(tot.get(name, zero)["self_s"]), "%")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (tot.get(name, zero)["calls"] / n, "count")
    for name in ("placement.fitness", "shppn.kappa"):
        t = tot.get(name, zero)
        m[f"{name}.per_s"] = (t["calls"] / t["s"] if t["s"] else 0.0, "1/s")

    reports = [r["report"] for r in traced if r["report"] is not None]
    evaluations = sum(r["ga_evaluations"] for r in traced)
    fitness_calls = tot.get("placement.fitness", zero)["calls"]
    m["placement.ga.cache_hit_ratio"] = (
        1 - fitness_calls / evaluations if evaluations else 0.0, "ratio"
    )

    packs = [rep for rep in reports if "mu_max" in rep.stage_values]
    m["packing.exact_frac"] = (
        sum(bool(rep.exactness["packing"]) for rep in packs) / len(packs) if packs else 0.0, "ratio"
    )
    m["packing.mu_max_over_lb"] = (
        statistics.fmean(rep.stage_values["mu_max"] / rep.stage_values["packing_lower_bound"]
                         for rep in packs) if packs else 0.0, "ratio"
    )

    lns = [t for r in traced for t in r["traces"]]
    iterations = sum(len(t) - 1 for t in lns)
    improved = sum(b < a for t in lns for a, b in zip(t, t[1:]))
    sched_s = tot.get("scheduling.schedule", zero)["s"]
    m["scheduling.lns.iterations"] = (iterations / n, "count")
    m["scheduling.lns.iters_per_s"] = (iterations / sched_s if sched_s else 0.0, "1/s")
    m["scheduling.lns.improve_ratio"] = (improved / iterations if iterations else 0.0, "ratio")

    routes = [x for r in traced for x in r["routes"]]
    m["routing.sites_exact_frac"] = (
        sum(exact for _, _, exact in routes) / len(routes) if routes else 0.0, "ratio"
    )
    m["routing.fixpoint_iterations"] = (sum(it for it, _, _ in routes) / n, "count")
    m["routing.interruption_ticks"] = (sum(ticks for _, ticks, _ in routes) / n, "count")

    q = quality(instances, first)
    for name, unit in QUALITY_UNITS.items():
        m[f"quality.{name}"] = (q.get(name, 0.0), unit)

    ratios = [  # records come in (traced, untraced) pairs of one instance
        a["s"] / b["s"] if a["traced"] else b["s"] / a["s"]
        for a, b in zip(records[::2], records[1::2])
    ]
    m["trace.plan_s_p50"] = (statistics.median(r["s"] for r in traced), "s")
    m["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    m["host.ref_loop_ms"] = (1000.0 * statistics.median(probe.samples), "ms")
    return m


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    if not (SRC / "planarfab" / "pipeline.py").is_file():
        print(f"bench: program source not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = HostProbe()
    setup_times: list[tuple[float, float]] = []
    setup_issues, instances = set_up(workload, args.seed, setup_times, probe)

    tracer = Tracer() if args.trace else None
    t0 = perf_counter()
    records, first = run_loop(workload, instances, args.seconds, tracer, probe)
    measured = perf_counter() - t0

    failed = [r for r in records if r["issues"]]
    for issue in setup_issues:
        print(f"FAIL setup: {issue}")
    for r in failed:
        for issue in r["issues"][:5]:
            print(f"FAIL {instances[r['instance']].name}: {issue}")

    print(f"workload {workload.name} seed {args.seed}: {len(records)} plans over "
          f"{len(instances)} instances in {measured:.1f} s, trace {args.trace}")
    print(f"why: {workload.why}")
    e2e = end_to_end(instances, records, first, setup_times)
    times = [r["s"] for r in records if not r["traced"]]
    t = tail(times)
    if t:
        print(f"metric plan_s_tail {t[1]:.6g} s (p{t[0]:g}, n={len(times)})")
    else:
        print(f"metric plan_s_tail n/a s (n={len(times)}: fewer than 11 plans)")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} {value:.6g} {unit}")
    ref = probe.samples
    print(f"host ref_loop_ms p50 {1000 * statistics.median(ref):.4g} "
          f"min {1000 * min(ref):.4g} max {1000 * max(ref):.4g} n {len(ref)}")
    for name in DIGESTED:
        per_instance = [first[i][0].get(name) for i in sorted(first)]
        if any(per_instance):
            h = hashlib.sha256("".join(d or "-" for d in per_instance).encode()).hexdigest()
            print(f"digest {name} {h}")

    if tracer is None:
        metrics = {k: e2e[k] for k in GATED}
    else:
        metrics = per_layer(instances, records, tracer, first, probe)
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    ok = not failed and not setup_issues
    print(json.dumps({
        "correct": ok,
        "attempted": len(records),
        "failed": len(failed) + bool(setup_issues),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
