"""leakyqkd benchmark: time, memory, accuracy and failures of the pipeline.

Run from the repository root:

    python3 benchmark/run.py --workload passive-sweep --seed 1 --seconds 55 --trace 0

Workloads (one caller, closed loop; each unit is one call of the public
API, repeated as long as the next unit still fits in ``--seconds``):

passive-sweep     ``driver.sweep`` over the refined passive analysis at
                  48 nodes, 75 and 100 km at 120 dB.
passive-optimize  ``driver.optimize_point``, refined passive, 50 km at
                  120 dB, default optimizer settings.
oil-optimize      ``driver.optimize_point`` over the oil grid
                  {100, 150, 200 km plus one of 25, 50, 75 km} x {30, 120} dB,
                  with the error handling of ``sweep(optimize=True)``.

``BENCHMARK.json`` lists passive-sweep and oil-optimize only.  One
passive-optimize unit takes about 50 s on a 2-vCPU host, and a third
workload at that cost leaves too little of the run budget for runs long
enough to keep wall_s steady on a shared host; run it by hand with
``--workload passive-optimize``.

``--seed`` picks the oil-optimize grid point from its menu in
``common.py`` (the other two workloads have fixed points, see there);
the default seed is 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced unit with ``--trace 1``.  ``attempted`` counts grid points,
``failed`` those whose evaluation raised an error the public API does
not document.  Points the program itself reports as ``failed:`` are an
outcome of the program and are counted in ``ok_share``.

``--steadiness`` instead runs every workload in fresh processes, two
sets of seeds 1..``--seeds`` with the same code, and reports per metric
and workload whether the quartile spread within a set and the drift of
the median between the sets stay within the bounds in ``BENCHMARK.json``
("steady" when both are below a third of the bound).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common

WORKLOADS = ("passive-sweep", "passive-optimize", "oil-optimize")
DEFAULT_SEED = 1
SETUP_REPEATS = 11
RATE_TOL = 1e-2         # largest |R - R_ref| / R_ref accepted at a reported sweep point
OPT_RATIO_MAX = 1.01    # an optimised rate may exceed the reference optimum by 1 %
OUT_DIR = common.ROOT / ".bench_out"

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import leakyqkd; "
    "from leakyqkd import oil, passive; "
    "[(passive.passive_basis(n), oil.oil_basis(n)) for n in range(int(sys.argv[2]) + 1)]"
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def select_points(workload: str, seed: int) -> list[tuple[float, float]]:
    if workload == "passive-sweep":
        return [(d, common.SWEEP_ATT_DB) for d in common.SWEEP_KM]
    if workload == "passive-optimize":
        return [(common.POPT_KM, common.POPT_ATT_DB)]
    picked = random.Random(seed).sample(common.OIL_CHOICE_KM, common.OIL_PICK)
    distances = sorted(common.OIL_ALWAYS_KM + tuple(picked))
    return [(d, a) for d in distances for a in common.OIL_ATT_DB]


# ---------------------------------------------------------------------------
# One unit of work
# ---------------------------------------------------------------------------

def run_unit(workload: str, points, lq) -> tuple[list[dict], str]:
    """Evaluate the workload's points once; return per-point outcomes and
    the text that must repeat exactly across units and runs."""
    driver = lq.driver
    known = (lq.InfeasibleProgramError, lq.EmptyRegionError)
    if workload == "passive-sweep":
        config = common.passive_config(driver, distances_km=tuple(d for d, _ in points),
                                       att_db=(common.SWEEP_ATT_DB,))
        try:
            reports = driver.sweep(config)
        except Exception as exc:  # an undocumented error fails every point
            traceback.print_exc()
            return [_outcome(d, a, 0.0, f"error: {exc!r}") for d, a in points], repr(exc)
        outcomes = [_outcome(r.distance_km, r.att_db, r.rate, r.status) for r in reports]
        return outcomes, driver.reports_to_csv(reports)
    if workload == "passive-optimize":
        config, names = common.passive_config(driver), ("mu_max", "delta_theta_z")
    else:
        config, names = common.oil_config(driver), ("mu_in", "mu_i1")
    outcomes = []
    for distance, att in points:
        try:
            best, report = driver.optimize_point(config, distance, att)
        except known as exc:
            outcome = _outcome(distance, att, 0.0, f"failed: {exc}")
        except Exception as exc:
            traceback.print_exc()
            outcome = _outcome(distance, att, 0.0, f"error: {exc!r}")
        else:
            outcome = _outcome(distance, att, report.rate, report.status)
            outcome["params"] = {name: getattr(best, name) for name in names}
        outcomes.append(outcome)
    return outcomes, json.dumps(outcomes, sort_keys=True)


def _outcome(distance, att, rate, status) -> dict:
    return {"point": common.point_key(distance, att), "rate": rate, "status": status}


# ---------------------------------------------------------------------------
# Checks against the reference table
# ---------------------------------------------------------------------------

def reference_rate(workload: str, point: str, reference: dict) -> float:
    if workload == "passive-sweep":
        return reference["sweep"]["points"][point]["rate"]
    table = "passive_optimize" if workload == "passive-optimize" else "oil_optimize"
    return reference[table]["points"][point]["reference"]["rate"]


def score(workload: str, outcomes: list[dict], reference: dict) -> tuple[list[str], dict]:
    """Problems found, and the accuracy metrics over the non-failed points."""
    problems, errors, log_ratios = [], [], []
    for out in outcomes:
        if out["status"].startswith(("failed", "error")):
            continue
        ref = reference_rate(workload, out["point"], reference)
        rate = out["rate"]
        if ref <= 0.0:
            if rate > 0.0:
                problems.append(f"{out['point']}: rate {rate!r} where the reference is 0")
            continue
        ratio = rate / ref
        if workload == "passive-sweep":
            ok = abs(ratio - 1.0) <= RATE_TOL
        else:
            ok = 0.0 < ratio <= OPT_RATIO_MAX
        if not ok:
            problems.append(f"{out['point']}: rate {rate!r}, reference {ref!r}")
            continue
        errors.append(abs(ratio - 1.0))
        log_ratios.append(math.log(ratio))
    if not errors:
        problems.append("no point with a positive reference was reported")
        return problems, {"rate_rel_err": 1.0, "opt_rate_ratio": 0.0}
    return problems, {"rate_rel_err": max(errors),
                      "opt_rate_ratio": math.exp(sum(log_ratios) / len(log_ratios))}


def check_repeat(workload: str, seed: int, texts: list[str]) -> list[str]:
    """Outputs must repeat exactly within the run and across runs with the
    same seed in this checkout."""
    problems = [f"unit {k} output differs from unit 0" for k, t in enumerate(texts) if t != texts[0]]
    path = OUT_DIR / "outputs" / f"{workload}-seed{seed}.txt"
    if path.exists():
        if path.read_text() != texts[0]:
            problems.append(f"output differs from the earlier run recorded in {path.name}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(texts[0])
        tmp.replace(path)
    return problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(n_cut: int) -> float:
    """Median wall time of a fresh interpreter importing the package and
    filling the first-call basis caches."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(common.SRC), str(n_cut)],
                       check=True, cwd=common.ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm(lq, n_cut: int):
    for n in range(n_cut + 1):
        lq.passive.passive_basis(n)
        lq.oil.oil_basis(n)


def timed_units(workload, points, lq, seconds: float):
    """Repeat the unit while the next one, as long as the last, still ends
    within ``seconds``; at least one unit."""
    walls, outcomes, texts = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        unit_outcomes, text = run_unit(workload, points, lq)
        walls.append(time.perf_counter() - t0)
        outcomes.extend(unit_outcomes)
        texts.append(text)
    return walls, outcomes, texts


def run(args) -> dict:
    lq = common.import_leakyqkd()
    reference = common.load_reference()
    points = select_points(args.workload, args.seed)
    n_cut = lq.ProtocolConfig().n_cut
    print(f"workload={args.workload} seed={args.seed} points={[common.point_key(*p) for p in points]}",
          flush=True)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(lq, reference["masses"]["source"], reference["masses"]["exact"])
        tracer.install()
        warm(lq, n_cut)
        tracer.uninstall()
        plain, _, texts = timed_units(args.workload, points, lq, 0.0)
        tracer.install()
        traced, outcomes, traced_texts = timed_units(args.workload, points, lq, 0.0)
        texts += traced_texts
        tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
        failed_points = sum(o["status"].startswith(("failed", "error")) for o in outcomes)
        metrics["points.failed_share"] = {"value": failed_points / len(outcomes), "unit": "1"}
        metrics["trace.overhead_s"] = {"value": traced[0] - plain[0], "unit": "s"}
        metrics["trace.overhead_share"] = {"value": (traced[0] - plain[0]) / plain[0], "unit": "1"}
        # the difference above carries the host's run-to-run noise; spans
        # times the measured cost of one span is the noise-free estimate
        metrics["trace.overhead_est_s"] = {
            "value": len(tracer.spans) * tracer.span_cost_s(), "unit": "s"}
        print(f"untraced unit {plain[0]:.3f} s, traced unit {traced[0]:.3f} s", flush=True)
    else:
        setup_s = measure_setup(n_cut)
        warm(lq, n_cut)
        walls, outcomes, texts = timed_units(args.workload, points, lq, args.seconds)

    problems, accuracy = score(args.workload, outcomes, reference)
    problems += check_repeat(args.workload, args.seed, texts)
    errors = sum(o["status"].startswith("error") for o in outcomes)
    if errors:
        problems.append(f"{errors} point evaluations raised undocumented errors")
    for out in outcomes[:len(points)]:
        print(f"  {out['point']}: rate={out['rate']!r} status={out['status']}", flush=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)

    if not args.trace:
        ok = sum(not o["status"].startswith(("failed", "error")) for o in outcomes)
        print(f"units={len(walls)} walls={[round(w, 3) for w in walls]}", flush=True)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "rate_rel_err": {"value": accuracy["rate_rel_err"], "unit": "1"},
            "opt_rate_ratio": {"value": accuracy["opt_rate_ratio"], "unit": "1"},
            "ok_share": {"value": ok / len(outcomes), "unit": "1"},
        }
    return {"correct": not problems, "attempted": len(outcomes), "failed": errors,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Steadiness: two sets of runs of the same code
# ---------------------------------------------------------------------------

def quartile_spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def steadiness(args) -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload_list or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    values = {}  # (set, workload, metric) -> list
    agree = True
    for set_index in (0, 1):
        for seed in range(1, args.seeds + 1):
            for workload in workloads:
                cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                                      timeout=600)
                if proc.returncode != 0:
                    print(f"set {set_index} seed {seed} {workload}: exit {proc.returncode}\n"
                          f"{proc.stderr}", flush=True)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"set {set_index} seed {seed} {workload}: output check failed", flush=True)
                    agree = False
                for name, metric in result["metrics"].items():
                    values.setdefault((set_index, workload, name), []).append(metric["value"])
                print(f"set {set_index} seed {seed} {workload}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
    print(f"{'workload':18} {'metric':16} {'bound':>6} {'spread1':>8} {'spread2':>8} "
          f"{'drift':>8}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            first, second = values[(0, workload, name)], values[(1, workload, name)]
            spreads = [quartile_spread(first), quartile_spread(second)]
            m1, m2 = statistics.median(first), statistics.median(second)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (m2 - m1) / abs(m1) if m1 else math.inf
            bound = metric["bound"]
            ok = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            steady = ok and max(spreads) <= bound / 3 and drift <= bound / 3
            agree &= ok
            print(f"{workload:18} {name:16} {bound:6.3f} {spreads[0]:8.4f} {spreads[1]:8.4f} "
                  f"{drift:8.4f}  {'steady' if steady else 'within bounds' if ok else 'OUT OF BOUNDS'}")
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of seeds 1..--seeds and compare them")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload_list or len(args.workload_list) != 1 or args.seconds is None:
        parser.error("give exactly one --workload and --seconds")
    args.workload = args.workload_list[0]
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
