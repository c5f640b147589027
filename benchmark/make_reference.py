"""Generate ``reference.json``, the table the benchmark checks against.

Usage (from the repository root; takes about 15 minutes on two cores):

    python3 benchmark/make_reference.py [--part masses|sweep|popt|oil ...]

Method
------
masses  The 12 bit-resolved region masses of the default passive source
        (mu_max = 0.5, default geometry).  They are computed without the
        pipeline's quadrature: the raw phase differences a = phi1 - phi2
        and b = phi3 - phi4 are uniform, u = cos^2(a/2) = mu_e / mu_max
        and v = cos^2(b/2) = mu_l / mu_max, the polar-angle window is a
        window on v / u = tan^2(theta/2) and the intensity window one on
        u + v.  For fixed a the admissible b form one interval in closed
        form, so each mass is a 1-D integral over a, done by adaptive
        quadrature to ~1e-13.  phi is uniform and independent, so the
        phi window enters as a factor.
sweep   Refined passive rates at every sweep menu point, evaluated at 24,
        48 and 96 nodes per axis and extrapolated by Richardson with the
        observed order; where the three rates are not monotone the
        96-node rate is the reference.  Region moments are memoised across distances
        (they do not depend on the channel).  Where the package's simplex
        reports a program infeasible or fails its own feasibility check,
        the generator solves the same program with scipy's HiGHS
        (``linprog``) and records that it did.
popt    Reference optima for the passive-optimize menu: the package's
        ``optimize_point`` result polished by Nelder-Mead (at most 30
        evaluations) over (mu_max, delta_theta_z) at the production 48
        nodes, with the HiGHS fallback above.  The table keeps the larger
        of the two.
oil     Reference optima for the oil-optimize menu: Nelder-Mead over
        (mu_in, mu_i1) from the ``optimize_point`` result and from the
        best point of a log-spaced 8 x 8 start grid, with the same
        fallback.  A point where no probe gives a positive rate has
        reference 0 and is left out of the ratio.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import time

import numpy as np
from scipy import integrate, optimize

import common

lq = common.import_leakyqkd()
from leakyqkd import driver, lp, passive  # noqa: E402

FALLBACKS: list = []


# ---------------------------------------------------------------------------
# Exact region masses
# ---------------------------------------------------------------------------

def _b_of_v(v: float) -> float:
    """b in [0, pi] with cos^2(b/2) = v (decreasing in v)."""
    return 2.0 * math.acos(math.sqrt(min(1.0, max(0.0, v))))


def region_mass(bit: int, basis: str, intensity: str, geometry) -> float:
    """Region mass; it does not depend on mu_max, since the windows are
    set in units of mu_max."""
    g = geometry
    if basis == "Z":
        lo_theta, hi_theta = ((0.0, g.delta_theta_z) if bit == 0
                              else (math.pi - g.delta_theta_z, math.pi))
        phi_share = 1.0
    else:
        lo_theta, hi_theta = math.pi / 2 - g.delta_theta_x, math.pi / 2 + g.delta_theta_x
        phi_share = 2.0 * g.delta_phi_x / (2.0 * math.pi)
    r_lo = math.tan(lo_theta / 2.0) ** 2
    r_hi = math.inf if hi_theta >= math.pi else math.tan(hi_theta / 2.0) ** 2
    t_lo, t_hi = {"I0": (g.t1, 2.0), "I1": (g.t2, g.t1), "I2": (0.0, g.t2)}[intensity]

    def inner(a: float) -> float:
        u = math.cos(a / 2.0) ** 2
        v_lo = max(0.0, r_lo * u, t_lo - u)
        v_hi = min(1.0, r_hi * u, t_hi - u)
        return _b_of_v(v_lo) - _b_of_v(v_hi) if v_hi > v_lo else 0.0

    # kinks where the active bound switches: u = t/(1+r), u = t, u = 1/r
    kinks = set()
    for t in (t_lo, t_hi):
        for r in (r_lo, r_hi):
            if math.isfinite(r):
                kinks.add(t / (1.0 + r))
        kinks.add(t)
        kinks.add(t - 1.0)
    for r in (r_lo, r_hi):
        if math.isfinite(r) and r > 0.0:
            kinks.add(1.0 / r)
    points = sorted(2.0 * math.acos(math.sqrt(u)) for u in kinks if 0.0 < u < 1.0)
    edges = [0.0] + points + [math.pi]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            val, _ = integrate.quad(inner, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=400)
            total += val
    return phi_share * total / math.pi ** 2


def masses_part(ref: dict):
    config = common.passive_config(driver)
    geometry = driver._geometry(config)
    exact, at48 = {}, {}
    for basis in driver.BASES:
        for intensity in driver.INTENSITIES:
            for bit in driver.BITS:
                key = f"{bit}:{basis}:{intensity}"
                exact[key] = region_mass(bit, basis, intensity, geometry)
                grid = (48, 20 if basis == "Z" else 48, 48)
                nodes = passive.build_region_nodes(bit, basis, intensity, geometry,
                                                   config.mu_max, grid)
                at48[key] = nodes.mass
    ref["masses"] = {
        "source": {"mu_max": config.mu_max, "delta_theta_z": config.delta_theta_z,
                   "delta_theta_x": config.delta_theta_x, "delta_phi_x": config.delta_phi_x,
                   "t1": config.t1, "t2": config.t2},
        "exact": exact,
        "rel_err_at_48_nodes": {k: (at48[k] - exact[k]) / exact[k] for k in exact},
    }


# ---------------------------------------------------------------------------
# Pipeline with memoised region moments and a HiGHS fallback
# ---------------------------------------------------------------------------

_original_solve = lp.solve
_original_region_moments = passive.region_moments
_MOMENTS: dict = {}


def _linprog(spec):
    names = list(spec.variables)
    index = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in spec.objective.items():
        c[index[name]] = coef
    sign = 1.0 if spec.sense == "min" else -1.0
    rows, rhs = [], []
    for con in spec.constraints:
        row = np.zeros(len(names))
        for name, coef in con.coeffs.items():
            row[index[name]] = coef
        flip = 1.0 if con.sense == "<=" else -1.0
        rows.append(flip * row)
        rhs.append(flip * con.rhs)
    res = optimize.linprog(sign * c, A_ub=np.array(rows), b_ub=np.array(rhs),
                           bounds=[(0.0, 1.0)] * len(names), method="highs")
    if res.status != 0:
        return lp.LPSolution(status="infeasible", value=None, assignment={}, iterations=0)
    assignment = {name: float(res.x[i]) for i, name in enumerate(names)}
    return lp.LPSolution(status="optimal", value=float(c @ res.x), assignment=assignment,
                         iterations=0)


def _solve_with_fallback(spec):
    try:
        solution = _original_solve(spec)
    except RuntimeError as exc:
        reason = f"simplex raised: {exc}"
    else:
        if solution.status == "optimal":
            return solution
        reason = f"simplex reported {solution.status}"
    fallback = _linprog(spec)
    FALLBACKS.append({"reason": reason, "highs_status": fallback.status,
                      "highs_value": fallback.value,
                      "shape": [len(spec.variables), len(spec.constraints)]})
    return fallback


def _memo_region_moments(region, params, nodes=passive.DEFAULT_NODES, n_tail=20,
                         chunk=16384, node_sets=None):
    """The driver always passes ``node_sets``; they identify the quadrature."""
    key = (region, repr(params), n_tail,
           tuple((s.theta.size, float(s.weight.sum()), float(s.mu.sum())) for s in node_sets))
    if key not in _MOMENTS:
        _MOMENTS[key] = _original_region_moments(region, params, nodes, n_tail, chunk,
                                                 node_sets=node_sets)
    return _MOMENTS[key]


def install_patches(fallback: bool, memoise: bool = False):
    lp.solve = _solve_with_fallback if fallback else _original_solve
    passive.region_moments = _memo_region_moments if memoise else _original_region_moments


def _richardson(r24: float, r48: float, r96: float) -> tuple[float, float | None]:
    """Extrapolated rate and observed order; the 96-node rate and None
    where the three rates do not converge monotonically."""
    d1, d2 = r24 - r48, r48 - r96
    if d1 == 0.0 or d2 == 0.0 or d1 / d2 <= 1.0:
        return r96, None
    order = math.log2(d1 / d2)
    return r96 + (r96 - r48) / (2.0 ** order - 1.0), order


def sweep_part(ref: dict):
    install_patches(fallback=True, memoise=True)
    config = common.passive_config(driver)
    points = {}
    for distance in common.SWEEP_KM:
        points[common.point_key(distance, common.SWEEP_ATT_DB)] = {"distance_km": distance}
    for nodes in (24, 48, 96):
        _MOMENTS.clear()
        for entry in points.values():
            start = len(FALLBACKS)
            report = driver.key_rate(config, entry["distance_km"], common.SWEEP_ATT_DB,
                                     nodes=nodes)
            entry[f"rate_{nodes}"] = report.rate
            entry[f"status_{nodes}"] = report.status
            entry[f"highs_fallbacks_{nodes}"] = FALLBACKS[start:]
            print(f"sweep {entry['distance_km']} km, {nodes} nodes: {report.rate!r} "
                  f"{report.status} fallbacks={len(FALLBACKS) - start}", flush=True)
    for entry in points.values():
        rate, order = _richardson(entry["rate_24"], entry["rate_48"], entry["rate_96"])
        entry["rate"] = rate
        entry["observed_order"] = order
        entry["rel_err_at_48_nodes"] = (entry["rate_48"] - rate) / rate if rate else None
    ref["sweep"] = {"att_db": common.SWEEP_ATT_DB, "analysis": config.analysis,
                    "points": points}


def _passive_rate(config, distance, att, mu_max, delta_theta_z):
    lo, hi = config.optimizer.mu_max_bracket
    lo2, hi2 = config.optimizer.delta_theta_z_bracket
    if not (lo <= mu_max <= hi and lo2 <= delta_theta_z <= hi2):
        return 0.0
    cfg = dataclasses.replace(config, mu_max=float(mu_max), delta_theta_z=float(delta_theta_z))
    try:
        return driver.key_rate(cfg, distance, att).rate
    except (lq.InfeasibleProgramError, passive.EmptyRegionError, ValueError):
        return 0.0


def popt_part(ref: dict):
    config = common.passive_config(driver)
    points = {}
    for distance in (common.POPT_KM,):
        att = common.POPT_ATT_DB
        install_patches(fallback=False)
        best, report = driver.optimize_point(config, distance, att)
        at_commit = {"mu_max": best.mu_max, "delta_theta_z": best.delta_theta_z,
                     "rate": report.rate, "status": report.status}
        install_patches(fallback=True)
        start = len(FALLBACKS)
        t0 = time.perf_counter()
        res = optimize.minimize(
            lambda x: -_passive_rate(config, distance, att, x[0], x[1]),
            x0=[best.mu_max, best.delta_theta_z], method="Nelder-Mead",
            options={"maxfev": 30, "xatol": 1e-4, "fatol": 1e-12,
                     "initial_simplex": [[best.mu_max, best.delta_theta_z],
                                         [best.mu_max * 1.05, best.delta_theta_z],
                                         [best.mu_max, best.delta_theta_z * 1.05]]})
        polished = -float(res.fun)
        if polished >= report.rate:
            optimum = {"mu_max": float(res.x[0]), "delta_theta_z": float(res.x[1]),
                       "rate": polished}
        else:
            optimum = {"mu_max": best.mu_max, "delta_theta_z": best.delta_theta_z,
                       "rate": report.rate}
        points[common.point_key(distance, att)] = {
            "distance_km": distance, "att_db": att, "optimize_point": at_commit,
            "reference": optimum, "nelder_mead_evaluations": int(res.nfev),
            "highs_fallbacks": len(FALLBACKS) - start}
        print(f"popt {distance} km: optimize_point {report.rate!r}, reference "
              f"{optimum['rate']!r} ({time.perf_counter() - t0:.0f} s)", flush=True)
    ref["passive_optimize"] = {"analysis": config.analysis, "nodes": config.quadrature_nodes,
                               "points": points}


def _oil_rate(config, distance, att, mu_in, mu_i1):
    lo, hi = config.optimizer.oil_intensity_bracket
    if not (lo <= mu_in <= hi and config.mu_i2 * 1.001 <= mu_i1 <= mu_in * 0.999):
        return 0.0
    cfg = dataclasses.replace(config, mu_in=float(mu_in), mu_i1=float(mu_i1))
    try:
        return driver.key_rate(cfg, distance, att).rate
    except (lq.InfeasibleProgramError, ValueError):
        return 0.0


def oil_part(ref: dict):
    config = common.oil_config(driver)
    points = {}
    grid = np.geomspace(2e-3, 1.0, 8)
    for distance in sorted(common.OIL_ALWAYS_KM + common.OIL_CHOICE_KM):
        for att in common.OIL_ATT_DB:
            install_patches(fallback=False)
            try:
                best, report = driver.optimize_point(config, distance, att)
                at_commit = {"mu_in": best.mu_in, "mu_i1": best.mu_i1,
                             "rate": report.rate, "status": report.status}
            except lq.InfeasibleProgramError as exc:
                best, at_commit = config, {"status": f"failed: {exc}"}
            install_patches(fallback=True)
            start = len(FALLBACKS)
            starts = [(best.mu_in, best.mu_i1)]
            scored = [(_oil_rate(config, distance, att, a, b), a, b)
                      for a in grid for b in grid if b < a]
            starts.append(max(scored)[1:])
            candidates = [max(scored)]
            for x0 in starts:
                res = optimize.minimize(
                    lambda x: -_oil_rate(config, distance, att, x[0], x[1]),
                    x0=list(x0), method="Nelder-Mead",
                    options={"maxfev": 400, "xatol": 1e-7, "fatol": 1e-14})
                candidates.append((-float(res.fun), float(res.x[0]), float(res.x[1])))
            rate, mu_in, mu_i1 = max(candidates)
            points[common.point_key(distance, att)] = {
                "distance_km": distance, "att_db": att, "optimize_point": at_commit,
                "reference": {"mu_in": mu_in, "mu_i1": mu_i1, "rate": rate},
                "highs_fallbacks": len(FALLBACKS) - start}
            print(f"oil {distance} km {att} dB: optimize_point {at_commit.get('rate')!r}, "
                  f"reference {rate!r}", flush=True)
    ref["oil_optimize"] = {"points": points}


PARTS = {"masses": masses_part, "sweep": sweep_part, "popt": popt_part, "oil": oil_part}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", action="append", choices=sorted(PARTS))
    parser.add_argument("--out", default=str(common.REFERENCE_PATH))
    args = parser.parse_args()
    out = common.Path(args.out)
    ref = json.loads(out.read_text()) if out.exists() else {}
    ref["method"] = __doc__.split("Method\n------\n", 1)[1].strip()
    for name in args.part or list(PARTS):
        t0 = time.perf_counter()
        PARTS[name](ref)
        print(f"part {name}: {time.perf_counter() - t0:.0f} s", flush=True)
        out.write_text(json.dumps(ref, indent=1, sort_keys=True, allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
