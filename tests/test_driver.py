import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import asdict_config_hash, fidelity, pure_state_fidelity
from leakyqkd import cli, coin, driver, lp, passive
from leakyqkd.driver import ProtocolConfig, binary_entropy, config_from_dict
from leakyqkd.linalg import density_factor, factor_fidelity
from leakyqkd.lp import INTENSITY_PAIRS, InfeasibleProgramError


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-4)
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_config_roundtrip_and_unknown_keys():
    config = ProtocolConfig(transmitter="oil", mu_in=0.4,
                            distances_km=(25.0, 50.0), att_db=(60.0,))
    data = driver.config_to_dict(config)
    again = config_from_dict(json.loads(json.dumps(data)))
    assert again == config
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"transmitter": "oil", "bogus": 1})
    with pytest.raises(ValueError, match="unknown optimizer keys"):
        config_from_dict({"optimizer": {"bogus": 1}})
    with pytest.raises(ValueError):
        config_from_dict({"transmitter": "oil", "analysis": "refined"})
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"seed": 1})  # the pipeline is deterministic; no seed to set


def test_config_hash_tracks_content():
    a = ProtocolConfig()
    b = dataclasses.replace(a, mu_max=0.6)
    assert driver.config_hash(a) != driver.config_hash(b)
    assert driver.config_hash(a) == driver.config_hash(ProtocolConfig())


OIL_CONFIG = ProtocolConfig(transmitter="oil", mu_in=0.5, mu_i1=0.1, mu_i2=1e-4)


def test_config_hash_is_that_of_the_asdict_route():
    """`config_hash` serialises the fields directly; its digest is the one
    `dataclasses.asdict` gives, also with non-default optimizer brackets
    and grids."""
    settings = driver.OptimizerSettings(passes=1, iterations=4, search_nodes=10,
                                        mu_max_bracket=(0.1, 0.9),
                                        delta_theta_z_bracket=(0.02, 0.4),
                                        oil_intensity_bracket=(0.01, 0.8))
    custom = ProtocolConfig(distances_km=(25.0, 75.5), att_db=(30, 120.0), optimizer=settings)
    for config in (ProtocolConfig(), OIL_CONFIG, custom):
        assert driver.config_hash(config) == asdict_config_hash(config)


def test_oil_report_contents():
    report = driver.key_rate(OIL_CONFIG, 50.0, 120.0)
    assert report.rate > 0.0
    assert report.rate == max(0.0, report.rate_raw)
    assert 0.0 <= report.e_x_upper <= report.e_ph_upper <= 1.0
    # the coin overlap and the key/test mixture fidelity are exactly 1
    assert report.f_prime == 1.0
    assert report.e_ph_upper == report.e_x_upper
    assert report.details["y_lower"]["Z"] == report.y1_lower == report.details["y_lower"]["X"]
    assert report.details["intensities"]["I2"] == pytest.approx(1e-4, abs=1e-12)
    assert report.provenance["config_hash"] == driver.config_hash(OIL_CONFIG)


def test_oil_estimation_takes_one_fidelity_svd_per_probe(monkeypatch):
    """The bit mixtures and pure settings of every sector share one batched
    SVD: the products of each photon number are 2 x 2."""
    shapes, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    driver._oil_estimation(OIL_CONFIG, 50.0, 120.0)
    assert shapes == [(OIL_CONFIG.n_cut + 1, 3, 3, 2, 2)]


def test_oil_rate_monotone_in_attenuation():
    rates = [driver.key_rate(OIL_CONFIG, 50.0, att).rate
             for att in (30.0, 50.0, 70.0, 90.0, 120.0)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[0] < rates[-1]


def test_oil_rate_decreases_with_distance():
    rates = [driver.key_rate(OIL_CONFIG, d, 120.0).rate for d in (25.0, 75.0, 125.0)]
    assert rates[0] > rates[1] > rates[2]


PASSIVE_CONFIG = ProtocolConfig(transmitter="passive", analysis="baseline",
                                mu_max=0.5, delta_theta_z=0.1)


def test_passive_report_completeness():
    report = driver.key_rate(PASSIVE_CONFIG, 50.0, 120.0, nodes=16)
    assert report.rate > 0.0
    assert report.rate_raw == pytest.approx(report.rate)
    for field in ("y_lower", "gamma_key_upper", "overlap_real", "region_mass",
                  "gains", "photon_probabilities_key", "omega"):
        assert field in report.details
    assert 0.0 < report.p_region_key < 1.0
    assert 0.0 < report.p1_given_region < 1.0
    assert 0.0 <= report.error_key <= 0.5
    assert report.q_key_weight == 1.0  # baseline analysis has no key split
    assert report.provenance["nodes"] == 16


def test_passive_zero_rate_on_degenerate_coin():
    report = driver.key_rate(PASSIVE_CONFIG, 50.0, 12.0, nodes=12)
    assert report.rate == 0.0


def test_refined_reports_key_weight():
    config = dataclasses.replace(PASSIVE_CONFIG, analysis="refined")
    report = driver.key_rate(config, 50.0, 120.0, nodes=16)
    assert 0.9 < report.q_key_weight < 1.0
    assert report.rate > 0.0


def test_refined_zero_rate_report_keeps_the_key_weight():
    config = dataclasses.replace(PASSIVE_CONFIG, analysis="refined")
    report = driver.key_rate(config, 350.0, 10.0, nodes=12)
    assert report.status.startswith("zero-rate:")
    q_weight = driver.passive_source(config, 10.0, nodes=12).q_weight
    assert report.q_key_weight == q_weight < 1.0


def test_sweep_grid_shape_and_failure_tolerance():
    config = dataclasses.replace(OIL_CONFIG, distances_km=(25.0, 50.0, 75.0),
                                 att_db=(30.0, 70.0, 120.0))
    reports = driver.sweep(config)
    assert len(reports) == 9
    grid = [(r.distance_km, r.att_db) for r in reports]
    assert grid == [(d, a) for d in (25.0, 50.0, 75.0) for a in (30.0, 70.0, 120.0)]
    csv_text = driver.reports_to_csv(reports)
    assert csv_text.count("\n") == 10  # header + 9 rows
    assert csv_text.splitlines()[0].startswith("transmitter,distance_km,att_db,analysis,R,")


def test_sweep_records_failures_and_continues():
    config = dataclasses.replace(
        OIL_CONFIG, mu_in=2e-3, mu_i1=1.5e-3, mu_i2=1e-4,
        distances_km=(200.0,), att_db=(10.0, 120.0))
    reports = driver.sweep(config)
    assert len(reports) == 2
    assert all(r.rate == 0.0 or r.rate > 0.0 for r in reports)  # no exception escaped


def test_csv_determinism_same_config():
    config = dataclasses.replace(OIL_CONFIG, distances_km=(40.0,), att_db=(80.0,))
    first = driver.reports_to_csv(driver.sweep(config))
    second = driver.reports_to_csv(driver.sweep(config))
    assert first == second


def test_optimized_rate_monotone_in_distance():
    config = dataclasses.replace(
        OIL_CONFIG, optimizer=driver.OptimizerSettings(passes=1, iterations=5))
    _, near = driver.optimize_point(config, 25.0, 120.0)
    _, far = driver.optimize_point(config, 75.0, 120.0)
    assert near.rate >= far.rate > 0.0


def test_optimizer_flags_dead_search_grid():
    config = dataclasses.replace(
        OIL_CONFIG, optimizer=driver.OptimizerSettings(
            passes=1, iterations=3, oil_intensity_bracket=(1e-3, 2e-3)))
    _, report = driver.optimize_point(config, 350.0, 10.0)
    assert report.rate == 0.0
    assert report.status != "ok"


def test_oil_reports_vanishing_test_yield_as_zero_rate():
    report = driver.key_rate(OIL_CONFIG, 350.0, 10.0)
    assert report.rate == 0.0
    assert report.status.startswith("zero-rate: vanishing test-basis yield bound")
    assert report.p_region_key == 1.0


def test_sweep_reports_vanishing_yield_alike_for_both_transmitters():
    point = {"distances_km": (350.0,), "att_db": (10.0,)}
    passive_config = dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=16, **point)
    for config in (dataclasses.replace(OIL_CONFIG, **point), passive_config):
        (report,) = driver.sweep(config)
        assert report.rate == 0.0
        assert report.status.startswith("zero-rate: vanishing test-basis yield bound"), \
            (config.transmitter, report.status)


def test_optimizer_skips_decoy_above_signal_probes(monkeypatch):
    evaluated = []
    real_key_rate = driver.key_rate

    def recording_key_rate(cfg, *args, **kwargs):
        evaluated.append((cfg.mu_in, cfg.mu_i1, cfg.mu_i2))
        return real_key_rate(cfg, *args, **kwargs)

    monkeypatch.setattr(driver, "key_rate", recording_key_rate)
    config = dataclasses.replace(
        OIL_CONFIG, optimizer=driver.OptimizerSettings(
            passes=1, iterations=2, oil_intensity_bracket=(1e-3, 0.2)))
    _, report = driver.optimize_point(config, 50.0, 120.0)
    assert report.rate > 0.0
    assert evaluated
    assert all(mu_i1 <= mu_in and mu_i2 <= mu_in for mu_in, mu_i1, mu_i2 in evaluated)


def test_optimizer_propagates_value_error_from_key_rate(monkeypatch):
    def broken_key_rate(*args, **kwargs):
        raise ValueError("bug inside the pipeline")

    monkeypatch.setattr(driver, "key_rate", broken_key_rate)
    config = dataclasses.replace(
        OIL_CONFIG, optimizer=driver.OptimizerSettings(passes=1, iterations=2))
    with pytest.raises(ValueError, match="bug inside the pipeline"):
        driver.optimize_point(config, 50.0, 120.0)


def test_passive_rate_monotone_in_attenuation_at_fixed_parameters():
    rates = [driver.key_rate(PASSIVE_CONFIG, 50.0, att, nodes=16).rate
             for att in (30.0, 60.0, 90.0, 120.0)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_optimizer_improves_over_default_and_is_deterministic():
    config = dataclasses.replace(
        OIL_CONFIG, optimizer=driver.OptimizerSettings(passes=1, iterations=5))
    base = driver.key_rate(config, 50.0, 120.0).rate
    best_a, report_a = driver.optimize_point(config, 50.0, 120.0)
    best_b, report_b = driver.optimize_point(config, 50.0, 120.0)
    assert report_a.rate > base
    assert best_a == best_b
    assert report_a.rate == report_b.rate


def _passive_grid(analysis):
    return dataclasses.replace(PASSIVE_CONFIG, analysis=analysis, quadrature_nodes=16,
                               distances_km=(25.0, 75.0, 100.0), att_db=(60.0, 120.0))


@pytest.mark.parametrize("analysis", ["baseline", "refined"])
def test_passive_sweep_shares_source_and_matches_per_point_rates(analysis):
    config = _passive_grid(analysis)
    reports = driver.sweep(config)
    per_point = [driver.key_rate(config, d, a)
                 for d in config.distances_km for a in config.att_db]
    assert driver.reports_to_csv(reports) == driver.reports_to_csv(per_point)
    for shared, single in zip(reports, per_point):
        assert shared.provenance["timings"]["source_shared"] is True
        assert single.provenance["timings"]["source_shared"] is False
        assert shared.provenance["timings"]["source_s"] > 0.0
        assert shared.provenance["timings"]["channel_s"] > 0.0


def test_passive_sweep_builds_one_source_per_attenuation_per_call(monkeypatch):
    calls = []
    real_region_moments = passive.region_moments

    def counting_region_moments(*args, **kwargs):
        calls.append(args[0])
        return real_region_moments(*args, **kwargs)

    monkeypatch.setattr(passive, "region_moments", counting_region_moments)
    config = dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=12,
                                 distances_km=(25.0, 50.0, 75.0), att_db=(60.0, 120.0))
    driver.sweep(config)
    assert len(calls) == 12 * 2
    driver.sweep(config)  # no memo survives the call
    assert len(calls) == 2 * 12 * 2


def test_passive_source_failure_fails_every_point_at_its_attenuation(monkeypatch):
    bad_omega = PASSIVE_CONFIG.mu_max * 10.0 ** (-60.0 / 10.0)
    raised = []
    real_region_moments = passive.region_moments

    def failing_region_moments(region, params, *args, **kwargs):
        if params.omega == bad_omega:
            raised.append(region)
            raise passive.EmptyRegionError(f"region {region} has zero mass")
        return real_region_moments(region, params, *args, **kwargs)

    monkeypatch.setattr(passive, "region_moments", failing_region_moments)
    config = dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=12,
                                 distances_km=(25.0, 50.0), att_db=(60.0, 120.0))
    reports = driver.sweep(config)
    assert [(r.distance_km, r.att_db) for r in reports] == [
        (25.0, 60.0), (25.0, 120.0), (50.0, 60.0), (50.0, 120.0)]
    for report in reports:
        if report.att_db == 60.0:
            assert report.status.startswith("failed: region"), report.status
            assert report.rate == 0.0
        else:
            assert report.status == "ok"
    assert len(raised) == 1  # the failed source is not rebuilt per distance


def test_sweep_builds_each_region_grid_once(monkeypatch):
    built = []
    real_build = passive.build_region_nodes

    def counted_build(*args, **kwargs):
        built.append(args[:3])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(passive, "build_region_nodes", counted_build)
    config = dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=12,
                                 distances_km=(50.0, 100.0), att_db=(120.0,))
    assert [r.status for r in driver.sweep(config)] == ["ok", "ok"]
    # the source keeps its 12 boxes' nodes for the channel of every distance
    assert len(built) == 12 and len(set(built)) == 12


def test_degenerate_coin_is_recorded_not_warned():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = driver.key_rate(PASSIVE_CONFIG, 300.0, 120.0, nodes=12)
    assert report.status == "ok"
    assert report.f_prime == 0.0
    assert report.details["diagnostics"] == [
        "coin imbalance exceeds yield; phase-error bound degenerates to 1"]
    healthy = driver.key_rate(PASSIVE_CONFIG, 50.0, 120.0, nodes=12)
    assert healthy.details["diagnostics"] == []
    assert driver.key_rate(OIL_CONFIG, 50.0, 120.0).details["diagnostics"] == []


def test_degenerate_key_opp_split_is_recorded_in_every_report(monkeypatch):
    # the first box's key eigenvalue lowered onto its opp eigenvalue
    real_eigendata = driver.coin.state_eigendata
    calls = []

    def eigendata(rho):
        eig = real_eigendata(rho)
        calls.append(None)
        if len(calls) > 1:
            return eig
        weights = eig.weights.copy()
        weights[0] = weights[1]
        return dataclasses.replace(eig, weights=weights)

    monkeypatch.setattr(driver.coin, "state_eigendata", eigendata)
    config = dataclasses.replace(PASSIVE_CONFIG, analysis="refined")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = driver.passive_source(config, 120.0, nodes=12)
        reports = [driver.key_rate(config, d, 120.0, nodes=12, source=source)
                   for d in (50.0, 300.0)]
    note = "Z:I0 bit 0: degenerate key/opp eigenvalues; ordering fixed by gauge"
    assert source.diagnostics == (note,)
    for report in reports:
        assert report.details["diagnostics"][0] == note


def test_lp_provenance_has_one_record_per_program():
    refined = driver.key_rate(dataclasses.replace(PASSIVE_CONFIG, analysis="refined"),
                              50.0, 120.0, nodes=12)
    baseline = driver.key_rate(PASSIVE_CONFIG, 50.0, 120.0, nodes=12)
    oil_report = driver.key_rate(OIL_CONFIG, 50.0, 120.0)
    passive_labels = ["Z yield", "X yield", "bit-0 error", "bit-1 error"]
    for report, labels in ((refined, passive_labels), (baseline, passive_labels),
                           (oil_report, ["X yield", "bit-0 error", "bit-1 error"])):
        records = report.provenance["lp"]
        assert [r["label"] for r in records] == labels
        for record in records:
            assert set(record) == {"label", "status", "iterations", "rows", "cols", "start"}
            assert (record["status"], record["start"]) == ("optimal", "cold")
            assert record["rows"] > record["cols"] > 0
        assert report.provenance["lp_iterations"] == sum(r["iterations"] for r in records)
    assert [r["cols"] for r in refined.provenance["lp"][2:]] == [42, 42]


def test_oil_optimizer_probes_start_warm(monkeypatch):
    real_solve = driver.lp.solve
    started = []

    def recorded(spec, start=None):
        solution = real_solve(spec, start)
        if start is not None:
            started.append((spec, solution))
        return solution

    monkeypatch.setattr(driver.lp, "solve", recorded)
    driver.optimize_point(OIL_CONFIG, 100.0, 120.0)
    warm = [(spec, s) for spec, s in started if s.start == "warm"]
    assert len(started) > 50 and len(warm) >= 0.9 * len(started)
    cold = [real_solve(spec) for spec, _ in warm]
    assert [s.value for _, s in warm] == pytest.approx([c.value for c in cold], rel=1e-8, abs=1e-13)
    assert 10 * sum(s.iterations for _, s in warm) < sum(c.iterations for c in cold)


def test_oil_optimizer_returns_its_winning_probe(monkeypatch):
    """At 100 km/30 dB the winner repeats an earlier probe (a memo hit)."""
    real_key_rate = driver.key_rate
    probes = []

    def recorded(*args, **kwargs):
        report = real_key_rate(*args, **kwargs)
        if kwargs.get("starts") is not None:
            probes.append(report)
        return report

    monkeypatch.setattr(driver, "key_rate", recorded)
    _, report = driver.optimize_point(OIL_CONFIG, 100.0, 30.0)
    assert any(report is probe for probe in probes)


def test_sweep_and_passive_production_reports_solve_cold():
    reports = driver.sweep(dataclasses.replace(OIL_CONFIG, distances_km=(50.0, 100.0),
                                               att_db=(30.0, 120.0)))
    settings = driver.OptimizerSettings(passes=1, iterations=2, search_nodes=4)
    _, passive_best = driver.optimize_point(
        dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=8, optimizer=settings), 50.0, 120.0)
    records = [r for report in [*reports, passive_best] for r in report.provenance["lp"]]
    assert len(records) == 4 * 3 + 4
    assert {r["start"] for r in records} == {"cold"}


def test_failed_sweep_row_keeps_its_lp_records(monkeypatch):
    real_solve = driver.lp.solve
    solved = []

    def x_yield_infeasible(spec):
        solved.append(spec)
        if len(solved) == 2:  # passive solves the Z yield first, then the X yield
            return driver.lp.LPSolution(status="infeasible", value=None, x=None,
                                        iterations=0)
        return real_solve(spec)

    monkeypatch.setattr(driver.lp, "solve", x_yield_infeasible)
    config = dataclasses.replace(PASSIVE_CONFIG, quadrature_nodes=12, distances_km=(50.0,),
                                 att_db=(120.0,))
    (report,) = driver.sweep(config)
    assert report.status == "failed: X yield program is infeasible"
    assert report.details == {"diagnostics": []}
    assert [(r["label"], r["status"]) for r in report.provenance["lp"]] == [
        ("Z yield", "optimal"), ("X yield", "infeasible")]
    # the CSV's lp_iterations and nodes cells stay 0 and empty
    assert "lp_iterations" not in report.provenance and "nodes" not in report.provenance
    assert report.csv_row().split(",")[-3:-1] == ["0", ""]


def test_failed_and_zero_rate_rows_carry_the_same_no_key_values(monkeypatch):
    point = {"distances_km": (350.0,), "att_db": (10.0,)}
    (zero,) = driver.sweep(dataclasses.replace(OIL_CONFIG, **point))

    def infeasible(*args, **kwargs):
        raise InfeasibleProgramError("X yield program is infeasible")

    monkeypatch.setattr(driver, "key_rate", infeasible)
    (failed,) = driver.sweep(dataclasses.replace(OIL_CONFIG, **point))
    assert zero.status.startswith("zero-rate:") and failed.status.startswith("failed:")
    cells = [dict(zip(driver.KeyRateReport.CSV_FIELDS, r.csv_row().split(",")))
             for r in (zero, failed)]
    no_key = {"R": "0.0", "R_raw": "0.0", "Y1L": "0.0", "eph_U": "0.5", "eX_U": "1.0",
              "F_prime": "0.0", "E_key": "0.0"}
    for row in cells:
        assert {name: row[name] for name in no_key} == no_key


def test_ok_reports_of_both_transmitters_share_their_keys():
    passive_report = driver.key_rate(PASSIVE_CONFIG, 50.0, 120.0, nodes=12)
    oil_report = driver.key_rate(OIL_CONFIG, 50.0, 120.0)
    for report in (passive_report, oil_report):
        assert report.status == "ok"
        assert {"y_lower", "gamma_key_upper", "overlap_real", "diagnostics"} <= set(report.details)
        assert {"config_hash", "nodes", "lp_iterations", "lp", "timings"} <= set(report.provenance)
        timings = report.provenance["timings"]
        assert timings["channel_s"] > timings["solve_s"] > 0.0
    assert set(oil_report.provenance["timings"]) == {"inputs_s", "channel_s", "solve_s"}


def test_every_report_times_its_input_builder():
    """`inputs_s`, the time in `_oil_estimation` or `_passive_estimation`, sits
    in every report's JSON timings beside `solve_s`, both within `channel_s`
    (a shared passive source, an oil zero-rate point and an optimizer probe
    included), and never in the CSV."""
    source = driver.passive_source(PASSIVE_CONFIG, 120.0, nodes=12)
    reports = [driver.key_rate(PASSIVE_CONFIG, 50.0, 120.0, nodes=12),
               driver.key_rate(PASSIVE_CONFIG, 75.0, 120.0, nodes=12, source=source),
               driver.key_rate(OIL_CONFIG, 50.0, 120.0),
               driver.key_rate(OIL_CONFIG, 350.0, 10.0),
               driver.key_rate(OIL_CONFIG, 100.0, 30.0, starts={})]
    assert reports[3].status.startswith("zero-rate:")
    for report in reports:
        timings = report.provenance["timings"]
        assert timings["inputs_s"] > 0.0
        assert timings["inputs_s"] + timings["solve_s"] <= timings["channel_s"]
        assert "inputs_s" not in driver.reports_to_csv([report])


GOLDEN_GRID = Path(__file__).parent / "data" / "golden_grid.csv"
GOLDEN_CONFIGS = (
    ProtocolConfig(transmitter="passive", analysis="baseline", quadrature_nodes=16,
                   distances_km=(25.0, 150.0, 300.0), att_db=(30.0, 120.0)),
    ProtocolConfig(transmitter="passive", analysis="refined", quadrature_nodes=16,
                   distances_km=(100.0,), att_db=(70.0, 120.0)),
    ProtocolConfig(transmitter="oil", distances_km=(100.0, 350.0), att_db=(30.0, 120.0)),
)


def golden_csv() -> str:
    return driver.reports_to_csv([r for c in GOLDEN_CONFIGS for r in driver.sweep(c)])


def test_golden_grid_csv_is_byte_identical():
    """Pins every CSV cell of both transmitters, zero-rate rows and the
    degenerate-coin row (passive 300 km/120 dB) included; every program
    on these rows solves on its first attempt.  A change that
    moves numbers on purpose regenerates the file with
    `PYTHONPATH=src:tests python -c "import test_driver as t; t.GOLDEN_GRID.write_text(t.golden_csv())"`
    and lists the changed cells."""
    assert golden_csv().encode() == GOLDEN_GRID.read_bytes()


@pytest.mark.parametrize("att_db", [10.0, 30.0, 70.0, 120.0])
def test_refined_source_fidelities_from_its_eigenvectors(att_db):
    """The tag fidelities of the bit-averaged eigenstates against the closed
    form F = |M|_F^2 + 2 |det M|, M = A^H B of their rank-2 factors, and
    against the fidelity of their density matrices; the test-basis ones
    against |<.|.>|^2, clipped to 1: it reads up to 1 + 1.3e-15 on
    bit-identical eigenvectors, at 70 and 120 dB."""
    source = driver.passive_source(dataclasses.replace(PASSIVE_CONFIG, analysis="refined"),
                                   att_db)
    vectors = {key: coin.state_eigendata(m.normalized_block(1)).vectors[:, :2]
               for key, m in source.moments_bit.items()}

    def check(fid, basis, i, j, t, u):
        a, b = (np.column_stack([vectors[(bit, basis, k)][:, tag] for bit in driver.BITS])
                / math.sqrt(2.0) for k, tag in ((i, t), (j, u)))
        m = a.conj().T @ b
        assert abs(fid - min(1.0, np.linalg.norm(m) ** 2 + 2.0 * abs(np.linalg.det(m)))) <= 2e-15
        assert abs(fid - fidelity(a @ a.conj().T, b @ b.conj().T)) <= 1e-12

    for s, basis in enumerate(driver.BASES):
        for t in (0, 1):
            for p, (i, j) in enumerate(INTENSITY_PAIRS):
                check(source.tag_fids[s, p, t], basis, i, j, t, t)
        for k, i in enumerate(driver.INTENSITIES):
            check(source.cross_tag[s, k], basis, i, i, 0, 1)
    for bit in driver.BITS:
        test = {i: vectors[(bit, "X", i)] for i in driver.INTENSITIES}
        other = {i: vectors[(1 - bit, "X", i)] for i in driver.INTENSITIES}
        for t in (0, 1):
            for p, (i, j) in enumerate(INTENSITY_PAIRS):
                assert abs(source.tag_fids_bit[bit, p, t] - min(
                    1.0, pure_state_fidelity(test[i][:, t], test[j][:, t]))) <= 2.3e-16
            for k, i in enumerate(driver.INTENSITIES):
                assert abs(source.cross_bit[bit, k, t] - min(
                    1.0, pure_state_fidelity(test[i][:, t], other[i][:, 1 - t]))) <= 2.3e-16


def test_pair_fidelities_bound_exactly_the_truncated_entries():
    """The INTENSITY_PAIRS fidelities of the bit-unions and test-basis boxes
    against a per-pair loop: `bures_chain_bound` where either end keeps less
    than 1 - 1e-12 of its trace (at 70 dB, the n = 3 and 4 blocks), the
    exact `factor_fidelity` everywhere else."""
    config = dataclasses.replace(PASSIVE_CONFIG, analysis="refined")
    source = driver.passive_source(config, 70.0, nodes=12)
    bounded = set()
    for fids, groups in (
            (source.fids, [[source.moments_union[(b, i)] for i in driver.INTENSITIES]
                           for b in driver.BASES]),
            (source.fids_bit, [[source.moments_bit[(a, "X", i)] for i in driver.INTENSITIES]
                               for a in driver.BITS])):
        for g, group in enumerate(groups):
            for n in range(config.n_cut + 1):
                factors = [density_factor(m.normalized_block(n)) for m in group]
                for p, (i, j) in enumerate(lp.PAIR_ENDS):
                    exact = float(factor_fidelity(factors[i], factors[j]))
                    t_i, t_j = group[i].trace_fraction(n), group[j].trace_fraction(n)
                    if min(t_i, t_j) < 1.0 - 1e-12:
                        bounded.add(n)
                        exact = coin.bures_chain_bound(t_i, t_j, exact)
                    assert fids[g, p, n] == exact
    assert bounded == {3, 4}


FIDELITY_ARGUMENTS = {"yield_program": (2,), "bit_error_program": (2,), "decoy_programs": (2,),
                      "refined_yield_program": (2, 5, 6), "refined_error_program": (3, 6, 7)}


def test_program_fidelities_lie_in_the_unit_interval(monkeypatch):
    """Every fidelity handed to the program builders, by both transmitters,
    lies in [0, 1]; the refined test-basis ones at 70 and 120 dB once
    rounded above 1 on bit-identical eigenvectors."""
    seen = {}
    for name, positions in FIDELITY_ARGUMENTS.items():
        def recording(*args, name=name, build=getattr(lp, name), positions=positions):
            seen.setdefault(name, []).extend(np.asarray(args[k]) for k in positions)
            return build(*args)
        monkeypatch.setattr(lp, name, recording)
    for analysis in ("baseline", "refined"):
        for att_db in (70.0, 120.0):
            driver.key_rate(dataclasses.replace(PASSIVE_CONFIG, analysis=analysis), 50.0, att_db)
    driver.key_rate(OIL_CONFIG, 50.0, 120.0)
    assert set(seen) == set(FIDELITY_ARGUMENTS)
    for name, arrays in seen.items():
        for fids in arrays:
            assert np.all((fids >= 0.0) & (fids <= 1.0)), (name, fids.max())


@pytest.mark.parametrize("distance_km, att_db", [(25.0, 120.0), (100.0, 30.0)])
def test_stacked_oil_programs_are_the_one_at_a_time_builds(monkeypatch, distance_km, att_db):
    """`_oil_estimation` builds its X yield and two bit-error programs in one
    `lp.decoy_programs` pass, with one tangent pass for both sides; each
    program is bitwise the one `lp.yield_program` or `lp.bit_error_program`
    builds alone from the same inputs."""
    calls, passes, build, tangent_lines = [], [], lp.decoy_programs, lp.tangent_lines
    monkeypatch.setattr(lp, "decoy_programs", lambda *args: calls.append(args) or build(*args))
    monkeypatch.setattr(lp, "tangent_lines",
                        lambda *args: passes.append(args[2:]) or tangent_lines(*args))
    est = driver._oil_estimation(OIL_CONFIG, distance_km, att_db)
    monkeypatch.undo()
    assert passes == [()]  # one pass, at the default sides ("L", "U")
    [(gains, probs, fids, references, senses)] = calls
    assert senses == ("min", "max", "max")
    alone = [lp.yield_program(gains[0], probs[0], fids[0], references[0]),
             *(lp.bit_error_program(gains[p], probs[p], fids[p], references[p]) for p in (1, 2))]
    for stacked, single in zip([est.yield_specs["X"], *est.error_specs.values()], alone,
                               strict=True):
        assert (stacked.variables, stacked.sense) == (single.variables, single.sense)
        for name in ("a", "b", "c", "upper"):
            assert np.array_equal(getattr(stacked, name), getattr(single, name))
            assert getattr(stacked, name).tobytes() == getattr(single, name).tobytes()


OIL_PROBES = Path(__file__).parent / "data" / "oil_probe_programs.json"
# (mu_in, mu_i1, distance km, attenuation dB): three grid points of `oil-optimize`
# and a probe whose I1 mixture almost coincides with the I0 one
OIL_PROBE_SETTINGS = ((0.5, 0.1, 25.0, 120.0), (0.5, 0.1, 100.0, 30.0), (0.5, 0.1, 200.0, 120.0),
                      (0.4, 0.4 * (1.0 - 1e-9), 50.0, 120.0))


def oil_probe_programs() -> list:
    """The X yield and bit-error programs of `_oil_estimation` at each of
    OIL_PROBE_SETTINGS, their `a`, `b` and `c` as hex floats."""
    out = []
    for mu_in, mu_i1, distance_km, att_db in OIL_PROBE_SETTINGS:
        config = dataclasses.replace(OIL_CONFIG, mu_in=mu_in, mu_i1=mu_i1)
        est = driver._oil_estimation(config, distance_km, att_db)
        out.append({label: {name: np.vectorize(float.hex)(getattr(spec, name)).tolist()
                            for name in ("a", "b", "c")}
                     for label, spec in [("X yield", est.yield_specs["X"]),
                                         *est.error_specs.items()]})
    return out


def test_oil_probe_programs_are_bitwise_the_recorded_ones():
    """Every coefficient, right-hand side and objective entry of the three
    injection-locked programs, bit for bit (the sign of a zero included),
    as the per-program builds of commit a16747e wrote them, with
    `git archive a16747e | tar -x -C <dir>` and, from the repository root,
    `PYTHONPATH=<dir>/src:tests python -c "import json, test_driver as t;
    t.OIL_PROBES.write_text(json.dumps(t.oil_probe_programs()))"`."""
    assert oil_probe_programs() == json.loads(OIL_PROBES.read_text())


def test_passive_key_rate_rejects_a_foreign_source():
    source = driver.passive_source(PASSIVE_CONFIG, 120.0, nodes=12)
    with pytest.raises(ValueError, match="another configuration"):
        driver.key_rate(PASSIVE_CONFIG, 50.0, 60.0, nodes=12, source=source)
    with pytest.raises(ValueError, match="another configuration"):
        driver.key_rate(dataclasses.replace(PASSIVE_CONFIG, analysis="refined"),
                        50.0, 120.0, nodes=12, source=source)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "leakyqkd.cli", *args],
                          capture_output=True, text=True)


def test_cli_rate_csv(tmp_path):
    out = tmp_path / "out.csv"
    result = run_cli("rate", "--transmitter", "oil", "--distance-km", "50",
                     "--att-db", "120", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("transmitter,distance_km,att_db")
    assert lines[1].startswith("oil,50.0,120.0,")


def test_cli_rate_exits_zero_on_vanishing_yield():
    result = run_cli("rate", "--transmitter", "oil", "--distance-km", "350",
                     "--att-db", "10")
    assert result.returncode == 0, result.stderr
    assert "zero-rate: vanishing test-basis yield bound" in result.stdout


def test_cli_json_output(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli("rate", "--transmitter", "oil", "--distance-km", "50",
                     "--att-db", "120", "--format", "json", "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload[0]["transmitter"] == "oil"
    assert payload[0]["rate"] > 0.0
    assert "provenance" in payload[0]


def test_cli_config_file_and_overrides(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"transmitter": "oil", "mu_in": 0.4,
                                       "att_db": [120.0]}))
    result = run_cli("rate", "--config", str(config_file), "--distance-km", "25")
    assert result.returncode == 0
    assert "oil,25.0,120.0" in result.stdout


def test_cli_invalid_config_exit_code(tmp_path):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"no_such_key": 1}))
    result = run_cli("rate", "--config", str(config_file))
    assert result.returncode == 3
    assert "invalid configuration" in result.stderr


@pytest.mark.parametrize("command, config", [
    *[(command, config) for command in ("rate", "optimize") for config in (
        {"optimizer": 5}, {"distances_km": "50"}, {"distances_km": [-5]}, {"att_db": [-5]},
        {"quadrature_nodes": 2})],
    ("rate", {"mu_max": -1}),
    ("rate", {"transmitter": "oil", "mu_i1": 0.9}),
    ("optimize", {"optimizer": {"passes": "2"}}),
    *[("optimize", {"optimizer": {name: bracket}})
      for name in ("mu_max_bracket", "delta_theta_z_bracket", "oil_intensity_bracket")
      for bracket in ([0.5], [-1, 1], [0.5, 0.2], [0.1, 0.5, 0.9], ["a", 1])],
    ("optimize", {"transmitter": "oil", "optimizer": {"oil_intensity_bracket": [-1, 1]}}),
    *[(command, {"transmitter": transmitter, **values}) for command in ("rate", "sweep")
      for transmitter in ("passive", "oil")
      for values in ({"p_dark": 1.5}, {"detector_efficiency": 0}, {"f_ec": 0.5},
                     {"alpha_db_per_km": -0.2})],
    *[(command, values) for command in ("rate", "sweep")
      for values in ({"delta_theta_z": 2.0}, {"t1": 0.01, "t2": 0.01}, {"t1": 0.01, "t2": 0.05})],
    ("optimize", {"optimizer": {"delta_theta_z_bracket": [0.1, 3.0]}}),
    # a JSON boolean is no number; f_ec and the intensities must be finite
    *[(command, values) for command in ("rate", "optimize")
      for values in ({"n_cut": True}, {"distances_km": [True]}, {"p_zb": False})],
    ("optimize", {"optimizer": {"passes": True}}),
    ("optimize", {"optimizer": {"mu_max_bracket": [0.5, True]}}),
    *[("rate", {"transmitter": "oil", **values}) for values in (
        {"f_ec": math.nan}, {"f_ec": math.inf}, {"mu_i2": math.nan}, {"mu_in": math.inf})],
    ("rate", {"mu_max": math.inf}),
    # the optimizer must search: at least one pass, no negative iteration count
    ("optimize", {"transmitter": "oil", "optimizer": {"passes": 0}}),
    ("optimize", {"transmitter": "oil", "optimizer": {"iterations": -1}}),
])
def test_cli_rejects_bad_config_values_before_evaluating(command, config, tmp_path, capsys,
                                                         monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("evaluated a bad configuration")

    monkeypatch.setattr(driver, "key_rate", not_reached)
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(config_file)]) == 3
    assert capsys.readouterr().err.startswith("invalid configuration: ")


def test_cli_optimize_reports_parameters(tmp_path):
    out = tmp_path / "opt.json"
    result = run_cli("optimize", "--transmitter", "oil", "--distance-km", "50",
                     "--att-db", "120", "--format", "json", "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert "optimized" in payload[0]["details"]
    assert payload[0]["details"]["optimized"]["mu_in"] > 0.0


def test_cli_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("rate", "--transmitter", "oil", "--distance-km", "60",
            "--att-db", "90")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_rate_over_several_distances(tmp_path):
    common = ("--transmitter", "passive", "--att-db", "120", "--quadrature-nodes", "12")
    both = run_cli("rate", "--distance-km", "25", "--distance-km", "75", *common)
    assert both.returncode == 0, both.stderr
    rows = both.stdout.splitlines()
    assert len(rows) == 3
    for distance, row in zip(("25", "75"), rows[1:]):
        single = run_cli("rate", "--distance-km", distance, *common)
        assert single.returncode == 0, single.stderr
        # every column but the config hash, which covers the distance grid
        assert single.stdout.splitlines()[1].rsplit(",", 1)[0] == row.rsplit(",", 1)[0]


def test_cli_rate_over_several_distances_keeps_exit_codes(monkeypatch, capsys, tmp_path):
    def infeasible_at_far_point(config, distance_km, att_db, nodes=None, source=None):
        if distance_km > 50.0:
            raise InfeasibleProgramError("X yield program is infeasible")
        return real_key_rate(config, distance_km, att_db, nodes, source)

    real_key_rate = driver.key_rate
    monkeypatch.setattr(driver, "key_rate", infeasible_at_far_point)
    args = ["rate", "--transmitter", "passive", "--att-db", "120", "--quadrature-nodes", "12",
            "--distance-km", "25", "--distance-km", "75"]
    assert cli.main(args) == 2
    assert "X yield program is infeasible" in capsys.readouterr().err
    # an intensity threshold above the key-basis box support empties a region
    config_file = tmp_path / "empty.json"
    config_file.write_text(json.dumps({"t1": 1.5}))
    assert cli.main([*args, "--config", str(config_file)]) == 3
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_names_an_unfinished_program_unfinished(monkeypatch, capsys):
    # a spent pivot budget exits 2 as an infeasible program does, but the
    # message names the status the solve ended in
    monkeypatch.setattr(lp, "PIVOT_BUDGET", 5)
    args = ["rate", "--transmitter", "oil", "--distance-km", "100", "--att-db", "120"]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "X yield program is unfinished" in err and "infeasible" not in err
