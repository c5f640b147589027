import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import dense_pivot, joint_refined_error_program, textbook_decoy_bound
from leakyqkd import driver, lp, validation
from leakyqkd.validation import vertex_enumeration_optimum

DATA = Path(__file__).parent / "data"
INTENSITIES = ("I0", "I1", "I2")


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def one_variable(*rows):
    """min x over rows (sense, rhs) of the form x <= rhs or x >= rhs."""
    return lp.LinearProgram(variables=("x",), sense="min", c=np.ones(1),
                            a=np.ones((len(rows), 1)), b=np.array([r for _, r in rows]),
                            upper=np.array([s == "<=" for s, _ in rows]))


def test_trivial_minimum():
    solution = lp.solve(one_variable((">=", 0.3)))
    assert solution.status == "optimal"
    assert solution.value == pytest.approx(0.3, abs=1e-12)


def test_infeasible_is_reported():
    assert lp.solve(one_variable((">=", 0.7), ("<=", 0.2))).status == "infeasible"


def test_random_boxed_programs_match_highs():
    """300 random programs over 2-6 variables in [0, 1], with 2-8 rows of
    either sense, minimised or maximised, many of them infeasible (the
    dual simplex's Farkas row): each status is that of HiGHS, each optimum
    within 1e-7 of it."""
    rng = np.random.default_rng(7)
    statuses = []
    for _ in range(300):
        n, m = rng.integers(2, 7), rng.integers(2, 9)
        a = rng.normal(size=(m, n))
        upper = rng.random(m) < 0.5
        # each row's rhs at a random point of the box, shifted by N(0, 0.5)
        b = a @ rng.random(n) + np.where(upper, -1.0, 1.0) * np.abs(rng.normal(0.0, 0.5, m))
        spec = lp.LinearProgram(variables=tuple(f"x{i}" for i in range(n)),
                                sense=("min", "max")[rng.integers(2)], c=rng.normal(size=n),
                                a=a, b=b, upper=upper)
        solution = lp.solve(spec)
        signs = np.where(upper, 1.0, -1.0)
        reference = linprog(spec.c if spec.sense == "min" else -spec.c,
                            A_ub=signs[:, None] * a, b_ub=signs * b, bounds=(0.0, 1.0),
                            method="highs")
        assert (solution.status, reference.status) in (("optimal", 0), ("infeasible", 2))
        if reference.status == 0:
            optimum = reference.fun if spec.sense == "min" else -reference.fun
            assert abs(solution.value - optimum) <= 1e-7
        statuses.append(solution.status)
    assert min(statuses.count("optimal"), statuses.count("infeasible")) >= 50


def first_attempt(monkeypatch, spec):
    """`lp.solve(spec)`, asserted optimal on its first `_solve_once`, with a final
    basis whose basic values and reduced costs, re-solved here from the
    program's data, are all >= -1e-12, and a point within 1e-12 of every row
    and bound."""
    attempts = []
    real = lp._solve_once

    def recorded(program, start):
        attempts.append(start)
        return real(program, start)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solve_once", recorded)
        solution = lp.solve(spec)
    assert (solution.status, len(attempts)) == ("optimal", 1)
    m_con, n = spec.a.shape
    standard = np.block([[spec.a, np.diag(np.where(spec.upper, 1.0, -1.0)), np.zeros((m_con, n))],
                         [np.eye(n), np.zeros((n, m_con)), np.eye(n)]])
    matrix = standard[:, solution.basis]
    cost = np.concatenate([spec.c if spec.sense == "min" else -spec.c, np.zeros(m_con + n)])
    x_basic = np.linalg.solve(matrix, np.concatenate([spec.b, np.ones(n)]))
    reduced = cost - np.linalg.solve(matrix.T, cost[solution.basis]) @ standard
    assert min(x_basic.min(), reduced.min()) >= -1e-12
    excess = np.where(spec.upper, 1.0, -1.0) * (spec.a @ solution.x - spec.b)
    assert max(excess.max(), -solution.x.min(), solution.x.max() - 1.0) <= 1e-12
    return solution


def test_probe_error_programs_solve_on_the_first_attempt(monkeypatch):
    """The bit-error programs of two probes of a refined passive
    `optimize_point` at 50 km/120 dB (8 nodes), which once needed a relaxed
    retry, solve on their first attempt (see `first_attempt`), within 1e-8
    of HiGHS."""
    for bit, mu_max in ((0, 0.6038507163126524), (1, 0.9461492836873476)):
        config = driver.ProtocolConfig(transmitter="passive", analysis="refined",
                                       quadrature_nodes=8, mu_max=mu_max)
        est = driver._passive_estimation(config, driver.passive_source(config, 120.0), 50.0)
        spec = est.error_specs[f"bit-{bit} error"]
        solution = first_attempt(monkeypatch, spec)
        assert abs(solution.value - _highs_optimum(spec)) <= 1e-8 * solution.value


def _highs_optimum(spec):
    """HiGHS optimum of a program at feasibility tolerances of 1e-10; at its
    default 1e-7 the point it returns can violate rows by ~4e-8."""
    signs = np.where(spec.upper, 1.0, -1.0)
    result = linprog(spec.c if spec.sense == "min" else -spec.c, A_ub=signs[:, None] * spec.a,
                     b_ub=signs * spec.b, bounds=(0.0, 1.0), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    assert result.status == 0
    return result.fun if spec.sense == "min" else -result.fun


def _z_yield_75km():
    data = json.loads((DATA / "z_yield_75km_120db.json").read_text())
    variables = tuple(data["variables"])
    a = np.array([[con["coeffs"].get(name, 0.0) for name in variables]
                  for con in data["constraints"]])
    return lp.LinearProgram(
        variables=variables, sense=data["sense"],
        c=np.array([data["objective"].get(name, 0.0) for name in variables]), a=a,
        b=np.array([con["rhs"] for con in data["constraints"]]),
        upper=np.array([con["sense"] == "<=" for con in data["constraints"]]))


def test_once_false_infeasible_z_yield_program_is_optimal(monkeypatch):
    """The refined Z-yield program of the 48-node passive pipeline at 75 km
    and 120 dB, recorded with the four-branch quadrature kernel, that a
    former phase 1 on drifted tableau values declared infeasible: its first
    solve is optimal, within 1e-9 of HiGHS."""
    spec = _z_yield_75km()
    solution = lp._solve_once(spec, None)
    assert solution.status == "optimal"
    optimum = _highs_optimum(spec)
    assert abs(solution.value - optimum) <= 1e-9 * optimum
    first_attempt(monkeypatch, spec)


def test_former_crawl_solves_in_under_a_thousand_pivots(monkeypatch):
    """An LP stress case: the former joint refined error program over both
    bits (`helpers.joint_refined_error_program`) of the 8-node passive search
    at 50 km and 70 dB (mu_max 0.7346, delta_theta_z 0.4896), `a` stored by
    its nonzero entries.  A former phase 1 crawled 39,687 pivots into the
    budget before a relaxed retry (maximum `value`); it now solves on its
    first attempt in fewer than 1,000 pivots, within 1e-8 of HiGHS."""
    data = json.loads((DATA / "refined_error_crawl.json").read_text())
    a = np.zeros((len(data["b"]), len(data["variables"])))
    a[data["a_rows"], data["a_cols"]] = data["a_values"]
    spec = lp.LinearProgram(variables=tuple(data["variables"]), sense=data["sense"],
                            c=np.array(data["c"]), a=a, b=np.array(data["b"]),
                            upper=np.array(data["upper"]))
    solution = first_attempt(monkeypatch, spec)
    assert solution.iterations < 1_000
    optimum = _highs_optimum(spec)
    assert abs(solution.value - optimum) <= 1e-8 * optimum and solution.value < data["value"]


def test_golden_refined_z_yield_is_the_optimum(monkeypatch):
    """The refined Z-yield minimum of the golden grid at 100 km/120 dB, which
    drifted reduced costs left 2.1e-6 relative above the optimum, is within
    1e-9 of HiGHS."""
    spec = golden_refined_programs()[4]
    assert spec.variables[spec.c.tolist().index(1.0)] == "Y_I0_key"
    solution = first_attempt(monkeypatch, spec)
    optimum = _highs_optimum(spec)
    assert abs(solution.value - optimum) <= 1e-9 * optimum


def test_spent_budget_fails_the_point_not_the_sweep(monkeypatch):
    monkeypatch.setattr(lp, "PIVOT_BUDGET", 5)
    config = driver.ProtocolConfig(transmitter="oil", distances_km=(100.0,), att_db=(120.0,))
    [report] = driver.sweep(config)
    assert report.status == "failed: X yield program is unfinished"
    assert [r["status"] for r in report.provenance["lp"]] == ["unfinished"]


def test_solver_is_deterministic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 6))
    b = a @ np.full(6, 0.5) + rng.uniform(0.1, 0.4, size=8)
    spec = lp.LinearProgram(variables=tuple(f"x{i}" for i in range(6)), sense="max",
                            c=np.ones(6), a=a, b=b, upper=np.ones(8, dtype=bool))
    first = lp.solve(spec)
    second = lp.solve(spec)
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_random_programs_match_vertex_enumeration():
    # 100 random feasible programs, each optimal within 1e-7 of the vertex optimum
    assert validation.check_lp_vertex_oracle(seed=1, cases=100)[0]


def test_warm_start_from_a_perturbed_program_matches_vertex_enumeration():
    # the programs of the test above, solved cold, then their data moved by
    # 0.1 x N(0, 1) and solved from the old basis: optimal at once, after
    # repair pivots, or cold when the old basis is neither primal nor dual
    # feasible; every optimum within 1e-7 of the vertex optimum
    rng = np.random.default_rng(1)
    outcomes = []
    for _ in range(100):
        program = validation.random_program(rng)
        basis = lp.solve(program).basis
        moved = dataclasses.replace(program, **{
            name: getattr(program, name) + 0.1 * rng.normal(size=getattr(program, name).shape)
            for name in ("a", "b", "c")})
        reference = vertex_enumeration_optimum(moved)
        solution = lp.solve(moved, basis)
        assert reference is not None and solution.status == "optimal"
        assert abs(solution.value - reference) < 1e-7
        outcomes.append("cold" if solution.start == "cold" else
                        "accepted" if solution.iterations == 0 else "repaired")
    assert set(outcomes) == {"accepted", "repaired", "cold"}


def test_unusable_starts_fall_back_to_the_cold_solve():
    # min -x, x >= 0.3: columns x, the row's surplus, the box row's slack
    spec = lp.LinearProgram(variables=("x",), sense="min", c=-np.ones(1), a=np.ones((1, 1)),
                            b=np.array([0.3]), upper=np.array([False]))
    cold = lp.solve(spec)
    assert (cold.start, cold.value) == ("cold", -1.0)
    own = lp.solve(spec, cold.basis)
    assert (own.start, own.value, own.iterations) == ("warm", cold.value, 0)
    for start in (np.array([0]),  # another length
                  np.array([1, 1]),  # singular
                  np.array([1, 2])):  # surplus -0.3 < 0 and reduced cost of x -1 < 0
        solution = lp.solve(spec, start)
        assert (solution.start, solution.value) == ("cold", cold.value)
        assert np.array_equal(solution.x, cold.x)


def test_sparse_pivot_matches_the_dense_update():
    # chains of pivots on random tableaux with structural zeros, -0.0 among
    # them (in the pivot rows and columns too): the same basis and equal
    # tableaux (np.array_equal: the sign of a zero may differ) at every step
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, width = rng.integers(2, 40), rng.integers(3, 60)
        start = rng.normal(size=(rows, width)) * (rng.random((rows, width)) < 0.3)
        start[rng.random((rows, width)) < 0.1] = -0.0
        sparse, dense = start.copy(), start.copy()
        sparse_basis, dense_basis = np.zeros(rows, dtype=int), np.zeros(rows, dtype=int)
        for _ in range(10):
            row = rng.integers(rows)
            candidates = np.flatnonzero(sparse[row, :-1])
            if candidates.size == 0:
                continue
            col = rng.choice(candidates)
            sparse[row, np.flatnonzero(sparse[row] == 0.0)[:1]] = -0.0
            dense[row] = sparse[row]
            changed = lp._pivot(sparse, sparse_basis, row, col)
            dense_pivot(dense, dense_basis, row, col)
            assert np.array_equal(changed, np.flatnonzero(sparse[row]))
            assert np.array_equal(sparse_basis, dense_basis)
            assert np.array_equal(sparse, dense)


def golden_refined_programs():
    """Every program of the refined rows of tests/data/golden_grid.csv."""
    config = driver.ProtocolConfig(transmitter="passive", analysis="refined",
                                   quadrature_nodes=16)
    programs = []
    for att_db in (70.0, 120.0):
        est = driver._passive_estimation(config, driver.passive_source(config, att_db), 100.0)
        programs += [*est.yield_specs.values(), *est.error_specs.values()]
    return programs


def test_sparse_pivot_solves_the_golden_refined_programs_bit_identically(monkeypatch):
    # each solve as the dense update gives it: the same iterations and basis,
    # bitwise the same x and value; where the optimal basis as a start takes
    # no pivot (7 of the 8 at present), it gives bitwise the same x again
    accepted = 0
    for program in golden_refined_programs():
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_pivot", dense_pivot)
            reference = lp.solve(program)
        solution = lp.solve(program)
        assert solution.status == reference.status == "optimal"
        assert solution.iterations == reference.iterations > 0
        assert np.array_equal(solution.basis, reference.basis)
        assert solution.x.tobytes() == reference.x.tobytes()
        assert repr(solution.value) == repr(reference.value)
        warm = lp.solve(program, solution.basis)
        if warm.iterations == 0:
            accepted += 1
            assert warm.x.tobytes() == solution.x.tobytes()
    assert accepted >= 7


def test_solve_once_takes_the_program_and_start_positionally(monkeypatch):
    # benchmark/tracer.py counts solves by wrapping lp._solve_once in a function
    # of exactly (program, start): None cold, a basis warm; any other
    # signature breaks traced runs
    real, starts = lp._solve_once, []

    def counted(program, start):
        starts.append(start)
        return real(program, start)

    monkeypatch.setattr(lp, "_solve_once", counted)
    spec = one_variable((">=", 0.25), ("<=", 0.75))
    cold = lp.solve(spec)
    warm = lp.solve(spec, cold.basis)
    assert (cold.value, warm.value, warm.start) == (0.25, 0.25, "warm")
    assert starts[0] is None and np.array_equal(starts[1], cold.basis)


def test_program_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        lp.LinearProgram(variables=("x",), sense="min", c=np.ones(2), a=np.ones((1, 1)),
                         b=np.ones(1), upper=np.ones(1, dtype=bool))


# ---------------------------------------------------------------------------
# Baseline programs
# ---------------------------------------------------------------------------

def poisson_probs(mu, n_cut):
    out = [math.exp(-mu)]
    for n in range(1, n_cut + 1):
        out.append(out[-1] * mu / n)
    return np.array(out)


def ideal_inputs(n_cut=2, eta=0.1, p_dark=1e-6):
    """Gains (3,), photon probabilities (3, n_cut + 1), unit pair
    fidelities (3, n_cut + 1), references and the true yields of a Poisson
    source behind an ideal channel."""
    mus = np.array([0.5, 0.1, 0.002])
    probs = np.array([poisson_probs(mu, n_cut) for mu in mus])
    yields = 1.0 - (1.0 - p_dark) ** 2 * (1.0 - eta) ** np.arange(25)
    gains = np.array([1.0 - (1.0 - p_dark) ** 2 * math.exp(-eta * mu) for mu in mus])
    return gains, probs, np.ones((3, n_cut + 1)), yields[:n_cut + 1], yields


def by_label(rows):
    """Per-intensity rows as the dict `textbook_decoy_bound` reads."""
    return dict(zip(INTENSITIES, rows))


def test_unit_fidelity_recovers_textbook_decoy_bound():
    for n_cut in (2, 4):
        gains, probs, fids, refs, _ = ideal_inputs(n_cut=n_cut)
        spec = lp.yield_program(gains, probs, fids, refs)
        ours = lp.solve(spec)
        reference = textbook_decoy_bound(by_label(probs), by_label(gains), n_cut)
        assert ours.status == "optimal"
        assert ours.value == pytest.approx(reference, abs=1e-6)


def test_zero_fidelity_decouples_to_single_intensity_bound():
    n_cut = 2
    gains, probs, fids, refs, _ = ideal_inputs(n_cut=n_cut)
    spec = lp.yield_program(gains, probs, np.zeros_like(fids), refs)
    decoupled = lp.solve(spec).value
    single = vertex_enumeration_optimum(lp.LinearProgram(
        variables=tuple(f"Y_{n}" for n in range(n_cut + 1)), sense="min",
        c=np.eye(n_cut + 1)[1], a=np.array([probs[0], probs[0]]),
        b=np.array([gains[0], gains[0] - (1.0 - float(probs[0].sum()))]),
        upper=np.array([True, False])))
    assert decoupled == pytest.approx(single, abs=1e-7)


def test_yield_program_matches_hand_reduction():
    # single effective intensity, n_cut = 1: the optimum collapses to
    # max(0, (Q - 1 + p1)/p1)
    n_cut = 1
    mu, q = 0.5, 0.9
    probs = np.tile(poisson_probs(mu, n_cut), (3, 1))
    refs = np.array([0.3, 0.5])
    spec = lp.yield_program(np.full(3, q), probs, np.ones((3, n_cut + 1)), refs)
    p1 = float(probs[0, 1])
    assert lp.solve(spec).value == pytest.approx((q - 1.0 + p1) / p1, abs=1e-9)


def test_bit_error_program_zero_errors_bounds_gamma_by_slack():
    n_cut = 2
    _, probs, fids, refs, _ = ideal_inputs(n_cut=n_cut)
    spec = lp.bit_error_program(np.zeros(3), probs, fids, np.full(n_cut + 1, 1e-3))
    solution = lp.solve(spec)
    # all the error weight must hide in the unobserved tail
    tail = 1.0 - float(probs[0].sum())
    assert solution.value <= tail / float(probs[0, 1]) + 1e-9
    assert solution.value < 1.0


def test_coin_constraints_never_hurt():
    n_cut = 2
    gains, probs, fids, refs, _ = ideal_inputs(n_cut=n_cut)
    with_coin = lp.solve(lp.yield_program(gains, probs, np.full_like(fids, 0.98), refs)).value
    without = lp.solve(lp.yield_program(gains, probs, np.zeros_like(fids), refs)).value
    assert with_coin >= without - 1e-9


def test_channel_truth_feasible_for_ideal_decoy():
    n_cut = 4
    gains, probs, fids, refs, yields = ideal_inputs(n_cut=n_cut)
    spec = lp.yield_program(gains, probs, fids, refs)
    x = np.tile(yields[:n_cut + 1], 3)  # the columns Y_I_n, intensity-major
    lhs = spec.a @ x
    assert np.all(np.where(spec.upper, lhs <= spec.b + 1e-9, lhs >= spec.b - 1e-9))
    assert lp.solve(spec).value <= x[spec.variables.index("Y_I0_1")] + 1e-9


def assert_only_coin_rows_differ(base, other, ends):
    """`other` differs from `base` only in the coin rows between the columns
    labelled `ends`: a lower and an upper row with each end as y_j."""
    assert (base.variables, base.sense) == (other.variables, other.sense)
    assert np.array_equal(base.c, other.c) and np.array_equal(base.upper, other.upper)
    cols = sorted(base.variables.index(name) for name in ends)
    rows = np.flatnonzero((base.a != other.a).any(axis=1) | (base.b != other.b))
    for spec in (base, other):
        assert all(np.flatnonzero(spec.a[r]).tolist() == cols for r in rows)
        # y_j enters a coin row with coefficient -1
        assert sorted(np.flatnonzero(spec.a[r] == -1.0)[0] for r in rows) == sorted(cols * 2)


def test_pair_fidelity_reaches_only_its_coin_rows():
    gains, probs, fids, refs, _ = ideal_inputs(n_cut=2)
    changed = fids.copy()
    changed[lp.INTENSITY_PAIRS.index(("I0", "I2")), 1] = 0.9
    base, other = (lp.yield_program(gains, probs, f, refs) for f in (fids, changed))
    assert_only_coin_rows_differ(base, other, ("Y_I0_1", "Y_I2_1"))

    weights, cross_tag = np.tile([0.9, 0.08], (3, 1)), np.full(3, 0.5)
    tag_fids = np.ones((3, 2))
    changed = tag_fids.copy()
    changed[lp.INTENSITY_PAIRS.index(("I1", "I2")), lp.TAGS.index("opp")] = 0.9
    base, other = (lp.refined_yield_program(gains, probs, fids, refs, weights, t, cross_tag)
                   for t in (tag_fids, changed))
    assert_only_coin_rows_differ(base, other, ("Y_I1_opp", "Y_I2_opp"))


# ---------------------------------------------------------------------------
# Refined programs
# ---------------------------------------------------------------------------

def refined_setup(analysis="refined", nodes=16, distance=50.0, att=60.0):
    """The programs the pipeline solves at one point."""
    config = driver.ProtocolConfig(transmitter="passive", analysis=analysis,
                                   mu_max=0.5, delta_theta_z=0.12, n_cut=2)
    return driver._passive_estimation(config, driver.passive_source(config, att, nodes),
                                      distance)


def test_refined_yield_dominates_baseline():
    base = lp.solve(refined_setup("baseline").yield_specs["Z"]).value
    refined = lp.solve(refined_setup().yield_specs["Z"]).value
    # pure-eigenstate yields cannot be bounded worse than the mixture
    assert refined >= base - 1e-9


def test_refined_error_program_symmetric_under_bit_swap():
    # an exactly bit-symmetric channel needs vanishing leakage: the middle
    # leakage pulse intensity differs between the two test-bit windows
    specs = refined_setup(att=600.0).error_specs
    solutions = [lp.solve(specs[f"bit-{bit} error"]) for bit in (0, 1)]
    assert [s.status for s in solutions] == ["optimal", "optimal"]
    # the two bit windows are mirror images of each other
    assert solutions[0].value == pytest.approx(solutions[1].value, rel=1e-6)


def test_refined_error_halves_are_the_blocks_of_the_joint_program(monkeypatch):
    """At the golden refined points each bit's program is bitwise the
    joint program's block of its error outcome, no joint row links the two
    blocks, and the mean of the halves' optima is the joint optimum."""
    config = driver.ProtocolConfig(transmitter="passive", analysis="refined",
                                   quadrature_nodes=16)
    inputs = {}
    real = lp.refined_error_program

    def recorded(bit, *args):
        inputs[bit] = args
        return real(bit, *args)

    monkeypatch.setattr(lp, "refined_error_program", recorded)
    for att_db in (70.0, 120.0):
        est = driver._passive_estimation(config, driver.passive_source(config, att_db), 100.0)
        halves = [est.error_specs[f"bit-{bit} error"] for bit in (0, 1)]
        _, probs, fids, _, weights, tag_fids, cross_bit = inputs[0]
        # the joint inputs' outcome axis b: outcome b is the error outcome of bit 1 - b
        joint = joint_refined_error_program(
            np.stack([inputs[1][0], inputs[0][0]], axis=1), probs, fids,
            np.stack([inputs[1][3], inputs[0][3]], axis=1), weights, tag_fids, cross_bit)
        blocks = []
        for half in halves:
            cols = np.array([joint.variables.index(name) for name in half.variables])
            rows = np.flatnonzero(np.any(joint.a[:, cols] != 0.0, axis=1))
            assert joint.a[np.ix_(rows, cols)].tobytes() == half.a.tobytes()
            assert joint.b[rows].tobytes() == half.b.tobytes()
            assert np.array_equal(joint.upper[rows], half.upper)
            assert np.array_equal(2.0 * joint.c[cols], half.c)
            blocks.append((set(rows), set(cols)))
        (rows0, cols0), (rows1, cols1) = blocks
        assert not rows0 & rows1 and len(rows0 | rows1) == len(joint.b)
        assert not cols0 & cols1 and len(cols0 | cols1) == len(joint.variables)
        optima = [lp.solve(spec) for spec in (*halves, joint)]
        assert all(s.status == "optimal" for s in optima)
        assert 0.5 * (optima[0].value + optima[1].value) == pytest.approx(optima[2].value,
                                                                          rel=1e-8)
