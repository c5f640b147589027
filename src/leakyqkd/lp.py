"""Dense linear programming for the decoy-state estimation programs.

Every program is one `LinearProgram` in array form (c, a, b, upper)
over variables boxed to [0, 1], solved by a small two-phase simplex
(Dantzig pricing with a deterministic switch to Bland's anti-cycling
rule on stalls), or warm from a neighbouring program's optimal basis
(`solve`).  The tableau is dense, but a pivot (`_pivot`) updates only
the rows with a nonzero in the pivot column and the columns with a
nonzero in the pivot row, at the median 120-135 of 258 and 9-13 of 306 in
a refined error program (Hall & McKinnon, Comput. Optim. Appl. 32, 2005);
every other entry would only lose an exact zero, so each value, pivot
choice and basis is that of a full update.

Four builders write the baseline and the refined (key/opp eigenstate)
yield and bit-error programs row by row into that form, from fidelity
lower bounds and channel-model reference points for the tangent
linearisation.  Their inputs are arrays in one layout: rows in
INTENSITIES order, pairs in INTENSITY_PAIRS order, columns by photon
number (or by tag, in TAGS order); a bit axis, where there is one,
leads.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .coin import tangent_line

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
STALL_LIMIT = 40
# pivots one attempt may take: ten times the longest successful attempt of
# the test suite (250); a phase 1 crawling through a sliver polytope takes ~40,000
PIVOT_BUDGET = 2_500
RELAXATIONS = (0.0, 1e-10, 1e-8)
# pivots that carry a relaxed optimum's multipliers to the unrelaxed program, and
# the reduced-cost tolerance they work to
CLEANUP_PIVOTS = 100
DUAL_TOL = 1e-12

INTENSITIES = ("I0", "I1", "I2")
INTENSITY_PAIRS = tuple(itertools.combinations(INTENSITIES, 2))
TAGS = ("key", "opp")
# the ends of each of INTENSITY_PAIRS, as indices into INTENSITIES
PAIR_ENDS = np.array(list(itertools.combinations(range(len(INTENSITIES)), 2)))
# the ordered pairs that coin rows link, and the INTENSITY_PAIRS entry of each
_ORDERED = np.array(list(itertools.permutations(range(len(INTENSITIES)), 2)))
_UNORDERED = np.array([PAIR_ENDS.tolist().index(sorted(p)) for p in _ORDERED.tolist()])


class InfeasibleProgramError(RuntimeError):
    """Raised by the pipeline when an estimation program has no solution."""


@dataclass(frozen=True)
class LinearProgram:
    """Optimise c.x over a x <= b (rows where `upper`) and a x >= b (the
    other rows), 0 <= x <= 1; `variables` labels the columns of `a`."""

    variables: tuple
    sense: str  # "min" or "max"
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        m, n = len(self.b), len(self.variables)
        shapes = tuple(np.shape(v) for v in (self.a, self.b, self.upper, self.c))
        if shapes != ((m, n), (m,), (m,), (n,)):
            raise ValueError(f"shapes of a, b, upper, c {shapes} disagree with {n} variables")


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"; "unfinished" (one attempt only)
    value: float | None
    x: np.ndarray | None  # the optimal point, in column order
    iterations: int
    relaxation: float = 0.0  # constraint relaxation level of the returned attempt
    attempts: int = 1
    # a relaxed attempt reports the tighter of its optimum (kept here) and the
    # dual certificate of the unrelaxed program; `bound` names the winner
    relaxed_value: float | None = None
    bound: str = "simplex"  # "simplex" (unrelaxed) | "relaxed" | "certificate"
    basis: np.ndarray | None = None  # the final basis; None if an artificial stays basic
    start: str = "cold"  # "warm": the solve that counted started from a given basis


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> np.ndarray:
    """Pivot the C-ordered `tableau` on (row, col); return the columns of the
    pivot row's nonzeros, the only ones that change (see the module docstring)."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    cols = np.flatnonzero(pivot_row)
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cells = (rows * tableau.shape[1])[:, None] + cols  # flat: a third of a 2-D index's cost
    tableau.reshape(-1)[cells] -= tableau[rows, col][:, None] * pivot_row[cols]
    basis[row] = col
    return cols


def _choose_entering(cost_row: np.ndarray, allowed: np.ndarray, bland: bool) -> int:
    candidates = np.where(allowed & (cost_row[:-1] < -PIVOT_TOL))[0]
    if candidates.size == 0:
        return -1
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(cost_row[candidates])])


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int:
    column = tableau[:, col]
    rows = np.where(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = tableau[rows, -1] / column[rows]
    best = np.min(ratios)
    # tie band strictly relative to the winning ratio; any absolute band
    # merges genuinely different tiny ratios when column entries are large
    ties = rows[ratios <= best + 1e-7 * abs(best)]
    if ties.size > 1:
        # prefer the largest pivot element for numerical stability
        pivots = column[ties]
        ties = ties[pivots >= 0.999 * np.max(pivots)]
    return int(ties[np.argmin(basis[ties])])


def _run_simplex(tableau, basis, cost_row, allowed, budget: int) -> tuple[str, int]:
    iterations = 0
    stall = 0
    bland = False
    # cost_row[-1] holds minus the current objective; it increases on progress
    progress_mark = cost_row[-1]
    while True:
        col = _choose_entering(cost_row, allowed, bland)
        if col < 0:
            return "optimal", iterations
        row = _choose_leaving(tableau, basis, col)
        if row < 0:
            return "unbounded", iterations
        if iterations >= budget:
            return "unfinished", iterations
        changed = _pivot(tableau, basis, row, col)
        cost_row[changed] -= cost_row[col] * tableau[row, changed]
        iterations += 1
        if cost_row[-1] > progress_mark + PIVOT_TOL:
            progress_mark = cost_row[-1]
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True


def solve(program: LinearProgram, start: np.ndarray | None = None) -> LPSolution:
    """Two-phase simplex; deterministic for identical input.

    Sliver polytopes (all observables far below the box bounds) can defeat
    the plain ratio test, so when phase 1 finds no feasible point, an
    attempt runs out of PIVOT_BUDGET, or the solution fails the
    feasibility check, the solve is retried with every constraint relaxed
    by the next level of RELAXATIONS (recorded with the attempts);
    "infeasible" stands only after the last.  Relaxing is safe here: minima
    only decrease and maxima only increase.  A relaxed attempt reports the
    tighter of its optimum and a weak-duality bound on the unrelaxed
    program (`_dual_bound`) from its final basis's multipliers, re-optimised
    for the unrelaxed right-hand side (`_reoptimize`).

    `start`, the `basis` of a solution of a program of the same shape, is
    tried first, unrelaxed and factored on this program's data: it counts
    with no pivot when its basic values and reduced costs are all >=
    -PIVOT_TOL (the phase-2 test), else after dual, then primal pivots
    (`_reoptimize`) within CLEANUP_PIVOTS.  A start of another length, or
    singular, neither primal nor dual feasible, over that budget, or with
    an optimum failing the feasibility check, gives way to the cold ones.
    """
    if start is not None and len(start) == len(program.b) + len(program.variables):
        solution = _solve_once(program, np.asarray(start))
        if solution.status == "optimal":
            with contextlib.suppress(RuntimeError):
                _verify_feasible(program, solution.x)
                return replace(solution, start="warm")
    outcome: LPSolution | Exception | None = None
    for attempt, perturbation in enumerate(RELAXATIONS, start=1):
        solution = _solve_once(program, perturbation)
        solution.relaxation, solution.attempts = perturbation, attempt
        if solution.status == "unbounded":
            return solution
        outcome = solution
        if solution.status == "unfinished":
            outcome = RuntimeError(f"simplex exceeded its budget of {PIVOT_BUDGET} pivots")
        elif solution.status == "optimal":
            allowance = perturbation * (len(program.b) + len(program.variables) + 2)
            try:
                _verify_feasible(program, solution.x, allowance)
                return solution
            except RuntimeError as exc:
                outcome = exc
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _reduced_costs(cost: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> np.ndarray:
    cost_row = cost.copy()
    for r in np.flatnonzero(cost[basis]):
        cost_row -= cost[basis[r]] * tableau[r]
    return cost_row


def _solve_once(program: LinearProgram, level) -> LPSolution:
    """One attempt: at relaxation `level`, or unrelaxed from the basis `level` (an index
    array), one argument so that wrappers of (program, level), as the benchmark tracer's,
    see every attempt."""
    start, perturbation = (level, 0.0) if isinstance(level, np.ndarray) else (None, level)
    m_con, n = program.a.shape
    m = m_con + n
    # columns: structural | one slack per row | artificials | rhs.  Rows:
    # the constraints, each relaxed by perturbation * (row + 1), then the
    # upper box bounds; lower bounds are native
    signs = np.where(program.upper, 1.0, -1.0)
    rhs = np.concatenate([program.b + signs * (perturbation * np.arange(1, m_con + 1)),
                          np.ones(n)])
    slack = np.concatenate([signs, np.ones(n)])
    flip = rhs < 0.0  # rows negated to a nonnegative rhs
    rhs[flip] *= -1.0
    art_rows = np.flatnonzero(np.where(flip, -slack, slack) < 0.0)  # surplus can't start basic
    n_art = art_rows.size
    art_cols = n + m + np.arange(n_art)
    tableau = np.zeros((m, n + m + n_art + 1))
    tableau[:m_con, :n] = program.a
    tableau[m_con:, :n] = np.eye(n)
    tableau[np.arange(m), n + np.arange(m)] = slack
    tableau[flip, :n + m] *= -1.0
    tableau[art_rows, art_cols] = 1.0
    original = tableau[:, :-1].copy()  # for the final re-solve
    tableau[:, -1] = rhs
    initial = np.arange(n, n + m)  # the starting basis, whose columns come to hold B^-1
    initial[art_rows] = art_cols
    basis = initial.copy()
    allowed = np.ones(n + m + n_art, dtype=bool)
    cost = np.zeros(n + m + n_art + 1)
    cost[:n] = program.c if program.sense == "min" else -program.c

    iterations, x_basic = 0, None
    if start is not None:
        allowed[n + m:] = False
        status, iterations, x_basic = _from_basis(tableau, basis, original, cost, start, allowed)
    elif n_art:
        phase_one = np.zeros(n + m + n_art + 1)
        phase_one[art_cols] = 1.0
        cost_row = _reduced_costs(phase_one, tableau, basis)
        status, iterations = _run_simplex(tableau, basis, cost_row, allowed, PIVOT_BUDGET)
        if status == "unfinished":
            return LPSolution(status=status, value=None, x=None, iterations=iterations)
        if status != "optimal" or -cost_row[-1] > 1e-7:
            return LPSolution(status="infeasible", value=None, x=None, iterations=iterations)
        allowed[n + m:] = False
        for r in range(m):
            if basis[r] >= n + m:  # drive artificial out or accept the redundant row
                pivot_cols = np.flatnonzero(np.abs(tableau[r, :n + m]) > PIVOT_TOL)
                if pivot_cols.size:
                    _pivot(tableau, basis, r, int(pivot_cols[0]))
                    iterations += 1

    if start is None:
        cost_row = _reduced_costs(cost, tableau, basis)
        status, its = _run_simplex(tableau, basis, cost_row, allowed, PIVOT_BUDGET - iterations)
        iterations += its
    if status != "optimal":
        return LPSolution(status=status, value=None, x=None, iterations=iterations)

    # re-solve the final basic system from the original data, as a start taken with no
    # pivot already has: pivoting through nearly parallel rows can leave O(1e-7) drift
    values = np.zeros(n + m + n_art)
    try:
        values[basis] = np.linalg.solve(original[:, basis], rhs) if x_basic is None else x_basic
    except np.linalg.LinAlgError:
        values[basis] = tableau[:, -1]
    x = values[:n].copy()
    value = float(sum(program.c[j] * x[j] for j in np.flatnonzero(program.c)))
    final = basis.copy() if basis.max() < n + m else None
    if perturbation == 0.0:
        return LPSolution(status="optimal", value=value, x=x, iterations=iterations, basis=final)
    unrelaxed = np.concatenate([program.b, np.ones(n)])
    unrelaxed[flip] *= -1.0
    tableau[:, -1] = tableau[:, initial] @ unrelaxed
    _reoptimize(tableau, basis, cost_row, allowed)
    certified = _dual_bound(program, cost_row[n:n + m_con])
    tighter = max(value, certified) if program.sense == "min" else min(value, certified)
    return LPSolution(status="optimal", value=tighter, x=x, iterations=iterations,
                      basis=final, relaxed_value=value,
                      bound="certificate" if tighter == certified else "relaxed")


def _reoptimize(tableau, basis, cost_row, allowed, floor: float = 0.0) -> tuple[str, int]:
    """(status, pivots) of re-optimising in place, within CLEANUP_PIVOTS, a
    basis whose basic solution (the last column of `tableau`) may be infeasible.

    While it has an entry below `floor` a dual simplex pivot (Harris's
    two-pass ratio test) restores feasibility and keeps the reduced costs
    nonnegative; once it is feasible, primal pivots take out the reduced
    costs below -DUAL_TOL that the phase-2 optimality test (-PIVOT_TOL)
    accepted.  Each costs the weak-duality bound up to its size.
    """
    for pivots in range(CLEANUP_PIVOTS):
        row = int(np.argmin(tableau[:, -1]))
        if tableau[row, -1] < floor:
            entries = tableau[row, :-1]
            cols = np.flatnonzero(allowed & (entries < -PIVOT_TOL))
            if cols.size == 0:
                return "unfinished", pivots
            # the largest pivot among the columns whose ratio is within
            # DUAL_TOL of the smallest
            reduced, sizes = np.maximum(cost_row[cols], 0.0), -entries[cols]
            near = cols[reduced / sizes <= np.min((reduced + DUAL_TOL) / sizes)]
            col = int(near[np.argmax(-entries[near])])
        else:
            cols = np.flatnonzero(allowed & (cost_row[:-1] < -DUAL_TOL))
            if cols.size == 0:
                return "optimal", pivots
            col = int(cols[np.argmin(cost_row[cols])])
            row = _choose_leaving(tableau, basis, col)
            if row < 0:
                return "unfinished", pivots
        changed = _pivot(tableau, basis, row, col)
        cost_row[changed] -= cost_row[col] * tableau[row, changed]
    return "unfinished", CLEANUP_PIVOTS


def _from_basis(tableau, basis, original, cost, start, allowed):
    """(status, pivots, x_B) of carrying the standard form, in place, from the basis
    `start` to an optimum (see `solve`); x_B, the start's basic values, if no pivot."""
    matrix = original[:, start]
    try:  # B x_B = rhs and B^T y = c_B
        x_basic = np.linalg.solve(matrix, tableau[:, -1])
        reduced = cost[:-1] - np.linalg.solve(matrix.T, cost[start]) @ original
    except np.linalg.LinAlgError:
        return "unfinished", 0, None
    primal, dual = x_basic.min() >= -PIVOT_TOL, reduced[allowed].min() >= -PIVOT_TOL
    if not (primal or dual):
        return "unfinished", 0, None
    basis[:] = start
    if primal and dual:
        return "optimal", 0, x_basic
    tableau[:] = np.linalg.solve(matrix, tableau)
    return *_reoptimize(tableau, basis, _reduced_costs(cost, tableau, basis), allowed,
                        -PIVOT_TOL), None


def _dual_bound(program: LinearProgram, reduced: np.ndarray) -> float:
    """Weak-duality bound on the optimum of the unrelaxed `program` from the
    reduced costs of the constraint rows' slack columns.

    The slack of row r (coefficient +1 on a <= row, -1 on a >= row) has
    reduced cost -pi_r * coefficient, so pi = -coefficient * max(0, reduced)
    is the multiplier vector with every wrong sign zeroed (pi <= 0 on <=
    rows, >= 0 on >= rows).  For any such pi and any feasible x in [0, 1]^n,
    c.x = pi.(a x) + (c - a^T pi).x >= pi.b + sum_j min(0, (c - a^T pi)_j)
    for a minimisation (a maximisation minimises -c).

    Sums are exact (`math.fsum`); each product errs by at most 2^-53 of
    itself, and these errors and the final rounding are taken off, so the
    bound holds in exact arithmetic.
    """
    u = 2.0 ** -53
    pi = -np.where(program.upper, 1.0, -1.0) * np.maximum(reduced, 0.0)
    cost = program.c if program.sense == "min" else -program.c
    products = program.a * pi[:, None]
    terms = list(pi * program.b)
    slack = 2.0 * u * math.fsum(np.abs(terms))
    for c_j, column in zip(cost, products.T):
        residual = math.fsum([c_j, *-column])
        tail = residual - 2.0 * u * (abs(residual) + math.fsum(np.abs(column)))
        if tail < 0.0:
            terms.append(tail)
            slack -= 2.0 * u * tail
    bound = math.nextafter(math.fsum(terms) - slack, -math.inf)
    return bound if program.sense == "min" else -bound


def _verify_feasible(program: LinearProgram, x: np.ndarray, allowance: float = 0.0):
    inside = (-FEASIBILITY_TOL - allowance <= x) & (x <= 1.0 + FEASIBILITY_TOL + allowance)
    if not inside.all():
        j = int(np.argmin(inside))
        raise RuntimeError(f"solver returned {program.variables[j]}={x[j]} outside [0, 1]")
    lhs, b = program.a @ x, program.b
    tol = FEASIBILITY_TOL * (1.0 + np.abs(b) + np.max(np.abs(program.a), axis=1))
    violated = np.where(program.upper, lhs > b + tol + allowance, lhs < b - tol - allowance)
    if violated.any():
        r = int(np.argmax(violated))
        raise RuntimeError(f"constraint {r} violated: {lhs[r]} against {b[r]}")


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def _add_columns(variables: list, prefix: str, entries) -> np.ndarray:
    """Append the labels prefix_I_e, intensity-major; return their columns,
    one row per intensity."""
    start, width = len(variables), len(entries)
    variables.extend(f"{prefix}_{i}_{e}" for i in INTENSITIES for e in entries)
    return start + np.arange(len(INTENSITIES) * width).reshape(len(INTENSITIES), width)


def _pairs(rows: list, cols, coeffs, rhs):
    """Append, per entry e, the rows coeffs[e, 0] . x[cols[e]] <= rhs[e, 0]
    and coeffs[e, 1] . x[cols[e]] >= rhs[e, 1]; coeffs broadcast to (P, 2, w)."""
    cols = np.asarray(cols)
    rows.append((cols, np.broadcast_to(coeffs, (len(cols), 2, cols.shape[1])), np.ravel(rhs)))


def _program(variables: list, sense: str, objective: dict, rows: list) -> LinearProgram:
    """Write the row pairs into arrays; `objective` maps columns to their coefficients."""
    b = np.concatenate([blk[2] for blk in rows])
    c, a = np.zeros(len(variables)), np.zeros((len(b), len(variables)))
    c[list(objective)] = list(objective.values())
    start = 0
    for cols, coeffs, rhs in rows:
        a[start + np.arange(len(rhs)).reshape(-1, 2, 1), cols[:, None, :]] = coeffs
        start += len(rhs)
    return LinearProgram(variables=tuple(variables), sense=sense, c=c, a=a, b=b,
                         upper=np.arange(len(b)) % 2 == 0)


def _sandwich(rows: list, ends, fid, y_ref):
    """Tangent-relaxed coin constraints LCS^L(y_i) <= y_j <= LCS^U(y_i), a
    pair of rows per row (col_i, col_j) of `ends` and entry of `fid`,
    linearised at y_ref (broadcast to them).

    Unit fidelities are capped infinitesimally below 1 (a relaxation, so
    still valid): exact-equality chains otherwise make the polytope a
    measure-zero sliver that amplifies quadrature noise in the data into
    spurious infeasibility.
    """
    fid = np.minimum(fid, 1.0 - 1e-14)
    low, high = tangent_line(fid, y_ref, "L"), tangent_line(fid, y_ref, "U")
    minus = -np.ones_like(fid)
    coeffs = np.stack([low.slope, minus, high.slope, minus], axis=1).reshape(-1, 2, 2)
    _pairs(rows, ends, coeffs, -np.stack([low.intercept, high.intercept], axis=1))


def _coin_rows(rows: list, cols, fidelities, y_ref):
    """Coin rows between the ordered pairs of intensities, per column of
    `cols` (3, w) and `fidelities` (3 pairs, w), column-major."""
    _sandwich(rows, cols[_ORDERED].transpose(2, 0, 1).reshape(-1, 2),
              fidelities[_UNORDERED].T.ravel(), y_ref)


def _decoy_block(rows: list, cols, gains, probs, fidelities, references):
    """Two-sided decoy rows from Q_I = sum_n p_I(n) Y_I_n + tail for each
    intensity I (Y_I_n in column cols[I, n]), then coin rows per photon number."""
    _pairs(rows, cols, probs[:, None, :],
           np.stack([gains, gains - (1.0 - probs.sum(axis=1))], axis=1))
    _coin_rows(rows, cols, fidelities, np.repeat(references, len(_UNORDERED)))


def _tag_block(rows: list, cols, tag_cols, weights, tag_fidelities, y_ref):
    """Key/opp mixture rows of each single-photon yield cols[I, 1]:
    -rest <= q_key Y_key + q_opp Y_opp - Y_1 <= 0, with weights[I] = (q_key,
    q_opp), rest = max(0, 1 - q_key - q_opp) and the eigenstate yields in
    tag_cols[I]; then coin rows per tag."""
    rest = np.maximum(0.0, 1.0 - weights[:, 0] - weights[:, 1])
    _pairs(rows, np.column_stack([tag_cols, cols[:, 1]]),
           np.column_stack([weights, -np.ones(len(weights))])[:, None, :],
           np.stack([np.zeros_like(rest), -rest], axis=1))
    _coin_rows(rows, tag_cols, tag_fidelities, y_ref)


def yield_program(gains: np.ndarray, probs: np.ndarray, fidelities: np.ndarray,
                  references: np.ndarray) -> LinearProgram:
    """Baseline single-photon yield program: minimise Y_I0_1 given the gains
    (3,), photon-number probabilities (3, n+1), fidelity lower bounds
    (3, n+1) between the n-photon states of each intensity pair and
    linearisation points (n+1,).  Columns Y_I_n, intensity-major."""
    variables, rows = [], []
    cols = _add_columns(variables, "Y", range(probs.shape[1]))
    _decoy_block(rows, cols, gains, probs, fidelities, references)
    return _program(variables, "min", {cols[0, 1]: 1.0}, rows)


def bit_error_program(error_gains: np.ndarray, probs: np.ndarray, fidelities: np.ndarray,
                      references: np.ndarray) -> LinearProgram:
    """Baseline bit-error program (maximise the n=1 error probability)."""
    return replace(yield_program(error_gains, probs, fidelities, references), sense="max")


def refined_yield_program(gains: np.ndarray, probs: np.ndarray, fidelities: np.ndarray,
                          references: np.ndarray, weights: np.ndarray,
                          tag_fidelities: np.ndarray, cross_tag: np.ndarray) -> LinearProgram:
    """Yield program with key/opp eigenstate refinement: minimise Y_I0_key.

    The inputs of `yield_program`, and weights (3, 2): the key/opp
    eigenvalue weights of each intensity's single-photon state;
    tag_fidelities (3, 2): fidelity between the t-eigenstates of each
    intensity pair; cross_tag (3,): fidelity between the key and opp
    eigenstates of each intensity.  Columns: those of `yield_program`,
    then Y_I_t."""
    variables, rows = [], []
    cols = _add_columns(variables, "Y", range(probs.shape[1]))
    tag_cols = _add_columns(variables, "Y", TAGS)
    ref_t = float(references[1])
    _decoy_block(rows, cols, gains, probs, fidelities, references)
    _tag_block(rows, cols, tag_cols, weights, tag_fidelities, ref_t)
    # key -> opp, then opp -> key, at each intensity
    _sandwich(rows, tag_cols[:, [[0, 1], [1, 0]]].reshape(-1, 2), np.repeat(cross_tag, 2), ref_t)
    return _program(variables, "min", {tag_cols[0, 0]: 1.0}, rows)


def refined_error_program(bit: int, outcome_gains: np.ndarray, probs: np.ndarray,
                          fidelities: np.ndarray, references: np.ndarray, weights: np.ndarray,
                          tag_fidelities: np.ndarray, cross_bit: np.ndarray) -> LinearProgram:
    """Bit-error program of `bit` with key/opp refinement: maximise the
    key-eigenstate probability Y{bit}{b}_I0_key of its error outcome
    b = 1 - bit.

    Its rows link only the yields of outcome b, of both bits' states, so
    every input leads with the bit a of the state: outcome_gains (2, 3)
    and references (2, n+1) of outcome b; probs, fidelities (2, 3, n+1),
    weights and tag_fidelities (2, 3, 2) as in `refined_yield_program`;
    cross_bit (2, 3, 2) [a, I, t]: fidelity between eigenstate t of bit a
    and eigenstate 1 - t of bit 1 - a.  Columns: Y{a}{b}_I_n for a = 0, 1,
    then Y{a}{b}_I_t likewise.
    """
    b = 1 - bit
    variables, rows = [], []
    cols, tag_cols = (np.array([_add_columns(variables, f"Y{a}{b}", entries) for a in (0, 1)])
                      for entries in (range(probs.shape[-1]), TAGS))
    for a in (0, 1):
        _decoy_block(rows, cols[a], outcome_gains[a], probs[a], fidelities[a], references[a])
        _tag_block(rows, cols[a], tag_cols[a], weights[a], tag_fidelities[a], references[a, 1])
    # per intensity: key of bit a -> opp of bit 1 - a, then opp -> key
    i, a, t = np.indices((len(INTENSITIES), 2, 2)).reshape(3, -1)
    _sandwich(rows, np.stack([tag_cols[a, i, t], tag_cols[1 - a, i, 1 - t]], axis=1),
              cross_bit[a, i, t], references[a, 1])
    return _program(variables, "max", {tag_cols[bit, 0, 0]: 1.0}, rows)
