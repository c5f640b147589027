"""Dense linear programming for the decoy-state estimation programs.

Every program is one `LinearProgram` in array form (c, a, b, upper)
over variables boxed to [0, 1], solved by a small dual simplex from a
dual-feasible slack basis, or warm from a neighbouring program's optimal
basis, whose verdicts rest on values re-solved from the original data
(`solve`) along one route (`_resolved`), which also gives the reported
point.  It factors a basis through its structural block alone (`_split`):
its slack columns are unit columns, so only its k structural columns, on
the k rows whose slack is nonbasic, are factored, once for both its basic
values and its duals, in one stacked solve.  A start that passes its first
check takes no pivot and reads only the program's data: the tableau is
built only for pivots.  A cold solve's dual pass runs on perturbed costs,
which break the ties of dual degeneracy, and its check re-solves on the
true ones (`solve`).  The tableau is dense and column-major, its cost row
last, but a pivot (`_pivot`) updates only the columns with a nonzero in
the pivot row, at the median 23-24 of 301 in the refined error programs
of a passive sweep (Hall & McKinnon, Comput. Optim. Appl. 32, 2005), each
one contiguous run; every other entry would only lose an exact zero, and
a row whose factor is 0 keeps its values, so each value, pivot choice and
basis is that of a full update.

The builders write the baseline and the refined (key/opp eigenstate)
yield and bit-error programs row by row into that form, from fidelity
lower bounds and channel-model reference points for the tangent
linearisation, each block's tangents for both sides in one
`tangent_lines` pass.  Each takes its pattern (labels, cells, objective,
row senses) from one cache keyed by its structure (`_layout`), so that a
call writes only values; `decoy_programs` builds baseline programs of
one pattern in one pass.  Their inputs are arrays in one layout: rows
in INTENSITIES order, pairs in INTENSITY_PAIRS order, columns by photon
number (or by tag, in TAGS order); a bit axis, where there is one,
leads, and a program axis leads that.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .coin import tangent_lines

PIVOT_TOL = 1e-9
# a cold solve's dual pass raises the reduced cost of each column j its start
# basis leaves nonbasic by PERTURBATION (1 + (j mod 7) / 7), against dual degeneracy
PERTURBATION = 1e-3
# pivots one solve may take: ten times the longest of the test suite (250)
PIVOT_BUDGET = 2_500
# pivots that repair a warm start, and the tolerance of the check every solve ends in
CLEANUP_PIVOTS = 100
DUAL_TOL = 1e-12

INTENSITIES = ("I0", "I1", "I2")
INTENSITY_PAIRS = tuple(itertools.combinations(INTENSITIES, 2))
TAGS = ("key", "opp")
# the ends of each of INTENSITY_PAIRS, as indices into INTENSITIES
PAIR_ENDS = np.array([[INTENSITIES.index(end) for end in pair] for pair in INTENSITY_PAIRS])
# the ordered pairs that coin rows link, and the INTENSITY_PAIRS entry of each
_ORDERED = np.array(list(itertools.permutations(range(len(INTENSITIES)), 2)))
_UNORDERED = np.array([PAIR_ENDS.tolist().index(sorted(p)) for p in _ORDERED.tolist()])


class InfeasibleProgramError(RuntimeError):
    """Raised by the pipeline when an estimation program is not solved: its
    message names the status, infeasible or unfinished."""


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
    status: str  # "optimal" | "infeasible" | "unfinished" (see `solve`)
    value: float | None
    x: np.ndarray | None  # the optimal point, in column order
    iterations: int
    basis: np.ndarray | None = None  # the final basis, if optimal
    start: str = "cold"  # "warm": the solve that counted started from a given basis


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the column-major `tableau` on (row, col): only the columns of the
    pivot row's nonzeros change (see the module docstring), each updated whole
    as one contiguous run."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    cols = pivot_row.nonzero()[0]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    columns = tableau.T[cols]
    columns -= pivot_row[cols][:, None] * factors
    tableau.T[cols] = columns
    basis[row] = col


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int:
    column = tableau[:-1, col]
    # pivots relative to the column's largest: tiny ones lead to singular bases
    rows = (column > PIVOT_TOL * max(1.0, column.max())).nonzero()[0]
    if rows.size == 0:
        return -1
    ratios = tableau[rows, -1] / column[rows]
    best = ratios.min()
    # a tie band relative to the winning ratio: an absolute one merges distinct tiny ratios
    ties = rows[ratios <= best + 1e-7 * abs(best)]
    ties = ties[column[ties] >= 0.999 * column[ties].max()]  # the largest pivots, for stability
    return int(ties[basis[ties].argmin()])


def solve(program: LinearProgram, start: np.ndarray | None = None) -> LPSolution:
    """Dual simplex; deterministic for identical input.

    A cold solve starts from the slack basis with every variable of negative
    cost (in the minimisation form) at its upper bound 1: dual feasible, as
    every variable is boxed, so it needs no phase 1 and no artificial
    variables (Maros, Computational Techniques of the Simplex Method, 2003;
    Koberstein, The dual simplex method, PhD thesis, Paderborn, 2005).  Every
    solve ends in one check (`_settle`): its final basis's basic values and
    reduced costs, re-solved from the original data by `_resolved`, not taken
    from the tableau, which drifts pivot by pivot, must all be >= -DUAL_TOL,
    and the basic values checked are the ones reported, so its point meets
    every row and bound to DUAL_TOL and the solve's residual.  A program is
    "infeasible" when a row of negative basic value has no negative entry (a
    Farkas row); a solve that spends PIVOT_BUDGET or ends on a singular basis
    is "unfinished".  A cold solve's dual pass runs on costs raised on the
    columns its start leaves nonbasic (PERTURBATION), which breaks the ties
    of dual degeneracy (a passive sweep's cold pivots fell from 478 to 348);
    its check re-solves on the true costs and primal pivots clean up, so no
    perturbed value reaches a verdict or the reported point.

    `start`, the `basis` of a solution of a program of the same shape, is
    tried first, and repaired within CLEANUP_PIVOTS if it fails that check;
    one of another length, singular, neither primal nor dual feasible (to
    -PIVOT_TOL) or not optimal within that budget gives way to the cold solve.
    """
    if start is not None and len(start) == len(program.b) + len(program.variables):
        solution = _solve_once(program, np.asarray(start))
        if solution.status == "optimal":
            solution.start = "warm"
            return solution
    return _solve_once(program, None)


@functools.lru_cache(maxsize=8)
def _unit_cells(m_con: int, n: int) -> np.ndarray:
    """The flat cells of the unit entries of a standard form of m_con rows
    and n columns: each box row's structural and right-hand side, and every
    row's slack."""
    m, width = m_con + n, 2 * n + m_con + 1
    box = m_con + np.arange(n)
    cells = np.concatenate([box * width + np.arange(n), box * width + width - 1,
                            np.arange(m) * width + n + np.arange(m)])
    cells.flags.writeable = False
    return cells


def _solve_once(program: LinearProgram, start: np.ndarray | None = None) -> LPSolution:
    """One solve: cold, or from the basis `start`; two positional arguments, so that
    wrappers of (program, start), as the benchmark tracer's, see every solve.  The
    tableau is built only for pivots: a start that passes its first check reads
    only the original data."""
    m_con, n = program.a.shape
    m = m_con + n
    # columns: structural | one slack per row | rhs.  Rows: the constraints,
    # each a <= row (a >= row negated), then the upper box bounds; lower bounds
    # are native.  A tableau adds the cost row below them
    sign = np.where(program.upper, 1.0, -1.0)
    form = np.zeros((m + 1, n + m + 1))
    form.reshape(-1)[_unit_cells(m_con, n)] = 1.0
    form[:m_con, :n] = sign[:, None] * program.a
    form[:m_con, -1] = sign * program.b
    original = form[:m]  # the data every verdict is re-solved on
    basis = np.arange(n, n + m)  # the slack basis, the identity in `original`
    cost = np.zeros(n + m + 1)
    cost[:n] = program.c if program.sense == "min" else -program.c

    if start is not None:
        # a repeated column makes B singular
        values = _resolved(original, start, cost) if len(set(start.tolist())) == m else None
        if values is None:
            return LPSolution("unfinished", None, None, 0)
        lowest = values[0].min(), values[1].min()
        if max(lowest) < -PIVOT_TOL:
            return LPSolution("unfinished", None, None, 0)  # neither primal nor dual feasible
        basis[:] = start
        status, iterations, x_basic = "optimal", 0, values[0]
        if min(lowest) < -DUAL_TOL:  # to be repaired
            tableau = np.zeros_like(form, order="F")
            tableau[:m] = _basis_solve(original, basis, original)
            status, iterations, x_basic = _settle(tableau, basis, original, cost,
                                                  CLEANUP_PIVOTS, values)
    else:  # the slack basis, dual feasible once each variable of negative cost is at 1
        tableau = form.copy(order="F")
        negative = (cost[:n] < 0.0).nonzero()[0]
        for j in negative:
            _pivot(tableau, basis, m_con + j, j)
        shift = PERTURBATION * (1.0 + np.arange(n + m) % 7 / 7.0)
        shift[basis] = 0.0
        status, iterations, x_basic = _settle(tableau, basis, original, cost,
                                              PIVOT_BUDGET - negative.size, shift=shift)
        iterations += negative.size
    if status != "optimal":
        return LPSolution(status, None, None, iterations)
    point = np.zeros(n + m)
    point[basis] = x_basic
    x = point[:n].copy()
    value = float(sum(program.c[j] * x[j] for j in program.c.nonzero()[0]))
    return LPSolution("optimal", value, x, iterations, basis=basis.copy())


def _resolved(original: np.ndarray, basis: np.ndarray,
              cost: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(x_B, reduced costs) of `basis` re-solved on the original data, the only
    values any verdict reads: x_B = B^-1 rhs and y = B^-T c_B from one split of
    its structural block (`_split`) and one stacked solve, x_B as in
    `_basis_solve` and y_S = c_S, y_R = A[R, J]^-T (c_J - A[S, J]^T y_S),
    reduced costs c - y A; None if B is singular.  A basic column's reduced
    cost is 0 by definition: the residual of B^T y = c_B, which `cost - y @
    original` leaves there, could read below -DUAL_TOL and fail a basis no
    pivot can change."""
    slack, structural, slack_rows, free, block, coupling = _split(original, basis)
    c_basic, k = cost[basis], len(block)
    system, rhs = np.empty((2, k, k)), np.empty((2, k, 1))
    system[0], system[1] = block, block.T
    rhs[0, :, 0] = original[free, -1]
    rhs[1, :, 0] = c_basic[structural] - coupling.T @ c_basic[slack]
    try:
        x_j, y_r = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return None
    x, y = np.empty(len(basis)), np.empty(len(basis))
    x[structural], x[slack] = x_j, original[slack_rows, -1] - coupling @ x_j
    y[slack_rows], y[free] = c_basic[slack], y_r
    reduced = (cost - y @ original)[:-1]
    reduced[basis] = 0.0
    return x, reduced


def _basis_solve(original: np.ndarray, basis: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """B^-1 rhs for the basis B = original[:, basis] of distinct columns, from a
    fresh factorisation of its structural block alone (Suhl & Suhl, ORSA J.
    Comput. 2, 1990): x_J = A[R, J]^-1 rhs[R], x_S = rhs[S] - A[S, J] x_J
    (`rhs` a vector or a matrix, by row; see `_split`); None if B is singular."""
    slack, structural, slack_rows, free, block, coupling = _split(original, basis)
    out = np.empty(rhs.shape)
    try:
        x = np.linalg.solve(block, rhs[free])
    except np.linalg.LinAlgError:
        return None
    out[structural], out[slack] = x, rhs[slack_rows] - coupling @ x
    return out


def _split(original: np.ndarray, basis: np.ndarray) -> tuple:
    """The split of the basis B = original[:, basis]: up to column order
    B = [A_J | I_S], k structural columns J and the unit slack columns of the
    rows S, which leaves k rows R.  Returns the masks of its slack and
    structural positions, S, the mask of R, A[R, J] and A[S, J]."""
    n = original.shape[1] - len(basis) - 1
    slack = basis >= n
    structural = ~slack
    slack_rows = basis[slack] - n
    free = np.ones(len(basis), dtype=bool)
    free[slack_rows] = False
    columns = original[:, basis[structural]]
    return slack, structural, slack_rows, free, columns[free], columns[slack_rows]


def _settle(tableau, basis, original, cost, budget: int, values=None,
            shift=0.0) -> tuple[str, int, np.ndarray]:
    """(status, pivots, x_B) of the check every solve ends in: the basic values
    and reduced costs of `basis`, re-solved on the original data by `_resolved`
    (or `values`, if given), must all be >= -DUAL_TOL, and the x_B checked is
    the one reported.  A failing basis, a cold solve's dual-feasible start
    among them, is re-optimised by `_reoptimize` within `budget` pivots, on the
    tableau with only its basic values and cost row overwritten by the
    re-solved ones (the first time raised by `shift`), and checked again."""
    pivots = 0
    while True:
        values = values or _resolved(original, basis, cost)
        if values is None:
            return "unfinished", pivots, None
        x_basic, reduced = values
        if min(x_basic.min(), reduced.min()) >= -DUAL_TOL:
            return "optimal", pivots, x_basic
        tableau[:-1, -1] = x_basic
        tableau[-1, :-1] = reduced + shift
        status, its = _reoptimize(tableau, basis, budget - pivots)
        pivots += its
        if status != "optimal":
            return status, pivots, None
        values, shift = None, 0.0


def _reoptimize(tableau, basis, budget: int) -> tuple[str, int]:
    """(status, pivots) of re-optimising in place, within `budget` pivots, a basis
    whose basic values (the last column of `tableau`) or reduced costs (its last
    row, which each pivot updates as any other) may fall below -DUAL_TOL: dual
    simplex pivots (Harris's two-pass ratio test) while a basic value does, then
    primal pivots.  A row whose basic value is below -DUAL_TOL and no entry below
    -PIVOT_TOL is a Farkas row: no point of the boxed variables meets it, and the
    program is "infeasible"."""
    values, cost_row = tableau[:-1, -1], tableau[-1, :-1]
    nonbasic = np.ones(cost_row.size, dtype=bool)
    nonbasic[basis] = False
    for pivots in range(budget):
        row = int(values.argmin())
        if values[row] < -DUAL_TOL:
            entries = tableau[row, :-1]
            cols = (entries < -PIVOT_TOL).nonzero()[0]
            if cols.size == 0:
                return "infeasible", pivots
            # the largest pivot among the columns whose ratio is within DUAL_TOL of
            # the smallest, in negated ratios: sizes = entries[cols] are negative
            reduced, sizes = np.maximum(cost_row[cols], 0.0), entries[cols]
            near = reduced / sizes >= ((reduced + DUAL_TOL) / sizes).max()
            col = int(cols[np.where(near, sizes, 0.0).argmin()])
        else:  # never a basic column: its pivot would leave the basis as it is
            cols = ((cost_row < -DUAL_TOL) & nonbasic).nonzero()[0]
            if cols.size == 0:
                return "optimal", pivots
            col = int(cols[cost_row[cols].argmin()])
            row = _choose_leaving(tableau, basis, col)
            if row < 0:
                return "unfinished", pivots
        nonbasic[basis[row]], nonbasic[col] = True, False
        _pivot(tableau, basis, row, col)
    return "unfinished", budget


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
    """Append, per entry e, the rows coeffs[..., e, 0] . x[cols[e]] <= rhs[..., e, 0]
    and coeffs[..., e, 1] . x[cols[e]] >= rhs[..., e, 1]; coeffs broadcast to
    rhs's leading axes, if any (one per program, see `_fill`), then (2, w)."""
    cols, rhs = np.asarray(cols), np.asarray(rhs)
    rows.append((cols, np.broadcast_to(coeffs, (*rhs.shape[:-1], 2, cols.shape[1])),
                 rhs.reshape(*rhs.shape[:-2], -1)))


@dataclass(frozen=True)
class _Pattern:
    """What programs of one row structure share, whatever their values:
    labels, objective, row senses, and the cell (row * columns + column) of
    each coefficient, in the order the row pairs list them."""

    variables: tuple
    cells: np.ndarray
    c: np.ndarray
    upper: np.ndarray


def _pattern(variables: list, objective: dict, rows: list) -> _Pattern:
    """The pattern of the row pairs `rows` (see `_pairs`) over `variables`;
    `objective` maps columns to their coefficients."""
    n, start, cells = len(variables), 0, []
    for cols, _, _ in rows:
        pairs = start + np.arange(2 * len(cols)).reshape(-1, 2, 1)
        cells.append((pairs * n + cols[:, None, :]).ravel())
        start += 2 * len(cols)
    c = np.zeros(n)
    c[list(objective)] = list(objective.values())
    upper = np.arange(start) % 2 == 0
    c.flags.writeable = upper.flags.writeable = False  # shared by every program of the pattern
    return _Pattern(tuple(variables), np.concatenate(cells), c, upper)


def _fill(pattern: _Pattern, senses, rows: list) -> list[LinearProgram]:
    """Write the values of the row pairs `rows` into the arrays of `pattern`,
    one program per entry of `senses`: the rows' leading axis runs over the
    programs, and rows without one make a single program."""
    b = np.concatenate([blk[2] for blk in rows], axis=-1)
    a = np.zeros((*b.shape, len(pattern.variables)))
    a.reshape(*b.shape[:-1], -1)[..., pattern.cells] = np.concatenate(
        [coeffs.reshape(*b.shape[:-1], -1) for _, coeffs, _ in rows], axis=-1)
    return [LinearProgram(pattern.variables, sense, pattern.c, a_p, b_p, pattern.upper)
            for sense, a_p, b_p in zip(senses, a.reshape(-1, *a.shape[-2:]),
                                       b.reshape(-1, b.shape[-1]), strict=True)]


def _sandwich(rows: list, ends, fid, y_ref):
    """Tangent-relaxed coin constraints LCS^L(y_i) <= y_j <= LCS^U(y_i), a
    pair of rows per row (col_i, col_j) of `ends` and entry of `fid` (along
    its last axis), linearised at y_ref (broadcast to them).

    Unit fidelities are capped infinitesimally below 1 (a relaxation, so
    still valid): exact-equality chains otherwise make the polytope a
    measure-zero sliver that amplifies quadrature noise in the data into
    spurious infeasibility.
    """
    fid = np.minimum(fid, 1.0 - 1e-14)
    lines = tangent_lines(fid, y_ref)  # [side, ...], the lower envelope's first
    minus = -np.ones_like(lines.slope)
    coeffs = np.moveaxis(np.stack([lines.slope, minus], axis=-1), 0, -2)
    _pairs(rows, ends, coeffs, -np.moveaxis(lines.intercept, 0, -1))


def _coin_rows(rows: list, cols, fidelities, y_ref):
    """Coin rows between the ordered pairs of intensities, per column of
    `cols` (3, w) and `fidelities` (..., 3 pairs, w), column-major."""
    pairs = np.swapaxes(fidelities[..., _UNORDERED, :], -1, -2)
    _sandwich(rows, cols[_ORDERED].transpose(2, 0, 1).reshape(-1, 2),
              pairs.reshape(*pairs.shape[:-2], -1), y_ref)


def _decoy_block(rows: list, cols, gains, probs, fidelities, references):
    """Two-sided decoy rows from Q_I = sum_n p_I(n) Y_I_n + tail for each
    intensity I (Y_I_n in column cols[I, n]), then coin rows per photon
    number; every input may lead with a program axis."""
    _pairs(rows, cols, probs[..., None, :],
           np.stack([gains, gains - (1.0 - probs.sum(axis=-1))], axis=-1))
    _coin_rows(rows, cols, fidelities, np.repeat(references, len(_UNORDERED), axis=-1))


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


def _refined_rows(rows: list, cols, tag_cols, gains, probs, fidelities, references, weights,
                  tag_fidelities, cross):
    """The rows of the refined programs over the states a of the leading axis
    of every input (one for the yield program, both bits for the error
    program): each state's decoy and key/opp rows, then coin rows between
    eigenstate t of state a and eigenstate 1 - t of state -1 - a (the same
    state, when there is one), of fidelity cross[a, I, t]."""
    for a in range(len(cols)):
        _decoy_block(rows, cols[a], gains[a], probs[a], fidelities[a], references[a])
        _tag_block(rows, cols[a], tag_cols[a], weights[a], tag_fidelities[a], references[a, 1])
    i, a, t = np.indices((len(INTENSITIES), len(cols), 2)).reshape(3, -1)
    _sandwich(rows, np.stack([tag_cols[a, i, t], tag_cols[-1 - a, i, 1 - t]], axis=1),
              cross[a, i, t], references[a, 1])


@functools.lru_cache(maxsize=16)
def _layout(builder: str, width: int, bit: int = 0) -> tuple:
    """(pattern, yield columns, tag columns) of `builder`'s programs ("decoy",
    "refined yield", or "refined error" of `bit`) over `width` photon numbers,
    built once from its rows of placeholder zeros, so that a build writes only
    values (`_fill`).  Columns [I, n] for "decoy", which has no tag columns;
    [a, I, n] and [a, I, t] over the states a of `_refined_rows` otherwise."""
    variables, rows, zero = [], [], np.zeros
    if builder == "decoy":
        cols = _add_columns(variables, "Y", range(width))
        _decoy_block(rows, cols, zero(3), zero((3, width)), zero((3, width)), zero(width))
        cols.flags.writeable = False
        return _pattern(variables, {cols[0, 1]: 1.0}, rows), cols, None
    prefixes = ["Y"] if builder == "refined yield" else [f"Y{a}{1 - bit}" for a in (0, 1)]
    cols, tag_cols = (np.array([_add_columns(variables, prefix, entries) for prefix in prefixes])
                      for entries in (range(width), TAGS))
    _refined_rows(rows, cols, tag_cols, zero(cols.shape[:2]), zero(cols.shape), zero(cols.shape),
                  zero(cols.shape[::2]), *[zero(tag_cols.shape)] * 3)
    cols.flags.writeable = tag_cols.flags.writeable = False
    return _pattern(variables, {tag_cols[bit, 0, 0]: 1.0}, rows), cols, tag_cols


def decoy_programs(gains: np.ndarray, probs: np.ndarray, fidelities: np.ndarray,
                   references: np.ndarray, senses) -> list[LinearProgram]:
    """Baseline decoy programs of one pattern, built in one pass: program p
    minimises ("min" in `senses`: the single-photon yield) or maximises
    ("max": the single-photon error probability, from error gains) Y_I0_1
    given the gains (3,), photon-number probabilities (3, n+1), fidelity
    lower bounds (3, n+1) between the n-photon states of each intensity
    pair and linearisation points (n+1,), each input with a leading
    program axis (or none, for one program).  Columns Y_I_n,
    intensity-major."""
    pattern, cols, _ = _layout("decoy", np.shape(probs)[-1])
    rows = []
    _decoy_block(rows, cols, gains, probs, fidelities, references)
    return _fill(pattern, senses, rows)


def refined_yield_program(gains: np.ndarray, probs: np.ndarray, fidelities: np.ndarray,
                          references: np.ndarray, weights: np.ndarray,
                          tag_fidelities: np.ndarray, cross_tag: np.ndarray) -> LinearProgram:
    """Yield program with key/opp eigenstate refinement: minimise Y_I0_key.

    The inputs of one `decoy_programs` program, and weights (3, 2): the
    key/opp eigenvalue weights of each intensity's single-photon state;
    tag_fidelities (3, 2): fidelity between the t-eigenstates of each
    intensity pair; cross_tag (3,): fidelity between the key and opp
    eigenstates of each intensity.  Columns: those of `decoy_programs`,
    then Y_I_t."""
    pattern, cols, tag_cols = _layout("refined yield", probs.shape[1])
    rows = []
    _refined_rows(rows, cols, tag_cols, *(x[None] for x in (
        gains, probs, fidelities, references, weights, tag_fidelities,
        np.stack([cross_tag] * 2, axis=-1))))
    return _fill(pattern, ("min",), rows)[0]


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
    pattern, cols, tag_cols = _layout("refined error", probs.shape[-1], bit)
    rows = []
    _refined_rows(rows, cols, tag_cols, outcome_gains, probs, fidelities, references, weights,
                  tag_fidelities, cross_bit)
    return _fill(pattern, ("max",), rows)[0]
