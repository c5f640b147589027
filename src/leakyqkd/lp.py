"""Dense linear programming for the decoy-state estimation programs.

A small two-phase simplex (Dantzig pricing with a deterministic switch
to Bland's anti-cycling rule on stalls) over variables boxed to [0, 1],
plus builders for the four estimation programs:

* baseline yield program: minimise the single-photon signal yield under
  two-sided decoy constraints and tangent-relaxed coin constraints
  linking intensities of equal photon number;
* baseline bit-error program: maximise the single-photon error
  probability under the same template;
* refined yield / bit-error programs: additionally split each
  single-photon state into its two dominant eigenvectors ("key"/"opp")
  with mixture constraints and coin constraints among the eigenstates.

All builders take pre-computed fidelity (lower bounds) and channel-model
reference points for the tangent linearisation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .coin import safe_reference, tangent_line

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
STALL_LIMIT = 40
RELAXATIONS = (0.0, 1e-10, 1e-8)

INTENSITIES = ("I0", "I1", "I2")
TAGS = ("key", "opp")


class InfeasibleProgramError(RuntimeError):
    """Raised by the pipeline when an estimation program has no solution."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    sense: str  # "<=" or ">="
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise ValueError(f"sense must be '<=' or '>=', got {self.sense!r}")


@dataclass
class LinearProgramSpec:
    """Objective and affine constraints over variables boxed to [0, 1]."""

    variables: tuple
    sense: str  # "min" or "max"
    objective: dict
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        known = set(self.variables)
        for name in self.objective:
            if name not in known:
                raise ValueError(f"objective references unknown variable {name!r}")
        for con in self.constraints:
            for name in con.coeffs:
                if name not in known:
                    raise ValueError(f"constraint references unknown variable {name!r}")


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    assignment: dict
    iterations: int
    relaxation: float = 0.0  # constraint relaxation level of the returned attempt
    attempts: int = 1


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # rows with a zero factor are unchanged: update only the others
    nz = np.flatnonzero(factors)
    tableau[nz] -= np.outer(factors[nz], tableau[row])
    basis[row] = col


def _choose_entering(cost_row: np.ndarray, allowed: np.ndarray, bland: bool) -> int:
    candidates = np.where(allowed & (cost_row[:-1] < -PIVOT_TOL))[0]
    if candidates.size == 0:
        return -1
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(cost_row[candidates])])


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int) -> int:
    column = tableau[:, col]
    rhs = tableau[:, -1]
    rows = np.where(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = np.min(ratios)
    # tie band strictly relative to the winning ratio; any absolute band
    # merges genuinely different tiny ratios when column entries are large
    ties = rows[ratios <= best + 1e-7 * abs(best)]
    if ties.size > 1:
        # prefer the largest pivot element for numerical stability
        pivots = column[ties]
        ties = ties[pivots >= 0.999 * np.max(pivots)]
    return int(ties[np.argmin(basis[ties])])


def _run_simplex(tableau, basis, cost_row, allowed) -> tuple[str, int]:
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
        _pivot(tableau, basis, row, col)
        cost_row -= cost_row[col] * tableau[row]
        iterations += 1
        if cost_row[-1] > progress_mark + PIVOT_TOL:
            progress_mark = cost_row[-1]
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        if iterations > 50_000:
            raise RuntimeError("simplex failed to terminate")


def solve(spec: LinearProgramSpec) -> LPSolution:
    """Two-phase simplex; deterministic for identical input.

    Highly degenerate sliver polytopes (all observables orders of
    magnitude below the box bounds) can defeat the plain ratio test, so
    when phase 1 finds no feasible point, or the solution fails the
    feasibility check, the solve is retried with a tiny deterministic
    relaxation of every constraint (the levels of RELAXATIONS).
    Relaxation is safe for the bounds computed here: minima only
    decrease and maxima only increase, both in the conservative
    direction.  The returned solution records the level it used and the
    number of attempts; an "infeasible" verdict stands only after the
    last level.
    """
    outcome: LPSolution | Exception | None = None
    for attempt, perturbation in enumerate(RELAXATIONS, start=1):
        solution = _solve_once(spec, perturbation)
        solution.relaxation, solution.attempts = perturbation, attempt
        if solution.status == "unbounded":
            return solution
        outcome = solution
        if solution.status == "optimal":
            allowance = perturbation * (len(spec.constraints) + len(spec.variables) + 2)
            try:
                _verify_feasible(spec, solution.assignment, allowance)
                return solution
            except RuntimeError as exc:
                outcome = exc
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _solve_once(spec: LinearProgramSpec, perturbation: float) -> LPSolution:
    names = list(spec.variables)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    rows = []
    for k, con in enumerate(spec.constraints):
        a = np.zeros(n)
        for name, coef in con.coeffs.items():
            a[index[name]] = coef
        shift = perturbation * (k + 1)
        rhs_k = con.rhs + (shift if con.sense == "<=" else -shift)
        rows.append((a, con.sense, rhs_k))
    for i in range(n):  # upper box bounds; lower bounds are native
        a = np.zeros(n)
        a[i] = 1.0
        rows.append((a, "<=", 1.0))

    m = len(rows)
    # columns: structural | one slack per row | artificials | rhs
    art_rows = []
    body = np.zeros((m, n + m))
    rhs = np.zeros(m)
    for r, (a, sense, b) in enumerate(rows):
        body[r, :n] = a
        body[r, n + r] = 1.0 if sense == "<=" else -1.0
        rhs[r] = b
        if rhs[r] < 0.0:
            body[r] *= -1.0
            rhs[r] *= -1.0
        if body[r, n + r] < 0.0:  # surplus can't start basic
            art_rows.append(r)
    n_art = len(art_rows)
    tableau = np.zeros((m, n + m + n_art + 1))
    tableau[:, :n + m] = body
    tableau[:, -1] = rhs
    basis = np.empty(m, dtype=int)
    for r in range(m):
        basis[r] = n + r
    for k, r in enumerate(art_rows):
        tableau[r, n + m + k] = 1.0
        basis[r] = n + m + k

    total_cols = n + m + n_art
    allowed = np.ones(total_cols, dtype=bool)

    iterations = 0
    if n_art:
        cost = np.zeros(total_cols + 1)
        cost[n + m:total_cols] = 1.0
        cost_row = cost.copy()
        for r in range(m):
            if cost[basis[r]] != 0.0:
                cost_row -= cost[basis[r]] * tableau[r]
        status, its = _run_simplex(tableau, basis, cost_row, allowed)
        iterations += its
        if status != "optimal" or -cost_row[-1] > 1e-7:
            return LPSolution(status="infeasible", value=None, assignment={}, iterations=iterations)
        allowed[n + m:] = False
        for r in range(m):
            if basis[r] >= n + m:  # drive artificial out or accept the redundant row
                pivot_cols = np.where(allowed[:n + m] & (np.abs(tableau[r, :n + m]) > PIVOT_TOL))[0]
                if pivot_cols.size:
                    _pivot(tableau, basis, r, int(pivot_cols[0]))
                    iterations += 1

    sign = 1.0 if spec.sense == "min" else -1.0
    cost = np.zeros(total_cols + 1)
    for name, coef in spec.objective.items():
        cost[index[name]] = sign * coef
    cost_row = cost.copy()
    for r in range(m):
        if cost[basis[r]] != 0.0:
            cost_row -= cost[basis[r]] * tableau[r]
    status, its = _run_simplex(tableau, basis, cost_row, allowed)
    iterations += its
    if status == "unbounded":
        return LPSolution(status="unbounded", value=None, assignment={}, iterations=iterations)

    # re-solve the final basic system from the original data: pivoting
    # through nearly parallel rows can leave O(1e-7) drift in the tableau
    original = np.zeros((m, total_cols))
    original[:, :n + m] = body
    for k, r in enumerate(art_rows):
        original[r, n + m + k] = 1.0
    values = np.zeros(total_cols)
    try:
        values[basis] = np.linalg.solve(original[:, basis], rhs)
    except np.linalg.LinAlgError:
        values[basis] = tableau[:, -1]
    assignment = {name: float(values[i]) for i, name in enumerate(names)}
    objective_value = float(sum(coef * assignment[name] for name, coef in spec.objective.items()))
    return LPSolution(status="optimal", value=objective_value,
                      assignment=assignment, iterations=iterations)


def _verify_feasible(spec: LinearProgramSpec, assignment: dict, allowance: float = 0.0):
    for name, value in assignment.items():
        if not -FEASIBILITY_TOL - allowance <= value <= 1.0 + FEASIBILITY_TOL + allowance:
            raise RuntimeError(f"solver returned {name}={value} outside [0, 1]")
    for con in spec.constraints:
        lhs = sum(coef * assignment[name] for name, coef in con.coeffs.items())
        scale = 1.0 + abs(con.rhs) + max(abs(c) for c in con.coeffs.values())
        if con.sense == "<=" and lhs > con.rhs + FEASIBILITY_TOL * scale + allowance:
            raise RuntimeError(f"constraint violated: {lhs} <= {con.rhs}")
        if con.sense == ">=" and lhs < con.rhs - FEASIBILITY_TOL * scale - allowance:
            raise RuntimeError(f"constraint violated: {lhs} >= {con.rhs}")


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def _fid(fidelities: dict, i: str, j: str, *rest) -> float:
    key = (i, j) + rest
    if key in fidelities:
        return fidelities[key]
    return fidelities[(j, i) + rest]


def _sandwich(rows: list, var_i: str, var_j: str, fid: float, y_ref: float):
    """Tangent-relaxed coin constraints: LCS^L(y_i) <= y_j <= LCS^U(y_i).

    Unit fidelities are capped infinitesimally below 1 (a relaxation, so
    still valid): exact-equality chains otherwise make the polytope a
    measure-zero sliver that amplifies quadrature noise in the data into
    spurious infeasibility.
    """
    fid = min(fid, 1.0 - 1e-14)
    low = tangent_line(fid, safe_reference(y_ref, fid, "L"), "L")
    high = tangent_line(fid, safe_reference(y_ref, fid, "U"), "U")
    rows.append(Constraint({var_i: low.slope, var_j: -1.0}, "<=", -low.intercept))
    rows.append(Constraint({var_i: high.slope, var_j: -1.0}, ">=", -high.intercept))


def _decoy_rows(rows: list, var_of, probs: np.ndarray, gain: float, n_cut: int):
    """Two-sided decoy constraints from Q = sum_n p_n Y_n + tail."""
    coeffs = {var_of(n): float(probs[n]) for n in range(n_cut + 1)}
    rows.append(Constraint(dict(coeffs), "<=", gain))
    tail_budget = gain - (1.0 - float(np.sum(probs[:n_cut + 1])))
    rows.append(Constraint(dict(coeffs), ">=", tail_budget))


def yield_program(gains: dict, probs: dict, fidelities: dict, references: np.ndarray,
                  n_cut: int, target: str = "I0") -> LinearProgramSpec:
    """Baseline single-photon yield program (minimise Y_target at n=1).

    gains[I]: observed gain; probs[I][n]: photon-number probabilities;
    fidelities[(I, J, n)]: fidelity (lower bounds) between the n-photon
    states of intensities I and J; references[n]: linearisation points.
    """
    var = lambda i, n: f"Y_{i}_{n}"
    variables = tuple(var(i, n) for i in INTENSITIES for n in range(n_cut + 1))
    rows: list[Constraint] = []
    for i in INTENSITIES:
        _decoy_rows(rows, lambda n, i=i: var(i, n), probs[i], gains[i], n_cut)
    for n in range(n_cut + 1):
        for i in INTENSITIES:
            for j in INTENSITIES:
                if i != j:
                    _sandwich(rows, var(i, n), var(j, n),
                              _fid(fidelities, i, j, n), float(references[n]))
    return LinearProgramSpec(variables=variables, sense="min",
                             objective={var(target, 1): 1.0}, constraints=rows)


def bit_error_program(error_gains: dict, probs: dict, fidelities: dict,
                      references: np.ndarray, n_cut: int,
                      target: str = "I0") -> LinearProgramSpec:
    """Baseline bit-error program (maximise the n=1 error probability)."""
    spec = yield_program(error_gains, probs, fidelities, references, n_cut, target)
    spec.sense = "max"
    return spec


@dataclass(frozen=True)
class KeyOppSplit:
    """Two dominant eigenvalues/eigenvectors of a single-photon state."""

    q_key: float
    q_opp: float
    v_key: np.ndarray
    v_opp: np.ndarray

    @property
    def rest(self) -> float:
        return max(0.0, 1.0 - self.q_key - self.q_opp)


def key_opp_split(rho: np.ndarray) -> KeyOppSplit:
    """Split a state into its two largest eigenvector contributions."""
    from .coin import state_eigendata

    eig = state_eigendata(rho)
    if eig.weights.size < 2:
        raise ValueError("state must have dimension >= 2")
    q_key, q_opp = float(eig.weights[0]), float(eig.weights[1])
    if q_key + q_opp > 1.0 + 1e-10:
        raise ValueError("eigenvalue weights exceed unit trace")
    if q_key - q_opp < 1e-12:
        warnings.warn("degenerate key/opp eigenvalues; ordering fixed by gauge",
                      RuntimeWarning, stacklevel=2)
    return KeyOppSplit(q_key=q_key, q_opp=q_opp,
                       v_key=eig.vectors[:, 0], v_opp=eig.vectors[:, 1])


def refined_yield_program(gains: dict, probs: dict, fidelities: dict,
                          references: np.ndarray, n_cut: int,
                          splits: dict, tag_fidelities: dict,
                          cross_tag_fidelities: dict,
                          target: str = "I0") -> LinearProgramSpec:
    """Yield program with key/opp eigenstate refinement.

    splits[I]: KeyOppSplit of the bit-averaged single-photon state (its
    q weights are the bit-averaged ones); tag_fidelities[(I, J, t)]:
    fidelity between the t-eigenstate mixtures of intensities I and J;
    cross_tag_fidelities[I]: fidelity between the key and opp mixtures
    at intensity I.  Objective: minimise the key yield at `target`.
    """
    base = yield_program(gains, probs, fidelities, references, n_cut, target)
    var = lambda i, n: f"Y_{i}_{n}"
    tvar = lambda i, t: f"Y_{i}_{t}"
    variables = base.variables + tuple(tvar(i, t) for i in INTENSITIES for t in TAGS)
    rows = list(base.constraints)
    ref_t = float(references[1])
    for i in INTENSITIES:
        split = splits[i]
        mix = {tvar(i, "key"): split.q_key, tvar(i, "opp"): split.q_opp, var(i, 1): -1.0}
        rows.append(Constraint(dict(mix), "<=", 0.0))
        rows.append(Constraint(dict(mix), ">=", -split.rest))
    for t in TAGS:
        for i in INTENSITIES:
            for j in INTENSITIES:
                if i != j:
                    _sandwich(rows, tvar(i, t), tvar(j, t),
                              _fid(tag_fidelities, i, j, t), ref_t)
    for i in INTENSITIES:
        _sandwich(rows, tvar(i, "key"), tvar(i, "opp"), cross_tag_fidelities[i], ref_t)
        _sandwich(rows, tvar(i, "opp"), tvar(i, "key"), cross_tag_fidelities[i], ref_t)
    return LinearProgramSpec(variables=variables, sense="min",
                             objective={tvar(target, "key"): 1.0}, constraints=rows)


def refined_error_program(outcome_gains: dict, probs: dict, fidelities: dict,
                          references, n_cut: int, splits: dict,
                          tag_fidelities: dict, cross_bit_fidelities: dict,
                          target: str = "I0") -> LinearProgramSpec:
    """Bit-error program with key/opp refinement over both bits.

    Variables carry (bit a, Bob outcome b, intensity, photon number or
    tag).  outcome_gains[(a, b, I)] are the per-outcome gains;
    probs[(a, I)][n] the per-bit photon probabilities; fidelities
    [(a, I, J, n)] between same-bit states; splits[(a, I)] per-bit
    KeyOppSplits; tag_fidelities[(a, I, J, t)] between same-bit
    eigenstates; cross_bit_fidelities[(a, a', I, t, t')] between the
    key eigenstate of one bit and the opp eigenstate of the other.
    references(a, b, n) returns the linearisation point.

    Objective: maximise the average, over bits, of the key-eigenstate
    probability of the error outcome b = 1 - a at `target`.
    """
    var = lambda a, b, i, n: f"Y{a}{b}_{i}_{n}"
    tvar = lambda a, b, i, t: f"Y{a}{b}_{i}_{t}"
    variables = tuple(var(a, b, i, n)
                      for a in (0, 1) for b in (0, 1)
                      for i in INTENSITIES for n in range(n_cut + 1))
    variables += tuple(tvar(a, b, i, t)
                       for a in (0, 1) for b in (0, 1)
                       for i in INTENSITIES for t in TAGS)
    rows: list[Constraint] = []
    for a in (0, 1):
        for b in (0, 1):
            for i in INTENSITIES:
                _decoy_rows(rows, lambda n, a=a, b=b, i=i: var(a, b, i, n),
                            probs[(a, i)], outcome_gains[(a, b, i)], n_cut)
            for n in range(n_cut + 1):
                for i in INTENSITIES:
                    for j in INTENSITIES:
                        if i != j:
                            _sandwich(rows, var(a, b, i, n), var(a, b, j, n),
                                      _fid(fidelities, i, j, a, n), references(a, b, n))
            for i in INTENSITIES:
                split = splits[(a, i)]
                mix = {tvar(a, b, i, "key"): split.q_key,
                       tvar(a, b, i, "opp"): split.q_opp,
                       var(a, b, i, 1): -1.0}
                rows.append(Constraint(dict(mix), "<=", 0.0))
                rows.append(Constraint(dict(mix), ">=", -split.rest))
            for t in TAGS:
                for i in INTENSITIES:
                    for j in INTENSITIES:
                        if i != j:
                            _sandwich(rows, tvar(a, b, i, t), tvar(a, b, j, t),
                                      _fid(tag_fidelities, i, j, a, t), references(a, b, 1))
    for b in (0, 1):
        for i in INTENSITIES:
            for a, a2 in ((0, 1), (1, 0)):
                for t, t2 in (("key", "opp"), ("opp", "key")):
                    fid = cross_bit_fidelities[(a, a2, i, t, t2)]
                    _sandwich(rows, tvar(a, b, i, t), tvar(a2, b, i, t2),
                              fid, references(a, b, 1))
    objective = {tvar(0, 1, target, "key"): 0.5, tvar(1, 0, target, "key"): 0.5}
    return LinearProgramSpec(variables=variables, sense="max",
                             objective=objective, constraints=rows)
