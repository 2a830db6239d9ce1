"""Finite- and infinite-horizon discounted dynamic programming on the grid.

The Bellman update is computed through the order-up-to decomposition

    v'(x_i) = min( g(x_i), K + min_{j > i} g(x_j) ) - c_bar * x_i,
    g(x_j)  = c_bar * x_j + E h(x_j - D) + alpha * E v(x_j - D),

which is algebraically identical to minimizing c(x, a) + alpha E v(x')
over feasible orders.  The minimization then costs O(n) per sweep instead of
O(n^2); the expectation E v is a product with the model's cached kernel
(``InventoryModel.kernel``), a banded CSR matrix with at most two nonzeros
per demand atom in each row, so a sweep as a whole is O(n atoms).  The grid
terms c_bar x and c_bar x + E h are ``InventoryModel.cbar_x`` and ``g_base``;
all three are built once per model and shared by every solve.  A stage
writes alpha W v into its g row and adds ``g_base``, accumulates the strict
suffix minimum into its m row and adds K there, with no other temporaries;
value iteration reuses two rows.  Each update's eps-optimal action sets are
kept as the arrays g and m of a ``PolicyTable``.  A stage also takes a (k, n)
stack in one kernel product, bitwise as row by row: action-convergence tracking
so advances all of a run's terminal values against one reference solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import InventoryModel, ModelError, PolicyTable, read_only

__all__ = [
    "ConvergenceError",
    "TerminalValue",
    "SolveReport",
    "FiniteHorizonResult",
    "bellman_update",
    "solve_finite",
    "solve_infinite",
    "policy_evaluation",
    "policy_order_steps",
    "sS_cycle_tables",
    "check_optimality_inequality",
    "OptimalityInequalityReport",
    "check_terminal_admissible",
    "AdmissibilityReport",
    "track_action_convergence",
    "check_t_max",
    "ActionConvergenceReport",
    "EPS_ACT",
]

EPS_ACT = 1e-9  # absolute tolerance for eps-optimal action sets
ADMISSIBLE_SLACK = 1e-9  # slack of check_terminal_admissible's two inequalities
ACTION_REF_TOL = 1e-10  # solve tolerance of track_action_convergence's reference sets
CYCLE_BLOCK = 2**20  # table cells (states x reorder indices) per streamed cycle-table block
ACTION_BLOCK = 2**13  # table cells (stages x states) per block of tracked actions
ACTION_TABLE_BYTES_CAP = 256 * 2**20  # largest t_max x n (or horizon x n) stage table


class ConvergenceError(RuntimeError):
    """Value iteration hit its iteration cap before the stopping rule fired."""


@dataclass(frozen=True)
class TerminalValue:
    """Nonnegative terminal cost F(x) charged on the final state."""

    values: np.ndarray
    id: str = "user"  # one of: zero, v0_alpha, user

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if np.any(v < -1e-12) or not np.all(np.isfinite(v)):
            raise ModelError("terminal value must be finite and nonnegative")
        object.__setattr__(self, "values", read_only(v.copy()))

    @classmethod
    def zero(cls, grid) -> "TerminalValue":
        return cls(values=np.zeros(grid.n), id="zero")


def _strict_suffix_min(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., i] = min over j > i of g[..., j] (+inf at the top), accumulated in place."""
    out[..., -1] = np.inf
    np.minimum.accumulate(g[..., :0:-1], axis=-1, out=out[..., -2::-1])
    return out


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha < 1.0):
        raise ModelError("alpha must lie in [0,1)")


def _stage(model: InventoryModel, v: np.ndarray, alpha: float, g: np.ndarray, m: np.ndarray):
    """One Bellman sweep from a row or (k, n) stack v: g and m written in place, T v returned."""
    if alpha != 0.0:  # alpha E v, plus the model's c_bar x + E h
        np.add(np.multiply(model.kernel.expect(v), alpha, out=g), model.g_base, out=g)
    else:
        g[:] = model.g_base
    np.minimum(g, np.add(_strict_suffix_min(g, m), model.K, out=m), out=m)
    return m - model.cbar_x


def _update(model: InventoryModel, v: np.ndarray, alpha: float) -> tuple[np.ndarray, PolicyTable]:
    """One Bellman sweep: the updated values and the policy table of the update."""
    g, m = np.empty((2, model.grid.n))
    tv = _stage(model, v, alpha, g, m)
    return tv, PolicyTable(grid=model.grid, g=g, m=m, K=model.K, eps=EPS_ACT)


def bellman_update(
    model: InventoryModel,
    v,
    alpha: float,
) -> tuple[np.ndarray, PolicyTable]:
    """One optimality-equation sweep from the values ``v`` on the grid.

    Ties inside the eps-optimal set are broken toward the smallest order,
    so "do not order" wins whenever it is within ``EPS_ACT`` of the minimum.
    """
    _check_alpha(alpha)
    vals = np.asarray(v, dtype=float)
    if vals.shape != (model.grid.n,) or np.any(vals < -1e-12) or not np.all(np.isfinite(vals)):
        raise ModelError("bellman_update needs a finite nonnegative value on every grid state")
    return _update(model, vals, alpha)


@dataclass(eq=False)
class FiniteHorizonResult:
    """Backward-induction iterates v_0..v_N with the policy of each update.

    ``values`` is the (N+1, n) array of rows v_t.  ``policies[t]`` is
    extracted from the update taking v_t to v_{t+1}.  For an N-horizon
    problem the Markov-optimal decision at epoch ``e`` is
    ``policies[N - e - 1]`` (the standard index reversal).
    """

    alpha: float
    values: np.ndarray
    policies: list

    @property
    def horizon(self) -> int:
        return len(self.policies)

    def stage_policy(self, epoch: int) -> PolicyTable:
        return self.policies[self.horizon - epoch - 1]


def solve_finite(
    model: InventoryModel,
    n_periods: int,
    terminal: TerminalValue,
    alpha: float,
) -> FiniteHorizonResult:
    """Backward induction for the ``n_periods``-horizon problem with terminal F.

    Raises ModelError at the first stage whose value is not finite and
    nonnegative on the grid (overflowing costs), naming the stage and state.
    """
    _check_alpha(alpha)
    if n_periods < 0:
        raise ModelError("horizon must be nonnegative")
    if terminal.values.shape != (model.grid.n,):
        raise ModelError("terminal value shape does not match the grid")
    values = np.empty((n_periods + 1, model.grid.n))
    values[0] = terminal.values
    policies: list[PolicyTable] = []
    for t in range(n_periods):
        v, pt = _update(model, values[t], alpha)
        bad = np.flatnonzero(~np.isfinite(v) | (v < -1e-12))
        if bad.size:
            i = bad[0]
            raise ModelError(f"stage value v_{t + 1} (alpha={alpha}) must be finite and "
                             f"nonnegative; x={model.grid.points[i]} (index {i}) has v = {v[i]}")
        values[t + 1] = v
        policies.append(pt)
    return FiniteHorizonResult(alpha=alpha, values=values, policies=policies)


@dataclass(eq=False)
class SolveReport:
    """Converged infinite-horizon solve: value, policy, and diagnostics.

    ``residual`` is sup |T v - v| of the returned value ``v``;
    ``certified_error_bound`` bounds sup |v - v_alpha| at the stop.
    """

    value: np.ndarray
    policy: PolicyTable
    iterations: int
    residual: float
    alpha: float
    tol: float
    clamp_events: int
    certified_error_bound: float


def _iteration_cap(alpha: float, tol: float) -> int:
    if alpha == 0.0:
        return 100
    target = tol * (1.0 - alpha)
    if target >= 1.0:
        return 100
    return 10 * math.ceil(math.log(target) / math.log(alpha)) + 100


def _iterate(
    update: Callable[[np.ndarray], np.ndarray],
    n: int,
    alpha: float,
    tol: float,
    what: str,
) -> tuple[np.ndarray, int, float]:
    """Iterate ``v <- update(v)`` from v = 0 until the error is certified <= tol/2.

    ``update`` must be monotone and satisfy T(v + c) = T v + alpha c for
    constants c, as the Bellman and the stationary-policy operators do.  Then
    the fixed point lies between the MacQueen-Porteus bounds
    T v + alpha/(1-alpha) min(T v - v) and T v + alpha/(1-alpha) max(T v - v),
    and span(T v - v) shrinks by at least alpha per sweep on every chain.
    Iteration stops when that bracket is at most tol/2 wide and returns its
    lower end, which lies below the fixed point and satisfies T v >= v.

    Returns (value, sweeps, certified error bound).  Raises ModelError at a
    non-finite span, ConvergenceError past ``_iteration_cap`` sweeps.
    """
    if not tol > 0:
        raise ModelError("tol must be positive")
    cap = _iteration_cap(alpha, tol)
    scale = alpha / (1.0 - alpha)
    v = np.zeros(n)
    bound = math.inf
    for sweeps in range(1, cap + 1):
        tv = update(v)
        diff = tv - v
        lo = float(diff.min())
        bound = scale * (float(diff.max()) - lo)
        if not math.isfinite(bound):  # overflowing costs: stop now, not at the cap
            bad = np.flatnonzero(~np.isfinite(diff))
            i = bad[0] if bad.size else int(np.argmax(np.abs(diff)))  # or the span overflowed
            raise ModelError(f"{what}: span bound {bound} at sweep {sweeps} (alpha={alpha}); "
                             f"state index {i} has T v - v = {diff[i]}")
        if bound <= tol / 2:
            return tv + scale * lo, sweeps, bound
        v = tv
    raise ConvergenceError(
        f"{what}: span bound {bound:.3e} after {cap} sweeps "
        f"(target {tol / 2:.3e}, alpha={alpha})"
    )


def solve_infinite(
    model: InventoryModel,
    alpha: float,
    tol: float = 1e-8,
) -> SolveReport:
    """Value iteration from v = 0, certified to lie within tol/2 below v_alpha.

    Stops on the MacQueen-Porteus span bound (see ``_iterate``).  The greedy
    policy and the residual come from one more Bellman sweep of the returned
    value.  Raises ConvergenceError past the iteration cap.
    """
    _check_alpha(alpha)
    g, m = np.empty((2, model.grid.n))
    v, iterations, bound = _iterate(
        lambda u: _stage(model, u, alpha, g, m), model.grid.n, alpha, tol, "value iteration"
    )
    tv, policy = _update(model, v, alpha)
    return SolveReport(
        value=v,
        policy=policy,
        iterations=iterations,
        residual=float(np.max(np.abs(tv - v))),
        alpha=alpha,
        tol=tol,
        clamp_events=model.kernel.clamp_events,
        certified_error_bound=bound,
    )


def policy_order_steps(model: InventoryModel, policy) -> np.ndarray:
    """Normalize a policy (PolicyTable, SsPolicy, or array of orders) to grid steps."""
    g = model.grid
    if isinstance(policy, PolicyTable):
        return policy.order_steps()
    if hasattr(policy, "s") and hasattr(policy, "S"):
        s_idx = g.index_of(policy.s)
        S_idx = g.index_of(policy.S)
        idx = np.arange(g.n)
        return np.where(idx < s_idx, S_idx - idx, 0)
    arr = np.asarray(policy, dtype=float)
    steps = np.round(arr / g.step).astype(int)
    if np.any(np.abs(steps * g.step - arr) > 1e-9):
        raise ModelError("policy actions must be multiples of the grid step")
    if np.any(steps < 0) or np.any(steps + np.arange(g.n) > g.n - 1):
        raise ModelError("policy actions must be feasible order-up-to moves")
    return steps


def policy_evaluation(
    model: InventoryModel,
    policy,
    alpha: float,
    tol: float = 1e-8,
) -> np.ndarray:
    """Value of a stationary policy, certified to lie within tol/2 below it.

    Iterates the policy's affine operator v -> c + alpha P v from v = 0 with
    the same stopping rule as ``solve_infinite``.
    """
    _check_alpha(alpha)
    steps = policy_order_steps(model, policy)
    idx = np.arange(model.grid.n)
    j = idx + steps
    c_vec = model.one_step_cost(idx, steps)
    kernel = model.kernel
    v, _, _ = _iterate(
        lambda u: c_vec + alpha * kernel.expect(u)[j],
        model.grid.n,
        alpha,
        tol,
        "policy evaluation",
    )
    return v


@dataclass(eq=False)
class OptimalityInequalityReport:
    residuals: np.ndarray
    interior_mask: np.ndarray
    max_interior: float
    max_boundary: float
    slack: float
    passes: bool


def check_optimality_inequality(
    model: InventoryModel,
    policy,
    rel,
) -> OptimalityInequalityReport:
    """Residuals r(x) = c(x, phi(x)) + E u(x') - w - u(x) of the optimality inequality.

    ``rel`` is an ``average.RelativeValue``: the relative value u, the
    average-cost estimate w and the slack ``rel.default_slack``.  States
    within one maximum demand of either grid edge are excluded from the
    verdict (clamped transitions distort u there) and reported separately.
    """
    s = rel.default_slack
    steps = policy_order_steps(model, policy)
    idx = np.arange(model.grid.n)
    u = rel.u
    r = model.one_step_cost(idx, steps) + model.kernel.expect(u)[idx + steps] - rel.w - u
    d_max = model.demand.max_value
    xs = model.grid.points
    interior = (xs >= model.grid.x_lo + d_max) & (xs <= model.grid.x_hi - d_max)
    max_int = float(r[interior].max()) if interior.any() else -np.inf
    max_bnd = float(r[~interior].max()) if (~interior).any() else -np.inf
    return OptimalityInequalityReport(
        residuals=r,
        interior_mask=interior,
        max_interior=max_int,
        max_boundary=max_bnd,
        slack=float(s),
        passes=bool(max_int <= s),
    )


def sS_cycle_tables(
    model: InventoryModel, alpha: float, s_lo: int = 0,
    s_hi: Optional[int] = None, j_hi: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-cycle tables (beta, gamma, N) of the reorder indices s_lo <= s < s_hi
    on the states j < j_hi (default: all).

    Column s - s_lo belongs to the policy that orders when the state index
    is below s; a cycle ends when the state first falls below s.  On j < s
    the tables hold beta = 1, gamma = -c_bar x_j, N = 0; on j >= s they solve

        beta = alpha W beta,   gamma = E h + alpha W gamma,   N = 1 + alpha W N

    (discount at the cycle's end, discounted cycle cost and length; the
    closing order's -c_bar x share is booked to the cycle it ends).  The
    value of the pair (s,S) is then gamma[:, s] + C beta[:, s] with
    C = (K + c_bar x_S + gamma[S, s]) / (1 - beta[S, s]), and at alpha = 1 its
    average cost is (K + c_bar x_S + gamma[S, s]) / N[S, s].  Demand is
    nonnegative, so W is lower triangular up to floor() roundoff (entries
    above the diagonal, ~1e-16, are dropped): forward substitution over the
    rows costs O(n band) per column.  einsum sums each row's inflow in an
    order that does not depend on the range, so a column is bitwise the same
    solved alone, in a block or in the full range, and a row does not depend
    on the rows above it, so the row loop stops at j_hi.  At alpha = 1 the s = 0
    column never renews and holds beta = 0, gamma = N = inf, and
    P(D > 0) > 0 is required.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0,1]")
    if alpha == 1.0 and model.demand.p_positive == 0.0:
        raise ModelError("at alpha = 1 an order cycle needs P(D > 0) > 0 to end")
    n = model.grid.n
    s_hi = n if s_hi is None else s_hi
    j_hi = n if j_hi is None else j_hi
    W = model.kernel.matrix
    below_s = np.arange(j_hi)[:, None] < np.arange(s_lo, s_hi)  # [j, c]: j < s
    # tables[j, k, c] with k = 0, 1, 2 for beta, gamma, N and s = s_lo + c
    tables = np.zeros((j_hi, 3, s_hi - s_lo))
    tables[:, 0] = below_s
    np.multiply(-model.c_bar * model.grid.points[:j_hi, None], below_s, out=tables[:, 1])
    first = max(s_lo, int(alpha == 1.0))  # the first reorder index solved
    tables[:, 1:, : first - s_lo] = np.inf
    rhs = np.column_stack((np.zeros(n), model.eh, np.ones(n)))
    for j in range(first, j_hi):
        row = slice(W.indptr[j], W.indptr[j + 1])
        cols, vals = W.indices[row], W.data[row]
        lower = cols < j
        active = slice(first - s_lo, min(j + 1, s_hi) - s_lo)
        inflow = np.einsum("i,ijk->jk", vals[lower], tables[cols[lower], :, active])
        tables[j, :, active] = (rhs[j, :, None] + alpha * inflow) / (
            1.0 - alpha * vals[cols == j].sum()
        )
    return tables[:, 0], tables[:, 1], tables[:, 2]


def _scan_cycle_blocks(model: InventoryModel, alpha: float, s_lo: int, reduce) -> list:
    """[reduce(s, beta, gamma, N)] over blocks of about ``CYCLE_BLOCK`` cells,
    s from s_lo up; each block is freed before the next is built."""
    n = model.grid.n
    width = max(1, CYCLE_BLOCK // n)
    blocks = [(s0, min(n, s0 + width)) for s0 in range(s_lo, n, width)]
    return [reduce(np.arange(a, b), *sS_cycle_tables(model, alpha, a, b)) for a, b in blocks]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Gridwise check of F <= v_alpha and v_{1,F} >= F (within slack)."""

    f_le_v_alpha: bool
    one_step_ge_f: bool
    max_excess_over_v: float

    @property
    def admissible(self) -> bool:
        return self.f_le_v_alpha and self.one_step_ge_f


def check_terminal_admissible(
    terminal: TerminalValue,
    model: InventoryModel,
    alpha: float,
    v_alpha: np.ndarray,
    v1: Optional[np.ndarray] = None,
) -> AdmissibilityReport:
    """Verify the two terminal-value inequalities that make action tracking meaningful,
    each within ``ADMISSIBLE_SLACK``; ``v1`` is the first stage T F, if already computed."""
    f = terminal.values
    if v1 is None:
        v1, _ = _update(model, f, alpha)
    excess = float(np.max(f - v_alpha))
    drop = float(np.max(f - v1))
    return AdmissibilityReport(
        f_le_v_alpha=excess <= ADMISSIBLE_SLACK,
        one_step_ge_f=drop <= ADMISSIBLE_SLACK,
        max_excess_over_v=excess,
    )


@dataclass(eq=False)
class ActionConvergenceReport:
    """Distances from finite-horizon chosen actions to the infinite-horizon set.

    ``distances[t-1, i]`` is dist(chosen_t(x_i), A_alpha(x_i)) for t = 1..t_max.
    ``settle_t[i]`` is the first t after which the distance stays within one
    grid step (-1 if it never settles); ``exact_settle_t`` uses distance 0.
    """

    distances: np.ndarray
    settle_t: np.ndarray
    exact_settle_t: np.ndarray

    @property
    def unsettled(self) -> np.ndarray:
        return np.nonzero(self.settle_t < 0)[0]

    @property
    def all_settled(self) -> bool:
        return bool(np.all(self.settle_t >= 0))


def _suffix_settle(cond: np.ndarray) -> np.ndarray:
    """Per column: first t (1-based) from which ``cond`` holds to the end, else -1."""
    tail = np.logical_and.accumulate(cond[::-1], axis=0).sum(axis=0)  # rows holding at the end
    return np.where(tail > 0, cond.shape[0] + 1 - tail, -1)


def check_t_max(t_max: int, n: int, flag: str = "t_max (--t-max)", table: str = "distance") -> None:
    """Raise ModelError unless t_max >= 1 and a t_max x n float ``table`` (a terminal's
    distances by default; ``flag`` names the stage count) fits ``ACTION_TABLE_BYTES_CAP``."""
    if t_max < 1:
        raise ModelError(f"t_max must be at least 1, got {t_max}")
    if (size := 8 * t_max * n) > ACTION_TABLE_BYTES_CAP:
        raise ModelError(
            f"{flag} {t_max:,} needs a {size:,}-byte {table} table over {n} states, "
            f"above the {ACTION_TABLE_BYTES_CAP:,}-byte cap"
        )


def track_action_convergence(
    model: InventoryModel,
    alpha: float,
    terminals,
    t_max: int,
) -> list[ActionConvergenceReport]:
    """Track finite-horizon chosen actions against the infinite-horizon sets: one report
    per terminal value of the sequence ``terminals``, in order.

    Requires admissible terminal values.  One reference solve at the tight tolerance
    ``ACTION_REF_TOL`` serves them all, so that eps-optimal membership is not blurred by
    the value-iteration error.  The terminals advance as one (k, n) stack, whose first
    stage v_1 = T F also decides admissibility.  The stages' g and m rows go into a buffer
    of about ``ACTION_BLOCK`` cells for the whole stack; each full buffer is one stacked
    ``PolicyTable`` resolved at once, so only the (k, t_max, n) distances outlive a block,
    each terminal's slice contiguous.  Raises ModelError from ``check_t_max``.
    """
    check_t_max(t_max, model.grid.n)
    ref = solve_infinite(model, alpha, tol=ACTION_REF_TOL)
    F = np.array([f.values for f in terminals])
    rows = min(t_max, max(1, ACTION_BLOCK // F.size))
    g, m = np.empty((2, rows) + F.shape)
    dist = np.empty((len(F), t_max, model.grid.n))
    v = _stage(model, F, alpha, g[0], m[0])  # chosen_t: the update of v_t, t >= 1
    for f, v1 in zip(terminals, v):
        if not check_terminal_admissible(f, model, alpha, ref.value, v1).admissible:
            raise ModelError(f"terminal value {f.id} fails the admissibility inequalities; "
                             "action-convergence tracking is not meaningful")
    for t in range(t_max):
        b = t % rows
        v = _stage(model, v, alpha, g[b], m[b])
        if b == rows - 1 or t == t_max - 1:
            block = PolicyTable(grid=model.grid, g=g[: b + 1], m=m[: b + 1], K=model.K, eps=EPS_ACT)
            dist[:, t - b : t + 1] = ref.policy.distance(block.chosen).swapaxes(0, 1)
    step = model.grid.step  # settled per terminal, so the masks stay t_max x n
    return [ActionConvergenceReport(distances=d, settle_t=_suffix_settle(d <= step + 1e-12),
                                    exact_settle_t=_suffix_settle(d <= 1e-12)) for d in dist]
