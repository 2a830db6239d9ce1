"""Vanishing-discount average-cost analysis.

Runs discounted solves along a schedule of factors increasing to 1, tracks
m_alpha = min_x v_alpha(x) and the relative values u_alpha = v_alpha -
m_alpha, estimates the optimal average cost as the limit of
(1 - alpha) m_alpha, and extracts the per-factor thresholds through
``policy``.  The optimality-inequality check lives in ``dp`` and is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import InventoryModel, ModelError
from .dp import (
    ConvergenceError,
    OptimalityInequalityReport,
    _scan_cycle_blocks,
    _value_iteration,
    check_optimality_inequality,
    sS_cycle_tables,
)
from .policy import CertificationError, build_G, extract_sS, is_K_convex

__all__ = [
    "geometric_schedule",
    "AlphaRecord",
    "VanishingDiscountSweep",
    "RelativeValue",
    "sweep",
    "assumption_B_diagnostic",
    "BDiagnostic",
    "minimizer_set_diagnostic",
    "MinimizerHull",
    "check_optimality_inequality",
    "OptimalityInequalityReport",
    "exact_average_cost",
    "optimal_average_cost",
]

CAUCHY_REL = 0.01
GROWTH_REL = 0.01


def geometric_schedule(n: int) -> list[float]:
    """alpha_k = 1 - 2^-k for k = 1..n."""
    if n < 1:
        raise ModelError("schedule length must be at least 1")
    return [1.0 - 2.0 ** (-k) for k in range(1, n + 1)]


@dataclass(eq=False)
class AlphaRecord:
    alpha: float
    m_alpha: float
    u: np.ndarray
    minimizer_states: np.ndarray
    s: Optional[float]
    S: Optional[float]
    iterations: int
    threshold_warning: Optional[str]

    @property
    def w_point(self) -> float:
        return (1.0 - self.alpha) * self.m_alpha


@dataclass(eq=False)
class RelativeValue:
    """Relative value u at the largest schedule factor plus the w estimate."""

    u: np.ndarray
    w: float
    alpha: float
    default_slack: float

    def __post_init__(self) -> None:
        if np.any(self.u < -1e-9):
            raise ModelError("relative value must be nonnegative")
        if float(self.u.min()) > 1e-9:
            raise ModelError("relative value must vanish at some grid state")


@dataclass(eq=False)
class VanishingDiscountSweep:
    model: InventoryModel
    records: list
    w_estimate: float
    diffs: np.ndarray
    cauchy: bool
    partial: bool
    warnings: list
    tol: float

    @property
    def alphas(self) -> list[float]:
        return [r.alpha for r in self.records]

    def relative_value(self) -> RelativeValue:
        # Default slack for inequality checks: the Cauchy gap of (1-alpha) m_alpha
        # plus the irreducible finite-alpha term.  An alpha-optimal policy has
        # residual (1-alpha) E u(x') exactly, so the u term must appear or wide
        # grids (large u far from the minimizer) fail spuriously.
        last = self.records[-1]
        slack = (1.0 - last.alpha) * float(last.u.max())
        slack += 10.0 * abs(self.diffs[-1]) if self.diffs.size else 1e-6
        return RelativeValue(
            u=last.u,
            w=self.w_estimate,
            alpha=last.alpha,
            default_slack=float(slack),
        )


def _minimizers(v: np.ndarray, xs: np.ndarray) -> tuple[float, np.ndarray]:
    m = float(v.min())
    eps = max(1e-9, 1e-12 * abs(m))
    return m, xs[v <= m + eps]


def _record(model: InventoryModel, alpha: float, v, iterations: int, tol) -> AlphaRecord:
    m, mins = _minimizers(v, model.grid.points)
    s = S = None
    warn = None
    try:
        g = build_G(model, v, alpha, tol=tol)
        cert = is_K_convex(model.grid, g, model.K)
        if cert.verdict:
            ss = extract_sS(model.grid, g, model.K)
            s, S = ss.s, ss.S
        else:
            warn = f"alpha={alpha}: G not K-convex, thresholds withheld"
    except (ModelError, CertificationError) as exc:
        warn = f"alpha={alpha}: {exc}"
    return AlphaRecord(
        alpha=alpha,
        m_alpha=m,
        u=v - m,
        minimizer_states=mins,
        s=s,
        S=S,
        iterations=iterations,
        threshold_warning=warn,
    )


def sweep(model: InventoryModel, schedule=None, tol: float = 1e-7) -> VanishingDiscountSweep:
    """Discounted solves along an increasing schedule of factors.

    The factors' value iterations advance as one Bellman stack (``dp._iterate``),
    each row bitwise its ``solve_infinite``.  Each factor's thresholds come from
    its certified G; where the certificate or the extraction fails, they are
    withheld with a warning.  An iteration-cap failure at a factor truncates the
    schedule there and returns a partial sweep with a warning.
    """
    sched = list(schedule) if schedule is not None else geometric_schedule(12)
    if not sched:
        raise ModelError("schedule must be nonempty")
    arr = np.asarray(sched, dtype=float)
    if not (np.all((0 <= arr) & (arr < 1)) and np.all(np.diff(arr) > 0)):  # NaN fails too
        raise ModelError("schedule must be strictly increasing inside [0,1)")
    values, iterations, _, error = _value_iteration(model, sched, tol)
    if isinstance(error, ModelError):
        raise error
    records = [_record(model, *row, tol) for row in zip(sched, values, iterations.tolist())]
    warnings = [r.threshold_warning for r in records if r.threshold_warning]
    if error:
        warnings.append(f"alpha={sched[len(records)]}: solver iteration cap hit; "
                        f"sweep truncated ({error})")
    if not records:
        raise ConvergenceError("no schedule point converged: " + "; ".join(warnings))
    if len(records) < 3:
        warnings.append("insufficient for limit analysis: need at least 3 schedule points")
    w_points = np.array([r.w_point for r in records])
    diffs = np.diff(w_points)
    cauchy = False
    if diffs.size >= 2:
        scale = max(abs(w_points[-1]), 1e-12)
        cauchy = bool(np.all(np.abs(diffs[-2:]) / scale < CAUCHY_REL))
    if not cauchy:
        warnings.append("(1-alpha) m_alpha is not Cauchy at the end of the schedule")
    return VanishingDiscountSweep(
        model=model,
        records=records,
        w_estimate=float(w_points[-1]),
        diffs=diffs,
        cauchy=cauchy,
        partial=error is not None,
        warnings=warnings,
        tol=tol,
    )


@dataclass(eq=False)
class BDiagnostic:
    verdict: str  # "bounded" | "suspected unbounded"
    offending_states: np.ndarray

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"


def assumption_B_diagnostic(sweep_result: VanishingDiscountSweep) -> BDiagnostic:
    """Boundedness screen for sup over the schedule of u_alpha(x).

    A state is flagged when its per-state maximum is still attained at the
    last factor and grew by 1% or more over the final step.
    """
    records = sweep_result.records
    if len(records) < 3:
        raise ModelError("assumption-B diagnostic needs a sweep over at least 3 factors")
    U = np.stack([r.u for r in records])
    attained_before_last = U.argmax(axis=0) < len(records) - 1
    growth = U[-1] - U[-2]
    small_growth = growth < GROWTH_REL * (np.abs(U[-2]) + 1e-6)
    ok = attained_before_last | small_growth
    offending = sweep_result.model.grid.points[~ok]
    verdict = "bounded" if bool(np.all(ok)) else "suspected unbounded"
    return BDiagnostic(verdict=verdict, offending_states=offending)


@dataclass(frozen=True)
class MinimizerHull:
    lo: float
    hi: float
    interior_ok: bool


def minimizer_set_diagnostic(sweep_result: VanishingDiscountSweep) -> MinimizerHull:
    """Hull of the per-alpha minimizer sets; failing means the grid is too tight."""
    los = [float(r.minimizer_states.min()) for r in sweep_result.records]
    his = [float(r.minimizer_states.max()) for r in sweep_result.records]
    g = sweep_result.model.grid
    lo, hi = min(los), max(his)
    return MinimizerHull(lo=lo, hi=hi, interior_ok=bool(g.x_lo < lo and hi < g.x_hi))


def exact_average_cost(model: InventoryModel, policy) -> float:
    """Long-run average cost w(s,S) of an (s,S) policy on the grid chain, exactly.

    Renewal reward over order cycles: w = (K + c_bar x_S + gamma_S) / N_S
    from column s of the alpha = 1 tables of ``sS_cycle_tables``, solved up
    to row S.  Needs s above x_lo (otherwise the chain never orders) and
    P(D > 0) > 0 (otherwise no cycle ends; the tables raise ModelError).
    """
    s, S = model.grid.index_of(policy.s), model.grid.index_of(policy.S)
    if s == 0:
        raise ModelError("w(s,S) needs s above x_lo: the chain never orders")
    _, gamma, N = sS_cycle_tables(model, 1.0, s, s + 1, S + 1)
    return float((model.K + model.c_bar * model.grid.points[S] + gamma[S, 0]) / N[S, 0])


def optimal_average_cost(model: InventoryModel) -> tuple[float, tuple[float, float]]:
    """Exact optimal average cost w* over all grid (s,S) pairs, and its pair.

    w(s,S) = (K + c_bar x_S + gamma[S, s]) / N[S, s] from the order-cycle
    tables at alpha = 1 (``sS_cycle_tables``), for every pair with s above
    x_lo (s = x_lo never orders), streamed in blocks of reorder indices.
    Among equal costs the first pair with S ascending, then s ascending, is
    returned.  Needs P(D > 0) > 0.
    """
    xs = model.grid.points
    head = model.K + model.c_bar * xs
    rows = np.arange(model.grid.n)[:, None]

    def block_min(s, _, gamma, N):  # the first least (w, S, s) of a block
        w = np.divide(head[:, None] + gamma, N, out=np.full_like(N, np.inf), where=rows >= s)
        S, c = np.unravel_index(np.argmin(w), w.shape)
        return float(w[S, c]), int(S), int(s[c])

    w_star, S, s = min(_scan_cycle_blocks(model, 1.0, 1, block_min))
    return w_star, (float(xs[s]), float(xs[S]))
