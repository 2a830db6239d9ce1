"""G-functions, K-convexity certification, and (s,S) threshold extraction.

The reorder point s and order-up-to level S come from

    S = smallest grid argmin of g,
    s = smallest grid x <= S with g(x) <= K + g(S),

applied to the appropriate g: the finite-horizon stage functions, the
infinite-horizon discounted one, or the average-cost H built from the
relative value function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Grid, InventoryModel, ModelError
from .dp import (
    FiniteHorizonResult,
    SolveReport,
    TerminalValue,
    _scan_cycle_blocks,
    _strict_suffix_min,
    check_optimality_inequality,
    policy_evaluation,
    policy_order_steps,
    sS_cycle_tables,
    solve_finite,
    solve_infinite,
)

__all__ = [
    "CertificationError",
    "SsPolicy",
    "build_G",
    "extract_sS",
    "is_K_convex",
    "KConvexityReport",
    "solve_zero_setup",
    "ZeroSetupResult",
    "finite_horizon_sS",
    "FiniteSsResult",
    "discounted_sS",
    "DiscountedSsResult",
    "average_sS",
    "AverageSsResult",
    "slope_condition",
    "SlopeConditionReport",
]

TIE_EPS = 1e-9
BRUTE_FORCE_MARGIN = 1e-6
G_CONSISTENCY_TOL = 1e-7
KCONVEX_TOL = 1e-9
KCONVEX_BLOCK = 8192  # cells per row block of the K-convexity scan
KCONVEX_BUFSIZE = 1024  # numpy's ufunc buffer, in elements, during the scan


class CertificationError(RuntimeError):
    """A structural property that the theory guarantees failed numerically."""


@dataclass(frozen=True)
class SsPolicy:
    """Order up to S whenever x < s, otherwise do not order."""

    s: float
    S: float

    def __post_init__(self) -> None:
        if self.s > self.S:
            raise ModelError(f"(s,S) needs s <= S, got ({self.s}, {self.S})")

    def order_quantity(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = np.where(arr < self.s, self.S - arr, 0.0)
        return float(out) if arr.ndim == 0 else out

    def pair(self) -> tuple[float, float]:
        return (self.s, self.S)


def build_G(
    model: InventoryModel,
    values,
    alpha: float,
    tol: Optional[float] = None,
) -> np.ndarray:
    """g(x) = c_bar x + E h(x-D) + alpha E v(x-D) on the grid, for one value row or,
    in one sparse product, for a (T, n) stack of them, bitwise as row by row.

    Value lookups below x_lo are linearly extrapolated from the two lowest
    grid points (the value function is asymptotically linear there).  That
    is the model's clamp kernel W plus a rank-one term,
    E v(x_j - D) = (W v)[j] + below[j] (v[1] - v[0]) (see
    ``post_expectation_matrix``), so g reuses ``model.kernel`` and
    ``model.eh`` and builds no operator of its own.  The count of such
    lookups is the kernel's ``clamp_events``.  A stage function G_t takes
    v_t; the average-cost H takes the relative value u with alpha = 1.

    When one row v is a fixed point of the optimality equation solved to ``tol``,
    passing ``tol`` confirms that min(min_a [K + g(x+a)], g(x)) - c_bar x
    reproduces v(x) on the extrapolation-free interior within max(``G_CONSISTENCY_TOL``,
    tol), as the gap is bounded by the certified solve error; failure signals a
    grid/tolerance misconfiguration and raises CertificationError.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[-1:] != (model.grid.n,) or vals.ndim > (1 if tol is not None else 2):
        raise ModelError("value table shape does not match the grid")
    kernel = model.kernel
    g_vals = (kernel.matrix @ vals.T).T  # then in place, so a stack adds one (T, n) temporary
    g_vals += kernel.below * (vals[..., 1:2] - vals[..., :1])
    np.add(np.multiply(g_vals, alpha, out=g_vals), model.g_base, out=g_vals)
    if not np.all(np.isfinite(g_vals)):
        raise ModelError("G-function must be finite on the grid")
    if tol is not None:
        tol = max(G_CONSISTENCY_TOL, tol)
        interior = model.grid.points >= model.grid.x_lo + model.demand.max_value
        later = _strict_suffix_min(g_vals, np.empty_like(g_vals))
        vhat = np.minimum(g_vals, model.K + later) - model.cbar_x
        gap = float(np.max(np.abs(vhat[interior] - vals[interior]))) if interior.any() else 0.0
        if gap > tol:
            raise CertificationError(
                f"G-function consistency: reformulated optimality equation misses v "
                f"by {gap:.3e} (> {tol:.1e}); grid or tolerance misconfigured"
            )
    return g_vals


def extract_sS(grid: Grid, g: np.ndarray, K: float) -> SsPolicy:
    """Thresholds from a (K-convex) g: S at the argmin, s at the K + g(S) level set."""
    n = g.size
    S_idx = int(np.argmin(g))
    if S_idx == 0 or S_idx == n - 1:
        edge = "grid.x_lo" if S_idx == 0 else "grid.x_hi"
        raise ModelError(
            f"grid too narrow: argmin of g sits on the boundary (index {S_idx}); widen {edge}"
        )
    level = K + g[S_idx]
    below = np.nonzero(g[: S_idx + 1] <= level + TIE_EPS)[0]
    s_idx = int(below[0])
    return SsPolicy(s=float(grid.points[s_idx]), S=float(grid.points[S_idx]))


@dataclass(frozen=True)
class KConvexityReport:
    verdict: bool
    worst_violation: float
    worst_triple: Optional[tuple[float, float, float]]
    tol: float
    K: float


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a g that swamps K overflows
def is_K_convex(grid: Grid, g: np.ndarray, K: float) -> KConvexityReport:
    """Definitional K-convexity check over all grid triples x < m < y.

    With lam = (m-x)/(y-x) the violation at a triple is
    g(m) - (1-lam) g(x) - lam g(y) - lam K, and the verdict is true when the
    largest violation stays within ``KCONVEX_TOL``.  Writing
    sigma_x(y) = (g(y) + K - g(x)) / (y - x), the violation is
    g(m) - g(x) - (m-x) sigma_x(y), so the worst triple of row x is

        max over m of  g(m) - g(x) - (m-x) min_{y > m} sigma_x(y):

    one reversed running minimum over y and one argmax over m.  Rows are
    scanned in blocks of about ``KCONVEX_BLOCK`` cells, whose columns start
    one past the block's first row, in two buffers made once per call: y - x,
    turned in place into (m - x) times the running minimum, and sigma, turned
    into the violations.  No cell with m > x reads a cell with y <= x, so only
    the leading triangle m <= x and the last column are set to -inf.  numpy's
    ufunc buffer is ``KCONVEX_BUFSIZE`` elements meanwhile, so broadcasting a
    block's rows copies nothing block-sized: O(n^2) time, O(n + KCONVEX_BLOCK)
    memory.  Each cell is the float operation of a plain per-row scan; among
    tied triples the smallest x, then m, then y is reported.  A NaN cell (an
    overflowing g) is a violation above every number, so the verdict is false
    and the first NaN triple is reported, at any block size.
    """
    if K < 0:
        raise ModelError("K must be nonnegative")
    vals = np.asarray(g, dtype=float)
    xs = grid.points
    n = vals.size
    if n < 3:
        return KConvexityReport(True, 0.0, None, KCONVEX_TOL, K)
    worst, worst_triple = -np.inf, None
    vk = vals + K
    dx_flat, sig_flat = np.empty((2, max(KCONVEX_BLOCK, n - 1)))
    # before[i, c]: column c lies at or before row i; a block of R >= 2 rows has R^2 < cells
    before = np.tri(math.isqrt(KCONVEX_BLOCK) + 1, k=-1, dtype=bool)
    bufsize = np.setbufsize(KCONVEX_BUFSIZE)
    try:
        r0 = 0
        while r0 < n - 2:
            # rows x in [r0, r1), columns y (and m) from r0 + 1 to n - 1
            w = n - 1 - r0
            r1 = min(n - 2, r0 + max(1, KCONVEX_BLOCK // w))
            rows, xr = r1 - r0, vals[r0:r1, None]
            dxf, sgf = dx_flat[: rows * w], sig_flat[: rows * w]
            dx, sig = dxf.reshape(rows, w), sgf.reshape(rows, w)
            np.subtract(xs[r0 + 1 :], xs[r0:r1, None], out=dx)
            np.divide(np.subtract(vk[r0 + 1 :], xr, out=sig), dx, out=sig)
            # sig[:, c] for c >= 1: the min of sigma over the columns from c on
            tail = sig[:, :0:-1]
            np.minimum.accumulate(tail, axis=1, out=tail)
            # flat, one cell on: (m - x) * min over y > m, for m at column c
            np.multiply(dxf[:-1], sgf[1:], out=dxf[:-1])
            viol = np.subtract(vals[r0 + 1 :], xr, out=sig)
            np.subtract(viol, dx, out=viol)
            viol[:, -1] = -np.inf
            np.copyto(viol[:, :rows], -np.inf, where=before[:rows, :rows])
            # the first largest cell in row-major order: smallest x, then m
            i, k = divmod(int(viol.argmax()), w)  # argmax takes the first NaN
            if viol[i, k] > worst or (math.isnan(viol[i, k]) and not math.isnan(worst)):
                worst = float(viol[i, k])
                x, m = r0 + i, r0 + 1 + k
                sigma = (vk[m + 1 :] - vals[x]) / (xs[m + 1 :] - xs[x])
                worst_triple = (float(xs[x]), float(xs[m]), float(xs[m + 1 + int(sigma.argmin())]))
            r0 = r1
    finally:
        np.setbufsize(bufsize)
    return KConvexityReport(
        verdict=worst <= KCONVEX_TOL, worst_violation=worst, worst_triple=worst_triple,
        tol=KCONVEX_TOL, K=K
    )


@dataclass(eq=False)
class ZeroSetupResult:
    """K = 0 companion solve: terminal value v0 (``solve.value``) and its (certified convex) G."""

    g0: np.ndarray
    convexity: KConvexityReport
    solve: SolveReport

    def terminal(self) -> TerminalValue:
        return TerminalValue(values=self.solve.value, id="v0_alpha")


def solve_zero_setup(model: InventoryModel, alpha: float, tol: float = 1e-8) -> ZeroSetupResult:
    """Solve the K = 0 variant and certify that its G-function is convex.

    Convexity of the zero-setup G is guaranteed, so a failed certificate
    signals numerical misconfiguration and raises CertificationError.
    """
    # K enters neither E h nor the kernel: the K = 0 twin shares them, unbuilt and unchecked again
    model0 = object.__new__(InventoryModel)
    vars(model0).update(vars(model), K=0.0, kernel=model.kernel)
    report = solve_infinite(model0, alpha, tol=tol)
    g0 = build_G(model0, report.value, alpha, tol=tol)
    conv = is_K_convex(model.grid, g0, K=0.0)
    if not conv.verdict:
        raise CertificationError(
            f"zero-setup G must be convex; worst violation {conv.worst_violation:.3e} "
            f"at {conv.worst_triple}"
        )
    return ZeroSetupResult(g0=g0, convexity=conv, solve=report)


@dataclass(eq=False)
class FiniteSsResult:
    """Per-stage thresholds (s_t, S_t) from the stage functions G_t, t = 0..N-1.

    The induced policy for the N-horizon problem uses the pair with index
    N - epoch - 1 at decision epoch ``epoch``.  ``agreement_ok`` confirms the
    threshold actions land inside the DP's eps-optimal action sets at every
    state and stage.
    """

    policies: list
    certifications: list
    agreement_ok: bool
    mismatches: list
    finite: FiniteHorizonResult
    warnings: list


def _threshold_agreement(
    model: InventoryModel, policy: SsPolicy, table
) -> list[tuple[int, float]]:
    """States where the threshold action misses the eps-optimal set."""
    idx = np.arange(model.grid.n)
    missed = np.nonzero(~table.contains(idx, policy_order_steps(model, policy)))[0]
    return [(int(i), float(model.grid.points[i])) for i in missed]


def finite_horizon_sS(
    model: InventoryModel,
    alpha: float,
    n_periods: int,
    tol: float = 1e-8,
    terminal: Optional[TerminalValue] = None,
) -> FiniteSsResult:
    """Stagewise (s_t, S_t) extraction from backward induction.

    With ``terminal=None`` the terminal value is the zero-setup value
    v0_alpha, solved at ``tol``, and a warning is added when its G lacks an
    interior argmin.  Each stage function is K-convexity certified; a failed
    certificate (the discount factor sits below the usable threshold)
    downgrades to a warning and the thresholds are still reported alongside
    the worst triple.
    """
    warnings: list[str] = []
    if terminal is None:
        zs = solve_zero_setup(model, alpha, tol)
        g0v = zs.g0
        argmin0 = int(np.argmin(g0v))
        if not (0 < argmin0 < g0v.size - 1) or not g0v[0] > g0v[1] - 1e-12:
            warnings.append(
                "zero-setup G lacks an interior argmin rising toward x_lo; "
                "alpha may be below the usable threshold"
            )
        terminal = zs.terminal()
    fin = solve_finite(model, n_periods, terminal, alpha)
    policies: list[Optional[SsPolicy]] = []
    certs: list[KConvexityReport] = []
    mismatches: list = []
    agreement = True
    for t, g_t in enumerate(build_G(model, fin.values[:n_periods], alpha)):
        cert = is_K_convex(model.grid, g_t, model.K)
        certs.append(cert)
        if not cert.verdict:
            warnings.append(
                f"stage t={t}: K-convexity certification failed, worst triple "
                f"{cert.worst_triple} violation {cert.worst_violation:.3e}"
            )
        try:
            pol = extract_sS(model.grid, g_t, model.K)
        except ModelError as exc:
            warnings.append(f"stage t={t}: {exc}")
            policies.append(None)
            continue
        policies.append(pol)
        bad = _threshold_agreement(model, pol, fin.policies[t])
        if bad:
            agreement = False
            mismatches.append((t, bad))
    return FiniteSsResult(
        policies=policies,
        certifications=certs,
        agreement_ok=agreement,
        mismatches=mismatches,
        finite=fin,
        warnings=warnings,
    )


@dataclass(eq=False)
class DiscountedSsResult:
    """Infinite-horizon thresholds from the converged G, cross-validated."""

    policy: Optional[SsPolicy]
    solve: SolveReport
    g: np.ndarray
    k_convexity: KConvexityReport
    eval_gap: Optional[float]
    explanation: Optional[str]


def discounted_sS(
    model: InventoryModel,
    alpha: float,
    tol: float = 1e-8,
) -> DiscountedSsResult:
    """Extract (s_alpha, S_alpha) from the converged G and cross-validate it.

    The extracted policy's evaluated value must match v_alpha within
    10 * tol gridwise.  If K-convexity certification fails (alpha too small)
    the thresholds are withheld, with an explanation, and the raw argmin
    policy stays in ``solve.policy``.  The finite-horizon pairs that converge
    to these thresholds are ``finite_horizon_sS(...).policies``.
    """
    report = solve_infinite(model, alpha, tol=tol)
    g = build_G(model, report.value, alpha, tol=tol)
    cert = is_K_convex(model.grid, g, model.K)
    if not cert.verdict:
        return DiscountedSsResult(
            policy=None,
            solve=report,
            g=g,
            k_convexity=cert,
            eval_gap=None,
            explanation=(
                "G is not K-convex at this discount factor (worst triple "
                f"{cert.worst_triple}, violation {cert.worst_violation:.3e}); "
                "thresholds withheld, raw argmin policy returned"
            ),
        )
    pol = extract_sS(model.grid, g, model.K)
    pe = policy_evaluation(model, pol, alpha, tol=tol)
    gap = float(np.max(np.abs(pe - report.value)))
    if gap > 10 * tol:
        raise CertificationError(
            f"(s,S) policy evaluation misses v_alpha by {gap:.3e} (> 10*tol)"
        )
    return DiscountedSsResult(
        policy=pol,
        solve=report,
        g=g,
        k_convexity=cert,
        eval_gap=gap,
        explanation=None,
    )


@dataclass(eq=False)
class AverageSsResult:
    """Limiting thresholds across the vanishing-discount schedule."""

    policy: SsPolicy
    degenerate: bool
    settled: bool
    bounded_ok: bool
    optimality: Optional[object]
    note: Optional[str]


def average_sS(model: InventoryModel, sweep_result=None) -> AverageSsResult:
    """Limit thresholds of a vanishing-discount sweep (``average.sweep``).

    With P(D > 0) = 0 the problem degenerates and the (0, 0) policy is
    returned without a sweep.  Otherwise ``sweep_result`` is required: its
    last pair is the limit estimate, flagged as unsettled if the pairs still
    drift over the final three factors.  The induced policy is checked
    against the average-cost optimality inequality.
    """
    if model.demand.p_positive == 0.0:
        return AverageSsResult(
            policy=SsPolicy(s=0.0, S=0.0),
            degenerate=True,
            settled=True,
            bounded_ok=True,
            optimality=None,
            note=(
                "zero demand almost surely: returned the (0,0) policy; the "
                "long-run average cost is state-dependent (0 for x <= 0, h(x) "
                "for x > 0) so no constant optimal average cost exists"
            ),
        )
    if sweep_result is None:
        raise ModelError("average_sS needs a sweep_result from average.sweep when P(D > 0) > 0")
    sw = sweep_result
    pairs = [(r.s, r.S) for r in sw.records if r.s is not None]
    if not pairs:
        raise CertificationError("no alpha in the schedule produced thresholds")
    tail = pairs[-3:]
    settled = len(tail) == 3 and all(p == tail[-1] for p in tail)
    margin = model.grid.step
    bounded_ok = all(
        model.grid.x_lo + margin <= p[0] and p[1] <= model.grid.x_hi - margin for p in tail
    )
    pol = SsPolicy(s=pairs[-1][0], S=pairs[-1][1])
    oi = check_optimality_inequality(model, pol, sw.relative_value())
    return AverageSsResult(
        policy=pol,
        degenerate=False,
        settled=settled,
        bounded_ok=bounded_ok,
        optimality=oi,
        note=None if settled else "thresholds still drifting at the end of the schedule",
    )


@dataclass(frozen=True)
class BruteForceReport:
    worst_gap: float
    best_pair: tuple
    extracted_pair: tuple
    margin: float

    @property
    def passes(self) -> bool:
        return self.worst_gap <= self.margin


def brute_force_sS_check(
    model: InventoryModel,
    alpha: float,
    tol: float = 1e-8,
) -> BruteForceReport:
    """Exhaustive (s,S)-pair search against the extracted thresholds.

    Every grid pair s <= S is valued exactly from ``sS_cycle_tables``, the
    extracted one from its own column (so its own gap is 0); the check
    passes when no pair beats it by more than ``BRUTE_FORCE_MARGIN`` at any
    state.  A pair's value gamma[:, s] + beta[:, s] C never falls as its
    cycle cost C grows (beta >= 0, rounding is monotone), so each s is
    scanned at its least C only, on streamed tables.  The best pair is the
    first largest gap, S ascending, then s; when no pair beats the extracted
    one (worst gap <= 0) it is the extracted pair itself, not one of the
    pairs that tie with it.
    """
    res = discounted_sS(model, alpha, tol=tol)
    if res.policy is None:
        raise CertificationError("cannot brute-force check: thresholds were withheld")
    xs = model.grid.points
    head = model.K + model.c_bar * xs
    rows = np.arange(model.grid.n)[:, None]

    def cycle_cost(s, beta, gamma):  # C[S, c] of the pair (s[c], S), +inf where S < s[c]
        num = head[:, None] + gamma
        return np.divide(num, 1.0 - beta, out=np.full_like(num, np.inf), where=rows >= s)

    s_ex, S_ex = model.grid.index_of(res.policy.s), model.grid.index_of(res.policy.S)
    beta, gamma, _ = sS_cycle_tables(model, alpha, s_ex, s_ex + 1)
    ex_value = gamma[:, 0] + beta[:, 0] * cycle_cost(s_ex, beta, gamma)[S_ex, 0]

    def gap(beta, gamma, C):  # per column: how far the pairs of costs C beat ex_value
        return np.max(ex_value[:, None] - (gamma + beta * C), axis=0)

    def gap_at_least_cost(s, beta, gamma, _):
        return gap(beta, gamma, cycle_cost(s, beta, gamma).min(axis=0))

    worst_of_s = np.concatenate(_scan_cycle_blocks(model, alpha, 0, gap_at_least_cost))
    worst = float(worst_of_s.max())
    best = res.policy.pair()
    if worst > 0:  # name the first pair at the worst gap: of each s there, those of least C
        tied = []
        for s in np.flatnonzero(worst_of_s == worst):
            beta, gamma, _ = sS_cycle_tables(model, alpha, s, s + 1)
            C = cycle_cost(s, beta, gamma)[:, 0]
            for S in s + np.argsort(C[s:]):
                if gap(beta, gamma, C[S])[0] < worst:
                    break
                tied.append((S, s))
        S, s = min(tied)
        best = (float(xs[s]), float(xs[S]))
    return BruteForceReport(
        worst_gap=worst,
        best_pair=best,
        extracted_pair=res.policy.pair(),
        margin=BRUTE_FORCE_MARGIN,
    )


@dataclass(frozen=True)
class SlopeConditionReport:
    holds: bool
    witness: Optional[tuple[float, float]]
    quotient: Optional[float]


def slope_condition(model: InventoryModel) -> SlopeConditionReport:
    """Scan for a backorder slope steeper than -c_bar.

    When it holds, stagewise thresholds with zero terminal value are valid
    at every discount factor; reported informationally otherwise.
    """
    xs = model.grid.points
    hv = model.h(xs)
    quot = np.diff(hv) / model.grid.step
    hits = np.nonzero(quot < -model.c_bar - 1e-12)[0]
    if hits.size == 0:
        return SlopeConditionReport(holds=False, witness=None, quotient=None)
    i = int(hits[0])
    return SlopeConditionReport(
        holds=True, witness=(float(xs[i]), float(xs[i + 1])), quotient=float(quot[i])
    )
