"""Monte-Carlo policy evaluation: the independent check on the DP output.

Two chains run on the same demand draws, carried as one matrix of atom
indices (``DemandDistribution.sample_atoms``, uint8 for up to 256 atoms);
no other array grows with the horizon.  The continuous chain steps unclamped
real-valued states even when the policy came from a grid, so a disagreement
with the DP beyond the confidence interval points at grid truncation.  It
gathers a block of ``BLOCK`` steps' demand values into the state rows those
steps overwrite, steps the block, then prices it into one reused (steps,
paths) buffer with the exact model cost c(x, a) = K 1{a>0} + c_bar a +
E h(x + a - D), deterministic given (x, a): one ``model.expected_h`` call,
bitwise ``eh_curve``.  Each path's total adds numpy's ``sum(axis=0)`` of the
block's kept rows (step by step for more than one path) to the running total,
with no BLAS call, so its bits do not depend on the BLAS build.  The grid
chain, run by ``simulate_average`` for policies that stay on the lattice, is
the Markov chain the DP solves: grid-index states, the kernel's own split of
each demand draw between two neighbouring grid points (tabled once per
policy for every (atom, state) pair), clamping at x_lo, and step cost order
cost + ``model.eh[post]``.  The sweep's Monte-Carlo check compares its mean
with the exact w(s,S) of ``average.exact_average_cost``; ``compare_policies``
runs the continuous chain alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dp import policy_order_steps
from .model import InventoryModel, ModelError, PolicyTable

__all__ = [
    "SimConfig",
    "OrderUpTo",
    "SimResult",
    "simulate_discounted",
    "simulate_average",
    "compare_policies",
    "ComparisonRow",
    "ComparisonResult",
    "policy_fn",
]

BLOCK = 256  # steps whose states, orders and split uniforms are buffered together


@dataclass(frozen=True)
class OrderUpTo:
    """Base-stock rule: order up to ``level`` whenever x < level."""

    level: float


@dataclass
class SimConfig:
    x0: float
    horizon: int
    n_paths: int
    seed: int
    alpha: Optional[float] = None
    policy: object = "never_order"

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ModelError("horizon must be at least 1")
        if self.n_paths < 1:
            raise ModelError("n_paths must be at least 1")


def policy_fn(policy, model: InventoryModel) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Vectorized state -> order map plus a stable policy id string."""
    if policy == "never_order":
        return (lambda x: np.zeros_like(x)), "never_order"
    if isinstance(policy, OrderUpTo):
        lvl = float(policy.level)
        return (lambda x: np.maximum(lvl - x, 0.0)), f"order_up_to({lvl})"
    if hasattr(policy, "s") and hasattr(policy, "S"):
        s, S = float(policy.s), float(policy.S)
        # -0.0 above S: x + -0.0 is x and its order cost is 0.0, as with an order of 0.0
        return (lambda x: (S - x) * (x < s)), f"sS(s={s},S={S})"
    if isinstance(policy, PolicyTable):
        chosen = policy.chosen

        def fn(x: np.ndarray) -> np.ndarray:
            return chosen[model.grid.nearest_index(x)]

        return fn, "policy_table"
    raise ModelError(f"unknown policy spec {policy!r}")


@dataclass(eq=False)
class SimResult:
    policy_id: str
    criterion: str
    mean: float
    std_error: float
    n_paths: int
    horizon: int
    seed: int
    burn_in_used: int = 0
    bias_bound: float = 0.0
    ss_invariant_ok: Optional[bool] = None
    path_stats: Optional[np.ndarray] = field(default=None, repr=False)
    grid_chain: Optional["SimResult"] = field(default=None, repr=False)


def _atom_matrix(model: InventoryModel, cfg: SimConfig) -> np.ndarray:
    return model.demand.sample_atoms(np.random.default_rng(cfg.seed), (cfg.n_paths, cfg.horizon))


def _run_paths(
    model: InventoryModel,
    cfg: SimConfig,
    atoms: np.ndarray,
    policy,
    burn: int = 0,
    alpha: Optional[float] = None,
) -> tuple[np.ndarray, float, Optional[bool]]:
    """Step the fleet of paths; returns (per-path totals, max step cost, sS check).

    A total adds the costs of steps t >= ``burn``, times alpha^t if ``alpha`` is
    given.  States advance one step at a time into block rows; costs and the
    (s,S) invariant are evaluated per block from those rows, elementwise, so
    each cost is the one a step-by-step evaluation gives.
    """
    fn, _ = policy_fn(policy, model)
    is_ss = hasattr(policy, "s") and hasattr(policy, "S") and not isinstance(policy, PolicyTable)
    n, horizon = atoms.shape
    total, c_max = np.zeros(n), -np.inf
    # one step per row, so each step writes contiguous memory; row k + 1 of
    # xb is the state after step k, and the last row seeds the next block
    xb, ab, pb, cb = np.empty((4, min(BLOCK, horizon) + 1, n))
    xb[0] = cfg.x0
    ss_ok = True if is_ss else None
    for t0 in range(0, horizon, BLOCK):
        block = atoms[:, t0 : t0 + BLOCK].T
        width = block.shape[0]
        # the block's demands wait in the state rows that their steps overwrite
        # (atom indices are in range; "clip" lets take() write to out unbuffered)
        model.demand.values.take(block, out=xb[1 : width + 1], mode="clip")
        for x, a, post, x_next in zip(xb, ab, pb, xb[1 : width + 1]):
            a[:] = fn(x)
            np.add(x, a, out=post)
            np.subtract(post, x_next, out=x_next)
        xs, a, post, cost = xb[:width], ab[:width], pb[:width], cb[:width]
        if ss_ok and (
            not np.array_equal(a > 0, xs < policy.s) or np.any(post > policy.S + 1e-9)
        ):
            ss_ok = False
        np.add(model.order_cost(a), model.expected_h(post), out=cost)
        c_max = np.maximum(c_max, cost.max())
        kept = cost[max(burn - t0, 0) :]
        if alpha is not None:
            kept *= (alpha ** np.arange(t0 + width - len(kept), t0 + width))[:, None]
        total += kept.sum(axis=0)
        xb[0] = xb[width]
    return total, float(c_max), ss_ok


def _run_grid_chain(
    model: InventoryModel, cfg: SimConfig, atoms: np.ndarray, burn: int
) -> Optional[np.ndarray]:
    """Per-path mean step cost after ``burn`` steps of the grid chain.

    Returns None when x0 is not a grid point or the policy orders off the
    lattice from some grid state.  The chain reuses the continuous chain's
    demand draws.  Each step splits x_post - d between the two grid points
    around it with the weights ``post_expectation_matrix`` uses, computed
    once per (atom, state) by the same float operations; the uniforms that
    pick the side come from a child stream of ``cfg.seed``, drawn per block.
    """
    g = model.grid
    fn, _ = policy_fn(cfg.policy, model)
    try:
        start = g.index_of(cfg.x0)
        steps = policy_order_steps(model, fn(g.points))
    except ModelError:
        return None
    idx = np.arange(g.n)
    cost = model.one_step_cost(idx, steps)
    # row-major [atom, state]: pos = (x_post - d - x_lo) / step clamped to [0, n-1]
    pos = g.points[idx + steps] - model.demand.values[:, None]
    pos -= g.x_lo
    pos /= g.step
    np.clip(pos, 0.0, g.n - 1.0, out=pos)
    lower = pos.astype(np.intp)  # floor, as pos >= 0
    np.minimum(lower, g.n - 2, out=lower)
    weight = pos - lower  # of the upper neighbour; take() reads both tables flat
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n, horizon = atoms.shape
    state = np.full(n, start)
    total = np.zeros(n)
    j, up = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    for t0 in range(0, horizon, BLOCK):
        offsets = atoms[:, t0 : t0 + BLOCK].T.astype(np.intp)
        offsets *= g.n  # flat index of (atom, state 0)
        u = rng.random(offsets.shape)
        for k, (offset, uk) in enumerate(zip(offsets, u), start=t0):
            if k >= burn:
                total += cost.take(state)
            np.add(offset, state, out=j)
            lower.take(j, out=state, mode="clip")
            np.less(uk, weight.take(j), out=up)
            state += up
    return total / (horizon - burn)


def _result(model: InventoryModel, cfg: SimConfig, path_stats, criterion, **extra) -> SimResult:
    se = float(path_stats.std(ddof=1) / math.sqrt(cfg.n_paths)) if cfg.n_paths > 1 else 0.0
    return SimResult(
        policy_id=policy_fn(cfg.policy, model)[1],
        criterion=criterion,
        mean=float(path_stats.mean()),
        std_error=se,
        n_paths=cfg.n_paths,
        horizon=cfg.horizon,
        seed=cfg.seed,
        path_stats=path_stats,
        **extra,
    )


def _discounted(model: InventoryModel, cfg: SimConfig, atoms: np.ndarray) -> SimResult:
    if cfg.alpha is None or not (0.0 <= cfg.alpha < 1.0):
        raise ModelError("simulate_discounted needs alpha in [0,1)")
    totals, c_max, ss_ok = _run_paths(model, cfg, atoms, cfg.policy, alpha=cfg.alpha)
    tail = (cfg.alpha**cfg.horizon) * c_max / (1.0 - cfg.alpha) if cfg.alpha > 0 else 0.0
    return _result(
        model, cfg, totals, "discounted", bias_bound=float(tail), ss_invariant_ok=ss_ok
    )


def _average(model: InventoryModel, cfg: SimConfig, atoms: np.ndarray) -> SimResult:
    if cfg.horizon < 1000:
        raise ModelError("average-cost simulation needs horizon >= 1000")
    burn = cfg.horizon // 10
    totals, _, ss_ok = _run_paths(model, cfg, atoms, cfg.policy, burn=burn)
    return _result(
        model, cfg, totals / (cfg.horizon - burn), "average",
        burn_in_used=burn, ss_invariant_ok=ss_ok,
    )


def simulate_discounted(model: InventoryModel, cfg: SimConfig) -> SimResult:
    """Sample mean and standard error of the horizon-truncated discounted cost.

    The reported ``bias_bound`` is alpha^horizon / (1 - alpha) times the
    largest one-step cost seen, a ceiling on the truncated tail.
    """
    return _discounted(model, cfg, _atom_matrix(model, cfg))


def simulate_average(model: InventoryModel, cfg: SimConfig) -> SimResult:
    """Long-run average cost per period, discarding a 10% burn-in.

    The result is the continuous chain's; when the policy maps grid states
    to grid states and x0 is a grid point, ``grid_chain`` holds the grid
    chain's result on the same demand draws.
    """
    atoms = _atom_matrix(model, cfg)
    res = _average(model, cfg, atoms)
    grid_means = _run_grid_chain(model, cfg, atoms, res.burn_in_used)
    if grid_means is not None:
        res.grid_chain = _result(
            model, cfg, grid_means, "average_grid_chain", burn_in_used=res.burn_in_used
        )
    return res


@dataclass(frozen=True)
class ComparisonRow:
    policy_id: str
    mean: float
    std_error: float
    diff_mean: float  # this policy minus the first one, paired per path
    diff_std_error: float


@dataclass(eq=False)
class ComparisonResult:
    criterion: str
    rows: list
    n_paths: int
    horizon: int
    seed: int


def compare_policies(
    model: InventoryModel, policies: list, cfg: SimConfig
) -> ComparisonResult:
    """Evaluate several policies on common random numbers.

    Every policy sees the same demand streams, so the paired per-path
    differences against the first policy have far less variance than the
    raw means.  The criterion is discounted when cfg.alpha is set,
    long-run average otherwise.
    """
    if len(policies) < 2:
        raise ModelError("compare_policies needs at least two policies")
    atoms = _atom_matrix(model, cfg)
    run = _average if cfg.alpha is None else _discounted
    runs = [run(model, replace(cfg, policy=p), atoms) for p in policies]
    base = runs[0].path_stats
    rows = []
    for r in runs:
        diff = r.path_stats - base
        dmean = float(diff.mean())
        dse = float(diff.std(ddof=1) / math.sqrt(cfg.n_paths)) if cfg.n_paths > 1 else 0.0
        rows.append(
            ComparisonRow(
                policy_id=r.policy_id,
                mean=r.mean,
                std_error=r.std_error,
                diff_mean=dmean,
                diff_std_error=dse,
            )
        )
    return ComparisonResult(
        criterion=runs[0].criterion,
        rows=rows,
        n_paths=cfg.n_paths,
        horizon=cfg.horizon,
        seed=cfg.seed,
    )
