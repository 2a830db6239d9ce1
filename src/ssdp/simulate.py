"""Monte-Carlo policy evaluation: the independent check on the DP output.

Two chains run on the same demand draws, carried as one matrix of atom
indices (``DemandDistribution.sample_atoms``, uint8 for up to 256 atoms);
no other array grows with the horizon.  The continuous chain steps unclamped
real-valued states even when the policy came from a grid, so a disagreement
with the DP beyond the confidence interval points at grid truncation.  It
gathers a block of ``BLOCK`` steps' demand values into the state rows those
steps overwrite, writes each step's orders into its row (``_order_map``),
then prices the block in place with the exact model cost c(x, a) =
K 1{a>0} + c_bar a + E h(x + a - D): c_bar a, plus K where a > 0, plus one
``model.expected_h`` call (bitwise ``eh_curve``).  Each path's total adds
numpy's ``sum(axis=0)`` of the block's kept rows (step by step for more than
one path) to the running total, with no BLAS call.  The grid chain, run by
``simulate_average`` for policies that stay on the lattice, is the Markov
chain the DP solves: grid-index states, the kernel's own split of each demand
draw between two neighbouring grid points (tabled once per policy for every
(atom, state) pair), clamping at x_lo, and step cost order cost +
``model.eh[post]``.  Its steps leave their flat (atom, state) indices in
block rows; one gather from the cost tiled per atom prices the kept steps
into their spent uniform rows, and ``np.add.accumulate`` carries the running
total through them step by step for any number of paths.  The sweep's check
compares the grid chain's mean with the exact w(s,S) of
``average.exact_average_cost``; ``compare_policies`` runs the continuous
chain alone.
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


def _order_map(policy, model: InventoryModel) -> tuple[Callable, str]:
    """``order(x, out, spare)``, which writes the policy's orders at the states x into
    out and returns it (``spare``: a scratch row like x), and a stable policy id."""
    if policy == "never_order":  # max(-inf - x, 0.0) is 0.0
        return _order_map(OrderUpTo(-math.inf), model)[0], "never_order"
    if isinstance(policy, OrderUpTo):
        lvl = float(policy.level)

        def order(x, out, spare):
            return np.maximum(np.subtract(lvl, x, out=out), 0.0, out=out)

        return order, f"order_up_to({lvl})"
    if hasattr(policy, "s") and hasattr(policy, "S"):
        s, S = float(policy.s), float(policy.S)

        def order(x, out, spare):  # (S - x) * (x < s); -0.0 above S adds to x as 0.0 does
            return np.multiply(np.subtract(S, x, out=out), np.less(x, s, out=spare), out=out)

        return order, f"sS(s={s},S={S})"
    if isinstance(policy, PolicyTable):
        chosen, g = policy.chosen, model.grid

        def order(x, out, spare):  # chosen at the nearest grid index, clipped to the grid
            np.divide(np.subtract(x, g.x_lo, out=spare), g.step, out=spare)
            np.clip(np.round(spare, out=spare), 0, g.n - 1, out=spare)
            return chosen.take(spare.astype(np.intp), out=out)

        return order, "policy_table"
    raise ModelError(f"unknown policy spec {policy!r}")


def policy_fn(policy, model: InventoryModel) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Vectorized state -> order map plus a stable policy id string (``_order_map``'s)."""
    order, pid = _order_map(policy, model)
    return (lambda x: order(np.asarray(x, dtype=float), *np.empty((2,) + np.shape(x)))), pid


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
    order, _ = _order_map(policy, model)
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
            order(x, a, post)  # post is scratch until the order is placed
            np.add(x, a, out=post)
            np.subtract(post, x_next, out=x_next)
        xs, a, post, cost = xb[:width], ab[:width], pb[:width], cb[:width]
        ordered = a > 0
        if ss_ok:  # the (s,S) invariant: orders exactly below s, and never past S
            ss_ok = np.array_equal(ordered, xs < policy.s) and not np.any(post > policy.S + 1e-9)
        # priced in place, bitwise order_cost(a) + expected_h(post)
        np.add(np.multiply(a, model.c_bar, out=cost), model.K, out=cost, where=ordered)
        cost += model.expected_h(post)
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
    cost = np.tile(model.one_step_cost(idx, steps), model.demand.n_atoms)  # at (atom, state)
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
    total, w, up = np.zeros(n), np.empty(n), np.empty(n, dtype=bool)
    flat = np.empty((min(BLOCK, horizon), n), dtype=np.intp)
    u = np.empty(flat.shape)
    for t0 in range(0, horizon, BLOCK):
        block = atoms[:, t0 : t0 + BLOCK].T
        j, ub = flat[: block.shape[0]], u[: block.shape[0]]
        np.multiply(block, g.n, out=j, dtype=np.intp)  # flat index of (atom, state 0)
        rng.random(out=ub)
        for jk, uk in zip(j, ub):
            jk += state  # the step's (atom, state) index stays in its row
            lower.take(jk, out=state, mode="clip")
            np.less(uk, weight.take(jk, out=w, mode="clip"), out=up)
            state += up
        # price the kept steps into their spent uniform rows; the total rides in the first
        kept, jk = ub[max(burn - t0, 0) :], j[max(burn - t0, 0) :]
        if len(kept):
            cost.take(jk, out=kept, mode="clip")
            kept[0] += total
            total[:] = np.add.accumulate(kept, axis=0, out=kept)[-1]
    return total / (horizon - burn)


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:  # the standard error of one path is 0
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


def _result(model: InventoryModel, cfg: SimConfig, path_stats, criterion, **extra) -> SimResult:
    mean, se = _mean_and_se(path_stats)
    return SimResult(
        policy_id=policy_fn(cfg.policy, model)[1],
        criterion=criterion,
        mean=mean,
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
    rows = [
        ComparisonRow(r.policy_id, r.mean, r.std_error, *_mean_and_se(r.path_stats - base))
        for r in runs
    ]
    return ComparisonResult(runs[0].criterion, rows, cfg.n_paths, cfg.horizon, cfg.seed)
