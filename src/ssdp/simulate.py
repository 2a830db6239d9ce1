"""Monte-Carlo evaluation of an (s,S) policy: the independent check on the DP output.

Two chains run on the same demand draws, one path-major matrix of atom indices
(``DemandDistribution.sample_atoms``, uint8 for up to 256 atoms).  The
continuous chain steps unclamped real-valued states even when the policy came
from a grid, so a disagreement with the DP beyond the confidence interval
points at grid truncation; it orders (S - x)·(x < s) in place, and its step
cost is the exact c(x, a) = K 1{a>0} + c_bar a + E h(x + a - D), priced in
place with one ``model.expected_h`` call (bitwise ``eh_curve``) per round.  The
grid chain, run when x0, s and S are grid points, is the Markov chain the DP
solves: grid-index states, the kernel's split of each draw between two
neighbouring grid points (tabled per (atom, state) pair), clamping at x_lo,
and step cost order cost + ``model.eh[post]``.  The sweep's check compares its
mean with the exact w(s,S) of ``average.exact_average_cost``.

Both chains step in ``_drive``: the horizon splits into k = min(blocks,
LANES // n_paths) segments of whole ``BLOCK``s, whose k * n_paths lanes step
side by side in rounds of BLOCK // k rows, so the buffers hold BLOCK x n_paths
entries for any k.  Segment i >= 1 starts ``WARMUP`` unpriced steps before its
boundary from x0, on the true draws.  Two (s,S) paths that place the same order
stay identical, so the speculative path meets the exact one; each boundary is
compared bitwise with the previous segment's end, and from the first that
differs the rest is rerun from the exact state with k = 1.  Each block's kept
costs are added step by step and the block sums in block order, for any number
of paths; only blocks x n_paths sums and the atom matrix grow with the horizon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dp import policy_order_steps
from .model import InventoryModel, ModelError
from .policy import SsPolicy

__all__ = ["SimConfig", "SimResult", "simulate_average"]

BLOCK = 256  # steps per block sum; a round buffers BLOCK x n_paths states, orders, uniforms
LANES = 2048  # segments x paths stepped side by side
WARMUP = 64  # unpriced steps a segment takes from x0 before its boundary


@dataclass
class SimConfig:
    x0: float
    horizon: int
    n_paths: int
    seed: int
    policy: SsPolicy

    def __post_init__(self) -> None:
        if not math.isfinite(self.x0):
            raise ModelError(f"x0 must be finite, got {self.x0}")
        if self.horizon < 1:
            raise ModelError("horizon must be at least 1")
        if self.n_paths < 1:
            raise ModelError("n_paths must be at least 1")
        if not isinstance(self.policy, SsPolicy):
            raise ModelError(f"policy must be an SsPolicy, got {self.policy!r}")


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
    ss_invariant_ok: Optional[bool] = None
    path_stats: Optional[np.ndarray] = field(default=None, repr=False)
    grid_chain: Optional["SimResult"] = field(default=None, repr=False)


def _atom_matrix(model: InventoryModel, cfg: SimConfig) -> np.ndarray:
    return model.demand.sample_atoms(np.random.default_rng(cfg.seed), (cfg.n_paths, cfg.horizon))


def _drive(chain, atoms: np.ndarray, burn: int, t0: int = 0, start=None) -> np.ndarray:
    """Block sums (blocks from t0 x paths) of the chain's step costs at steps t >= burn:
    k segments side by side, or k = 1 from the exact state ``start`` (the rerun)."""
    n, horizon = atoms.shape
    blocks = -(-(horizon - t0) // BLOCK)
    split = 1 if start is not None else min(blocks, max(1, LANES // n))
    per = -(-blocks // split)
    bounds = range(t0, horizon, per * BLOCK)  # each segment's first step
    k = len(bounds)
    rows, span, warm = max(1, BLOCK // k), min(per * BLOCK, horizon - t0), WARMUP * (k > 1)
    state = chain.begin(k * n, rows, [b - warm for b in bounds])

    def run(q, count, priced):  # rows q .. q + count - 1 past every boundary
        parts = []
        for i, b in enumerate(bounds):  # only rows inside [0, horizon) read draws
            lo, hi = min(max(-b - q, 0), count), max(min(horizon - b - q, count), 0)
            parts.append((slice(i * n, i * n + n), lo, hi, atoms[:, b + q + lo : b + q + hi].T))
        return chain.round(parts, count, priced)

    for q in range(-warm, 0, rows):
        run(q, min(rows, -q), False)
    state[:n] = chain.x0 if start is None else start
    starts = state[n:].copy()
    sums, acc = np.empty((k, per, n)), np.zeros(k * n)
    for q0 in range(0, span, BLOCK):
        for q in range(q0, min(q0 + BLOCK, span), rows):
            cost = run(q, min(rows, q0 + BLOCK - q, span - q), True)
            for i, b in enumerate(bounds):  # steps before burn or past the horizon add 0.0
                cost[: max(burn - b - q, 0), i * n : i * n + n] = 0.0
                cost[max(horizon - b - q, 0) :, i * n : i * n + n] = 0.0
            for row in cost:
                acc += row
        sums[:, q0 // BLOCK] = acc.reshape(k, n)
        acc[:] = 0.0
    sums = sums.reshape(k * per, n)
    ends = state[: (k - 1) * n]  # segment i - 1 ends where segment i starts
    moved = (ends.view(np.int64) != starts.view(np.int64)).reshape(k - 1, n).any(axis=1)
    if moved.any():
        i = int(moved.argmax()) + 1
        rerun = _drive(chain, atoms, burn, bounds[i], ends[(i - 1) * n : i * n].copy())
        sums[i * per : i * per + len(rerun)] = rerun
    return sums[:blocks]


class _Paths:
    """The continuous chain on ``_drive``'s lanes: real-valued states, exact step costs."""

    def __init__(self, model: InventoryModel, x0: float, policy: SsPolicy) -> None:
        self.model, self.x0 = model, float(x0)
        self.s, self.S, self.ss_ok = float(policy.s), float(policy.S), True

    def begin(self, lanes: int, rows: int, times: list) -> np.ndarray:
        # one step per row, so each step writes contiguous memory; row r + 1 of
        # xb is the state after step r, and the last row seeds the next round
        self.buf = np.empty((3, rows + 1, lanes))
        self.buf[0, 0] = self.x0
        return self.buf[0, 0]

    def round(self, parts: list, count: int, priced: bool) -> np.ndarray:
        xb, ab, pb = self.buf
        s, S = self.s, self.S
        for cols, lo, hi, block in parts:  # demands wait in the state rows their steps overwrite
            x = xb[1 : count + 1, cols]
            self.model.demand.values.take(block, out=x[lo:hi], mode="clip")
            x[:lo] = x[hi:] = 0.0
        for x, a, post, x_next in zip(xb, ab, pb, xb[1 : count + 1]):
            # (S - x) * (x < s), post as scratch; -0.0 above S adds to x as 0.0 does
            np.multiply(np.subtract(S, x, out=a), np.less(x, s, out=post), out=a)
            np.add(x, a, out=post)
            np.subtract(post, x_next, out=x_next)
        xs, a, post = xb[:count], ab[:count], pb[:count]
        if priced:
            ordered = a > 0
            if self.ss_ok:  # the (s,S) invariant: orders exactly below s, and never past S
                self.ss_ok = np.array_equal(ordered, xs < s) and not np.any(post > S + 1e-9)
            # priced unmasked, bitwise order_cost(a) + expected_h(post)
            np.add(np.multiply(a, self.model.c_bar, out=a), self.model.K * ordered, out=a)
            a += self.model.expected_h(post)
        xb[0] = xb[count]
        return a


class _GridPaths:
    """The grid chain on ``_drive``'s lanes: grid-index states from per-(atom, state) tables."""

    def __init__(self, model: InventoryModel, seed: int, start: int, steps: np.ndarray) -> None:
        g = model.grid
        idx = np.arange(g.n)
        self.cost = np.tile(model.one_step_cost(idx, steps), model.demand.n_atoms)  # at (atom, state)
        # row-major [atom, state]: pos = (x_post - d - x_lo) / step clamped to [0, n-1]
        pos = g.points[idx + steps] - model.demand.values[:, None]
        pos -= g.x_lo
        pos /= g.step
        np.clip(pos, 0.0, g.n - 1.0, out=pos)
        self.lower = pos.astype(np.intp)  # floor, as pos >= 0
        np.minimum(self.lower, g.n - 2, out=self.lower)
        self.weight = pos - self.lower  # of the upper neighbour; take() reads both tables flat
        self.x0, self.n_states = start, g.n
        self.seed = np.random.SeedSequence(seed).spawn(1)[0]

    def begin(self, lanes: int, rows: int, times: list) -> np.ndarray:
        n = lanes // len(times)  # segment i reads the stream's uniforms from step times[i] on
        self.rngs = [np.random.Generator(np.random.PCG64(self.seed).advance(max(t, 0) * n))
                     for t in times]
        self.j, self.u = np.empty((rows, lanes), dtype=np.intp), np.zeros((rows, lanes))
        self.spare, self.w, self.up = np.empty((rows, n)), np.empty(lanes), np.empty(lanes, bool)
        self.state = np.full(lanes, self.x0)
        return self.state

    def round(self, parts: list, count: int, priced: bool) -> Optional[np.ndarray]:
        j, u, state, w, up = self.j[:count], self.u[:count], self.state, self.w, self.up
        for (cols, lo, hi, block), rng in zip(parts, self.rngs):
            np.multiply(block, self.n_states, out=j[lo:hi, cols], dtype=np.intp)  # (atom, state 0)
            j[:lo, cols] = j[hi:, cols] = 0
            u[lo:hi, cols] = rng.random(out=self.spare[: hi - lo])
        for jk, uk in zip(j, u):
            jk += state  # the step's (atom, state) index stays in its row
            self.lower.take(jk, out=state, mode="clip")
            np.less(uk, self.weight.take(jk, out=w, mode="clip"), out=up)
            state += up
        return self.cost.take(j, out=u, mode="clip") if priced else None  # into spent uniforms


def _run_paths(model: InventoryModel, cfg: SimConfig, atoms: np.ndarray, burn: int = 0):
    """Per-path totals of the continuous chain's step costs at t >= ``burn``, and the
    (s,S) check.  Each cost is the one a step-by-step evaluation gives."""
    chain = _Paths(model, cfg.x0, cfg.policy)
    return functools.reduce(np.add, _drive(chain, atoms, burn), 0.0), chain.ss_ok


def _run_grid_chain(model: InventoryModel, cfg: SimConfig, atoms: np.ndarray, burn: int):
    """Per-path mean step cost after ``burn`` steps of the grid chain.

    Returns None when x0, s or S is not a grid point.  The chain reuses the
    continuous chain's demand draws.  Each step splits x_post - d between the
    two grid points around it with the weights ``post_expectation_matrix``
    uses, computed once per (atom, state) by the same float operations; the
    uniforms that pick the side come from a child stream of ``cfg.seed``, one
    per path-step.
    """
    try:
        start = model.grid.index_of(cfg.x0)
        steps = policy_order_steps(model, cfg.policy)
    except ModelError:
        return None
    chain = _GridPaths(model, cfg.seed, start, steps)
    return functools.reduce(np.add, _drive(chain, atoms, burn), 0.0) / (cfg.horizon - burn)


def _result(cfg: SimConfig, path_stats: np.ndarray, criterion: str, **extra) -> SimResult:
    n = path_stats.size  # the standard error of one path is 0
    return SimResult(
        policy_id=f"sS(s={float(cfg.policy.s)},S={float(cfg.policy.S)})",
        criterion=criterion,
        mean=float(path_stats.mean()),
        std_error=float(path_stats.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        n_paths=cfg.n_paths,
        horizon=cfg.horizon,
        seed=cfg.seed,
        path_stats=path_stats,
        **extra,
    )


def simulate_average(model: InventoryModel, cfg: SimConfig) -> SimResult:
    """Long-run average cost per period, discarding a 10% burn-in.

    The result is the continuous chain's; when x0, s and S are grid points,
    ``grid_chain`` holds the grid chain's result on the same demand draws.
    """
    if cfg.horizon < 1000:
        raise ModelError("average-cost simulation needs horizon >= 1000")
    atoms = _atom_matrix(model, cfg)
    burn = cfg.horizon // 10
    totals, ss_ok = _run_paths(model, cfg, atoms, burn)
    res = _result(cfg, totals / (cfg.horizon - burn), "average",
                  burn_in_used=burn, ss_invariant_ok=ss_ok)
    grid_means = _run_grid_chain(model, cfg, atoms, burn)
    if grid_means is not None:
        res.grid_chain = _result(cfg, grid_means, "average_grid_chain", burn_in_used=burn)
    return res
