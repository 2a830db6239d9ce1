"""Shared fixtures and independent oracles.

The oracles here re-derive everything from scratch (pure-Python enumeration,
hand-rolled kernel rows, direct linear solves) so the tests never trust the
solver's own code paths for expected values.
"""

import csv
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import ssdp
from ssdp import average, policy
from ssdp.dp import sS_cycle_tables

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = SRC.parent / "configs"


@pytest.fixture(scope="session", autouse=True)
def cli_subprocess_path():
    """Let ``python -m ssdp.cli`` subprocesses import ssdp from this checkout."""
    with pytest.MonkeyPatch.context() as mp:
        paths = [str(SRC), os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


def make_instance_a():
    """Integer benchmark: grid [-20,20], K=2, c_bar=1, h=max(x,-3x), D in {0,1,2}."""
    grid = ssdp.Grid(x_lo=-20, x_hi=20, step=1.0, integer_mode=True)
    h = ssdp.PiecewiseLinear.from_breakpoints([[-1, 3], [0, 0], [1, 1]])
    demand = ssdp.DemandDistribution.from_atoms([(0, 0.25), (1, 0.5), (2, 0.25)])
    return ssdp.InventoryModel(K=2.0, c_bar=1.0, h=h, demand=demand, grid=grid)


def make_zero_stub():
    """Degenerate test double: zero costs everywhere."""
    grid = ssdp.Grid(x_lo=-10, x_hi=10, step=1.0, integer_mode=True)
    h = ssdp.PiecewiseLinear.from_breakpoints([[0, 0], [1, 0]])
    demand = ssdp.DemandDistribution.from_atoms([(0, 0.5), (1, 0.5)])
    return ssdp.InventoryModel(K=0.0, c_bar=0.0, h=h, demand=demand, grid=grid)


def make_off_lattice():
    """Off-lattice atoms on a half-step grid; the largest reaches below x_lo."""
    grid = ssdp.Grid(x_lo=-4, x_hi=4, step=0.5)
    h = ssdp.PiecewiseLinear.from_breakpoints([[-1, 2], [0, 0], [1, 1]])
    demand = ssdp.DemandDistribution.from_atoms([(0.3, 0.5), (1.1, 0.3), (2.75, 0.2)])
    return ssdp.InventoryModel(K=1.0, c_bar=1.0, h=h, demand=demand, grid=grid)


def make_exponential():
    """The shipped continuous-demand config: 32 off-lattice atoms, step 0.25."""
    return ssdp.load_model(CONFIGS / "exponential_demand.json")


def make_degenerate():
    """Zero demand almost surely on a grid with negative states."""
    grid = ssdp.Grid(x_lo=-10, x_hi=20, step=1.0, integer_mode=True)
    h = ssdp.PiecewiseLinear.from_breakpoints([[-1, 3], [0, 0], [1, 1]])
    demand = ssdp.DemandDistribution.from_atoms([(0.0, 1.0)])
    return ssdp.InventoryModel(K=2.0, c_bar=1.0, h=h, demand=demand, grid=grid)


# the models on which the banded operator is checked against the dense reference
OPERATOR_MODELS = {
    "instance_a": make_instance_a,
    "exponential_demand": make_exponential,
    "off_lattice": make_off_lattice,
    "zero_demand": make_degenerate,
}


@pytest.fixture(scope="session")
def instance_a():
    return make_instance_a()


@pytest.fixture(scope="session")
def zero_stub():
    return make_zero_stub()


@pytest.fixture(scope="session")
def degenerate_model():
    return make_degenerate()


@pytest.fixture(scope="session")
def solve_a_09(instance_a):
    return ssdp.solve_infinite(instance_a, 0.9, tol=1e-8)


@pytest.fixture(scope="session")
def zero_setup_a_09(instance_a):
    return ssdp.solve_zero_setup(instance_a, 0.9, tol=1e-8)


@pytest.fixture(scope="session")
def discounted_a_09(instance_a):
    return ssdp.discounted_sS(instance_a, 0.9, tol=1e-8)


@pytest.fixture(scope="session")
def sweep_a(instance_a):
    return average.sweep(instance_a, average.geometric_schedule(12), tol=1e-7)


@pytest.fixture(scope="session")
def average_a(instance_a, sweep_a):
    return ssdp.average_sS(instance_a, sweep_result=sweep_a)


@pytest.fixture(scope="session")
def sweep_degenerate(degenerate_model):
    return average.sweep(degenerate_model, average.geometric_schedule(12), tol=1e-7)


# ---------------------------------------------------------------- oracles


def oracle_interp(grid, values, y):
    """Clamped linear interpolation of grid values, written from scratch."""
    y = min(max(y, grid.x_lo), grid.x_hi)
    pos = (y - grid.x_lo) / grid.step
    i0 = int(np.floor(pos))
    if i0 >= grid.n - 1:
        return float(values[grid.n - 1])
    w = pos - i0
    return float((1.0 - w) * values[i0] + w * values[i0 + 1])


def oracle_cost(model, x, a):
    """c(x, a) by direct summation over atoms in fixed order."""
    c = (model.K if a > 0 else 0.0) + model.c_bar * a
    for d, p in zip(model.demand.values, model.demand.probs):
        c += p * float(model.h(x + a - d))
    return c


def oracle_bellman(model, values, alpha, eps_act=None):
    """Exhaustive enumeration of the Bellman update; returns (v', argmin actions).

    With ``eps_act`` it also returns the eps-optimal sets as a boolean matrix:
    ``sets[i, k]`` holds when ordering k grid steps from state i costs at
    most the state's minimum plus ``eps_act``.
    """
    g = model.grid
    out_v = np.empty(g.n)
    out_a = np.empty(g.n)
    sets = np.zeros((g.n, g.n), dtype=bool)
    for i in range(g.n):
        x = float(g.points[i])
        best, best_a = None, None
        qs = []
        for k in range(g.n - i):
            a = k * g.step
            q = oracle_cost(model, x, a)
            if alpha > 0:
                cont = 0.0
                for d, p in zip(model.demand.values, model.demand.probs):
                    cont += p * oracle_interp(g, values, x + a - d)
                q += alpha * cont
            qs.append(q)
            if best is None or q < best - 1e-15:
                best, best_a = q, a
        out_v[i] = best
        out_a[i] = best_a
        if eps_act is not None:
            sets[i, : len(qs)] = np.array(qs) <= min(qs) + eps_act
    return (out_v, out_a) if eps_act is None else (out_v, out_a, sets)


def reference_stage(model, v, alpha):
    """One Bellman stage from the textbook decomposition in the ``dp`` docstring,
    written plainly: g = c_bar x + E h + alpha W v, m = min(g, K + min_{j > i} g),
    T v = m - c_bar x.  Returns (T v, g, m)."""
    x = model.grid.points
    g = model.c_bar * x + model.eh + alpha * (model.kernel.matrix @ v)
    later = np.append(np.minimum.accumulate(g[::-1])[::-1][1:], np.inf)
    m = np.minimum(g, model.K + later)
    return m - model.c_bar * x, g, m


def reference_solve(model, alpha, tol):
    """``reference_stage`` iterated from v = 0 with value iteration's stopping rule:
    stop when alpha/(1-alpha) span(T v - v) <= tol/2 and return the lower bracket."""
    scale = alpha / (1.0 - alpha)
    v = np.zeros(model.grid.n)
    while True:
        tv = reference_stage(model, v, alpha)[0]
        diff = tv - v
        lo = float(diff.min())
        if scale * (float(diff.max()) - lo) <= tol / 2:
            return tv + scale * lo
        v = tv


def oracle_post_expectation(model, extrapolate):
    """Dense W with (W @ v)[j] = E v(x_j - D), and the count of lookups below x_lo.

    Off-lattice points are linearly interpolated.  Points below x_lo are
    clamped to x_lo (transition-kernel semantics) or, with ``extrapolate``,
    linearly extrapolated from the two lowest grid points (G-function
    semantics).  Built atom by atom into a dense n x n matrix.
    """
    g = model.grid
    n = g.n
    rows = np.arange(n)
    W = np.zeros((n, n))
    flagged = 0
    for d, p in zip(model.demand.values, model.demand.probs):
        pos = (g.points - d - g.x_lo) / g.step
        flagged += int(np.count_nonzero(pos < 0))
        if not extrapolate:
            pos = np.maximum(pos, 0.0)
        pos = np.minimum(pos, n - 1.0)
        i0 = np.clip(np.floor(pos).astype(int), 0, n - 2)
        w = pos - i0
        np.add.at(W, (rows, i0), p * (1.0 - w))
        np.add.at(W, (rows, i0 + 1), p * w)
    return W, flagged


def oracle_pair_value(model, s_idx, S_idx, alpha):
    """Value of the (s,S)-pair policy via a direct linear solve."""
    idx = np.arange(model.grid.n)
    return oracle_policy_value(model, np.where(idx < s_idx, S_idx - idx, 0), alpha)


def oracle_policy_value(model, order_steps, alpha):
    """Value of the stationary policy ordering ``order_steps[i]`` grid steps
    in state i, via a direct linear solve."""
    P, c = oracle_policy_chain(model, order_steps)
    return np.linalg.solve(np.eye(model.grid.n) - alpha * P, c)


def oracle_average_cost(model, order_steps):
    """Long-run average cost of a stationary grid policy from its stationary
    distribution: pi P = pi with sum(pi) = 1, solved densely by least squares
    (transient states get pi = 0), then pi . c."""
    P, c = oracle_policy_chain(model, order_steps)
    n = model.grid.n
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.concatenate([np.zeros(n), [1.0]])
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    return float(pi @ c)


def oracle_policy_chain(model, order_steps):
    """Dense transition matrix and one-step costs of the stationary policy
    ordering ``order_steps[i]`` grid steps in state i.

    Transition rows are rebuilt from scratch with clamp-and-interpolate
    semantics, independent of the package kernel.
    """
    g = model.grid
    n = g.n
    P = np.zeros((n, n))
    c = np.empty(n)
    for i in range(n):
        a = int(order_steps[i]) * g.step
        c[i] = oracle_cost(model, float(g.points[i]), a)
        post = g.points[i] + a
        for d, p in zip(model.demand.values, model.demand.probs):
            y = min(max(post - d, g.x_lo), g.x_hi)
            pos = (y - g.x_lo) / g.step
            i0 = min(int(np.floor(pos)), n - 2)
            w = pos - i0
            P[i, i0] += p * (1.0 - w)
            P[i, i0 + 1] += p * w
    return P, c


def oracle_members(table):
    """Dense n x n eps-optimal sets of a PolicyTable: ``members[i, j]`` when moving
    from state i to post-order position j is eps-optimal (j = i: g[i] <= m[i] +
    eps; j > i: K + g[j] <= m[i] + eps)."""
    thr = table.m + table.eps
    members = np.triu((table.K + table.g)[None, :] <= thr[:, None], 1)
    members[np.diag_indices(table.grid.n)] = table.g <= thr
    return members


def oracle_action_sets(table, actions):
    """Chosen orders, set sizes and the distances of ``actions`` (shape (n,) or
    (T, n)) from the dense sets: the first member of each row, its count, and
    the least |(j - i) step - a| over the members j."""
    members = oracle_members(table)
    idx = np.arange(table.grid.n)
    chosen = (members.argmax(axis=1) - idx) * table.grid.step
    offered = (idx[None, :] - idx[:, None]) * table.grid.step
    rows = np.atleast_2d(np.asarray(actions, dtype=float))
    dist = [np.where(members, np.abs(offered - a[:, None]), np.inf).min(axis=1) for a in rows]
    return chosen, members.sum(axis=1), np.array(dist).reshape(np.shape(actions))


def oracle_suffix_settle(cond):
    """Per column of a (t_max, n) boolean array: the first t (1-based) from which
    ``cond`` holds to the last row, else -1, by a backward loop over the rows."""
    t_max, n = cond.shape
    out = np.full(n, -1, dtype=int)
    ok = np.ones(n, dtype=bool)
    for t in range(t_max - 1, -1, -1):
        ok &= cond[t]
        out[ok] = t + 1
    return out


def oracle_action_convergence(model, alpha, terminal, t_max, tol=1e-10):
    """Distances, settle stages and exact settle stages of the per-stage loop: one
    ``bellman_update`` and one ``PolicyTable`` per stage from v_1 = T F, the
    chosen rows measured against the reference sets at once, and the stages
    from ``oracle_suffix_settle``."""
    ref = ssdp.solve_infinite(model, alpha, tol=tol)
    chosen = np.empty((t_max, model.grid.n))
    v, _ = ssdp.bellman_update(model, terminal.values, alpha)
    for t in range(t_max):
        v, table = ssdp.bellman_update(model, v, alpha)
        chosen[t] = table.chosen
    dist = ref.policy.distance(chosen)
    step = model.grid.step
    return dist, oracle_suffix_settle(dist <= step + 1e-12), oracle_suffix_settle(dist <= 1e-12)


def oracle_k_convexity(values, xs, K):
    """Worst K-convexity violation and its triple, by the direct O(n^3) scan.

    For each middle point m every pair x < m < y is tried at once with
    lam = (m-x)/(y-x) and violation g(m) - (1-lam) g(x) - lam g(y) - lam K.
    Returns (worst violation, (x, m, y)), or (0.0, None) below three points.
    """
    vals = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = vals.size
    if n < 3:
        return 0.0, None
    worst, worst_triple = -np.inf, None
    for mid in range(1, n - 1):
        left = xs[:mid]
        right = xs[mid + 1 :]
        lam = (xs[mid] - left[:, None]) / (right[None, :] - left[:, None])
        rhs = (1.0 - lam) * vals[:mid, None] + lam * vals[None, mid + 1 :] + lam * K
        viol = vals[mid] - rhs
        j = int(np.argmax(viol))
        if viol.flat[j] > worst:
            worst = float(viol.flat[j])
            xi, yi = divmod(j, right.size)
            worst_triple = (float(left[xi]), float(xs[mid]), float(right[yi]))
    return worst, worst_triple


def oracle_k_convexity_rows(values, xs, K):
    """Worst K-convexity violation and its triple by the O(n^2) scan, one row x
    at a time: sigma_x(y) = (g(y) + K - g(x)) / (y - x), a reversed running
    minimum over y > m, then the first argmax over m.  A row replaces the
    running worst only when strictly larger.  Returns (worst, (x, m, y)), or
    (0.0, None) below three points.
    """
    vals = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = vals.size
    if n < 3:
        return 0.0, None
    worst, worst_triple = -np.inf, None
    for i in range(n - 2):
        sigma = (vals[i + 1 :] + K - vals[i]) / (xs[i + 1 :] - xs[i])
        tail = np.minimum.accumulate(sigma[::-1])[::-1][1:]  # min over y > m
        viol = vals[i + 1 : -1] - vals[i] - (xs[i + 1 : -1] - xs[i]) * tail
        k = int(np.argmax(viol))
        if viol[k] > worst:
            worst = float(viol[k])
            y = i + 2 + k + int(np.argmin(sigma[k + 1 :]))
            worst_triple = (float(xs[i]), float(xs[i + 1 + k]), float(xs[y]))
    return worst, worst_triple


@np.errstate(over="ignore", invalid="ignore")
def reference_is_K_convex(grid, g, K):
    """``policy.is_K_convex`` as it was before its fused scan: the same blocks of
    about ``policy.KCONVEX_BLOCK`` cells, each built from fresh temporaries, with
    sigma divided only where y > x and a full boolean mask of the cells with
    m <= x.  A NaN cell (an overflowing g) counts as a violation above every
    number: the first one in row-major order is the worst, at any block size.
    Both scans read the same constant.
    """
    if K < 0:
        raise ssdp.ModelError("K must be nonnegative")
    vals = np.asarray(g, dtype=float)
    xs = grid.points
    n = vals.size
    if n < 3:
        return policy.KConvexityReport(True, 0.0, None, policy.KCONVEX_TOL, K)
    worst, worst_triple = -np.inf, None
    r0 = 0
    while r0 < n - 2:
        r1 = min(n - 2, r0 + max(1, policy.KCONVEX_BLOCK // (n - 1 - r0)))
        rows = np.arange(r0, r1)[:, None]
        above = np.arange(r0 + 1, n) > rows
        sigma = np.divide(vals[r0 + 1 :] + K - vals[rows], xs[r0 + 1 :] - xs[rows],
                          out=np.full(above.shape, np.inf), where=above)
        tail = np.minimum.accumulate(sigma[:, :0:-1], axis=1)[:, ::-1]
        viol = vals[r0 + 1 : -1] - vals[rows] - (xs[r0 + 1 : -1] - xs[rows]) * tail
        viol[~above[:, :-1]] = -np.inf
        i, k = divmod(int(viol.argmax()), viol.shape[1])
        if viol[i, k] > worst or (np.isnan(viol[i, k]) and not np.isnan(worst)):
            worst = float(viol[i, k])
            y = r0 + 2 + k + int(np.argmin(sigma[i, k + 1 :]))
            worst_triple = (float(xs[r0 + i]), float(xs[r0 + 1 + k]), float(xs[y]))
        r0 = r1
    return policy.KConvexityReport(
        verdict=worst <= policy.KCONVEX_TOL, worst_violation=worst, worst_triple=worst_triple,
        tol=policy.KCONVEX_TOL, K=K
    )


def reference_sample_renewal(demand, y, n_paths, seed):
    """``renewal.sample_renewal`` as it was before its chunked rewrite: one
    ``rng.random`` per round over the active paths, each level's atom by
    ``np.searchsorted`` over the CDF, and a compaction of the active path ids and
    sums after every round in which some path finished.  Returns (counts,
    first passage)."""
    edges = np.concatenate(([-np.inf], np.cumsum(demand.probs)[:-1], [np.inf]))
    rng = np.random.default_rng(seed)
    counts = np.empty(n_paths, dtype=np.int64)
    passage = np.empty(n_paths)
    active = np.arange(n_paths)
    sums = np.zeros(n_paths)
    rounds = 0
    while active.size:
        rounds += 1
        sums += demand.values[np.searchsorted(edges, rng.random(active.size)) - 1]
        done = sums > y
        if (ended := np.flatnonzero(done)).size:
            finished = active.take(ended)
            passage[finished], counts[finished] = sums.take(ended), rounds - 1
            active, sums = active[~done], sums[~done]
    return counts, passage


def reference_cell(x) -> str:
    """One CSV cell as the row-at-a-time writer formatted it: "" for None,
    true/false for booleans, str(int) for integers, repr(float) for floats,
    str otherwise (numpy scalars included)."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def reference_write_table_csv(path, header, rows):
    """The row-at-a-time CSV writer: the csv module's default dialect, one
    ``reference_cell`` per cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([reference_cell(c) for c in row])


def oracle_grid_chain(model, cfg, order_steps, demands, burn, block):
    """Per-path mean step cost after ``burn`` steps of the grid chain, one step
    at a time from the demand values (paths x steps).  Each step clamps
    x_post - d to [x_lo, x_hi] and moves to the upper neighbour when its
    uniform is below the upper weight; the uniforms come from the first child
    stream of ``cfg.seed``, drawn ``block`` steps at a time.  The kept costs of
    each block of ``block`` steps are added step by step, and the block sums are
    added to the total in order.
    """
    g = model.grid
    idx = np.arange(g.n)
    cost = model.one_step_cost(idx, order_steps)
    post_x = g.points[idx + order_steps]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n, horizon = demands.shape
    state = np.full(n, g.index_of(cfg.x0))
    total = np.zeros(n)
    for t in range(horizon):
        if t % block == 0:
            u = rng.random((min(block, horizon - t), n))
            block_sum = np.zeros(n)
        if t >= burn:
            block_sum += cost[state]
        if t % block == block - 1 or t == horizon - 1:
            total += block_sum
        pos = post_x[state]
        pos -= demands[:, t]
        pos -= g.x_lo
        pos /= g.step
        pos = np.minimum(np.maximum(pos, 0.0), g.n - 1.0)
        lower = np.minimum(pos.astype(int), g.n - 2)
        state = lower + (u[t % block] < pos - lower)
    return total / (horizon - burn)


def oracle_brute_force(model, alpha, extracted):
    """Worst gap and best pair of the exhaustive (s,S) search, one dense solve
    per pair: max over states of v_extracted - v_pair, scanned S ascending,
    then s ascending, keeping the first strict maximum.

    The transition rows come from ``oracle_post_expectation`` and E h from
    direct summation over atoms, so no package operator is used.
    """
    g = model.grid
    n = g.n
    W, _ = oracle_post_expectation(model, extrapolate=False)
    eh = np.array([oracle_cost(model, float(x), 0.0) for x in g.points])
    idx = np.arange(n)
    eye = np.eye(n)

    def value(s_idx, S_idx):
        steps = np.where(idx < s_idx, S_idx - idx, 0)
        a = steps * g.step
        c = model.K * (steps > 0) + model.c_bar * a + eh[idx + steps]
        return np.linalg.solve(eye - alpha * W[idx + steps], c)

    ex_value = value(g.index_of(extracted[0]), g.index_of(extracted[1]))
    worst, best = -np.inf, None
    for S_idx in range(n):
        for s_idx in range(S_idx + 1):
            gap = float(np.max(ex_value - value(s_idx, S_idx)))
            if gap > worst:
                worst, best = gap, (float(g.points[s_idx]), float(g.points[S_idx]))
    return worst, best


def oracle_cycle_table_scan(model, alpha, extracted):
    """Worst gap and best pair of the full-table scan over every pair: the
    n x n array gaps[S, s] of max over states of v_extracted - v_pair from the
    full-range ``sS_cycle_tables``, its first largest entry, S ascending, then
    s; the extracted pair when no pair beats it."""
    n = model.grid.n
    xs = model.grid.points
    beta, gamma, _ = sS_cycle_tables(model, alpha)

    def pair_values(s_idx):
        C = (model.K + model.c_bar * xs[s_idx:] + gamma[s_idx:, s_idx]) / (
            1.0 - beta[s_idx:, s_idx]
        )
        return gamma[:, s_idx, None] + beta[:, s_idx, None] * C

    s_ex, S_ex = model.grid.index_of(extracted[0]), model.grid.index_of(extracted[1])
    ex_value = pair_values(s_ex)[:, S_ex - s_ex]
    gaps = np.full((n, n), -np.inf)
    for s_idx in range(n):
        gaps[s_idx:, s_idx] = np.max(ex_value[:, None] - pair_values(s_idx), axis=0)
    S_best, s_best = divmod(int(np.argmax(gaps)), n)
    worst = float(gaps[S_best, s_best])
    best = (float(xs[s_best]), float(xs[S_best])) if worst > 0 else tuple(extracted)
    return worst, best, int(np.sum(gaps == worst))


def oracle_optimal_average_cost(model):
    """w* and its pair from the full alpha = 1 tables: the argmin over every
    pair 1 <= s <= S, listed S ascending, then s ascending."""
    _, gamma, N = sS_cycle_tables(model, 1.0)
    S, s = np.tril_indices(model.grid.n, -1)
    s += 1
    w = (model.K + model.c_bar * model.grid.points[S] + gamma[S, s]) / N[S, s]
    i = int(np.argmin(w))
    return float(w[i]), (float(model.grid.points[s[i]]), float(model.grid.points[S[i]]))


@st.composite
def probability_tables(draw, max_atoms=255):
    """Tables of 1 to max_atoms atoms with weights from 1e-3 to 1 and tiny ones
    (1e-17 to 1e-9), normalized, whose sum may then end up to 9e-13 below 1."""
    n = draw(st.integers(1, max_atoms))
    tiny = st.sampled_from([1e-17, 1e-12, 1e-9])
    w = np.array(draw(st.lists(st.one_of(st.floats(1e-3, 1.0), tiny), min_size=n, max_size=n)))
    return w / w.sum() * (1.0 - draw(st.sampled_from([0.0, 1e-13, 9e-13])))


@st.composite
def small_models(draw, max_n=10):
    """Small random models: integer or off-lattice atoms, K = 0 or K > 0, P(D > 0) > 0."""
    n = draw(st.integers(3, max_n))
    step = draw(st.sampled_from([1.0, 0.5, 0.3]))  # 0.3: floor() roundoff above the diagonal
    x_lo = -step * draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    else:
        values = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=3, unique=True))
    values = [float(v) for v in values] + [draw(st.floats(0.05, 2.5))]
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(values), max_size=len(values)))
    probs = np.array(weights) / sum(weights)
    K = draw(st.sampled_from([0.0, draw(st.floats(0.1, 5.0))]))
    h = ssdp.PiecewiseLinear.from_breakpoints(
        [[-1, draw(st.floats(0.5, 4.0))], [0, 0], [1, draw(st.floats(0.1, 2.0))]]
    )
    return ssdp.InventoryModel(
        K=K,
        c_bar=draw(st.floats(0.0, 2.0)),
        h=h,
        demand=ssdp.DemandDistribution.from_atoms(zip(values, probs)),
        grid=ssdp.Grid(x_lo=x_lo, x_hi=x_lo + step * (n - 1), step=step),
    )


def oracle_discretize(family, params, n_atoms):
    """Equal-probability quantile atoms by numerical quadrature.

    Edges are ``scipy.stats`` quantiles of the truncated range; each atom is
    the bin's conditional mean from ``dist.expect``.  Quadrature loses
    accuracy where the density is not smooth at 0 (gamma with a non-integer
    shape below about 2 is up to ~1e-10 off, below 1 worse), so those cases
    take the mpmath reference ``mpmath_gamma_atoms`` instead.
    """
    from scipy import stats

    p = params
    dist = {
        "uniform": lambda: stats.uniform(loc=p["low"], scale=p["high"] - p["low"]),
        "exponential": lambda: stats.expon(scale=p["mean"]),
        "gamma": lambda: stats.gamma(p["shape"], scale=p["scale"]),
    }[family]()
    p_hi = ssdp.model.TRUNCATION_FLOOR
    edges = dist.ppf(np.linspace(0.0, p_hi, n_atoms + 1))
    edges[0] = max(edges[0], 0.0)
    atoms = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mean = lo if hi <= lo else dist.expect(lambda t: t, lb=lo, ub=hi, conditional=True)
        atoms.append((float(mean), 1.0 / n_atoms * p_hi))
    return ssdp.DemandDistribution.from_atoms(atoms, source="discretized-continuous")


def mpmath_gamma_atoms(shape, scale, n_atoms, dps=40):
    """Gamma bin means to ``dps`` digits: tanh-sinh quadrature of t^k e^-t and
    t^(k-1) e^-t over each bin of the ``scipy.special`` quantile edges."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import gammaincinv

    z = gammaincinv(shape, np.linspace(0.0, ssdp.model.TRUNCATION_FLOOR, n_atoms + 1))
    with mpmath.workdps(dps):
        k = mpmath.mpf(shape)
        out = []
        for a, b in zip(z[:-1], z[1:]):
            a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
            num = mpmath.quad(lambda t: t**k * mpmath.exp(-t), [a, b])
            den = mpmath.quad(lambda t: t ** (k - 1) * mpmath.exp(-t), [a, b])
            out.append(float(scale * num / den))
    return np.array(out)
