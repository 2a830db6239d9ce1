import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ssdp
from ssdp import dp, policy
from ssdp.average import optimal_average_cost
from ssdp.config import model_from_dict
from ssdp.model import DemandDistribution, Grid, ModelError
from ssdp.policy import (
    G_CONSISTENCY_TOL,
    CertificationError,
    SsPolicy,
    brute_force_sS_check,
    build_G,
    discounted_sS,
    extract_sS,
    finite_horizon_sS,
    is_K_convex,
    slope_condition,
    solve_zero_setup,
)
from ssdp.dp import solve_finite, solve_infinite

from conftest import (
    CONFIGS,
    OPERATOR_MODELS,
    make_exponential,
    make_instance_a,
    oracle_brute_force,
    oracle_cycle_table_scan,
    oracle_k_convexity,
    oracle_k_convexity_rows,
    oracle_optimal_average_cost,
    oracle_post_expectation,
    reference_is_K_convex,
    small_models,
)


# ---------------------------------------------------------------- build_G


def test_build_g_zero_stub(zero_stub):
    g = build_G(zero_stub, np.zeros(zero_stub.grid.n), 0.9, tol=G_CONSISTENCY_TOL)
    assert np.all(g == 0.0)


def test_build_g_alpha_zero_formula(instance_a):
    g = build_G(instance_a, np.zeros(instance_a.grid.n), 0.0)
    assert g[instance_a.grid.index_of(0.0)] == pytest.approx(3.0, abs=1e-12)
    assert g[instance_a.grid.index_of(2.0)] == pytest.approx(3.0, abs=1e-12)


def test_build_g_degenerate_closed_form(degenerate_model):
    m = degenerate_model
    alpha = 0.9
    rep = solve_infinite(m, alpha, tol=1e-9)
    g = build_G(m, rep.value, alpha, tol=G_CONSISTENCY_TOL)
    pos = m.grid.points >= 0
    expect = m.c_bar * m.grid.points[pos] + m.h(m.grid.points[pos]) / (1 - alpha)
    assert np.max(np.abs(g[pos] - expect)) <= 1e-7


def test_build_g_consistency_check_catches_tampering(instance_a, solve_a_09):
    tampered = solve_a_09.value.copy()
    tampered[instance_a.grid.index_of(5.0)] += 1.0
    with pytest.raises(CertificationError):
        build_G(instance_a, tampered, 0.9, tol=G_CONSISTENCY_TOL)


@pytest.mark.parametrize("name", OPERATOR_MODELS)
def test_build_g_matches_extrapolating_reference(name):
    m = OPERATOR_MODELS[name]()
    W_ext, flagged = oracle_post_expectation(m, extrapolate=True)
    v = np.random.default_rng(7).uniform(0.0, 50.0, m.grid.n)
    for alpha in (0.9, 1.0):  # a stage function G_t, and the average-cost H
        g = build_G(m, v, alpha)
        expect = m.c_bar * m.grid.points + m.expected_h(m.grid.points) + alpha * (W_ext @ v)
        assert np.max(np.abs(g - expect)) <= 1e-12 * np.max(np.abs(v))
    assert m.kernel.clamp_events == flagged


@pytest.mark.parametrize("config", ["instance_a", "exponential_demand", "degenerate_zero_demand"])
def test_stacked_build_g_is_bitwise_row_by_row(config):
    model = ssdp.load_model(CONFIGS / f"{config}.json")
    rows = solve_finite(model, 40, dp.TerminalValue.zero(model.grid), 0.9).values
    rows[7] = np.random.default_rng(3).uniform(0.0, 50.0, model.grid.n)  # v[1] - v[0] varies
    for alpha in (0.9, 1.0):
        for stack in (rows, rows[:2], rows[:1], rows[::-3]):  # some, one, and a strided view
            got = build_G(model, stack, alpha)
            want = np.array([build_G(model, v, alpha) for v in stack])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ModelError, match="shape"):  # the consistency check takes one row
        build_G(model, rows[:2], 0.9, tol=G_CONSISTENCY_TOL)


def test_consistency_check_tolerance_follows_a_coarse_solve(instance_a):
    # the gap is bounded by the solve's certified error: a 1e-3 solve misses v by
    # about 2.6e-5, so the check runs at max(G_CONSISTENCY_TOL, tol)
    v = solve_infinite(instance_a, 0.9, tol=1e-3).value
    build_G(instance_a, v, 0.9, tol=1e-3)
    with pytest.raises(CertificationError, match=r"> 1\.0e-07"):
        build_G(instance_a, v, 0.9, tol=1e-8)


def test_build_g_counts_extrapolations(instance_a, solve_a_09):
    # build_G extrapolates at the pairs the kernel clamps, which the solve reports
    assert instance_a.kernel.clamp_events == solve_a_09.clamp_events == 3


# --------------------------------------------------------------- extract_sS


def test_extract_quadratic_analytic():
    grid = Grid(x_lo=-5, x_hi=15, step=1.0)
    g = (grid.points - 5.0) ** 2
    pol = extract_sS(grid, g, K=4.0)
    assert (pol.s, pol.S) == (3.0, 5.0)


def test_extract_absolute_value_analytic():
    grid = Grid(x_lo=-6, x_hi=6, step=1.0)
    g = np.abs(grid.points)
    pol = extract_sS(grid, g, K=2.0)
    assert (pol.s, pol.S) == (-2.0, 0.0)


def test_extract_zero_K_gives_base_stock():
    grid = Grid(x_lo=-6, x_hi=6, step=1.0)
    g = (grid.points - 1.0) ** 2
    pol = extract_sS(grid, g, K=0.0)
    assert pol.s == pol.S == 1.0


def test_extract_boundary_argmin_errors():
    grid = Grid(x_lo=0, x_hi=5, step=1.0)
    g = grid.points.copy()
    with pytest.raises(ModelError, match=r"grid too narrow.*\(index 0\); widen grid\.x_lo"):
        extract_sS(grid, g, K=1.0)
    with pytest.raises(ModelError, match=r"grid too narrow.*\(index 5\); widen grid\.x_hi"):
        extract_sS(grid, -g, K=1.0)


def test_extract_level_set_guarantees(instance_a, discounted_a_09):
    g = discounted_a_09.g
    pol = discounted_a_09.policy
    K = 2.0
    s_idx = instance_a.grid.index_of(pol.s)
    S_idx = instance_a.grid.index_of(pol.S)
    level = K + g[S_idx]
    assert g[s_idx] <= level + 1e-9
    assert np.all(g[:s_idx] > level)


def test_instance_a_g_threshold_structure(instance_a, discounted_a_09):
    # decreasing left tail up to s, and no-order region to the right of s
    vals = discounted_a_09.g
    s_idx = instance_a.grid.index_of(discounted_a_09.policy.s)
    assert np.all(np.diff(vals[: s_idx + 1]) <= 1e-9)
    for i in range(s_idx, vals.size):
        assert np.all(vals[i] <= vals[i:] + 2.0 + 1e-9)


# --------------------------------------------------------------- K-convexity


def test_convex_implies_k_convex():
    grid = Grid(x_lo=-8, x_hi=8, step=1.0)
    g = grid.points**2
    for K in (0.0, 1.0, 10.0):
        assert is_K_convex(grid, g, K).verdict


def test_step_down_of_height_K_passes():
    grid = Grid(x_lo=-8, x_hi=8, step=1.0)
    K = 3.0
    vals = np.where(grid.points < 0, K, 0.0)
    assert is_K_convex(grid, vals, K).verdict


def test_step_down_of_height_K_plus_one_fails():
    grid = Grid(x_lo=-8, x_hi=8, step=1.0)
    K = 3.0
    vals = np.where(grid.points < 0, K + 1.0, 0.0)
    rep = is_K_convex(grid, vals, K)
    assert not rep.verdict
    x, m, y = rep.worst_triple
    assert x < m < 0 <= y  # violating triple straddles the jump
    lam = (m - x) / (y - x)
    assert rep.worst_violation == pytest.approx(lam, abs=1e-12)


def test_k_convex_short_grids_trivial():
    grid = Grid(x_lo=0, x_hi=1, step=1.0)
    assert is_K_convex(grid, [1.0, 0.0], 0.0).verdict


@st.composite
def k_convexity_cases(draw):
    """(grid, g values, K): random, convex, or a line with a drop of height
    about K, which ties the violation across many triples near tol."""
    n = draw(st.integers(3, 24))
    step = draw(st.sampled_from([1.0, 0.25, 0.03]))
    K = draw(st.sampled_from([0.0, 0.5, 2.0]))
    grid = Grid(x_lo=-1.0, x_hi=-1.0 + step * (n - 1), step=step)
    kind = draw(st.sampled_from(["random", "convex", "near_tied"]))
    if kind == "random":
        vals = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    elif kind == "convex":
        d2 = draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
        slopes = np.cumsum(d2) - draw(st.floats(0.0, 3.0 * n))
        vals = np.concatenate(([0.0], np.cumsum(slopes * step)))
    else:
        slope = draw(st.floats(-2.0, 2.0))
        theta = draw(st.integers(1, n - 1))
        nudge = draw(st.sampled_from([-1e-9, 0.0, 5e-10, 1e-9, 2e-9]))
        vals = slope * grid.points + (K + nudge) * (np.arange(n) < theta)
    return grid, vals, K


@given(case=k_convexity_cases())
@settings(max_examples=200, deadline=None)
def test_k_convexity_matches_triple_scan(case):
    grid, vals, K = case
    rep = is_K_convex(grid, vals, K)
    worst, _ = oracle_k_convexity(vals, grid.points, K)
    assert abs(rep.worst_violation - worst) <= 1e-12
    if abs(worst - rep.tol) > 1e-12:
        assert rep.verdict == (worst <= rep.tol)
    # the reported triple attains the reported violation, ties included
    x, m, y = (grid.index_of(p) for p in rep.worst_triple)
    assert x < m < y
    xs = grid.points
    lam = (xs[m] - xs[x]) / (xs[y] - xs[x])
    at_triple = vals[m] - (1 - lam) * vals[x] - lam * vals[y] - lam * K
    assert abs(at_triple - rep.worst_violation) <= 1e-12


@given(
    n=st.integers(3, 80),
    K=st.sampled_from([0.0, 0.5, 2.0]),
    kind=st.sampled_from(["random", "convex", "near_tied"]),
    decimals=st.sampled_from([None, 0, 1]),
    cells=st.sampled_from([policy.KCONVEX_BLOCK, 100, 1]),
    data=st.data(),
)
# at the default block size n = 80 scans rows 0-50, then 51-77: a partial block
@example(n=80, K=0.0, kind="random", decimals=0, cells=policy.KCONVEX_BLOCK, data=None)
@settings(max_examples=200, deadline=None)
def test_k_convexity_blocks_equal_row_scan(n, K, kind, decimals, cells, data):
    grid = Grid(x_lo=-1.0, x_hi=-1.0 + 0.25 * (n - 1), step=0.25)
    if data is None:
        vals = np.round(np.random.default_rng(n).normal(size=n) * 3.0)
    elif kind == "random":
        vals = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    elif kind == "convex":
        d2 = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
        slopes = np.cumsum(d2) - data.draw(st.floats(0.0, 3.0 * n))
        vals = np.concatenate(([0.0], np.cumsum(slopes * grid.step)))
    else:
        theta = data.draw(st.integers(1, n - 1))
        vals = data.draw(st.floats(-2.0, 2.0)) * grid.points + K * (np.arange(n) < theta)
    if decimals is not None:
        vals = np.round(vals, decimals)  # repeated values make tied triples
    with mock.patch.object(policy, "KCONVEX_BLOCK", cells):
        rep = is_K_convex(grid, vals, K)
    worst, triple = oracle_k_convexity_rows(vals, grid.points, K)
    assert rep.worst_violation == worst
    assert rep.worst_triple == triple
    assert rep.verdict == (worst <= rep.tol)


def test_k_convexity_memory_is_linear_per_row():
    import tracemalloc

    grid = Grid(x_lo=-10.0, x_hi=10.0, step=0.01)
    assert grid.n == 2001
    g = grid.points**2 + 3.0 * (grid.points < 0)
    tracemalloc.start()
    try:
        rep = is_K_convex(grid, g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.verdict
    assert peak < grid.n**2 * 8 / 100, f"peak {peak} bytes"


def _same_report(got, want):
    """Equal verdict and triple, and a bitwise-equal worst violation."""
    assert got.verdict == want.verdict
    assert np.float64(got.worst_violation).tobytes() == np.float64(want.worst_violation).tobytes()
    assert got.worst_triple == want.worst_triple


@given(
    n=st.integers(2, 300),  # a grid has at least two points
    step=st.sampled_from([1.0, 0.25, 0.03]),
    K=st.sampled_from([0.0, 0.5, 2.0]),
    kind=st.sampled_from(["noisy", "integer", "constant", "k_convex", "overflow"]),
    cells=st.sampled_from([policy.KCONVEX_BLOCK, 100, 1]),
    seed=st.integers(0, 2**32 - 1),
)
# n = 2 and 3: no triple and one triple; 300 noisy points: many blocks, not K-convex
@example(n=2, step=1.0, K=0.0, kind="noisy", cells=policy.KCONVEX_BLOCK, seed=0)
@example(n=3, step=1.0, K=0.5, kind="integer", cells=policy.KCONVEX_BLOCK, seed=0)
@example(n=300, step=0.03, K=2.0, kind="noisy", cells=policy.KCONVEX_BLOCK, seed=1)
@example(n=300, step=0.25, K=0.0, kind="overflow", cells=policy.KCONVEX_BLOCK, seed=2)
@settings(max_examples=150, deadline=None)
def test_k_convexity_equals_reference_scan(n, step, K, kind, cells, seed):
    # the fused scan against the scan it replaced, which reads the same block size
    rng = np.random.default_rng(seed)
    grid = Grid(x_lo=-1.0, x_hi=-1.0 + step * (n - 1), step=step)
    if kind == "noisy":  # a K-convex curve plus noise that breaks K-convexity
        vals = grid.points**2 + K * (grid.points < 0) + rng.normal(scale=0.5, size=n)
    elif kind == "integer":  # few distinct values, so many tied triples
        vals = rng.integers(-3, 4, size=n).astype(float)
    elif kind == "constant":
        vals = np.full(n, rng.normal())
    elif kind == "k_convex":
        vals = np.cumsum(np.cumsum(rng.uniform(0.0, 1.0, size=n))) * step**2
        vals += K * (np.arange(n) < rng.integers(0, n + 1))
    else:  # entries near +-1e308: differences overflow to inf and inf - inf is NaN
        vals = rng.choice([-1.7e308, -1e308, 0.0, 1.5, 1e308, 1.7e308], size=n)
    with mock.patch.object(policy, "KCONVEX_BLOCK", cells):
        _same_report(is_K_convex(grid, vals, K), reference_is_K_convex(grid, vals, K))


@pytest.mark.parametrize("step", [0.03, 0.015])
def test_k_convexity_equals_reference_scan_on_fine_grids(step):
    # n = 1001 and 2001: the exponential config's G at alpha = 0.99 (K-convex), and
    # the same G with noise (not K-convex)
    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["grid"]["step"] = step
    model = model_from_dict(cfg)
    g = build_G(model, solve_infinite(model, 0.99, tol=1e-8).value, 0.99)
    noisy = g + np.random.default_rng(model.grid.n).normal(scale=1e-3, size=g.size)
    for vals in (g, noisy):
        rep = is_K_convex(model.grid, vals, model.K)
        _same_report(rep, reference_is_K_convex(model.grid, vals, model.K))
        assert rep.verdict == (vals is g)


@pytest.mark.parametrize("cells", [policy.KCONVEX_BLOCK, 100, 1])
def test_k_convexity_counts_a_nan_cell_as_a_violation(cells):
    # g near +-1e308: inf - inf makes NaN cells, the first of which is in row x = -1;
    # a NaN that counted as no violation once passed this g at the default block
    grid = Grid(x_lo=-1.0, x_hi=-1.0 + 0.25 * 49, step=0.25)
    g = np.random.default_rng(2).choice([-1.7e308, -1e308, 0.0, 1.5, 1e308, 1.7e308], size=50)
    with mock.patch.object(policy, "KCONVEX_BLOCK", cells):
        rep = is_K_convex(grid, g, 0.5)
        _same_report(rep, reference_is_K_convex(grid, g, 0.5))
    assert not rep.verdict and np.isnan(rep.worst_violation)
    assert rep.worst_triple == (-1.0, -0.75, -0.5)


convex_vals = st.lists(st.floats(0.0, 5.0), min_size=12, max_size=12).map(
    lambda d2: np.concatenate(([0.0], np.cumsum(np.cumsum(sorted(d2))))),
)


@given(d2=st.lists(st.floats(0.0, 4.0), min_size=10, max_size=10), K=st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_k_convexity_of_random_convex_functions(d2, K):
    # convex grid values from nonnegative second differences
    n = len(d2) + 2
    slopes = np.cumsum([-sum(d2) / 2.0] + d2)
    vals = np.concatenate(([0.0], np.cumsum(slopes)))
    grid = Grid(x_lo=0, x_hi=n - 1, step=1.0)
    assert is_K_convex(grid, vals, K).verdict


@given(
    d2=st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8),
    K=st.floats(0.5, 4.0),
    frac=st.floats(0.0, 1.0),
    theta=st.integers(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_k_convexity_closure_under_demand_expectation(d2, K, frac, theta):
    # g = convex + (step down of height <= K at theta) stays K-convex,
    # and so does its expectation under a demand shift
    def g_fn(x):
        x = np.asarray(x, dtype=float)
        conv = 0.05 * x**2
        for j, c in enumerate(d2):
            conv = conv + c * np.maximum(x - (j - 4), 0.0)
        return conv + frac * K * (x < theta)

    grid = Grid(x_lo=-8, x_hi=8, step=1.0, integer_mode=True)
    demand = DemandDistribution.from_atoms([(0, 0.3), (1, 0.4), (3, 0.3)])
    direct = g_fn(grid.points)
    shifted = sum(p * g_fn(grid.points - d) for d, p in zip(demand.values, demand.probs))
    assert is_K_convex(grid, direct, K).verdict
    assert is_K_convex(grid, shifted, K).verdict


@given(
    d2=st.lists(st.floats(0.1, 3.0), min_size=9, max_size=9),
    K=st.floats(0.5, 4.0),
    frac=st.floats(0.0, 1.0),
    theta=st.integers(-4, 4),
)
@settings(max_examples=40, deadline=None)
def test_extract_threshold_structure_on_k_convex_inputs(d2, K, frac, theta):
    xs = np.arange(-10.0, 11.0)
    conv = 0.5 * np.abs(xs) + sum(
        c * np.maximum(xs - (j - 4), 0.0) for j, c in enumerate(d2)
    )
    vals = conv + frac * K * (xs < theta)
    grid = Grid(x_lo=-10, x_hi=10, step=1.0, integer_mode=True)
    assert is_K_convex(grid, vals, K).verdict
    try:
        pol = extract_sS(grid, vals, K)
    except ModelError:
        return  # boundary argmin; nothing to assert
    s_idx, S_idx = grid.index_of(pol.s), grid.index_of(pol.S)
    level = K + vals[S_idx]
    # decreasing left tail up to s, and no-order region property
    left = vals[: s_idx + 1]
    assert np.all(np.diff(left) <= 1e-9)
    for i in range(s_idx, grid.n):
        assert np.all(vals[i] <= vals[i:] + K + 1e-9)


# ------------------------------------------------------------ zero setup


def test_zero_setup_stub(zero_stub):
    zs = solve_zero_setup(zero_stub, 0.9, tol=1e-10)
    assert np.all(zs.solve.value == 0.0)
    assert zs.convexity.verdict


def test_zero_setup_base_stock(instance_a, zero_setup_a_09):
    pol = extract_sS(instance_a.grid, zero_setup_a_09.g0, K=0.0)
    assert pol.s == pol.S


def test_zero_setup_below_full_value(instance_a, solve_a_09, zero_setup_a_09):
    assert np.all(zero_setup_a_09.solve.value <= solve_a_09.value + 1e-8)


# ------------------------------------------------------- finite-horizon sS


def test_finite_horizon_agreement(instance_a, zero_setup_a_09):
    res = finite_horizon_sS(instance_a, 0.9, 3, tol=1e-8, terminal=zero_setup_a_09.terminal())
    assert res.agreement_ok, res.mismatches
    assert all(p is not None for p in res.policies)
    assert not res.warnings


def test_finite_horizon_base_stock_when_K_zero(instance_a):
    from dataclasses import replace

    m0 = replace(instance_a, K=0.0)
    res = finite_horizon_sS(m0, 0.9, 6, tol=1e-8)
    assert all(p.s == p.S for p in res.policies)


def test_finite_horizon_single_step_construction(instance_a, zero_setup_a_09):
    # the t=0 stage function is c_bar x + E h(x-D) + alpha E v0(x-D)
    res = finite_horizon_sS(instance_a, 0.9, 1, tol=1e-8, terminal=zero_setup_a_09.terminal())
    g0 = build_G(instance_a, zero_setup_a_09.solve.value, 0.9)
    direct = extract_sS(instance_a.grid, g0, instance_a.K)
    assert res.policies[0].pair() == direct.pair()


# -------------------------------------------------------------- discounted


def test_discounted_policy_matches_value(discounted_a_09):
    assert discounted_a_09.eval_gap <= 1e-6
    assert discounted_a_09.k_convexity.verdict
    assert discounted_a_09.policy.pair() == (1.0, 2.0)


def test_discounted_trace_settles(instance_a, zero_setup_a_09, discounted_a_09):
    # the finite-horizon thresholds converge to the discounted ones
    res = finite_horizon_sS(instance_a, 0.9, 60, terminal=zero_setup_a_09.terminal())
    assert res.policies[-1].pair() == discounted_a_09.policy.pair()


def test_discounted_degenerate_thresholds_nonpositive(degenerate_model):
    for alpha in (0.5, 0.9, 0.99):
        res = discounted_sS(degenerate_model, alpha, tol=1e-8)
        assert res.policy.s <= res.policy.S <= 0.0


# ----------------------------------------------------------------- average


def test_average_degenerate_short_circuit(degenerate_model):
    res = ssdp.average_sS(degenerate_model)
    assert res.degenerate and res.policy.pair() == (0.0, 0.0)
    assert "zero demand" in res.note


def test_average_instance_a(average_a):
    assert not average_a.degenerate
    assert average_a.settled and average_a.bounded_ok
    assert average_a.optimality.passes


# ------------------------------------------------------------------- slope


def test_slope_condition_holds_instance_a(instance_a):
    rep = slope_condition(instance_a)
    assert rep.holds and rep.quotient == pytest.approx(-3.0)
    z, y = rep.witness
    assert (instance_a.h(y) - instance_a.h(z)) / (y - z) < -instance_a.c_bar


def test_slope_condition_fails_with_expensive_units(instance_a):
    from dataclasses import replace

    m = replace(instance_a, c_bar=4.0)
    assert not slope_condition(m).holds


def test_slope_condition_fails_flat_h(zero_stub):
    assert not slope_condition(zero_stub).holds


# ------------------------------------------------------------------ chains


def test_g_chain_ordering(instance_a, solve_a_09, zero_setup_a_09):
    alpha = 0.9
    fin = solve_finite(instance_a, 30, zero_setup_a_09.terminal(), alpha)
    g_alpha = build_G(instance_a, solve_a_09.value, alpha, tol=G_CONSISTENCY_TOL)
    prev = zero_setup_a_09.g0
    for t in range(30):
        g_t = build_G(instance_a, fin.values[t], alpha)
        assert np.all(prev <= g_t + 1e-12)
        prev = g_t
    assert np.all(prev <= g_alpha + 1e-8)


def test_ss_policy_validation():
    with pytest.raises(ModelError):
        SsPolicy(s=3.0, S=1.0)
    pol = SsPolicy(s=-2.0, S=1.0)
    assert pol.order_quantity(-4.0) == 5.0
    assert pol.order_quantity(-2.0) == 0.0
    assert np.array_equal(pol.order_quantity(np.array([-3.0, 0.0])), np.array([4.0, 0.0]))


@pytest.mark.parametrize("make", [make_instance_a, make_exponential])
def test_brute_force_matches_dense_pair_solves(make):
    model = make()
    report = brute_force_sS_check(model, 0.9)
    worst, best = oracle_brute_force(model, 0.9, report.extracted_pair)
    assert report.passes and worst <= report.margin
    assert report.best_pair == best
    assert report.worst_gap == pytest.approx(worst, rel=0, abs=1e-12)
    assert report.worst_gap >= 0.0  # the extracted pair's own gap is exactly 0


def test_brute_force_reports_extracted_pair_on_ties(degenerate_model):
    # zero demand: no pair beats the extracted one anywhere, and many tie with it
    report = brute_force_sS_check(degenerate_model, 0.9)
    worst, first_tied = oracle_brute_force(degenerate_model, 0.9, report.extracted_pair)
    assert worst == 0.0 and first_tied != report.extracted_pair
    assert report.worst_gap == 0.0
    assert report.best_pair == report.extracted_pair == (0.0, 0.0)


def _integer_model(x_lo, x_hi, atoms, K, c_bar, slopes):
    return ssdp.InventoryModel(
        K=K,
        c_bar=c_bar,
        h=ssdp.PiecewiseLinear.from_breakpoints([[-1, slopes[0]], [0, 0], [1, slopes[1]]]),
        demand=DemandDistribution.from_atoms((d, 1.0 / len(atoms)) for d in atoms),
        grid=Grid(x_lo=x_lo, x_hi=x_hi, step=1.0),
    )


@pytest.mark.parametrize("width", [None, 7, 1])
@given(model=small_models(max_n=30))
# at alpha = 0.5 the least-S pair at the worst gap is not its s's least-C pair
@example(model=_integer_model(-1, 11, [0, 2], K=1.0, c_bar=1.0, slopes=(1.5, 0.5)))
# four pairs tie at w*: (s, S) = (6, 7), (7, 7), (5, 8), (6, 8) as indices
@example(model=_integer_model(-5, 3, [2], K=2.0, c_bar=0.5, slopes=(1.5, 0.5)))
@settings(max_examples=60, deadline=None)
def test_streamed_scans_equal_full_table_scans(model, width):
    # width 7 or 1: the tables are streamed in blocks of 7 or 1 reorder indices
    cells = dp.CYCLE_BLOCK if width is None else width * model.grid.n
    with mock.patch.object(dp, "CYCLE_BLOCK", cells):
        for alpha in (0.5, 0.9, 0.99):
            try:
                report = brute_force_sS_check(model, alpha)
            except (ModelError, CertificationError):
                continue  # no certified thresholds to check against
            worst, best, _ = oracle_cycle_table_scan(model, alpha, report.extracted_pair)
            assert repr(report.worst_gap) == repr(worst)
            assert report.best_pair == best
        assert optimal_average_cost(model) == oracle_optimal_average_cost(model)


def test_brute_force_tie_at_a_positive_gap():
    # a rounding-level worst gap reached by 36 pairs over 3 values of s
    model = _integer_model(-17, 18, [0.08], K=0.5, c_bar=0.5, slopes=(1.5, 1.5))
    report = brute_force_sS_check(model, 0.5)
    worst, best, ties = oracle_cycle_table_scan(model, 0.5, report.extracted_pair)
    assert worst > 0 and ties == 36
    assert repr(report.worst_gap) == repr(worst) and report.best_pair == best


def test_exact_scans_memory_at_2001_points():
    # the three full n x n tables alone would take 96 MB here
    import tracemalloc

    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["grid"]["step"] = 0.015
    model = model_from_dict(cfg)
    assert model.grid.n == 2001
    model.kernel, model.eh  # built and cached before the measured calls
    for call, limit_mb in (
        (lambda: optimal_average_cost(model), 64),
        (lambda: brute_force_sS_check(model, 0.9), 96),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6, (call, peak)


def test_average_needs_a_sweep(instance_a):
    with pytest.raises(ModelError, match="sweep_result"):
        ssdp.average_sS(instance_a)
