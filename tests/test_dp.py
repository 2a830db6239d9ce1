import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssdp
from ssdp import dp
from ssdp.config import model_from_dict
from ssdp.policy import solve_zero_setup
from ssdp.dp import (
    EPS_ACT,
    TerminalValue,
    bellman_update,
    check_terminal_admissible,
    policy_evaluation,
    sS_cycle_tables,
    solve_finite,
    solve_infinite,
    track_action_convergence,
)
from ssdp.model import ModelError, build_cost

from conftest import (
    CONFIGS,
    make_exponential,
    make_instance_a,
    oracle_action_convergence,
    oracle_average_cost,
    oracle_bellman,
    oracle_pair_value,
    oracle_policy_value,
    oracle_suffix_settle,
    reference_solve,
    reference_stage,
    small_models,
)


def test_bellman_matches_enumeration_from_zero(instance_a):
    v0 = np.zeros(instance_a.grid.n)
    vt, pt = bellman_update(instance_a, v0, 0.9)
    ov, oa = oracle_bellman(instance_a, v0, 0.9)
    assert np.max(np.abs(vt - ov)) <= 1e-12
    assert np.array_equal(pt.chosen, oa)
    i0 = instance_a.grid.index_of(0.0)
    i3 = instance_a.grid.index_of(-3.0)
    assert vt[i0] == pytest.approx(3.0, abs=1e-12) and pt.chosen[i0] == 0.0
    assert vt[i3] == pytest.approx(7.0, abs=1e-12) and pt.chosen[i3] == 4.0


def test_bellman_matches_enumeration_from_random_v(instance_a):
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 30, size=instance_a.grid.n)
    for alpha in (0.0, 0.5, 0.95):
        vt, pt = bellman_update(instance_a, v, alpha)
        ov, oa = oracle_bellman(instance_a, v, alpha)
        assert np.max(np.abs(vt - ov)) <= 1e-10
        assert np.array_equal(pt.chosen, oa)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
def test_action_sets_match_enumeration(instance_a, zero_stub, alpha):
    rng = np.random.default_rng(11)
    cases = [
        (instance_a, rng.uniform(0, 30, size=instance_a.grid.n)),
        (zero_stub, np.zeros(zero_stub.grid.n)),
    ]
    for model, v in cases:
        n, step = model.grid.n, model.grid.step
        _, pt = bellman_update(model, v, alpha)
        _, _, sets = oracle_bellman(model, v, alpha, eps_act=EPS_ACT)
        assert np.array_equal(pt.set_sizes(), sets.sum(axis=1))
        assert np.array_equal(pt.chosen, sets.argmax(axis=1) * step)
        # every (state, order) pair, including orders that leave the grid
        i, k = np.meshgrid(np.arange(n), np.arange(-1, n + 1), indexing="ij")
        expect = np.zeros(i.shape, dtype=bool)
        expect[:, 1 : n + 1] = sets
        assert np.array_equal(pt.contains(i, k), expect)
        actions = rng.integers(0, n, size=n) * step
        offered = np.arange(n) * step
        dist = [np.abs(offered[sets[r]] - actions[r]).min() for r in range(n)]
        assert np.array_equal(pt.distance(actions), dist)
        if model is zero_stub:  # every feasible action ties
            assert np.array_equal(sets.sum(axis=1), n - np.arange(n))


def test_bellman_zero_stub_all_actions_optimal(zero_stub):
    vt, pt = bellman_update(zero_stub, np.zeros(zero_stub.grid.n), 0.7)
    assert np.all(vt == 0.0)
    assert np.all(pt.chosen == 0.0)
    n = zero_stub.grid.n
    assert np.array_equal(pt.set_sizes(), n - np.arange(n))  # every feasible action ties


def test_bellman_rejects_bad_value_table(instance_a):
    n = instance_a.grid.n
    bad_values = [
        np.full(n, -1.0),
        np.where(np.arange(n) == 2, -1.0, 0.0),  # one negative state
        np.where(np.arange(n) == 2, np.inf, 0.0),
        np.where(np.arange(n) == 2, np.nan, 0.0),
        np.zeros(n - 1),  # wrong length
    ]
    for v in bad_values:
        with pytest.raises(ModelError, match="finite nonnegative value on every grid state"):
            bellman_update(instance_a, v, 0.9)
    with pytest.raises(ModelError):
        bellman_update(instance_a, np.zeros(n), 1.0)


# ------------------------------------------------------------- solve_finite


def test_solve_finite_horizon_zero_returns_terminal(instance_a):
    f = TerminalValue.zero(instance_a.grid)
    res = solve_finite(instance_a, 0, f, 0.9)
    assert len(res.values) == 1 and len(res.policies) == 0
    assert np.all(res.values[0] == 0.0)


def test_solve_finite_rejects_a_terminal_off_the_grid(instance_a):
    f = TerminalValue(values=np.zeros(instance_a.grid.n - 1))
    with pytest.raises(ModelError, match="terminal value shape does not match the grid"):
        solve_finite(instance_a, 3, f, 0.9)


def test_solve_finite_one_step(instance_a):
    res = solve_finite(instance_a, 1, TerminalValue.zero(instance_a.grid), 0.9)
    assert res.values[1, instance_a.grid.index_of(0.0)] == pytest.approx(3.0, abs=1e-12)


def test_solve_finite_monotone_in_t(instance_a):
    res = solve_finite(instance_a, 40, TerminalValue.zero(instance_a.grid), 0.9)
    assert res.values.shape == (41, instance_a.grid.n)
    assert np.all(np.diff(res.values, axis=0) >= -1e-12)


def test_stage_policy_index_reversal(instance_a):
    res = solve_finite(instance_a, 5, TerminalValue.zero(instance_a.grid), 0.9)
    assert res.stage_policy(0) is res.policies[4]  # first decision of a 5-horizon run
    assert res.stage_policy(4) is res.policies[0]


# ----------------------------------------------------------- solve_infinite


def test_solve_infinite_fixed_point_certificate(instance_a, solve_a_09):
    tv = bellman_update(instance_a, solve_a_09.value, 0.9)[0]
    assert np.max(np.abs(tv - solve_a_09.value)) <= 1e-8
    assert solve_a_09.residual <= 1e-8 * 0.1 / 1.8 + 1e-15


@pytest.mark.parametrize(
    "alpha, tol", [(0.5, 1e-8), (0.9, 1e-8), (0.99, 1e-8), (1.0 - 2.0**-12, 1e-7)]
)
def test_solve_infinite_matches_exact_policy_value(instance_a, alpha, tol):
    rep = solve_infinite(instance_a, alpha, tol=tol)
    v = rep.value
    v_pi = oracle_policy_value(instance_a, rep.policy.order_steps(), alpha)
    assert np.max(np.abs(v - v_pi)) <= tol / 2
    assert rep.certified_error_bound <= tol / 2
    tv = bellman_update(instance_a, v, alpha)[0]
    assert float(np.min(tv - v)) >= -1e-9  # the returned value is a lower bound
    assert rep.residual == float(np.max(np.abs(tv - v)))


def test_span_rule_certifies_zero_demand_chain(degenerate_model):
    # Zero demand never mixes, yet span(Tv - v) still shrinks by alpha per sweep.
    # Never ordering makes Tv - v proportional to h, so the MacQueen-Porteus
    # bracket is attained exactly at the top state and the oracle comparison
    # allows for rounding at the scale |v| / (1 - alpha).
    alpha, tol = 0.99, 1e-8
    rep = solve_infinite(degenerate_model, alpha, tol=tol)
    v = rep.value
    v_pi = oracle_policy_value(degenerate_model, rep.policy.order_steps(), alpha)
    rounding = np.finfo(float).eps * float(np.max(np.abs(v_pi))) / (1.0 - alpha)
    assert rep.certified_error_bound <= tol / 2
    assert np.max(np.abs(v - v_pi)) <= rep.certified_error_bound + rounding
    tv = bellman_update(degenerate_model, v, alpha)[0]
    assert float(np.min(tv - v)) >= -1e-9


def test_solve_infinite_alpha_zero_is_myopic(instance_a):
    rep = solve_infinite(instance_a, 0.0, tol=1e-10)
    cost = build_cost(instance_a)
    n = instance_a.grid.n
    myopic = np.array([cost(i, np.arange(n - i)).min() for i in range(n)])
    assert np.max(np.abs(rep.value - myopic)) <= 1e-12


def test_solve_infinite_zero_stub(zero_stub):
    rep = solve_infinite(zero_stub, 0.9, tol=1e-10)
    assert np.all(rep.value == 0.0)
    assert rep.iterations == 1


def test_monotone_iterates_bounded_by_v_alpha(instance_a, solve_a_09):
    res = solve_finite(instance_a, 80, TerminalValue.zero(instance_a.grid), 0.9)
    for vt in res.values:
        assert np.all(vt <= solve_a_09.value + 1e-8)


def test_contraction_factor(instance_a):
    v = np.zeros(instance_a.grid.n)
    prev_r = None
    for _ in range(60):
        nv = bellman_update(instance_a, v, 0.9)[0]
        r = float(np.max(np.abs(nv - v)))
        v = nv
        if prev_r is not None and prev_r > 1e-10:
            assert r <= 0.9 * prev_r + 1e-12
        prev_r = r


def test_iteration_cap_raises(instance_a, monkeypatch):
    monkeypatch.setattr(dp, "_iteration_cap", lambda alpha, tol: 5)
    with pytest.raises(ssdp.ConvergenceError):
        solve_infinite(instance_a, 0.9, tol=1e-10)


def test_tie_break_determinism(instance_a):
    a = solve_infinite(instance_a, 0.9, tol=1e-8)
    b = solve_infinite(instance_a, 0.9, tol=1e-8)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.policy.chosen, b.policy.chosen)
    assert np.array_equal(a.policy.set_sizes(), b.policy.set_sizes())
    assert np.array_equal(a.policy.g, b.policy.g) and np.array_equal(a.policy.m, b.policy.m)


def test_sandwich_with_admissible_terminal(instance_a, solve_a_09, zero_setup_a_09):
    f = zero_setup_a_09.terminal()
    res0 = solve_finite(instance_a, 60, TerminalValue.zero(instance_a.grid), 0.9)
    resf = solve_finite(instance_a, 60, f, 0.9)
    for t in range(61):
        lo = res0.values[t]
        mid = resf.values[t]
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= solve_a_09.value + 1e-8)


def test_terminal_equal_to_v_alpha_is_fixed(instance_a, solve_a_09):
    tv = bellman_update(instance_a, solve_a_09.value, 0.9)[0]
    assert np.max(np.abs(tv - solve_a_09.value)) <= 1e-8


# --------------------------------------------------------- policy evaluation


def test_policy_evaluation_zero_stub(zero_stub):
    v = policy_evaluation(zero_stub, np.zeros(zero_stub.grid.n), 0.9, tol=1e-10)
    assert np.all(v == 0.0)


def test_policy_evaluation_degenerate_closed_form(degenerate_model):
    m = degenerate_model
    never = np.zeros(m.grid.n)
    for alpha in (0.5, 0.9):
        pe = policy_evaluation(m, never, alpha, tol=1e-10)
        pos = m.grid.points >= 0
        expect = m.h(m.grid.points[pos]) / (1 - alpha)
        assert np.max(np.abs(pe[pos] - expect)) <= 1e-9


def test_policy_evaluation_of_extracted_policy(instance_a, solve_a_09):
    pe = policy_evaluation(instance_a, solve_a_09.policy, 0.9, tol=1e-8)
    assert np.max(np.abs(pe - solve_a_09.value)) <= 1e-6


# ------------------------------------------------------- terminal admissible


def test_admissible_zero_terminal(instance_a, solve_a_09):
    rep = check_terminal_admissible(
        TerminalValue.zero(instance_a.grid), instance_a, 0.9, solve_a_09.value
    )
    assert rep.f_le_v_alpha and rep.one_step_ge_f


def test_admissible_v_alpha_itself(instance_a, solve_a_09):
    f = TerminalValue(values=solve_a_09.value, id="user")
    rep = check_terminal_admissible(f, instance_a, 0.9, solve_a_09.value)
    assert rep.f_le_v_alpha and rep.one_step_ge_f
    assert abs(rep.max_excess_over_v) <= 1e-12  # equality in the first inequality


def test_admissible_fails_above_v_alpha(instance_a, solve_a_09):
    f = TerminalValue(values=solve_a_09.value + 1.0, id="user")
    rep = check_terminal_admissible(f, instance_a, 0.9, solve_a_09.value)
    assert not rep.f_le_v_alpha


# ------------------------------------------------ one-step bound on actions


def test_finite_horizon_actions_cost_at_most_v_alpha(instance_a, solve_a_09):
    # from a zero terminal v_t <= v_alpha, and the continuation is nonnegative, so
    # every eps-optimal action at a stage t >= 1 costs at most v_alpha(x) in one step
    res = solve_finite(instance_a, 50, TerminalValue.zero(instance_a.grid), 0.9)
    i, j = np.triu_indices(instance_a.grid.n)  # every feasible (state, order) pair
    within = instance_a.one_step_cost(i, j - i) <= solve_a_09.value[i] + 1e-9
    assert not within.all()  # the bound excludes some actions
    for t in range(1, 50):
        assert not np.any(res.policies[t].contains(i, j - i) & ~within), t


# -------------------------------------------------------- action convergence


def test_track_convergence_zero_stub(zero_stub):
    [rep] = track_action_convergence(
        zero_stub, 0.9, [TerminalValue.zero(zero_stub.grid)], t_max=5
    )
    assert np.all(rep.distances == 0.0)
    assert np.all(rep.settle_t == 1)


def test_track_convergence_requires_admissible_terminal(instance_a, solve_a_09):
    bad = TerminalValue(values=solve_a_09.value + 5.0, id="user")
    with pytest.raises(ModelError):
        track_action_convergence(instance_a, 0.9, [bad], t_max=5)


def test_track_convergence_instance_a(instance_a):
    [rep] = track_action_convergence(
        instance_a, 0.9, [TerminalValue.zero(instance_a.grid)], t_max=200
    )
    assert rep.all_settled
    assert int(rep.settle_t.max()) <= 200


@pytest.mark.parametrize("make", [make_instance_a, make_exponential])
def test_stage_blocks_match_the_per_stage_loop(make):
    model = make()
    terminals = (TerminalValue.zero(model.grid), solve_zero_setup(model, 0.9).terminal())
    # the budget counts the cells of the whole stack: all 200 stages of both terminals in
    # one block, the default, 3n cells (one stage of both, three of one alone) and 1 cell
    budgets = (400 * model.grid.n, dp.ACTION_BLOCK, 3 * model.grid.n, 1)
    for t_max in (1, 2, 200):
        expected = [oracle_action_convergence(model, 0.9, f, t_max) for f in terminals]
        for budget in budgets:
            for lo, hi in ((0, 2), (0, 1), (1, 2)):  # both in one stack, and each alone
                with mock.patch.object(dp, "ACTION_BLOCK", budget):
                    reps = track_action_convergence(model, 0.9, terminals[lo:hi], t_max=t_max)
                assert len(reps) == hi - lo
                for rep, want in zip(reps, expected[lo:hi]):
                    got = (rep.distances, rep.settle_t, rep.exact_settle_t)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t_max, budget)
                    assert np.array_equal(rep.unsettled, np.flatnonzero(want[1] < 0))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("config", ["instance_a", "exponential_demand", "degenerate_zero_demand"])
def test_stage_is_bitwise_the_textbook_stage(config, alpha):
    # the in-place stage (g_base, the in-place suffix minimum, the reused rows of
    # value iteration) gives the bits of the plainly written decomposition
    model = ssdp.load_model(CONFIGS / f"{config}.json")
    n, terminal = model.grid.n, TerminalValue.zero(model.grid)
    v = np.linspace(0.0, 3.0, n)
    tv, table = bellman_update(model, v, alpha)
    ref_v, ref_g, ref_m = reference_stage(model, v, alpha)
    for got, want in ((tv, ref_v), (table.g, ref_g), (table.m, ref_m)):
        assert got.tobytes() == want.tobytes()
    want = reference_solve(model, alpha, 1e-8)
    assert solve_infinite(model, alpha).value.tobytes() == want.tobytes()
    rows = [terminal.values]
    for _ in range(6):
        rows.append(reference_stage(model, rows[-1], alpha)[0])
    assert solve_finite(model, 6, terminal, alpha).values.tobytes() == np.array(rows).tobytes()
    # action convergence: reference sets from the reference solve at the tight tolerance,
    # chosen actions from the stages after v_1 = T F
    _, g, m = reference_stage(model, reference_solve(model, alpha, dp.ACTION_REF_TOL), alpha)
    ref_sets = ssdp.PolicyTable(grid=model.grid, g=g, m=m, K=model.K, eps=dp.EPS_ACT)
    v, chosen = rows[1], []
    for _ in range(5):
        v, g, m = reference_stage(model, v, alpha)
        chosen.append(ssdp.PolicyTable(grid=model.grid, g=g, m=m, K=model.K, eps=dp.EPS_ACT).chosen)
    [rep] = track_action_convergence(model, alpha, [terminal], t_max=5)
    assert rep.distances.tobytes() == ref_sets.distance(np.array(chosen)).tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_suffix_settle_matches_the_backward_loop(data):
    t_max, n = data.draw(st.integers(0, 12)), data.draw(st.integers(2, 8))
    cells = data.draw(st.lists(st.booleans(), min_size=t_max * n, max_size=t_max * n))
    cond = np.array(cells, dtype=bool).reshape(t_max, n)
    cond[:, 0], cond[:, 1] = True, False  # one column that always holds, one that never does
    got, want = dp._suffix_settle(cond), oracle_suffix_settle(cond)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_track_convergence_memory_at_1001_points():
    import tracemalloc

    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["grid"]["step"] = 0.03
    model = model_from_dict(cfg)
    assert model.grid.n == 1001
    model.kernel, model.eh  # built and cached before the measured call
    tracemalloc.start()
    try:
        [rep] = track_action_convergence(model, 0.9, [TerminalValue.zero(model.grid)], t_max=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.distances.shape == (200, 1001)
    assert peak <= 20e6, peak


# ---------------------------------------------------------------- (s,S) cycle tables


@given(model=small_models())
@settings(max_examples=40, deadline=None)
def test_cycle_tables_match_dense_pair_solves(model):
    n = model.grid.n
    xs = model.grid.points
    head = model.K + model.c_bar * xs
    for alpha in (0.5, 0.9, 0.99):
        beta, gamma, _ = sS_cycle_tables(model, alpha)
        for S in range(n):
            for s in range(S + 1):
                v = gamma[:, s] + beta[:, s] * (head[S] + gamma[S, s]) / (1.0 - beta[S, s])
                expect = oracle_pair_value(model, s, S, alpha)
                assert np.max(np.abs(v - expect)) <= 1e-10 * max(1.0, np.max(np.abs(expect)))
    _, gamma, N = sS_cycle_tables(model, 1.0)
    idx = np.arange(n)
    for S in range(1, n):
        for s in range(1, S + 1):
            w = (head[S] + gamma[S, s]) / N[S, s]
            expect = oracle_average_cost(model, np.where(idx < s, S - idx, 0))
            assert w == pytest.approx(expect, rel=1e-10, abs=1e-10)


@given(model=small_models(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cycle_table_columns_do_not_depend_on_the_range(model, data):
    # the streamed scans rely on this: a column solved alone, inside a block
    # and in the full range is bitwise the same
    n = model.grid.n
    for alpha in (0.5, 0.9, 0.99, 1.0):
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        s = data.draw(st.integers(lo, hi - 1))
        full = sS_cycle_tables(model, alpha)
        block = sS_cycle_tables(model, alpha, lo, hi)
        alone = sS_cycle_tables(model, alpha, s, s + 1)
        for f, b, a in zip(full, block, alone):
            assert b.shape == (n, hi - lo) and a.shape == (n, 1)
            assert f[:, lo:hi].tobytes() == b.tobytes()
            assert f[:, s].tobytes() == a[:, 0].tobytes()


def test_cycle_tables_boundary_and_discounted_length(instance_a):
    n = instance_a.grid.n
    below = np.triu(np.ones((n, n), dtype=bool), 1)  # [j, s] with j < s
    minus_x = np.broadcast_to(-instance_a.grid.points[:, None], (n, n))
    for alpha in (0.9, 1.0):
        beta, gamma, N = sS_cycle_tables(instance_a, alpha)
        assert np.all(beta[below] == 1.0) and np.all(N[below] == 0.0)
        assert np.all(gamma[below] == minus_x[below])
    # E alpha^tau = 1 - (1 - alpha) E sum_{t < tau} alpha^t for the cycle end tau
    beta, _, N = sS_cycle_tables(instance_a, 0.9)
    assert np.max(np.abs((1.0 - beta) - 0.1 * N)) <= 1e-12
    beta, gamma, N = sS_cycle_tables(instance_a, 1.0)
    assert np.all(beta[:, 0] == 0.0) and np.all(np.isinf(gamma[:, 0])) and np.all(np.isinf(N[:, 0]))
    assert np.allclose(beta[:, 1:], 1.0, rtol=0, atol=1e-12)  # every cycle ends
    with pytest.raises(ModelError):
        sS_cycle_tables(instance_a, 1.5)
