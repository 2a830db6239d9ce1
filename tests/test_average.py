import numpy as np
import pytest

import ssdp
from ssdp.average import (
    assumption_B_diagnostic,
    check_optimality_inequality,
    exact_average_cost,
    geometric_schedule,
    minimizer_set_diagnostic,
    optimal_average_cost,
    sweep,
)
from ssdp.model import DemandDistribution, Grid, InventoryModel, ModelError, PiecewiseLinear

from ssdp import dp
from ssdp.dp import policy_order_steps, solve_infinite
from ssdp.policy import SsPolicy, build_G, extract_sS

from conftest import (
    make_degenerate,
    make_exponential,
    make_instance_a,
    make_off_lattice,
    oracle_average_cost,
)


def test_geometric_schedule():
    sched = geometric_schedule(4)
    assert sched == [0.5, 0.75, 0.875, 0.9375]
    with pytest.raises(ModelError):
        geometric_schedule(0)


def test_sweep_rejects_bad_schedules(instance_a):
    with pytest.raises(ModelError):
        sweep(instance_a, [0.9, 0.5])
    with pytest.raises(ModelError):
        sweep(instance_a, [0.5, 1.0])


def test_sweep_zero_stub(zero_stub):
    sw = sweep(zero_stub, geometric_schedule(4), tol=1e-8)
    assert sw.w_estimate == 0.0
    assert all(r.m_alpha == 0.0 for r in sw.records)
    assert np.all(sw.records[-1].u == 0.0)
    bd = assumption_B_diagnostic(sw)
    assert bd.bounded
    hull = minimizer_set_diagnostic(sw)
    assert (hull.lo, hull.hi) == (zero_stub.grid.x_lo, zero_stub.grid.x_hi)
    assert not hull.interior_ok  # every state is a minimizer: hull spans the grid


def test_sweep_instance_a_records(sweep_a, instance_a):
    assert len(sweep_a.records) == 12
    assert not sweep_a.partial
    for r in sweep_a.records:
        assert np.all(r.u >= 0.0)
        assert np.any(r.u == 0.0)
        assert 0.0 <= r.w_point <= 5.5  # any concrete policy bounds the optimum
        assert (r.s, r.S) != (None, None)
    assert sweep_a.cauchy
    assert sweep_a.w_estimate <= 5.5


def test_assumption_b_bounded_on_instance_a(sweep_a):
    assert assumption_B_diagnostic(sweep_a).bounded


def test_assumption_b_flags_degenerate_growth():
    # zero demand, positive-only grid: u_alpha(x) = x / (1 - alpha) diverges
    grid = Grid(x_lo=0, x_hi=20, step=1.0, integer_mode=True)
    h = PiecewiseLinear.from_breakpoints([[0, 0], [20, 20]])
    d0 = DemandDistribution.from_atoms([(0.0, 1.0)])
    m = InventoryModel(K=2.0, c_bar=1.0, h=h, demand=d0, grid=grid)
    sw = sweep(m, geometric_schedule(8), tol=1e-6)
    last = sw.records[-1]
    expect = grid.points / (1 - last.alpha)
    assert np.max(np.abs(last.u - expect)) <= 1e-6 * 10
    bd = assumption_B_diagnostic(sw)
    assert not bd.bounded
    assert np.array_equal(bd.offending_states, grid.points[grid.points > 0])


def test_assumption_b_needs_three_points(instance_a):
    sw = sweep(instance_a, geometric_schedule(2), tol=1e-7)
    with pytest.raises(ModelError):
        assumption_B_diagnostic(sw)


def test_minimizer_hull_interior_on_wide_grid(sweep_a, instance_a):
    hull = minimizer_set_diagnostic(sweep_a)
    assert hull.interior_ok
    assert instance_a.grid.x_lo < hull.lo <= hull.hi < instance_a.grid.x_hi


def test_minimizer_hull_flags_tight_grid():
    grid = Grid(x_lo=-2, x_hi=2, step=1.0, integer_mode=True)
    h = PiecewiseLinear.from_breakpoints([[-1, 3], [0, 0], [1, 1]])
    demand = DemandDistribution.from_atoms([(0, 0.25), (1, 0.5), (2, 0.25)])
    m = InventoryModel(K=2.0, c_bar=1.0, h=h, demand=demand, grid=grid)
    sw = sweep(m, geometric_schedule(4), tol=1e-7)
    assert not minimizer_set_diagnostic(sw).interior_ok


def test_optimality_inequality_zero_stub(zero_stub):
    sw = sweep(zero_stub, geometric_schedule(3), tol=1e-8)
    rel = sw.relative_value()
    rep = check_optimality_inequality(zero_stub, np.zeros(zero_stub.grid.n), rel)
    assert np.all(rep.residuals == 0.0)
    assert rep.passes


def test_optimality_inequality_limit_policy(instance_a, sweep_a, average_a):
    rep = average_a.optimality
    assert rep.passes
    assert rep.max_interior <= rep.slack
    # boundary states are excluded from the verdict but reported
    assert rep.interior_mask.sum() < instance_a.grid.n


def test_optimality_inequality_never_order_fails(instance_a, sweep_a):
    rel = sweep_a.relative_value()
    rep = check_optimality_inequality(instance_a, np.zeros(instance_a.grid.n), rel)
    assert not rep.passes
    xs = instance_a.grid.points
    deep = rep.interior_mask & (xs <= -5)
    assert np.all(rep.residuals[deep] > rep.slack)


def test_h_average_function_satisfies_min_form_inequality(instance_a, sweep_a):
    # H(x) = c_bar x + E h(x-D) + E u(x-D); the minimum over ordering targets,
    # net of c_bar x, must stay below w + u(x) within the sweep slack
    from ssdp.policy import build_G

    rel = sweep_a.relative_value()
    vals = build_G(instance_a, rel.u, 1.0)
    xs = instance_a.grid.points
    suffix = np.minimum.accumulate(vals[::-1])[::-1]
    min_form = np.minimum(vals, instance_a.K + np.concatenate((suffix[1:], [np.inf])))
    resid = min_form - instance_a.c_bar * xs - rel.w - rel.u
    d_max = instance_a.demand.max_value
    interior = (xs >= instance_a.grid.x_lo + d_max) & (xs <= instance_a.grid.x_hi - d_max)
    assert float(resid[interior].max()) <= rel.default_slack


def test_sweep_bellman_sweep_count(sweep_a):
    # 208,773 sweeps when value iteration stopped on the sup-norm residual alone
    assert sum(r.iterations for r in sweep_a.records) <= 1000


def test_sweep_builds_one_kernel(monkeypatch):
    import ssdp.model
    import ssdp.policy

    calls = []
    real = ssdp.model.build_kernel
    monkeypatch.setattr(ssdp.model, "build_kernel", lambda m: calls.append(1) or real(m))
    # count operator builds at every module that binds the name, not only the model's
    builds = []
    real_op = ssdp.model.post_expectation_matrix
    for mod in (ssdp.model, ssdp.policy):
        if hasattr(mod, "post_expectation_matrix"):
            monkeypatch.setattr(
                mod, "post_expectation_matrix", lambda *a, **k: builds.append(1) or real_op(*a, **k)
            )
    sweep(make_instance_a(), geometric_schedule(12), tol=1e-7)
    assert len(calls) == 1
    assert len(builds) == 1


def test_partial_sweep_on_iteration_cap(instance_a, monkeypatch):
    # the factors above 0.95 reach a cap of 5 sweeps inside the stack; the schedule is
    # truncated at the first of them, after the four that converged
    real = dp._iteration_cap
    monkeypatch.setattr(dp, "_iteration_cap", lambda a, tol: 5 if a > 0.95 else real(a, tol))
    sw = sweep(instance_a, geometric_schedule(6), tol=1e-7)
    assert sw.partial
    assert len(sw.records) == 4
    assert any("truncated" in w for w in sw.warnings)
    cut = [w for w in sw.warnings if "truncated" in w]
    assert len(cut) == 1 and cut[0].startswith("alpha=0.96875: solver iteration cap hit")


@pytest.mark.parametrize("make", [make_instance_a, make_off_lattice, make_exponential])
def test_sweep_stack_matches_per_factor_solves(make):
    # the factors advance as one Bellman stack; each record is bitwise its own solve
    model = make()
    sched, tol = [0.0, 0.3, 0.62, 0.9, 0.97, 0.995], 1e-7
    sw = sweep(model, sched, tol=tol)
    assert sw.alphas == sched and not sw.partial
    pairs = 0
    for rec, alpha in zip(sw.records, sched):
        rep = solve_infinite(model, alpha, tol=tol)
        m = rep.value.min()
        assert rec.m_alpha == m and np.array_equal(rec.u, rep.value - m)
        assert rec.iterations == rep.iterations
        if rec.s is not None:
            ss = extract_sS(model.grid, build_G(model, rep.value, alpha, tol=tol), model.K)
            assert (rec.s, rec.S) == (ss.s, ss.S)
            pairs += 1
    assert pairs >= 4


@pytest.mark.parametrize(
    "make, pair",
    [
        (make_instance_a, (1.0, 2.0)),
        (make_instance_a, (-3.0, 4.0)),
        (make_exponential, (0.25, 2.0)),
        (make_off_lattice, (-0.5, 1.5)),
        (make_off_lattice, (-3.5, 3.0)),
    ],
)
def test_exact_average_cost_matches_stationary_distribution(make, pair):
    model = make()
    pol = SsPolicy(*pair)
    expect = oracle_average_cost(model, policy_order_steps(model, pol))
    assert exact_average_cost(model, pol) == pytest.approx(expect, rel=0, abs=1e-12)


def test_exact_average_cost_pinned_values():
    # the sweep's limit pairs on the two shipped configs
    assert exact_average_cost(make_instance_a(), SsPolicy(1.0, 2.0)) == pytest.approx(2.9, abs=1e-12)
    w = exact_average_cost(make_exponential(), SsPolicy(0.25, 2.0))
    assert w == pytest.approx(2.98233208194, abs=1e-10)


def test_exact_average_cost_needs_an_ordering_chain(instance_a):
    with pytest.raises(ModelError, match="never orders"):
        exact_average_cost(instance_a, SsPolicy(instance_a.grid.x_lo, 2.0))
    with pytest.raises(ModelError, match="P\\(D > 0\\)"):
        exact_average_cost(make_degenerate(), SsPolicy(0.0, 2.0))


@pytest.mark.parametrize(
    "make, w_star, pair",
    [(make_instance_a, 2.9, (1.0, 2.0)), (make_exponential, 2.98233208194, (0.25, 2.0))],
)
def test_optimal_average_cost_is_the_sweep_limit(make, w_star, pair):
    model = make()
    w, best = optimal_average_cost(model)
    assert best == pair
    assert w == pytest.approx(w_star, abs=1e-10)
    sw = sweep(model, geometric_schedule(12), tol=1e-7)
    assert ssdp.average_sS(model, sweep_result=sw).policy.pair() == best
    assert abs(sw.w_estimate - w) <= sw.relative_value().default_slack


def test_optimal_average_cost_is_the_minimum_over_pairs(instance_a):
    w, best = optimal_average_cost(instance_a)
    xs = instance_a.grid.points
    costs = {
        (xs[s], xs[S]): exact_average_cost(instance_a, SsPolicy(xs[s], xs[S]))
        for S in range(1, instance_a.grid.n)
        for s in range(1, S + 1)
    }
    assert w == pytest.approx(min(costs.values()), rel=0, abs=1e-12)
    assert costs[best] == pytest.approx(w, rel=0, abs=1e-12)


def test_optimal_average_cost_needs_positive_demand():
    with pytest.raises(ModelError, match="P\\(D > 0\\)"):
        optimal_average_cost(make_degenerate())
