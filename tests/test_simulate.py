import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssdp import simulate
from ssdp.average import exact_average_cost
from ssdp.dp import policy_order_steps
from ssdp.model import ModelError
from ssdp.policy import SsPolicy
from ssdp.simulate import SimConfig, simulate_average

from conftest import make_exponential, make_instance_a, make_off_lattice, oracle_grid_chain

NEVER_ORDER = SsPolicy(s=-math.inf, S=0.0)  # x < -inf holds at no state


def test_zero_stub_costs_nothing(zero_stub):
    cfg = SimConfig(x0=0.0, horizon=1500, n_paths=16, seed=1, policy=NEVER_ORDER)
    rep = simulate_average(zero_stub, cfg)
    assert rep.mean == 0.0 and rep.std_error == 0.0


def test_single_step_cost_is_deterministic(instance_a):
    # one step: the expected-cost formulation makes the draw irrelevant
    cfg = SimConfig(x0=0.0, horizon=1, n_paths=8, seed=2, policy=NEVER_ORDER)
    totals, _ = simulate._run_paths(instance_a, cfg, simulate._atom_matrix(instance_a, cfg))
    assert totals[0] == pytest.approx(3.0, abs=1e-12)
    assert np.all(totals == totals[0])


def test_degenerate_average_closed_form(degenerate_model):
    pol = SsPolicy(s=0.0, S=0.0)
    for x0, expect in ((3.0, float(degenerate_model.h(3.0))), (-4.0, 0.0), (0.0, 0.0)):
        cfg = SimConfig(x0=x0, horizon=2000, n_paths=4, seed=5, policy=pol)
        rep = simulate_average(degenerate_model, cfg)
        assert rep.mean == pytest.approx(expect, abs=1e-12)
        assert rep.burn_in_used == 200


def test_order_up_to_zero_long_run_average(instance_a):
    cfg = SimConfig(x0=0.0, horizon=4000, n_paths=200, seed=17, policy=SsPolicy(s=0.0, S=0.0))
    rep = simulate_average(instance_a, cfg)
    assert abs(rep.mean - 5.5) <= 3 * rep.std_error


def test_average_requires_long_horizon(instance_a):
    with pytest.raises(ModelError):
        simulate_average(
            instance_a, SimConfig(x0=0.0, horizon=500, n_paths=4, seed=1, policy=NEVER_ORDER)
        )


def test_ss_step_invariants_tracked(instance_a):
    pol = SsPolicy(s=1.0, S=2.0)
    cfg = SimConfig(x0=-6.0, horizon=1200, n_paths=32, seed=23, policy=pol)
    rep = simulate_average(instance_a, cfg)
    assert rep.ss_invariant_ok is True
    assert rep.policy_id == "sS(s=1.0,S=2.0)"


def test_crn_determinism(instance_a):
    cfg = SimConfig(x0=0.0, horizon=1000, n_paths=64, seed=31, policy=SsPolicy(s=0.0, S=0.0))
    a = simulate_average(instance_a, cfg)
    b = simulate_average(instance_a, cfg)
    assert a.mean == b.mean and a.std_error == b.std_error
    assert np.array_equal(a.path_stats, b.path_stats)


@pytest.mark.parametrize("x0", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_x0_rejected(x0):
    with pytest.raises(ModelError, match="x0 must be finite"):
        SimConfig(x0=x0, horizon=1000, n_paths=2, seed=1, policy=SsPolicy(s=0.0, S=1.0))


def test_unknown_policy_rejected(instance_a):
    with pytest.raises(ModelError, match="policy must be an SsPolicy"):
        simulate_average(
            instance_a, SimConfig(x0=0, horizon=1000, n_paths=2, seed=1, policy="mystery")
        )


def _stepwise_costs(model, cfg, demands):
    """Reference: the continuous chain with every cost evaluated step by step
    from the demand values (paths x steps), E h by ``np.interp`` on its curve."""
    s, S = cfg.policy.pair()
    x = np.full(demands.shape[0], float(cfg.x0))
    costs = np.empty(demands.shape)
    for t in range(demands.shape[1]):
        a = np.where(x < s, S - x, 0.0)
        post = x + a
        costs[:, t] = model.order_cost(a) + model.eh_curve(post)
        x = post - demands[:, t]
    return costs


def _blocked_totals(costs, burn):
    """``_run_paths``' totals from an oracle cost matrix, in its documented order:
    per block of ``BLOCK`` steps, the kept steps (t >= burn) are added up step by
    step, and that sum is added to the total."""
    total = np.zeros(costs.shape[0])
    for t0 in range(0, costs.shape[1], simulate.BLOCK):
        kept = range(max(t0, burn), min(t0 + simulate.BLOCK, costs.shape[1]))
        if kept:
            total += functools.reduce(np.add, (costs[:, t] for t in kept))
    return total


@functools.cache
def _chain_model(name):
    return {"instance_a": make_instance_a, "off_lattice": make_off_lattice,
            "exponential": make_exponential}[name]()


@pytest.mark.parametrize(
    "policy",
    [SsPolicy(s=1.0, S=2.0), SsPolicy(s=0.5, S=0.5), pytest.param(NEVER_ORDER, id="never_order")],
)
def test_blocked_costs_equal_stepwise(policy):
    # the exponential atoms differ from their indices, so atom indices read
    # as demand values would show there (on instance_a atom k is demand k)
    # one path and two paths too: a sum over one path's steps is not pairwise either
    for model, n_paths in itertools.product(
        (_chain_model("instance_a"), _chain_model("exponential")), (1, 2, 5)
    ):
        # a horizon that is not a whole number of blocks
        cfg = SimConfig(x0=-3.0, horizon=simulate.BLOCK * 2 + 37, n_paths=n_paths, seed=3,
                        policy=policy)
        atoms = simulate._atom_matrix(model, cfg)
        ref = _stepwise_costs(model, cfg, model.demand.values[atoms])
        # burn 300 starts inside the second block
        for burn in (0, 300):
            totals, _ = simulate._run_paths(model, cfg, atoms, burn)
            want = _blocked_totals(ref, burn)
            assert np.array_equal(totals, want), (model.demand.source, n_paths, burn)


def _chain_case(name, kind, level_at, s_at):
    """A model and an (s,S) policy whose levels are grid points; order-up-to has s = S."""
    model = _chain_model(name)
    point = lambda at: float(model.grid.points[int(at * (model.grid.n - 1))])  # noqa: E731
    s = point(level_at) if kind == "order_up_to" else point(level_at * s_at)
    return model, SsPolicy(s=s, S=point(level_at))


# horizons of up to four blocks, so up to four segments of 1 to 6 paths step side by
# side; with no warm-up a segment starts at x0 on its boundary, and the segments
# that miss the exact path are rerun from the first boundary
CHAIN_CASES = dict(
    name=st.sampled_from(["instance_a", "off_lattice", "exponential"]),
    kind=st.sampled_from(["sS", "order_up_to"]),
    x0_at=st.floats(0.0, 1.0),
    level_at=st.floats(0.0, 1.0),
    s_at=st.floats(0.0, 1.0),
    horizon=st.integers(1, 3 * simulate.BLOCK + 40),
    burn_at=st.floats(0.0, 1.0, exclude_max=True),
    n_paths=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    warmup=st.sampled_from([simulate.WARMUP, 0]),
)


@given(**CHAIN_CASES)
@example(name="exponential", kind="sS", x0_at=0.3, level_at=0.6, s_at=0.7,
         horizon=3 * simulate.BLOCK + 40, burn_at=0.1, n_paths=6, seed=3, warmup=0)
@settings(max_examples=60, deadline=None)
def test_continuous_chain_equals_stepwise_oracle(
    name, kind, x0_at, level_at, s_at, horizon, burn_at, n_paths, seed, warmup
):
    model, policy = _chain_case(name, kind, level_at, s_at)
    g = model.grid
    x0 = g.x_lo - 2.0 + x0_at * (g.x_hi - g.x_lo + 4.0)  # any state, on the grid or not
    cfg = SimConfig(x0=x0, horizon=horizon, n_paths=n_paths, seed=seed, policy=policy)
    atoms = simulate._atom_matrix(model, cfg)
    burn = int(burn_at * horizon)
    with mock.patch.object(simulate, "WARMUP", warmup):
        totals, _ = simulate._run_paths(model, cfg, atoms, burn)
    ref = _stepwise_costs(model, cfg, model.demand.values[atoms])
    assert np.array_equal(totals, _blocked_totals(ref, burn))


@given(**CHAIN_CASES)
# off_lattice's largest atom reaches below x_lo from every post-order state under -1.25
@example(name="off_lattice", kind="order_up_to", x0_at=0.5, level_at=0.2, s_at=0.0,
         horizon=3 * simulate.BLOCK - 1, burn_at=0.5, n_paths=3, seed=2, warmup=0)
@settings(max_examples=60, deadline=None)
def test_grid_chain_equals_stepwise_oracle(
    name, kind, x0_at, level_at, s_at, horizon, burn_at, n_paths, seed, warmup
):
    model, policy = _chain_case(name, kind, level_at, s_at)
    g = model.grid
    x0 = float(g.points[int(x0_at * (g.n - 1))])
    cfg = SimConfig(x0=x0, horizon=horizon, n_paths=n_paths, seed=seed, policy=policy)
    atoms = simulate._atom_matrix(model, cfg)
    burn = int(burn_at * horizon)
    s, S = policy.pair()  # the orders at the grid points, as steps
    steps = policy_order_steps(model, np.where(g.points < s, S - g.points, 0.0))
    with mock.patch.object(simulate, "WARMUP", warmup):
        got = simulate._run_grid_chain(model, cfg, atoms, burn)
    ref = oracle_grid_chain(model, cfg, steps, model.demand.values[atoms], burn, simulate.BLOCK)
    assert np.array_equal(got, ref)


def _spy_segments(monkeypatch):
    """Record each ``_drive`` call's chain and first step, and each chain's segment count."""
    drive, starts, segments = simulate._drive, [], []

    def spy(chain, atoms, burn, t0=0, start=None):
        starts.append((type(chain).__name__, t0))
        return drive(chain, atoms, burn, t0, start)

    monkeypatch.setattr(simulate, "_drive", spy)
    for cls in (simulate._Paths, simulate._GridPaths):
        def begin(self, lanes, rows, times, begin=cls.begin):
            segments.append(len(times))
            return begin(self, lanes, rows, times)

        monkeypatch.setattr(cls, "begin", begin)
    return starts, segments


@pytest.mark.parametrize("policy", [SsPolicy(s=0.25, S=2.0)])
def test_sweep_segments_meet_within_the_warm_up(policy, monkeypatch):
    # the sweep's check at seed 3: every speculative segment start meets the exact
    # path within WARMUP steps, so no segment is rerun
    starts, segments = _spy_segments(monkeypatch)
    cfg = SimConfig(x0=2.0, horizon=4000, n_paths=256, seed=3, policy=policy)
    assert simulate_average(make_exponential(), cfg).grid_chain is not None
    assert starts == [("_Paths", 0), ("_GridPaths", 0)]
    assert segments == [8, 8]


def test_segments_that_miss_are_rerun_to_the_same_result(monkeypatch):
    # with no warm-up every segment starts at x0 on its boundary and misses the
    # exact path, so both chains rerun from the first boundary (8 segments of two
    # blocks), and the means are bitwise those of the run whose segments meet
    model = make_exponential()
    cfg = SimConfig(x0=2.0, horizon=4000, n_paths=256, seed=3, policy=SsPolicy(s=0.25, S=2.0))
    want = simulate_average(model, cfg)
    starts, _ = _spy_segments(monkeypatch)
    monkeypatch.setattr(simulate, "WARMUP", 0)
    got = simulate_average(model, cfg)
    rerun = 2 * simulate.BLOCK
    assert starts == [("_Paths", 0), ("_Paths", rerun), ("_GridPaths", 0), ("_GridPaths", rerun)]
    assert np.array_equal(got.path_stats, want.path_stats)
    assert np.array_equal(got.grid_chain.path_stats, want.grid_chain.path_stats)


def test_grid_chain_equals_continuous_chain_on_lattice(instance_a):
    # integer atoms on an integer grid and no clamping: the chains coincide
    cfg = SimConfig(x0=2.0, horizon=1200, n_paths=16, seed=11, policy=SsPolicy(s=1.0, S=2.0))
    rep = simulate_average(instance_a, cfg)
    assert rep.grid_chain.criterion == "average_grid_chain"
    assert rep.grid_chain.burn_in_used == rep.burn_in_used == 120
    np.testing.assert_allclose(rep.grid_chain.path_stats, rep.path_stats, rtol=1e-13)


def test_grid_chain_mean_matches_exact_average_cost():
    model = make_exponential()
    pol = SsPolicy(s=0.25, S=2.0)
    cfg = SimConfig(x0=2.0, horizon=4000, n_paths=256, seed=5, policy=pol)
    grid = simulate_average(model, cfg).grid_chain
    w = exact_average_cost(model, pol)
    assert abs(grid.mean - w) <= 3 * grid.std_error, (grid.mean, w, grid.std_error)


def test_grid_chain_only_on_lattice_policies(instance_a):
    on = SimConfig(x0=0.0, horizon=1000, n_paths=4, seed=1, policy=SsPolicy(s=1.0, S=1.0))
    assert simulate_average(instance_a, on).grid_chain is not None
    for x0, pol in ((0.0, SsPolicy(s=0.5, S=0.5)), (0.5, SsPolicy(s=1.0, S=1.0))):
        cfg = SimConfig(x0=x0, horizon=1000, n_paths=4, seed=1, policy=pol)
        assert simulate_average(instance_a, cfg).grid_chain is None


def test_simulate_average_memory_does_not_grow_with_the_horizon():
    # the sweep's check, warm: only the 1-byte atom matrix grows with the horizon,
    # so 36,000 more steps of 256 paths add about one byte per path-step
    import tracemalloc

    model = make_exponential()
    pol = SsPolicy(s=0.25, S=2.0)
    simulate_average(model, SimConfig(x0=2.0, horizon=1000, n_paths=4, seed=1, policy=pol))
    peaks = {}
    for horizon in (4000, 40_000):
        cfg = SimConfig(x0=2.0, horizon=horizon, n_paths=256, seed=3, policy=pol)
        tracemalloc.start()
        try:
            rep = simulate_average(model, cfg)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.grid_chain is not None
    assert peaks[4000] <= 6 * 2**20, f"peaks {peaks} bytes"
    assert peaks[40_000] - peaks[4000] <= 1.25 * 256 * 36_000, f"peaks {peaks} bytes"
