import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssdp
from ssdp.model import (
    ContinuousDemand,
    DemandDistribution,
    Grid,
    InventoryModel,
    ModelError,
    PiecewiseLinear,
    TRUNCATION_FLOOR,
    build_cost,
    build_kernel,
    discretize_demand,
)
from ssdp.model import _expected_h_curve

from conftest import (
    OPERATOR_MODELS,
    make_instance_a,
    make_zero_stub,
    mpmath_gamma_atoms,
    oracle_cost,
    oracle_discretize,
    oracle_post_expectation,
)


# ------------------------------------------------------------------- grid


def test_grid_points_and_indexing():
    g = Grid(x_lo=-2.0, x_hi=2.0, step=0.5)
    assert g.n == 9
    assert g.index_of(-2.0) == 0 and g.index_of(1.5) == 7
    with pytest.raises(ModelError):
        g.index_of(0.3)


def test_grid_rejects_bad_spans():
    with pytest.raises(ModelError):
        Grid(x_lo=0.0, x_hi=1.0, step=0.3)
    with pytest.raises(ModelError):
        Grid(x_lo=1.0, x_hi=0.0, step=1.0)
    with pytest.raises(ModelError):
        Grid(x_lo=0.0, x_hi=1.0, step=-1.0)


def test_integer_mode_constraints():
    Grid(x_lo=-3, x_hi=3, step=1.0, integer_mode=True)
    with pytest.raises(ModelError):
        Grid(x_lo=-3, x_hi=3, step=0.5, integer_mode=True)
    with pytest.raises(ModelError):
        Grid(x_lo=-2.5, x_hi=3.5, step=1.0, integer_mode=True)


# ------------------------------------------------------------------ demand


def test_demand_normalizes_and_merges():
    d = DemandDistribution.from_atoms([(2, 0.25), (0, 0.5), (2, 0.25), (1, 0.0)])
    assert list(d.values) == [0.0, 2.0]
    assert np.allclose(d.probs, [0.5, 0.5])
    assert d.truncation_mass == 1.0
    assert d.mean == 1.0 and d.max_value == 2.0 and d.p_positive == 0.5


def test_demand_rejects_negative_values_and_mass_deficit():
    with pytest.raises(ModelError):
        DemandDistribution.from_atoms([(-1, 0.5), (1, 0.5)])
    with pytest.raises(ModelError):
        DemandDistribution.from_atoms([(0, 0.4), (1, 0.4)])  # mass 0.8


def test_discretize_point_mass_collapses():
    d = discretize_demand(ContinuousDemand("point", {"value": 0.0}), 16)
    assert d.n_atoms == 1 and d.values[0] == 0.0 and d.probs[0] == 1.0


def test_discretize_uniform_two_bins():
    d = discretize_demand(ContinuousDemand("uniform", {"low": 0.0, "high": 2.0}), 2)
    assert d.n_atoms == 2
    assert abs(d.values[0] - 0.5) < 1e-6 and abs(d.values[1] - 1.5) < 1e-6
    assert np.allclose(d.probs, [0.5, 0.5])


def test_discretize_exponential_mean_preserved():
    d = discretize_demand(ContinuousDemand("exponential", {"mean": 1.0}), 64)
    assert abs(d.mean - 1.0) < 1e-3  # coarse bound
    assert abs(d.mean - 1.0) / 1.0 < 1e-6  # binning preserves the mean exactly
    assert d.truncation_mass >= 1 - 1e-8 - 1e-12


def test_discretize_rejects_negative_support():
    with pytest.raises(ModelError):
        discretize_demand(ContinuousDemand("normal", {"mean": 1.0, "std": 1.0}), 8)


def _truncated_mean(family, p):
    """E[D | D <= q] at the truncation quantile q = 1 - 1e-8, in closed form."""
    from scipy.special import gammainc, gammaincinv

    q = TRUNCATION_FLOOR
    if family == "uniform":
        return p["low"] + 0.5 * q * (p["high"] - p["low"])
    if family == "exponential":
        b = -p["mean"] * math.log1p(-q)
        return p["mean"] - b * (1.0 - q) / q
    z = gammaincinv(p["shape"], q)
    return p["shape"] * p["scale"] * gammainc(p["shape"] + 1.0, z) / q


positive = st.floats(min_value=1e-3, max_value=1e3)
continuous_specs = st.one_of(
    st.builds(lambda m: ("exponential", {"mean": m}), positive),
    st.builds(
        lambda lo, w: ("uniform", {"low": lo, "high": lo + w}),
        st.floats(min_value=0.0, max_value=1e3),
        positive,
    ),
    # quadrature is accurate to 1e-12 only where the gamma density is smooth at 0
    st.builds(
        lambda k, s: ("gamma", {"shape": k, "scale": s}),
        st.one_of(st.sampled_from([1.0, 2.0]), st.floats(min_value=3.0, max_value=60.0)),
        st.floats(min_value=1e-2, max_value=1e2),
    ),
)


@given(spec=continuous_specs, n=st.integers(min_value=2, max_value=128))
@settings(max_examples=20, deadline=None)
def test_discretize_matches_quadrature_oracle(spec, n):
    family, params = spec
    d = discretize_demand(ContinuousDemand(family, params), n)
    ref = oracle_discretize(family, params, n)
    assert d.n_atoms == ref.n_atoms
    np.testing.assert_allclose(d.values, ref.values, rtol=1e-12, atol=0.0)
    assert d.truncation_mass == ref.truncation_mass
    assert d.mean == pytest.approx(_truncated_mean(family, params), rel=1e-12)


@pytest.mark.parametrize("shape", [0.3, 0.7, 1.3, 1.5])
def test_discretize_gamma_matches_mpmath_where_quadrature_is_coarse(shape):
    # the quadrature oracle is 2.5e-9 off at shape 0.7 and 1e-10 at 1.3
    params = {"shape": shape, "scale": 1.3}
    d = discretize_demand(ContinuousDemand("gamma", params), 32)
    np.testing.assert_allclose(d.values, mpmath_gamma_atoms(shape, 1.3, 32), rtol=1e-12, atol=0.0)
    assert d.mean == pytest.approx(_truncated_mean("gamma", params), rel=1e-12)


@pytest.mark.parametrize(
    "family, params, field",
    [
        ("exponential", {"mu": 1}, "params.mean"),
        ("exponential", {"mean": 1, "extra": 3}, "params.extra"),
        ("exponential", {"mean": "nan"}, "params.mean"),
        ("exponential", {"mean": float("nan")}, "params.mean"),
        ("exponential", {"mean": True}, "params.mean"),
        ("exponential", {"mean": -1}, "params.mean"),
        ("exponential", {"mean": 0}, "params.mean"),
        ("gamma", {"shape": 0, "scale": 1}, "params.shape"),
        ("gamma", {"shape": 2, "scale": float("inf")}, "params.scale"),
        ("uniform", {"low": 2, "high": 1}, "params.high"),
        ("uniform", {"low": -1, "high": 1}, "params.low"),
        ("point", {"value": -0.5}, "params.value"),
        ("normal", {"mean": 1, "std": 1}, "family"),
        ("lognormal", {"mean": 1}, "family"),
    ],
)
def test_continuous_demand_rejects_bad_params_naming_the_field(family, params, field):
    with pytest.raises(ModelError, match=f"demand.continuous.{field}"):
        ContinuousDemand(family, params)


@pytest.mark.parametrize("n_atoms", [1, 0, "x", 2.0, True, None])
def test_discretize_rejects_bad_n_atoms(n_atoms):
    with pytest.raises(ModelError, match="demand.continuous.n_atoms"):
        discretize_demand(ContinuousDemand("exponential", {"mean": 1}), n_atoms)


# --------------------------------------------------------------- h / model


def test_h_normalization_shift():
    # user curve with minimum 2 at x = 3; model recentres it
    h = PiecewiseLinear.from_breakpoints([[1, 4], [3, 2], [5, 6]])
    grid = Grid(x_lo=-4, x_hi=4, step=1.0)
    demand = DemandDistribution.from_atoms([(0, 0.5), (1, 0.5)])
    m = InventoryModel(K=1.0, c_bar=0.5, h=h, demand=demand, grid=grid)
    assert m.h_shift == (3.0, 2.0)
    assert m.h(0.0) == 0.0
    assert float(m.h(grid.points).min()) == 0.0


def test_nonconvex_h_rejected():
    h = PiecewiseLinear.from_breakpoints([[-1, 1], [0, 0], [1, 2], [2, 1]])
    grid = Grid(x_lo=-3, x_hi=3, step=1.0)
    demand = DemandDistribution.from_atoms([(1, 1.0)])
    with pytest.raises(ModelError):
        InventoryModel(K=1.0, c_bar=1.0, h=h, demand=demand, grid=grid)


def test_one_sided_h_allowed_when_anchored():
    # linear holding cost on a nonnegative grid with zero demand
    h = PiecewiseLinear.from_breakpoints([[0, 0], [20, 20]])
    grid = Grid(x_lo=0, x_hi=20, step=1.0, integer_mode=True)
    demand = DemandDistribution.from_atoms([(0.0, 1.0)])
    m = InventoryModel(K=2.0, c_bar=1.0, h=h, demand=demand, grid=grid)
    assert m.h_shift == (0.0, 0.0)


def test_one_sided_h_rejected_when_region_goes_negative():
    h = PiecewiseLinear.from_breakpoints([[0, 0], [20, 20]])
    grid = Grid(x_lo=0, x_hi=20, step=1.0, integer_mode=True)
    demand = DemandDistribution.from_atoms([(0.0, 0.5), (2.0, 0.5)])  # probes h(-2) < 0
    with pytest.raises(ModelError):
        InventoryModel(K=2.0, c_bar=1.0, h=h, demand=demand, grid=grid)


# -------------------------------------------------------------- E h curve


@st.composite
def eh_cases(draw, case):
    """A convex piecewise-linear h and a demand table for one E h case.

    ``coincident_knots``: integer breakpoints and atoms, so shifted knots
    h.xs + d coincide; ``point_mass``: a single atom; ``two_breakpoints``:
    h is one line segment, extended both ways.
    """
    n_bp = 2 if case == "two_breakpoints" else draw(st.integers(3, 6))
    if case == "coincident_knots":
        xs = sorted(draw(st.lists(st.integers(-6, 6), min_size=n_bp, max_size=n_bp, unique=True)))
        values = draw(st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True))
    else:
        gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=n_bp - 1, max_size=n_bp - 1))
        xs = draw(st.floats(-6.0, 6.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
        n_atoms = 1 if case == "point_mass" else draw(st.integers(1, 6))
        values = draw(
            st.lists(st.floats(0.0, 8.0), min_size=n_atoms, max_size=n_atoms, unique=True)
        )
    slopes = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=n_bp - 1, max_size=n_bp - 1)))
    ys = draw(st.floats(0.0, 1e6)) + np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    demand = DemandDistribution.from_atoms([(v, w / total) for v, w in zip(values, weights)])
    return PiecewiseLinear(xs, ys), demand


@pytest.mark.parametrize("case", ["coincident_knots", "point_mass", "two_breakpoints"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_expected_h_curve_matches_atom_sum(case, data):
    h, demand = data.draw(eh_cases(case))
    curve = _expected_h_curve(h, demand)
    lo = h.xs[0] + demand.values[0]
    hi = h.xs[-1] + demand.values[-1]
    far = data.draw(st.floats(10.0, 1e6))
    inside = data.draw(st.lists(st.floats(lo - 3.0, hi + 3.0), min_size=1, max_size=8))
    y = np.array([lo - far, hi + far, *inside])
    ref = sum(p * h(y - d) for d, p in zip(demand.values, demand.probs))
    assert np.all(np.abs(curve(y) - ref) <= 1e-12 * (1.0 + np.abs(ref)))


# ------------------------------------------------------------------- cost


def test_cost_instance_a_values():
    m = make_instance_a()
    cost = build_cost(m)
    i0 = m.grid.index_of(0.0)
    assert cost.value(i0, 0) == pytest.approx(3.0, abs=1e-12)
    assert cost.value(i0, 1) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ModelError):
        cost.value(m.grid.n - 1, 1)  # would leave the grid


def test_cost_uses_unclamped_h_at_boundary():
    # transitions clamp at x_lo, but the one-step cost keeps the true h value
    m = make_instance_a()
    cost = build_cost(m)
    expect = 0.25 * m.h(-20.0) + 0.5 * m.h(-21.0) + 0.25 * m.h(-22.0)
    assert expect == 63.0  # 0.25*60 + 0.5*63 + 0.25*66, beyond the grid
    assert cost.value(0, 0) == pytest.approx(expect, abs=1e-12)


def test_h_flags_soft_diagnostics():
    healthy = make_instance_a()
    assert healthy.h_flags == {
        "positive_on_negatives": True,
        "coercive_left": True,
        "coercive_right": True,
    }
    stub = make_zero_stub()
    assert not stub.h_flags["positive_on_negatives"]
    assert not stub.h_flags["coercive_left"]


def test_cost_zero_stub_is_zero():
    m = make_zero_stub()
    cost = build_cost(m)
    for i in range(m.grid.n):
        assert np.all(cost.feasible_row(i) == 0.0)


def test_cost_matches_oracle_everywhere():
    m = make_instance_a()
    cost = build_cost(m)
    for i in range(0, m.grid.n, 5):
        for k in range(0, m.grid.n - i, 7):
            expect = oracle_cost(m, float(m.grid.points[i]), k * m.grid.step)
            assert cost.value(i, k) == pytest.approx(expect, abs=1e-12)


@given(dk=st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_cost_monotone_in_K(dk):
    from dataclasses import replace

    m = make_instance_a()
    m2 = replace(m, K=m.K + dk)
    cost1, cost2 = build_cost(m), build_cost(m2)
    for i in range(m.grid.n):
        r1, r2 = cost1.feasible_row(i), cost2.feasible_row(i)
        assert np.all(np.abs(r2[1:] - r1[1:] - dk) <= 1e-12)
        assert r2[0] == r1[0]


# ------------------------------------------------------------------ kernel

convex_pwl = st.builds(
    lambda slopes, y0: PiecewiseLinear(
        np.arange(-4.0, 5.0), y0 + np.concatenate(([0.0], np.cumsum(sorted(slopes))))
    ),
    st.lists(st.floats(-5, 5), min_size=8, max_size=8),
    st.floats(0, 3),
)

atom_lists = st.lists(
    st.tuples(st.integers(0, 4), st.floats(0.05, 1.0)), min_size=1, max_size=4
).map(lambda raw: [(v, w) for v, w in {v: w for v, w in raw}.items()])


def _normalized(atoms):
    total = sum(w for _, w in atoms)
    return [(v, w / total) for v, w in atoms]


@given(atoms=atom_lists)
@settings(max_examples=30, deadline=None)
def test_kernel_rows_sum_to_one(atoms):
    grid = Grid(x_lo=-6, x_hi=6, step=1.0, integer_mode=True)
    h = PiecewiseLinear.from_breakpoints([[-1, 2], [0, 0], [1, 1]])
    demand = DemandDistribution.from_atoms(_normalized(atoms))
    m = InventoryModel(K=1.0, c_bar=1.0, h=h, demand=demand, grid=grid)
    kern = build_kernel(m)
    assert np.all(np.abs(kern.matrix.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(kern.matrix.data >= 0)


def test_kernel_clamp_counter():
    m = make_instance_a()
    kern = build_kernel(m)
    # post states x_lo - 1 and x_lo - 2 fall below the grid: 3 (state, atom) pairs
    assert kern.clamp_events == 3
    row = kern.matrix.toarray()[0]
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert row[0] == 1.0  # every atom clamps to x_lo
    # below[j] = sum_d p_d min(pos_jd, 0): rows 0 and 1 reach below the grid
    assert kern.below[0] == pytest.approx(0.5 * -1 + 0.25 * -2)
    assert kern.below[1] == pytest.approx(0.25 * -1)
    assert np.all(kern.below[2:] == 0.0)


def test_offgrid_demand_splits_mass():
    grid = Grid(x_lo=-3, x_hi=3, step=1.0)
    h = PiecewiseLinear.from_breakpoints([[-1, 2], [0, 0], [1, 1]])
    demand = DemandDistribution.from_atoms([(0.5, 1.0)])
    m = InventoryModel(K=1.0, c_bar=1.0, h=h, demand=demand, grid=grid)
    kern = build_kernel(m)
    j = m.grid.index_of(0.0)
    row = kern.matrix.toarray()[j]
    # next state -0.5 splits evenly between -1 and 0
    assert row[m.grid.index_of(-1.0)] == pytest.approx(0.5)
    assert row[j] == pytest.approx(0.5)


@pytest.mark.parametrize("name", OPERATOR_MODELS)
def test_kernel_matches_dense_reference(name):
    m = OPERATOR_MODELS[name]()
    W_ref, flagged = oracle_post_expectation(m, extrapolate=False)
    assert np.array_equal(m.kernel.matrix.toarray(), W_ref)
    assert m.kernel.matrix.nnz <= 2 * m.demand.n_atoms * m.grid.n
    assert m.kernel.clamp_events == flagged


def test_cached_kernel_dies_with_model():
    # the kernel holds no reference back to its model, so no collector is needed
    gc.disable()
    try:
        m = make_instance_a()
        ssdp.solve_infinite(m, 0.9, tol=1e-8)
        kernel = weakref.ref(m.kernel)
        del m
        assert kernel() is None
    finally:
        gc.enable()


# -------------------------------------------------------------- config


def test_load_model_with_continuous_demand():
    from pathlib import Path

    import ssdp

    cfg = Path(__file__).resolve().parents[1] / "configs" / "exponential_demand.json"
    m = ssdp.load_model(cfg)
    assert m.demand.source == "discretized-continuous"
    assert m.demand.n_atoms == 32
    assert abs(m.demand.mean - 1.0) < 1e-6
    assert m.grid.step == 0.25


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("cost", "K", math.nan, "K"),
        ("cost", "c_bar", math.nan, "c_bar"),
        ("cost", "K", math.inf, "K"),
        ("demand", "atoms", [[0, 0.5], [math.inf, 0.5]], "demand atom"),
        ("demand", "atoms", [[0, 0.5], [1, math.nan], [2, 0.5]], "demand atom"),
        ("cost", "h", {"breakpoints": [[-1, math.inf], [0, 0], [1, 1]]}, "h must have finite"),
        ("grid", "x_hi", math.inf, "x_hi"),
        ("grid", "x_lo", -math.inf, "x_lo"),
        ("grid", "step", math.inf, "step"),
    ],
)
def test_config_rejects_non_finite_inputs(section, key, value, field):
    cfg = {
        "grid": {"x_lo": -20, "x_hi": 20, "step": 1, "integer_mode": True},
        "cost": {"K": 2.0, "c_bar": 1.0, "h": {"breakpoints": [[-1, 3], [0, 0], [1, 1]]}},
        "demand": {"atoms": [[0, 0.25], [1, 0.5], [2, 0.25]]},
    }
    cfg[section][key] = value
    with pytest.raises(ModelError, match=field):
        ssdp.model_from_dict(cfg)


def test_piecewise_linear_rejects_non_finite_breakpoints():
    with pytest.raises(ModelError, match="finite"):
        PiecewiseLinear([0, 1], [0, math.nan])
    with pytest.raises(ModelError, match="finite"):
        PiecewiseLinear([0, math.inf], [0, 1])


def test_config_rejects_both_demand_forms(tmp_path):
    import json

    import ssdp

    cfg = tmp_path / "both.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_lo": -2, "x_hi": 2, "step": 1},
                "cost": {"K": 1, "c_bar": 1, "h": {"breakpoints": [[-1, 1], [0, 0], [1, 1]]}},
                "demand": {
                    "atoms": [[0, 1.0]],
                    "continuous": {"family": "exponential", "params": {"mean": 1}},
                },
            }
        )
    )
    with pytest.raises(ModelError):
        ssdp.load_model(cfg)


# -------------------------------------------------------------- tables


def test_value_table_validation():
    g = Grid(x_lo=0, x_hi=3, step=1.0)
    with pytest.raises(ModelError):
        ssdp.ValueTable(grid=g, values=np.array([0.0, 1.0, np.inf, 2.0]))
    with pytest.raises(ModelError):
        ssdp.ValueTable(grid=g, values=np.array([0.0, -1.0, 0.0, 0.0]))
    with pytest.raises(ModelError):
        ssdp.ValueTable(grid=g, values=np.zeros(3))
