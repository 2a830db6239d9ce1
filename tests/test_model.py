import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssdp
from ssdp.model import (
    ContinuousDemand,
    EH_BUCKETS_CAP,
    DemandDistribution,
    Grid,
    InventoryModel,
    ModelError,
    PiecewiseLinear,
    PolicyTable,
    TRUNCATION_FLOOR,
    build_cost,
    build_kernel,
    discretize_demand,
)
from ssdp.dp import EPS_ACT
from ssdp.model import _expected_h_curve

from conftest import (
    CONFIGS,
    OPERATOR_MODELS,
    make_exponential,
    make_instance_a,
    make_zero_stub,
    mpmath_gamma_atoms,
    oracle_action_sets,
    oracle_cost,
    oracle_discretize,
    oracle_post_expectation,
    probability_tables,
)


# ------------------------------------------------------------------- grid


def test_grid_points_and_indexing():
    g = Grid(x_lo=-2.0, x_hi=2.0, step=0.5)
    assert g.n == 9
    assert g.index_of(-2.0) == 0 and g.index_of(1.5) == 7
    for x in (0.3, float("inf"), -float("inf"), float("nan")):  # round(inf) raises OverflowError
        with pytest.raises(ModelError, match="not a grid point"):
            g.index_of(x)


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


def test_piecewise_linear_extends_its_end_segments_bitwise():
    # the end-slope extension, applied in place, against the formula over the whole array
    h = PiecewiseLinear.from_breakpoints([[-1.3, 2.7], [0.1, 0.0], [0.9, 0.7], [2.2, 3.1]])
    x = np.concatenate((np.random.default_rng(4).uniform(-40.0, 40.0, 4983),
                        h.xs, np.nextafter(h.xs, -np.inf), np.nextafter(h.xs, np.inf),
                        [-1e300, 1e300, -np.inf, np.inf, np.nan]))
    want = np.interp(x, h.xs, h.ys)
    want = np.where(x < h.xs[0], h.ys[0] + (x - h.xs[0]) * h.slopes[0], want)
    want = np.where(x > h.xs[-1], h.ys[-1] + (x - h.xs[-1]) * h.slopes[-1], want)
    assert h(x).tobytes() == want.tobytes()
    assert h(x.reshape(50, -1)).tobytes() == want.tobytes()
    for v, w in zip(x[::41], want[::41]):  # scalars come back as floats
        assert isinstance(h(float(v)), float) and np.float64(h(float(v))).tobytes() == w.tobytes()
        assert np.float64(h(np.float64(v))).tobytes() == w.tobytes()


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


@st.composite
def eh_models(draw):
    """Models whose E h knots may sit as close as 1e-12 (past the bucket cap):
    two demand atoms that close give every E h knot a twin that close."""
    n_bp = draw(st.integers(3, 5))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n_bp - 1, max_size=n_bp - 1))
    xs = draw(st.floats(-3.0, 0.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    slopes = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_bp - 1, max_size=n_bp - 1)))
    slopes[0], slopes[-1] = min(slopes[0], -0.5), max(slopes[-1], 0.5)
    ys = np.concatenate(([0.0], np.cumsum(np.multiply(slopes, gaps))))
    n_atoms = draw(st.integers(1, 5))
    atom_gaps = draw(st.lists(st.one_of(st.floats(1e-12, 1e-9), st.floats(0.01, 3.0)),
                              min_size=n_atoms - 1, max_size=n_atoms - 1))
    values = draw(st.floats(0.0, 2.0)) + np.concatenate(([0.0], np.cumsum(atom_gaps)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms, max_size=n_atoms))
    demand = DemandDistribution.from_atoms(zip(values, np.divide(weights, sum(weights))))
    return InventoryModel(K=1.0, c_bar=1.0, h=PiecewiseLinear(xs, ys), demand=demand,
                          grid=Grid(-8.0, 8.0, 0.5))


@given(model=eh_models(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_expected_h_is_bitwise_the_interpolated_curve(model, data):
    # the bucket table against np.interp: on knots and their float neighbours,
    # beyond both ends, far out, infinite, and across more than one 8,192-point chunk
    knots = model.eh_curve.xs
    inside = data.draw(st.lists(st.floats(knots[0] - 5.0, knots[-1] + 5.0), max_size=40))
    x = np.concatenate((
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [knots[0] - 1.0, knots[-1] + 1.0, -1e6, 1e6, -np.inf, np.inf], inside,
    ))
    x = np.resize(x, (3, 3001))
    got, want = model.expected_h(x), model.eh_curve(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert model.expected_h(float(x[0, -1])) == model.eh_curve(float(x[0, -1]))


def test_expected_h_subnormal_knot_gap_is_unwarned():
    # atoms a subnormal apart put two E h knots 5e-324 apart: span / gap overflows
    # to inf, which the bucket count takes as the cap, with no numpy warning
    demand = DemandDistribution.from_atoms([(0.0, 0.5), (5e-324, 0.5)])
    model = InventoryModel(K=1.0, c_bar=1.0, h=make_instance_a().h, demand=demand,
                           grid=Grid(-8.0, 8.0, 0.5))
    knots = model.eh_curve.xs
    assert np.diff(knots).min() == 5e-324
    x = np.concatenate((knots, np.nextafter(knots, np.inf), model.grid.points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.expected_h(x)
    assert model._eh_table.n_buckets == EH_BUCKETS_CAP
    assert got.tobytes() == model.eh_curve(x).tobytes()


def test_expected_h_bucket_cap_on_close_knots():
    # atoms 1e-12 apart give E h knot gaps of 1e-12: the table stops at the
    # cap, and the points between twin knots take the searchsorted fallback
    demand = DemandDistribution.from_atoms([(1.0, 0.5), (1.0 + 1e-12, 0.5)])
    model = InventoryModel(K=1.0, c_bar=1.0, h=make_instance_a().h, demand=demand,
                           grid=Grid(-8.0, 8.0, 0.5))
    knots = model.eh_curve.xs
    assert np.diff(knots).min() < 2e-12
    assert model._eh_table.n_buckets == EH_BUCKETS_CAP
    x = np.concatenate((knots, knots[:-1] + 0.5 * np.diff(knots), model.grid.points))
    assert model.expected_h(x).tobytes() == model.eh_curve(x).tobytes()


# ------------------------------------------------------------------- cost


def test_cost_instance_a_values():
    m = make_instance_a()
    cost = build_cost(m)
    i0 = m.grid.index_of(0.0)
    assert cost(i0, 0) == pytest.approx(3.0, abs=1e-12)
    assert cost(i0, 1) == pytest.approx(4.0, abs=1e-12)


def test_cost_uses_unclamped_h_at_boundary():
    # transitions clamp at x_lo, but the one-step cost keeps the true h value
    m = make_instance_a()
    cost = build_cost(m)
    expect = 0.25 * m.h(-20.0) + 0.5 * m.h(-21.0) + 0.25 * m.h(-22.0)
    assert expect == 63.0  # 0.25*60 + 0.5*63 + 0.25*66, beyond the grid
    assert cost(0, 0) == pytest.approx(expect, abs=1e-12)


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
        assert np.all(cost(i, np.arange(m.grid.n - i)) == 0.0)


def test_cost_matches_oracle_everywhere():
    m = make_instance_a()
    cost = build_cost(m)
    for i in range(0, m.grid.n, 5):
        for k in range(0, m.grid.n - i, 7):
            expect = oracle_cost(m, float(m.grid.points[i]), k * m.grid.step)
            assert cost(i, k) == pytest.approx(expect, abs=1e-12)


@given(dk=st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_cost_monotone_in_K(dk):
    from dataclasses import replace

    m = make_instance_a()
    m2 = replace(m, K=m.K + dk)
    cost1, cost2 = build_cost(m), build_cost(m2)
    for i in range(m.grid.n):
        ks = np.arange(m.grid.n - i)
        r1, r2 = cost1(i, ks), cost2(i, ks)
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
    """A value table is a plain array now; bellman_update is where it is checked."""
    g = Grid(x_lo=0, x_hi=3, step=1.0)
    h = PiecewiseLinear.from_breakpoints([[0, 0], [1, 0]])
    demand = DemandDistribution.from_atoms([(0, 0.5), (1, 0.5)])
    model = InventoryModel(K=0.0, c_bar=0.0, h=h, demand=demand, grid=g)
    for values in (
        np.array([0.0, 1.0, np.inf, 2.0]),
        np.array([0.0, -1.0, 0.0, 0.0]),
        np.zeros(3),
    ):
        with pytest.raises(ModelError):
            ssdp.bellman_update(model, values, 0.9)


# ------------------------------------------------- eps-optimal action sets


@st.composite
def policy_tables(draw, T=None):
    """PolicyTables of a Bellman update, with g built from a few levels (0, 1, K,
    1 + K, 2) plus offsets around eps, so near-ties within eps are common.  With
    ``T``, a (T, n) stack of such updates on one grid, K and eps."""
    n = draw(st.integers(2, 40))
    step = draw(st.sampled_from([1.0, 0.25, 0.3, 1.0 / 3.0]))
    K = draw(st.sampled_from([0.0, draw(st.floats(0.01, 3.0))]))
    eps = draw(st.sampled_from([0.0, EPS_ACT, 1e-3]))
    levels = st.sampled_from([0.0, 1.0, K, 1.0 + K, 2.0])
    offsets = st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5, -1.0]).map(lambda f: f * eps)
    tiny = st.sampled_from([0.0, 1e-13, -1e-13])
    g = np.array(
        [
            [
                draw(st.one_of(st.floats(0.0, 3.0), levels.map(float))) + draw(offsets) + draw(tiny)
                for _ in range(n)
            ]
            for _ in range(T or 1)
        ]
    )
    later_min = np.array(
        [[row[i + 1 :].min() if i < n - 1 else np.inf for i in range(n)] for row in g]
    )
    if T is None:
        g, later_min = g[0], later_min[0]
    grid = Grid(x_lo=-(n // 2) * step, x_hi=(n - 1 - n // 2) * step, step=step)
    return PolicyTable(grid=grid, g=g, m=np.minimum(g, K + later_min), K=K, eps=eps)


@st.composite
def action_rows(draw, table):
    """Actions of shape (n,) or (T, n): grid orders (also negative and past the
    grid), off-grid values, and the table's own chosen orders."""
    n, step = table.grid.n, table.grid.step
    one = st.one_of(
        st.integers(-3, n + 3).map(lambda k: k * step),
        st.floats(-3.0 * step, (n + 3) * step),
        st.integers(0, n - 1).map(lambda i: float(table.chosen[i])),
        st.integers(-3, n + 3).map(lambda k: float(np.nextafter(k * step, np.inf))),
    )
    T = draw(st.sampled_from([None, 1, 3]))
    rows = [[draw(one) for _ in range(n)] for _ in range(T or 1)]
    return np.array(rows[0] if T is None else rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_policy_table_matches_dense_sets(data):
    table = data.draw(policy_tables())
    actions = data.draw(action_rows(table))
    chosen, sizes, dist = oracle_action_sets(table, actions)
    assert np.array_equal(table.chosen, chosen)
    assert np.array_equal(table.set_sizes(), sizes)
    assert np.array_equal(table.distance(actions), dist)
    if actions.ndim == 2:  # stacked rows answer as row by row
        assert np.array_equal(table.distance(actions), [table.distance(a) for a in actions])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stacked_policy_table_chooses_row_by_row(data):
    stack = data.draw(policy_tables(T=data.draw(st.integers(1, 6))))
    rows = [
        PolicyTable(grid=stack.grid, g=g, m=m, K=stack.K, eps=stack.eps)
        for g, m in zip(stack.g, stack.m)
    ]
    chosen = stack.chosen
    assert chosen.shape == stack.g.shape
    assert chosen.tobytes() == np.array([row.chosen for row in rows]).tobytes()
    assert np.array_equal(chosen, [oracle_action_sets(row, row.chosen)[0] for row in rows])


def test_policy_table_memory_is_below_n_squared():
    import tracemalloc

    grid = Grid(x_lo=-10.0, x_hi=10.0, step=0.01)
    assert grid.n == 2001
    g = (grid.points - 3.0) ** 2 + np.sin(7.0 * grid.points)
    later_min = np.append(np.minimum.accumulate(g[::-1])[::-1][1:], np.inf)
    table = PolicyTable(grid=grid, g=g, m=np.minimum(g, 1.0 + later_min), K=1.0, eps=EPS_ACT)
    actions = np.linspace(-1.0, 25.0, grid.n)
    tracemalloc.start()
    try:
        out = table.chosen, table.set_sizes(), table.distance(actions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n**2, f"peak {peak} bytes"
    assert np.all(np.isfinite(out[2])) and np.all(out[1] >= 1)


# ----------------------------------------------------------- demand draws


class _Levels:
    """A stand-in generator whose ``random`` hands out given levels in order, as a
    stream does across calls (a single level repeats), as a new array or into ``out``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, size=None, out=None):
        size = out.shape if out is not None else size
        if self.u.ndim == 0:
            levels = np.broadcast_to(self.u, size).copy()
        else:
            start, self.used = self.used, self.used + int(np.prod(size))
            levels = self.u[start : self.used].reshape(size)
        if out is None:
            return levels
        out[...] = levels
        return out


@pytest.mark.parametrize(
    "probs",
    [
        [1.0],
        [0.25] * 4,
        [0.25, 0.5, 0.25],
        [0.7, 1e-6, 0.1, 0.2 - 1e-6],
        [1 / 3] * 3,
        # a case of the earlier 4-per-atom guide: level 0.15 fell in bucket 3 of 20,
        # whose mark 0.15000000000000002 lies past the first atom
        [0.15, 0.2, 0.2, 0.2, 0.25],
        # 255 atoms: the sentinel 255 of a split bucket still fits the uint8 table
        list(range(1, 256)),
        # every CDF edge is a bucket edge (as in "equal", [0.25] * 4)
        [0.5, 0.25, 0.125, 0.0625, 0.0625],
    ],
    ids=["one-atom", "equal", "unequal", "tiny-atom", "thirds", "guide-overshoot", "255-atoms",
         "dyadic-edges"],
)
def test_sample_is_the_inverse_cdf(probs):
    probs = np.array(probs) / np.sum(probs)
    demand = DemandDistribution(values=np.arange(probs.size) * 1.5, probs=probs)
    m = 4 * probs.size  # the earlier guide's bucket count
    size = demand._guide[1].size  # the level table's, 2**k
    marks = np.concatenate((np.arange(m + 1) / m, np.linspace(0.0, 1.0, m + 1), np.cumsum(probs),
                            np.arange(size + 1) / size))
    u = np.concatenate(
        (np.random.default_rng(7).random(20_000), marks, np.nextafter(marks, 2.0),
         np.nextafter(marks, -1.0), [0.0, 1.0 - 2.0**-53])
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    atom = np.minimum(np.searchsorted(np.cumsum(probs), u, side="left"), probs.size - 1)
    assert np.array_equal(demand.sample(_Levels(u), u.size), demand.values[atom])


def test_sample_keeps_the_generator_stream():
    demand = make_instance_a().demand
    draws = demand.sample(np.random.default_rng(3), (40, 500))
    u = np.random.default_rng(3).random((40, 500))
    assert draws.shape == (40, 500)
    assert np.array_equal(draws, demand.values[np.searchsorted(np.cumsum(demand.probs), u)])


@pytest.mark.parametrize("size", [1, 8191, 8192, 8193, (3, 5000), (256, 4000)])
@pytest.mark.parametrize("make", [make_instance_a, make_exponential])
def test_sample_atoms_is_one_draw_of_the_stream(make, size):
    # levels are drawn 8,192 at a time, across chunk edges: the stream of one draw
    demand = make().demand
    atoms = demand.sample_atoms(np.random.default_rng(3), size)
    u = np.random.default_rng(3).random(size)
    want = np.searchsorted(demand._guide[0], u, "left") - 1
    assert atoms.dtype == np.min_scalar_type(demand.n_atoms - 1) and atoms.shape == u.shape
    assert np.array_equal(atoms, want)
    draws = demand.sample(np.random.default_rng(3), size)
    assert draws.tobytes() == demand.values.take(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(probs=probability_tables(), seed=st.integers(0, 2**32 - 1))
def test_sample_atoms_is_the_searchsorted_atom_on_random_tables(probs, seed):
    demand = DemandDistribution(values=np.arange(probs.size, dtype=float), probs=probs)
    edges = np.concatenate(([-np.inf], np.cumsum(probs)[:-1], [np.inf]))
    table = demand._guide[1]
    assert table.dtype == np.min_scalar_type(probs.size) and table.size >= 64 * probs.size
    u = np.random.default_rng(seed).random(20_000)
    atoms = demand.sample_atoms(np.random.default_rng(seed), u.size)
    assert np.array_equal(atoms, np.searchsorted(edges, u, "left") - 1)
    # the CDF edges, the bucket edges and their neighbours, as levels of a stream
    marks = np.concatenate((edges[1:-1], np.arange(table.size) / table.size))
    u = np.concatenate((marks, np.nextafter(marks, 2.0), np.nextafter(marks, -1.0)))
    u = u[(u >= 0.0) & (u < 1.0)]
    atoms = demand.sample_atoms(_Levels(u), u.size)
    assert np.array_equal(atoms, np.searchsorted(edges, u, "left") - 1)


def test_sample_clamps_a_level_past_the_probability_sum():
    # the sum may end up to 1e-12 below 1; a level above it takes the last atom
    demand = DemandDistribution(values=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5 - 1e-13]))
    assert np.cumsum(demand.probs)[-1] < 1.0 - 2.0**-53
    assert np.array_equal(demand.sample(_Levels(1.0 - 2.0**-53), 3), [1.0, 1.0, 1.0])


def test_sample_memory_stays_below_the_searchsorted_draw():
    import tracemalloc

    demand = ssdp.load_model(CONFIGS / "exponential_demand.json").demand
    cdf = np.cumsum(demand.probs)
    peaks = []
    for draw in (
        lambda rng: demand.values[np.searchsorted(cdf, rng.random(1_000_000), side="left")],
        lambda rng: demand.sample(rng, 1_000_000),
    ):
        tracemalloc.start()
        try:
            draws = draw(np.random.default_rng(5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert draws.size == 1_000_000
    assert peaks[1] < peaks[0], f"peaks {peaks} bytes"
