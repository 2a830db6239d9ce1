import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ssdp.model import DemandDistribution, ModelError
from ssdp.renewal import (
    MAX_PATHS,
    _mean_and_sd,
    overshoot_bound_check,
    sample_renewal,
    wald_check,
)

from conftest import (
    make_exponential,
    make_instance_a,
    probability_tables,
    reference_sample_renewal,
)


def d_point(v=1.0):
    return DemandDistribution.from_atoms([(v, 1.0)])


def test_deterministic_renewal_exact():
    s = sample_renewal(d_point(1.0), y=5.0, n_paths=200, seed=3)
    assert np.all(s.counts == 5)
    assert np.all(s.first_passage == 6.0)
    assert np.all(s.first_passage - 5.0 == 1.0)


def test_negative_y_empty_interval():
    s = sample_renewal(d_point(2.0), y=-1.0, n_paths=50, seed=3)
    assert np.all(s.counts == 0)
    assert np.all(s.first_passage == 2.0)


def test_degenerate_demand_rejected():
    with pytest.raises(ModelError, match="degenerate"):
        sample_renewal(d_point(0.0), y=1.0, n_paths=10, seed=0)


def test_geometric_count_at_zero(instance_a):
    # N(0) counts leading zero demands: mean p0/(1-p0) = 1/3
    s = sample_renewal(instance_a.demand, y=0.0, n_paths=50_000, seed=11)
    se = s.counts.std(ddof=1) / np.sqrt(s.n_paths)
    assert abs(s.mean_count - 1.0 / 3.0) <= 3 * se


def test_reproducible_bit_for_bit(instance_a):
    a = sample_renewal(instance_a.demand, y=7.0, n_paths=2000, seed=42)
    b = sample_renewal(instance_a.demand, y=7.0, n_paths=2000, seed=42)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.first_passage, b.first_passage)
    c = sample_renewal(instance_a.demand, y=7.0, n_paths=2000, seed=43)
    assert not np.array_equal(a.first_passage, c.first_passage)


@given(y=st.floats(-1.0, 12.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_path_invariants(y, seed):
    m = make_instance_a()
    s = sample_renewal(m.demand, y=y, n_paths=64, seed=seed)
    assert np.all(s.first_passage > y)
    assert np.all(s.first_passage - y > 0)
    if y >= 0:
        # partial sum before the passage never exceeded y
        assert np.all(s.first_passage - (s.first_passage - y) <= y + 1e-12)


@given(
    probs=probability_tables(max_atoms=40),
    gaps=st.lists(st.floats(0.05, 3.0), min_size=40, max_size=40),
    zero_atom=st.booleans(),
    y=st.sampled_from([-1.0, 0.0, 0.7, 10.0]),
    n_paths=st.sampled_from([1, 2, 8193]),
    seed=st.integers(0, 2**32 - 1),
)
# tiny atoms split level buckets; an atom at 0 with most of the mass; a sum below 1
@example(probs=np.array([0.5, 1e-12, 0.5 - 1e-12]), gaps=[0.5] * 40, zero_atom=True, y=10.0,
         n_paths=8193, seed=3)
@example(probs=np.array([0.9, 0.1]) * (1.0 - 1e-13), gaps=[2.5] * 40, zero_atom=True, y=0.0,
         n_paths=8193, seed=1)
@settings(max_examples=60, deadline=None)
def test_sample_equals_the_reference_sampler(probs, gaps, zero_atom, y, n_paths, seed):
    # the chunked, in-place sampler against the one it replaced, to the bit
    values = np.cumsum(gaps[: probs.size]) - (gaps[0] if zero_atom else 0.0)
    demand = DemandDistribution(values=values, probs=probs)
    assume(demand.p_positive > 0.0 and (y + 1.0) / demand.mean * n_paths <= 400_000)
    s = sample_renewal(demand, y, n_paths, seed)
    counts, passage = reference_sample_renewal(demand, y, n_paths, seed)
    assert s.counts.tobytes() == counts.tobytes()
    assert s.first_passage.tobytes() == passage.tobytes()


def test_sample_memory_per_path():
    # ids and sums are compacted in place: about 33 bytes a path at 100,000 paths
    # (the sampler that compacted by fresh arrays peaked at 57.5)
    demand = make_exponential().demand
    sample_renewal(demand, 10.0, 10, 0)  # the demand's level tables, made once
    tracemalloc.start()
    try:
        s = sample_renewal(demand, 10.0, 100_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.counts.sum() + s.n_paths == 1_097_850
    assert peak < 52 * 100_000, f"peak {peak} bytes"


@pytest.mark.parametrize("n_paths", [0, MAX_PATHS + 1, 10**12])
def test_path_count_outside_its_range_is_rejected(n_paths):
    with pytest.raises(ModelError, match=r"n_paths \(--paths\)"):
        sample_renewal(d_point(1.0), y=1.0, n_paths=n_paths, seed=0)


@given(n=st.integers(1, 3000), scale=st.sampled_from([1e-3, 1.0, 1e6]),
       shift=st.sampled_from([0.0, 7.5, -1e4]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mean_and_sd_are_numpys_bitwise(n, scale, shift, seed):
    x = np.random.default_rng(seed).standard_exponential(n) * scale + shift
    want = (x.mean(), x.std(ddof=1) if n > 1 else 0.0)
    got = _mean_and_sd(x.copy())
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ----------------------------------------------------------------- wald


def test_wald_exact_deterministic():
    s = sample_renewal(d_point(1.0), y=5.0, n_paths=100, seed=1)
    rep = wald_check(s, d_point(1.0))
    assert rep.lhs == 6.0 and rep.rhs == 6.0
    assert rep.z == 0.0 and rep.passes


def test_wald_monte_carlo(instance_a):
    s = sample_renewal(instance_a.demand, y=10.0, n_paths=100_000, seed=7)
    rep = wald_check(s, instance_a.demand)
    assert rep.z is not None and abs(rep.z) <= 4.0


def test_wald_single_path_inconclusive(instance_a):
    s = sample_renewal(instance_a.demand, y=3.0, n_paths=1, seed=5)
    rep = wald_check(s, instance_a.demand)
    assert rep.z is None and not rep.passes


# -------------------------------------------------------------- overshoot


def test_overshoot_deterministic_case(instance_a):
    m = instance_a
    d1 = d_point(1.0)
    from dataclasses import replace

    m1 = replace(m, demand=d1)
    rep = overshoot_bound_check(m1, x=0.0, y=2.0, n_paths=500, seed=9)
    # every path: N(2) = 2, S_3 = 3, so lhs = h(-3) exactly and rhs = 3 h(-3)
    assert rep.lhs == pytest.approx(float(m.h(-3.0)), abs=1e-12)
    assert rep.rhs == pytest.approx(3.0 * float(m.h(-3.0)), abs=1e-12)
    assert rep.passes


def test_overshoot_monte_carlo_at_origin(instance_a):
    rep = overshoot_bound_check(instance_a, x=0.0, y=0.0, n_paths=100_000, seed=13)
    assert rep.passes
    assert rep.lhs > 0.0  # overshoot costs something


def test_overshoot_vanishes_for_large_x(instance_a):
    rep = overshoot_bound_check(instance_a, x=1e6, y=2.0, n_paths=200, seed=3)
    assert rep.lhs == 0.0
    assert rep.passes


def test_overshoot_requires_nonnegative_y(instance_a):
    with pytest.raises(ModelError):
        overshoot_bound_check(instance_a, x=0.0, y=-1.0, n_paths=10, seed=0)
