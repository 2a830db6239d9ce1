"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import ssdp
from ssdp import average
from ssdp.dp import TerminalValue, track_action_convergence
from ssdp.policy import G_CONSISTENCY_TOL, build_G, discounted_sS, finite_horizon_sS, is_K_convex
from ssdp.model import Grid
from ssdp.simulate import SimConfig, simulate_average

from conftest import oracle_bellman, oracle_pair_value

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_bellman_oracle(instance_a):
    v0 = np.zeros(instance_a.grid.n)
    vt, pt = ssdp.bellman_update(instance_a, v0, 0.9)
    ov, oa = oracle_bellman(instance_a, v0, 0.9)
    i0, i3 = instance_a.grid.index_of(0.0), instance_a.grid.index_of(-3.0)
    assert abs(vt[i0] - 3.0) <= 1e-12 and pt.chosen[i0] == 0.0
    assert abs(vt[i3] - 7.0) <= 1e-12 and pt.chosen[i3] == 4.0
    assert abs(ov[i0] - 3.0) <= 1e-12 and oa[i0] == 0.0
    assert abs(ov[i3] - 7.0) <= 1e-12 and oa[i3] == 4.0
    assert np.max(np.abs(vt - ov)) <= 1e-12
    report(1, "v1(0)=3.0 at a=0 and v1(-3)=7.0 at a=4, matching enumeration to 1e-12")


def test_criterion_02_fixed_point_consistency(instance_a):
    tol = 1e-8
    for alpha in (0.5, 0.9, 0.99):
        rep = ssdp.solve_infinite(instance_a, alpha, tol=tol)
        tv = ssdp.bellman_update(instance_a, rep.value, alpha)[0]
        residual = float(np.max(np.abs(tv - rep.value)))
        assert residual <= tol, f"alpha={alpha}: fixed-point residual {residual}"
        pe = ssdp.policy_evaluation(instance_a, rep.policy, alpha, tol=tol)
        gap = float(np.max(np.abs(pe - rep.value)))
        assert gap <= 10 * tol, f"alpha={alpha}: policy-evaluation gap {gap}"
    report(2, "optimality-equation residual <= tol and policy-evaluation gap <= 10 tol "
              "at alpha in {0.5, 0.9, 0.99}")


def test_criterion_03_brute_force_pairs(instance_a, discounted_a_09):
    pol = discounted_a_09.policy
    s_idx = instance_a.grid.index_of(pol.s)
    S_idx = instance_a.grid.index_of(pol.S)
    extracted = oracle_pair_value(instance_a, s_idx, S_idx, 0.9)
    worst = -np.inf
    n = instance_a.grid.n
    for S_i in range(n):
        for s_i in range(S_i + 1):
            v = oracle_pair_value(instance_a, s_i, S_i, 0.9)
            worst = max(worst, float(np.max(extracted - v)))
    assert worst <= 1e-6, f"a pair beats the extracted thresholds by {worst}"
    report(3, f"no (s,S) pair beats the extracted {pol.pair()} by more than 1e-6 "
              f"(worst gap {worst:.2e})")


def test_criterion_04_monotone_and_sandwich(instance_a, solve_a_09, zero_setup_a_09):
    alpha, tol, horizon = 0.9, 1e-8, 60
    fin0 = ssdp.solve_finite(instance_a, horizon, TerminalValue.zero(instance_a.grid), alpha)
    stack0 = fin0.values
    assert np.all(np.diff(stack0, axis=0) >= -1e-12), "v_t not monotone in t"
    finF = ssdp.solve_finite(instance_a, horizon, zero_setup_a_09.terminal(), alpha)
    stackF = finF.values
    assert np.all(stack0 <= stackF + 1e-12), "v_t,0 above v_t,F"
    assert np.all(stackF <= solve_a_09.value[None, :] + tol), "v_t,F above v_alpha + tol"
    g_alpha = build_G(instance_a, solve_a_09.value, alpha, check_tol=G_CONSISTENCY_TOL)
    prev = zero_setup_a_09.g0
    for t in range(30):
        g_t = build_G(instance_a, finF.values[t], alpha)
        assert np.all(prev <= g_t + 1e-12), f"G chain broken at t={t}"
        prev = g_t
    assert np.all(prev <= g_alpha + tol), "G chain top violated"
    report(4, "value monotonicity, terminal sandwich, and G-chain ordering hold gridwise")


def test_criterion_05_k_convexity_certificates(instance_a):
    for alpha in (0.9, 0.99):
        rep = ssdp.solve_infinite(instance_a, alpha, tol=1e-8)
        zs = ssdp.solve_zero_setup(instance_a, alpha, tol=1e-8)
        g_alpha = build_G(instance_a, rep.value, alpha, check_tol=G_CONSISTENCY_TOL)
        cert = is_K_convex(instance_a.grid, g_alpha, instance_a.K)
        assert cert.verdict, f"G_alpha not K-convex at {alpha}"
        fin = ssdp.solve_finite(instance_a, 25, zs.terminal(), alpha)
        for t in range(25):
            g_t = build_G(instance_a, fin.values[t], alpha)
            cert = is_K_convex(instance_a.grid, g_t, instance_a.K)
            assert cert.verdict, f"stage G not K-convex at t={t}"
    grid = Grid(x_lo=-8, x_hi=8, step=1.0)
    K = instance_a.K
    verdict = is_K_convex(grid, np.where(grid.points < 0, K + 1.0, 0.0), K)
    assert not verdict.verdict and verdict.worst_triple is not None
    report(5, "G_alpha and all stage G functions certified K-convex at alpha in {0.9, 0.99}; "
              f"step-down of height K+1 rejected at triple {verdict.worst_triple}")


def test_criterion_06_base_stock_degeneration(instance_a):
    m0 = replace(instance_a, K=0.0)
    fin = finite_horizon_sS(m0, 0.9, 8, tol=1e-8)
    assert all(p is not None and p.s == p.S for p in fin.policies), "finite horizon s != S"
    res = discounted_sS(m0, 0.9, tol=1e-8)
    assert res.policy.s == res.policy.S, "infinite horizon s != S"
    report(6, "K=0 collapses every threshold pair to s = S (base stock)")


def test_criterion_07_vanishing_discount_limit(instance_a, sweep_a, average_a):
    w_points = np.array([r.w_point for r in sweep_a.records])
    rel = np.abs(np.diff(w_points)[-2:]) / abs(w_points[-1])
    assert np.all(rel < 0.01), f"not Cauchy: relative diffs {rel}"
    assert sweep_a.cauchy
    assert sweep_a.w_estimate <= 5.5, f"w_estimate {sweep_a.w_estimate} above the 5.5 benchmark"
    cfg = SimConfig(x0=0.0, horizon=4000, n_paths=256, seed=20240811, policy=average_a.policy)
    sim = simulate_average(instance_a, cfg)
    gap = abs(sim.mean - sweep_a.w_estimate)
    assert gap <= 3 * sim.std_error, f"sim {sim.mean} vs w {sweep_a.w_estimate} (3se={3*sim.std_error})"
    report(7, f"(1-a)m_a Cauchy, w_estimate {sweep_a.w_estimate:.4f} <= 5.5, "
              f"simulated average within 3 SE (gap {gap:.4f})")


def test_criterion_08_optimality_inequality(instance_a, sweep_a, average_a):
    oi = average_a.optimality
    assert oi.passes, f"limit policy residual {oi.max_interior} > slack {oi.slack}"
    rel = sweep_a.relative_value()
    never = average.check_optimality_inequality(
        instance_a, np.zeros(instance_a.grid.n), rel
    )
    xs = instance_a.grid.points
    deep = never.interior_mask & (xs <= -5.0)
    assert np.all(never.residuals[deep] > never.slack), "never-order passed at deep backlog"
    report(8, f"limiting policy residual {oi.max_interior:.4f} <= slack {oi.slack:.4f}; "
              "never-order fails at every interior x <= -5")


def test_criterion_09_degenerate_demand(degenerate_model, sweep_degenerate):
    m = degenerate_model
    res = ssdp.average_sS(m)
    assert res.degenerate and res.policy.pair() == (0.0, 0.0), "missing (0,0) short-circuit"
    last = sweep_degenerate.records[-1]
    pos = m.grid.points >= 0
    v_last = last.u + last.m_alpha
    expect = m.h(m.grid.points[pos]) / (1.0 - last.alpha)
    gap = float(np.max(np.abs(v_last[pos] - expect)))
    assert gap <= sweep_degenerate.tol, f"v != h/(1-alpha) on x>=0 (gap {gap})"
    pairs = [(r.s, r.S) for r in sweep_degenerate.records]
    assert all(p == (0.0, 0.0) for p in pairs[-3:]), f"thresholds do not settle at 0: {pairs[-3:]}"
    bd = average.assumption_B_diagnostic(sweep_degenerate)
    assert not bd.bounded
    assert np.all(bd.offending_states > 0)
    report(9, "(0,0) policy, v = h/(1-a) on x >= 0 within solver tolerance, thresholds -> 0, "
              "and the relative values flagged as unbounded")


def test_criterion_10_renewal_diagnostics(instance_a):
    from ssdp.renewal import overshoot_bound_check, sample_renewal, wald_check

    sample = sample_renewal(instance_a.demand, y=10.0, n_paths=100_000, seed=20240809)
    wald = wald_check(sample, instance_a.demand)
    assert wald.z is not None and abs(wald.z) <= 4.0, f"Wald z {wald.z}"
    over = overshoot_bound_check(
        instance_a, x=0.0, y=10.0, n_paths=100_000, seed=20240809, sample=sample
    )
    assert over.passes, f"overshoot margin {over.margin}"
    d1 = ssdp.DemandDistribution.from_atoms([(1.0, 1.0)])
    exact = sample_renewal(d1, y=5.0, n_paths=100, seed=1)
    assert np.all(exact.counts == 5) and np.all(exact.first_passage == 6.0)
    wald1 = wald_check(exact, d1)
    assert wald1.lhs == 6.0 and wald1.rhs == 6.0 and wald1.z == 0.0
    m1 = replace(instance_a, demand=d1)
    over1 = overshoot_bound_check(m1, x=0.0, y=2.0, n_paths=100, seed=1)
    assert over1.lhs == float(instance_a.h(-3.0)) and over1.rhs == 3.0 * over1.lhs
    report(10, f"Wald z = {wald.z:.2f} (<= 4), overshoot bound holds "
               f"(margin {over.margin:.1f}); deterministic demand cases exact")


def test_criterion_11_action_convergence(instance_a, zero_setup_a_09):
    for terminal in (TerminalValue.zero(instance_a.grid), zero_setup_a_09.terminal()):
        rep = track_action_convergence(instance_a, 0.9, terminal, t_max=200)
        assert np.all(rep.exact_settle_t >= 1), f"{terminal.id}: unsettled states"
        assert int(rep.exact_settle_t.max()) <= 200
    report(11, "finite-horizon chosen actions land in the infinite-horizon eps-optimal sets "
               "by t <= 200 at every state, for both terminal values")


def test_criterion_12_determinism(tmp_path):
    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "ssdp.cli", *map(str, args)],
            capture_output=True,
            text=True,
        )
        return r

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"solve_{tag}"
        r = run("solve", CONFIGS / "instance_a.json", "--alpha", "0.9", "--seed", "7",
                "--out", out)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    assert (outs[0] / "value.csv").read_bytes() == (outs[1] / "value.csv").read_bytes()
    assert (outs[0] / "thresholds.csv").read_bytes() == (outs[1] / "thresholds.csv").read_bytes()

    sweeps = []
    codes = []
    for tag, workers in (("w1", 1), ("w4", 4)):
        out = tmp_path / f"sweep_{tag}"
        r = run("sweep", CONFIGS / "instance_a.json", "--schedule", "geometric:8",
                "--seed", "7", "--workers", workers, "--out", out)
        codes.append(r.returncode)
        sweeps.append(out)
    assert codes[0] == codes[1]
    assert (sweeps[0] / "sweep.csv").read_bytes() == (sweeps[1] / "sweep.csv").read_bytes()
    report(12, "reruns and worker counts reproduce byte-identical CSV outputs")
