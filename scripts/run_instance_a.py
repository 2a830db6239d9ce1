#!/usr/bin/env python3
"""End-to-end run on the integer benchmark instance.

Solves the discounted problem, extracts and cross-validates (s,S), runs the
vanishing-discount sweep, simulates the limiting policy, and compares its
exact long-run average cost w(s,S) with that of the order-up-to-0 heuristic.
"""

import argparse
from pathlib import Path

import ssdp
from ssdp import average
from ssdp.simulate import SimConfig, simulate_average

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "instance_a.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--schedule", type=int, default=12, help="geometric schedule length")
    ap.add_argument("--seed", type=int, default=20240809)
    args = ap.parse_args()

    model = ssdp.load_model(CONFIG)
    print(f"model: K={model.K} c_bar={model.c_bar} grid=[{model.grid.x_lo},{model.grid.x_hi}]")

    res = ssdp.discounted_sS(model, ssdp.solve_infinite(model, args.alpha, tol=1e-8))
    print(f"\ndiscounted alpha={args.alpha}:")
    print(f"  (s,S) = {res.policy.pair()}, K-convex ok = {res.k_convexity.verdict}")
    print(f"  policy-evaluation gap vs v_alpha = {res.eval_gap:.2e}")
    stages = ssdp.finite_horizon_sS(model, args.alpha, 200, tol=1e-8).policies
    pairs = [None if p is None else p.pair() for p in stages]
    settle = next(t for t in range(len(pairs)) if all(p == pairs[-1] for p in pairs[t:]))
    print(f"  finite-horizon thresholds settle at t = {settle}")

    sw = average.sweep(model, average.geometric_schedule(args.schedule), tol=1e-7)
    avg = ssdp.average_sS(model, sweep_result=sw)
    print(f"\nvanishing-discount sweep ({args.schedule} factors):")
    print(f"  w_estimate = {sw.w_estimate:.6f} (cauchy: {sw.cauchy})")
    print(f"  limiting (s,S) = {avg.policy.pair()}, settled = {avg.settled}")
    oi = avg.optimality
    print(f"  optimality-inequality residual: max {oi.max_interior:.4g} (slack {oi.slack:.4g})")

    sim = simulate_average(model, SimConfig(x0=0.0, horizon=4000, n_paths=256,
                                            seed=args.seed, policy=avg.policy))
    print(f"\nsimulated long-run average of limiting policy: "
          f"{sim.mean:.4f} +- {sim.std_error:.4f} (w_estimate {sw.w_estimate:.4f})")

    print("\npolicy comparison (exact average cost w(s,S) on the grid chain):")
    rows = [("limiting", avg.policy), ("order-up-to-0", ssdp.SsPolicy(0.0, 0.0))]
    ws = [average.exact_average_cost(model, pol) for _, pol in rows]
    for (name, pol), w in zip(rows, ws):
        print(f"  {name:14s} (s,S) = {str(pol.pair()):12s} w = {w:10.4f}  "
              f"diff vs limiting = {w - ws[0]:+.4f}")


if __name__ == "__main__":
    main()
