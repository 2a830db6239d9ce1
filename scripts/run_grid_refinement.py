#!/usr/bin/env python3
"""Grid-refinement study: how thresholds and values move as the step shrinks.

The lattice is an approximation of the continuous state space; this script
exposes the step size as a convergence-study parameter by re-solving a
continuous-demand instance at successively finer steps and printing the
extracted thresholds, the value at 0, and the kernel clamp counts.
"""

import argparse

import ssdp
from ssdp.model import ContinuousDemand, Grid, InventoryModel, PiecewiseLinear, discretize_demand


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--steps", type=float, nargs="+", default=[2.0, 1.0, 0.5, 0.25])
    ap.add_argument("--n-atoms", type=int, default=32)
    args = ap.parse_args()

    demand = discretize_demand(
        ContinuousDemand(family="exponential", params={"mean": 1.0}), args.n_atoms
    )
    h = PiecewiseLinear.from_breakpoints([[-1, 2.5], [0, 0], [1, 1]])
    print(f"exponential demand, {args.n_atoms} atoms, mean = {demand.mean:.6f}")
    print(f"{'step':>6} {'n':>5} {'s':>8} {'S':>8} {'v(0)':>12} {'clamps':>7}")
    for step in args.steps:
        grid = Grid(x_lo=-16.0, x_hi=16.0, step=step)
        model = InventoryModel(K=1.5, c_bar=1.0, h=h, demand=demand, grid=grid)
        res = ssdp.discounted_sS(model, args.alpha, tol=1e-8)
        i0 = grid.index_of(0.0)
        print(
            f"{step:6.2f} {grid.n:5d} {res.policy.s:8.2f} {res.policy.S:8.2f} "
            f"{res.solve.value[i0]:12.6f} {res.solve.clamp_events:7d}"
        )


if __name__ == "__main__":
    main()
