"""The three benchmark workloads: CLI arguments, inputs and answer checks.

Each workload is one real ``ssdp`` command.  ``check`` reads the job's
output directory and returns ``(failures, statistical)``: ``failures`` are
deterministic checks that failed, ``statistical`` are Monte-Carlo checks
that failed and have a nonzero false-alarm rate.  The pinned answers were
taken from the repository's seed code.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

SHIPPED_CONFIG = Path("configs") / "exponential_demand.json"

# The n = 1001 refinement of configs/exponential_demand.json, written by the
# benchmark itself so that no file under configs/ serves only the benchmark.
FINE_CONFIG = {
    "grid": {"x_lo": -15, "x_hi": 15, "step": 0.03, "integer_mode": False},
    "cost": {"K": 1.5, "c_bar": 1.0, "h": {"breakpoints": [[-1, 2.5], [0, 0], [1, 1]]}},
    "demand": {"continuous": {"family": "exponential", "params": {"mean": 1.0}, "n_atoms": 32}},
}
FINE_ALPHA = 0.99
FINE_TOL = 1e-8  # the CLI's default solve tolerance, passed explicitly

# Monte-Carlo checks made by the CLI and their nominal false-alarm rates.
STATISTICAL_CHECKS = {
    "simulated_average_matches_w": 0.0027,  # |gap| <= 3 SE, two-sided normal
    "renewal.wald_z_within_4": 6.3e-5,  # |z| <= 4, two-sided normal
    "renewal.overshoot_bound": 0.00135,  # lhs <= rhs + 3 SE, one-sided, at equality
}

PIN_TOL = 1e-9  # thresholds are grid points; CSV floats carry rounding noise


def _manifest_failures(out: Path, expected_checks) -> tuple[list, list]:
    failures, statistical = [], []
    path = out / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"], []
    checks = json.loads(path.read_text()).get("checks", {})
    missing = sorted(set(expected_checks) - set(checks))
    if missing:
        failures.append(f"manifest checks missing: {missing}")
    for name, row in sorted(checks.items()):
        if not row.get("passed"):
            (statistical if name in STATISTICAL_CHECKS else failures).append(
                f"manifest check {name} failed: {row}"
            )
    return failures, statistical


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _near(a, b, tol=PIN_TOL) -> bool:
    return a is not None and abs(float(a) - b) <= tol


# -- sweep_exp -------------------------------------------------------------

SWEEP_CHECKS = (
    "cauchy",
    "assumption_B_bounded",
    "minimizer_hull_interior",
    "thresholds_settled",
    "thresholds_interior",
    "optimality_inequality",
    "simulated_average_matches_w",
)
SWEEP_S, SWEEP_BIG_S, SWEEP_W = 0.25, 2.0, 2.98160


def check_sweep(out: Path) -> tuple[list, list]:
    failures, statistical = _manifest_failures(out, SWEEP_CHECKS)
    summary_path = out / "sweep_summary.json"
    if not summary_path.is_file() or not (out / "sweep.csv").is_file():
        return failures + ["sweep outputs missing"], statistical
    summary = json.loads(summary_path.read_text())
    if not (_near(summary.get("s"), SWEEP_S) and _near(summary.get("S"), SWEEP_BIG_S)):
        failures.append(f"limit (s,S) = ({summary.get('s')}, {summary.get('S')}), "
                        f"pinned ({SWEEP_S}, {SWEEP_BIG_S})")
    w_points = [float(r["one_minus_alpha_times_m"]) for r in _read_csv(out / "sweep.csv")]
    if len(w_points) < 2:
        return failures + ["sweep.csv has fewer than two factors"], statistical
    slack = 10.0 * abs(w_points[-1] - w_points[-2])
    w = float(summary["w_estimate"])
    if abs(w - SWEEP_W) > slack:
        failures.append(f"w_estimate {w} is more than {slack:.3e} from pinned {SWEEP_W}")
    return failures, statistical


# -- solve_fine ------------------------------------------------------------

FINE_S, FINE_BIG_S = 0.24, 1.95


def exponential_atoms(mean: float, n_atoms: int, mass: float = 1.0 - 1e-8):
    """Equal-probability quantile bins of Exp(mean) truncated at ``mass``,
    each replaced by its conditional mean (closed form, no quadrature)."""
    q = np.linspace(0.0, mass, n_atoms + 1)
    edges = -mean * np.log1p(-q)
    a, b = edges[:-1], edges[1:]
    ea, eb = np.exp(-a / mean), np.exp(-b / mean)
    values = mean + (a * ea - b * eb) / (ea - eb)
    return values, np.full(n_atoms, 1.0 / n_atoms)


def _pl(breakpoints, x):
    """Piecewise-linear curve through ``breakpoints``, extended by its end slopes."""
    bx, by = np.asarray(breakpoints, dtype=float).T
    order = np.argsort(bx)
    bx, by = bx[order], by[order]
    lo = by[0] + (x - bx[0]) * (by[1] - by[0]) / (bx[1] - bx[0])
    hi = by[-1] + (x - bx[-1]) * (by[-1] - by[-2]) / (bx[-1] - bx[-2])
    return np.where(x < bx[0], lo, np.where(x > bx[-1], hi, np.interp(x, bx, by)))


def exact_sS_value(cfg: dict, s: float, S: float, alpha: float) -> np.ndarray:
    """Discounted value of the (s,S) policy on the config's grid, by one sparse solve.

    Orders up to S when x < s.  From post-order level y the next state is
    y - d for each demand atom d, clamped to x_lo below and split linearly
    between the two neighbouring grid points.  Built from the config alone,
    independently of ssdp's transition operator.
    """
    g, c = cfg["grid"], cfg["cost"]
    spec = cfg["demand"]["continuous"]
    if spec["family"] != "exponential":
        raise ValueError("the exact oracle supports exponential demand only")
    bx, by = np.asarray(c["h"]["breakpoints"], dtype=float).T
    if by.min() != 0.0 or bx[np.argmin(by)] != 0.0:
        raise ValueError("the exact oracle needs h with its minimum 0 at x = 0")
    x_lo, step = float(g["x_lo"]), float(g["step"])
    n = int(round((float(g["x_hi"]) - x_lo) / step)) + 1
    xs = x_lo + step * np.arange(n)
    d, p = exponential_atoms(float(spec["params"]["mean"]), int(spec["n_atoms"]))

    idx = np.arange(n)
    s_idx = int(round((s - x_lo) / step))
    S_idx = int(round((S - x_lo) / step))
    post = np.where(idx < s_idx, S_idx, idx)
    order = (post - idx) * step
    y = xs[post]
    cost = (
        float(c["K"]) * (order > 0)
        + float(c["c_bar"]) * order
        + _pl(c["h"]["breakpoints"], y[:, None] - d[None, :]) @ p
    )

    pos = np.clip((y[:, None] - d[None, :] - x_lo) / step, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(pos).astype(int), n - 2)
    w = pos - i0
    rows = np.repeat(idx, d.size)
    P = sparse.csr_matrix(
        (
            np.concatenate([(p * (1.0 - w)).ravel(), (p * w).ravel()]),
            (np.concatenate([rows, rows]), np.concatenate([i0.ravel(), i0.ravel() + 1])),
        ),
        shape=(n, n),
    )
    return spsolve((sparse.identity(n, format="csr") - alpha * P).tocsc(), cost)


def check_solve_fine(out: Path) -> tuple[list, list]:
    failures, statistical = _manifest_failures(out, ("k_convex", "policy_evaluation_gap"))
    if not (out / "thresholds.csv").is_file() or not (out / "value.csv").is_file():
        return failures + ["solve outputs missing"], statistical
    rows = _read_csv(out / "thresholds.csv")
    if len(rows) != 1:
        return failures + [f"thresholds.csv has {len(rows)} rows, expected 1"], statistical
    row = rows[0]
    s = float(row["s"]) if row["s"] else None
    S = float(row["S"]) if row["S"] else None
    if not (_near(s, FINE_S) and _near(S, FINE_BIG_S)):
        failures.append(f"(s,S) = ({s}, {S}), pinned ({FINE_S}, {FINE_BIG_S})")
    if row["K_convex_ok"] != "true":
        failures.append(f"K_convex_ok = {row['K_convex_ok']!r}")
    if failures:
        return failures, statistical
    value = _read_csv(out / "value.csv")
    v = np.array([float(r["v"]) for r in value])
    exact = exact_sS_value(FINE_CONFIG, s, S, FINE_ALPHA)
    if v.shape != exact.shape:
        return failures + [f"value.csv has {v.size} states, grid has {exact.size}"], statistical
    gap = float(np.max(np.abs(v - exact)))
    if not gap <= 10 * FINE_TOL:
        failures.append(f"value.csv misses the exact (s,S) value by {gap:.3e} > {10 * FINE_TOL:.0e}")
    return failures, statistical


# -- verify_exp ------------------------------------------------------------

VERIFY_CHECKS = (
    "renewal.wald_z_within_4",
    "renewal.overshoot_bound",
    "sandwich.value_monotone_in_t",
    "sandwich.terminal_between_0_and_v",
    "sandwich.g_chain_ordered",
    "action_convergence.terminal_zero",
    "action_convergence.terminal_v0_alpha",
    "brute_force_sS.no_better_pair",
)


def check_verify(out: Path) -> tuple[list, list]:
    return _manifest_failures(out, VERIFY_CHECKS)


# -- registry --------------------------------------------------------------


def _fine_config(run_dir: Path) -> Path:
    path = run_dir / "solve_fine.json"
    path.write_text(json.dumps(FINE_CONFIG, indent=2, sort_keys=True) + "\n")
    return path


WORKLOADS = {
    "sweep_exp": {
        "config": lambda root, run_dir: root / SHIPPED_CONFIG,
        "argv": lambda cfg, out, seed: [
            "sweep", str(cfg), "--schedule", "geometric:12",
            "--seed", str(seed), "--workers", "1", "--out", str(out),
        ],
        "check": check_sweep,
    },
    "solve_fine": {
        "config": lambda root, run_dir: _fine_config(run_dir),
        "argv": lambda cfg, out, seed: [
            "solve", str(cfg), "--alpha", str(FINE_ALPHA), "--tol", str(FINE_TOL),
            "--seed", str(seed), "--workers", "1", "--out", str(out),
        ],
        "check": check_solve_fine,
    },
    "verify_exp": {
        "config": lambda root, run_dir: root / SHIPPED_CONFIG,
        "argv": lambda cfg, out, seed: [
            "verify", str(cfg), "--suite", "all", "--alpha", "0.9",
            "--seed", str(seed), "--workers", "1", "--out", str(out),
        ],
        "check": check_verify,
    },
}


def nominal_false_alarm(workload: str) -> float:
    """Chance that one job fails a Monte-Carlo check although the program is right."""
    names = {"sweep_exp": SWEEP_CHECKS, "verify_exp": VERIFY_CHECKS}.get(workload, ())
    ok = math.prod(1.0 - STATISTICAL_CHECKS[c] for c in names if c in STATISTICAL_CHECKS)
    return 1.0 - ok
