"""CSV and JSON artifact writers plus the run manifest.

CSV files use the csv module's default dialect (RFC-4180 quoting, CRLF),
and floats are rendered with repr (shortest round-trip form), so reruns
with identical inputs are byte-identical.  Every table is written from its
columns, ``CSV_CHUNK`` rows at a time, each column slice converted to Python
values with one call, so a large grid table is never held whole as text.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RunManifest",
    "write_manifest",
    "write_json",
    "write_table_csv",
    "write_solve_csv",
    "write_solve_sidecar",
    "write_threshold_csv",
    "write_sweep_csv",
    "write_results_csv",
]

CSV_CHUNK = 64  # rows formatted and written at a time


def _column(values) -> list:
    """One column as Python values for the csv module, which writes floats with
    str (the shortest round-trip repr), ints with str and None as an empty cell:
    a numeric numpy array takes one ``tolist``; in a list, numpy scalars take
    ``item`` and booleans become true/false."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    items = (v.item() if isinstance(v, np.generic) else v for v in values)
    return [("true" if v else "false") if isinstance(v, bool) else v for v in items]


def write_table_csv(path, header, columns) -> None:
    """A CSV table from equal-length columns, ``CSV_CHUNK`` rows at a time."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in range(0, n, CSV_CHUNK):
            w.writerows(zip(*(_column(c[r : r + CSV_CHUNK]) for c in columns)))


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_solve_csv(path, value, policy) -> None:
    """Columns: x, v, chosen_action, n_eps_optimal, from grid values and their PolicyTable."""
    columns = [policy.grid.points, value, policy.chosen, policy.set_sizes()]
    write_table_csv(path, ["x", "v", "chosen_action", "n_eps_optimal"], columns)


def write_solve_sidecar(path, report) -> None:
    payload = {
        "alpha": report.alpha,
        "tol": report.tol,
        "iterations": report.iterations,
        "residual": report.residual,
        "clamp_events": report.clamp_events,
    }
    write_json(path, payload)


def write_threshold_csv(path, rows) -> None:
    """Rows: (context, s, S, g_min, K_convex_ok, extrapolation_count)."""
    header = ["context", "s", "S", "g_min", "K_convex_ok", "extrapolation_count"]
    write_table_csv(path, header, list(zip(*rows)))


def write_sweep_csv(path, sweep) -> None:
    header = [
        "alpha",
        "m_alpha",
        "one_minus_alpha_times_m",
        "s",
        "S",
        "minimizer_lo",
        "minimizer_hi",
        "solver_iters",
    ]
    rows = (
        (
            r.alpha,
            r.m_alpha,
            r.w_point,
            r.s,
            r.S,
            float(r.minimizer_states.min()),
            float(r.minimizer_states.max()),
            r.iterations,
        )
        for r in sweep.records
    )
    write_table_csv(path, header, list(zip(*rows)))


def write_results_csv(path, rows) -> None:
    """Rows: (policy_id, criterion, mean, std_error, n_paths, horizon, seed)."""
    header = ["policy_id", "criterion", "mean", "std_error", "n_paths", "horizon", "seed"]
    write_table_csv(path, header, list(zip(*rows)))


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config: str
    seed: int
    version: str
    started_at: str
    finished_at: str = ""
    outputs: list = field(default_factory=list)  # relative to the output directory
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add_output(self, path) -> None:
        self.outputs.append(str(path))

    def add_check(self, name: str, passed: bool, **detail) -> None:
        self.checks[name] = {"passed": bool(passed), **detail}

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())


def write_manifest(path, manifest: RunManifest) -> None:
    payload = asdict(manifest)
    payload.update(payload.pop("extra"))
    write_json(path, payload)
