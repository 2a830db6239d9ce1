"""JSON model configuration.

Schema (field names are fixed):

    {
      "grid":   {"x_lo": -20, "x_hi": 20, "step": 1, "integer_mode": true},
      "cost":   {"K": 2.0, "c_bar": 1.0, "h": {"breakpoints": [[-1, 3], [0, 0], [1, 1]]}},
      "demand": {"atoms": [[0, 0.25], [1, 0.5], [2, 0.25]]}
    }

``demand`` alternatively takes
``{"continuous": {"family": "exponential", "params": {"mean": 1.0}, "n_atoms": 64}}``.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

from .model import (
    ContinuousDemand,
    DemandDistribution,
    Grid,
    InventoryModel,
    ModelError,
    PiecewiseLinear,
    discretize_demand,
    finite_number,
)

__all__ = ["load_model", "model_from_dict"]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ModelError(f"config: missing {where}.{key}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ModelError(f"config: {where} must be an object, got {mapping!r}")
    extra = set(mapping) - allowed
    if extra:
        raise ModelError(f"config: unknown keys in {where}: {sorted(extra)}")


def _pairs(mapping: dict, key: str, where: str) -> list:
    """``mapping[key]`` if it is a list of [number, number] pairs (finiteness is checked later)."""
    value, where = _require(mapping, key, where), f"{where}.{key}"
    number = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)  # noqa: E731
    if not isinstance(value, list):
        raise ModelError(f"{where} must be a list of pairs, got {value!r}")
    for k, p in enumerate(value):
        if not (isinstance(p, list) and len(p) == 2 and number(p[0]) and number(p[1])):
            raise ModelError(f"{where}[{k}] must be a pair of two numbers, got {p!r}")
    return value


def model_from_dict(cfg: dict) -> InventoryModel:
    _reject_unknown(cfg, {"grid", "cost", "demand"}, "<root>")
    gcfg = _require(cfg, "grid", "<root>")
    _reject_unknown(gcfg, {"x_lo", "x_hi", "step", "integer_mode"}, "grid")
    grid = Grid(
        x_lo=finite_number(_require(gcfg, "x_lo", "grid"), "grid.x_lo"),
        x_hi=finite_number(_require(gcfg, "x_hi", "grid"), "grid.x_hi"),
        step=finite_number(gcfg.get("step", 1.0), "grid.step"),
        integer_mode=gcfg.get("integer_mode", False),
    )

    ccfg = _require(cfg, "cost", "<root>")
    _reject_unknown(ccfg, {"K", "c_bar", "h"}, "cost")
    hcfg = _require(ccfg, "h", "cost")
    _reject_unknown(hcfg, {"breakpoints"}, "cost.h")
    h = PiecewiseLinear.from_breakpoints(_pairs(hcfg, "breakpoints", "cost.h"))

    dcfg = _require(cfg, "demand", "<root>")
    _reject_unknown(dcfg, {"atoms", "continuous"}, "demand")
    if ("atoms" in dcfg) == ("continuous" in dcfg):
        raise ModelError("config: demand needs exactly one of 'atoms' or 'continuous'")
    if "atoms" in dcfg:
        demand = DemandDistribution.from_atoms(_pairs(dcfg, "atoms", "demand"))
    else:
        spec = dcfg["continuous"]
        _reject_unknown(spec, {"family", "params", "n_atoms"}, "demand.continuous")
        family = _require(spec, "family", "demand.continuous")
        params = _require(spec, "params", "demand.continuous")
        demand = discretize_demand(ContinuousDemand(family, params), spec.get("n_atoms", 64))

    return InventoryModel(
        K=finite_number(_require(ccfg, "K", "cost"), "cost.K"),
        c_bar=finite_number(_require(ccfg, "c_bar", "cost"), "cost.c_bar"),
        h=h,
        demand=demand,
        grid=grid,
    )


def load_model(path) -> InventoryModel:
    p = Path(path)
    if not p.is_file():
        raise ModelError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"config: invalid JSON in {p}: {exc}") from exc
    return model_from_dict(cfg)
