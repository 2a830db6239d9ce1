import json

import numpy as np
import pytest

import ssdp
from ssdp import io
from ssdp.config import model_from_dict

from conftest import CONFIGS, reference_write_table_csv

SOLVE_HEADER = ["x", "v", "chosen_action", "n_eps_optimal"]


def _model(name, step=None):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if step is not None:
        cfg["grid"]["step"] = step
    return model_from_dict(cfg)


@pytest.mark.parametrize(
    "name, step",
    [("instance_a", None), ("exponential_demand", None), ("degenerate_zero_demand", None),
     ("exponential_demand", 0.03)],  # the last: n = 1001, several chunks of rows
)
def test_value_csv_equals_cell_writer(tmp_path, name, step):
    model = _model(name, step)
    rep = ssdp.solve_infinite(model, 0.9, tol=1e-8)
    table = rep.policy
    io.write_solve_csv(tmp_path / "value.csv", rep.value, table)
    rows = zip(table.grid.points, rep.value, table.chosen, table.set_sizes())
    reference_write_table_csv(tmp_path / "ref.csv", SOLVE_HEADER, rows)
    got = (tmp_path / "value.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == model.grid.n + 1


def test_csv_cells_equal_cell_writer(tmp_path):
    # -0.0, integral floats, extremes and a partial last chunk in value.csv; None,
    # booleans, strings and numpy scalars in the small tables
    model = _model("instance_a")
    table = ssdp.solve_infinite(model, 0.9, tol=1e-8).policy
    special = [-0.0, 0.0, 1.0, -20.0, 1e16, 1e22, 5e-324, -1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 0.1, 2.0 / 3.0]
    value = np.resize(np.array(special), model.grid.n)
    io.write_solve_csv(tmp_path / "value.csv", value, table)
    rows = zip(table.grid.points, value, table.chosen, table.set_sizes())
    reference_write_table_csv(tmp_path / "ref.csv", SOLVE_HEADER, rows)
    assert (tmp_path / "value.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n-20.0,-0.0," in (tmp_path / "value.csv").read_bytes()

    header = ["context", "s", "S", "g_min", "K_convex_ok", "extrapolation_count"]
    rows = [
        ("alpha=0.9", -0.0, 2.0, np.float64(1.25), True, 3),
        ("t=1", None, None, None, np.bool_(False), np.int64(0)),
        ('a "quoted", cell', np.float32(0.5), 1e-300, -1.0, False, None),
    ]
    io.write_threshold_csv(tmp_path / "thresholds.csv", rows)
    reference_write_table_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "thresholds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
