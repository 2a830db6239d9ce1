import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssdp.dp import TerminalValue, solve_finite, solve_infinite
from ssdp.model import InventoryModel, ModelError

from conftest import make_exponential

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INSTANCE_A = CONFIGS / "instance_a.json"
DEGENERATE = CONFIGS / "degenerate_zero_demand.json"
EXPONENTIAL = CONFIGS / "exponential_demand.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ssdp.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_solve_happy_path(tmp_path):
    out = tmp_path / "run"
    r = run_cli("solve", INSTANCE_A, "--alpha", "0.9", "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["checks"]["k_convex"]["passed"]
    assert manifest["s"] == 1.0 and manifest["S"] == 2.0
    for f in manifest["outputs"]:
        assert not Path(f).is_absolute() and (out / f).exists()
    header = (out / "value.csv").read_text().splitlines()[0]
    assert header == "x,v,chosen_action,n_eps_optimal"
    meta = json.loads((out / "value_meta.json").read_text())
    assert set(meta) == {"alpha", "tol", "iterations", "residual", "clamp_events"}
    assert 0.0 <= manifest["certified_error_bound"] <= 1e-8 / 2


def test_solve_missing_config(tmp_path):
    r = run_cli("solve", "/definitely/not/there.json", "--alpha", "0.9", "--out", tmp_path / "x")
    assert r.returncode == 2


def test_solve_alpha_out_of_range(tmp_path):
    r = run_cli("solve", INSTANCE_A, "--alpha", "1.0", "--out", tmp_path / "x")
    assert r.returncode == 2
    assert "alpha must lie in [0,1)" in r.stderr
    notes = json.loads((tmp_path / "x" / "manifest.json").read_text())["notes"]
    assert notes == ["ModelError: alpha must lie in [0,1)"]


@pytest.mark.parametrize(
    "args, note",
    [
        (("solve", "--alpha", "0.9", "--horizon", "0"), "horizon must be at least 1"),
        (("sweep", "--schedule", "geometric:x"), "bad schedule spec 'geometric:x'"),
        (("verify", "--suite", "sandwich", "--alpha", "-1"), "alpha must lie in [0,1)"),
        # 32.8 GB of stage values, refused before any solve by the --t-max byte cap
        (("solve", "--alpha", "0.9", "--horizon", "100000000", "--terminal", "zero"),
         "horizon (--horizon) 100,000,000 needs a 32,800,000,000-byte value table over 41 "
         "states, above the 268,435,456-byte cap"),
    ],
)
def test_bad_argument_still_writes_manifest(tmp_path, args, note):
    out = tmp_path / "bad"
    r = run_cli(args[0], INSTANCE_A, *args[1:], "--out", out)
    assert r.returncode == 2, r.stderr
    assert f"config error: {note}" in r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == args[0]
    assert manifest["notes"] == [f"ModelError: {note}"]
    assert manifest["outputs"] == [] and manifest["checks"] == {}


def test_solve_finite_horizon(tmp_path):
    out = tmp_path / "fin"
    r = run_cli("solve", INSTANCE_A, "--alpha", "0.9", "--horizon", "4", "--out", out)
    assert r.returncode == 0, r.stderr
    rows = (out / "thresholds.csv").read_text().splitlines()
    assert rows[0] == "context,s,S,g_min,K_convex_ok,extrapolation_count"
    assert len(rows) == 5
    assert rows[1].startswith("t=0,")


def test_sweep_degenerate_short_circuit(tmp_path):
    out = tmp_path / "deg"
    r = run_cli("sweep", DEGENERATE, "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["degenerate_zero_demand"] is True
    assert any("zero demand" in n for n in manifest["notes"])
    thr = (out / "thresholds.csv").read_text().splitlines()[1]
    assert thr.startswith("average,0.0,0.0")


def test_sweep_single_point_schedule_flagged(tmp_path):
    out = tmp_path / "short"
    r = run_cli("sweep", INSTANCE_A, "--schedule", "geometric:1", "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("insufficient for limit analysis" in n for n in manifest["notes"])


def test_verify_fast_suites(tmp_path):
    out = tmp_path / "ver"
    r = run_cli(
        "verify", INSTANCE_A, "--suite", "all", "--paths", "20000", "--out", out
    )
    assert r.returncode == 0, r.stderr + r.stdout
    assert "PASS renewal.wald_z_within_4" in r.stdout
    assert "PASS sandwich.g_chain_ordered" in r.stdout
    assert "PASS action_convergence.terminal_v0_alpha" in r.stdout
    assert "PASS brute_force_sS.no_better_pair" in r.stdout
    assert "FAIL" not in r.stdout


def test_verify_all_skips_renewal_on_zero_demand(tmp_path):
    out = tmp_path / "deg"
    r = run_cli("verify", DEGENERATE, "--suite", "all", "--paths", "2000", "--out", out)
    assert r.returncode == 0, r.stderr + r.stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("renewal suite skipped" in n for n in manifest["notes"])
    assert not any(c.startswith("renewal.") for c in manifest["checks"])
    assert manifest["checks"]["brute_force_sS.no_better_pair"]["passed"]
    assert all(c["passed"] for c in manifest["checks"].values())


def test_verify_renewal_alone_fails_on_zero_demand(tmp_path):
    out = tmp_path / "deg"
    r = run_cli("verify", DEGENERATE, "--suite", "renewal", "--out", out)
    assert r.returncode == 2
    assert "degenerate" in r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("degenerate" in n for n in manifest["notes"])


def test_verify_brute_force_on_401_points(tmp_path):
    # the streamed cycle tables have no grid-size cap
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "grid": {"x_lo": -200, "x_hi": 200, "step": 1, "integer_mode": True},
                "cost": {"K": 2.0, "c_bar": 1.0, "h": {"breakpoints": [[-1, 3], [0, 0], [1, 1]]}},
                "demand": {"atoms": [[0, 0.25], [1, 0.5], [2, 0.25]]},
            }
        )
    )
    out = tmp_path / "v"
    r = run_cli("verify", big, "--suite", "brute-force-sS", "--out", out)
    assert r.returncode == 0, r.stderr
    assert "PASS brute_force_sS.no_better_pair: worst_gap=0.0 pair=(1.0, 2.0)" in r.stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["brute_force_sS.no_better_pair"]["passed"]


def _huge_c_bar(tmp_path):
    cfg = json.loads(EXPONENTIAL.read_text())
    cfg["cost"]["c_bar"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    return path


def _unchecked_twin(model, **fields):
    """``model`` with ``fields`` replaced and no validation, as solve_zero_setup makes its twin."""
    twin = object.__new__(InventoryModel)
    vars(twin).update(vars(model), **fields)
    return twin


def test_solve_overflowing_costs_exit_2(tmp_path):
    # c_bar x overflows to inf on the grid: the config is rejected at load,
    # naming the field, before numpy can warn about it
    path = _huge_c_bar(tmp_path)
    r = run_cli("solve", path, "--alpha", "0.9", "--out", tmp_path / "o")
    assert r.returncode == 2
    assert "config error: cost.c_bar 1e+308 is too large" in r.stderr
    assert "RuntimeWarning" not in r.stderr
    # an unchecked model still stops value iteration at its first sweep
    huge = _unchecked_twin(make_exponential(), c_bar=1e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ModelError) as err:
        solve_infinite(huge, 0.9)
    assert "value iteration: span bound nan at sweep 1" in str(err.value)
    assert "state index 0 has T v - v = nan" in str(err.value)


def test_finite_horizon_overflowing_costs_name_the_stage(tmp_path):
    path = _huge_c_bar(tmp_path)
    out = tmp_path / "o"
    r = run_cli("solve", path, "--alpha", "0.9", "--horizon", "3", "--terminal", "zero",
                "--out", out)
    assert r.returncode == 2
    assert "RuntimeWarning" not in r.stderr
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes == ["ModelError: cost.c_bar 1e+308 is too large: "
                     "c_bar * x is not finite on the grid"]
    # on an unchecked model, backward induction from F = 0 overflows in its
    # first update and names that stage
    huge = _unchecked_twin(make_exponential(), c_bar=1e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ModelError) as err:
        solve_finite(huge, 3, TerminalValue.zero(huge.grid), 0.9)
    assert str(err.value) == ("stage value v_1 (alpha=0.9) must be finite and nonnegative; "
                              "x=-15.0 (index 0) has v = nan")


def test_c_bar_swamping_K_fails_k_convex_unwarned(tmp_path):
    # c_bar passes the load check but swamps K: the certificate's slopes overflow,
    # and the run fails at k_convex without numpy warnings
    cfg = json.loads(EXPONENTIAL.read_text())
    cfg["cost"]["c_bar"] = 7e306
    path = tmp_path / "swamped.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("solve", path, "--alpha", "0.9", "--out", out)
    assert r.returncode == 4
    assert not json.loads((out / "manifest.json").read_text())["checks"]["k_convex"]["passed"]
    assert "RuntimeWarning" not in r.stderr


def test_overflowing_expected_h_names_cost_h(tmp_path):
    cfg = json.loads(EXPONENTIAL.read_text())
    cfg["cost"]["h"]["breakpoints"] = [[-1, 0], [0, 0], [1, 2e307]]
    path = tmp_path / "huge_h.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("solve", path, "--alpha", "0.9", "--out", tmp_path / "o")
    assert r.returncode == 2
    assert "config error: cost.h is too large: E h(y - D) is not finite" in r.stderr
    assert "RuntimeWarning" not in r.stderr


def test_bad_config_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"x_lo": 0, "x_hi": 5}, "cost": {}, "extra": 1}))
    r = run_cli("solve", bad, "--alpha", "0.5", "--out", tmp_path / "o")
    assert r.returncode == 2
    assert "unknown keys" in r.stderr


@pytest.mark.parametrize(
    "continuous, field",
    [
        ({"family": "exponential", "params": {"mu": 1}}, "params.mean"),
        ({"family": "exponential", "params": {"mean": "nan"}}, "params.mean"),
        ({"family": "exponential", "params": {"mean": 1}, "n_atoms": "x"}, "n_atoms"),
        ({"family": "exponential", "params": {"mean": -1}}, "params.mean"),
        ({"family": "gamma", "params": {"shape": 0, "scale": 1}}, "params.shape"),
        ({"family": "uniform", "params": {"low": 2, "high": 1}}, "params.high"),
        ({"family": "exponential", "params": {"mean": 1, "extra": 3}}, "params.extra"),
    ],
)
def test_bad_continuous_demand_fails_fast_naming_the_field(tmp_path, continuous, field):
    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["demand"] = {"continuous": continuous}
    path = tmp_path / "bad_demand.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("solve", path, "--alpha", "0.9", "--out", out)
    assert r.returncode == 2, r.stderr
    assert f"demand.continuous.{field}" in r.stderr and "Traceback" not in r.stderr
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert len(notes) == 1 and notes[0].startswith(f"ModelError: demand.continuous.{field}")


def test_non_object_config_section_is_a_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["demand"]["continuous"] = 5
    path = tmp_path / "bad_section.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("solve", path, "--alpha", "0.9", "--out", tmp_path / "o")
    assert r.returncode == 2, r.stderr
    assert "demand.continuous must be an object" in r.stderr


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("grid", "x_lo", "abc", "grid.x_lo"),
        ("cost", "K", "abc", "cost.K"),
        ("cost", "h", {"breakpoints": [["-1", 3], [0, 0], [1, 1]]}, "cost.h.breakpoints[0]"),
        ("demand", "atoms", [[0, 0.25], ["1", 0.5], [2, 0.25]], "demand.atoms[1]"),
        ("demand", "atoms", 5, "demand.atoms"),
        ("cost", "K", "2", "cost.K"),
        ("grid", "integer_mode", "no", "grid.integer_mode"),
        ("cost", "c_bar", True, "cost.c_bar"),
        ("demand", "atoms", [[0, 0.25], [1, True], [2, 0.25]], "demand.atoms[1]"),
        ("cost", "h", {"breakpoints": [[-1, 3, 9], [0, 0], [1, 1]]}, "cost.h.breakpoints[0]"),
    ],
)
def test_bad_config_field_fails_fast_naming_it(tmp_path, section, key, value, field):
    cfg = json.loads(INSTANCE_A.read_text())
    cfg[section][key] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("solve", path, "--alpha", "0.9", "--out", out)
    assert r.returncode == 2, r.stderr
    assert f"{field} must be" in r.stderr and "Traceback" not in r.stderr
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert len(notes) == 1 and notes[0].startswith(f"ModelError: {field} must be")


def test_sweep_full_schedule_passes_and_emits_results(tmp_path):
    out = tmp_path / "sw"
    r = run_cli("sweep", INSTANCE_A, "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    for check in ("cauchy", "assumption_B_bounded", "minimizer_hull_interior",
                  "optimality_inequality", "simulated_average_matches_w"):
        assert manifest["checks"][check]["passed"], check
    # the check compares the grid chain with the exact w(s,S) of the limit policy
    sim = manifest["checks"]["simulated_average_matches_w"]
    assert sim["w_sS"] == pytest.approx(2.9, abs=1e-12)
    assert sim["gap"] == pytest.approx(abs(sim["grid_chain_mean"] - sim["w_sS"]), abs=1e-15)
    assert sim["gap"] <= sim["three_se"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert sim["gap_to_w_estimate"] == pytest.approx(
        abs(summary["simulated_average"] - summary["w_estimate"]), abs=1e-15
    )
    assert sim["continuous_three_se"] > 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "policy_id,criterion,mean,std_error,n_paths,horizon,seed"
    assert rows[1].startswith('"sS(')  # comma inside the id gets RFC-4180 quoting


def test_sweep_exponential_pinned_values(tmp_path):
    # the Monte-Carlo figures at seed 3, to the last bit: a change to the draws,
    # the chains or their float operations shows here
    out = tmp_path / "sw"
    r = run_cli("sweep", EXPONENTIAL, "--seed", "3", "--out", out)
    assert r.returncode == 0, r.stderr
    row = next(csv.DictReader((out / "results.csv").open()))
    # the continuous chain's per-path totals add block sums in step order (before:
    # one pairwise sum per path, 2.9802333422766756 and 0.0014108269234346382)
    assert float(row["mean"]) == 2.980233342276676
    assert float(row["std_error"]) == 0.0014108269234346363
    sim = json.loads((out / "manifest.json").read_text())["checks"]["simulated_average_matches_w"]
    # the grid chain's totals add block sums too (before: one running total carried
    # step by step, 2.983255119317434)
    assert sim["grid_chain_mean"] == 2.9832551193174215


def test_verify_renewal_pinned_values(tmp_path):
    out = tmp_path / "ren"
    r = run_cli("verify", EXPONENTIAL, "--suite", "renewal", "--alpha", "0.9", "--seed", "3",
                "--out", out)
    assert r.returncode == 0, r.stderr
    renewal = json.loads((out / "renewal.json").read_text())
    assert renewal["mean_N"] == 9.9785
    assert renewal["wald"] == {"lhs": 10.983294009591411, "rhs": 10.978497977685535,
                               "z": 0.4651860457816725}
    assert renewal["overshoot"] == {"lhs": 27.458235023978524, "rhs": 301.9087449442138,
                                    "margin": 274.4726178637116}


def test_sweep_failure_still_writes_manifest(tmp_path):
    # a 4-point schedule is honestly not Cauchy at the 1% bar: exit 4, manifest present
    out = tmp_path / "shortsw"
    r = run_cli("sweep", INSTANCE_A, "--schedule", "geometric:4", "--out", out)
    assert r.returncode == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["checks"]["cauchy"]["passed"]
    assert (out / "sweep.csv").exists()


def test_solve_zero_terminal_reports_slope_condition(tmp_path):
    out = tmp_path / "zt"
    r = run_cli("solve", INSTANCE_A, "--alpha", "0.9", "--horizon", "3",
                "--terminal", "zero", "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["slope_condition"]["holds"] is True
    assert manifest["slope_condition"]["quotient"] == -3.0


def test_verify_brute_force_with_expensive_units(tmp_path):
    # steep per-unit cost breaks the slope condition, but the terminal-value
    # route still certifies thresholds: the exhaustive check must pass
    cfg = tmp_path / "c4.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_lo": -20, "x_hi": 20, "step": 1, "integer_mode": True},
                "cost": {"K": 2.0, "c_bar": 4.0, "h": {"breakpoints": [[-1, 3], [0, 0], [1, 1]]}},
                "demand": {"atoms": [[0, 0.25], [1, 0.5], [2, 0.25]]},
            }
        )
    )
    r = run_cli("verify", cfg, "--suite", "brute-force-sS", "--out", tmp_path / "v")
    assert r.returncode == 0, r.stderr + r.stdout
    assert "PASS brute_force_sS.no_better_pair" in r.stdout


def test_verify_detects_failure_with_tight_grid(tmp_path):
    # a grid this tight pushes the argmin to the boundary: certification error path
    cfg = tmp_path / "tight.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"x_lo": -2, "x_hi": 2, "step": 1, "integer_mode": True},
                "cost": {"K": 2.0, "c_bar": 1.0, "h": {"breakpoints": [[-1, 3], [0, 0], [1, 1]]}},
                "demand": {"atoms": [[0, 0.25], [1, 0.5], [2, 0.25]]},
            }
        )
    )
    r = run_cli("solve", cfg, "--alpha", "0.9", "--out", tmp_path / "o")
    assert r.returncode == 2
    assert "grid too narrow" in r.stderr
    assert "(index 4); widen grid.x_hi" in r.stderr  # the argmin sits on the top state
    # the error comes after the output directory exists: the manifest still names it
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert any(n.startswith("ModelError: grid too narrow") for n in manifest["notes"])


def test_sweep_config_error_still_writes_manifest(tmp_path):
    out = tmp_path / "sw"
    r = run_cli("sweep", INSTANCE_A, "--schedule", "0.5,0.4", "--out", out)
    assert r.returncode == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert any(n.startswith("ModelError: ") for n in manifest["notes"])


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_verify_t_max_below_one_is_a_config_error(tmp_path, t_max):
    out = tmp_path / "tmax"
    r = run_cli("verify", INSTANCE_A, "--suite", "action-convergence", "--t-max", t_max,
                "--out", out)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes == [f"ModelError: t_max must be at least 1, got {t_max}"]


@pytest.mark.parametrize(
    "args, note",
    [
        # 7.28 TiB of renewal paths and a 90.2 GiB distance table, refused before allocation
        (("--suite", "renewal", "--paths", "1000000000000"),
         "n_paths (--paths) 1,000,000,000,000 is above the cap of 10,000,000 paths"),
        (("--suite", "renewal", "--paths", "10000001"),
         "n_paths (--paths) 10,000,001 is above the cap of 10,000,000 paths"),
        (("--suite", "renewal", "--paths", "0"), "n_paths (--paths) must be at least 1, got 0"),
        (("--suite", "action-convergence", "--t-max", "100000000"),
         "t_max (--t-max) 100,000,000 needs a 96,800,000,000-byte distance table over 121 "
         "states, above the 268,435,456-byte cap"),
        (("--suite", "all", "--t-max", "277310"),
         "t_max (--t-max) 277,310 needs a 268,436,080-byte distance table over 121 states, "
         "above the 268,435,456-byte cap"),
    ],
)
def test_verify_size_flags_above_their_caps_are_config_errors(tmp_path, args, note):
    out = tmp_path / "big"
    r = run_cli("verify", EXPONENTIAL, *args, "--out", out)
    assert r.returncode == 2, r.stderr
    assert f"config error: {note}" in r.stderr and "Traceback" not in r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"] == [f"ModelError: {note}"] and manifest["checks"] == {}


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    from ssdp import cli

    parser = cli._parser()
    seen = []
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv, real=parser.parse_args: seen.append(real(argv)) or seen[-1])
    solve = ["solve", str(INSTANCE_A), "--alpha", "0.9", "--horizon", "2", "--out",
             str(tmp_path / "s")]
    bad = ["verify", str(INSTANCE_A), "--suite", "nope", "--out", str(tmp_path / "b")]
    verify = ["verify", str(INSTANCE_A), "--suite", "renewal", "--paths", "50", "--out",
              str(tmp_path / "v")]
    assert cli.main(solve) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    assert exc.value.code == 2
    message = capsys.readouterr().err
    assert "invalid choice: 'nope'" in message
    assert cli.main(verify) == 0
    assert cli._parser() is parser and len(seen) == 2  # the bad argv raised inside parse_args
    # each namespace is what a fresh parser makes of its argv: nothing leaks across calls
    for argv, args in zip((solve, verify), seen):
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
    assert "horizon" not in vars(seen[1]) and "suite" not in vars(seen[0])
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(bad)
    assert fresh.value.code == 2 and capsys.readouterr().err == message


def _exponential_with_step(tmp_path, step):
    cfg = json.loads((CONFIGS / "exponential_demand.json").read_text())
    cfg["grid"]["step"] = step
    path = tmp_path / f"exp_{step}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_too_fine_grid_fails_fast_naming_step(tmp_path):
    # the operator's work array would take ~10 TB; rejected before allocation
    out = tmp_path / "fine"
    r = run_cli("solve", _exponential_with_step(tmp_path, 1e-5), "--alpha", "0.99", "--out", out)
    assert r.returncode == 2, r.stderr
    assert "grid.step" in r.stderr and "Traceback" not in r.stderr
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert len(notes) == 1 and notes[0].startswith("ModelError: grid.step 1e-05")


def test_5001_point_grid_solves(tmp_path):
    out = tmp_path / "n5001"
    r = run_cli("solve", _exponential_with_step(tmp_path, 0.006), "--alpha", "0.99", "--out", out)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["k_convex"]["passed"]
    assert len((out / "value.csv").read_text().splitlines()) == 5001 + 1


def test_memory_error_is_noted_in_manifest(tmp_path, monkeypatch):
    from ssdp import cli, policy

    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(policy, "discounted_sS", exhausted)
    out = tmp_path / "mem"
    with pytest.raises(MemoryError):
        cli.main(["solve", str(INSTANCE_A), "--alpha", "0.9", "--out", str(out)])
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes == ["MemoryError: cannot allocate"]


def test_verify_builds_one_kernel(tmp_path, monkeypatch):
    import ssdp.model
    import ssdp.policy
    from ssdp import cli

    calls = []
    real = ssdp.model.build_kernel
    monkeypatch.setattr(ssdp.model, "build_kernel", lambda m: calls.append(1) or real(m))
    # count operator builds at every module that binds the name, not only the model's
    builds = []
    real_op = ssdp.model.post_expectation_matrix
    for mod in (ssdp.model, ssdp.policy):
        if hasattr(mod, "post_expectation_matrix"):
            monkeypatch.setattr(
                mod, "post_expectation_matrix", lambda *a, **k: builds.append(1) or real_op(*a, **k)
            )
    out = tmp_path / "ver"
    assert cli.main(["verify", str(EXPONENTIAL), "--suite", "all", "--paths", "2000",
                     "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(builds) == 1


def test_verify_all_solves_zero_setup_once_with_the_same_details(tmp_path, monkeypatch, capsys):
    from ssdp import cli, dp, policy

    calls, ref_solves = [], []
    real = policy.solve_zero_setup
    monkeypatch.setattr(policy, "solve_zero_setup", lambda *a, **k: calls.append(1) or real(*a, **k))
    real_solve = dp.solve_infinite
    monkeypatch.setattr(dp, "solve_infinite", lambda model, alpha, tol=1e-8: ref_solves.append(
        tol) or real_solve(model, alpha, tol=tol))

    def checks(suite):
        out = tmp_path / suite
        assert cli.main(["verify", str(INSTANCE_A), "--suite", suite, "--paths", "2000",
                         "--out", str(out)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("PASS ")]
        return lines, json.loads((out / "manifest.json").read_text())["checks"]

    together_lines, together = checks("all")
    assert len(calls) == 1
    assert ref_solves.count(dp.ACTION_REF_TOL) == 1  # one reference for both terminals
    suites = [checks(s) for s in ("renewal", "sandwich", "action-convergence", "brute-force-sS")]
    assert len(calls) == 3  # one K = 0 solve per run
    # the suites alone print the same PASS lines, in order, and record the same checks
    assert together_lines == [ln for lines, _ in suites for ln in lines] and len(together_lines) == 8
    assert together == {k: v for _, suite_checks in suites for k, v in suite_checks.items()}


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--alpha", "0.9", "--horizon", "3", "--tol", "1e-3"),
        ("sweep", "--tol", "1e-5"),
        ("verify", "--suite", "all", "--paths", "2000", "--tol", "1e-3"),
    ],
)
def test_coarse_tol_passes_the_g_consistency_check(tmp_path, args):
    # the G-consistency check runs at max(G_CONSISTENCY_TOL, tol) in every command; at
    # 1e-7 these runs missed v by about 2.8e-5 (exit 4) or withheld thresholds at small alpha
    out = tmp_path / "coarse"
    r = run_cli(args[0], EXPONENTIAL, *args[1:], "--out", out)
    assert r.returncode == 0, r.stderr + r.stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"] == [] and manifest["checks"]
    assert all(check["passed"] for check in manifest["checks"].values())

