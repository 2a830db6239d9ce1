"""Command-line front end.

Subcommands::

    ssdp solve  CONFIG --alpha A [--horizon N] [--terminal zero|v0alpha] --out DIR
    ssdp sweep  CONFIG [--schedule geometric:12] --out DIR
    ssdp verify CONFIG --suite renewal|sandwich|action-convergence|brute-force-sS|all --out DIR

Exit codes: 0 success, 2 usage/config error, 3 solver non-convergence,
4 verification failure.  Every run writes a JSON manifest recording the
seed, outputs, and per-check pass/fail; CSV outputs are byte-reproducible
for a fixed config and seed at any worker count.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, average, policy
from .config import load_model
from .dp import (
    ConvergenceError,
    TerminalValue,
    _check_alpha,
    _check_tol,
    check_t_max,
    solve_finite,
    solve_infinite,
    track_action_convergence,
)
from .io import (
    RunManifest,
    write_json,
    write_manifest,
    write_results_csv,
    write_solve_csv,
    write_solve_sidecar,
    write_sweep_csv,
    write_threshold_csv,
)
from .model import ModelError
from .renewal import check_paths, overshoot_bound_check, sample_renewal, wald_check
from .simulate import SimConfig, simulate_average

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFICATION = 4


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_schedule(text: str) -> list[float]:
    if text.startswith("geometric:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ModelError(f"bad schedule spec {text!r}") from None
        return average.geometric_schedule(n)
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ModelError(f"bad schedule spec {text!r}") from None
    return values


def _manifest(args, command: str) -> RunManifest:
    return RunManifest(
        command=command,
        config=str(args.config),
        seed=args.seed,
        version=__version__,
        started_at=_now(),
    )


@contextmanager
def _recorded(out_dir: Path, manifest: RunManifest):
    """Write the manifest however the block ends, noting a config, solver or memory error."""
    try:
        yield
    except (ModelError, ConvergenceError, MemoryError) as exc:
        manifest.notes.append(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        manifest.finished_at = _now()
        path = out_dir / "manifest.json"
        write_manifest(path, manifest)
        print(f"manifest: {path}")


def _output(manifest: RunManifest, out: Path, name: str, write, *args) -> None:
    write(out / name, *args)
    manifest.add_output(name)


def _exit_code(manifest: RunManifest) -> int:
    if not manifest.all_passed:
        failed = [k for k, v in manifest.checks.items() if not v["passed"]]
        print(f"verification failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_solve(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, "solve")
    with _recorded(out, manifest):
        _check_alpha(args.alpha)
        _check_tol(args.tol)  # before any branch that never solves
        if args.horizon is not None and args.horizon < 1:
            raise ModelError("horizon must be at least 1")
        model = load_model(args.config)
        try:
            if args.horizon is None:
                result = policy.discounted_sS(model, solve_infinite(model, args.alpha, tol=args.tol))
                solve = result.solve
                _output(manifest, out, "value.csv", write_solve_csv, solve.value, solve.policy)
                _output(manifest, out, "value_meta.json", write_solve_sidecar, solve)
                manifest.extra["certified_error_bound"] = solve.certified_error_bound
                cert = result.k_convexity
                manifest.add_check(
                    "k_convex",
                    cert.verdict,
                    worst_violation=cert.worst_violation,
                    worst_triple=cert.worst_triple,
                )
                _output(manifest, out, "k_convexity.json", write_json, asdict(cert))
                pol = result.policy
                s, S = (None, None) if pol is None else (pol.s, pol.S)
                g_min = float(result.g.min())
                row = (f"alpha={args.alpha}", s, S, g_min, cert.verdict, solve.clamp_events)
                _output(manifest, out, "thresholds.csv", write_threshold_csv, [row])
                if pol is not None:
                    manifest.add_check(
                        "policy_evaluation_gap",
                        result.eval_gap <= 10 * args.tol,
                        gap=result.eval_gap,
                    )
                    manifest.extra.update(s=s, S=S)
                else:
                    manifest.notes.append(result.explanation)
            else:
                check_t_max(args.horizon, model.grid.n, "horizon (--horizon)", "value")
                if args.terminal == "v0alpha":
                    fs = policy.finite_horizon_sS(model, args.alpha, args.horizon, tol=args.tol)
                    manifest.add_check("threshold_dp_agreement", fs.agreement_ok)
                else:
                    fs = policy.finite_horizon_sS(
                        model, args.alpha, args.horizon, terminal=TerminalValue.zero(model.grid)
                    )
                    slope = policy.slope_condition(model)
                    manifest.extra["slope_condition"] = {
                        "holds": slope.holds,
                        "witness": slope.witness,
                        "quotient": slope.quotient,
                    }
                manifest.notes.extend(fs.warnings)
                certs = fs.certifications
                rows = [
                    (f"t={t}", *((None, None) if sp is None else sp.pair()), None, cert.verdict, None)
                    for t, (sp, cert) in enumerate(zip(fs.policies, certs))
                ]
                _output(manifest, out, "thresholds.csv", write_threshold_csv, rows)
                worst = max(certs, key=lambda c: c.worst_violation)
                manifest.add_check(
                    "k_convex",
                    all(c.verdict for c in certs),
                    worst_violation=worst.worst_violation,
                    worst_triple=worst.worst_triple,
                )
                final = (fs.finite.values[-1], fs.finite.policies[-1])
                _output(manifest, out, "value.csv", write_solve_csv, *final)
        except policy.CertificationError as exc:
            manifest.add_check("certification", False, error=str(exc))
            print(f"verification failure: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
    return _exit_code(manifest)


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, "sweep")
    with _recorded(out, manifest):
        _check_tol(args.tol)
        schedule = _parse_schedule(args.schedule)
        model = load_model(args.config)
        if model.demand.p_positive == 0.0:
            result = policy.average_sS(model)
            manifest.notes.append(result.note)
            row = ("average", result.policy.s, result.policy.S, None, None, None)
            _output(manifest, out, "thresholds.csv", write_threshold_csv, [row])
            manifest.extra["degenerate_zero_demand"] = True
            return EXIT_OK
        sw = average.sweep(model, schedule, tol=args.tol)
        _output(manifest, out, "sweep.csv", write_sweep_csv, sw)
        for w in sw.warnings:
            manifest.notes.append(w)
        limit_ok = len(sw.records) >= 3
        summary = {
            "w_estimate": sw.w_estimate,
            "alphas": sw.alphas,
            "cauchy": sw.cauchy,
            "partial": sw.partial,
        }
        if limit_ok:
            manifest.add_check("cauchy", sw.cauchy, last_diffs=list(map(float, sw.diffs[-2:])))
            bdiag = average.assumption_B_diagnostic(sw)
            manifest.add_check(
                "assumption_B_bounded",
                bdiag.bounded,
                offending_states=bdiag.offending_states.tolist(),
            )
            summary["assumption_B"] = bdiag.verdict
            hull = average.minimizer_set_diagnostic(sw)
            manifest.add_check("minimizer_hull_interior", hull.interior_ok, lo=hull.lo, hi=hull.hi)
            try:
                avg_result = policy.average_sS(model, sweep_result=sw)
            except policy.CertificationError as exc:
                manifest.add_check("limit_thresholds", False, error=str(exc))
                print(f"verification failure: {exc}", file=sys.stderr)
                return EXIT_VERIFICATION
            manifest.add_check("thresholds_settled", avg_result.settled)
            manifest.add_check("thresholds_interior", avg_result.bounded_ok)
            oi = avg_result.optimality
            manifest.add_check(
                "optimality_inequality",
                oi.passes,
                max_interior_residual=oi.max_interior,
                slack=oi.slack,
            )
            summary["s"] = avg_result.policy.s
            summary["S"] = avg_result.policy.S
            summary["optimality_residuals"] = {
                "per_state": oi.residuals.tolist(),
                "max_interior": oi.max_interior,
                "max_boundary": oi.max_boundary,
                "slack": oi.slack,
            }
            sim = simulate_average(
                model,
                SimConfig(
                    x0=avg_result.policy.S,
                    horizon=4000,
                    n_paths=256,
                    seed=args.seed,
                    policy=avg_result.policy,
                ),
            )
            row = (sim.policy_id, sim.criterion, sim.mean, sim.std_error, sim.n_paths,
                   sim.horizon, sim.seed)
            _output(manifest, out, "results.csv", write_results_csv, [row])
            # the grid chain is the chain w(s,S) describes; the continuous chain
            # (results.csv) is reported against w_estimate but not checked
            grid_sim = sim.grid_chain
            w_sS = average.exact_average_cost(model, avg_result.policy)
            gap = abs(grid_sim.mean - w_sS)
            manifest.add_check(
                "simulated_average_matches_w",
                gap <= 3.0 * grid_sim.std_error,
                gap=gap,
                three_se=3.0 * grid_sim.std_error,
                grid_chain_mean=grid_sim.mean,
                w_sS=w_sS,
                gap_to_w_estimate=abs(sim.mean - sw.w_estimate),
                continuous_three_se=3.0 * sim.std_error,
            )
            summary["simulated_average"] = sim.mean
        _output(manifest, out, "sweep_summary.json", write_json, summary)
    return _exit_code(manifest)


def _suite_renewal(model, args, manifest, out, solved, zero_setup):
    sample = sample_renewal(model.demand, y=10.0, n_paths=args.paths, seed=args.seed)
    wald = wald_check(sample, model.demand)
    over = overshoot_bound_check(model, x=0.0, y=10.0, n_paths=args.paths, seed=args.seed, sample=sample)
    payload = {
        "y": 10.0,
        "n_paths": args.paths,
        "seed": args.seed,
        "mean_N": sample.mean_count,
        "wald": {"lhs": wald.lhs, "rhs": wald.rhs, "z": wald.z},
        "overshoot": {"lhs": over.lhs, "rhs": over.rhs, "margin": over.margin},
    }
    _output(manifest, out, "renewal.json", write_json, payload)
    return [
        ("renewal.wald_z_within_4", wald.passes, f"z={wald.z}"),
        ("renewal.overshoot_bound", over.passes, f"margin={over.margin}"),
    ]


def _suite_sandwich(model, args, manifest, out, solved, zero_setup):
    alpha, tol, horizon = args.alpha, args.tol, 40
    report = solved()
    zs = zero_setup()
    v0 = solve_finite(model, horizon, TerminalValue.zero(model.grid), alpha).values
    monotone = bool(np.all(np.diff(v0, axis=0) >= -1e-12))
    vF = solve_finite(model, horizon, zs.terminal(), alpha).values
    sandwich = bool(np.all(v0 <= vF + 1e-12) and np.all(vF <= report.value[None, :] + tol))
    g_alpha = policy.build_G(model, report.value, alpha, tol=tol)
    # zs.g0 <= G_0 <= ... <= G_{horizon-1} <= g_alpha, G_t from vF_t in one stacked call
    G = np.vstack((zs.g0, policy.build_G(model, vF[:horizon], alpha)))
    chain = bool(np.all(G[:-1] <= G[1:] + 1e-12) and np.all(G[-1] <= g_alpha + tol))
    return [
        ("sandwich.value_monotone_in_t", monotone, f"horizon={horizon}"),
        ("sandwich.terminal_between_0_and_v", sandwich, f"alpha={alpha}"),
        ("sandwich.g_chain_ordered", chain, f"alpha={alpha}"),
    ]


def _suite_action_convergence(model, args, manifest, out, solved, zero_setup):
    terminals = (TerminalValue.zero(model.grid), zero_setup().terminal())
    reports = track_action_convergence(model, args.alpha, terminals, t_max=args.t_max)
    return [(f"action_convergence.terminal_{f.id}", rep.all_settled,
             f"max_t_star={int(rep.settle_t.max())}" if rep.all_settled
             else f"unsettled_states={rep.unsettled.tolist()}")
            for f, rep in zip(terminals, reports)]


def _suite_brute_force(model, args, manifest, out, solved, zero_setup):
    report = policy.brute_force_sS_check(model, solved())
    return [
        (
            "brute_force_sS.no_better_pair",
            report.passes,
            f"worst_gap={report.worst_gap} pair={report.best_pair}",
        )
    ]


def cmd_verify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(args, "verify")
    suites = {
        "renewal": _suite_renewal,
        "sandwich": _suite_sandwich,
        "action-convergence": _suite_action_convergence,
        "brute-force-sS": _suite_brute_force,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    failures = 0
    with _recorded(out, manifest):
        _check_alpha(args.alpha)
        _check_tol(args.tol)  # before any branch that never solves
        model = load_model(args.config)
        if args.suite == "all" and model.demand.p_positive == 0.0:
            # renewal theory needs P(D > 0) > 0; asked for alone, the suite still fails
            selected.remove("renewal")
            manifest.notes.append("renewal suite skipped: zero demand almost surely, P(D > 0) = 0")
        # size flags are checked before any suite allocates
        if "renewal" in selected:
            check_paths(args.paths)
        if "action-convergence" in selected:
            check_t_max(args.t_max, model.grid.n)
        # the discounted solve and the K = 0 solve, each made once for the suites that read it
        solved = functools.cache(lambda: solve_infinite(model, args.alpha, tol=args.tol))
        zero_setup = functools.cache(lambda: policy.solve_zero_setup(model, args.alpha, tol=args.tol))
        try:
            for name in selected:
                for check, passed, detail in suites[name](model, args, manifest, out, solved, zero_setup):
                    manifest.add_check(check, passed, detail=detail)
                    print(f"{'PASS' if passed else 'FAIL'} {check}: {detail}")
                    failures += 0 if passed else 1
        except policy.CertificationError as exc:
            manifest.add_check("certification", False, error=str(exc))
            print(f"verification failure: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
    return EXIT_VERIFICATION if failures else EXIT_OK


def _seed(text: str) -> int:
    """A run seed: numpy's SeedSequence takes non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ssdp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="model config JSON")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=_seed, default=0, help="run seed recorded in the manifest")
    common.add_argument(
        "--workers", type=int, default=1, help="no effect: results are the same at any value"
    )

    ps = sub.add_parser("solve", parents=[common], help="discounted solve and (s,S) extraction")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--horizon", type=int, default=None)
    ps.add_argument("--terminal", choices=["zero", "v0alpha"], default="v0alpha")
    ps.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    ps.set_defaults(fn=cmd_solve)

    pw = sub.add_parser("sweep", parents=[common], help="vanishing-discount average-cost sweep")
    pw.add_argument("--schedule", default="geometric:12")
    # sweeps need a tolerance compatible with the G consistency check at small alpha
    pw.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
    pw.set_defaults(fn=cmd_sweep)

    pv = sub.add_parser("verify", parents=[common], help="invariant verification suites")
    pv.add_argument(
        "--suite",
        choices=["renewal", "sandwich", "action-convergence", "brute-force-sS", "all"],
        required=True,
    )
    pv.add_argument("--alpha", type=float, default=0.9)
    pv.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    pv.add_argument("--paths", type=int, default=100_000)
    pv.add_argument("--t-max", type=int, dest="t_max", default=200)
    pv.set_defaults(fn=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
