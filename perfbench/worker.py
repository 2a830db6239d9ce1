"""Run one workload's CLI jobs back to back in this process and check each.

Started by run.py with BLAS pinned to one thread.  Usage:

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1
                      --config FILE --probes K --run-dir DIR --result FILE

Jobs are closed-loop: the next starts when the previous one has finished
and been checked, as long as a job of median length still fits in
``--seconds``.  After each job, until there are K, a fresh process measures
the set-up time.  With ``--trace 1`` the first job runs untraced, as the
reference for the tracing overhead, and the rest run traced.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import sparse  # noqa: E402

import ssdp  # noqa: E402
import ssdp.cli  # noqa: E402
from ssdp import average, config, dp, io, model, policy, renewal, simulate  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE_MODULES = (ssdp, config, model, dp, policy, average, simulate, renewal, io, ssdp.cli)

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
LAYER_METRICS = [m["name"] for m in PER_LAYER]
# Exact per-job counts that must repeat between jobs at one seed.  The bytes
# written vary with the manifest's timestamps, so they are left out.
REPEATED_COUNTS = [m["name"] for m in PER_LAYER
                   if m["unit"] in ("count", "bytes") and m["name"] != "io.bytes_written"]


# -- tracing ---------------------------------------------------------------


def _operator_bytes(kernel) -> int:
    m = getattr(kernel, "matrix", None)
    if sparse.issparse(m):
        return int(sum(getattr(m, a).nbytes for a in ("data", "indices", "indptr") if hasattr(m, a)))
    return int(getattr(m, "nbytes", 0))


def install_tracer() -> Tracer:
    t = Tracer(PACKAGE_MODULES)
    t.span(config, "load_model", "config.load_model")
    t.span(model, "discretize_demand", "model.discretize_demand")
    t.span(model, "build_kernel", "model.build_kernel",
           lambda tr, a, r: tr.gauge_max("model.operator_bytes", _operator_bytes(r)))
    t.span(model, "build_cost", "model.build_cost")
    t.span(model, "post_expectation_matrix", "model.post_expectation_matrix")
    t.method_span(model.InventoryModel, "expected_h", "model.expected_h")
    t.method_count(model.Kernel, "expect", "model.kernel_expect.calls")
    t.span(dp, "solve_infinite", "dp.solve_infinite",
           lambda tr, a, r: tr.add("dp.bellman_sweeps", r.iterations))
    t.span(dp, "policy_evaluation", "dp.policy_evaluation")
    t.span(dp, "solve_finite", "dp.solve_finite",
           lambda tr, a, r: tr.add("dp.finite_stages", a["n_periods"]))
    t.span(dp, "track_action_convergence", "dp.track_action_convergence",
           lambda tr, a, r: tr.add("dp.finite_stages", a["t_max"]))
    t.span(policy, "discounted_sS", "policy.discounted_sS")
    t.span(policy, "build_G", "policy.build_G")
    t.span(policy, "is_K_convex", "policy.is_K_convex")
    t.span(policy, "solve_zero_setup", "policy.solve_zero_setup")
    # computed: one linear solve per grid pair s <= S
    t.span(policy, "brute_force_sS_check", "policy.brute_force_sS_check",
           lambda tr, a, r: tr.add("policy.brute_force_pairs",
                                   a["model"].grid.n * (a["model"].grid.n + 1) // 2))
    t.span(policy, "average_sS", "policy.average_sS")

    def on_sweep(tr, a, r):
        tried = len(a["schedule"]) if a["schedule"] is not None else len(r.records)
        tr.add("average.alphas_attempted", tried)
        tr.add("average.sweep.alphas", len(r.records))
        tr.add("average.alphas_with_sS", sum(rec.s is not None for rec in r.records))

    t.span(average, "sweep", "average.sweep", on_sweep)
    t.span(average, "check_optimality_inequality", "average.check_optimality_inequality")
    t.span(simulate, "simulate_average", "simulate.simulate_average",
           lambda tr, a, r: tr.add("simulate.path_steps", a["cfg"].n_paths * a["cfg"].horizon))
    t.span(renewal, "sample_renewal", "renewal.sample_renewal",
           lambda tr, a, r: tr.add("renewal.draws", int(r.counts.sum()) + r.n_paths))
    for name in io.__all__:
        if name.startswith("write_"):
            t.span(io, name, "io.write")
    t.span(ssdp.cli, "main", "cli.main")
    return t


def layer_metrics(tracer: Tracer, job: int, cpu_s: float, out: Path) -> dict:
    summary = tracer.job_summary(job)
    counts = tracer.counts[job]
    op_bytes = tracer.maxima[job].get("model.operator_bytes", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {name: self_s(name[:-2]) for name in LAYER_METRICS if name.endswith(".s")}
    m.update({name: calls(name[: -len(".calls")]) for name in LAYER_METRICS
              if name.endswith(".calls")})
    attempted = counts["average.alphas_attempted"]
    m.update({
        "model.kernel_expect.calls": counts["model.kernel_expect.calls"],
        "model.operator_bytes": op_bytes,
        "dp.bellman_sweeps": counts["dp.bellman_sweeps"],
        "dp.matvec_bytes": counts["model.kernel_expect.calls"] * op_bytes,
        "dp.finite_stages": counts["dp.finite_stages"],
        "dp.convergence_errors": sum(v for k, v in counts.items()
                                     if k.startswith("exc.dp.") and k.endswith(".ConvergenceError")),
        "policy.brute_force_pairs": counts["policy.brute_force_pairs"],
        "average.sweep.alphas": counts["average.sweep.alphas"],
        "average.threshold_yield": rate(counts["average.alphas_with_sS"], attempted),
        "simulate.path_steps": counts["simulate.path_steps"],
        "simulate.path_steps_per_s": rate(counts["simulate.path_steps"],
                                          incl_s("simulate.simulate_average")),
        "renewal.draws": counts["renewal.draws"],
        "renewal.draws_per_s": rate(counts["renewal.draws"], incl_s("renewal.sample_renewal")),
        "io.bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "cli.self.s": self_s("cli.main"),
        "proc.cpu_s": cpu_s,
        "trace.layer_share": 1.0 - rate(self_s("cli.main"), incl_s("cli.main")),
    })
    return m


# -- environment -----------------------------------------------------------


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- job loop --------------------------------------------------------------


def output_digests(out: Path) -> dict:
    """sha256 of every output except the manifest, which holds timestamps."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def probe(cfg: Path) -> float:
    """Set-up seconds measured by probe.py in a fresh process.

    One probe runs after each job, so the samples spread over the whole run
    instead of one burst, which evens out slow spells of a shared machine.
    """
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(ROOT / "src"), str(cfg)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    cfg = Path(args.config)
    config.load_model(cfg)  # finish lazy imports (scipy.stats) before timing
    min_jobs = 3 if args.trace else 2
    tracer = None
    jobs = []
    ref_digests = ref_counts = None
    setup_s = []
    start = time.perf_counter()
    # start another job only if it should end within the time budget, which
    # the set-up probes between jobs do not use
    while len(jobs) < min_jobs or (
        time.perf_counter() - start - sum(setup_s)
        + statistics.median(j["wall_s"] for j in jobs)
        <= args.seconds
    ):
        k = len(jobs)
        traced = bool(args.trace) and k > 0
        if traced and tracer is None:
            tracer = install_tracer()
        out = run_dir / f"job{k}"
        argv = wl["argv"](cfg, out, args.seed)
        if traced:
            tracer.job = k
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            rc = ssdp.cli.main(argv)
        except Exception:  # a crashed job is a failed job; the loop goes on
            traceback.print_exc()
            rc = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.job = None

        try:
            failures, statistical = wl["check"](out)
        except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
            failures, statistical = [f"outputs unreadable: {exc!r}"], []
        if rc is None:
            failures.append("the CLI raised an exception; see worker.log")
        elif rc != 0 and not (rc == ssdp.cli.EXIT_VERIFICATION and statistical and not failures):
            failures.append(f"exit code {rc}")
        digests = output_digests(out)
        row = {"job": k, "traced": traced, "exit_code": rc, "wall_s": wall, "cpu_s": cpu}
        if traced:
            row["layers"] = layer_metrics(tracer, k, cpu, out)
        if ref_digests is None:
            ref_digests = digests
        elif digests != ref_digests:
            changed = {f for f, _ in set(digests.items()) ^ set(ref_digests.items())}
            failures.append(f"output bytes differ from job 0: {sorted(changed)}")
        if traced:
            counts = {c: row["layers"][c] for c in REPEATED_COUNTS}
            if ref_counts is None:
                ref_counts = counts
            elif counts != ref_counts:
                failures.append(f"exact counts differ between jobs: {counts} vs {ref_counts}")
        row["failures"], row["statistical"] = failures, statistical
        jobs.append(row)
        if len(setup_s) < args.probes:
            setup_s.append(probe(cfg))
    while len(setup_s) < args.probes:
        setup_s.append(probe(cfg))

    result = {
        "jobs": jobs,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        traced_rows = [j for j in jobs if j["traced"]]
        overhead = statistics.median(j["wall_s"] for j in traced_rows) - jobs[0]["wall_s"]
        layers = {}
        for name in traced_rows[0]["layers"]:
            values = [j["layers"][name] for j in traced_rows]
            exact = all(isinstance(v, int) for v in values)
            layers[name] = statistics.median_low(values) if exact else statistics.median(values)
        layers["trace.overhead_s"] = overhead
        result["layers"] = layers
        spans_path = run_dir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
