"""ssdp benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_exp|solve_fine|verify_exp \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures ``setup_s`` (median over fresh processes),
``job_s`` (median wall time of one CLI job) and ``peak_rss_mb`` (peak
resident memory of the process running the jobs).  With ``--trace 1`` it
runs the jobs with spans around the calls into each ssdp module and reports
the per-layer metrics named in BENCHMARK.json.  Every job's outputs are
checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans, job logs and a
full report are written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "ssdp" / "cli.py", ROOT / "configs" / "exponential_demand.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the ssdp repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, nominal_false_alarm

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = WORKLOADS[args.workload]["config"](ROOT, run_dir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    result_path = run_dir / "worker.json"
    with open(run_dir / "worker.log", "w") as log, subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--config", str(cfg),
         "--probes", "0" if args.trace else str(SETUP_PROBES),
         "--run-dir", str(run_dir), "--result", str(result_path)],
        cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        start_new_session=True,  # its own process group, with the probes it starts
    ) as worker:
        try:
            worker.wait(timeout=DEADLINE_S - (time.monotonic() - start))
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            return fail(f"run exceeded {DEADLINE_S:.0f} s")
    if worker.returncode != 0:
        return fail(f"worker exited {worker.returncode}; see {run_dir / 'worker.log'}")
    res = json.loads(result_path.read_text())

    jobs = res["jobs"]
    failed = [j for j in jobs if j["failures"] or j["statistical"]]
    wrong = [j for j in jobs if j["failures"]]
    for j in failed:
        for reason in j["failures"] + j["statistical"]:
            print(f"perfbench: job {j['job']} failed: {reason}", file=sys.stderr)
    timed = [j["wall_s"] for j in jobs if not j["traced"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(res["setup_s"]),
            "job_s": statistics.median(timed),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    if set(units) - set(values):
        return fail(f"no value for metrics {sorted(set(units) - set(values))}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "environment": res["environment"],
        "setup_s_samples": res["setup_s"],
        "jobs": [{k: j[k] for k in ("job", "traced", "exit_code", "wall_s", "cpu_s")}
                 for j in jobs],
        "job_s_max": max(j["wall_s"] for j in jobs),
        "failure_share": len(failed) / len(jobs),
        "statistical_failures": sum(bool(j["statistical"]) for j in jobs),
        "nominal_false_alarm_per_job": nominal_false_alarm(args.workload),
        "spans": res.get("spans"),
        "metrics": metrics,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs, {len(failed)} failed "
          f"(nominal false-alarm rate {report['nominal_false_alarm_per_job']:.2%} per job)")
    if not args.trace:
        print(f"  setup_s     {values['setup_s']:9.4f} s   median of {len(res['setup_s'])} fresh processes")
        print(f"  job_s       {values['job_s']:9.4f} s   median of {len(timed)} jobs, "
              f"max {max(timed):.4f} s")
        print(f"  peak_rss_mb {values['peak_rss_mb']:9.1f} MB")
    else:
        for n, u in units.items():
            print(f"  {n:40s} {values[n]:>16.6g} {u}")
    print(json.dumps({"environment": res["environment"], "commit": report["commit"],
                      "seed": args.seed, "report": str((run_dir / "report.json").relative_to(ROOT))}))
    print(json.dumps({"correct": not wrong, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
