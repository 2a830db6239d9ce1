#!/usr/bin/env python3
"""Parent-versus-change benchmark pairs for one perfbench workload.

Runs ``python3 perfbench/run.py`` (end-to-end metrics, ``--trace 0``) in two
checkouts, alternating which side goes first from seed to seed, and writes
``BENCH_<label>.json`` with every run, each side's median and quartiles, the
per-seed pairs, the environment and both commits with the line count of
each side's ``src/ssdp/*.py``.  The change is the
checkout this script lives in (its working tree as it stands, flagged when
what the benchmark runs differs from the commit); the parent is
a fresh local clone of ``--parent`` (default ``HEAD``), made in a temporary
directory and removed afterwards:

    python3 scripts/bench.py --workload verify_exp --seeds 701-710

After the pairs it runs one traced run (``--trace 1``: one untraced job, then
two traced ones) per side at the first seed and stores both sides' per-layer
self times and counts, with the change minus the parent for each, under
``traced``: the layer where a saving sits.

Runs are sequential; a full set of 10 pairs of 30-second runs takes about
15 minutes.  A metric counts as improved when the change is better in at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range; it counts as worsened, the mirror image,
when the change is worse in at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  Each metric
also records the relative change of the median, (change - parent) / parent,
and whether it is worse than the parent by more than the metric's ``bound``
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(cwd: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def src_lines(checkout: Path) -> int:
    """Lines in the checkout's src/ssdp/*.py, counted as ``wc -l`` counts them."""
    return sum(p.read_text().count("\n") for p in (checkout / "src" / "ssdp").glob("*.py"))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in ``checkout``.  It gets a new PYTHONPYCACHEPREFIX, which its
    set-up probes inherit, so neither side reads bytecode that its checkout's
    __pycache__ happens to hold and both compile src/ssdp alike.  An untimed import of
    numpy, scipy and scipy.sparse first fills the prefix with their bytecode and that of
    the standard library they load, written even under PYTHONDONTWRITEBYTECODE, so
    set-up time measures src/ssdp rather than the third-party stack."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": pycache}
        warm_env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        subprocess.run([sys.executable, "-c", "import numpy, scipy, scipy.sparse"],
                       cwd=checkout, env=warm_env, capture_output=True, check=True)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True, check=False, env=env,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench failed in {checkout} at seed {seed}:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "environment": {**environment(info["environment"]),
                        "PYTHONPYCACHEPREFIX": "a new directory per run, numpy and scipy "
                                               "precompiled"},
    }


def environment(reported: dict) -> dict:
    """A run's reported environment plus PYTHONDONTWRITEBYTECODE, which the runs
    inherit from this process: when it is set, every set-up probe compiles
    src/ssdp afresh, so setup_s then grows with the lines under src/."""
    return {**reported, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": (q3 - q1) / med if med else None}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, direction = metric["name"], metric["better"]
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"][name]
        pairs = [(p["parent"], p["change"]) for p in by_seed.values()]
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        losses = sum(sign * (p - c) < 0 for p, c in pairs)
        gain = sign * (parent["median"] - change["median"])
        decisive = 0.9 * len(pairs)
        rel = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else None
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "pairs": [[p, c] for p, c in pairs],
            "change_better_pairs": wins,
            "change_worse_pairs": losses,
            "median_ratio": parent["median"] / change["median"] if change["median"] else None,
            "median_rel_change": rel,
            "bound": metric["bound"],
            "beyond_bound": rel is not None and sign * rel > metric["bound"],
            "improved": wins >= decisive and gain > parent["iqr"],
            "worsened": losses >= decisive and -gain > parent["iqr"],
        }
    return out


def traced_layers(parent: dict, change: dict) -> dict:
    """Per-layer metrics of one traced run per side: each side's value and the change
    minus the parent, in the parent's order (that of ``BENCHMARK.json``)."""
    return {name: {"parent": p, "change": change[name], "delta": change[name] - p}
            for name, p in parent.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--label", help="output name BENCH_<label>.json (default: the workload)")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--seeds", default="701-710", help="e.g. 701-710 or 1,5,9")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    seeds = parse_seeds(args.seeds)
    label = args.label or args.workload
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(parent)],
                       check=True)
        git(parent, "checkout", "--quiet", git(ROOT, "rev-parse", args.parent))
        sides = {"parent": parent, "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                r = run_once(sides[side], args.workload, seed, seconds)
                r.update(side=side, seed=seed, ran_first=position == 0)
                runs.append(r)
                print(f"seed {seed} {side:6s} " + "  ".join(
                    f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)
        traced = {side: run_once(sides[side], args.workload, seeds[0], 0.0, trace=1)
                  for side in ("parent", "change")}
        commits = {"parent": git(parent, "rev-parse", "HEAD"),
                   "change": git(ROOT, "rev-parse", "HEAD"),
                   "parent_src_lines": src_lines(parent),
                   "change_src_lines": src_lines(ROOT),
                   "change_has_uncommitted_edits": bool(git(
                       ROOT, "status", "--porcelain", "--", "src", "configs", "perfbench",
                       "BENCHMARK.json"))}
    report = {
        "label": label,
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seeds,
        "commits": commits,
        "environment": runs[0]["environment"],
        "failures": {side: {"attempted": sum(r["attempted"] for r in runs if r["side"] == side),
                            "failed": sum(r["failed"] for r in runs if r["side"] == side),
                            "all_correct": all(r["correct"] for r in runs if r["side"] == side)}
                     for side in ("parent", "change")},
        "summary": summarize(runs, declared["end_to_end"]),
        "traced": {"seed": seeds[0],
                   "correct": {side: r["correct"] for side, r in traced.items()},
                   "layers": traced_layers(traced["parent"]["metrics"],
                                           traced["change"]["metrics"])},
        "runs": [{k: r[k] for k in ("seed", "side", "ran_first", "correct", "attempted",
                                    "failed", "metrics")} for r in runs],
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in report["summary"].items():
        print(f"{name:12s} parent {s['parent']['median']:.4g} (IQR {s['parent']['iqr']:.3g})  "
              f"change {s['change']['median']:.4g} (IQR {s['change']['iqr']:.3g})  "
              f"change better in {s['change_better_pairs']}/{len(seeds)}  "
              f"median change {s['median_rel_change']:+.2%} (bound {s['bound']:.0%}, "
              f"beyond={s['beyond_bound']})  "
              f"improved={s['improved']} worsened={s['worsened']}")
    for name, row in report["traced"]["layers"].items():
        if row["delta"]:  # the self times, and any count that moved
            print(f"traced {name:40s} parent {row['parent']:.4g}  change {row['change']:.4g}  "
                  f"delta {row['delta']:+.4g}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
