"""Smoke runs of the scripts under scripts/ on small settings."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


def test_grid_refinement_script():
    r = run_script("run_grid_refinement.py", "--steps", "1.0", "0.5")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[1].split() == ["step", "n", "s", "S", "v(0)", "clamps"]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], row[1]) for row in rows] == [("1.00", "33"), ("0.50", "65")]
    assert all(int(row[5]) > 0 for row in rows)  # the clamp counts are read and printed


def test_instance_a_script():
    r = run_script("run_instance_a.py", "--schedule", "6")
    assert r.returncode == 0, r.stderr
    assert "(s,S) = (1.0, 2.0), K-convex ok = True" in r.stdout
    assert "vanishing-discount sweep (6 factors):" in r.stdout
    assert "policy comparison (exact average cost w(s,S) on the grid chain):" in r.stdout


def load_bench():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def synthetic_runs(parent, change):
    """Benchmark runs with one metric ``job_s``, one parent and one change run per seed."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs.append({"seed": seed, "side": "parent", "metrics": {"job_s": p}})
        runs.append({"seed": seed, "side": "change", "metrics": {"job_s": c}})
    return runs


def job_s(better, bound=0.25):
    """The declared metrics of ``BENCHMARK.json``'s form: ``job_s`` alone."""
    return [{"name": "job_s", "better": better, "bound": bound}]


def test_bench_summary_flags_improved_and_worsened():
    summarize = load_bench().summarize
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [p / 2 for p in parent]
    slower = [p * 1.5 for p in parent]
    s = summarize(synthetic_runs(parent, faster), job_s("lower"))["job_s"]
    assert (s["improved"], s["worsened"], s["change_better_pairs"]) == (True, False, 10)
    assert (s["median_rel_change"], s["beyond_bound"]) == (-0.5, False)
    s = summarize(synthetic_runs(parent, slower), job_s("lower"))["job_s"]
    assert (s["improved"], s["worsened"], s["change_worse_pairs"]) == (False, True, 10)
    assert (s["median_rel_change"], s["beyond_bound"]) == (0.5, True)
    # worse by 50%, but the bound allows 60%
    assert not summarize(synthetic_runs(parent, slower), job_s("lower", 0.6))["job_s"]["beyond_bound"]
    # for a higher-is-better metric the same numbers swap roles
    s = summarize(synthetic_runs(parent, slower), job_s("higher"))["job_s"]
    assert (s["improved"], s["worsened"], s["beyond_bound"]) == (True, False, False)
    assert summarize(synthetic_runs(parent, faster), job_s("higher"))["job_s"]["beyond_bound"]


def test_bench_summary_needs_nine_pairs_and_a_gap_beyond_the_iqr():
    summarize = load_bench().summarize
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    # worse in 8 of 10 pairs only
    mixed = [p * 1.5 for p in parent[:8]] + [p * 0.5 for p in parent[8:]]
    s = summarize(synthetic_runs(parent, mixed), job_s("lower"))["job_s"]
    assert (s["change_worse_pairs"], s["improved"], s["worsened"]) == (8, False, False)
    # worse in every pair, but by less than the parent's interquartile range
    close = [p + 0.001 for p in parent]
    s = summarize(synthetic_runs(parent, close), job_s("lower"))["job_s"]
    assert s["change_worse_pairs"] == 10 and s["parent"]["iqr"] > 0.001
    assert (s["improved"], s["worsened"]) == (False, False)


def test_bench_records_the_bytecode_setting(monkeypatch):
    environment = load_bench().environment
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert environment({"python": "3.11.7"}) == {"python": "3.11.7", "PYTHONDONTWRITEBYTECODE": "1"}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert environment({"python": "3.11.7"})["PYTHONDONTWRITEBYTECODE"] is None


def test_bench_counts_src_lines_like_wc(tmp_path):
    src_lines = load_bench().src_lines
    pkg = tmp_path / "src" / "ssdp"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nw = 4")  # no newline at the end: wc -l counts 1
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    assert src_lines(tmp_path) == 4


def test_bench_records_the_traced_layers_of_both_sides(monkeypatch):
    import json
    from types import SimpleNamespace

    bench = load_bench()
    reports = {
        "parent": {"renewal.sample_renewal.s": 0.0305, "cli.self.s": 0.0080,
                   "renewal.draws": 1098635, "proc.cpu_s": 0.0695},
        "change": {"renewal.sample_renewal.s": 0.0200, "cli.self.s": 0.0060,
                   "renewal.draws": 1098635, "proc.cpu_s": 0.0560},
    }
    argvs = []

    def fake_run(argv, cwd, **kwargs):
        if "perfbench/run.py" not in argv:  # the untimed warm-up
            return SimpleNamespace(returncode=0)
        # run.py's last two lines: the environment, then the result
        argvs.append(argv)
        metrics = {k: {"value": v, "unit": "s"} for k, v in reports[cwd.name].items()}
        out = [json.dumps({"environment": {"python": "3.11.7"}}),
               json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})]
        return SimpleNamespace(returncode=0, stdout="perfbench ...\n" + "\n".join(out), stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    runs = {side: bench.run_once(Path(side), "verify_exp", 701, 0.0, trace=1)
            for side in ("parent", "change")}
    assert all(argv[argv.index("--trace") + 1] == "1" for argv in argvs)
    layers = bench.traced_layers(runs["parent"]["metrics"], runs["change"]["metrics"])
    assert list(layers) == list(reports["parent"])
    assert layers["renewal.sample_renewal.s"] == {"parent": 0.0305, "change": 0.0200,
                                                  "delta": 0.0200 - 0.0305}
    assert layers["cli.self.s"]["delta"] < 0 and layers["renewal.draws"]["delta"] == 0


def test_bench_gives_every_run_of_both_sides_a_fresh_pycache_prefix(monkeypatch):
    import json
    from types import SimpleNamespace

    bench = load_bench()
    prefixes = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        if "perfbench/run.py" not in argv:  # the warm-up comes first, into an empty prefix
            assert prefix.is_dir() and not any(prefix.iterdir())
            return SimpleNamespace(returncode=0)
        prefixes.append((cwd.name, prefix))
        out = [json.dumps({"environment": {"python": "3.11.7"}}),
               json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})]
        return SimpleNamespace(returncode=0, stdout="\n".join(out), stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    runs = [bench.run_once(Path(side), "verify_exp", 701, 0.0)
            for side in ("parent", "change", "change", "parent")]
    assert [side for side, _ in prefixes] == ["parent", "change", "change", "parent"]
    assert len({prefix for _, prefix in prefixes}) == 4  # one per run
    assert not any(prefix.exists() for _, prefix in prefixes)  # removed after the run
    assert all(r["environment"]["PYTHONPYCACHEPREFIX"]
               == "a new directory per run, numpy and scipy precompiled" for r in runs)


def test_bench_warms_each_prefix_with_numpy_and_scipy_before_the_run(monkeypatch):
    # under PYTHONDONTWRITEBYTECODE a fresh prefix made every set-up probe compile numpy,
    # scipy and the standard library, which hid src/ssdp's own share of setup_s
    import json
    from types import SimpleNamespace

    bench = load_bench()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append((argv, cwd.name, prefix, env.get("PYTHONDONTWRITEBYTECODE"),
                      sorted(p.name for p in prefix.iterdir())))
        if "perfbench/run.py" not in argv:
            (prefix / "numpy").mkdir()  # what the warm-up's imports leave behind
            return SimpleNamespace(returncode=0)
        out = [json.dumps({"environment": {"python": "3.11.7"}}),
               json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})]
        return SimpleNamespace(returncode=0, stdout="\n".join(out), stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        bench.run_once(Path(side), "sweep_exp", 701, 0.0)
    assert [c[1] for c in calls] == ["parent", "parent", "change", "change"]
    for warm, run in (calls[:2], calls[2:]):
        assert warm[0] == [bench.sys.executable, "-c", "import numpy, scipy, scipy.sparse"]
        assert (warm[3], warm[4]) == (None, [])  # writes bytecode, into an empty prefix
        assert "perfbench/run.py" in run[0] and run[2] == warm[2]
        assert (run[3], run[4]) == ("1", ["numpy"])  # src/ssdp still compiles from source
