import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]

# the modules perfbench's tracer wraps: it looks up every name in each
# module's __all__, so a stale export breaks a traced run
_MODULES = ("linalg", "cholqr", "randevd", "precond", "cg", "beamspace",
            "scenario", "evaluation", "cli")


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("ltbf." + name)
    exports = getattr(module, "__all__", ())
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, missing
    assert len(set(exports)) == len(exports)


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).rsplit(".", 1)[-1]
        elif isinstance(node, ast.arg):
            yield node.arg


def test_package_holds_no_oracle():
    # the slow reference routes live in tests/oracles.py; no module of the
    # package defines, imports or binds one, so no production path can
    # fall back into a loop
    paths = sorted((_ROOT / "src" / "ltbf").glob("*.py"))
    assert paths
    for path in paths:
        module = importlib.import_module(
            "ltbf" if path.stem == "__init__" else "ltbf." + path.stem)
        names = set(vars(module)) | set(_bound_names(
            ast.parse(path.read_text(), str(path))))
        bad = sorted(n for n in names
                     if n.endswith("_oracle") or n.startswith("_jacobi"))
        assert not bad, (path.name, bad)


def test_perfbench_smoke_runs():
    # the benchmark harness drives the package through its public calls
    # (to_beamspace(..., method="fft"), build_preconditioner(rank=,
    # power_iters=, seed=), ...); its smoke run at side 4 catches a change
    # that breaks one of them
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=_ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "smoke: ok" in done.stdout.splitlines(), done.stdout


def test_golden_battery_is_deterministic(tmp_path):
    # every gen, invert, sweep and report output of one small scenario,
    # hashed with the output directory masked: two runs agree line for line
    manifests = []
    for out in ("a", "b"):
        done = subprocess.run(
            [sys.executable, "tools/golden.py", ".", str(tmp_path / out),
             "--side", "4", "--seeds", "101"],
            cwd=_ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        manifests.append(done.stdout.splitlines())
    assert len(manifests[0]) == 52
    assert manifests[0] == manifests[1]


def _bench_pairs_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", _ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _stub_runner(values, seen=None):
    """A benchmark runner printing fixed details and result lines.  values
    maps (tree, seed) to the metric values of that run, or to None for a
    run that crashes; a "failed" entry among the values sets the run's
    failed ops (and makes it incorrect).  seen, if given, collects each
    argv."""
    def run(tree, argv):
        if seen is not None:
            seen.append(argv)
        seed = int(argv[argv.index("--seed") + 1])
        entry = values[tree, seed]
        if entry is None:
            return 1, "", "Traceback: boom\n"
        entry = dict(entry)
        failed = entry.pop("failed", 0)
        metrics = {name: {"value": value, "unit": "u"}
                   for name, value in entry.items()}
        details = {"ops": {"untraced": 3}, "failures": [],
                   "machine": {"nproc": 2, "seed": seed}}
        result = {"correct": not failed, "attempted": 4, "failed": failed,
                  "metrics": metrics}
        return 0, "%s\n%s\n" % (json.dumps(details), json.dumps(result)), ""
    return run


def _steady(setup_s=1.0):
    return {"op_s.p50": 1.0, "ops_per_s": 10.0, "setup_s": setup_s,
            "peak_rss_mb": 100.0}


def _bench(tool, tmp_path, parent, change):
    """The workload entry of four stub pairs whose values are parent(i)
    and change(i) for seed i."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": str(tmp_path / "p"), "change": str(tmp_path / "c")}
    values = {}
    for seed in range(4):
        values[trees["parent"], seed] = parent(seed)
        values[trees["change"], seed] = change(seed)
    return tool.bench_pairs(trees, range(4), ["w"], spec,
                            runner=_stub_runner(values))["workloads"]["w"]


def test_bench_pairs_reports_runs_and_verdicts(tmp_path):
    tool = _bench_pairs_tool()
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": str(tmp_path / "p"), "change": str(tmp_path / "c")}
    seeds = [1, 2, 3, 4]
    values = {}
    for i, seed in enumerate(seeds):
        # op_s.p50: the parent's IQR/median exceeds its bound and the
        # sides' runs overlap, so the verdict is unresolved
        values[trees["parent"], seed] = {
            "op_s.p50": 1.0 + (1.0 if i % 2 else 0.0), "ops_per_s": 10.0,
            "setup_s": 1.0, "peak_rss_mb": 100.0}
        values[trees["change"], seed] = {
            "op_s.p50": 1.0 if i < 2 else 0.5, "ops_per_s": 12.0,
            "setup_s": 1.0 + 2.0 * bounds["setup_s"], "peak_rss_mb": 100.0}
    seen = []
    report = tool.bench_pairs(trees, seeds, ["w"], spec,
                              runner=_stub_runner(values, seen))
    json.dumps(report)
    assert {"command", "seconds", "seeds", "machine", "commits", "src_trees",
            "workloads"} <= set(report)
    # every run lasts the benchmark's run length
    assert report["seconds"] == spec["run_seconds"]
    assert all(argv[argv.index("--seconds") + 1] == str(spec["run_seconds"])
               for argv in seen)
    assert report["seeds"] == seeds
    assert report["machine"]["perfbench"] == {"nproc": 2}
    entry = report["workloads"]["w"]
    assert [r["seed"] for r in entry["runs"]["parent"]] == seeds
    # the tree that runs first alternates from seed to seed
    assert [r["position"] for r in entry["runs"]["parent"]] == [0, 1, 0, 1]
    assert entry["failures"] == {
        side: {"crashed": 0, "incorrect": 0, "failed_share": 0.0}
        for side in ("parent", "change")}
    metrics = entry["metrics"]
    assert set(metrics) == set(bounds)
    op = metrics["op_s.p50"]
    assert op["parent"]["iqr_over_median"] > bounds["op_s.p50"]
    assert (op["verdict"], op["pairs"], op["pairs_won"]) == ("unresolved", 4, 3)
    rate = metrics["ops_per_s"]
    assert (rate["verdict"], rate["pairs_won"]) == ("pass", 4)
    assert abs(rate["median_change"] - 0.2) <= 1e-12
    assert (metrics["setup_s"]["verdict"], metrics["setup_s"]["pairs_won"]) \
        == ("fail", 0)
    assert metrics["peak_rss_mb"]["verdict"] == "pass"
    # a gain takes 9 of every 10 pairs and a median move past the
    # parent's IQR: every pair and 2.0 past an IQR of 0 for ops_per_s;
    # 3 of 4 pairs for op_s.p50; none for a tie or a loss
    assert {name: m["gain"] for name, m in metrics.items()} == {
        "op_s.p50": False, "ops_per_s": True, "setup_s": False,
        "peak_rss_mb": False}
    assert {"median", "q1", "q3", "n"} <= set(metrics["setup_s"]["change"])


def test_bench_pairs_keeps_a_failed_run_out_of_the_statistics(tmp_path):
    tool = _bench_pairs_tool()
    assert tool.parse_run(1, "", "Traceback: boom\n") \
        == {"returncode": 1, "error": "Traceback: boom\n"}
    # seed 0: the parent crashes; seed 1: a change run fails a check and
    # reads 50 s; seed 2: a parent run fails a check.  The change has no
    # more crashes and a smaller failed-op share, so the statistics decide.
    entry = _bench(tool, tmp_path,
                   lambda i: {0: None, 2: dict(_steady(), failed=1)}.get(
                       i, _steady()),
                   lambda i: dict(_steady(50.0), failed=1) if i == 1
                   else _steady())
    assert entry["failures"]["parent"] == {
        "crashed": 1, "incorrect": 1, "failed_share": 1 / 12}
    assert entry["failures"]["change"] == {
        "crashed": 0, "incorrect": 1, "failed_share": 1 / 16}
    setup = entry["metrics"]["setup_s"]
    assert (setup["parent"]["n"], setup["change"]["n"]) == (2, 3)
    assert setup["change"]["median"] == 1.0
    assert (setup["pairs"], setup["verdict"]) == (1, "pass")


@pytest.mark.parametrize("case, parent, change, reason", [
    ("every change run crashes", lambda i: _steady(), lambda i: None,
     "no usable change run"),
    ("every run fails a check", lambda i: dict(_steady(), failed=1),
     lambda i: dict(_steady(0.5), failed=1), "no usable change run"),
    ("one more crash", lambda i: _steady(),
     lambda i: None if i == 2 else _steady(0.5),
     "more crashed runs than the parent"),
    ("more failed ops", lambda i: _steady(),
     lambda i: dict(_steady(0.5), failed=1) if i == 3 else _steady(0.5),
     "a larger share of failed ops than the parent"),
])
def test_bench_pairs_fails_a_change_that_fails_more(tmp_path, case, parent,
                                                    change, reason):
    # the change's usable runs read better, yet every metric fails
    entry = _bench(_bench_pairs_tool(), tmp_path, parent, change)
    for metric in entry["metrics"].values():
        assert (metric["verdict"], metric["reason"]) == ("fail", reason)
        assert metric["gain"] is False


def test_bench_pairs_resolves_runs_that_do_not_overlap(tmp_path):
    tool = _bench_pairs_tool()
    # the parent's spread exceeds the bound, but every change run reads
    # better than every parent run: pass
    entry = _bench(tool, tmp_path, lambda i: _steady(1.0 + i),
                   lambda i: _steady(0.9 - 0.1 * i))
    setup = entry["metrics"]["setup_s"]
    assert setup["parent"]["iqr_over_median"] > setup["bound"]
    assert setup["verdict"] == "pass"
    # the medians 2.5 and 0.75 differ by more than the parent's IQR, 1.5
    assert setup["gain"] is True
    # better in every pair, but the median by 0.5, within the IQR: no gain
    entry = _bench(tool, tmp_path, lambda i: _steady(1.0 + i),
                   lambda i: _steady(0.5 + i))
    setup = entry["metrics"]["setup_s"]
    assert (setup["pairs_won"], setup["gain"]) == (4, False)
    # every change run reads worse, and the median by more than the
    # bound: fail
    entry = _bench(tool, tmp_path, lambda i: _steady(1.0 + i),
                   lambda i: _steady(10.0 + i))
    assert entry["metrics"]["setup_s"]["verdict"] == "fail"
    # worse in every run, but the median within the bound: the spread
    # leaves it unresolved
    entry = _bench(tool, tmp_path, lambda i: _steady(1.0 + 0.5 * (i % 2)),
                   lambda i: _steady(1.51 + 0.01 * i))
    setup = entry["metrics"]["setup_s"]
    assert setup["parent"]["iqr_over_median"] > setup["bound"]
    assert setup["verdict"] == "unresolved"


_DEMOS = sorted(path.name for path in (_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS)
def test_demo_runs(demo):
    # the demos call the library as a user would; nothing else runs them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)],
                          cwd=_ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
