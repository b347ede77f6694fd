import ast
import importlib
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
    assert len(manifests[0]) == 40
    assert manifests[0] == manifests[1]


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
