import importlib

import pytest

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
