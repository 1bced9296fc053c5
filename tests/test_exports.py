"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import types

import pytest

import persmod

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(persmod.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    # a module without __all__ exports its public names, none stale
    module = importlib.import_module(f"persmod.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"persmod.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from persmod.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_exports_match_bound_names():
    bound = {
        n
        for n, obj in vars(persmod).items()
        if not n.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(set(persmod.__all__)) == len(persmod.__all__)
    assert set(persmod.__all__) == bound
    namespace = {}
    exec("from persmod import *", namespace)
    assert set(persmod.__all__) <= set(namespace)
