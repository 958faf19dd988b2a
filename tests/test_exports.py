import importlib
import pkgutil

import pytest

import hypotorus

MODULES = ["hypotorus"] + sorted(
    f"hypotorus.{m.name}" for m in pkgutil.iter_modules(hypotorus.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    assert isinstance(mod.__all__, list) and mod.__all__
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
