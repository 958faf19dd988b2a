import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the quick start, then the witness example on its eigs, in one namespace
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("GH thm-3.10-sign ")
