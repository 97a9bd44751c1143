"""The package's public names: everything exported is really there."""
from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import ggs

# __main__ runs the command line when imported, and exports nothing.
MODULES = [
    f"ggs.{info.name}" for info in pkgutil.iter_modules(ggs.__path__) if info.name != "__main__"
]


def test_every_module_is_listed():
    assert "ggs.quotient" in MODULES and "ggs.verifiers" in MODULES


@pytest.mark.parametrize("name", ["ggs", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [x for x in exported if not hasattr(module, x)] == []


def test_import_loads_no_submodule():
    code = "import sys, ggs; print(sorted(m for m in sys.modules if m.startswith('ggs')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['ggs']"


def test_lazy_exports_are_listed_and_versioned():
    from ggs.certificate import CODE_VERSION

    assert set(ggs.__all__) <= set(dir(ggs))
    assert ggs.__version__ == CODE_VERSION
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ggs.no_such_name
