"""The package's public names: everything exported is really there."""
from __future__ import annotations

import importlib
import pkgutil

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
