"""Every exported name resolves: a deleted function cannot leave a
dangling entry in an __all__."""

import importlib
import pkgutil

import pytest

import hybridlab

MODULES = ["hybridlab"] + [
    f"hybridlab.{info.name}" for info in pkgutil.iter_modules(hybridlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    # a module without __all__ (errors) exports nothing by this rule
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
