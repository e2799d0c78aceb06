"""Every name a module exports through __all__ exists in it."""

import importlib
import pkgutil

import pytest

import contact_tensor

MODULES = ["contact_tensor"] + [
    f"contact_tensor.{info.name}"
    for info in pkgutil.iter_modules(contact_tensor.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
