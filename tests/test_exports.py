"""Every module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil

import pytest

import dyonstark

MODULES = ["dyonstark"] + [f"dyonstark.{info.name}" for info in pkgutil.iter_modules(dyonstark.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
