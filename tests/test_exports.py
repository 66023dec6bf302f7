"""Every ``__all__`` names what exists; a submodule's names only what it defines."""

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


@pytest.mark.parametrize("name", MODULES[1:])
def test_submodule_exports_are_defined_there(name):
    # the package __init__ gathers the API, so it alone re-exports
    module = importlib.import_module(name)
    foreign = [
        n
        for n in getattr(module, "__all__", [])
        if callable(obj := getattr(module, n)) and obj.__module__ != module.__name__
    ]
    assert foreign == []
