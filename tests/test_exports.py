"""Every name a fracsource module exports must resolve, so a deletion cannot
leave a dangling entry in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import fracsource

MODULES = ["fracsource"] + [
    f"fracsource.{info.name}" for info in pkgutil.iter_modules(fracsource.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"

