"""The package's public names: every ``__all__`` entry exists."""

import importlib
import pkgutil

import pytest

import gaitkinetics

MODULES = ["gaitkinetics"] + [
    f"gaitkinetics.{info.name}" for info in pkgutil.iter_modules(gaitkinetics.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
