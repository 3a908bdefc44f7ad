"""Every name a taulab module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import taulab

MODULES = sorted(info.name for info in pkgutil.iter_modules(taulab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"taulab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
