"""Every name a module lists in ``__all__`` must exist, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import spgl

MODULES = sorted(info.name for info in pkgutil.iter_modules(spgl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spgl.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"spgl.{name}.__all__ lists missing names: {missing}"
