"""Every name a module lists in ``__all__`` must exist, so a deletion cannot
leave a stale export behind, no package-level name may shadow a submodule,
and no module imports an underscore name from a sibling."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spgl

MODULES = sorted(info.name for info in pkgutil.iter_modules(spgl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spgl.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"spgl.{name}.__all__ lists missing names: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_submodule_attribute_is_the_module(name):
    # ``import spgl.<name> as m`` binds ``getattr(spgl, name)``, so a
    # re-exported function of the same name would hide the module
    module = importlib.import_module(f"spgl.{name}")
    assert inspect.ismodule(getattr(spgl, name)), f"spgl.{name} is not the submodule"
    assert getattr(spgl, name) is module


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_from_sibling_modules(name):
    # a name that two modules share is public in the module that defines it
    tree = ast.parse(Path(spgl.__file__).with_name(f"{name}.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "spgl")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"spgl.{name} imports private names: {private}"
