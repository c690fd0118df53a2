"""Every `volfied` module's `__all__` names its own attributes, and no name
is exported by two modules, so a star import neither fails nor shadows."""

import importlib
import pkgutil

import volfied


def test_every_export_exists_in_one_module():
    owner = {}
    for info in pkgutil.iter_modules(volfied.__path__):
        module = importlib.import_module(f"volfied.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names a missing {name}"
            assert name not in owner, f"{name} is exported by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__
    assert "is_conflict_free" in owner and "ball_counts" in owner
