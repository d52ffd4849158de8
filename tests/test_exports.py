"""Every name a module exports in __all__ exists, so star imports work."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["grid", "transforms", "wavelets"])
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"bicomm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    namespace = {}
    exec(f"from bicomm.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
