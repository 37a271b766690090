import importlib
import pkgutil

import pytest

import linksec

MODULES = sorted(f"linksec.{m.name}" for m in pkgutil.iter_modules(linksec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
