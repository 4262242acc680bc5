"""Every package's ``__all__`` lists names it binds, each once.

``from package import *`` looks up every name in ``__all__``, so a
stale entry (a renamed function) breaks the importer, not the package.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)
EXPORTING = [name for name in PACKAGES
             if hasattr(importlib.import_module(name), "__all__")]


def test_packages_declare_all():
    assert "repro.core" in EXPORTING and "repro" in EXPORTING


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_binds_every_listed_name(name):
    exported = importlib.import_module(name).__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
