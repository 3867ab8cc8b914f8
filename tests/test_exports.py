"""The public export surface: every name a package lists in ``__all__`` exists.

An ``__all__`` entry left pointing at a deleted function or module only fails
on ``from repro.x import *`` or on first use, so each package is checked here.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.engine",
    "repro.plans",
    "repro.operators",
    "repro.core",
    "repro.experiments",
    "repro.streams",
    "repro.multi",
    "repro.serve",
    "repro.trace",
    "repro.health",
    "repro.scheduler",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
