"""The public export surface: every name a package lists in ``__all__`` exists.

An ``__all__`` entry left pointing at a deleted function or module only fails
on ``from repro.x import *`` or on first use, so each package is checked here.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

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


#: Run in a fresh interpreter: import every ``repro`` module but the asyncio
#: adapter, check asyncio (and ssl, which it drags in) stayed out, then reach
#: the adapter through the package.
IMPORT_FOOTPRINT = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
assert "repro.serve.aio" in names
for name in names:
    if name != "repro.serve.aio":
        importlib.import_module(name)
loaded = sorted({"asyncio", "ssl"} & set(sys.modules))
assert not loaded, f"{len(names) - 1} repro modules loaded {loaded}"
import repro.serve
assert "AsyncStreamServer" in dir(repro.serve)
from repro.serve import AsyncStreamServer
assert AsyncStreamServer.__module__ == "repro.serve.aio"
"""


def test_only_the_asyncio_adapter_imports_asyncio():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], env=env, check=True)
