"""Every exported name exists: a name deleted from a module must also leave
its __all__ and the package's own imports.  Importing the package and its
CLI loads no scipy module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fstchain

MODULES = ["synthesis", "propagator", "gates", "protocols", "device"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"fstchain.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from fstchain.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_unloaded():
    # only device.optimize_pulse imports scipy (scipy.optimize), inside its
    # body; erf and the Bessel coefficients come from math and a recurrence
    code = ("import sys, fstchain, fstchain.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(fstchain.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_package_imports_exist():
    tree = ast.parse(Path(fstchain.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fstchain.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(fstchain, alias.name) is getattr(module, alias.name)
