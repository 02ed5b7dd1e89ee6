"""Lazy package exports keep the public surface.

``repro.core``, ``repro.petrinet``, ``repro.loops``, ``repro.obs``,
``repro.dataflow`` and ``repro.batch`` import a submodule only when one
of its names is first read (:mod:`repro._lazy`).  Every name in a
package's ``__all__`` must still be the very object its defining
submodule holds — before any submodule is imported, and after all of
them are, which is when a submodule of the same name as an export
(``repro.loops.translate``) would shadow it.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

PACKAGES = (
    "repro.core",
    "repro.petrinet",
    "repro.loops",
    "repro.obs",
    "repro.dataflow",
    "repro.batch",
)


def submodules(package):
    module = importlib.import_module(package)
    return [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    ]


def mismatches(package):
    """Names of ``package.__all__`` that are not the object their
    defining submodule (the one listing the name in its own
    ``__all__``) binds, as ``name: reason`` strings."""
    module = importlib.import_module(package)
    found = []
    for name in module.__all__:
        owners = [
            sub for sub in submodules(package) if name in getattr(sub, "__all__", ())
        ]
        if len(owners) != 1:
            found.append(f"{name}: defined by {len(owners)} submodules")
        elif getattr(module, name) is not getattr(owners[0], name):
            found.append(f"{name}: not {owners[0].__name__}.{name}")
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_the_defining_objects(package):
    assert mismatches(package) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_all(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name


CHILD = """
import json, sys
from tests.test_lazy_exports import PACKAGES, mismatches, submodules
if sys.argv[1] == "submodules-first":
    for package in PACKAGES:
        submodules(package)
names = {}
for package in PACKAGES:
    module = __import__(package, fromlist=["*"])
    names[package] = {name: id(getattr(module, name)) for name in module.__all__}
for package in PACKAGES:
    submodules(package)
report = {package: mismatches(package) for package in PACKAGES}
for package in PACKAGES:
    module = sys.modules[package]
    report[package] += [
        f"{name}: changed once submodules were imported"
        for name, first in names[package].items()
        if id(getattr(module, name)) != first
    ]
print(json.dumps(report))
"""


@pytest.mark.parametrize("order", ["names-first", "submodules-first"])
def test_fresh_interpreter_resolves_the_same_objects(order):
    """Read every export in a fresh interpreter, before and after its
    submodules load, in both orders."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, order],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).resolve().parent.parent,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {package: [] for package in PACKAGES}
