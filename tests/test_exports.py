"""Every name that a rieszlab module exports resolves.

`from module import *` reads `__all__` name by name, so a name left in it
after its definition went raises. `__main__` runs the CLI on import and
is not a library module.
"""

import pkgutil

import pytest

import rieszlab
import rieszlab.geometry

MODULES = sorted({"rieszlab", "rieszlab.geometry", *(
    info.name for pkg in (rieszlab, rieszlab.geometry)
    for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + ".")
    if not info.name.endswith(".__main__"))})


def test_every_module_is_listed():
    assert {"rieszlab.cli", "rieszlab.geometry.patches"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1
