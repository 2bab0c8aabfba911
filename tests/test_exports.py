"""The export lists: what each module's __all__ names exists, and every
public top-level name is exported by the module that defines it."""

import inspect
import sys

import pytest

import domsplit
from domsplit import certifier, harness, jacobi, mat2, models, sphere

MODULES = [certifier, harness, jacobi, mat2, models, sphere]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_public_top_level_name_is_exported_by_its_module():
    for name in dir(domsplit):
        obj = getattr(domsplit, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        homes = [m for m in MODULES if name in m.__all__ and getattr(m, name) is obj]
        assert homes, f"{name} is in no module's __all__"
        owner = sys.modules.get(getattr(obj, "__module__", None) or "")
        if owner is not None and owner.__name__.startswith("domsplit."):
            assert owner in homes, f"{name} is not in {owner.__name__}.__all__"
