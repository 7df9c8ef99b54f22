"""The package namespace republishes each module's public names."""

from __future__ import annotations

import types

import pytest

import redpow
from redpow import ctmc, cyclespace, errors, graph, power, squares

MODULES = (errors, graph, power, cyclespace, squares, ctmc)


def test_the_package_publishes_exactly_the_union_of_its_modules_all():
    public = {
        name for name, value in vars(redpow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_the_object_its_module_binds(module):
    for name in module.__all__:
        assert getattr(redpow, name) is getattr(module, name), name
