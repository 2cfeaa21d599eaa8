"""The package's export list: ``from meanherd import *`` must import every name it lists."""

import importlib
import types

import pytest

import meanherd


def test_all_is_sorted_without_duplicates_and_resolves():
    assert meanherd.__all__ == sorted(set(meanherd.__all__))
    assert [name for name in meanherd.__all__ if not hasattr(meanherd, name)] == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(meanherd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(meanherd.__all__) == set()


@pytest.mark.parametrize("name", meanherd.__all__)
def test_each_export_is_its_submodule_name(name):
    # a private helper exported under a public alias (``_merge as merge``) is not
    # defined under that name where it lives; a Loss instance names its class's module
    value = getattr(meanherd, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("meanherd.")
    assert getattr(home, name, None) is value
