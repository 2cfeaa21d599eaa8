"""The package's export list: ``from meanherd import *`` must import every name it lists."""

import types

import meanherd


def test_all_is_sorted_without_duplicates_and_resolves():
    assert meanherd.__all__ == sorted(set(meanherd.__all__))
    assert [name for name in meanherd.__all__ if not hasattr(meanherd, name)] == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(meanherd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(meanherd.__all__) == set()
