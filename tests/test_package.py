import doctest
import importlib
from pathlib import Path

import pytest

import occ132


def test_every_export_resolves():
    # a name deleted from its module must not linger in the export list
    missing = [name for name in occ132.__all__ if not hasattr(occ132, name)]
    assert missing == []
    # and each resolves to the object the module that defines it holds
    assert occ132.Solver is importlib.import_module("occ132.solver").Solver
    for name in occ132.__all__:
        obj = getattr(occ132, name)
        home = obj.__module__
        assert home.startswith("occ132."), name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_dir_lists_every_export():
    assert set(occ132.__all__) <= set(dir(occ132))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from occ132 import *", namespace)
    assert {name: namespace.get(name) for name in occ132.__all__} == {
        name: getattr(occ132, name) for name in occ132.__all__
    }


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        occ132.no_such_name  # noqa: B018
    assert not hasattr(occ132, "joint_table")


def test_readme_library_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
