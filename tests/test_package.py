import doctest
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import occ132
from test_cli import cli_env


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
    # wrappers and module-level conveniences deleted, test oracles moved to tests/helpers.py
    for name in ("af_to_series", "reassemble_pq", "is_kernel_permutation", "avoids_monotone",
                 "make_permutation", "perm_from_str", "PoleAtOriginError", "sqrt_one_minus_4x",
                 "exceptional_shape", "occurrence_series", "occurrence_closed_form",
                 "restricted_series"):
        assert name not in occ132.__all__, name
        with pytest.raises(AttributeError, match=name):
            getattr(occ132, name)


def test_algebraic_does_not_load_series():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, occ132.algebraic; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=cli_env(), timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert "'occ132.algebraic'" in probe.stdout
    assert "'occ132.series'" not in probe.stdout


def test_readme_library_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
