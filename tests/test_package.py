import doctest
from pathlib import Path

import occ132


def test_every_export_resolves():
    # a name deleted from its module must not linger in the export list
    missing = [name for name in occ132.__all__ if not hasattr(occ132, name)]
    assert missing == []


def test_readme_library_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
