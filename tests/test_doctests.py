import doctest
from pathlib import Path

import pytest

from dominocells import cells, cycles, hecke, insertion, shapes, tableaux, wgroup


@pytest.mark.parametrize(
    "module", [wgroup, shapes, tableaux, cycles, insertion, cells, hecke], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_example():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
