"""Run the doctests embedded in the library modules and the README."""

import doctest
from pathlib import Path

import pytest

from maclab import affine, hecke, laurent, permutations, ratfunc, zpoly

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module",
    [ratfunc, zpoly, laurent, permutations, affine, hecke],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_library_example():
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0
