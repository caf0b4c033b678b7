"""pyproject.toml declares what the code imports, and no more."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent
TEST_DIRS = (ROOT / "tests", ROOT / "benchmarks")
# the package and the modules the test directories import from each other
LOCAL = {"cpflow"} | {path.stem for d in TEST_DIRS for path in d.glob("*.py")}
# the distribution of each top-level module whose name differs from it
DISTRIBUTIONS = {"yaml": "pyyaml"}
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def third_party(*directories: Path) -> set[str]:
    """The distributions of the non-standard modules imported anywhere in
    the Python files of the directories, inside functions too."""
    names = set()
    for directory in directories:
        for path in directory.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names.add(node.module)
    tops = {name.partition(".")[0] for name in names}
    return {DISTRIBUTIONS.get(top, top)
            for top in tops - set(sys.stdlib_module_names) - LOCAL}


def declared(requirements: list[str]) -> set[str]:
    """The distribution names of requirement strings, normalized."""
    return {re.sub(r"[-_.]+", "-", re.match(r"[\w.-]+", req)[0]).lower()
            for req in requirements}


def test_package_imports_are_the_runtime_dependencies():
    assert third_party(ROOT / "src" / "cpflow") \
        == declared(PROJECT["dependencies"])


def test_test_imports_are_declared():
    assert third_party(*TEST_DIRS) <= declared(
        PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])
