"""uwdiff is a numpy-only toolkit: its modules import only the standard library, numpy and each other.
The scripts add only uwdiff and each other, and no test module imports another."""

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "uwdiff")


def imported(source: str) -> list[str]:
    """The module of each absolute import in source."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def foreign_imports(source: str) -> list[str]:
    """The top-level package of each absolute import in source that is neither stdlib nor numpy."""
    roots = [module.partition(".")[0] for module in imported(source)]
    return [root for root in roots if root != "numpy" and root not in sys.stdlib_module_names]


def sources(directory: str) -> dict[str, str]:
    """Each .py file of directory by its module name, with its source."""
    found = {}
    for name in sorted(n for n in os.listdir(directory) if n.endswith(".py")):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            found[name[:-3]] = fh.read()
    return found


def test_foreign_imports_finds_a_third_party_package_anywhere_in_a_module():
    source = "import os\nfrom . import autodiff\n\ndef f():\n    import scipy.ndimage\n    from PIL import Image\n"
    assert foreign_imports(source) == ["scipy", "PIL"]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_a_module_imports_only_the_standard_library_numpy_and_uwdiff(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert foreign_imports(fh.read()) == []


def test_no_test_module_imports_another_and_scripts_import_only_uwdiff_and_each_other():
    tests = sources(os.path.join(ROOT, "tests"))
    assert [(name, m) for name, source in tests.items() for m in imported(source) if m.startswith("test_")] == []
    scripts = sources(os.path.join(ROOT, "scripts"))
    allowed = {"uwdiff", *scripts}
    assert [(name, r) for name, source in scripts.items() for r in foreign_imports(source) if r not in allowed] == []
