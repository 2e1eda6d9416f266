"""uwdiff is a numpy-only toolkit: its modules import only the standard library, numpy and each other."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "uwdiff")


def foreign_imports(source: str) -> list[str]:
    """The top-level package of each absolute import in source that is neither stdlib nor numpy."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.partition(".")[0])
    return [root for root in roots if root != "numpy" and root not in sys.stdlib_module_names]


def test_foreign_imports_finds_a_third_party_package_anywhere_in_a_module():
    source = "import os\nfrom . import autodiff\n\ndef f():\n    import scipy.ndimage\n    from PIL import Image\n"
    assert foreign_imports(source) == ["scipy", "PIL"]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_a_module_imports_only_the_standard_library_numpy_and_uwdiff(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert foreign_imports(fh.read()) == []
