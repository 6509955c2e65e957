"""No amr module reaches into another's private names.

A name that starts with an underscore belongs to its module.  Another
module that needs it should get a public name, so the rule it carries
keeps one home.  The check parses src/amr/*.py and fails on
`module._name` for any amr module bound by an import, and on
`from .module import _name`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "amr").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def reach_ins(source: str) -> list[int]:
    """Line numbers of every access to another amr module's private name in `source`."""
    tree = ast.parse(source)
    modules = set()  # local names bound to amr modules
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "amr"):
            for alias in node.names:
                if _private(alias.name):
                    lines.add(node.lineno)
                elif node.module in (None, "amr"):  # `from . import market`: a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "amr" and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert reach_ins(path.read_text()) == []


def test_reach_ins_are_found():
    source = ("from . import market\n"
              "from .market import _number, simulate_pk\n"
              "import amr.reducer as red\n"
              "x = market._integer(1, 'x')\n"
              "y = market.simulate_pk, red._known_scores, market.__name__\n")
    assert reach_ins(source) == [2, 4, 5]
