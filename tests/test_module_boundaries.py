"""No amr module reaches into another's private names or imports a name it never uses.

A name that starts with an underscore belongs to its module.  Another
module that needs it should get a public name, so the rule it carries
keeps one home.  The check parses src/amr/*.py and fails on
`module._name` for any amr module bound by an import, and on
`from .module import _name`.

Every import must be read by its module.  An import kept for another
reason says so with `# noqa: F401`; `from __future__ import annotations`
and the names that amr/__init__.py lists in `__all__` are exempt, and
that `__all__` must list exactly the names amr/__init__.py imports.

Every private module-level function, class or constant must be read by
its module, the only one that may read it, so no helper outlives its
last caller.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amr"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def _exported(tree: ast.Module) -> list[str]:
    """The strings in a module-level `__all__ = [...]`, or [] when there is none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return []


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name `source` imports and never reads, less the exempt ones."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(_exported(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return sorted(unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(_exported(tree)) == sorted(imported)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .market import simulate_pk, step  # noqa: F401\n"
              "from .timeseries import (mape,\n"
              "                         split)\n"
              "from .rng import fold, mix64\n"
              "__all__ = ['fold']\n"
              "x: np.ndarray = sys.argv\n"
              "mix64 = 1\n"
              "def f():\n"
              "    from .reducer import rank_models\n"
              "    return mape\n")
    assert unused_imports(source) == [(2, "os"), (4, "os"), (6, "split"), (8, "mix64"), (13, "rank_models")]


def orphans(source: str) -> list[tuple[int, str]]:
    """(line, name) of every private module-level function, class or constant that `source` never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend((node.lineno, n.id) for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name))
    return sorted((line, name) for line, name in defined if _private(name) and name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_helper_outlives_its_last_reader(path):
    assert orphans(path.read_text()) == []


def test_orphans_are_found():
    source = ("_LIMIT = 3\n"
              "_unused: int = 4\n"
              "def _helper(x=_LIMIT):\n"
              "    _local = 1\n"
              "    return x\n"
              "class _Gone:\n"
              "    _width = 2\n"
              "async def _fetch():\n"
              "    pass\n"
              "_x, (_y, _z) = 1, (2, 3)\n"
              "__version__ = '1'\n"
              "def public():\n"
              "    return _helper(), _y, _Gone.__name__\n")
    assert orphans(source) == [(2, "_unused"), (8, "_fetch"), (10, "_x"), (10, "_z")]
