"""No module in src/dper or scripts/ imports a name it never uses.

An unused import costs load time in every fresh `dper` process and hides
what a module really depends on.  Exempt are imports from `__future__`,
names re-exported through `__all__`, names used only in quoted
annotations, and an import on a line marked `# noqa: F401`, such as a
probe for an optional dependency.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/dper/*.py"), *ROOT.glob("scripts/*.py")])


def imported_names(tree, lines):
    """(bound name, line) of every import outside `__future__` on a line
    not marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" in lines[node.lineno - 1]):
            continue
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.returns]
    for a in annotations:
        for c in ast.walk(a):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= used_names(ast.parse(c.value, mode="eval"))
    return used


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert ROOT / "src/dper/cli.py" in MODULES
    assert ROOT / "scripts/same_answers.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    keep = used_names(tree) | exported_names(tree)
    unused = [f"line {line}: {name}"
              for name, line in imported_names(tree, text.splitlines())
              if name not in keep]
    assert not unused, unused


def test_an_unused_import_is_found():
    text = ("from __future__ import annotations\n"
            "import os, sys as system\n"
            "import json.decoder\n"
            "from a import b, c\n"
            "from d import e\n"
            "import scipy  # noqa: F401\n"
            "__all__ = ['c']\n"
            "def f(x: 'e') -> None:\n"
            "    return os.sep\n")
    tree = ast.parse(text)
    keep = used_names(tree) | exported_names(tree)
    found = [(n, line) for n, line in imported_names(tree, text.splitlines())
             if n not in keep]
    assert found == [("system", 2), ("json", 3), ("b", 4)]
