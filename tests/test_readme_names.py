"""Every code name the README quotes still exists.

The README backticks the names of functions, classes, constants, fields
and modules. This test collects each backticked identifier or dotted name
(a call such as `name(args)` counts as `name`) and requires that its last
part appears in `src/permid`, `tests` or `bench` as an AST name, an
attribute, a definition, an argument or keyword, an imported name or a
string constant. The extras of `pyproject.toml` count too, since the README
names the `test` extra. A renamed or deleted name then fails here until the
README follows. This file itself is left out of the scan.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = [ROOT / "src" / "permid", ROOT / "tests", ROOT / "bench"]
QUOTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`()]*\))?`")


def readme_names() -> set[str]:
    return set(QUOTED.findall((ROOT / "README.md").read_text()))


def source_names(tree: ast.AST) -> set[str]:
    """Every identifier a module defines or refers to, and its strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."), [node.asname or node.name])
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def known_names() -> set[str]:
    found = set()
    for folder in DIRS:
        for path in sorted(folder.rglob("*.py")):
            if path != Path(__file__).resolve():
                found |= source_names(ast.parse(path.read_text(), str(path)))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return found | set(project.get("optional-dependencies", {}))


def test_readme_code_names_resolve():
    names = readme_names()
    assert len(names) > 50  # the pattern still finds the README's names
    known = known_names()
    stale = sorted(name for name in names if name.rsplit(".", 1)[-1] not in known)
    assert stale == []
