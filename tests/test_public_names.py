"""Every public name in permid is called by the library, its CLI or its
benchmark, or is listed with a reason.

Code that only the tests call belongs in `tests/helpers.py`, where it serves
as an oracle without growing the library. This test walks the modules of
`permid` (not `__init__.py`, whose re-exports call nothing) and the scripts
of `bench/` with `ast`, and collects each public module-level function and
class, and each public method of a public class. A name counts as used when
it appears anywhere in that source as a name, an attribute, an imported
name, and in `bench/` also as a string constant, since the benchmark's
tracer finds what it wraps by string. A string in `permid` (a JSON key or a
CSV header, say) is data, not a call, so it keeps no name alive. Each unused
name must appear in UNREFERENCED with its reason, and each entry of
UNREFERENCED must still exist and still be unused, so the list stays exact.
"""

import ast
from pathlib import Path

import permid

SOURCE = Path(permid.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

UNREFERENCED = {
    ("feedback", "feedback_counting_converse"): "ROADMAP item 15 gives it a CLI path",
    ("dist", "Dist.point"): "a public constructor the README documents",
    ("approx", "ApproxMap.induced"): "a public constructor the README documents",
}


def public_names(tree: ast.Module) -> list[str]:
    """The public module-level functions and classes of a module, and the
    public methods of its public classes, as `name` or `Class.method`."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return names


def references(tree: ast.Module, strings: bool) -> set[str]:
    """Every name, attribute and imported name in a module, and with
    `strings` every string constant."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def walk() -> tuple[set[tuple[str, str]], set[str]]:
    """(module, public name) for every definition in permid, and every
    reference in permid and bench/."""
    defined, used = set(), set()
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= references(tree, strings=path.parent == BENCH)
        if path.parent == SOURCE:
            defined |= {(path.stem, name) for name in public_names(tree)}
    return defined, used


def unused() -> set[tuple[str, str]]:
    defined, used = walk()
    return {(module, name) for module, name in defined if name.rsplit(".", 1)[-1] not in used}


def test_every_public_name_is_used_or_listed_with_a_reason():
    unlisted = sorted(unused() - set(UNREFERENCED))
    assert not unlisted, (
        f"public names that neither permid nor bench/ calls: {unlisted}; "
        "move them to tests/helpers.py or list them in UNREFERENCED"
    )
    assert all(reason.strip() for reason in UNREFERENCED.values())


def test_every_listed_name_still_exists_and_is_unused():
    stale = sorted(set(UNREFERENCED) - unused())
    assert not stale, f"UNREFERENCED lists names that are gone or now used: {stale}"


def test_the_walk_finds_each_kind_of_definition_and_reference():
    # one snippet per kind, so a walk that stops seeing a kind fails here
    # rather than letting every future unused name through
    source = (
        "from m import imported\n"
        "def f(x):\n"
        "    return g(x).attr, ('mod', 'by_string')\n"
        "def _private(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def _hidden(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "class _P:\n"
        "    def skipped(self): pass\n"
    )
    tree = ast.parse(source)
    assert public_names(tree) == ["f", "C", "C.method"]
    assert {"imported", "g", "x", "attr", "mod", "by_string"} <= references(tree, strings=True)
    assert references(tree, strings=False) == {"imported", "g", "x", "attr"}
    assert not {"f", "C", "method"} & references(tree, strings=True)
