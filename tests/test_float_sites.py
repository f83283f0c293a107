"""Where permid computes in floating point, listed and justified.

Every probability and bound in permid is decided exactly, so a float may
only show a value, estimate one, or make a guess that exact code corrects.
This test walks the source of `permid` with `ast` and lists each float site
by module and enclosing function:

- `float(...)` calls and float literals;
- `math.log`, `math.log2` and `math.sqrt`;
- `operator.truediv`;
- any `mpmath` attribute;
- numpy's `float64` and `float32`, and `float` or a float type's name
  given as a dtype: a `dtype=` argument, the argument of `astype`, or any
  argument of a numpy call.

Imports are followed, so `from operator import truediv` counts when the bare
name is used. Each site must appear in ALLOWED with its reason, and each
entry of ALLOWED must still have a site, so the list stays exact. A new
float site fails this test until it is listed.
"""

import ast
from pathlib import Path

import permid

SOURCE = Path(permid.__file__).resolve().parent

FLOAT_FUNCTIONS = {
    "math.log",
    "math.log2",
    "math.sqrt",
    "operator.truediv",
    "numpy.float64",
    "numpy.float32",
}
# dtype names that numpy reads as a float type
FLOAT_DTYPE_NAMES = {"float", "float64", "float32", "double", "single", "f8", "f4", "d", "f"}

ALLOWED = {
    ("cli", "cmd_approx"): "display decimal beside the exact approximation distance",
    ("serialize", "report_to_json"): "display decimals beside the exact error figures",
    ("serialize", "profile_to_json"): "display decimal beside the exact intersection ratio",
    ("serialize", "csv_rows"): "the CSV's decimal columns and Monte Carlo estimates",
    ("serialize", "_estimate_text"): "a Monte Carlo estimate hits / trials, written as JSON",
    ("idcode", "MCReport.from_hits"): "Monte Carlo estimates and their standard error",
    ("idcode", "acceptance"): "BLAS matmul of integer limb tables: with s + t + "
    "bit_length(len(cols)) <= 53, every limb product and partial column sum is "
    "a nonnegative integer below 2^53, exact in float64 in any order or FMA",
    ("feedback", "eval_feedback_mc"): "Monte Carlo estimate, required to be exactly 0",
    ("setsystem", "h2"): "entropy behind the Prop-2 bound (ROADMAP item 3)",
    ("setsystem", "h2_inv"): "inverse entropy behind the Prop-2 bound (ROADMAP item 3)",
    ("setsystem", "prop2_lower_bound"): "the Prop-2 bound as a float (ROADMAP item 3)",
}


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module, at any
    depth: `import math as m` gives m -> math, `from operator import
    truediv` gives truediv -> operator.truediv."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


class _Sites(ast.NodeVisitor):
    """Collects (enclosing function, what) for each float site."""

    def __init__(self, names: dict[str, str]):
        self.names = names
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _add(self, what: str) -> None:
        self.found.append((".".join(self.scope) or "<module>", what))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _origin(self, node) -> str | None:
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = self.names.get(node.value.id)
            return f"{base}.{node.attr}" if base else None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self._add("float()")
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            dtypes += node.args
        if (self._origin(node.func) or "").startswith("numpy."):
            dtypes += node.args
        if any(_float_dtype(value) for value in dtypes):
            self._add("float dtype")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self._add(f"literal {node.value!r}")

    def visit_Name(self, node: ast.Name) -> None:
        self._check(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node) -> None:
        origin = self._origin(node)
        if origin in FLOAT_FUNCTIONS or (origin or "").startswith("mpmath."):
            self._add(origin)


def _float_dtype(node) -> bool:
    """Whether an expression is the builtin `float` or a float type's name."""
    if isinstance(node, ast.Name):
        return node.id == "float"
    return isinstance(node, ast.Constant) and node.value in FLOAT_DTYPE_NAMES


def float_sites() -> dict[tuple[str, str], list[str]]:
    """(module, enclosing function) -> the float sites found there, with
    their line-free descriptions, over every module of permid."""
    sites: dict[tuple[str, str], list[str]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        visitor = _Sites(_imported_names(tree))
        visitor.visit(tree)
        for scope, what in visitor.found:
            sites.setdefault((path.stem, scope), []).append(what)
    return sites


def test_every_float_site_is_allowed_with_a_reason():
    unlisted = {key: what for key, what in float_sites().items() if key not in ALLOWED}
    assert not unlisted, f"float sites without a reason in ALLOWED: {unlisted}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_allowed_float_site_still_exists():
    stale = sorted(set(ALLOWED) - set(float_sites()))
    assert not stale, f"ALLOWED lists functions with no float site left: {stale}"


def test_the_walk_finds_each_kind_of_site():
    # one snippet per kind, so a visitor that stops seeing a kind fails here
    # rather than letting every future site through
    source = (
        "import math\n"
        "import mpmath as mp\n"
        "import numpy as np\n"
        "from operator import truediv\n"
        "def f(x):\n"
        "    return float(x), 0.5, math.sqrt(x), math.log(x), math.log2(x)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        return truediv(x, 2), mp.mpf(x), math.floor(x), int(x)\n"
        "def h(x: float, n) -> float:\n"
        "    a = np.zeros(n, dtype=np.float64), np.ones(n, np.float32)\n"
        "    b = np.zeros(n, dtype=float), x.astype(float), np.empty(n, 'f8')\n"
        "    return np.zeros(n, dtype=np.int64), x.astype('int64'), np.full(n, 'x')\n"
    )
    tree = ast.parse(source)
    visitor = _Sites(_imported_names(tree))
    visitor.visit(tree)
    assert visitor.found == [
        ("f", "float()"),
        ("f", "literal 0.5"),
        ("f", "math.sqrt"),
        ("f", "math.log"),
        ("f", "math.log2"),
        ("C.g", "operator.truediv"),
        ("C.g", "mpmath.mpf"),
        ("h", "numpy.float64"),
        ("h", "numpy.float32"),
        ("h", "float dtype"),
        ("h", "float dtype"),
        ("h", "float dtype"),
    ]
