"""`permid eval` on mutated code documents, and `permid bounds --system` on
a mutated set-system document: every outcome is a JSON report (exit 0) or a
JSON error with a documented exit code, never a traceback."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permid import SetSystem, Stream, build_feedback_code
from permid.cli import main
from permid.serialize import code_to_json

GOLDEN = Path(__file__).parent / "golden"
DOCS = {
    "orbit": json.loads((GOLDEN / "orbit_code.json").read_text()),
    "perm_l2": json.loads((GOLDEN / "perm_l2_code.json").read_text()),
    "feedback": code_to_json(build_feedback_code(3, 2, 2, 3, Stream(1))),
    "setsystem": code_to_json(SetSystem(5, tuple(map(frozenset, combinations(range(1, 6), 2))))),
}
# the command each document is driven through, its path appended
COMMANDS = {name: ["eval", "--code"] for name in DOCS}
COMMANDS["setsystem"] = ["bounds", "--N", "5", "--alpha", "9/10", "--M-max", "20", "--system"]
# each differs in type from every field a code document holds
RETYPED = [None, True, "x", 1.5, [], {}]


def _paths(node, path=()):
    """Every (path, value) below `node`, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if kind == "drop":
        choices = [p for p, _ in paths if isinstance(p[-1], str)]
    elif kind == "retype":
        choices = [p for p, v in paths if not isinstance(v, (dict, list))]
    else:
        choices = [p for p, v in paths if isinstance(v, list) and v]
    path = draw(st.sampled_from(choices))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(RETYPED))
    else:
        parent[key] = parent[key][: draw(st.integers(0, len(parent[key]) - 1))]
    return name, doc


@settings(max_examples=300, deadline=None)
@given(named=mutated_documents())
def test_eval_answers_every_mutated_document_in_json(tmp_path_factory, named):
    name, doc = named
    path = tmp_path_factory.mktemp("fuzz") / "code.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(COMMANDS[name] + [str(path)])
    assert status in {0, 2, 3, 4}
    json.loads(out.getvalue() if status == 0 else err.getvalue())
