"""`permid` on mutated command lines. Each run starts from a small valid argv
of one subcommand and drops a flag, retypes a value, sets an integer to 0 or
a negative, adds a conflicting flag or points `-o` into a missing directory.
Every outcome is exit 0, or exit 2, 3 or 4 with one JSON error on stderr:
never a traceback, and never argparse's plain-text usage."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_noiseless_code, random_perm_code
from permid import SetSystem, Stream, build_feedback_code
from permid.cli import main
from permid.serialize import code_to_json

BASE = {
    "types": ["types", "--n", "3", "--q", "2"],
    "setsystem": ["setsystem", "--N", "20", "--epsilon", "1/10", "--lambda", "2/5",
                  "--seed", "1", "--m-target", "10", "--max-attempts", "1000"],
    "build": ["build", "--n", "7", "--q", "2", "--l", "2", "--epsilon", "1/16", "--seed", "3",
              "--max-attempts", "10000"],
    "eval": ["eval", "--code", "{perm}"],
    "transform": ["transform", "--code", "{perm}", "--gamma", "1/3"],
    "approx": ["approx", "--K", "4", "--code", "{noiseless}"],
    "feedback": ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "1"],
    "bounds": ["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "16", "--M-max", "20",
               "--d", "4", "--w", "2", "--system", "{setsystem}"],
}
# additions that contradict a subcommand's base argv or each other
CONFLICTS = {
    "types": [["--format", "csv"]],
    "setsystem": [["--format", "csv"]],
    "build": [["--format", "csv"]],
    "eval": [["--converse", "--mode", "mc"], ["--converse", "--code", "{feedback}"],
             ["--mode", "mc", "--code", "{noiseless}"], ["--trials", "50", "--seed", "1"]],
    "transform": [["--mu", "1"]],
    "approx": [["--target", "{target}"]],
    "feedback": [["--retry", "2", "--mode", "mc"], ["--trials", "50"],
                 ["--retry", "2", "--trials", "50"]],
    "bounds": [["--system", "{perm}"], ["--system", "{feedback}"]],
}


@st.composite
def mutated_argvs(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    argv = BASE[command]
    values = [i for i, a in enumerate(argv) if i and argv[i - 1].startswith("--")
              and not a.startswith("--")]
    integers = [i for i in values if argv[i].isdigit()]
    kinds = ["drop", "retype", "nonpositive", "conflict", "output"]
    kind = draw(st.sampled_from([k for k in kinds if k != "nonpositive" or integers]))
    if kind == "drop":
        i = draw(st.sampled_from([i for i, a in enumerate(argv) if a.startswith("--")]))
        has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        argv = argv[:i] + argv[i + 1 + has_value:]
    elif kind in ("retype", "nonpositive"):
        if kind == "nonpositive":
            values = integers
            new = draw(st.sampled_from(["0", "-1", "-7"]))
        else:
            new = draw(st.sampled_from(["abc", "1.5", "1/0"]))
        i = draw(st.sampled_from(values))
        argv = argv[:i] + [new] + argv[i + 1:]
    elif kind == "conflict":
        extra = draw(st.sampled_from(CONFLICTS[command]))
        argv = extra + argv if extra[0] == "--format" else argv + extra
    else:
        argv = ["-o", "{missing}/out.json"] + argv
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_cli")
    docs = {
        "perm": code_to_json(random_perm_code(random.Random(3), 2, 2, 3, l=2)),
        "noiseless": code_to_json(random_noiseless_code(random.Random(3), 3, 2)),
        "feedback": code_to_json(build_feedback_code(2, 2, 2, 2, Stream(1))),
        "setsystem": code_to_json(SetSystem(5, tuple(map(frozenset, combinations(range(1, 6), 2))))),
        "target": ["3/4", "1/4"],
    }
    found = {"missing": str(root / "missing")}
    for name, doc in docs.items():
        found[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(doc))
    return found


@settings(max_examples=250, deadline=None)
@given(argv=mutated_argvs())
def test_every_mutated_command_line_answers_in_json(paths, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main([a.format(**paths) for a in argv])
    assert status in {0, 2, 3, 4}
    if status:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["kind"] == "error"
    else:
        assert err.getvalue() == ""
