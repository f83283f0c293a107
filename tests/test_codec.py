"""The orbit-level codec against the one-step-at-a-time loops it replaced.

`helpers` keeps those loops as oracles: type ranks summed one count at a
time, histograms built one symbol at a time, and mixed-radix ranks by one
multiply or divmod per entry. The fast codec must give the same values and
refuse the same inputs with the same ValidationError. So must the code
loader, against the one that parsed a Fraction per mass. `dumps`, and the
join of `chunks`, must give the bytes of
`json.dumps(doc, indent=2, sort_keys=True)` plus a newline, with a
`Matrix` or iterator of rows standing for its list at any depth.
"""

import csv
import io
import json
import random
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate
from operator import truediv
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import permid.cli
import permid.idcode
import permid.serialize
from helpers import (
    random_perm_code,
    reference_code_from_json,
    reference_orbit_view,
    reference_index_to_tuple,
    reference_tuple_to_index,
    reference_type_index,
    reference_type_of,
    reference_type_unrank,
)
from permid import Dist, PermIdCode
from permid.combinatorics import (
    count_types,
    index_to_tuple,
    iter_types,
    tuple_to_index,
    type_index,
    type_of,
    type_unrank,
)
from permid.errors import ValidationError
from permid.exact import frac_str
from permid.idcode import _exact_sampler, _repr_order_key
from permid.serialize import (
    SCHEMA,
    BLOCK_CHARS,
    Matrix,
    _count_text,
    _estimate_text,
    _fraction_text,
    _value_table,
    chunks,
    code_from_json,
    csv_rows,
    dumps,
    report_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def test_type_ranks_match_the_oracle_on_every_small_type():
    for n in range(1, 9):
        for q in range(2, 5):
            for i, t in enumerate(iter_types(n, q), start=1):
                assert type_index(t) == reference_type_index(t) == i
                assert type_unrank(i, n, q) == reference_type_unrank(i, n, q) == t
            for bad in (0, count_types(n, q) + 1, 1.0, True):
                assert outcome(type_unrank, bad, n, q) == outcome(
                    reference_type_unrank, bad, n, q
                )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), q=st.integers(2, 12), data=st.data())
def test_type_ranks_match_the_oracle_on_larger_types(n, q, data):
    i = data.draw(st.integers(1, count_types(n, q)))
    t = reference_type_unrank(i, n, q)
    assert type_unrank(i, n, q) == t
    assert type_index(t) == reference_type_index(t) == i


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 10, 16]),
    l=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_vector_codec_matches_the_oracle(q, l, data):
    n = data.draw(st.integers(1, 400 // l))
    L = n * l
    x = tuple(data.draw(st.lists(st.integers(1, q), min_size=L, max_size=L)))
    index = reference_tuple_to_index(x, q)
    assert tuple_to_index(x, q) == index
    assert index_to_tuple(index, q, L) == reference_index_to_tuple(index, q, L) == x
    assert type_of(x, q) == reference_type_of(x, q)
    for block in range(l):
        assert type_of(x[block * n : (block + 1) * n], q) == reference_type_of(
            x[block * n : (block + 1) * n], q
        )
    for edge in (1, q**L):
        y = index_to_tuple(edge, q, L)
        assert y == reference_index_to_tuple(edge, q, L)
        assert tuple_to_index(y, q) == edge


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16, 17, 255, 256, 1000])
@pytest.mark.parametrize("L", [1, 2, 3, 7, 64, 65])
def test_mixed_radix_edges_match_the_oracle(N, L):
    rand = random.Random(N * 1000 + L)
    for index in {1, 2, N**L - 1, N**L, rand.randint(1, N**L)}:
        if 1 <= index <= N**L:
            js = index_to_tuple(index, N, L)
            assert js == reference_index_to_tuple(index, N, L)
            assert tuple_to_index(js, N) == reference_tuple_to_index(js, N) == index
    for bad in (0, N**L + 1, 1.0, "1", -3):
        assert outcome(index_to_tuple, bad, N, L) == outcome(
            reference_index_to_tuple, bad, N, L
        )


@pytest.mark.parametrize("q", [2, 3, 8, 10, 16, 40])
def test_codec_refuses_what_the_oracle_refuses(q):
    # an array compares elementwise, so it must be refused before any count
    bads = [1.0, 0, q + 1, "1", -1, False, 2.0, 256, None, np.int64(1), np.array([1, 2])]
    for bad in bads:
        for pos in (0, 3, 7):
            x = [2] * 8
            x[pos] = bad
            for fn, ref in ((type_of, reference_type_of), (tuple_to_index, reference_tuple_to_index)):
                got = outcome(fn, tuple(x), q)
                assert got == outcome(ref, tuple(x), q)
                assert got[0] is ValidationError
                assert got == outcome(fn, x, q)
    for fn, ref in ((type_of, reference_type_of), (tuple_to_index, reference_tuple_to_index)):
        assert outcome(fn, (), q) == outcome(ref, (), q)
        # two offenders: the first one is named
        assert outcome(fn, (1, 0, q + 1, 1.0), q) == outcome(ref, (1, 0, q + 1, 1.0), q)
    # True is the symbol 1, as an int
    x = (True, 2, 1, True)
    assert type_of(x, q) == reference_type_of(x, q)
    assert tuple_to_index(x, q) == reference_tuple_to_index(x, q)


@pytest.mark.parametrize("q", [2, 9, 10, 11, 16, 100, 255, 256])
def test_sampler_key_orders_supports_as_repr_does(q):
    rand = random.Random(q)
    for _ in range(40):
        n = rand.randint(1, 4)
        support = {tuple(rand.randint(1, q) for _ in range(n)) for _ in range(rand.randint(1, 12))}
        dist = Dist.uniform(support)
        key = _repr_order_key(list(support), q)
        assert (key is repr) == (q > 255)
        assert _exact_sampler(dist, key) == _exact_sampler(dist)
    # a bool sorts by its repr, "True", so the key falls back to repr
    support = [(True, 2), (2, 2), (1, 3)]
    key = _repr_order_key(support, q)
    assert key is repr
    assert _exact_sampler(Dist.uniform(support), key)[0][-1] == (True, 2)


def test_sampler_key_keeps_the_q11_golden_order():
    code = random_perm_code(random.Random(1), 2, 11, 4, max_support=4, max_decoder=12)
    vectors = [x for enc in code.encoders for x in enc.support()]
    key = _repr_order_key(vectors, 11)
    keys = [sorted(enc.support(), key=key) for enc in code.encoders]
    assert keys == [sorted(enc.support(), key=repr) for enc in code.encoders]
    # the repr order is not the tuple order here, so the golden pins it
    assert any(k != sorted(k) for k in keys)


def reference_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dumps_matches_the_stdlib_on_every_golden(path):
    text = path.read_text()
    doc = json.loads(text)
    assert dumps(doc) == reference_dumps(doc) == text


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, 2**64, 2**64 + 1, -(2**65), 10**30])
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 0.0, 1e-7, 1e300, -1e300, 5e-324, 0.1, 1.5])
    | st.text(max_size=8)
    | st.sampled_from(["", "é", "日本", "a\nb", '"]', "[", "],\n  [", " ", "\x00"])
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_dumps_matches_the_stdlib_on_drawn_documents(doc):
    assert "".join(chunks(doc)) == dumps(doc) == reference_dumps(doc)


@st.composite
def int64_matrices(draw):
    """int64 matrices of 1x1 to 40x40 whose values span anywhere from one
    value (all equal) to far more than the entry count (the list path)."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    lo = draw(st.integers(-(2**62), 2**62))
    span = draw(st.sampled_from([0, 1, 9, shape[0] * shape[1] - 1, shape[0] * shape[1], 2**40]))
    return draw(arrays(np.int64, shape, elements=st.integers(lo, lo + span)))


@settings(max_examples=200, deadline=None)
@given(a=int64_matrices())
@example(a=np.array([[0, 2**40], [2**40, 0]]))
@example(a=np.full((7, 3), -5))
@example(a=np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max]]))
def test_dumps_renders_an_int64_matrix_as_its_list(a):
    doc = {"counts": counts(a), "M": len(a)}
    assert dumps(doc) == reference_dumps({"counts": a.tolist(), "M": len(a)})


def counts(rows) -> Matrix:
    """A count Matrix, as a collision report hands it to the writer."""
    num = np.array(rows, dtype=np.int64)
    return Matrix(num, np.ones(len(num), dtype=np.int64), _count_text)


def test_integer_table_only_when_smaller_than_the_matrix():
    # a 2x2 count matrix over D = 33M positions renders entry by entry, not
    # through a 33M-entry table
    assert _value_table(counts([[0, 33_000_000], [33_000_000, 0]])) is None
    assert _value_table(counts([[1, 3], [4, 1]])) == (1, ["1", "2", "3", "4"])
    assert _value_table(counts([[0, 4], [4, 0]])) is None
    # each value's text is made once, from the value in lowest terms
    exact = Matrix(np.array([[0, 2], [1, 2]]), np.array([4, 4], dtype=object), _fraction_text)
    assert _value_table(exact) == (0, ['"0/1"', '"1/4"', '"1/2"'])
    # object numerators, or rows over different denominators, go entry by
    # entry, to the same text
    as_objects = replace(exact, num=exact.num.astype(object))
    assert _value_table(as_objects) is None
    assert dumps({"matrix": as_objects}) == dumps({"matrix": exact})
    assert _value_table(replace(exact, den=np.array([4, 2], dtype=object))) is None
    # a top-level Matrix renders as its list on either path
    for m in (counts([[1, 3], [4, 1]]), counts([[0, 33_000_000], [33_000_000, 0]])):
        assert dumps({"counts": m}) == reference_dumps({"counts": m.num.tolist()})
    assert dumps({"matrix": exact}) == reference_dumps({"matrix": [["0/1", "1/2"], ["1/4", "1/2"]]})


RULES = {"exact": _fraction_text, "mc": _estimate_text, "counts": _count_text}


@st.composite
def report_matrices(draw):
    """(rule, Matrix) as a report hands it to the writer: int64 or object
    numerators, over one row denominator or one per row (1 for counts),
    whose values span fewer numbers than the entry count or more; 1x1
    matrices and single rows included."""
    rule = draw(st.sampled_from(sorted(RULES)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    big = draw(st.booleans())
    if rule == "counts":
        dens = [1] * rows
    else:
        top = 2**90 if big else 10**6
        shared = draw(st.booleans())
        dens = [draw(st.integers(1, top))] * rows if shared else draw(
            st.lists(st.integers(1, top), min_size=rows, max_size=rows))
    lo = draw(st.integers(0, 2**80 if big else 2**40))
    span = draw(st.sampled_from([0, 1, 5, rows * cols - 1, rows * cols, 2**20]))
    num = [draw(st.lists(st.integers(lo, lo + span), min_size=cols, max_size=cols))
           for _ in range(rows)]
    dtype = object if big else np.int64
    return rule, Matrix(np.array(num, dtype=dtype), np.array(dens, dtype=object), RULES[rule])


def listed(rule: str, m: Matrix) -> list:
    """The matrix as a report document held it before `Matrix`: "p/q"
    strings, floats h / trials, or ints."""
    rows = zip(m.num.tolist(), m.den.tolist())
    if rule == "exact":
        return [[frac_str(Fraction(a, d)) for a in row] for row, d in rows]
    if rule == "mc":
        return [[a / d for a in row] for row, d in rows]
    return m.num.tolist()


def listed_csv(doc: dict, matrix: list) -> str:
    """The CSV text of a report whose matrix is held as `listed` gives it,
    as csv_rows wrote it from those lists."""
    cells = [(i, j, p) for i, row in enumerate(matrix, start=1)
             for j, p in enumerate(row, start=1)]
    if doc["kind"] == "error-report":
        rows = [["i", "j", "accept", "accept_decimal"]]
        rows += [[i, j, p, truediv(*map(int, p.split("/")))] for i, j, p in cells]
    elif doc["kind"] == "mc-report":
        rows = [["i", "j", "accept_hat"], *([i, j, p] for i, j, p in cells)]
    else:
        D = doc["D"]
        rows = [["j", "k", "collisions", "fraction", "fraction_decimal"]]
        rows += [[j, k, c, frac_str(Fraction(c, D)), repr(c / D)] for j, k, c in cells if j != k]
    return csv_text(rows)


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(drawn=report_matrices())
@example(drawn=("counts", counts([[7]])))
@example(drawn=("mc", Matrix(np.array([[3, 0, 3]]), np.array([3], dtype=object), _estimate_text)))
@example(drawn=("exact", Matrix(np.array([[2**62, 0], [1, 2**62]]),
                                np.array([2**62, 2**62], dtype=object), _fraction_text)))
def test_every_report_matrix_renders_as_its_list(drawn):
    """Each rule's Matrix renders at the top level, and reads into CSV, as
    the document holding its list of texts did."""
    rule, m = drawn
    matrix = listed(rule, m)
    doc = {"matrix": m, "M": len(m.num)}
    assert "".join(chunks(doc)) == reference_dumps({"matrix": matrix, "M": len(m.num)})
    # the value table serves exactly the int64 matrices over one denominator
    # whose values span fewer numbers than the entry count
    values = m.num.ravel().tolist()
    table = m.num.dtype == np.int64 and len(set(m.den.tolist())) == 1
    assert (_value_table(m) is not None) == (table and max(values) - min(values) < len(values))
    if rule == "counts":
        report = {"kind": "collision-report", "counts": m, "D": max(values) + 3}
    else:
        report = {"kind": {"exact": "error-report", "mc": "mc-report"}[rule], "matrix": m}
    assert csv_text(csv_rows(report)) == listed_csv(report, matrix)


@pytest.mark.parametrize("dens", [[720] * 9, list(range(712, 721))], ids=["table", "entries"])
def test_exact_matrix_streams_in_row_blocks(monkeypatch, dens):
    """With a small BLOCK_CHARS an exact report's matrix comes out of
    `chunks` in several pieces, none over the bound and none the whole
    matrix, on the table path and on the entry path alike."""
    monkeypatch.setattr(permid.serialize, "BLOCK_CHARS", 400)
    num = np.array([[(7 * i + j) % 5 for j in range(9)] for i in range(9)], dtype=np.int64)
    kernel = permid.idcode.Acceptance(num, np.array(dens, dtype=object))
    doc = report_to_json(kernel.report)
    assert (_value_table(doc["matrix"]) is None) == (len(set(dens)) > 1)
    pieces, whole, _ = streamed(doc, "matrix")
    assert len(pieces) > 3
    assert all(len(piece) <= 400 and len(piece) < len(whole) for piece in pieces)
    assert whole == reference_dumps({"m": listed("exact", doc["matrix"])})[9:-3]


def command_doc(argv: list[str]) -> dict:
    """The document a CLI command hands the writer."""
    args = permid.cli.build_parser().parse_args(argv)
    return permid.cli.COMMANDS[args.command](args)


def streamed(doc: dict, key: str) -> tuple[list[str], str, str]:
    """The pieces `chunks` writes that hold some of the text of doc[key], a
    top-level value found by its offset in the text; that value's text; and
    the text of all of doc."""
    pieces = list(chunks(doc))
    text = "".join(pieces)
    head = f"\n  {json.dumps(key)}: "
    start = text.index(head) + len(head)
    # a raw newline is structure, so the value ends where the next top-level
    # key or the closing brace begins
    stop = min(k for k in (text.find(',\n  "', start), text.find("\n}\n", start)) if k >= 0)
    ends = accumulate(map(len, pieces))
    spanning = [piece for piece, end in zip(pieces, ends) if end > start and end - len(piece) < stop]
    return spanning, text[start:stop], text


@pytest.mark.parametrize("argv, key", [
    # the sweep crosses Prop. 2's threshold 1 + N/alpha = 17
    (["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "2", "--M-max", "64"], "sweep"),
    (["types", "--n", "6", "--q", "3"], "types"),
], ids=["bounds", "types"])
def test_row_iterators_stream_in_blocks_as_their_lists(monkeypatch, argv, key):
    """With a small BLOCK_CHARS the rows of a `bounds` sweep or a `types`
    listing come out of `chunks` in several pieces, none over the bound, and
    the document reads as the one holding the list of its rows."""
    monkeypatch.setattr(permid.serialize, "BLOCK_CHARS", 200)
    listed_doc = command_doc(argv)
    listed_doc[key] = list(listed_doc[key])
    pieces, _, text = streamed(command_doc(argv), key)
    assert text == reference_dumps(listed_doc)
    assert len(pieces) > 3 and all(len(piece) <= 200 for piece in pieces)
    if key == "sweep":
        gated = ["prop2_lower" in row for row in listed_doc[key]]
        assert gated == [M > 17 for M in range(2, 65)]


def test_empty_sweep_renders_an_empty_list():
    argv = ["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "10", "--M-max", "9"]
    _, value, text = streamed(command_doc(argv), "sweep")
    assert value == "[]"
    assert json.loads(text)["sweep"] == []


def test_first_sweep_piece_precedes_the_last_row(monkeypatch):
    monkeypatch.setattr(permid.serialize, "BLOCK_CHARS", 200)
    doc = command_doc(["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "2", "--M-max", "64"])
    pieces = chunks(doc)
    text = ""
    while '"sweep": [\n    {\n      "M": 2\n    }' not in text:
        text += next(pieces)
    # the rows past those pieces are still to be made
    assert next(doc["sweep"])["M"] < 64


NESTED_ARGV = {
    "setsystem-run": ["setsystem", "--N", "60", "--epsilon", "1/10", "--lambda", "2/5",
                      "--m-target", "30", "--seed", "1"],
    # l = 2 gives 64 orbit products, so each decoder row passes 400 characters
    "build": ["build", "--n", "7", "--q", "2", "--l", "2", "--epsilon", "1/16", "--seed", "3"],
    "pipeline": ["transform", "--code", str(GOLDEN / "orbit_code.json"), "--gamma", "1/3"],
}


def one_row(piece: str) -> bool:
    """Whether a piece of `chunks` is one row, a list or dict of scalars,
    after its separator and key."""
    row = piece.partition("\n")[2].lstrip()
    if row.startswith('"'):
        row = row.partition('": ')[2]
    try:
        value = json.loads(row)
    except json.JSONDecodeError:
        return False
    items = value.values() if isinstance(value, dict) else value
    return isinstance(value, (list, dict)) and all(not isinstance(v, (list, dict)) for v in items)


@pytest.mark.parametrize("kind", sorted(NESTED_ARGV))
def test_nested_values_stream_in_bounded_pieces(monkeypatch, kind):
    """With a small BLOCK_CHARS a document whose large value sits below the
    top level (a set system's sets, a built code, a pipeline's family) comes
    out of `chunks` in pieces of at most BLOCK_CHARS characters, unless one
    row alone is longer, and they join to the stdlib's rendering."""
    monkeypatch.setattr(permid.serialize, "BLOCK_CHARS", 400)
    doc = command_doc(NESTED_ARGV[kind])
    assert doc["kind"] == kind
    pieces = list(chunks(doc))
    assert "".join(pieces) == reference_dumps(doc)
    assert len(pieces) > 5
    assert all(len(piece) <= 400 or one_row(piece) for piece in pieces)
    assert any(len(piece) > 400 for piece in pieces) == (kind == "build")


def test_nested_iterator_is_consumed_as_the_writer_reaches_it(monkeypatch):
    """Rows of an iterator two levels down are made as `chunks` writes them:
    at each piece, the rows made but not yet written, but for the one being
    made, fit in one block."""
    monkeypatch.setattr(permid.serialize, "BLOCK_CHARS", 400)
    doc = command_doc(NESTED_ARGV["setsystem-run"])
    sets, made = doc["system"]["sets"], []

    def rows():
        for row in sets:
            made.append(row)
            yield row

    doc["system"]["sets"] = rows()
    text = ""
    for piece in chunks(doc):
        text += piece
        # a row of the sets closes at indentation 6, as nothing else here does
        ahead = made[text.count("\n      ]"):]
        assert sum(len(json.dumps(row, indent=2)) for row in ahead[:-1]) <= 400
        if len(text) < 400:
            assert len(made) < len(sets)
    assert made == sets
    doc["system"]["sets"] = sets
    assert text == reference_dumps(doc)
    # a Matrix below the top level renders as its list too
    m = counts([[1, 3], [4, 1]])
    assert dumps({"a": {"m": m}, "b": [m, [m]]}) == reference_dumps(
        {"a": {"m": m.num.tolist()}, "b": [m.num.tolist(), [m.num.tolist()]]})


def test_dumps_matches_the_stdlib_on_odd_keys_and_containers():
    docs = [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}, 1]},
        {1: "int key", 0: [1, 2]},
        {"outer": {2: [1], 1: {"k": None}}, "x": {1.5: 2, -1.0: 3}},
        {"mixed": {1: "a", "b": [2]}},
        {"k": [1, {"z": 1, "a": [True, False, None]}, "s", -0.0, 2**80]},
        {"nan": [float("nan"), float("inf"), -float("inf")]},
        [("tuple", 1), ("pair", [2, 3])],
        {"deep": [[[[1, 2], [3]], []]]},
    ]
    for doc in docs:
        assert outcome(dumps, doc) == outcome(reference_dumps, doc)


# ------------------------------------------------------------- the code loader

#: spellings of the masses of the partitions below, the odd ones included
SPELLINGS = {
    Fraction(1): ["1", 1, 1.0, "1/1", "2/2", " 1", "+1"],
    Fraction(1, 2): ["1/2", "2/4", "0.5", " 1/2", "+1/2", 0.5, "5e-1"],
    Fraction(1, 3): ["1/3", "2/6"],
    Fraction(2, 3): ["2/3", "4/6"],
    Fraction(1, 4): ["1/4", "0.25", 0.25, "3/12"],
    Fraction(1, 10): ["1e-1", "1/10", "0.1"],
    Fraction(9, 10): ["9/10", "0.9"],
    Fraction(0): ["0", 0, 0.0, "0/5", "-0", "0.0"],
}
PARTITIONS = [
    [1], [Fraction(1, 2)] * 2, [Fraction(1, 3), Fraction(2, 3)],
    [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 10), Fraction(9, 10)],
]
#: masses that break a document: negative, not rational, not a number
BAD_MASSES = ["-1/2", -1, "1/0", "x", "", "1/2/3", None, [1], float("nan"), float("inf"),
              "1/3", 0.1, "2"]


@st.composite
def encoder_pairs(draw, top):
    """[outcome, mass] pairs over outcomes 1..top (more when there are more
    masses) that sum to 1, or miss it by a part or a bad mass; some repeat
    an outcome, whose last mass must win."""
    parts = list(draw(st.sampled_from(PARTITIONS)))
    parts += [Fraction(0)] * draw(st.integers(0, 2))
    if draw(st.integers(0, 7)) == 0:
        parts.pop(draw(st.integers(0, len(parts) - 1)))
    masses = [draw(st.sampled_from(SPELLINGS[p])) for p in parts]
    if masses and draw(st.integers(0, 9)) == 0:
        masses[draw(st.integers(0, len(masses) - 1))] = draw(st.sampled_from(BAD_MASSES))
    size = len(masses)
    outcomes = draw(st.lists(st.integers(1, max(top, size)), unique=True,
                             min_size=size, max_size=size))
    pairs = [[k, p] for k, p in zip(outcomes, masses)]
    if pairs and draw(st.integers(0, 3)) == 0:
        pairs.insert(0, [draw(st.sampled_from(outcomes)), draw(st.sampled_from(SPELLINGS[1]))])
    return pairs


@st.composite
def code_documents(draw):
    """perm and noiseless documents, mostly valid, whose encoders spell
    their masses every way JSON can and share outcomes, with the occasional
    bad mass, missing part, out-of-range outcome or count."""
    M = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n, q, l = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
        ground = count_types(n, q) ** l
        # few distinct vectors, so that encoders share them
        top = min(q ** (n * l), 6)
        rows = st.lists(st.integers(0, 1), min_size=ground, max_size=ground)
        return {
            "schema": SCHEMA, "kind": "perm", "n": n, "q": q, "l": l,
            "N": count_types(n, q), "M": M,
            "encoders": [draw(encoder_pairs(top)) for _ in range(M)],
            "decoders": {"typecounts": [draw(rows) for _ in range(M)]},
        }
    N = draw(st.integers(1, 6))
    if draw(st.booleans()):
        decoders = {"deterministic": [draw(st.lists(st.integers(1, N), unique=True))
                                      for _ in range(M)]}
    else:
        probs = st.sampled_from(["0", "1", "1/2", "2/4", " 1/2", 0, 1, 0.5, "3/2", "-1/2"])
        decoders = {"stochastic": [draw(st.lists(probs, min_size=N, max_size=N))
                                   for _ in range(M)]}
    return {
        "schema": SCHEMA, "kind": "noiseless", "N": N, "M": M,
        "encoders": [draw(encoder_pairs(N)) for _ in range(M)],
        "decoders": decoders,
    }


def loaded(load, doc):
    """What `load` makes of `doc`: each encoder's masses in order with its
    denominator and ground set, the decoders, and a perm code's orbit
    sizes; or the refusal."""
    try:
        code = load(doc)
    except ValidationError as exc:
        return "refused", str(exc)
    encoders = [(list(e.num.items()), e.den, e.size) for e in code.encoders]
    if isinstance(code, PermIdCode):
        return encoders, code.decoder_counts, (code.n, code.q, code.l), code.sizes
    return encoders, code.decoders, code.N


@settings(max_examples=400, deadline=None)
@given(doc=code_documents())
def test_code_loader_matches_the_fraction_loader(doc):
    assert loaded(code_from_json, doc) == loaded(reference_code_from_json, doc)


@settings(max_examples=200, deadline=None)
@given(doc=code_documents())
def test_loaded_orbit_view_is_the_per_vector_one(doc):
    try:
        code = code_from_json(doc)
    except ValidationError:
        return
    if isinstance(code, PermIdCode):
        assert (code.sizes, code.output_laws) == reference_orbit_view(code)


@pytest.mark.parametrize("name", ["orbit", "perm_l2", "q11"])
def test_golden_orbit_view_is_the_per_vector_one(name):
    doc = json.loads((GOLDEN / f"{name}_code.json").read_text())
    code = code_from_json(doc.get("code", doc))
    assert (code.sizes, code.output_laws) == reference_orbit_view(code)


def test_code_loader_parses_each_mass_and_vector_once():
    """Each distinct mass string is parsed once, each distinct vector
    validated once, and each distinct block type ranked once: the orbit
    code has as many block types as vectors, the two-use code fewer."""
    for golden in ("orbit", "perm_l2"):
        doc = json.loads((GOLDEN / f"{golden}_code.json").read_text())
        doc = doc.get("code", doc)
        calls = {"parse_frac": [], "_input_types": [], "type_index": []}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(first, *rest):
                calls[name].append(first)
                return real(first, *rest)

            return mock.patch.object(module, name, wrapper)

        with counted(permid.serialize, "parse_frac"), counted(permid.idcode, "_input_types"), \
                counted(permid.idcode, "type_index"):
            code = code_from_json(doc)
        texts = [p for pairs in doc["encoders"] for _, p in pairs]
        indices = {i for pairs in doc["encoders"] for i, _ in pairs}
        assert len(texts) > len(set(texts)) and len(calls["parse_frac"]) == len(set(texts))
        assert sorted(calls["parse_frac"]) == sorted(set(texts))
        assert len(calls["_input_types"]) == len(indices) < len(texts)
        assert {tuple_to_index(x, code.q) for x in calls["_input_types"]} == indices
        n, l = code.n, code.l
        blocks = [x[b * n : (b + 1) * n] for x in calls["_input_types"] for b in range(l)]
        types = {type_of(block, code.q) for block in blocks}
        assert len(calls["type_index"]) == len(types) <= len(blocks)
        assert set(calls["type_index"]) == types
        assert (len(types) < len(blocks)) == (l == 2)


# -------------------------------------------------------- rows of scalar lists

row_scalars = scalars | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 2**64, -(2**64) - 1, 10**40, "\x00", "a\x00b"]
)
scalar_rows = st.lists(
    st.lists(row_scalars, min_size=1, max_size=4)
    | st.tuples(st.integers(), row_scalars)
    | st.lists(row_scalars, max_size=2),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(rows=scalar_rows)
def test_rows_of_scalars_render_as_the_stdlib_does(rows):
    # at the top level, one level down, and as the encoders of a code
    doc = {"rows": rows, "code": {"encoders": rows, "M": 1}, "nested": [rows, [rows]]}
    assert "".join(chunks(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(row_scalars, min_size=1, max_size=6), min_size=1, max_size=30),
       block=st.integers(20, 400))
def test_rows_of_scalars_stream_in_bounded_blocks(rows, block):
    """With a small BLOCK_CHARS a list of scalar rows, whose strings may
    spell the text between two rows, comes out of `chunks` in pieces of at
    most BLOCK_CHARS characters unless one row alone is longer, and they join
    to the stdlib's rendering."""
    doc = {"rows": rows}
    with mock.patch.object(permid.serialize, "BLOCK_CHARS", block):
        pieces = list(chunks(doc))
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert all(len(piece) <= block or one_row(piece) for piece in pieces)


def test_an_empty_row_keeps_its_rendering():
    for rows in ([[1], []], [[], ["a", 2]], [[]], [[[]], [1]], [[1, 2], [3], ["\x00"]]):
        doc = {"rows": rows}
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert '"rows": [\n    [\n      1\n    ],\n    []\n  ]' in dumps({"rows": [[1], []]})


# ------------------------------------------------ int rows from a value table

int_rows = st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, -7, 2**64, 10**40]), min_size=1, max_size=24),
    min_size=1,
    max_size=30,
)


class One(IntEnum):
    ONE = 1


class Loud(int):
    """An int whose own text differs from the one json writes for it."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__


def spied_table_rows():
    """A stand-in for `_table_rows` that records each block and its text."""
    calls = []
    real = permid.serialize._table_rows

    def spy(block, *rest):
        calls.append((block, text := real(block, *rest)))
        return text

    return calls, mock.patch.object(permid.serialize, "_table_rows", spy)


@settings(max_examples=200, deadline=None)
@given(rows=int_rows, block=st.sampled_from([None, 60, 200, 1000]))
def test_int_rows_render_as_the_stdlib_does(rows, block):
    """Rows of ints with heavy repeats, some past int64, render as the stdlib
    does whether or not a block takes the value table, and with a small
    BLOCK_CHARS in pieces of at most BLOCK_CHARS characters unless one row
    alone is longer."""
    doc = {"rows": rows, "code": {"typecounts": rows}}
    calls, spy = spied_table_rows()
    with spy, mock.patch.object(permid.serialize, "BLOCK_CHARS", block or BLOCK_CHARS):
        pieces = list(chunks(doc))
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert all(len(piece) <= (block or BLOCK_CHARS) or one_row(piece) for piece in pieces)
    # every block is offered to the table, which takes those with at least
    # four entries per distinct value
    assert {id(row) for b, _ in calls for row in b} == set(map(id, rows))
    for b, text in calls:
        values = [v for row in b for v in row]
        assert (text is not None) == (4 * len(set(values)) <= len(values))


ones, zeros = [[1] * 4 for _ in range(4)], [[0] * 8 for _ in range(4)]


@settings(max_examples=200, deadline=None)
@given(rows=int_rows, odd=st.sampled_from([True, False, 1.0, 0.0, One.ONE, Loud(1), Loud(0)]),
       block=st.sampled_from([None, 60, 200]), at=st.integers(0, 29), pos=st.integers(0, 24))
@example(rows=ones, odd=True, block=None, at=0, pos=1)
@example(rows=ones, odd=1.0, block=None, at=0, pos=0)
@example(rows=ones, odd=One.ONE, block=None, at=2, pos=0)
@example(rows=ones, odd=Loud(1), block=None, at=3, pos=4)
@example(rows=zeros, odd=False, block=None, at=0, pos=1)
def test_rows_holding_a_bool_float_or_int_subclass_skip_the_table(rows, odd, block, at, pos):
    """1 == True == 1.0 == One.ONE, so a set of values would fold them into
    one table entry; a row holding any entry whose type is not exactly int
    never takes the value table. The examples are rows the table would take
    but for the one odd entry."""
    rows = [list(row) for row in rows]
    row = rows[at % len(rows)]
    row.insert(pos % (len(row) + 1), odd)
    doc = {"rows": rows}
    calls, spy = spied_table_rows()
    with spy, mock.patch.object(permid.serialize, "BLOCK_CHARS", block or BLOCK_CHARS):
        pieces = list(chunks(doc))
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert calls == []
    assert all(len(piece) <= (block or BLOCK_CHARS) or one_row(piece) for piece in pieces)


def test_built_typecount_rows_take_the_value_table():
    """A built code's `typecounts` rows, mostly zeros, are written from the
    value table in every block, so that path cannot go unused unnoticed."""
    doc = command_doc(["build", "--n", "80", "--q", "2", "--epsilon", "1/25", "--seed", "1"])
    rows = doc["code"]["decoders"]["typecounts"]
    calls, spy = spied_table_rows()
    with spy:
        text = dumps(doc)
    assert text == reference_dumps(doc)
    tabled = {id(row) for block, text in calls if text is not None for row in block}
    assert tabled >= set(map(id, rows)) and len(rows) > 1
