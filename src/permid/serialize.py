"""JSON and CSV renderings of codes and reports (schema tag "permid/1").

Probabilities serialize as exact "p/q" strings; a *_decimal neighbor is
attached for human reading and is never parsed back. Input vectors serialize
as their 1-based lexicographic rank over the full q-ary cube, so code files
stay flat lists of integers and strings. All JSON is emitted with sorted
keys, making equal objects byte-identical for determinism checks.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from math import gcd
from operator import truediv

import numpy as np

from .combinatorics import index_to_tuple, tuple_to_index
from .dist import Dist
from .errors import ValidationError
from .exact import frac_str, parse_frac
from .feedback import CollisionReport, FeedbackCode
from .idcode import ErrorReport, MCReport, NoiselessIdCode, PermIdCode
from .setsystem import IntersectionProfile, SetSystem

SCHEMA = "permid/1"
# the kinds of report_to_json, whose documents carry a matrix up to a cap
REPORT_KINDS = ("error-report", "mc-report", "collision-report")


def code_to_json(code, seed: int | None = None) -> dict:
    """Render any code (or set system) as a schema-tagged dict."""
    if isinstance(code, NoiselessIdCode):
        doc = {
            "schema": SCHEMA,
            "kind": "noiseless",
            "N": code.N,
            "M": code.M,
            "encoders": [_masses(enc, lambda k: k) for enc in code.encoders],
        }
        if code.is_deterministic():
            doc["decoders"] = {
                "deterministic": [sorted(d) for d in code.decoders]
            }
        else:
            doc["decoders"] = {
                "stochastic": [
                    [
                        frac_str(d.get(k, 0)) if not isinstance(d, frozenset)
                        else frac_str(int(k in d))
                        for k in range(1, code.N + 1)
                    ]
                    for d in code.decoders
                ]
            }
    elif isinstance(code, PermIdCode):
        # encoders share vector objects: rank each distinct one once
        ranks: dict[int, int] = {}
        for enc in code.encoders:
            for x in enc.support():
                if id(x) not in ranks:
                    ranks[id(x)] = tuple_to_index(x, code.q)
        doc = {
            "schema": SCHEMA,
            "kind": "perm",
            "n": code.n,
            "q": code.q,
            "l": code.l,
            "N": code.N,
            "M": code.M,
            "encoders": [_masses(enc, lambda x: ranks[id(x)]) for enc in code.encoders],
            "decoders": {
                "typecounts": [_typecount_row(counts, code.ground)
                               for counts in code.decoder_counts]
            },
        }
    elif isinstance(code, FeedbackCode):
        doc = {
            "schema": SCHEMA,
            "kind": "feedback",
            "n": code.n,
            "q": code.q,
            "l": code.l,
            "N": code.N,
            "M": code.M,
            "maps": code.maps.tolist(),
        }
    elif isinstance(code, SetSystem):
        doc = {
            "schema": SCHEMA,
            "kind": "setsystem",
            "N": code.N,
            "M": code.M,
            "sets": [sorted(s) for s in code.sets],
        }
    else:
        raise ValidationError(f"cannot serialize {type(code).__name__}")
    if seed is not None:
        doc["seed"] = seed
    return doc


def _typecount_row(counts: dict, ground: int) -> list:
    """A decoder's count for every orbit product 1..ground, zeros included."""
    row = [0] * ground
    for t, c in counts.items():
        row[t - 1] = c
    return row


def _masses(enc: Dist, key) -> list:
    """An encoder's [key(outcome), "p/q"] pairs in order, each mass in
    lowest terms."""
    den = enc.den
    return sorted([key(k), f"{v // (g := gcd(v, den))}/{den // g}"] for k, v in enc.num.items())


def code_from_json(doc: dict):
    """Rebuild a code object from its JSON dict; a malformed document raises
    ValidationError."""
    try:
        return _code_from_json(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed code document: {exc!r}") from exc


def _holds_bool(doc) -> bool:
    """Whether a parsed JSON document holds a bool at any depth, scanned one
    depth at a time so that each depth's values are typed in bulk."""
    level = [doc]
    while True:
        kids = [n.values() if isinstance(n, dict) else n for n in level]
        types = set(map(type, chain.from_iterable(kids)))
        if bool in types or types.isdisjoint((list, dict)):
            return bool in types
        level = [k for k in chain.from_iterable(kids) if isinstance(k, (list, dict))]


def _code_from_json(doc: dict):
    # no field of a code document is a bool, but isinstance(x, int) and
    # Fraction(x) would take one for a number
    if _holds_bool(doc):
        raise ValidationError("malformed code document: a JSON bool where a number belongs")
    if doc.get("schema") != SCHEMA:
        raise ValidationError(f"unknown schema {doc.get('schema')!r}")
    kind = doc.get("kind")
    fracs = {}

    def frac(text):
        # each distinct mass string is parsed once per document; other JSON
        # values (1 and 1.0 hash alike) are parsed where they stand
        if type(text) is not str:
            return parse_frac(text)
        value = fracs.get(text)
        if value is None:
            value = fracs[text] = parse_frac(text)
        return value

    if kind == "noiseless":
        N = doc["N"]
        encoders = [Dist({k: frac(p) for k, p in pairs}, size=N) for pairs in doc["encoders"]]
        decs = doc["decoders"]
        if "deterministic" in decs:
            decoders = [frozenset(d) for d in decs["deterministic"]]
        elif "stochastic" in decs:
            decoders = [
                {k: p for k, p in enumerate(map(frac, row), start=1) if p}
                for row in decs["stochastic"]
            ]
        else:
            raise ValidationError("noiseless decoders must be deterministic or stochastic")
        return NoiselessIdCode(N, encoders, decoders)
    if kind == "perm":
        n, q, l = doc["n"], doc["q"], doc["l"]
        vectors: dict[int, tuple] = {}

        def vector(i):
            # equal indices share one tuple, which PermIdCode validates once
            if type(i) is not int:
                return index_to_tuple(i, q, n * l)
            if i not in vectors:
                vectors[i] = index_to_tuple(i, q, n * l)
            return vectors[i]

        encoders = [Dist({vector(i): frac(p) for i, p in pairs}) for pairs in doc["encoders"]]
        counts = [
            {t: c for t, c in enumerate(row, start=1) if c != 0}
            for row in doc["decoders"]["typecounts"]
        ]
        return PermIdCode(n, q, encoders, counts, l=l)
    if kind == "feedback":
        return FeedbackCode(doc["n"], doc["q"], doc["l"], np.array(doc["maps"]))
    if kind == "setsystem":
        sets = tuple(frozenset(s) for s in doc["sets"])
        # a repeat (1 twice, or 1 beside 1.0) would silently shrink the set
        if any(len(f) != len(s) for f, s in zip(sets, doc["sets"])):
            raise ValidationError("a member set lists an element twice")
        return SetSystem(doc["N"], sets)
    raise ValidationError(f"unknown code kind {kind!r}")


def report_to_json(report) -> dict:
    """Render an exact, Monte Carlo, or collision report as a dict."""
    if isinstance(report, ErrorReport):
        doc = {
            "schema": SCHEMA,
            "kind": "error-report",
            "M": report.M,
            "lambda1": frac_str(report.lambda1),
            "lambda1_decimal": float(report.lambda1),
            "lambda2": frac_str(report.lambda2),
            "lambda2_decimal": float(report.lambda2),
            "lambda": frac_str(report.total),
            "lambda_decimal": float(report.total),
            "missed": [frac_str(m) for m in report.missed],
            "argmax_miss": report.argmax_miss,
            "argmax_cross": list(report.argmax_cross) if report.argmax_cross else None,
        }
        if report.accept is not None:
            # each entry in lowest terms, reduced in bulk (np.gcd takes the
            # object rows of the bigint kernel as well)
            num, den = report.accept.num, report.accept.den[:, None]
            g = np.gcd(num, den)
            doc["matrix"] = [[f"{a}/{b}" for a, b in zip(*row)]
                             for row in zip((num // g).tolist(), (den // g).tolist())]
        return doc
    if isinstance(report, MCReport):
        doc = {
            "schema": SCHEMA,
            "kind": "mc-report",
            "M": report.M,
            "lambda1": report.lambda1_hat,
            "lambda2": report.lambda2_hat,
            "mc": {"trials": report.trials, "stderr": report.stderr},
        }
        if report.hits is not None:
            doc["matrix"] = report.accept_hat
        return doc
    if isinstance(report, CollisionReport):
        doc = {
            "schema": SCHEMA,
            "kind": "collision-report",
            "M": report.M,
            "D": report.D,
            "N": report.N,
            "lambda1": frac_str(report.lambda1),
            "lambda2": frac_str(report.lambda2) if report.lambda2 is not None else None,
            "lambda2_decimal": float(report.lambda2) if report.lambda2 is not None else None,
            "max_count": report.max_count,
            "argmax_pair": list(report.argmax_pair) if report.argmax_pair else None,
            "target": frac_str(report.target),
            "passed": report.passed,
        }
        if report.counts is not None:
            doc["counts"] = report.counts
        return doc
    raise ValidationError(f"cannot serialize {type(report).__name__}")


def profile_to_json(profile: IntersectionProfile) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "profile",
        "N": profile.N,
        "M": profile.M,
        "gamma": profile.gamma,
        "delta": profile.delta,
        "epsilon": frac_str(profile.epsilon),
        "ratio": frac_str(profile.ratio) if profile.gamma else None,
        "ratio_decimal": float(profile.ratio) if profile.gamma else None,
    }


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing
    newline; byte-identical for equal documents. The join of chunks(doc)."""
    return "".join(chunks(doc))


def chunks(doc: dict) -> Iterator[str]:
    """The text of dumps(doc) in pieces, one per top-level value and one per
    row block of a top-level matrix that renders from a table of its values'
    texts (see `_table`: an int64 count matrix, or a float64 estimate matrix
    with repeated values), so that a writer never holds the whole of a
    large report.

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True), with a
    numpy array in place of its .tolist(). An indent makes json fall back to
    its pure-Python encoder, so the frame is indented here and each array or
    object of scalars is left to the C encoder, its item separator carrying
    the newline and indent."""
    if not (isinstance(doc, dict) and doc and set(map(type, doc)) == {str}):
        yield _indented(doc, "") + "\n"
        return
    for k, (key, value) in enumerate(sorted(doc.items())):
        yield f"{',' if k else '{'}\n  {json.dumps(key)}: "
        if isinstance(value, np.ndarray):
            yield from _array(value, "  ")
        else:
            yield _indented(value, "  ")
    yield "\n}\n"


_SCALAR_TYPES = {str, int, float, bool, type(None)}
#: the most characters a row block of a table-rendered matrix renders to
#: (unless one row alone is longer)
BLOCK_CHARS = 1 << 19


def _indented(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value that starts
    at indentation `pad`."""
    if isinstance(value, np.ndarray):
        return "".join(_array(value, pad))
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _SCALAR_TYPES:
            body = json.dumps(value, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join([_indented(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict) and value and set(map(type, value)) == {str}:
        if set(map(type, value.values())) <= _SCALAR_TYPES:
            body = json.dumps(value, sort_keys=True, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join(
                [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in sorted(value.items())]
            )
        return f"{{\n{inner}{body}\n{pad}}}"
    # scalars, empty containers, other keys: the stdlib, re-indented (an
    # encoded string never holds a raw newline)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _array(a: np.ndarray, pad: str) -> Iterator[str]:
    """The text of a numpy array at indentation `pad`: a 2-D int64 or
    float64 matrix that `_table` accepts a row block at a time from a table
    of its values' texts, any other array as its .tolist()."""
    table = _table(a)
    if table is None:
        yield _indented(a.tolist(), pad)
    else:
        yield from _table_matrix(*table, pad)


def _table(a: np.ndarray) -> tuple[np.ndarray, int, list[str]] | None:
    """(index, lo, texts) such that texts[index[i, j] - lo] is the JSON text
    of a[i, j], when a is a nonempty 2-D array whose table of texts is
    smaller than the array itself:

    - int64, values spanning fewer numbers than the entry count: each value
      in [lo, max] once, indexed by the array itself (a row block at a time,
      so no copy of the whole is made);
    - float64, every value finite with its sign bit clear (so no -0.0,
      which np.unique would merge with 0.0), fewer distinct values than
      entries: each distinct value once, as repr writes it, indexed by its
      sorted position, lo = 0.

    None for any other array, which renders through its list."""
    if a.ndim != 2 or a.size == 0:
        return None
    if a.dtype == np.int64:
        lo, hi = int(a.min()), int(a.max())
        if hi - lo < a.size:
            return a, lo, [str(v) for v in range(lo, hi + 1)]
    elif a.dtype == np.float64 and np.isfinite(a).all() and not np.signbit(a).any():
        values, index = np.unique(a, return_inverse=True)
        if len(values) < a.size:
            return index.reshape(a.shape), 0, [repr(v) for v in values.tolist()]
    return None


def _table_matrix(index: np.ndarray, lo: int, texts: list[str], pad: str) -> Iterator[str]:
    """The text of a 2-D matrix at indentation `pad` whose entry [i, j]
    reads texts[index[i, j] - lo], one str.join per row block. Each value's
    text is made once: `mid` for an entry followed by another in its row,
    `last` for the entry that closes a row and opens the next one."""
    inner, entry = pad + "  ", pad + "    "
    mid = np.array([f"{entry}{t},\n" for t in texts], dtype=object)
    last = np.array([f"{entry}{t}\n{inner}],\n{inner}[\n" for t in texts], dtype=object)
    rows, cols = index.shape
    step = max(1, BLOCK_CHARS // (cols * max(map(len, last))))
    yield f"[\n{inner}[\n"
    for r in range(0, rows, step):
        block = index[r : r + step] - lo
        text = mid[block]
        text[:, -1] = last[block[:, -1]]
        if r + step >= rows:
            # the matrix's last entry closes its row and the matrix
            text[-1, -1] = f"{entry}{texts[index[-1, -1] - lo]}\n{inner}]\n{pad}]"
        yield "".join(text.ravel().tolist())


def csv_rows(doc: dict):
    """The CSV table of a report or bounds document, header first: one row
    per (i, j) acceptance entry (the exact string plus its decimal, or the
    Monte Carlo estimate), per ordered pair of distinct messages with its
    collision count, or per M of a bounds sweep. A document of another kind,
    or a report whose matrix was left out, is refused here, before any row is
    made; the rows themselves are made one at a time."""
    kind = doc["kind"]
    if kind == "bounds":
        rows = ([row["M"], row.get("prop2_lower", "")] for row in doc["sweep"])
        return chain([["M", "prop2_lower"]], rows)
    if kind not in REPORT_KINDS:
        raise ValidationError("this subcommand has no CSV rendering")
    matrix = doc.get("counts" if kind == "collision-report" else "matrix")
    if matrix is None:
        raise ValidationError("report carries no matrix (M too large)")
    if isinstance(matrix, np.ndarray):
        matrix = map(np.ndarray.tolist, matrix)  # each row read once, as a list
    cells = (
        (i, j, p) for i, row in enumerate(matrix, start=1) for j, p in enumerate(row, start=1)
    )
    if kind == "error-report":
        # "n/d" in lowest terms, so n / d is float(Fraction(n, d))
        rows = ([i, j, p, truediv(*map(int, p.split("/")))] for i, j, p in cells)
        return chain([["i", "j", "accept", "accept_decimal"]], rows)
    if kind == "mc-report":
        return chain([["i", "j", "accept_hat"]], ([i, j, p] for i, j, p in cells))
    D = doc["D"]
    # each count c in 0..D rendered once: c/D in lowest terms, as
    # frac_str(Fraction(c, D)) gives it, and the decimal as csv writes c / D
    text = [(f"{c // (g := gcd(c, D))}/{D // g}", repr(c / D)) for c in range(D + 1)]
    rows = ([j, k, c, *text[c]] for j, k, c in cells if j != k)
    return chain([["j", "k", "collisions", "fraction", "fraction_decimal"]], rows)
