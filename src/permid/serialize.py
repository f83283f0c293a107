"""JSON and CSV renderings of codes and reports (schema tag "permid/1").

Probabilities serialize as exact "p/q" strings; a *_decimal neighbor is
attached for human reading and is never parsed back. Input vectors serialize
as their 1-based lexicographic rank over the full q-ary cube, so code files
stay flat lists of integers and strings. All JSON is emitted with sorted
keys, making equal objects byte-identical for determinism checks.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from math import gcd
from operator import ne, truediv

import numpy as np

from .combinatorics import index_to_tuple, tuple_to_index
from .dist import Dist
from .errors import ValidationError
from .exact import frac_str, parse_frac
from .feedback import CollisionReport, FeedbackCode
from .idcode import ErrorReport, MCReport, NoiselessIdCode, PermIdCode
from .setsystem import IntersectionProfile, SetSystem

SCHEMA = "permid/1"


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
    parsed = {}

    def frac(text):
        # each distinct string is parsed once per document, to its Fraction
        # and that Fraction's numerator and denominator; other JSON values
        # (1 and 1.0 hash alike) are parsed where they stand
        if type(text) is not str:
            value = parse_frac(text)
            return value, value.as_integer_ratio()
        pair = parsed.get(text)
        if pair is None:
            value = parse_frac(text)
            pair = parsed[text] = value, value.as_integer_ratio()
        return pair

    def masses(pairs, outcome) -> dict:
        # one pass: each outcome checked before its mass is read, as a dict
        # display would; a repeated outcome keeps its last mass
        out = {}
        for k, p in pairs:
            k = outcome(k)
            out[k] = frac(p)[1]
        return out

    if kind == "noiseless":
        N = doc["N"]
        encoders = []
        for pairs in doc["encoders"]:
            mass = masses(pairs, lambda k: k)
            encoders.append(Dist.from_ratios(list(mass), list(mass.values()), size=N))
        decs = doc["decoders"]
        if "deterministic" in decs:
            decoders = [frozenset(d) for d in decs["deterministic"]]
        elif "stochastic" in decs:
            decoders = [
                {k: p for k, (p, _) in enumerate(map(frac, row), start=1) if p}
                for row in decs["stochastic"]
            ]
        else:
            raise ValidationError("noiseless decoders must be deterministic or stochastic")
        return NoiselessIdCode(N, encoders, decoders)
    if kind == "perm":
        n, q, l = doc["n"], doc["q"], doc["l"]
        vectors: dict[int, tuple] = {}

        def index(i):
            # equal indices share one tuple, which PermIdCode validates once;
            # an index that is not an int is refused by index_to_tuple
            if type(i) is not int or i not in vectors:
                vectors[i] = index_to_tuple(i, q, n * l)
            return i

        encoders = []
        for pairs in doc["encoders"]:
            # keyed by index, so each long vector is hashed once, by the Dist
            mass = masses(pairs, index)
            encoders.append(Dist.from_ratios([vectors[i] for i in mass], list(mass.values())))
        counts = [
            dict(compress(enumerate(row, start=1), map(ne, row, repeat(0))))
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
    """Render an exact, Monte Carlo, or collision report as a dict, its
    matrix as a `Matrix` of the report's own integers."""
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
            doc["matrix"] = Matrix(report.accept.num, report.accept.den, _fraction_text)
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
        if report.accept is not None:
            doc["matrix"] = Matrix(report.accept.num, report.accept.den, _estimate_text)
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
            doc["counts"] = Matrix(report.counts, np.ones(report.M, dtype=np.int64), _count_text)
        return doc
    raise ValidationError(f"cannot serialize {type(report).__name__}")


@dataclass(frozen=True, eq=False)
class Matrix:
    """A report's matrix as integers: entry [i, j] is num[i, j] / den[i],
    and text(a, b) writes it as JSON, given that ratio in lowest terms a/b.
    `num` is a nonempty 2-D int64 or object array, `den` one positive
    integer per row."""

    num: np.ndarray
    den: np.ndarray
    text: Callable[[int, int], str]


def _fraction_text(a: int, b: int) -> str:
    """An exact probability, as the string "a/b"."""
    return f'"{a}/{b}"'


def _estimate_text(a: int, b: int) -> str:
    """A Monte Carlo estimate hits / trials, as json writes that float."""
    return repr(truediv(a, b))


def _count_text(a: int, b: int) -> str:
    """A count, over a denominator of 1."""
    return str(a)


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
    """The text of dumps(doc) in pieces of at most BLOCK_CHARS characters,
    unless one row alone is longer, wherever the large values sit: the bytes
    of json.dumps(doc, indent=2, sort_keys=True), with a `Matrix` or an
    iterator of rows, at any depth, in place of its list. An iterator's rows
    are made as the writer reaches them."""
    block, size = [], 0
    for piece in chain(_pieces(doc, ""), ["\n"]):
        size += len(piece)
        if size > BLOCK_CHARS and block:
            yield "".join(block)
            block, size = [], len(piece)
        block.append(piece)
    yield "".join(block)


_SCALAR_TYPES = {str, int, float, bool, type(None)}
#: the most characters in one piece of `chunks`, unless one row is longer
BLOCK_CHARS = 1 << 19


def _pieces(value, pad: str) -> Iterator[str]:
    """The text of json.dumps(value, indent=2, sort_keys=True) for a value
    that starts at indentation `pad`, in pieces, by one rule at every depth:
    a `_leaf` is one piece, a `Matrix` is `_matrix`'s row blocks, and a
    list or tuple of nonempty scalar lists is `_rows`' row blocks, and any
    other list, tuple or iterator goes an item at a time, a dict key by key.
    A leaf item is rendered here, with no generator of its own."""
    if (text := _leaf(value, pad)) is not None:
        yield text
        return
    if isinstance(value, Matrix):
        yield from _matrix(value, pad)
        return
    if _scalar_rows(value):
        yield from _rows(value, pad)
        return
    sep = ",\n" + (inner := pad + "  ")
    if isinstance(value, dict):
        lead, close, items = "{", "}", ((f"{json.dumps(k)}: ", v) for k, v in sorted(value.items()))
    else:
        lead, close, items = "[", "]", zip(repeat(""), value)
    lead += "\n" + inner
    for key, item in items:
        if (text := _leaf(item, inner)) is None:
            yield lead + key
            yield from _pieces(item, inner)
        else:
            yield lead + key + text
        lead = sep
    # only an iterator can be empty here
    yield "[]" if lead[0] == "[" else f"\n{pad}{close}"


def _leaf(value, pad: str) -> str | None:
    """json.dumps(value, indent=2, sort_keys=True) for a value that starts at
    indentation `pad`, made in one call; None for a value `_pieces` writes in
    parts: a Matrix, an iterator, or a nonempty list, tuple or string-keyed
    dict that holds a container. A scalar, or a nonempty list or string-keyed
    dict of scalars, goes to json's C encoder (an indent would pick the
    pure-Python one), the item separator carrying the newline and indent."""
    sep = ",\n" + (inner := pad + "  ")
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _SCALAR_TYPES:
            return f"[\n{inner}{json.dumps(value, separators=(sep, ': '))[1:-1]}\n{pad}]"
    elif type(value) in _SCALAR_TYPES:
        return json.dumps(value)
    elif isinstance(value, dict) and value and set(map(type, value)) == {str}:
        if set(map(type, value.values())) <= _SCALAR_TYPES:
            body = json.dumps(value, sort_keys=True, separators=(sep, ": "))[1:-1]
            return f"{{\n{inner}{body}\n{pad}}}"
    elif not isinstance(value, (Matrix, Iterator)):
        # empty containers, other keys: the stdlib, re-indented (an encoded
        # string never holds a raw newline)
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    return None


def _scalar_rows(value) -> bool:
    """Whether a value is a nonempty list or tuple of nonempty lists or
    tuples of scalars, which `_rows` renders."""
    return (isinstance(value, (list, tuple)) and bool(value)
            and set(map(type, value)) <= {list, tuple} and all(value)
            and set(map(type, chain.from_iterable(value))) <= _SCALAR_TYPES)


def _rows(rows, pad: str) -> Iterator[str]:
    """The text of a list of scalar rows (see `_scalar_rows`) at indentation
    `pad`, in pieces of whole rows of at most BLOCK_CHARS characters unless
    one row alone is longer.
    A piece is a block of rows made by one json.dumps call on json's C
    encoder, whose item separator carries the newline and indent. Between
    two rows that separator stands as `]sep[`, which no scalar's text holds
    (an encoded scalar never holds a raw newline), and one replace turns it
    into the close of the one row and the open of the next."""
    inner, entry = pad + "  ", pad + "    "
    sep = ",\n" + entry
    between, apart = f"]{sep}[", f"\n{inner}],\n{inner}[\n{entry}"
    lead, r = f"[\n{inner}", 0
    step = max(1, BLOCK_CHARS // (16 * max(map(len, rows))))
    while r < len(rows):
        text = json.dumps(rows[r : r + step], separators=(sep, ": "))
        piece = f"{lead}[\n{entry}{text[2:-2].replace(between, apart)}\n{inner}]"
        if len(piece) > BLOCK_CHARS and step > 1:
            step //= 2
            continue
        yield piece
        lead, r = f",\n{inner}", r + step
    yield f"\n{pad}]"


def _matrix(m: Matrix, pad: str) -> Iterator[str]:
    """The text of a Matrix at indentation `pad`, in pieces of at most
    BLOCK_CHARS characters unless one row alone is longer. With a
    `_value_table`, a piece is a row block, one join over each value's text,
    made once: `mid` for an entry followed by another in its row, `last` for
    the entry that closes a row and opens the next. Otherwise a piece is one
    row, written entry by entry from its `_lowest_terms`."""
    inner, entry = pad + "  ", pad + "    "
    rows, cols = m.num.shape
    yield f"[\n{inner}[\n"
    table = _value_table(m)
    if table is not None:
        lo, texts = table
        mid = np.array([f"{entry}{t},\n" for t in texts], dtype=object)
        last = np.array([f"{entry}{t}\n{inner}],\n{inner}[\n" for t in texts], dtype=object)
        step = max(1, BLOCK_CHARS // (cols * max(map(len, last))))
        for r in range(0, rows, step):
            block = m.num[r : r + step] - lo
            text = mid[block]
            text[:, -1] = last[block[:, -1]]
            if r + step >= rows:
                # the matrix's last entry closes its row and the matrix
                text[-1, -1] = f"{entry}{texts[block[-1, -1]]}\n{inner}]\n{pad}]"
            yield "".join(text.ravel().tolist())
        return
    sep, end = f",\n{entry}", f"\n{inner}],\n{inner}[\n"
    for i, (a, b) in enumerate(_lowest_terms(m.num, m.den), start=1):
        yield f"{entry}{sep.join(map(m.text, a, b))}" + (end if i < rows else f"\n{inner}]\n{pad}]")


def _value_table(m: Matrix) -> tuple[int, list] | None:
    """(lo, texts) with texts[v - lo] the text of each value v in the range
    of an int64 `num` over one denominator, when that range has fewer
    numbers than the matrix has entries; else None."""
    if m.num.dtype != np.int64 or len(dens := set(m.den.tolist())) != 1:
        return None
    (d,), lo, hi = dens, int(m.num.min()), int(m.num.max())
    if hi - lo >= m.num.size:
        return None
    return lo, [m.text(v // (g := gcd(v, d)), d // g) for v in range(lo, hi + 1)]


def _lowest_terms(num: np.ndarray, den: np.ndarray) -> Iterator[tuple[list, list]]:
    """Each row of num / den[:, None] in lowest terms, as its numerators and
    denominators; a block of about BLOCK_CHARS / 8 entries at a time is
    reduced by one np.gcd, in C over int64 (so denominators that fit are cast)."""
    if max(den.tolist()) >> 63 == 0:
        den = den.astype(np.int64)
    step = max(1, BLOCK_CHARS // (8 * num.shape[1]))
    for r in range(0, len(num), step):
        block, d = num[r : r + step], den[r : r + step, None]
        g = np.gcd(block, d)
        yield from zip((block // g).tolist(), (d // g).tolist())


def csv_rows(doc: dict):
    """The CSV table of a report or bounds document, header first: one row
    per (i, j) acceptance entry (the exact fraction plus its decimal, or the
    Monte Carlo estimate), per ordered pair of distinct messages with its
    collision count, or per M of a bounds sweep. A document of another kind,
    or a report whose matrix was left out, is refused here, before any row is
    made; the rows themselves are made one at a time."""
    kind = doc["kind"]
    if kind == "bounds":
        rows = ([row["M"], row.get("prop2_lower", "")] for row in doc["sweep"])
        return chain([["M", "prop2_lower"]], rows)
    # each report's header, and the cells after (i, j) of an entry a/b in
    # lowest terms as csv writes them (a float as its repr); a count c is read
    # over D as a/b, so c = a * D / b
    D = doc.get("D", 1)
    header, cells = {
        "error-report": (["i", "j", "accept", "accept_decimal"],
                         lambda a, b: (f"{a}/{b}", repr(truediv(a, b)))),
        "mc-report": (["i", "j", "accept_hat"], lambda a, b: (repr(truediv(a, b)),)),
        "collision-report": (["j", "k", "collisions", "fraction", "fraction_decimal"],
                             lambda a, b: (str(a * D // b), f"{a}/{b}", repr(truediv(a, b)))),
    }.get(kind, (None, None))
    if header is None:
        raise ValidationError("this subcommand has no CSV rendering")
    m = doc.get("counts" if kind == "collision-report" else "matrix")
    if m is None:
        raise ValidationError("report carries no matrix (M too large)")
    # each distinct value's cells made once, as for JSON, where that is fewer
    m = replace(m, den=m.den * D, text=cells)
    if (table := _value_table(m)) is None:
        grid = (map(cells, a, b) for a, b in _lowest_terms(m.num, m.den))
    else:
        grid = (map(table[1].__getitem__, (row - table[0]).tolist()) for row in m.num)
    keep_diagonal = kind != "collision-report"
    rows = ([i, j, *c] for i, row in enumerate(grid, start=1)
            for j, c in enumerate(row, start=1) if keep_diagonal or i != j)
    return chain([header], rows)
