"""JSON and CSV renderings of codes and reports (schema tag "permid/1").

Probabilities serialize as exact "p/q" strings; a *_decimal neighbor is
attached for human reading and is never parsed back. Input vectors serialize
as their 1-based lexicographic rank over the full q-ary cube, so code files
stay flat lists of integers and strings. All JSON is emitted with sorted
keys, making equal objects byte-identical for determinism checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
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
            "encoders": [
                sorted([k, frac_str(p)] for k, p in enc.items())
                for enc in code.encoders
            ],
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
                        else frac_str(Fraction(1 if k in d else 0))
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
            "encoders": [
                sorted([ranks[id(x)], frac_str(p)] for x, p in enc.items())
                for enc in code.encoders
            ],
            "decoders": {
                "typecounts": [
                    [counts.get(t, 0) for t in range(1, code.ground + 1)]
                    for counts in code.decoder_counts
                ]
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
    if kind == "noiseless":
        N = doc["N"]
        encoders = [
            Dist({k: parse_frac(p) for k, p in pairs}, size=N)
            for pairs in doc["encoders"]
        ]
        decs = doc["decoders"]
        if "deterministic" in decs:
            decoders = [frozenset(d) for d in decs["deterministic"]]
        elif "stochastic" in decs:
            decoders = [
                {k: parse_frac(p) for k, p in enumerate(row, start=1) if parse_frac(p)}
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

        encoders = [
            Dist({vector(i): parse_frac(p) for i, p in pairs}) for pairs in doc["encoders"]
        ]
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
            doc["matrix"] = [[frac_str(p) for p in row] for row in report.accept]
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
        if report.accept_hat is not None:
            doc["matrix"] = [list(row) for row in report.accept_hat]
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
            doc["counts"] = report.counts.tolist()
        return doc
    raise ValidationError(f"cannot serialize {type(report).__name__}")


def error_report_from_json(doc: dict) -> ErrorReport:
    """Rebuild an exact ErrorReport; inverse of report_to_json on that kind."""
    if doc.get("schema") != SCHEMA or doc.get("kind") != "error-report":
        raise ValidationError("not an error-report document")
    accept = None
    if "matrix" in doc:
        accept = tuple(tuple(parse_frac(p) for p in row) for row in doc["matrix"])
    return ErrorReport(
        M=doc["M"],
        lambda1=parse_frac(doc["lambda1"]),
        lambda2=parse_frac(doc["lambda2"]),
        missed=tuple(parse_frac(m) for m in doc["missed"]),
        argmax_miss=doc["argmax_miss"],
        argmax_cross=tuple(doc["argmax_cross"]) if doc["argmax_cross"] else None,
        accept=accept,
    )


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
    newline; byte-identical for equal documents.

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True). An
    indent makes json fall back to its pure-Python encoder, so the frame is
    indented here and each array or object of scalars is left to the C
    encoder, its item separator carrying the newline and indent."""
    return _indented(doc, "") + "\n"


_SCALAR_TYPES = {str, int, float, bool, type(None)}


def _indented(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value that starts
    at indentation `pad`."""
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
    rows = ([j, k, c, frac_str(Fraction(c, D)), c / D] for j, k, c in cells if j != k)
    return chain([["j", "k", "collisions", "fraction", "fraction_decimal"]], rows)
