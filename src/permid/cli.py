"""Command-line front end.

Subcommands cover the whole library surface: orbit enumeration, set-system
construction, achievable-code building, exact and sampled evaluation, the
transformation pipeline, resolution maps, the feedback scheme, and bound
sweeps. Every stochastic subcommand takes a 64-bit root seed (flag --seed,
env PERMID_SEED as fallback, 0 otherwise) and is bit-reproducible. Rational
parameters are parsed exactly from "p/q" strings. Every failure, a usage
error or a conflicting flag included, exits nonzero with a machine-readable
JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from .approx import approx_distance, build_approx, pigeonhole_collision_check
from .combinatorics import (
    ENUMERATION_LIMIT,
    check_N_bounds,
    count_types,
    iter_types,
    type_index,
    typeclass_size,
)
from .dist import Dist
from .errors import (
    BoundViolationError,
    BudgetError,
    HypothesisError,
    PermidError,
    ValidationError,
)
from .exact import frac_str, parse_frac
from .feedback import (
    FeedbackCode,
    _target_report,
    build_feedback_code,
    build_until_target,
    eval_feedback_exact,
    eval_feedback_mc,
)
from .idcode import (
    MATRIX_CAP,
    PermIdCode,
    build_multishot_achievable,
    check_strong_converse,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
)
from .rng import Stream
from .serialize import (
    REPORT_KINDS,
    SCHEMA,
    code_from_json,
    code_to_json,
    csv_rows,
    dumps,
    profile_to_json,
    report_to_json,
)
from .setsystem import (
    greedy_gilbert,
    johnson_bound_M,
    lemma6_check,
    prop2_lower_bound,
    verify_profile,
)
from .transforms import SelectResult, UniformizeResult, gamma_for_rate, soft_converse_pipeline


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PERMID_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValidationError(f"PERMID_SEED must be an integer, got {env!r}") from None


def _emit(args, doc: dict) -> None:
    """Write a command's document as JSON, or its table as CSV, to stdout or
    to --output. Past --matrix-cap messages a report leaves out its matrix,
    so its CSV, which is nothing but the matrix, is refused, and refused
    before --output is opened."""
    if doc["kind"] in REPORT_KINDS and doc["M"] > args.matrix_cap:
        doc.pop("matrix", None)
        doc.pop("counts", None)
    rows = csv_rows(doc) if args.format == "csv" else None
    if args.output is not None:
        try:
            out = open(args.output, "w", newline="")
        except OSError as exc:
            raise ValidationError(
                f"cannot write output file {args.output!r}: {exc.strerror}"
            ) from exc
    else:
        out = nullcontext(sys.stdout)
    with out as fh:
        if rows is None:
            fh.write(dumps(doc))
        else:
            csv.writer(fh).writerows(rows)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


# run documents wrap the code they produced; accept them wherever a code
# document is expected so build/setsystem output chains straight into
# eval/transform/bounds without manual extraction
_NESTED_CODE_KEY = {"build": "code", "setsystem-run": "system"}


def _unwrap_code(doc):
    if isinstance(doc, dict) and isinstance(doc.get("kind"), str):
        key = _NESTED_CODE_KEY.get(doc["kind"])
        if key is not None and key in doc:
            return doc[key]
    return doc


def _load_code(path: str, *kinds: str):
    """The code in the document at `path`, which must be of one of `kinds`."""
    doc = _unwrap_code(_read_json(path, "code"))
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in kinds:
        raise ValidationError(
            f"{path!r} holds a {kind!r} document; expected {' or '.join(kinds)}"
        )
    return code_from_json(doc)


def cmd_types(args) -> dict:
    N = count_types(args.n, args.q)
    bounds = check_N_bounds(args.n, args.q)
    doc = {
        "schema": SCHEMA,
        "kind": "types",
        "n": args.n,
        "q": args.q,
        "N": N,
        "bounds": {
            "lower_ok": bounds.lower_ok,
            "upper_ok": bounds.upper_ok,
            "coarse_ok": bounds.coarse_ok,
        },
    }
    if N <= ENUMERATION_LIMIT:
        doc["types"] = [
            {"index": type_index(t), "counts": list(t.counts), "size": typeclass_size(t)}
            for t in iter_types(args.n, args.q)
        ]
    return doc


def cmd_setsystem(args) -> dict:
    stream = Stream(_resolve_seed(args.seed), "setsystem")
    result = greedy_gilbert(
        args.N,
        parse_frac(args.epsilon),
        parse_frac(getattr(args, "lambda")),
        stream,
        max_attempts=args.max_attempts,
        m_target=args.m_target,
        strict=args.strict,
    )
    return {
        "schema": SCHEMA,
        "kind": "setsystem-run",
        "gamma": result.gamma,
        "cap": result.cap,
        "target": result.target,
        "attempts": result.attempts,
        "reached_target": result.reached_target,
        "warning": result.warning,
        "hypothesis_ok": result.hypothesis.ok,
        "system": code_to_json(result.system),
        "profile": profile_to_json(result.profile),
    }


def cmd_build(args) -> dict:
    stream = Stream(_resolve_seed(args.seed), "build")
    built = build_multishot_achievable(
        args.n,
        args.q,
        args.l,
        parse_frac(args.epsilon),
        stream,
        max_attempts=args.max_attempts,
    )
    p = built.params
    return {
        "schema": SCHEMA,
        "kind": "build",
        "params": {
            "n": p.n,
            "q": p.q,
            "l": p.l,
            "epsilon": frac_str(p.epsilon),
            "N": p.N,
            "ground": p.ground,
            "gamma": p.gamma,
            "cap": p.cap,
            "target": p.target,
            "cap_vacuous": p.cap_vacuous,
            "lambda2_budget": frac_str(p.lambda2_budget),
        },
        "attempts": built.attempts,
        "profile": profile_to_json(built.profile),
        "code": code_to_json(built.code, seed=_resolve_seed(args.seed)),
    }


def cmd_eval(args) -> dict:
    mc = args.mode == "mc"
    kinds = ("perm", "feedback") if mc else ("perm", "noiseless", "feedback")
    code = _load_code(args.code, *kinds)
    feedback = isinstance(code, FeedbackCode)
    if args.converse and (mc or feedback):
        raise ValidationError(
            "--converse replays the pairwise floor on an exact perm or noiseless "
            "report; it takes neither --mode mc nor a feedback code"
        )
    if mc:
        evaluate = eval_feedback_mc if feedback else eval_perm_mc
        report = evaluate(code, args.trials, Stream(_resolve_seed(args.seed), "eval"))
    elif feedback:
        report = eval_feedback_exact(code)
    elif isinstance(code, PermIdCode):
        report = eval_perm_exact(code)
    else:
        report = eval_noiseless(code)
    doc = report_to_json(report)
    if args.converse:
        doc["bounds"] = {"pairwise_floor": frac_str(check_strong_converse(code, report))}
    return doc


def _lambdas(report) -> dict:
    return {"lambda1": frac_str(report.lambda1), "lambda2": frac_str(report.lambda2)}


def cmd_transform(args) -> dict:
    code = _load_code(args.code, "perm")
    if args.gamma is not None:
        gamma = parse_frac(args.gamma)
    else:
        gamma = gamma_for_rate(parse_frac(args.mu), code.q, code.l)
    result = soft_converse_pipeline(code, gamma)
    steps = []
    for step in result.steps:
        entry = {
            "name": step.name,
            "checks": list(step.checks),
            "before": _lambdas(step.before),
            "after": _lambdas(step.after),
            "M": step.code.M,
        }
        if isinstance(step, UniformizeResult):
            entry.update(gamma=frac_str(step.gamma), kappa=step.kappa,
                         chosen_bins=list(step.chosen_bins), factor_vacuous=step.factor_vacuous)
        if isinstance(step, SelectResult):
            entry.update(kept=list(step.kept), support_size=step.support_size)
        steps.append(entry)
    return {
        "schema": SCHEMA,
        "kind": "pipeline",
        "gamma": frac_str(gamma),
        "steps": steps,
        "duplicate_supports": result.duplicate_supports,
        "final": {"M": result.final_code.M, **_lambdas(result.final)},
        "system": code_to_json(result.system) if result.system else None,
        "profile": profile_to_json(result.profile) if result.profile else None,
    }


def cmd_approx(args):
    if args.code is not None:
        code = _load_code(args.code, "noiseless")
        report = pigeonhole_collision_check(code, args.K)
        return {
            "schema": SCHEMA,
            "kind": "pigeonhole",
            "N": report.N,
            "K": report.K,
            "M": report.M,
            "guaranteed": report.guaranteed,
            "collision": list(report.collision) if report.collision else None,
            "floor": frac_str(report.floor) if report.floor is not None else None,
            "lambda_sum": frac_str(report.lambda_sum),
            "distances": [frac_str(d) for d in report.distances],
        }
    probs = _read_json(args.target, "target distribution")
    if not isinstance(probs, list) or any(isinstance(p, bool) for p in probs):
        raise ValidationError("target distribution must be a JSON list of rational masses")
    target = Dist(
        {y: parse_frac(p) for y, p in enumerate(probs, start=1)}, size=len(probs)
    )
    amap = build_approx(target, args.K)
    d = approx_distance(amap, target)
    return {
        "schema": SCHEMA,
        "kind": "approx-map",
        "N": amap.N,
        "K": amap.K,
        "atoms": list(amap.atoms),
        "distance": frac_str(d),
        "distance_decimal": float(d),
        "bound": frac_str(Fraction(amap.N, amap.K)),
    }


def cmd_feedback(args) -> dict:
    if args.mode == "mc" and (args.retry is not None or args.target_test):
        raise ValidationError("--mode mc does not combine with --retry or --target-test")
    seed = _resolve_seed(args.seed)
    stream = Stream(seed, "feedback")
    if args.retry is not None:
        result = build_until_target(args.n, args.q, args.l, args.M, stream, args.retry)
        doc = report_to_json(result.report)
        doc["draws"] = result.draws
        doc["success"] = result.success
        return doc
    code = build_feedback_code(args.n, args.q, args.l, args.M, stream)
    if args.mode == "mc":
        report = eval_feedback_mc(code, args.trials, Stream(seed, "feedback-mc"))
        return report_to_json(report)
    report = _target_report(code) if args.target_test else eval_feedback_exact(code)
    doc = report_to_json(report)
    if args.target_test:
        doc["target_test"] = report.passed
    return doc


def cmd_bounds(args) -> dict:
    alpha = parse_frac(args.alpha)
    # checked before the sweep divides by alpha, also when no row reaches a bound
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0,1)")
    # checked here too, also when no row of the sweep reaches the bound
    if args.N < 1:
        raise ValidationError("N must be positive")
    if (args.d is None) != (args.w is None):
        raise ValidationError("--d and --w go together")
    count = args.M_max - args.M_min + 1
    if count > ENUMERATION_LIMIT:
        raise BudgetError(f"sweep of {count} rows exceeds the budget of {ENUMERATION_LIMIT}")
    rows = []
    for M in range(args.M_min, args.M_max + 1):
        row = {"M": M}
        # the bound is defined for 1 + N/alpha < M <= 2^N; other rows leave it out
        try:
            row["prop2_lower"] = prop2_lower_bound(args.N, M, alpha)
        except HypothesisError:
            pass
        rows.append(row)
    doc = {
        "schema": SCHEMA,
        "kind": "bounds",
        "N": args.N,
        "alpha": frac_str(alpha),
        "sweep": rows,
    }
    if args.d is not None:
        try:
            doc["johnson"] = johnson_bound_M(args.N, args.d, args.w)
        except HypothesisError as exc:
            doc["johnson"] = None
            doc["johnson_note"] = str(exc)
    if args.system is not None:
        system = _load_code(args.system, "setsystem")
        profile = verify_profile(system)
        doc["profile"] = profile_to_json(profile)
        try:
            doc["lemma6_holds"] = lemma6_check(system, alpha)
        except HypothesisError as exc:
            doc["lemma6_holds"] = None
            doc["lemma6_note"] = str(exc)
    return doc


COMMANDS = {
    "types": cmd_types,
    "setsystem": cmd_setsystem,
    "build": cmd_build,
    "eval": cmd_eval,
    "transform": cmd_transform,
    "approx": cmd_approx,
    "feedback": cmd_feedback,
    "bounds": cmd_bounds,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so it leaves `main` as a
    JSON error like every other failure."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permid",
        description="Exact identification codes for q-ary uniform permutation channels.",
    )
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--output", "-o", help="write the report here instead of stdout")
    parser.add_argument(
        "--matrix-cap",
        type=int,
        default=MATRIX_CAP,
        help="omit matrices once the message count exceeds this",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", help="enumerate orbits and check the count bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("setsystem", help="greedy bounded-intersection family")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--epsilon", required=True, help='set-size ratio, e.g. "1/10"')
    p.add_argument("--lambda", required=True, help='intersection ratio, e.g. "2/5"')
    p.add_argument("--seed", type=int)
    p.add_argument("--m-target", type=int, dest="m_target")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-attempts", type=int, default=100_000)

    p = sub.add_parser("build", help="orbit-union achievable code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-attempts", type=int, default=500_000)

    p = sub.add_parser("eval", help="evaluate a code file")
    p.add_argument("--code", required=True)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--converse", action="store_true", help="attach the pairwise floor")

    p = sub.add_parser("transform", help="run the five-step pipeline")
    p.add_argument("--code", required=True)
    choice = p.add_mutually_exclusive_group(required=True)
    choice.add_argument("--gamma", help='bin resolution, e.g. "1/2"')
    choice.add_argument("--mu", help="rate margin for the preset gamma")

    p = sub.add_parser("approx", help="resolution maps and the collision check")
    p.add_argument("--K", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--target", help="JSON file with a probability list")
    source.add_argument("--code", help="noiseless code file for the pigeonhole check")

    p = sub.add_parser("feedback", help="two-phase feedback scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=10_000)
    exact = p.add_mutually_exclusive_group()
    exact.add_argument("--target-test", action="store_true", dest="target_test")
    exact.add_argument("--retry", type=int, help="redraw budget for the target test")

    p = sub.add_parser("bounds", help="lower-bound sweeps")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--M-min", type=int, default=2, dest="M_min")
    p.add_argument("--M-max", type=int, default=64, dest="M_max")
    p.add_argument("--d", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--system", help="set-system file for the quadratic bound check")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit(args, COMMANDS[args.command](args))
        return 0
    except BoundViolationError as exc:
        _error_out("bound-violation", exc)
        return 3
    except BudgetError as exc:
        _error_out("budget", exc)
        return 4
    except (ValidationError, HypothesisError) as exc:
        _error_out("invalid-input", exc)
        return 2
    except PermidError as exc:
        _error_out("internal", exc)
        return 1


def _error_out(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        dumps(
            {
                "schema": SCHEMA,
                "kind": "error",
                "category": kind,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
    )


if __name__ == "__main__":
    raise SystemExit(main())
