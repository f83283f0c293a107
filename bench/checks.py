"""Output checks for every benchmark step.

They run after each pass, outside the timed region, and hold for any seed:
each follows from the paper's guarantees or from how gen.py built the
inputs. (Byte-level checks, against pass 1 and against the pinned digests,
live in run.py.)

Monte Carlo entries are compared with exact ones, counted directly from the
code: overlaps of orbit sets for orbit-union codes, table agreements for
feedback codes. A plain per-entry 4-sigma rule would flag about 16 of the
65k entries of the M=256 sampling run by chance, so an entry passes when it
lies within 4 sigma or within the Hoeffding deviation that all entries
together exceed with probability below 1e-6. Entries whose exact value is 0
or 1 must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

FAMILY_DELTA = 1e-6


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class PassOutputs:
    """Lazily parsed JSON documents of one pass's work directory."""

    def __init__(self, work: str):
        self.work = work
        self._docs: dict[str, dict] = {}

    def doc(self, fname: str) -> dict:
        if fname not in self._docs:
            with open(os.path.join(self.work, fname)) as fh:
                self._docs[fname] = json.load(fh)
        return self._docs[fname]


def check_build(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    p, prof, code = doc["params"], doc["profile"], doc["code"]
    problems = []
    if code["M"] != p["target"]:
        problems.append(f"built M={code['M']} != target {p['target']}")
    if prof["delta"] > p["cap"]:
        problems.append(f"profile delta {prof['delta']} above cap {p['cap']}")
    if prof["gamma"] != p["gamma"]:
        problems.append("profile gamma differs from the construction's")
    if Fraction(p["lambda2_budget"]) != Fraction(p["cap"], p["gamma"]):
        problems.append("lambda2_budget != cap/gamma")
    return problems


def check_eval(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    lam1, lam2 = Fraction(doc["lambda1"]), Fraction(doc["lambda2"])
    problems = []
    # every evaluated code accepts its own encoder's orbits fully
    if lam1 != 0:
        problems.append(f"lambda1 = {lam1}, expected 0")
    if not lam2 < 1:
        problems.append(f"lambda2 = {lam2}, expected below 1")
    floor = Fraction(doc["bounds"]["pairwise_floor"])
    if lam1 + lam2 < floor:
        problems.append(f"lambda1+lambda2 below the pairwise floor {floor}")
    code = out.doc(step.refs["code"])
    if code.get("kind") == "build":
        budget = Fraction(code["params"]["lambda2_budget"])
        prof = code["profile"]
        if lam2 > budget:
            problems.append(f"orbit-union lambda2 {lam2} above budget {budget}")
        if lam2 != Fraction(prof["delta"], prof["gamma"]):
            problems.append("orbit-union lambda2 != profile delta/gamma")
    return problems


def check_transform(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    ev = out.doc(step.refs["eval"] + ".json")
    problems = []
    if len(doc["steps"]) != 5:
        problems.append(f"{len(doc['steps'])} pipeline steps, expected 5")
    first = doc["steps"][0]["before"]
    before = (Fraction(first["lambda1"]), Fraction(first["lambda2"]))
    if before != (Fraction(ev["lambda1"]), Fraction(ev["lambda2"])):
        problems.append("step-1 'before' lambdas differ from eval's")
    final = doc["final"]
    if Fraction(final["lambda1"]) != 0:
        problems.append("final lambda1 is not 0")
    if doc["duplicate_supports"]:
        if Fraction(final["lambda2"]) != 1:
            problems.append("duplicate supports without a final lambda2 of 1")
    else:
        prof = doc["profile"]
        if Fraction(final["lambda2"]) != Fraction(prof["delta"], prof["gamma"]):
            problems.append("final lambda2 != profile delta/gamma")
    if final["M"] != doc["steps"][-1]["M"]:
        problems.append("final M differs from the last step's")
    return problems


def _orbit_union_exact(code: dict):
    """Exact matrix of an orbit-union code as (overlap counts, gamma):
    decoder j accepts its orbit set fully and encoder i is uniform on one
    vector per orbit of its set, so entry (i, j) is |U_i & U_j| / gamma."""
    member = np.array(
        [[c > 0 for c in row] for row in code["decoders"]["typecounts"]], dtype=np.int64
    )
    return member @ member.T, int(member[0].sum())


def _counts_entry_problems(hat, counts, total, trials: int) -> list[str]:
    """MC estimates against exact entries counts/total."""
    hat = np.asarray(hat, dtype=float)
    p = counts / total
    edge = (counts == 0) | (counts == total)
    problems = []
    bad_edge = edge & (hat != p)
    if bad_edge.any():
        i, j = np.argwhere(bad_edge)[0]
        problems.append(f"MC entry ({i + 1},{j + 1}) = {hat[i, j]}, exact {p[i, j]}")
    sigma = np.sqrt(p * (1 - p) / trials)
    family = math.sqrt(math.log(2 * hat.size / FAMILY_DELTA) / (2 * trials))
    bad = ~edge & (np.abs(hat - p) > np.maximum(4 * sigma, family))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(
            f"{int(bad.sum())} MC entries off, e.g. ({i + 1},{j + 1}) = {hat[i, j]} "
            f"vs exact {p[i, j]}"
        )
    return problems


def check_mc(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    problems = []
    if doc["lambda1"] != 0.0:
        problems.append(f"MC lambda1_hat = {doc['lambda1']}, expected 0")
    code = out.doc(step.refs["code"])
    overlap, gamma = _orbit_union_exact(code.get("code", code))
    return problems + _counts_entry_problems(doc["matrix"], overlap, gamma, doc["mc"]["trials"])


def check_feedback_mc(step, out, ctx) -> list[str]:
    from permid.feedback import build_feedback_code
    from permid.rng import Stream

    doc = out.doc(step.output)
    problems = []
    if doc["lambda1"] != 0.0:
        problems.append(f"feedback MC lambda1_hat = {doc['lambda1']}, expected 0")
    # the CLI draws the tables from Stream(seed, "feedback"); redraw them to
    # count agreements exactly
    code = build_feedback_code(12, 2, 2, step.refs["M"], Stream(ctx["seed"], "feedback"))
    maps = code.maps.astype(np.int64)
    agree = (maps[:, None, :] == maps[None, :, :]).sum(axis=2)
    return problems + _counts_entry_problems(doc["matrix"], agree, code.D, doc["mc"]["trials"])


def check_retry(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    problems = []
    if doc["success"] is not True:
        problems.append(f"feedback retry failed after {doc['draws']} draws")
    if doc["passed"] is not True:
        problems.append("collision report did not pass the 2/N target")
    if Fraction(doc["lambda1"]) != 0:
        problems.append("feedback lambda1 is not 0")
    if Fraction(doc["lambda2"]) != Fraction(doc["max_count"], doc["D"]):
        problems.append("feedback lambda2 != max_count/D")
    if "counts" in doc and max(max(row) for row in doc["counts"]) != doc["max_count"]:
        problems.append("largest collision count differs from max_count")
    return problems


def check_approx(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    problems = []
    if doc["guaranteed"] is not True or doc["collision"] is None:
        problems.append("pigeonhole premise held but no collision was reported")
    elif Fraction(doc["floor"]) > Fraction(doc["lambda_sum"]):
        problems.append("lambda1+lambda2 below the collision floor")
    return problems


def check_setsystem(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    want = step.refs["m_target"]
    problems = []
    if doc["reached_target"] is not True or doc["system"]["M"] != want:
        problems.append(f"family has {doc['system']['M']} sets, target {want}")
    if doc["profile"]["delta"] > doc["cap"]:
        problems.append("profile delta above the intersection cap")
    return problems


def check_bounds(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    family = out.doc(step.refs["system"])
    problems = []
    if doc.get("lemma6_holds") is not True:
        problems.append(f"lemma 6 not confirmed: {doc.get('lemma6_note')}")
    if doc["profile"] != family["profile"]:
        problems.append("bounds profile differs from the family's own")
    return problems


def check_complement(step, out, ctx) -> list[str]:
    doc = out.doc(step.output)
    source = out.doc(step.refs["system"])["system"]
    ground = set(range(1, source["N"] + 1))
    want = [sorted(ground - set(s)) for s in source["sets"]]
    return [] if doc["sets"] == want else ["complement sets differ from [N] minus each set"]


CHECKS = {
    "build": check_build,
    "eval": check_eval,
    "transform": check_transform,
    "mc": check_mc,
    "feedback_mc": check_feedback_mc,
    "retry": check_retry,
    "approx": check_approx,
    "setsystem": check_setsystem,
    "bounds": check_bounds,
    "complement": check_complement,
}


def check_step(step, out: PassOutputs, ctx: dict) -> list[str]:
    try:
        return CHECKS[step.check](step, out, ctx)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
