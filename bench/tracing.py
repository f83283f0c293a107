"""In-memory tracer that wraps permid's public functions from outside.

The package itself is never edited: `install` replaces each traced function
at every module binding that refers to it (for example both
`permid.idcode.acceptance_matrix` and the copy imported into
`permid.transforms`), and traced methods on their classes. A wrapper only
records while the tracer is active, so the same process can time untraced
and traced passes.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by its direct child spans. Every span adds to per-name totals
(calls, total seconds, self seconds); spans of non-leaf functions are also
kept as records (id, parent id, operation id, name, start, end) and written
out at the end of the run. Leaf functions, the hot primitives called
thousands of times per operation, only add to the totals, so memory stays
bounded.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Traced functions: (module, attribute) -> layer name. A layer may collect
# several functions; its self time is the sum of theirs.
FUNCTIONS = {
    ("permid.combinatorics", "type_of"): "combinatorics",
    ("permid.combinatorics", "type_index"): "combinatorics",
    ("permid.combinatorics", "type_unrank"): "combinatorics",
    ("permid.combinatorics", "typeclass_size"): "combinatorics",
    ("permid.combinatorics", "vector_rank"): "combinatorics",
    ("permid.combinatorics", "vector_unrank"): "combinatorics",
    ("permid.combinatorics", "type_representative"): "combinatorics",
    ("permid.exact", "power_sign"): "exact.power_sign",
    ("permid.exact", "compare_power"): "exact.compare_power",
    ("permid.idcode", "achievable_params"): "exact.params",
    ("permid.dist", "tv_distance"): "dist.tv_distance",
    ("permid.idcode", "acceptance_matrix"): "idcode.acceptance_matrix",
    ("permid.idcode", "eval_perm_exact"): "idcode.eval_exact",
    ("permid.idcode", "eval_noiseless"): "idcode.eval_exact",
    ("permid.idcode", "strong_converse_floor"): "idcode.converse",
    ("permid.idcode", "eval_perm_mc"): "idcode.mc",
    ("permid.idcode", "build_multishot_achievable"): "idcode.build",
    ("permid.transforms", "soft_converse_pipeline"): "transforms.pipeline",
    ("permid.transforms", "perm_to_noiseless"): "transforms.lift",
    ("permid.transforms", "stoch_to_det_decoders"): "transforms.det",
    ("permid.transforms", "to_uniform_encoders"): "transforms.uniform",
    ("permid.transforms", "decoder_equals_support"): "transforms.support",
    ("permid.transforms", "equal_size_supports"): "transforms.select",
    ("permid.approx", "build_approx"): "approx.build_approx",
    ("permid.approx", "pigeonhole_collision_check"): "approx.pigeonhole",
    ("permid.feedback", "eval_feedback_mc"): "feedback.mc",
    ("permid.feedback", "eval_feedback_exact"): "feedback.exact",
    ("permid.feedback", "target_test"): "feedback.target_test",
    ("permid.feedback", "build_until_target"): "feedback.retry",
    ("permid.feedback", "build_feedback_code"): "feedback.draw",
    ("permid.setsystem", "grow_family"): "setsystem.grow_family",
    ("permid.setsystem", "verify_profile"): "setsystem.verify_profile",
    ("permid.setsystem", "greedy_gilbert"): "setsystem.greedy",
    ("permid.setsystem", "lemma6_check"): "setsystem.lemma6",
    ("permid.setsystem", "complement_system"): "setsystem.complement",
    ("permid.serialize", "code_from_json"): "serialize.load",
    ("permid.serialize", "code_to_json"): "serialize.dump",
    ("permid.serialize", "report_to_json"): "serialize.dump",
    ("permid.serialize", "profile_to_json"): "serialize.dump",
    ("permid.serialize", "dumps"): "serialize.dump",
}

# Traced methods: (module, class, method) -> layer name.
METHODS = {
    ("permid.idcode", "PermIdCode", "__init__"): "idcode.code_init",
    ("permid.idcode", "NoiselessIdCode", "__init__"): "idcode.code_init",
    ("permid.rng", "Stream", "child"): "rng.child",
}

# Layers whose spans are only summed, never recorded one by one.
LEAF = {"combinatorics", "exact.power_sign", "exact.compare_power",
        "dist.tv_distance", "approx.build_approx", "rng.child"}


def _code_m(args) -> int:
    return args[0].M


def _counters(layer: str, args, result) -> dict[str, float]:
    """Work counts read off a traced call's arguments and result."""
    if layer == "idcode.acceptance_matrix":
        return {"idcode.acceptance_matrix.entries": _code_m(args) ** 2}
    if layer == "idcode.eval_exact":
        return {"idcode.eval_exact.entries": _code_m(args) ** 2}
    if layer == "idcode.converse":
        m = _code_m(args)
        return {"idcode.converse.pairs": m * (m - 1) // 2}
    if layer == "idcode.mc":
        return {"idcode.mc.trials": _code_m(args) * args[1]}
    if layer == "feedback.mc":
        return {"feedback.mc.trials": _code_m(args) * args[1]}
    if layer == "feedback.retry":
        return {"feedback.draws": result.draws,
                "feedback.draw_successes": int(result.success)}
    if layer == "setsystem.grow_family":
        kept, attempts = result
        return {"setsystem.grow_family.attempts": attempts,
                "setsystem.grow_family.kept": len(kept)}
    if layer == "setsystem.verify_profile":
        m = args[0].M
        return {"setsystem.verify_profile.pairs": m * (m - 1) // 2}
    if layer == "transforms.pipeline":
        return {"transforms.input_M": args[0].M,
                "transforms.final_M": result.final_code.M}
    if layer == "serialize.dump" and isinstance(result, str):
        return {"serialize.bytes_out": len(result.encode())}
    return {}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._next_id = 0
        self.op_id = 0

    def wrap(self, layer: str, fn):
        tracer = self
        leaf = layer in LEAF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(layer, leaf, fn, args, kwargs)

        return traced

    def call(self, layer: str, leaf: bool, fn, args, kwargs):
        stack = self._stack
        self._next_id += 1
        # frame: [layer, span id, start, time covered by direct children]
        frame = [layer, self._next_id, perf_counter(), 0.0]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[2]
            totals = self.totals[layer]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[3]
            if stack:
                stack[-1][3] += duration
            if not leaf:
                self.spans.append((frame[1], parent, self.op_id, layer, frame[2], end))
        for name, value in _counters(layer, args, result).items():
            self.counters[name] += value
        return result

    def run_op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span named `name`."""
        self.op_id += 1
        return self.call(name, False, fn, args, {})

    def snapshot(self) -> dict[str, float]:
        """Flat view of totals and counters, for per-pass differences."""
        flat = {}
        for layer, (calls, total, self_s) in self.totals.items():
            flat[f"{layer}.calls"] = calls
            flat[f"{layer}.total_s"] = total
            flat[f"{layer}.self_s"] = self_s
        flat.update(self.counters)
        return flat

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, op, layer, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": layer, "start": start, "end": end}))
                fh.write("\n")


def install(tracer: Tracer) -> int:
    """Wrap every traced function at each module binding that holds it, and
    every traced method on its class. Returns the number of bindings."""
    originals = {}
    for (module, attr), layer in FUNCTIONS.items():
        fn = getattr(sys.modules[module], attr)
        originals[id(fn)] = (fn, tracer.wrap(layer, fn))
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "permid" or name.startswith("permid.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                bound += 1
    for (module, cls_name, method), layer in METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, method, tracer.wrap(layer, getattr(cls, method)))
        bound += 1
    return bound
