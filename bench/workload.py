"""Child process of the benchmark: set up one workload, or measure it.

    python3 bench/workload.py setup   --workload W --seed S --size Z --work DIR
    python3 bench/workload.py measure --workload W --seed S --size Z --work DIR \
        --seconds T --trace 0|1 --result FILE

`setup` imports permid from the checkout's `src/`, generates the seeded
inputs and writes them to DIR with a manifest of their digests. `measure`
runs passes of the workload as one closed-loop client for T seconds and
writes the raw per-pass timings, check results, output digests and (with
--trace 1) per-pass layer totals to FILE. run.py turns those into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import speed  # noqa: E402

SAMPLER = speed.Sampler()
STARTED = time.perf_counter()
if __name__ == "__main__":
    # sample machine speed from process start, so that set-up, which
    # includes importing permid below, can be normalised too
    SAMPLER.start()

import permid  # noqa: E402

if not os.path.abspath(permid.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"permid was imported from {permid.__file__}, not from {SRC}")

import permid.cli  # noqa: E402
from permid.serialize import code_from_json, code_to_json, dumps  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def setup(wl, seed: int, work: str) -> None:
    os.makedirs(work, exist_ok=True)
    manifest = {}
    for fname, (recipe, params) in wl.inputs.items():
        path = os.path.join(work, fname)
        if recipe == "build":
            argv = ["-o", path, "build", "--n", str(params["n"]), "--q", str(params["q"]),
                    "--epsilon", params["epsilon"], "--seed", str(seed)]
            if permid.cli.main(argv) != 0:
                raise SystemExit(f"set-up build of {fname} failed")
        else:
            rand = random.Random(f"{wl.name}:{seed}:{fname}")
            if recipe == "perm":
                code = gen.stochastic_perm_code(rand, **params)
            else:
                code = gen.noiseless_code(rand, **params)
            with open(path, "w") as fh:
                fh.write(dumps(code_to_json(code)))
        manifest[f"input:{fname}"] = checks.file_digest(path)
    with open(os.path.join(work, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    end = time.perf_counter()
    with open(os.path.join(work, "setup_speed.json"), "w") as fh:
        json.dump({"factor": SAMPLER.factor(STARTED, end, window=0.0),
                   "busy": SAMPLER.busy(STARTED, end)}, fh)


def _load_system(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    return code_from_json(doc.get("system", doc))


def run_step(step, work: str, seed: int, tracer: Tracer | None):
    """Run one step; returns (start, end, failure or None). Only the command
    or library call itself lies between start and end."""
    if step.kind == "library":
        try:
            system = _load_system(os.path.join(work, step.refs["system"]))
        except (OSError, ValueError, KeyError, permid.PermidError) as exc:
            now = time.perf_counter()
            return now, now, f"input unreadable: {type(exc).__name__}: {exc}"
        fn = getattr(permid, step.lib)
        call = (lambda: tracer.run_op("lib", fn, system)) if tracer else (lambda: fn(system))
    else:
        argv = [a.format(w=work, seed=seed) for a in step.argv]
        main = permid.cli.main
        call = (lambda: tracer.run_op("cli", main, argv)) if tracer else (lambda: main(argv))
    failure = None
    # start every command from an empty collector, so garbage the previous
    # one left does not land in this one's time
    gc.collect()
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = call()
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        result, failure = None, f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer:
        tracer.active = False
    if failure is None and step.kind == "library":
        with open(os.path.join(work, step.output), "w") as fh:
            fh.write(dumps(code_to_json(result)))
    elif failure is None and result != 0:
        failure = f"exit code {result}"
    return start, end, failure


def run_pass(wl, work: str, seed: int, tracer: Tracer | None, sampler, first: bool) -> dict:
    """Run every step once, then check the outputs. Each step's time is kept
    raw (minus the speed sampler's own time) together with its speed factor
    (see speed.py)."""
    spans = {}
    failures = {}
    for step in wl.steps:
        spans[step.name] = []
        for _ in range(step.repeat):
            start, end, failure = run_step(step, work, seed, tracer)
            spans[step.name].append((start, end))
            if failure:
                failures.setdefault(step.name, []).append(failure)
    out = checks.PassOutputs(work)
    digests = {}
    sizes = {}
    for step in wl.steps:
        if step.name in failures:
            continue
        problems = checks.check_step(step, out, {"seed": seed})
        if problems:
            failures[step.name] = ["; ".join(problems)]
        digests[step.name] = checks.file_digest(os.path.join(work, step.output))
        if first:
            sizes[step.name] = _instance(step, out)
    # let every step's speed window fill before reading it
    time.sleep(max(0.0, end + speed.WINDOW - time.perf_counter()))
    times, factors = {}, {}
    for name, runs in spans.items():
        raw = [end - start - sampler.busy(start, end) for start, end in runs]
        normalised = sum(t * sampler.factor(*run) for t, run in zip(raw, runs))
        times[name] = sum(raw)
        factors[name] = normalised / times[name] if times[name] else 1.0
    return {"times": times, "factors": factors, "failures": failures,
            "digests": digests, "sizes": sizes}


def _instance(step, out) -> dict:
    """Sizes read back from a step's output (M, trials, K, N)."""
    doc = out.doc(step.output)
    code = doc.get("code") or doc.get("system") or doc
    found = {k: code[k] for k in ("n", "q", "l", "M", "N") if k in code}
    for key in ("K", "D", "draws", "attempts"):
        if key in doc:
            found[key] = doc[key]
    if "mc" in doc:
        found["trials"] = doc["mc"]["trials"]
    if doc.get("kind") == "pipeline":
        found["final_M"] = doc["final"]["M"]
    if doc.get("kind") == "error-report" and "matrix" in doc:
        # largest exact acceptance entry, in bits: shows which kernel inputs
        # leave int64
        entries = [Fraction(x) for row in doc["matrix"] for x in row]
        found["max_numerator_bits"] = max(x.numerator.bit_length() for x in entries)
        found["max_denominator_bits"] = max(x.denominator.bit_length() for x in entries)
    return found


def measure(wl, seed: int, work: str, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    passes = []
    layers = []
    start = time.perf_counter()
    # with tracing, the first half of the run is untraced so the tracing
    # overhead can be measured against it
    phases = [(False, seconds / 2), (True, seconds)] if traced else [(False, seconds)]
    for trace_on, until in phases:
        ran = 0
        while ran == 0 or time.perf_counter() - start < until:
            if trace_on:
                before = tracer.snapshot()
            record = run_pass(wl, work, seed, tracer if trace_on else None, SAMPLER,
                              not passes)
            if trace_on:
                after = tracer.snapshot()
                layers.append({k: v - before.get(k, 0) for k, v in after.items()})
            record["traced"] = trace_on
            passes.append(record)
            ran += 1
    result = {
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        spans = os.path.join(work, "spans.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="default")
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload, args.size)
    if args.mode == "setup":
        setup(wl, args.seed, args.work)
        return 0
    result = measure(wl, args.seed, args.work, args.seconds, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
