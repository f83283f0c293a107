"""permid benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload orbit-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run sets the workload up three times,
each in a fresh process (import permid, seeded input generation, input files
written), and reports the median as `setup_s`. It then measures the workload
in a fresh process, as one closed-loop client, for --seconds seconds: each
pass runs the workload's steps one after another and its outputs are
checked after the pass, outside the timed region.

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric, from a run whose first half is untraced and second half traced.
The lines before it are a table of each metric (median, the highest
percentile with at least ten samples beyond it, and the sample count) and
the error rate. Raw results with run metadata are written to
bench/_out/results/. The run exits non-zero without a result line when
set-up or measurement cannot run, for example outside a checkout.

--size small runs small instances (used by the smoke test); --pin-digests
records the outputs of this run as the pinned digests of its workload and
size, and needs the default seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "workload.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 3
TIME_KINDS = ("build", "eval", "transform", "approx", "feedback", "setsystem", "bounds")
RATE_KINDS = {"mc_trials_per_s": "mc", "feedback_mc_trials_per_s": "feedback_mc"}
RATIOS = {
    "idcode.mc.trials_per_s": ("idcode.mc.trials", "idcode.mc.total_s"),
    "feedback.mc.trials_per_s": ("feedback.mc.trials", "feedback.mc.total_s"),
    "feedback.draw_success_ratio": ("feedback.draw_successes", "feedback.draws"),
    "transforms.kept_ratio": ("transforms.final_M", "transforms.input_M"),
    "setsystem.grow_family.accept_ratio": (
        "setsystem.grow_family.kept", "setsystem.grow_family.attempts"),
}


class BenchError(Exception):
    """Set-up or measurement could not run; no result is printed."""


def _child(mode: str, args, work: str, timeout: float, *extra: str) -> tuple[float, float]:
    """Run the child process to completion; returns its (start, end) times."""
    cmd = [sys.executable, CHILD, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--work", work, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} did not finish within {timeout:.0f} s") from exc
    end = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"{mode} exited with code {proc.returncode}")
    return start, end


def _percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for label, p in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1 - p) >= 10:
            best = (label, ordered[min(n - 1, int(p * n))])
    return best


def _seconds(p: dict, names, normalize: bool) -> float:
    """Time a pass spent in the named steps, raw or at reference speed."""
    return sum(p["times"][n] * (p["factors"][n] if normalize else 1.0) for n in names)


def _samples_e2e(wl, passes: list[dict], setups: list[float], rss: float,
                 normalize: bool) -> dict:
    first_sizes = passes[0]["sizes"]
    every = [s.name for s in wl.steps]
    samples = {"setup_s": setups,
               "wall_s": [_seconds(p, every, normalize) for p in passes],
               "peak_rss_mb": [rss]}
    for kind in TIME_KINDS:
        names = [s.name for s in wl.steps if s.kind == kind]
        samples[f"{kind}_s"] = [_seconds(p, names, normalize) for p in passes]
    for metric, kind in RATE_KINDS.items():
        names = [s.name for s in wl.steps if s.kind == kind]
        work = sum(first_sizes[s.name]["M"] * first_sizes[s.name]["trials"] * s.repeat
                   for s in wl.steps if s.kind == kind)
        samples[metric] = [work / _seconds(p, names, normalize) for p in passes]
    return samples


def _samples_layers(names: list[str], layers: list[dict], factors: list[float],
                    overhead: float) -> dict:
    """Per-layer samples, one per traced pass; times at reference speed."""
    layers = [{k: v * f if k.endswith("_s") else v for k, v in lay.items()}
              for lay, f in zip(layers, factors)]
    samples = {}
    for name in names:
        if name == "trace.overhead_ratio":
            samples[name] = [overhead]
        elif name in RATIOS:
            num, den = RATIOS[name]
            samples[name] = [lay.get(num, 0) / lay[den] if lay.get(den) else 0.0
                             for lay in layers]
        else:
            samples[name] = [lay.get(name, 0) for lay in layers]
    return samples


def _failures(wl, passes, manifests, pinned) -> tuple[list[str], int]:
    """Failure reports, and the number of failed operations. A step that ran
    `repeat` times in a pass counts as that many operations; its output
    checks apply to its last run."""
    failed = [f"setup {i}: inputs differ from set-up 1"
              for i, m in enumerate(manifests[1:], start=2) if m != manifests[0]]
    failed += [f"setup 1 {name}: {why}" for name, why in pinned_mismatch(pinned, manifests[0])]
    count = len(failed)
    first = passes[0]["digests"]
    for i, p in enumerate(passes, start=1):
        for step in wl.steps:
            reasons = list(p["failures"].get(step.name, []))
            got = p["digests"].get(step.name)
            if got is not None:
                bad = [why for _, why in pinned_mismatch(pinned, {step.name: got})]
                if got != first.get(step.name):
                    bad.append("output bytes differ from pass 1")
                if bad:
                    reasons.append("; ".join(bad))
            if reasons:
                failed.append(f"pass {i} {step.name}: {'; '.join(reasons)}")
                count += min(step.repeat, len(reasons))
    return failed, count


def pinned_mismatch(pinned: dict | None, actual: dict) -> list[tuple[str, str]]:
    """(name, reason) for each entry of `actual` that differs from its pin."""
    if pinned is None:
        return []
    return [(name, "no pinned digest" if name not in pinned else
             f"digest {got[:12]} != pinned {pinned[name][:12]}")
            for name, got in actual.items() if pinned.get(name) != got]


def load_pins(key: str) -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh).get(key, {})


def _write_pins(key: str, pins: dict) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    table[key] = pins
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _table(samples: dict, raw: dict, units: dict) -> list[str]:
    lines = [f"{'metric':<38} {'unit':<16} {'median':>12} {'tail':>18} {'n':>4} "
             f"{'raw median':>12}"]
    for name, values in samples.items():
        tail = _percentile(values)
        tail_text = f"{tail[0]}={tail[1]:.6g}" if tail else "-"
        lines.append(f"{name:<38} {units[name]:<16} {statistics.median(values):>12.6g} "
                     f"{tail_text:>18} {len(values):>4} {statistics.median(raw[name]):>12.6g}")
    return lines


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wl = workloads.get(args.workload, args.size)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    tag = f"{args.workload}-{args.size}-s{args.seed}"
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    setups, setups_raw, manifests = [], [], []
    for _ in range(SETUP_REPEATS):
        start, end = _child("setup", args, work, 30)
        with open(os.path.join(work, "manifest.json")) as fh:
            manifests.append(json.load(fh))
        with open(os.path.join(work, "setup_speed.json")) as fh:
            sampled = json.load(fh)
        setups_raw.append(end - start - sampled["busy"])
        setups.append(setups_raw[-1] * sampled["factor"])
    result_file = os.path.join(work, "measure.json")
    _child("measure", args, work, seconds + 60, "--seconds", str(seconds),
           "--trace", str(args.trace), "--result", result_file)
    with open(result_file) as fh:
        measured = json.load(fh)

    passes = measured["passes"]
    untraced = [p for p in passes if not p["traced"]]
    key = f"{args.workload}/{args.size}"
    default_seed = args.seed == workloads.DEFAULT_SEED
    if args.pin_digests:
        if not default_seed:
            raise BenchError("--pin-digests needs the default seed")
        _write_pins(key, dict(manifests[0], **passes[0]["digests"]))
    pinned = load_pins(key) if default_seed else None
    failed, failed_ops = _failures(wl, passes, manifests, pinned)
    attempted = SETUP_REPEATS + sum(step.repeat for step in wl.steps) * len(passes)

    every = [s.name for s in wl.steps]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        overhead = (statistics.median(_seconds(p, every, True) for p in traced)
                    / statistics.median(_seconds(p, every, True) for p in untraced))
        factors = [_seconds(p, every, True) / _seconds(p, every, False) for p in traced]
        spec = bench["per_layer"]
        names = [m["name"] for m in spec]
        samples = _samples_layers(names, measured["layers"], factors, overhead)
        raw = _samples_layers(names, measured["layers"], [1.0] * len(traced), overhead)
    else:
        spec = bench["end_to_end"]
        rss = measured["peak_rss_mb"]
        samples = _samples_e2e(wl, untraced, setups, rss, True)
        raw = _samples_e2e(wl, untraced, setups_raw, rss, False)
        samples = {m["name"]: samples[m["name"]] for m in spec}
    units = {m["name"]: m["unit"] for m in spec}
    metrics = {name: {"value": statistics.median(v), "unit": units[name]}
               for name, v in samples.items()}

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "size": args.size,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "mpmath": importlib.metadata.version("mpmath"),
        },
        "instances": {"declared": wl.sizes, "observed": passes[0]["sizes"]},
        "passes": len(passes),
        "traced_passes": len(measured["layers"]),
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failed,
        "samples": samples,
        "raw_samples": {name: raw[name] for name in samples},
        "metrics": metrics,
        "digests": dict(manifests[0], **passes[0]["digests"]),
        "spans_file": measured.get("spans_file"),
    }
    with open(os.path.join(OUT, "results", f"{tag}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# workload={args.workload} size={args.size} seed={args.seed} "
          f"seconds={seconds} trace={args.trace} passes={len(passes)} "
          f"closed loop, 1 client")
    for line in _table(samples, raw, units):
        print(line)
    print(f"{'error_rate':<38} {'failed/attempted':<16} "
          f"{failed_ops / attempted:>12.6g} {'-':>18} {attempted:>4}")
    for line in failed[:20]:
        print(f"# FAILED {line}")
    return {"correct": not failed, "attempted": attempted, "failed": failed_ops,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="default")
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
