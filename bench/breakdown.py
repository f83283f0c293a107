"""Traced breakdown of one permid command: self time per layer.

    python3 bench/breakdown.py build --n 400 --q 2 --epsilon 1/40 --seed 1

Runs the command once, untraced, then once traced through tracing.py, and
prints each layer's calls, total and self seconds, and its share of the
traced command time, largest self time first. Times are normalised to the
reference speed of speed.py, like the benchmark's. A layer's total counts
nested calls of itself twice; its self time does not. The command's output
goes to bench/_out/breakdown-output.json.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import permid.cli  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    full = ["-o", os.path.join(out_dir, "breakdown-output.json"), *argv]
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    if permid.cli.main(full) != 0:
        return 1
    end = time.perf_counter()
    untraced = (end - start - sampler.busy(start, end)) * sampler.factor(start, end)
    tracer = Tracer()
    install(tracer)
    tracer.active = True
    start = time.perf_counter()
    code = tracer.run_op("cli", permid.cli.main, full)
    end = time.perf_counter()
    tracer.active = False
    if code != 0:
        return 1
    time.sleep(speed.WINDOW)
    scale = sampler.factor(start, end)
    traced = (end - start - sampler.busy(start, end)) * scale
    print(f"# permid {' '.join(argv)}")
    print(f"# seconds at reference speed (speed.py): untraced {untraced:.3f} s, "
          f"traced {traced:.3f} s, overhead ratio {traced / untraced:.3f}")
    print(f"{'layer':<30} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self share':>10}")
    rows = sorted(tracer.totals.items(), key=lambda kv: -kv[1][2])
    for layer, (calls, total, self_s) in rows:
        print(f"{layer:<30} {calls:>9} {total * scale:>10.3f} {self_s * scale:>10.3f} "
              f"{self_s * scale / traced:>10.1%}")
    for name, value in sorted(tracer.counters.items()):
        print(f"# {name} = {value:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
