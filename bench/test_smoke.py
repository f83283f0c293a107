"""Smoke test of the benchmark: every workload at its small size.

    python3 -m pytest bench/test_smoke.py -q

Each workload must finish with no failed operation, print every metric of
BENCHMARK.json, and match the digests pinned for the default seed. The
digest check itself must reject an output with one byte changed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--size", "small", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_small_workload_is_correct_and_complete(workload):
    result, text = _run(workload, 0)
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in text

    traced, text = _run(workload, 1)
    assert traced["correct"], text
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_digest_check_rejects_a_changed_byte():
    _run("orbit-verify", 0)
    pinned = run.load_pins("orbit-verify/small")
    work = os.path.join(HERE, "_out", "work", f"orbit-verify-small-s{workloads.DEFAULT_SEED}")
    original = os.path.join(work, "eval.json")
    assert run.pinned_mismatch(pinned, {"eval": checks.file_digest(original)}) == []

    with open(original, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    altered = os.path.join(work, "eval.altered.json")
    with open(altered, "wb") as fh:
        fh.write(data)
    assert run.pinned_mismatch(pinned, {"eval": checks.file_digest(altered)})
