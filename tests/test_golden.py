"""Byte-for-byte pins of the CLI's exact reports on four fixed inputs.

`tests/golden/` holds, for each input, the code file and the exact stdout of
`permid eval --converse`, `permid transform --gamma 1/3` and
`permid eval --mode mc --trials 2000 --seed 1` on it (no transform for
`q11`):

- `orbit`: the orbit-union code of `permid build --n 60 --q 2
  --epsilon 1/25 --seed 3` (deterministic decoders, uniform encoders);
- `perm_l2`: `helpers.random_perm_code` at seed 65 with n=3, q=2, M=3, l=2,
  whose per-orbit counts are mostly partial, so the lifted decoders are
  stochastic and one orbit holds several distinct decoder counts.

`q11` is `helpers.random_perm_code` at seed 1 with n=2, q=11, M=4, pinned
for `eval --converse` and the Monte Carlo run only (its decoders break the
transform's hypotheses). With two-digit symbols the `repr` order of its
input vectors differs from their tuple order, and the sampler's draws
follow the former: by repr, (10, 3) sorts before (2, 5). `noiseless` is
`helpers.random_noiseless_code` at seed 2 with N=5, M=4 and mixed decoders,
pinned for `eval --converse` only: it runs the noiseless branch of `eval`.

`feedback.json` and `feedback_retry.json` are the stdout of `permid feedback
--n 6 --q 2 --l 2 --M 4 --seed 1`, plain and with `--retry 3`: collision
reports with their count matrix. `feedback_mc.json` is the stdout of the same
command with `--mode mc --trials 2000`.

`setsystem_sparse.json` and `setsystem_dense.json` are the stdout of `permid
setsystem --m-target 400 --max-attempts 400000 --seed 1` at N=200, epsilon
1/10, lambda 1/4 and at N=120, epsilon 3/5, lambda 3/4; `bounds_dense.json` is
`permid bounds --N 120 --alpha 1/2 --system setsystem_dense.json`. They fix
the greedy family's draws and the exact intersection profile.
`bounds_prop2.json` is `permid bounds --N 8 --alpha 1/2 --M-min 16 --M-max
64`: the sweep crosses the Prop-2 threshold 1 + N/alpha = 17, so rows 16 and
17 leave `prop2_lower` out and rows 18 to 64 carry its value. The Monte Carlo pins fix the samplers'
draw order: a rewrite that changes which random numbers decide a trial
changes these bytes.

Each `.csv` file is the stdout of `permid --format csv` on the command named
in `CSV_ARGV` below: `eval` on `orbit`, `perm_l2`, `q11` and `noiseless`,
the Monte Carlo `eval` on `orbit`, `feedback --n 6 --q 2 --l 2 --M 4 --seed
1` plain and with `--retry 3`, and the two `bounds` runs above. The CSV rows end
in CRLF, so these files are compared as bytes.

`test_build_eval_transform_need_only_numpy` replays `orbit`'s build, eval
and transform in a fresh interpreter where `import mpmath` fails: the
runtime needs numpy alone.

Any change to these bytes is a change of behaviour. Regenerate them only for
a deliberate one, with `PYTHONPATH=src python tests/test_golden.py`.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import permid
from helpers import random_noiseless_code, random_perm_code
from permid.cli import main
from permid.serialize import code_to_json, dumps

GOLDEN = Path(__file__).parent / "golden"
BUILD_ARGV = ["build", "--n", "60", "--q", "2", "--epsilon", "1/25", "--seed", "3"]
COMMANDS = {
    "eval": ["eval", "--converse"],
    "transform": ["transform", "--gamma", "1/3"],
    "mc": ["eval", "--mode", "mc", "--trials", "2000", "--seed", "1"],
}
FEEDBACK_ARGV = ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "1"]
FEEDBACK_MC_ARGV = FEEDBACK_ARGV + ["--mode", "mc", "--trials", "2000"]
SETSYSTEM_ARGV = {
    name: [
        "setsystem", "--N", N, "--epsilon", eps, "--lambda", lam,
        "--m-target", "400", "--max-attempts", "400000", "--seed", "1",
    ]
    for name, N, eps, lam in [("sparse", "200", "1/10", "1/4"), ("dense", "120", "3/5", "3/4")]
}
BOUNDS_ARGV = [
    "bounds", "--N", "120", "--alpha", "1/2", "--system", str(GOLDEN / "setsystem_dense.json"),
]
BOUNDS_PROP2_ARGV = ["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "16", "--M-max", "64"]
CSV_ARGV = {
    **{
        f"{name}_eval": ["eval", "--code", str(GOLDEN / f"{name}_code.json")]
        for name in ("orbit", "perm_l2", "q11")
    },
    "noiseless_eval": ["eval", "--code", str(GOLDEN / "noiseless_code.json"), "--converse"],
    "orbit_mc": ["eval", "--code", str(GOLDEN / "orbit_code.json")] + COMMANDS["mc"][1:],
    "feedback": FEEDBACK_ARGV,
    "feedback_retry": FEEDBACK_ARGV + ["--retry", "3"],
    "bounds_dense": BOUNDS_ARGV,
    "bounds_prop2": BOUNDS_PROP2_ARGV,
}


# every (command, input) pair with a golden report
REPORTS = [(c, name) for c in sorted(COMMANDS) for name in ("orbit", "perm_l2")] + [
    ("eval", "q11"),
    ("mc", "q11"),
    ("eval", "noiseless"),
]


def perm_l2_code():
    rand = random.Random(65)
    return random_perm_code(rand, 3, 2, 3, l=2, max_support=4, max_decoder=40)


def q11_code():
    return random_perm_code(random.Random(1), 2, 11, 4, max_support=4, max_decoder=12)


def noiseless_code():
    return random_noiseless_code(random.Random(2), 5, 4, "mixed")


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    assert status == 0
    return out


def test_inputs_reproduce(capsys):
    assert run(capsys, BUILD_ARGV) == (GOLDEN / "orbit_code.json").read_text()
    assert dumps(code_to_json(perm_l2_code())) == (GOLDEN / "perm_l2_code.json").read_text()
    assert dumps(code_to_json(q11_code())) == (GOLDEN / "q11_code.json").read_text()
    assert dumps(code_to_json(noiseless_code())) == (GOLDEN / "noiseless_code.json").read_text()


@pytest.mark.parametrize("command, name", REPORTS, ids=[f"{c}-{name}" for c, name in REPORTS])
def test_reports_match_golden_bytes(capsys, command, name):
    code = str(GOLDEN / f"{name}_code.json")
    argv = COMMANDS[command][:1] + ["--code", code] + COMMANDS[command][1:]
    assert run(capsys, argv) == (GOLDEN / f"{name}_{command}.json").read_text()


def test_feedback_mc_matches_golden_bytes(capsys):
    assert run(capsys, FEEDBACK_MC_ARGV) == (GOLDEN / "feedback_mc.json").read_text()


@pytest.mark.parametrize("stem", ["feedback", "feedback_retry"])
def test_collision_report_matches_golden_bytes(capsys, stem):
    assert run(capsys, CSV_ARGV[stem]) == (GOLDEN / f"{stem}.json").read_text()


@pytest.mark.parametrize("name", sorted(SETSYSTEM_ARGV))
def test_setsystem_matches_golden_bytes(capsys, name):
    assert run(capsys, SETSYSTEM_ARGV[name]) == (GOLDEN / f"setsystem_{name}.json").read_text()


def test_bounds_on_a_system_matches_golden_bytes(capsys):
    assert run(capsys, BOUNDS_ARGV) == (GOLDEN / "bounds_dense.json").read_text()


def test_bounds_sweep_across_the_prop2_threshold_matches_golden_bytes(capsys):
    assert run(capsys, BOUNDS_PROP2_ARGV) == (GOLDEN / "bounds_prop2.json").read_text()


@pytest.mark.parametrize("stem", sorted(CSV_ARGV))
def test_csv_matches_golden_bytes(capsys, stem):
    out = run(capsys, ["--format", "csv"] + CSV_ARGV[stem])
    assert out.encode() == (GOLDEN / f"{stem}.csv").read_bytes()


def test_build_eval_transform_need_only_numpy(tmp_path):
    # the chain runs in a fresh interpreter where `import mpmath` fails
    script = "import sys; sys.modules['mpmath'] = None; from permid.cli import main; sys.exit(main())"
    src = str(Path(permid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run_bare(argv):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    code = tmp_path / "code.json"
    code.write_bytes(run_bare(BUILD_ARGV))
    assert code.read_bytes() == (GOLDEN / "orbit_code.json").read_bytes()
    for command in ("eval", "transform"):
        argv = COMMANDS[command][:1] + ["--code", str(code)] + COMMANDS[command][1:]
        assert run_bare(argv) == (GOLDEN / f"orbit_{command}.json").read_bytes()


def _regenerate() -> None:
    import contextlib
    import io

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "orbit_code.json").write_text(capture(BUILD_ARGV))
    (GOLDEN / "perm_l2_code.json").write_text(dumps(code_to_json(perm_l2_code())))
    (GOLDEN / "q11_code.json").write_text(dumps(code_to_json(q11_code())))
    (GOLDEN / "noiseless_code.json").write_text(dumps(code_to_json(noiseless_code())))
    for command, name in REPORTS:
        args = COMMANDS[command]
        text = capture(args[:1] + ["--code", str(GOLDEN / f"{name}_code.json")] + args[1:])
        (GOLDEN / f"{name}_{command}.json").write_text(text)
    (GOLDEN / "feedback_mc.json").write_text(capture(FEEDBACK_MC_ARGV))
    for stem in ("feedback", "feedback_retry"):
        (GOLDEN / f"{stem}.json").write_text(capture(CSV_ARGV[stem]))
    for name, argv in SETSYSTEM_ARGV.items():
        (GOLDEN / f"setsystem_{name}.json").write_text(capture(argv))
    (GOLDEN / "bounds_dense.json").write_text(capture(BOUNDS_ARGV))
    (GOLDEN / "bounds_prop2.json").write_text(capture(BOUNDS_PROP2_ARGV))
    for stem, argv in CSV_ARGV.items():
        (GOLDEN / f"{stem}.csv").write_bytes(capture(["--format", "csv"] + argv).encode())


if __name__ == "__main__":
    _regenerate()
