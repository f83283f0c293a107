"""Workload definitions: the inputs set-up writes and the steps each pass runs.

A pass runs every step of its workload once, in order, as one closed-loop
client: each step starts when the previous one returns. A step is either a
`permid` command, run through `permid.cli.main(argv)` with its output
written to a file, or a direct library call.

Every workload runs every command kind, so every end-to-end metric is
measured on every workload. The commands a workload is about run on large
instances; the others run on small probe instances, which shows that layer
doing little work there. Each layer the ROADMAP plans to optimise does most
of the work in one workload and little in another:

- orbit-verify: the exact acceptance kernel and `power_sign`, on the paper's
  orbit-union code (deterministic decoders, uniform encoders);
- stochastic-verify: the same kernel on stochastic decoders, non-uniform
  encoders, a two-use lift, and acceptance numerators beyond int64;
- sampling: the Monte Carlo samplers and feedback collision counting, with
  no large exact kernel call;
- construct: combinatorics, code validation and the set-family scans.

Sizes are chosen so one pass takes a few seconds on a 2-CPU machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Step:
    """One operation of a pass.

    `kind` names the end-to-end metric the step's time adds to; `argv` is
    the CLI argument list with `{w}` for the work directory and `{seed}`
    for the workload seed (a step with kind "library" names a function in
    `lib` instead); `check` names the output check in checks.py. A pass
    runs the step `repeat` times in a row and adds up their times.
    """

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    check: str = ""
    refs: dict = field(default_factory=dict)
    lib: str = ""
    repeat: int = 1

    @property
    def output(self) -> str:
        return f"{self.name}.json"


def _cli(name, kind, *argv, check, **refs) -> Step:
    return Step(name, kind, ("-o", "{w}/" + f"{name}.json") + argv, check, refs)


def build_step(name, n, eps) -> Step:
    return _cli(name, "build", "build", "--n", str(n), "--q", "2", "--epsilon", eps,
                "--seed", "{seed}", check="build")


def eval_step(name, code) -> Step:
    return _cli(name, "eval", "eval", "--code", "{w}/" + code, "--converse",
                check="eval", code=code)


def transform_step(name, code, eval_name) -> Step:
    return _cli(name, "transform", "transform", "--code", "{w}/" + code,
                "--gamma", "1/3", check="transform", eval=eval_name)


def mc_step(name, code, trials) -> Step:
    """Monte Carlo eval of an orbit-union code file."""
    return _cli(name, "mc", "eval", "--code", "{w}/" + code, "--mode", "mc",
                "--trials", str(trials), "--seed", "{seed}", check="mc", code=code)


def approx_step(name, code, K) -> Step:
    return _cli(name, "approx", "approx", "--code", "{w}/" + code, "--K", str(K),
                check="approx")


def feedback_args(M):
    return ("--n", "12", "--q", "2", "--l", "2", "--M", str(M), "--seed", "{seed}")


def retry_step(name, M) -> Step:
    return _cli(name, "feedback", "feedback", *feedback_args(M), "--retry", "10",
                check="retry")


def feedback_mc_step(name, M, trials) -> Step:
    return _cli(name, "feedback_mc", "feedback", *feedback_args(M), "--mode", "mc",
                "--trials", str(trials), check="feedback_mc", M=M)


def setsystem_step(name, N, eps, lam, m_target) -> Step:
    return _cli(name, "setsystem", "setsystem", "--N", str(N), "--epsilon", eps,
                "--lambda", lam, "--m-target", str(m_target),
                "--max-attempts", "400000", "--seed", "{seed}",
                check="setsystem", m_target=m_target)


def bounds_step(name, system, N, alpha) -> Step:
    return _cli(name, "bounds", "bounds", "--N", str(N), "--alpha", alpha,
                "--system", "{w}/" + system, check="bounds", system=system)


def complement_step(name, system) -> Step:
    return Step(name, "library", lib="complement_system", check="complement",
                refs={"system": system})


# Probe steps: small instances of every command kind. `small.json` is a
# small orbit-union code and `noiseless_small.json` a small noiseless code,
# both written during set-up. A probe takes milliseconds, so each runs
# several times per pass to keep its per-pass time steady.
PROBE_REPEATS = 6
PROBES = {
    "build": build_step("p_build", 80, "1/25"),
    "eval": eval_step("p_eval", "small.json"),
    "transform": transform_step("p_transform", "small.json", "p_eval"),
    "mc": mc_step("p_mc", "small.json", 500),
    "approx": approx_step("p_approx", "noiseless_small.json", 4),
    "feedback": retry_step("p_feedback", 128),
    "feedback_mc": feedback_mc_step("p_feedback_mc", 4, 100),
    "setsystem": setsystem_step("p_setsystem", 48, "7/12", "6/7", 120),
    "bounds": bounds_step("p_bounds", "p_setsystem.json", 48, "3/4"),
    "library": complement_step("p_complement", "p_setsystem.json"),
}


@dataclass(frozen=True)
class Workload:
    """Inputs made during set-up, and the focus steps of a pass; probe steps
    cover every command kind the focus steps do not."""

    name: str
    inputs: dict
    focus: tuple[Step, ...]
    sizes: dict

    @property
    def steps(self) -> tuple[Step, ...]:
        kinds = {s.kind for s in self.focus}
        return self.focus + tuple(replace(p, repeat=PROBE_REPEATS)
                                  for kind, p in PROBES.items() if kind not in kinds)


# Set-up inputs: file name -> recipe. "build" recipes run `permid build`;
# "perm" and "noiseless" recipes come from gen.py.
_SMALL_INPUTS = {
    "small.json": ("build", {"n": 60, "q": 2, "epsilon": "1/25"}),
    "noiseless_small.json": ("noiseless", {"N": 3, "M": 32}),
}


def _workloads(size: str) -> dict[str, Workload]:
    small = size == "small"
    ov_n = 100 if small else 150
    code_a = {"n": 12 if small else 60, "q": 2, "l": 1, "M": 12 if small else 64,
              "support": 4, "vectors_per_orbit": 2, "foreign": 4}
    code_b = {"n": 3 if small else 4, "q": 3, "l": 2, "M": 12 if small else 64,
              "support": 4, "vectors_per_orbit": 2, "foreign": 4}
    noiseless = {"N": 3, "M": 24 if small else 128}
    approx_k = 4 if small else 14
    samp_n = 100 if small else 200
    samp_trials = 20 if small else 100
    fmc = (4, 100) if small else (16, 1000)
    retry_m = 64 if small else 1024
    con_n, con_eps = (100, "1/25") if small else (320, "1/40")
    sparse_m = 60 if small else 400
    dense = (40, 100) if small else (120, 400)
    return {
        "orbit-verify": Workload(
            "orbit-verify",
            dict(_SMALL_INPUTS),
            (
                build_step("build", ov_n, "1/25"),
                eval_step("eval", "build.json"),
                transform_step("transform", "build.json", "eval"),
            ),
            {"build": {"n": ov_n, "q": 2, "l": 1, "epsilon": "1/25"},
             "transform": {"gamma": "1/3"}},
        ),
        "stochastic-verify": Workload(
            "stochastic-verify",
            dict(_SMALL_INPUTS, **{
                "code_a.json": ("perm", code_a),
                "code_b.json": ("perm", code_b),
                "noiseless.json": ("noiseless", noiseless),
            }),
            (
                eval_step("eval_a", "code_a.json"),
                transform_step("transform_a", "code_a.json", "eval_a"),
                eval_step("eval_b", "code_b.json"),
                transform_step("transform_b", "code_b.json", "eval_b"),
                approx_step("approx", "noiseless.json", approx_k),
            ),
            {"code_a": code_a, "code_b": code_b,
             "noiseless": dict(noiseless, K=approx_k), "transform": {"gamma": "1/3"}},
        ),
        "sampling": Workload(
            "sampling",
            dict(_SMALL_INPUTS, **{
                "mc_code.json": ("build", {"n": samp_n, "q": 2, "epsilon": "1/25"}),
            }),
            (
                mc_step("mc", "mc_code.json", samp_trials),
                feedback_mc_step("feedback_mc", fmc[0], fmc[1]),
                retry_step("feedback", retry_m),
            ),
            {"mc": {"n": samp_n, "q": 2, "l": 1, "epsilon": "1/25",
                    "trials": samp_trials},
             "feedback_mc": {"n": 12, "q": 2, "l": 2, "M": fmc[0], "trials": fmc[1]},
             "feedback": {"n": 12, "q": 2, "l": 2, "M": retry_m, "retry": 10}},
        ),
        "construct": Workload(
            "construct",
            dict(_SMALL_INPUTS),
            (
                build_step("build", con_n, con_eps),
                setsystem_step("sparse", 200, "1/10", "1/4", sparse_m),
                setsystem_step("dense", dense[0], "3/5", "3/4", dense[1]),
                bounds_step("bounds", "dense.json", dense[0], "1/2"),
                complement_step("complement", "dense.json"),
            ),
            {"build": {"n": con_n, "q": 2, "l": 1, "epsilon": con_eps},
             "sparse": {"N": 200, "epsilon": "1/10", "lambda": "1/4",
                        "m_target": sparse_m},
             "dense": {"N": dense[0], "epsilon": "3/5", "lambda": "3/4",
                       "m_target": dense[1]},
             "bounds": {"alpha": "1/2"}},
        ),
    }


def get(name: str, size: str) -> Workload:
    workloads = _workloads(size)
    if name not in workloads:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    return workloads[name]


NAMES = ("orbit-verify", "stochastic-verify", "sampling", "construct")
SIZES = ("default", "small")
