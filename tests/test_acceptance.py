"""Acceptance suite: one test per shipped criterion, exact tolerances.

Each test prints a single machine-greppable line, `criterion NN PASS/FAIL`,
with the instance counts and the measured runtime. Time limits are part of
the contract and are asserted, not just reported. Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they happen.
"""

import functools
import itertools
import json
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from helpers import (
    accept_hat,
    PermutationChannel,
    error_report_from_json,
    fractions,
    random_dist,
    random_noiseless_code,
    random_perm_code,
)
from permid import (
    Dist,
    NoiselessIdCode,
    SetSystem,
    Stream,
    acceptance_matrix,
    build_approx,
    build_feedback_code,
    build_multishot_achievable,
    count_resolution_types,
    decoder_equals_support,
    equal_size_supports,
    eval_feedback_exact,
    eval_feedback_mc,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
    feedback_counting_converse,
    grow_family,
    h2,
    h2_inv,
    iter_types,
    johnson_bound_M,
    perm_to_noiseless,
    pigeonhole_collision_check,
    prop2_lower_bound,
    approx_distance,
    stoch_to_det_decoders,
    strong_converse_floor,
    to_uniform_encoders,
    type_of,
    type_representative,
    typeclass_size,
    verify_profile,
)
from permid.cli import main as cli_main
from permid.exact import power_sign
from permid.serialize import code_to_json, dumps, report_to_json


def criterion(number, label, limit=None):
    """Time the body, print one pass/fail line, enforce the runtime limit."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number:2d} FAIL {label} ({elapsed:.1f}s)")
                raise
            elapsed = time.perf_counter() - start
            ok = limit is None or elapsed < limit
            verdict = "PASS" if ok else "FAIL"
            note = f"; {detail}" if detail else ""
            print(f"criterion {number:2d} {verdict} {label} ({elapsed:.1f}s{note})")
            assert ok, f"runtime {elapsed:.1f}s breaks the {limit}s limit"

        return run

    return wrap


@criterion(1, "channel law is exactly orbit-uniform for n<=8, q<=3", limit=10)
def test_criterion_01_channel_law():
    checked = 0
    for q in [2, 3]:
        for n in range(1, 9):
            chan = PermutationChannel(n, q)
            types = list(iter_types(n, q))
            reps = [type_representative(t) for t in types]
            sizes = [typeclass_size(t) for t in types]
            for x in itertools.product(range(1, q + 1), repeat=n):
                tx = type_of(x, q)
                size_x = typeclass_size(tx)
                # The law reads y only through its type, so size-weighted
                # probes at one y per type add up to the full sum over y.
                total = Fraction(0)
                for u, y, size_y in zip(types, reps, sizes):
                    p = chan.transition_prob(x, y)
                    if u == tx:
                        assert p == Fraction(1, size_x)
                    else:
                        assert p == 0
                    total += size_y * p
                assert total == 1
                checked += 1
    # Literal whole-cube double sums at small sizes, no shortcuts at all.
    for q, n_top in [(2, 5), (3, 3)]:
        for n in range(1, n_top + 1):
            chan = PermutationChannel(n, q)
            cube = list(itertools.product(range(1, q + 1), repeat=n))
            for x in cube:
                assert sum(chan.transition_prob(x, y) for y in cube) == 1
    return f"every x checked, {checked} exact sums"


@criterion(2, "noiseless lift reproduces the error matrix exactly", limit=30)
def test_criterion_02_lift_error_exactness():
    rand = random.Random(1002)
    for _ in range(100):
        code = random_perm_code(
            rand, rand.randint(2, 5), rand.randint(2, 3), rand.randint(2, 6)
        )
        step = perm_to_noiseless(code)
        assert acceptance_matrix(code) == acceptance_matrix(step.code)
        assert step.before == step.after
    for i in range(100):
        l = 1 if i % 2 else 2
        n = rand.randint(2, 5) if l == 1 else rand.randint(2, 3)
        code = random_perm_code(rand, n, rand.randint(2, 3), rand.randint(2, 6), l=l)
        step = perm_to_noiseless(code)
        assert acceptance_matrix(code) == acceptance_matrix(step.code)
        assert step.before == step.after
    return "200 codes, matrices equal with zero tolerance"


@criterion(3, "all four transformation inequalities hold exactly", limit=60)
def test_criterion_03_transform_inequalities():
    rand = random.Random(1003)

    # Decoder thresholding: squared cross entries and the miss growth.
    for _ in range(100):
        code = random_noiseless_code(rand, rand.randint(3, 8), rand.randint(2, 5), "mixed")
        step = stoch_to_det_decoders(code)
        lam2 = step.before.lambda2
        old, new = fractions(step.before.accept), fractions(step.after.accept)
        for i in range(code.M):
            gap = step.after.missed[i] - step.before.missed[i]
            if gap > 0:
                assert gap * gap <= lam2
            for j in range(code.M):
                if i != j:
                    assert new[i][j] * new[i][j] <= old[i][j]

    # Encoder uniformization: the explicit blow-up factor, as an exact
    # power comparison (lhs*g*(1 - N^-g) <= rhs*(1+2g)*N^g).
    gammas = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]
    for k in range(100):
        code = random_noiseless_code(rand, rand.randint(3, 8), rand.randint(2, 5), "mixed")
        g = gammas[k % len(gammas)]
        step = to_uniform_encoders(code, g)
        new, old = step.after.lambda2, step.before.lambda2
        if new == 0:
            continue
        s = power_sign(
            [(new * g, 0), (-new * g, -g), (-old * (1 + 2 * g), g)], code.N
        )
        assert s <= 0

    # Support restriction: zero misses, bounded cross growth.
    for _ in range(100):
        N = rand.randint(3, 7)
        M = rand.randint(2, 5)
        encoders = [random_dist(rand, N) for _ in range(M)]
        decoders = []
        for enc in encoders:
            anchor = rand.choice(sorted(enc.support()))
            extra = set(rand.sample(range(1, N + 1), rand.randint(0, N - 1)))
            decoders.append(frozenset({anchor} | extra))
        step = decoder_equals_support(NoiselessIdCode(N, encoders, decoders))
        assert step.after.lambda1 == 0
        old, new = fractions(step.before.accept), fractions(step.after.accept)
        for i in range(M):
            for j in range(M):
                if i != j:
                    assert new[i][j] * (1 - step.before.missed[i]) <= old[i][j]

    # Size selection: pigeonhole on the kept count, no error growth.
    for _ in range(100):
        code = random_noiseless_code(rand, rand.randint(2, 6), rand.randint(2, 6), "det")
        step = equal_size_supports(code)
        assert step.code.M >= -(-code.M // code.N)
        assert step.after.lambda1 <= step.before.lambda1
        assert step.after.lambda2 <= step.before.lambda2
    return "100 codes per transformation, zero violations"


@criterion(4, "orbit-union codes at n=40,60,80 meet the cross-error budget", limit=60)
def test_criterion_04_oneshot_construction():
    eps = Fraction(1, 100)
    for n in [40, 60, 80]:
        built = build_multishot_achievable(n, 2, 1, eps, Stream(n))
        report = eval_perm_exact(built.code)
        assert report.lambda1 == 0
        assert report.lambda2 <= built.params.lambda2_budget
    return "three block lengths, exact rates inside budget"


@functools.lru_cache(maxsize=1)
def constant_weight_pool():
    """Constant-weight systems, full / random / greedy, N<=10, sizes<=4."""
    rand = random.Random(1005)
    pool = []
    for N in range(2, 11):
        for gamma in range(1, min(4, N - 1) + 1):
            universe = list(itertools.combinations(range(1, N + 1), gamma))
            count = len(universe)
            members = [frozenset(s) for s in universe]
            if count >= 2:
                pool.append(SetSystem(N, tuple(members)))
            for _ in range(3):
                M = rand.randint(2, count)
                pool.append(SetSystem(N, tuple(rand.sample(members, M))))
            # Large samples, since only M > 1 + N/alpha feeds criterion 5.
            for _ in range(3):
                M = rand.randint(max(2, count * 3 // 4), count)
                pool.append(SetSystem(N, tuple(rand.sample(members, M))))
            for cap in {max(1, gamma // 2), gamma - 1} - {0}:
                kept, _ = grow_family(
                    N, gamma, cap, count, Stream(rand.randrange(2**32)), 3000
                )
                if len(kept) >= 2:
                    pool.append(SetSystem(N, tuple(kept)))
    return tuple((system, verify_profile(system)) for system in pool)


@criterion(5, "intersection ratio beats the entropy lower bound", limit=120)
def test_criterion_05_intersection_ratio_lower_bound():
    assert h2_inv(0.0) == 0.0
    assert h2_inv(1.0) == 0.5
    for i in range(1000):
        v = i / 999
        assert abs(h2(h2_inv(v)) - v) <= 1e-10

    checked = 0
    for system, profile in constant_weight_pool():
        for alpha in [Fraction(1, 4), Fraction(1, 2)]:
            if profile.M <= 1 + Fraction(profile.N) / alpha:
                continue
            bound = prop2_lower_bound(profile.N, profile.M, alpha)
            ratio = Fraction(profile.delta, profile.gamma)
            # 1e-12 covers only the float evaluation of the bisected
            # inverse; the ratio side is exact.
            assert float(ratio) >= bound - 1e-12
            checked += 1
    assert checked >= 100
    return f"{checked} qualifying systems, zero violations"


@criterion(6, "small-overlap systems obey both counting bounds")
def test_criterion_06_small_overlap_counting_bounds():
    checked = 0
    for system, profile in constant_weight_pool():
        N, M = profile.N, profile.M
        gamma, delta = profile.gamma, profile.delta
        for alpha in [Fraction(1, 4), Fraction(1, 2)]:
            # delta/N <= (1-alpha) * (gamma/N)^2, cleared of denominators.
            if delta * N > (1 - alpha) * gamma * gamma:
                continue
            assert M <= 1 + Fraction(N) / alpha
            assert M <= johnson_bound_M(N, 2 * (gamma - delta), gamma)
            checked += 1
    assert checked >= 50
    return f"{checked} small-overlap instances, zero violations"


@criterion(7, "resolution maps stay within N/K of their target", limit=30)
def test_criterion_07_resolution_distance_bound():
    rand = random.Random(1007)
    combos = []
    for N in [16, 64, 256, 512]:
        root = math.isqrt(N**3)
        if root * root < N**3:
            root += 1
        combos.append((N, root))
        combos.append((N, N * N))
    checked = 0
    for N, K in combos:
        for _ in range(125):
            target = random_dist(rand, N)
            amap = build_approx(target, K)
            assert approx_distance(amap, target) <= Fraction(N, K)
            checked += 1
        if K % N == 0:
            uniform = Dist.uniform(range(1, N + 1), size=N)
            assert approx_distance(build_approx(uniform, K), uniform) == 0
    assert checked == 1000
    return "1000 distributions, exact bound every time"


@criterion(8, "error sums clear the pairwise-distance floor")
def test_criterion_08_pairwise_distance_floor():
    rand = random.Random(1008)
    for i in range(500):
        kind = ["det", "stoch", "mixed"][i % 3]
        code = random_noiseless_code(rand, rand.randint(2, 6), rand.randint(2, 5), kind)
        assert eval_noiseless(code).total >= strong_converse_floor(code)

    forced = 0
    while forced < 200:
        N = rand.randint(2, 3)
        K = 2
        M = count_resolution_types(N, K) + rand.randint(1, 3)
        code = random_noiseless_code(rand, N, M, "mixed")
        report = pigeonhole_collision_check(code, K)
        assert report.guaranteed
        assert report.floor <= eval_noiseless(code).total
        forced += 1
    return "500 floor replays + 200 forced collisions, zero violations"


@criterion(9, "feedback tables hit the 2/N collision target", limit=120)
def test_criterion_09_feedback_scheme():
    passes = 0
    for seed in range(5):
        code = build_feedback_code(12, 2, 2, 1024, Stream(seed))
        report = eval_feedback_exact(code)
        assert report.lambda1 == 0
        if report.lambda2 <= Fraction(2, 13):
            passes += 1
    assert passes >= 4

    trials = 100_000
    for seed, M in [(31, 3), (32, 4)]:
        code = build_feedback_code(6, 2, 2, M, Stream(seed))
        exact = eval_feedback_exact(code)
        mc = eval_feedback_mc(code, trials, Stream(seed + 100))
        estimates = accept_hat(mc)
        assert mc.lambda1_hat == 0.0
        for i in range(M):
            for j in range(M):
                p_hat = estimates[i][j]
                if i == j:
                    assert p_hat == 1.0
                    continue
                p = exact.counts[i, j] / code.D
                if p == 0:
                    assert p_hat == 0.0
                else:
                    assert abs(p_hat - p) <= 4 * math.sqrt(p * (1 - p) / trials)
    return f"{passes}/5 desk-scale seeds under 2/13; MC within 4 sigma"


@criterion(10, "counting converse matches big-integer ground truth")
def test_criterion_10_counting_converse():
    probes = 0
    for n, q, l in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (1, 3, 1), (3, 2, 1), (2, 3, 1), (1, 2, 3)]:
        limit = 2 ** (q ** (n * l))
        for M in range(1, limit + 3):
            assert feedback_counting_converse(n, q, l, M) == (M < limit)
            probes += 1
    for n, q, l in [(12, 2, 1), (6, 3, 2), (4, 5, 2), (20, 2, 1), (10, 2, 2), (2, 2, 10)]:
        E = q ** (n * l)
        assert E <= 2**20
        threshold = 1 << E
        for M in [1, 2, 3, 1 << (E // 2), threshold - 1, threshold, threshold + 1, 3 * threshold]:
            assert feedback_counting_converse(n, q, l, M) == (M < threshold)
            probes += 1
    return f"{probes} probes including every M = 2^(q^(nl)) threshold"


@criterion(11, "seeded runs are byte-identical and reports round-trip")
def test_criterion_11_determinism_roundtrip():
    rand = random.Random(1011)
    for _ in range(30):
        code = random_noiseless_code(rand, rand.randint(2, 5), rand.randint(2, 4), "mixed")
        report = eval_noiseless(code)
        assert error_report_from_json(json.loads(dumps(report_to_json(report)))) == report
    for _ in range(30):
        code = random_perm_code(rand, rand.randint(2, 4), 2, rand.randint(2, 4))
        report = eval_perm_exact(code)
        assert error_report_from_json(json.loads(dumps(report_to_json(report)))) == report

    code = random_perm_code(random.Random(7), 3, 2, 3)
    mc_a = eval_perm_mc(code, 50_000, Stream(1))
    mc_b = eval_perm_mc(code, 50_000, Stream(1))
    assert dumps(report_to_json(mc_a)) == dumps(report_to_json(mc_b))

    fb_a = eval_feedback_exact(build_feedback_code(6, 2, 2, 8, Stream(3)))
    fb_b = eval_feedback_exact(build_feedback_code(6, 2, 2, 8, Stream(3)))
    assert dumps(report_to_json(fb_a)) == dumps(report_to_json(fb_b))

    with tempfile.TemporaryDirectory() as tmp:
        code_path = Path(tmp) / "code.json"
        code_path.write_text(dumps(code_to_json(code)))
        outs = []
        for name in ["a.json", "b.json"]:
            out = Path(tmp) / name
            status = cli_main(
                [
                    "--output", str(out),
                    "eval", "--code", str(code_path),
                    "--mode", "mc", "--trials", "100000", "--seed", "1",
                ]
            )
            assert status == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
    return "60 exact round-trips; MC and CLI reruns byte-identical"
