"""JSON/CSV round trips and the command-line surface."""

import csv
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import permid.cli
import permid.feedback
import permid.idcode
from helpers import random_noiseless_code, random_perm_code
from permid import (
    Dist,
    FeedbackCode,
    NoiselessIdCode,
    SetSystem,
    Stream,
    build_feedback_code,
    eval_feedback_exact,
    eval_noiseless,
    eval_perm_exact,
    eval_perm_mc,
)
from permid.cli import main
from permid.combinatorics import index_to_tuple, tuple_to_index
from permid.errors import ValidationError
from permid.exact import frac_str, parse_frac
from permid.idcode import ErrorReport
from permid.serialize import (
    SCHEMA,
    code_from_json,
    code_to_json,
    csv_rows,
    dumps,
    error_report_from_json,
    profile_to_json,
    report_to_json,
)
from permid.setsystem import verify_profile


def test_vector_index_examples_and_roundtrip():
    # code files store each input vector as its rank in the q-ary cube
    assert tuple_to_index((1, 1), 2) == 1
    assert tuple_to_index((1, 2), 2) == 2
    assert tuple_to_index((2, 1), 2) == 3
    assert tuple_to_index((2, 2), 2) == 4
    for idx in range(1, 28):
        assert tuple_to_index(index_to_tuple(idx, 3, 3), 3) == idx
    with pytest.raises(ValidationError):
        tuple_to_index((0, 1), 2)
    with pytest.raises(ValidationError):
        index_to_tuple(28, 3, 3)
    with pytest.raises(ValidationError):
        index_to_tuple(0, 3, 3)


def test_noiseless_roundtrip_reevaluates_identically():
    rand = random.Random(5)
    for kind in ["det", "stoch", "mixed"]:
        for _ in range(10):
            code = random_noiseless_code(rand, rand.randint(2, 6), rand.randint(2, 4), kind)
            doc = code_to_json(code)
            back = code_from_json(json.loads(dumps(doc)))
            assert back.N == code.N
            assert back.M == code.M
            for a, b in zip(code.encoders, back.encoders):
                assert dict(a.mass) == dict(b.mass)
            assert eval_noiseless(back) == eval_noiseless(code)


def test_perm_roundtrip_reevaluates_identically():
    rand = random.Random(6)
    for l in [1, 2]:
        for _ in range(10):
            code = random_perm_code(rand, rand.randint(2, 4), 2, rand.randint(2, 4), l=l)
            back = code_from_json(json.loads(dumps(code_to_json(code))))
            assert (back.n, back.q, back.l, back.M) == (code.n, code.q, code.l, code.M)
            for a, b in zip(code.encoders, back.encoders):
                assert dict(a.mass) == dict(b.mass)
            assert back.decoder_counts == code.decoder_counts
            assert eval_perm_exact(back) == eval_perm_exact(code)


def test_feedback_and_setsystem_roundtrip():
    code = build_feedback_code(6, 2, 2, 4, Stream(13))
    back = code_from_json(json.loads(dumps(code_to_json(code))))
    assert (back.n, back.q, back.l) == (6, 2, 2)
    assert np.array_equal(back.maps, code.maps)
    a = eval_feedback_exact(code)
    b = eval_feedback_exact(back)
    assert (a.lambda2, a.max_count, a.argmax_pair) == (b.lambda2, b.max_count, b.argmax_pair)

    system = SetSystem(4, (frozenset({1, 2}), frozenset({3, 4})))
    back = code_from_json(json.loads(dumps(code_to_json(system))))
    assert back.N == 4
    assert set(back.sets) == set(system.sets)


def test_code_json_carries_optional_seed():
    code = random_noiseless_code(random.Random(1), 3, 2)
    assert "seed" not in code_to_json(code)
    assert code_to_json(code, seed=99)["seed"] == 99


def test_serializer_rejects_unknown_things():
    with pytest.raises(ValidationError):
        code_to_json(42)
    with pytest.raises(ValidationError):
        code_from_json({"schema": "nope", "kind": "perm"})
    with pytest.raises(ValidationError):
        code_from_json({"schema": SCHEMA, "kind": "weird"})
    with pytest.raises(ValidationError):
        report_to_json(object())
    with pytest.raises(ValidationError):
        error_report_from_json({"schema": SCHEMA, "kind": "profile"})


def test_dumps_is_canonical():
    doc = {"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}
    text = dumps(doc)
    assert text.endswith("\n")
    assert not text.endswith("\n\n")
    assert text.startswith('{\n  "a"')
    reordered = {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    assert dumps(reordered) == text


def test_error_report_json_is_exactly_invertible():
    rand = random.Random(8)
    for _ in range(15):
        code = random_noiseless_code(rand, rand.randint(2, 5), rand.randint(2, 4), "mixed")
        report = eval_noiseless(code)
        doc = json.loads(dumps(report_to_json(report)))
        assert doc["schema"] == SCHEMA
        assert doc["kind"] == "error-report"
        assert error_report_from_json(doc) == report
        trimmed = dict(doc)
        trimmed.pop("matrix")
        partial = error_report_from_json(trimmed)
        assert partial.accept is None
        assert partial.lambda1 == report.lambda1
        assert partial.lambda2 == report.lambda2
    for _ in range(10):
        code = random_perm_code(rand, 3, 2, rand.randint(2, 4))
        report = eval_perm_exact(code)
        assert error_report_from_json(json.loads(dumps(report_to_json(report)))) == report


def test_collision_report_json_shape():
    code = build_feedback_code(6, 2, 2, 3, Stream(2))
    doc = report_to_json(eval_feedback_exact(code))
    assert doc["kind"] == "collision-report"
    assert doc["lambda1"] == "0/1"
    assert doc["target"] == "2/7"
    assert len(doc["counts"]) == 3
    assert isinstance(doc["passed"], bool)
    single = build_feedback_code(6, 2, 2, 1, Stream(2))
    doc = report_to_json(eval_feedback_exact(single))
    assert doc["lambda2"] is None
    assert doc["lambda2_decimal"] is None
    assert doc["argmax_pair"] is None


def test_mc_report_json_shape():
    code = random_perm_code(random.Random(3), 3, 2, 3)
    report = eval_perm_mc(code, 500, Stream(1))
    doc = report_to_json(report)
    assert doc["kind"] == "mc-report"
    assert doc["mc"]["trials"] == 500
    assert doc["matrix"] == [list(row) for row in report.accept_hat]


def test_matrix_csv_agrees_with_json():
    code = random_noiseless_code(random.Random(9), 4, 3, "stoch")
    report = eval_noiseless(code)
    buf = io.StringIO()
    csv.writer(buf).writerows(csv_rows(report_to_json(report)))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["i", "j", "accept", "accept_decimal"]
    assert len(rows) == 1 + 9
    for i, j, accept, decimal in rows[1:]:
        p = report.accept[int(i) - 1][int(j) - 1]
        assert parse_frac(accept) == p
        assert float(decimal) == float(p)


def test_collision_csv_lists_off_diagonal_pairs():
    code = build_feedback_code(6, 2, 2, 3, Stream(17))
    report = eval_feedback_exact(code)
    buf = io.StringIO()
    csv.writer(buf).writerows(csv_rows(report_to_json(report)))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["j", "k", "collisions", "fraction", "fraction_decimal"]
    assert len(rows) == 1 + 6
    for j, k, c, frac, _dec in rows[1:]:
        assert int(c) == int(report.counts[int(j) - 1, int(k) - 1])
        assert parse_frac(frac) == Fraction(int(c), report.D)


def test_matrix_csv_requires_a_matrix():
    report = ErrorReport(
        M=2,
        lambda1=Fraction(0),
        lambda2=Fraction(0),
        missed=(Fraction(0), Fraction(0)),
        argmax_miss=1,
        argmax_cross=(1, 2),
        accept=None,
    )
    with pytest.raises(ValidationError):
        csv_rows(report_to_json(report))
    with pytest.raises(ValidationError):
        csv_rows(profile_to_json(verify_profile(SetSystem(2, (frozenset({1}),)))))


def test_profile_json_fields():
    system = SetSystem(4, tuple(frozenset(s) for s in [{1, 2}, {1, 3}, {2, 3}]))
    doc = profile_to_json(verify_profile(system))
    assert doc["kind"] == "profile"
    assert (doc["N"], doc["M"], doc["gamma"], doc["delta"]) == (4, 3, 2, 1)
    assert doc["epsilon"] == "1/2"
    assert parse_frac(doc["ratio"]) == Fraction(1, 2)
    assert doc["ratio_decimal"] == 0.5


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_cli_types_lists_all_orbits(capsys):
    status, out, _ = run_cli(capsys, ["types", "--n", "3", "--q", "2"])
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "types"
    assert doc["N"] == 4
    assert [t["counts"] for t in doc["types"]] == [[3, 0], [2, 1], [1, 2], [0, 3]]
    assert [t["size"] for t in doc["types"]] == [1, 3, 3, 1]
    assert [t["index"] for t in doc["types"]] == [1, 2, 3, 4]
    assert all(doc["bounds"].values())


def test_cli_setsystem_run(capsys):
    argv = [
        "setsystem",
        "--N", "20",
        "--epsilon", "1/10",
        "--lambda", "2/5",
        "--seed", "1",
        "--m-target", "10",
    ]
    status, out, _ = run_cli(capsys, argv)
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "setsystem-run"
    assert doc["gamma"] == 2
    assert doc["cap"] == 0
    assert doc["reached_target"]
    assert doc["system"]["M"] == 10
    assert isinstance(doc["hypothesis_ok"], bool)
    status, out2, _ = run_cli(capsys, argv)
    assert status == 0 and out2 == out


def test_cli_build_eval_transform_flow(capsys, tmp_path):
    build_path = tmp_path / "build.json"
    status, out, _ = run_cli(
        capsys,
        [
            "--output", str(build_path),
            "build",
            "--n", "7", "--q", "2", "--l", "2",
            "--epsilon", "1/16",
            "--seed", "3",
        ],
    )
    assert status == 0
    built = json.loads(build_path.read_text())
    params = built["params"]
    assert (params["N"], params["ground"]) == (8, 64)
    assert (params["gamma"], params["cap"], params["target"]) == (10, 15, 9)
    assert built["code"]["M"] == 9
    assert built["code"]["seed"] == 3

    code_path = tmp_path / "code.json"
    code_path.write_text(dumps(built["code"]))

    status, out, _ = run_cli(
        capsys, ["eval", "--code", str(code_path), "--converse"]
    )
    assert status == 0
    report = json.loads(out)
    assert report["kind"] == "error-report"
    assert report["lambda1"] == "0/1"
    assert parse_frac(report["lambda2"]) == parse_frac(built["profile"]["ratio"])
    floor = parse_frac(report["bounds"]["pairwise_floor"])
    assert floor <= parse_frac(report["lambda"])
    assert len(report["matrix"]) == 9

    # The same exact report, rendered as CSV, carries the same rationals.
    csv_path = tmp_path / "matrix.csv"
    status, _, _ = run_cli(
        capsys,
        ["--format", "csv", "--output", str(csv_path), "eval", "--code", str(code_path)],
    )
    assert status == 0
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    for i, j, accept, _dec in rows[1:]:
        assert parse_frac(accept) == parse_frac(report["matrix"][int(i) - 1][int(j) - 1])

    status, out, _ = run_cli(
        capsys, ["--matrix-cap", "4", "eval", "--code", str(code_path)]
    )
    assert status == 0
    assert "matrix" not in json.loads(out)

    status, out, _ = run_cli(
        capsys, ["transform", "--code", str(code_path), "--gamma", "1/3"]
    )
    assert status == 0
    pipe = json.loads(out)
    assert pipe["kind"] == "pipeline"
    assert [s["name"] for s in pipe["steps"]] == [
        "noiseless-lift",
        "deterministic-decoders",
        "uniform-encoders",
        "decoder-equals-support",
        "equal-size-supports",
    ]
    assert all(s["M"] == 9 for s in pipe["steps"][:4])
    if pipe["system"] is not None:
        assert parse_frac(pipe["final"]["lambda2"]) == parse_frac(pipe["profile"]["ratio"])

    status, out, _ = run_cli(
        capsys, ["transform", "--code", str(code_path), "--mu", "1/2"]
    )
    assert status == 0
    assert json.loads(out)["gamma"] == "1/16"

    status, _, err = run_cli(capsys, ["transform", "--code", str(code_path)])
    assert status == 2
    assert json.loads(err)["category"] == "invalid-input"


def test_cli_eval_mc_is_byte_deterministic(capsys, tmp_path):
    code = random_perm_code(random.Random(12), 3, 2, 3)
    code_path = tmp_path / "code.json"
    code_path.write_text(dumps(code_to_json(code)))
    argv = [
        "eval", "--code", str(code_path),
        "--mode", "mc", "--trials", "4000", "--seed", "1",
    ]
    status, out1, _ = run_cli(capsys, argv)
    status2, out2, _ = run_cli(capsys, argv)
    assert status == 0 and status2 == 0
    assert out1 == out2
    assert json.loads(out1)["kind"] == "mc-report"
    status, out3, _ = run_cli(capsys, argv[:-1] + ["2"])
    assert status == 0
    assert out3 != out1


def test_cli_seed_env_fallback(capsys, monkeypatch):
    argv = ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4"]
    monkeypatch.delenv("PERMID_SEED", raising=False)
    _, base, _ = run_cli(capsys, argv)
    _, seeded, _ = run_cli(capsys, argv + ["--seed", "0"])
    assert base == seeded
    monkeypatch.setenv("PERMID_SEED", "7")
    _, from_env, _ = run_cli(capsys, argv)
    _, from_flag, _ = run_cli(capsys, argv + ["--seed", "7"])
    assert from_env == from_flag
    assert from_env != base


def test_cli_feedback_exact_and_retry(capsys):
    status, out, _ = run_cli(
        capsys,
        [
            "feedback",
            "--n", "6", "--q", "2", "--l", "2", "--M", "4",
            "--seed", "9",
            "--target-test",
        ],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "collision-report"
    assert doc["lambda1"] == "0/1"
    assert doc["target"] == "2/7"
    assert len(doc["counts"]) == 4
    assert doc["target_test"] == doc["passed"]

    status, out, _ = run_cli(
        capsys,
        [
            "--matrix-cap", "2",
            "feedback",
            "--n", "6", "--q", "2", "--l", "2", "--M", "4",
            "--seed", "9",
        ],
    )
    assert status == 0
    assert "counts" not in json.loads(out)

    status, out, _ = run_cli(
        capsys,
        [
            "feedback",
            "--n", "6", "--q", "2", "--l", "2", "--M", "2",
            "--seed", "4",
            "--retry", "10",
        ],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["success"] is True
    assert 1 <= doc["draws"] <= 10

    status, out, _ = run_cli(
        capsys,
        [
            "feedback",
            "--n", "6", "--q", "2", "--l", "2", "--M", "4",
            "--seed", "9",
            "--mode", "mc", "--trials", "2000",
        ],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "mc-report"
    assert doc["lambda1"] == 0


def test_cli_approx_paths(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(["3/4", "1/4"]))
    status, out, _ = run_cli(capsys, ["approx", "--K", "2", "--target", str(target)])
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "approx-map"
    assert doc["atoms"] == [2, 0]
    assert doc["distance"] == "1/2"
    assert doc["distance_decimal"] == 0.5
    assert doc["bound"] == "1/1"

    code = NoiselessIdCode(
        2,
        [Dist({1: Fraction(1)}, size=2) for _ in range(4)],
        [frozenset({1}) for _ in range(4)],
    )
    code_path = tmp_path / "code.json"
    code_path.write_text(dumps(code_to_json(code)))
    status, out, _ = run_cli(capsys, ["approx", "--K", "2", "--code", str(code_path)])
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "pigeonhole"
    assert doc["guaranteed"] is True
    assert doc["collision"] == [1, 2]
    assert parse_frac(doc["floor"]) == 1

    status, _, err = run_cli(capsys, ["approx", "--K", "2"])
    assert status == 2
    assert json.loads(err)["category"] == "invalid-input"


@pytest.mark.parametrize(
    "document", [{"1": "0"}, "1", [True], ["1/2", False, "1/2"]], ids=["object", "string", "bool", "bools"]
)
def test_cli_approx_refuses_a_target_that_is_not_a_list_of_masses(capsys, tmp_path, document):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(document))
    status, out, err = run_cli(capsys, ["approx", "--K", "2", "--target", str(target)])
    assert (status, out) == (2, "")
    error = json.loads(err)
    assert error["category"] == "invalid-input"
    assert error["message"] == "target distribution must be a JSON list of rational masses"


@pytest.mark.parametrize("document", [["1/2", "1/2"], [1], [0.5, "1/2"]])
def test_cli_approx_accepts_lists_of_masses(capsys, tmp_path, document):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(document))
    status, out, _ = run_cli(capsys, ["approx", "--K", "2", "--target", str(target)])
    assert status == 0
    assert json.loads(out)["N"] == len(document)


def test_cli_csv_honours_the_matrix_cap(capsys, tmp_path):
    """Past --matrix-cap the CSV, which is only the matrix, is refused the way
    a report above MATRIX_CAP refuses it; at or below the cap it is unchanged."""
    code = random_perm_code(random.Random(3), 3, 2, 6)
    code_path = tmp_path / "code.json"
    code_path.write_text(dumps(code_to_json(code)))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(csv_rows(report_to_json(eval_perm_exact(code))))
    feedback = ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "9"]
    for argv, M in [
        (["eval", "--code", str(code_path)], 6),
        (["eval", "--code", str(code_path), "--mode", "mc", "--trials", "50"], 6),
        (feedback + ["--target-test"], 4),
        (feedback + ["--mode", "mc", "--trials", "50"], 4),
    ]:
        out_path = tmp_path / "matrix.csv"
        cap = ["--matrix-cap", str(M - 1), "--format", "csv"]
        status, out, err = run_cli(capsys, cap + ["--output", str(out_path)] + argv)
        assert (status, out) == (2, "") and not out_path.exists()
        error = json.loads(err)
        assert error["category"] == "invalid-input"
        assert error["message"] == "report carries no matrix (M too large)"
        status, out, _ = run_cli(capsys, cap + argv)
        assert (status, out) == (2, "")
        status, at_cap, _ = run_cli(capsys, ["--matrix-cap", str(M), "--format", "csv"] + argv)
        status_default, default, _ = run_cli(capsys, ["--format", "csv"] + argv)
        assert status == status_default == 0 and at_cap == default
    status, out, _ = run_cli(capsys, ["--format", "csv", "eval", "--code", str(code_path)])
    assert out == expected.getvalue()


def test_cli_refused_csv_leaves_the_output_file_untouched(capsys, tmp_path, monkeypatch):
    """A report above the library's MATRIX_CAP carries no matrix even under a
    larger --matrix-cap; its CSV is refused before --output is opened."""
    monkeypatch.setattr(permid.idcode, "MATRIX_CAP", 2)
    monkeypatch.setattr(permid.feedback, "MATRIX_CAP", 2)
    code_path = tmp_path / "code.json"
    code_path.write_text(dumps(code_to_json(random_perm_code(random.Random(3), 3, 2, 6))))
    out_path = tmp_path / "matrix.csv"
    out_path.write_text("kept\n")
    for argv in (
        ["eval", "--code", str(code_path)],
        ["eval", "--code", str(code_path), "--mode", "mc", "--trials", "50"],
        ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "9"],
    ):
        cap = ["--matrix-cap", "100", "--format", "csv", "--output", str(out_path)]
        status, out, err = run_cli(capsys, cap + argv)
        assert (status, out) == (2, "")
        assert json.loads(err)["message"] == "report carries no matrix (M too large)"
        assert out_path.read_text() == "kept\n"


def test_cli_bounds_sweep_and_system(capsys, tmp_path):
    argv = [
        "bounds",
        "--N", "8", "--alpha", "1/2",
        "--M-min", "16", "--M-max", "20",
        "--d", "4", "--w", "2",
    ]
    status, out, _ = run_cli(capsys, argv)
    assert status == 0
    doc = json.loads(out)
    assert doc["kind"] == "bounds"
    assert doc["johnson"] == 4

    # w = 4 zeroes the quadratic denominator; the sweep records a note.
    status, out, _ = run_cli(
        capsys,
        ["bounds", "--N", "8", "--alpha", "1/2", "--d", "4", "--w", "4"],
    )
    assert status == 0
    gate = json.loads(out)
    assert gate["johnson"] is None
    assert "johnson_note" in gate
    gated = {row["M"]: "prop2_lower" in row for row in doc["sweep"]}
    assert gated == {16: False, 17: False, 18: True, 19: True, 20: True}

    csv_path = tmp_path / "sweep.csv"
    status, _, _ = run_cli(capsys, ["--format", "csv", "--output", str(csv_path)] + argv)
    assert status == 0
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["M", "prop2_lower"]
    assert len(rows) == 6
    assert rows[1] == ["16", ""]

    pairs = [frozenset(s) for s in [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]]
    system_path = tmp_path / "system.json"
    system_path.write_text(dumps(code_to_json(SetSystem(4, tuple(pairs)))))
    status, out, _ = run_cli(
        capsys,
        ["bounds", "--N", "4", "--alpha", "9/10", "--M-max", "16",
         "--system", str(system_path)],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["profile"]["gamma"] == 2
    assert doc["profile"]["delta"] == 1
    assert doc["lemma6_holds"] is True

    status, out, _ = run_cli(
        capsys,
        ["bounds", "--N", "4", "--alpha", "1/2", "--M-max", "16",
         "--system", str(system_path)],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["lemma6_holds"] is None
    assert "lemma6_note" in doc


def test_cli_bounds_sweep_leaves_out_rows_past_two_to_the_N(capsys):
    # log2(M)/N > 1 from M = 17 on, where the inverse entropy is undefined
    status, out, _ = run_cli(capsys, ["bounds", "--N", "4", "--alpha", "1/2"])
    assert status == 0
    gated = {row["M"]: "prop2_lower" in row for row in json.loads(out)["sweep"]}
    assert [M for M, present in gated.items() if present] == list(range(10, 17))
    assert set(gated) == set(range(2, 65))
    status, out, _ = run_cli(
        capsys, ["bounds", "--N", "4", "--alpha", "1/2", "--M-min", "0", "--M-max", "11"]
    )
    assert status == 0
    assert [sorted(row) for row in json.loads(out)["sweep"]] == (
        [["M"]] * 10 + [["M", "prop2_lower"]] * 2
    )
    status, out, _ = run_cli(
        capsys,
        ["bounds", "--N", "60", "--alpha", "1/2", "--M-min", str(2**60), "--M-max", str(2**60 + 1)],
    )
    assert status == 0
    assert [row.get("prop2_lower") for row in json.loads(out)["sweep"]] == [0.25, None]
    for N in ("0", "-3"):
        status, out, err = run_cli(capsys, ["bounds", "--N", N, "--alpha", "1/2"])
        assert status == 2 and out == ""
        assert json.loads(err)["category"] == "invalid-input"


def test_cli_bounds_refuses_a_sweep_past_the_enumeration_limit(capsys, monkeypatch):
    monkeypatch.setattr(permid.cli, "ENUMERATION_LIMIT", 10)
    argv = ["bounds", "--N", "4", "--alpha", "1/2", "--M-min", "5", "--M-max"]
    status, out, _ = run_cli(capsys, argv + ["14"])
    assert status == 0 and len(json.loads(out)["sweep"]) == 10
    status, out, err = run_cli(capsys, argv + ["15"])
    assert (status, out) == (4, "")
    error = json.loads(err)
    assert error["category"] == "budget"
    assert error["message"] == "sweep of 11 rows exceeds the budget of 10"


@pytest.mark.parametrize(
    "extra",
    [["--alpha", "0"], ["--alpha", "0", "--M-min", "1", "--M-max", "0"],
     ["--alpha", "1"], ["--alpha=-1/2", "--M-min", "1", "--M-max", "0"]],
)
def test_cli_bounds_refuses_alpha_outside_the_unit_interval(capsys, extra):
    status, out, err = run_cli(capsys, ["bounds", "--N", "10"] + extra)
    assert status == 2 and out == ""
    assert json.loads(err)["category"] == "invalid-input"


@pytest.mark.parametrize(
    "doc",
    [{"N": True, "sets": [[1]]}, {"N": 5, "sets": [[1, 2], [True, 3]]},
     {"N": 5, "sets": [[1, True], [2]]}, {"N": 5, "sets": [[1, 1.0], [2]]},
     {"N": 5, "sets": [[3, 3], [2]]}],
)
def test_cli_bounds_refuses_bools_and_repeats_in_a_set_system(capsys, tmp_path, doc):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"schema": SCHEMA, "kind": "setsystem", **doc}))
    status, out, err = run_cli(
        capsys,
        ["bounds", "--N", "5", "--alpha", "1/2", "--M-max", "20", "--system", str(path)],
    )
    assert status == 2 and out == ""
    assert json.loads(err)["category"] == "invalid-input"


def test_cli_error_exit_codes(capsys):
    status, _, err = run_cli(capsys, ["types", "--n", "0", "--q", "2"])
    assert status == 2
    doc = json.loads(err)
    assert doc["kind"] == "error"
    assert doc["category"] == "invalid-input"

    status, _, err = run_cli(
        capsys,
        ["feedback", "--n", "6", "--q", "2", "--l", "8", "--M", "2", "--seed", "1"],
    )
    assert status == 4
    assert json.loads(err)["category"] == "budget"

    # a greedy build that runs out of attempts has spent its budget
    status, _, err = run_cli(
        capsys,
        ["build", "--n", "7", "--q", "2", "--l", "2", "--epsilon", "1/16", "--max-attempts", "0"],
    )
    assert status == 4
    assert json.loads(err)["category"] == "budget"

    status, _, err = run_cli(
        capsys,
        ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "1",
         "--seed", "1", "--target-test"],
    )
    assert status == 2

    status, _, err = run_cli(capsys, ["--format", "csv", "types", "--n", "3", "--q", "2"])
    assert status == 2


def test_cli_rejects_a_non_integer_seed_variable(capsys, monkeypatch):
    monkeypatch.setenv("PERMID_SEED", "abc")
    status, out, err = run_cli(capsys, ["build", "--n", "7", "--q", "2", "--epsilon", "1/16"])
    assert status == 2 and out == ""
    doc = json.loads(err)
    assert doc["category"] == "invalid-input" and "PERMID_SEED" in doc["message"]


def _with(doc, path, value):
    """A deep copy of a code document with the field at `path` replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    field = doc
    for key in head:
        field = field[key]
    field[last] = value
    return doc


_PERM = code_to_json(random_perm_code(random.Random(3), 2, 2, 2, l=2))
_PERM_ONE_USE = code_to_json(random_perm_code(random.Random(3), 2, 2, 2))
_NOISELESS = code_to_json(random_noiseless_code(random.Random(3), 3, 2))
_STOCHASTIC = code_to_json(random_noiseless_code(random.Random(3), 3, 2, "stoch"))
_FEEDBACK = code_to_json(build_feedback_code(2, 2, 2, 2, Stream(1)))


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": SCHEMA, "kind": "perm"},
        {"schema": SCHEMA, "kind": "noiseless", "N": 3},
        {"schema": SCHEMA, "kind": "perm", "n": 2, "q": 2, "l": 1, "encoders": 5,
         "decoders": {"typecounts": []}},
        [1, 2, 3],
        # fields of the wrong type are refused, never coerced or truncated
        _with(_PERM, ["encoders", 0, 0, 0], "abc"),
        _with(_PERM, ["encoders", 0, 0], [1]),
        _with(_PERM, ["decoders", "typecounts", 0, 0], "x"),
        _with(_PERM, ["decoders", "typecounts", 0, 0], 1.5),
        _with(_NOISELESS, ["encoders", 0, 0, 0], "z"),
        _with(_FEEDBACK, ["maps", 0], [1]),
        _with(_FEEDBACK, ["maps", 0, 0], 10**30),
        _with(_FEEDBACK, ["maps", 0, 0], 1.5),
        # no field of a code document is a bool, though each of these
        # would pass for the number 1
        _with(_NOISELESS, ["encoders", 0, 0, 1], True),
        _with(_NOISELESS, ["decoders", "deterministic", 1], [True]),
        _with(_STOCHASTIC, ["decoders", "stochastic", 0, 0], True),
        _with(_PERM, ["encoders", 0, 0, 0], True),
        _with(_PERM, ["decoders", "typecounts", 0, 1], True),
        _with(_PERM_ONE_USE, ["l"], True),
    ],
)
def test_cli_rejects_a_malformed_code_document(capsys, tmp_path, doc):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, ["eval", "--code", str(path)])
    assert status == 2 and out == ""
    assert json.loads(err)["category"] == "invalid-input"


def test_cli_accepts_run_documents(capsys, tmp_path):
    # build and setsystem wrap their codes; eval/transform/bounds unwrap the
    # run document so its output file chains straight into the next command
    build_path = tmp_path / "build.json"
    status, _, _ = run_cli(
        capsys,
        ["--output", str(build_path), "build",
         "--n", "7", "--q", "2", "--l", "2", "--epsilon", "1/16", "--seed", "3"],
    )
    assert status == 0

    status, out, _ = run_cli(capsys, ["eval", "--code", str(build_path)])
    assert status == 0
    report = json.loads(out)
    assert report["kind"] == "error-report"
    assert report["lambda1"] == "0/1"
    assert report["M"] == json.loads(build_path.read_text())["code"]["M"]

    status, out, _ = run_cli(
        capsys, ["transform", "--code", str(build_path), "--gamma", "1/3"]
    )
    assert status == 0
    assert json.loads(out)["kind"] == "pipeline"

    run_path = tmp_path / "setsystem-run.json"
    status, _, _ = run_cli(
        capsys,
        ["--output", str(run_path), "setsystem",
         "--N", "20", "--epsilon", "1/10", "--lambda", "2/5",
         "--seed", "1", "--m-target", "10"],
    )
    assert status == 0
    status, out, _ = run_cli(
        capsys,
        ["bounds", "--N", "20", "--alpha", "9/10", "--M-max", "16",
         "--system", str(run_path)],
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["profile"]["M"] == 10
    assert "lemma6_holds" in doc


def test_cli_code_file_errors(capsys, tmp_path):
    status, _, err = run_cli(capsys, ["eval", "--code", str(tmp_path / "absent.json")])
    assert status == 2
    doc = json.loads(err)
    assert doc["error"] == "ValidationError"
    assert "cannot read" in doc["message"]

    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    status, _, err = run_cli(capsys, ["eval", "--code", str(bad)])
    assert status == 2
    assert "not valid JSON" in json.loads(err)["message"]


def _write_docs(tmp_path) -> dict:
    """Small documents of each kind the commands read, keyed by kind."""
    docs = {"perm": _PERM, "noiseless": _NOISELESS, "feedback": _FEEDBACK,
            "target": ["3/4", "1/4"]}
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("kind", ["perm", "noiseless"])
def test_cli_bounds_refuses_a_code_that_is_not_a_set_system(capsys, tmp_path, kind):
    path = _write_docs(tmp_path)[kind]
    status, out, err = run_cli(
        capsys, ["bounds", "--N", "40", "--alpha", "1/2", "--M-max", "3", "--system", str(path)]
    )
    assert status == 2 and out == ""
    doc = json.loads(err)
    assert doc["category"] == "invalid-input" and "setsystem" in doc["message"]


_FEEDBACK_ARGS = ["feedback", "--n", "6", "--q", "2", "--l", "2", "--M", "4", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (_FEEDBACK_ARGS + ["--retry", "0"], ["need at least one draw"]),
        (_FEEDBACK_ARGS + ["--retry", "2", "--mode", "mc"], ["--mode mc", "--retry"]),
        (_FEEDBACK_ARGS + ["--target-test", "--mode", "mc"], ["--mode mc", "--target-test"]),
        (_FEEDBACK_ARGS + ["--retry", "2", "--target-test"], ["--retry", "--target-test"]),
        (["transform", "--code", "{perm}", "--gamma", "1/3", "--mu", "1"], ["--gamma", "--mu"]),
        (["eval", "--code", "{perm}", "--converse", "--mode", "mc"], ["--converse", "--mode mc"]),
        (["eval", "--code", "{feedback}", "--converse"], ["--converse", "feedback"]),
        (["approx", "--K", "2", "--target", "{target}", "--code", "{noiseless}"],
         ["--target", "--code"]),
        (["bounds", "--N", "8", "--alpha", "1/2", "--M-min", "16", "--M-max", "20", "--d", "4"],
         ["--d", "--w"]),
    ],
    ids=["retry-0", "retry-mc", "target-test-mc", "retry-target-test", "gamma-mu",
         "converse-mc", "converse-feedback", "target-code", "d-without-w"],
)
def test_cli_refuses_flags_it_would_drop(capsys, tmp_path, argv, named):
    paths = _write_docs(tmp_path)
    status, out, err = run_cli(capsys, [a.format(**paths) for a in argv])
    assert status == 2 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "error" and doc["category"] == "invalid-input"
    assert all(word in doc["message"] for word in named), doc["message"]


def test_cli_eval_converse_replays_the_floor(capsys, tmp_path, monkeypatch):
    path = _write_docs(tmp_path)["perm"]
    status, out, _ = run_cli(capsys, ["eval", "--code", str(path), "--converse"])
    assert status == 0 and "pairwise_floor" in json.loads(out)["bounds"]
    # a floor above lambda1 + lambda2 <= 2 must be caught, not just printed
    monkeypatch.setattr("permid.idcode.strong_converse_floor", lambda code: Fraction(3))
    status, out, err = run_cli(capsys, ["eval", "--code", str(path), "--converse"])
    assert status == 3 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "error" and doc["category"] == "bound-violation"


def test_cli_reports_usage_and_output_errors_in_json(capsys, tmp_path):
    for argv in (["eval"], ["eval", "--code", "x.json", "--trials", "abc"], [],
                 ["-o", str(tmp_path / "missing" / "x.json"), "types", "--n", "2", "--q", "2"]):
        status, out, err = run_cli(capsys, argv)
        assert status == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "error" and doc["category"] == "invalid-input"
