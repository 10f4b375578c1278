"""Exercises the command surface: payloads, formats, exit codes.

Most tests call cli.main in-process; a fresh interpreter is used where the
interpreter itself matters (python -O, python -m, a hard timeout).
"""

import contextlib
import enum
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import input_reference
import make_cli_digests
from su12fiber import cli, git_engine
from su12fiber.configuration import (
    Configuration,
    FiberPoint,
    config_from_json,
    config_to_json,
)
from su12fiber.exact import MAX_LITERAL_LENGTH, Scalar
from su12fiber.git_engine import BruteForceOutcome, GitClass, composition_count
from su12fiber.stability import ModuliParams

SRC = Path(__file__).resolve().parents[1] / "src"

Z = FiberPoint.zero()
I = FiberPoint.infinity()


def F(t) -> FiberPoint:
    return FiberPoint.finite(Scalar.of(t))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_configs(path, configs):
    path.write_text(json.dumps([config_to_json(c) for c in configs]))
    return str(path)


CLI_SCRIPT = "import sys\nfrom su12fiber import cli, local_model\n{}sys.exit(cli.main(sys.argv[1:]))\n"


def run_python(*args, timeout=60):
    """A fresh interpreter with the package source on its path."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# stability


def test_stability_stable_cell(capsys):
    code, payload, err = run_json(
        capsys, "stability", "--genus", "2", "--degree", "0", "--dbeta", "1", "--dgamma", "1"
    )
    assert code == 0 and err == ""
    assert payload["stability"] == "Stable"
    assert payload["stratum_dimension"] == 4
    assert payload["split_degrees"] is None
    values = [iq["values"] for iq in payload["inequalities"]]
    assert values == ["1 < 2", "1 < 2", "1 <= 2", "1 <= 2"]
    assert all(iq["holds"] for iq in payload["inequalities"])


def test_stability_strictly_polystable_cell(capsys):
    code, payload, err = run_json(
        capsys, "stability", "--genus", "2", "--dbeta", "2", "--dgamma", "2"
    )
    assert code == 0
    assert payload["stability"] == "StrictlyPolystable"
    assert payload["split_degrees"] == [0, 0]  # degrees sum to -d
    assert payload["stratum_dimension"] is None


def test_stability_out_of_range_degree_warns_but_classifies(capsys):
    code, payload, err = run_json(
        capsys, "stability", "--genus", "2", "--degree", "5", "--dbeta", "0", "--dgamma", "0"
    )
    assert code == 0
    assert "outside the strict Milnor-Wood range" in err
    assert payload["stability"] == "Unstable"


def test_stability_csv(capsys):
    code, out, _ = run(
        capsys, "stability", "--genus", "2", "--dbeta", "1", "--dgamma", "0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "genus,degree,d_beta,d_gamma,d_rest,stability,stratum_dimension"
    assert lines[1] == "2,0,1,0,3,Stable,5"
    assert any(line.startswith("# ") for line in lines[2:])


def test_stability_rejects_overfull_cell(capsys):
    code, out, err = run(
        capsys, "stability", "--genus", "2", "--dbeta", "3", "--dgamma", "2"
    )
    assert code == 1 and out == ""
    assert "d_beta + d_gamma" in err


def test_stability_rejects_small_genus(capsys):
    code, _, err = run(capsys, "stability", "--genus", "1", "--dbeta", "0", "--dgamma", "0")
    assert code == 1
    assert "genus" in err


# census


def test_census_counts_and_totals(capsys):
    code, payload, err = run_json(capsys, "census", "--genus", "2", "--degree", "0")
    assert code == 0 and err == ""
    assert payload["totals"]["Stable"] == 21
    assert payload["totals"]["StrictlyPolystable"] == 6
    assert payload["totals"]["all"] == 81
    assert len(payload["rows"]) == 15  # all cells with d_beta + d_gamma <= 4


def test_census_csv_totals_comments(capsys):
    code, out, _ = run(capsys, "census", "--genus", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d_beta,d_gamma,d_rest,stability,labeled_count,stratum_dimension"
    assert "# total Stable 21" in lines
    assert "# total all 81" in lines


def test_census_degree_one_warns_and_has_no_stable_rows(capsys):
    code, payload, err = run_json(capsys, "census", "--genus", "2", "--degree", "1")
    assert code == 0
    assert "outside the strict Milnor-Wood range" in err
    assert payload["totals"]["Stable"] == 0
    assert payload["totals"]["all"] == 81


def test_census_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "census", "--genus", "3", "--degree", "1")
    _, second, _ = run(capsys, "census", "--genus", "3", "--degree", "1")
    assert first == second


# git-classify


def test_git_classify_example_classes(tmp_path, capsys):
    path = write_configs(
        tmp_path / "configs.json",
        [
            Configuration.of("L0", [Z, F(1), F(2), I]),
            Configuration.of("L0", [Z, Z, F(1), F(5)]),
            Configuration.of("L0", [Z, Z, Z, F(1)]),
        ],
    )
    code, payload, err = run_json(
        capsys, "git-classify", "--genus", "2", "--input", path
    )
    assert code == 0 and err == ""
    classes = [r["closed_form"] for r in payload["configurations"]]
    assert classes == ["GitStable", "StrictlySemistable", "GitUnstable"]
    assert payload["all_agree"] is True
    assert all(r["agreement"] for r in payload["configurations"])

    stable, semi, unstable = payload["configurations"]
    assert stable["stable_witness"] is not None
    assert stable["representative"] is not None
    # the embedded representative parses back as a configuration
    rep = config_from_json(semi["representative"])
    assert rep == Configuration.of("L0", [Z, Z, I, I])
    assert semi["fixed_point"] is False
    assert unstable["representative"] is None
    assert unstable["semistable_witness"] is None


def test_git_classify_csv(tmp_path, capsys):
    path = write_configs(tmp_path / "c.json", [Configuration.of("L0", [Z, F(1), F(2), I])])
    code, out, _ = run(
        capsys, "git-classify", "--genus", "2", "--input", path, "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("index,closed_form,brute_force,agreement")
    assert lines[1].startswith("0,GitStable,GitStable,True")
    assert lines[-1] == "# all_agree True"


def test_git_classify_empty_file_is_empty_success(tmp_path, capsys):
    path = write_configs(tmp_path / "empty.json", [])
    code, payload, err = run_json(capsys, "git-classify", "--genus", "2", "--input", path)
    assert code == 0
    assert payload["configurations"] == []
    assert payload["all_agree"] is True


def test_git_classify_rejects_slot_mismatch(tmp_path, capsys):
    path = write_configs(tmp_path / "short.json", [Configuration.of("L0", [Z, F(1), I])])
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", path)
    assert code == 1 and out == ""
    assert "3 slots, expected 4" in err


def test_git_classify_rejects_bad_json(tmp_path, capsys):
    # a syntax error, an integer longer than the 4300 digits Python converts
    # (json.load raises a plain ValueError for it) and bytes that are not UTF-8
    long_int = '[{"base": "L0", "points": ["zero", {"t": "1"}, {"t": %s}, "inf"]}]' % ("7" * 5000)
    for name, data in [
        ("broken.json", b"{not json"),
        ("long.json", long_int.encode()),
        ("latin1.json", b"[\xff]"),
    ]:
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


def test_git_classify_reads_its_file_as_text_mode_json_load_did(tmp_path, capsys):
    # the file is read in one binary read with text mode's decoding and
    # newlines: each input gives the exit code and the whole error line of
    # open(path, encoding="utf-8") and json.load
    for path in input_reference.reading_cases(tmp_path):
        expected = input_reference.text_mode_error(path)
        code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", path)
        if expected is None:
            assert (code, err) == (0, ""), path
        else:
            assert (code, out, err) == (1, "", expected)


def test_git_classify_reads_a_duplicate_key_as_its_last_value(tmp_path, capsys):
    # the input contract, pinned: json.load keeps the last of duplicate keys,
    # and the file is read, not refused
    path = tmp_path / "dup.json"
    path.write_text('[{"base": "L", "base": "M", "points": ["zero", {"t": "1"}, {"t": "2"}, "inf"]}]')
    code, payload, err = run_json(capsys, "git-classify", "--genus", "2", "--input", str(path))
    assert code == 0 and err == ""
    assert payload["configurations"][0]["input"]["base"] == "M"


def test_git_classify_rejects_missing_file(capsys):
    code, _, err = run(capsys, "git-classify", "--genus", "2", "--input", "/nonexistent.json")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("t", ["1/0", 5, "1e5000", "1.5", "1e3"])
def test_git_classify_rejects_malformed_coordinate(tmp_path, capsys, t):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([{"base": "L0", "points": ["zero", {"t": t}, {"t": "2"}, "inf"]}]))
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}[0]: ") and err.count("\n") == 1


def test_git_classify_refuses_huge_rmax_before_counting():
    # the --rmax bound is checked before the input file is opened
    result = run_python(
        "-m", "su12fiber",
        "git-classify", "--genus", "3", "--rmax", "2000", "--input", "no-such-configs.json",
        timeout=10,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"error: --rmax must be <= {cli.MAX_RMAX}, got 2000\n"


def one_config_per_class(genus, degree):
    """Stable, strictly semistable and unstable mark patterns, shuffled."""
    p = ModuliParams(genus, degree)
    N, n = p.N, p.n
    rng = random.Random(genus * 1000 + degree)
    configs = []
    for n_zero, n_inf in ((n - 1, N - n - 1), (n, N - n - 1), (n + 1, 0)):
        marks = ["z"] * n_zero + ["i"] * n_inf + ["f"] * (N - n_zero - n_inf)
        rng.shuffle(marks)
        points = [Z if k == "z" else I if k == "i" else F(j + 1) for j, k in enumerate(marks)]
        configs.append(Configuration.of("L0", points))
    return configs


@pytest.mark.parametrize(
    "genus, degree, rmax",
    [(3, 0, 2), (4, 0, 1), (100, 0, 1), (100, 50, 1), (100, -50, 1), (100, 97, 1), (100, -97, 1)],
)
def test_git_classify_answers_every_admitted_genus(tmp_path, genus, degree, rmax):
    # the rank of a stable witness and the balanced count are closed-form
    # sums, so every genus up to MAX_GENUS is answered in a fresh process
    path = write_configs(tmp_path / "c.json", one_config_per_class(genus, degree))
    result = run_python(
        "-m", "su12fiber", "git-classify", "--genus", str(genus), "--degree", str(degree),
        "--rmax", str(rmax), "--input", path,
        timeout=30,
    )
    assert result.returncode == 0 and result.stderr == ""
    payload = json.loads(result.stdout)
    assert payload["all_agree"] is True
    classes = [r["closed_form"] for r in payload["configurations"]]
    assert classes == ["GitStable", "StrictlySemistable", "GitUnstable"]


def test_git_classify_prints_the_longest_count_at_the_rmax_bound(tmp_path, capsys):
    # genus 100 at middle weight with --rmax MAX_RMAX: an unstable
    # configuration reports the full balanced count summed over every
    # power, the longest number git-classify can print
    unstable = one_config_per_class(cli.MAX_GENUS, 0)[2]
    path = write_configs(tmp_path / "c.json", [unstable])
    argv = ["git-classify", "--genus", str(cli.MAX_GENUS), "--rmax", str(cli.MAX_RMAX),
            "--input", path]
    code, payload, err = run_json(capsys, *argv)
    assert code == 0 and err == "" and payload["all_agree"] is True
    (report,) = payload["configurations"]
    assert report["brute_force"] == "GitUnstable"
    assert report["monomials_enumerated"] > 10**1600
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    assert int(out.splitlines()[1].split(",")[5]) == report["monomials_enumerated"]


def test_git_classify_counts_each_power_once_per_call(tmp_path, capsys, monkeypatch):
    # every non-stable configuration reports the balanced count of each
    # power, which depends only on (N, n, r): a file of k of them computes
    # it r_max times, not k * r_max; a stable one computes no count at all
    calls = []

    def counting(total, cap, length):
        calls.append((total, cap, length))
        return composition_count(total, cap, length)

    monkeypatch.setattr(git_engine, "composition_count", counting)
    stable, semistable, unstable = one_config_per_class(5, 1)
    rmax = 4
    path = write_configs(tmp_path / "c.json", [unstable, semistable, stable, unstable, unstable])
    code, payload, err = run_json(capsys, "git-classify", "--genus", "5", "--degree", "1",
                                  "--rmax", str(rmax), "--input", path)
    assert code == 0 and err == "" and payload["all_agree"] is True
    N, n = 16, 10
    assert calls == [(N * r * n, N * r, N) for r in range(1, rmax + 1)]
    counts = [r["monomials_enumerated"] for r in payload["configurations"]]
    expected = sum(composition_count(N * r * n, N * r, N) for r in range(1, rmax + 1))
    assert counts[:2] + counts[3:] == [expected] * 4
    calls.clear()
    path = write_configs(tmp_path / "s.json", [stable] * 3)
    assert run(capsys, "git-classify", "--genus", "5", "--degree", "1", "--rmax", str(rmax),
               "--input", path)[0] == 0
    assert calls == []


def test_git_classify_refuses_rmax_past_its_bound(capsys):
    code, out, err = run(
        capsys, "git-classify", "--genus", str(cli.MAX_GENUS), "--rmax", str(cli.MAX_RMAX + 1),
        "--input", "no-such-configs.json",
    )
    assert code == 1 and out == ""
    assert err == f"error: --rmax must be <= {cli.MAX_RMAX}, got {cli.MAX_RMAX + 1}\n"


def literals_of_length(length, rng):
    """Worst cases for the printed ratios t/t0 and random four-part literals."""
    def digits(k):
        return str(rng.randint(10 ** (k - 1), 10**k - 1))

    tail = "+1*sqrt2"
    head = digits(length - len(tail)) + tail  # t0 = P + sqrt2, norm P^2 - 2
    inverse = "1/" + digits(length - 2)
    k = (length - len("/+/*sqrt2")) // 4
    mixed = f"{digits(k)}/{digits(k)}+{digits(k)}/{digits(length - 9 - 3 * k)}*sqrt2"
    assert {len(head), len(inverse), len(mixed)} == {length}
    return head, inverse, mixed


def literal_file(path, head, inverse, mixed):
    configs = [
        {"base": "L0", "points": [{"t": head}, {"t": inverse}, {"t": mixed}, {"t": inverse}]},
        {"base": "L0", "points": [{"t": mixed}, {"t": head}, {"t": inverse}, {"t": mixed}]},
        {"base": "L0", "points": ["zero", {"t": head}, {"t": mixed}, "inf"]},
    ]
    path.write_text(json.dumps(configs))
    return str(path)


def test_git_classify_prints_literals_at_the_length_cap(tmp_path, capsys):
    # every finite slot at the cap: each printed ratio stays within the
    # 4300 digits Python converts, and the worst case comes close to it
    rng = random.Random(4300)
    path = literal_file(tmp_path / "c.json", *literals_of_length(MAX_LITERAL_LENGTH, rng))
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", path)
    assert code == 0 and err == ""
    longest = max(len(run_) for run_ in re.findall("[0-9]+", out))
    assert 4200 < longest <= 4300


def test_git_classify_rejects_a_literal_past_the_length_cap(tmp_path, capsys):
    rng = random.Random(4301)
    head, inverse, mixed = literals_of_length(MAX_LITERAL_LENGTH, rng)
    path = literal_file(tmp_path / "c.json", head, "1" + inverse, mixed)
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}[0]: ") and err.count("\n") == 1
    assert len(err) < 200


def test_git_classify_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


ODD_LITERALS = [
    "0", "-0", "1/2", "1/0", "1.5", "1e3", "1e5000", "NaN", "inf", "sqrt2",
    "1/2+1/3*sqrt2", "1/2-1/3*sqrt2", "-1/3*sqrt2", "1/2+-1/3*sqrt2", " 3 / 4 ",
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["zero", "inf", "L0", *ODD_LITERALS]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["base", "points", "t"]) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=16,
)
literals = st.sampled_from(ODD_LITERALS) | st.text(alphabet="0123456789+-/*.e sqrt", max_size=12)
points = (
    st.sampled_from(["zero", "inf"]) | st.fixed_dictionaries({"t": literals})
    | st.fixed_dictionaries({"t": json_values}) | json_values
)
# genus 2 has four slots, so four points reach the classifier and the report
configs = st.fixed_dictionaries(
    {
        "base": st.just("L0") | json_values,
        "points": st.lists(points, min_size=4, max_size=4) | st.lists(points, max_size=6)
        | json_values,
    }
)


@settings(max_examples=150, deadline=None)
@given(st.lists(configs | json_values, max_size=3) | json_values)
def test_git_classify_random_json_exits_cleanly(document):
    # any JSON document ends in a report, a one-line error or a check
    # failure; an exception escaping cli.main fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["git-classify", "--genus", "2", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_git_classify_rejects_out_of_range_degree(tmp_path, capsys):
    path = write_configs(tmp_path / "c.json", [])
    code, _, err = run(
        capsys, "git-classify", "--genus", "2", "--degree", "1", "--input", path
    )
    assert code == 1
    assert "Milnor-Wood" in err


def test_git_classify_disagreement_exits_two(tmp_path, capsys, monkeypatch):
    path = write_configs(tmp_path / "c.json", [Configuration.of("L0", [Z, F(1), F(2), I])])
    monkeypatch.setattr(cli, "classify_closed_form", lambda c, lin: GitClass.UNSTABLE)
    code, payload, _ = run_json(capsys, "git-classify", "--genus", "2", "--input", path)
    assert code == 2
    assert payload["all_agree"] is False
    assert payload["configurations"][0]["agreement"] is False


def _with_witness(outcome, kind, change):
    """outcome with the exponents of its kind witness rewritten by change."""
    witnesses = {"semistable": outcome.semistable_witness, "stable": outcome.stable_witness}
    power, exponents = witnesses[kind]
    witnesses[kind] = (power, tuple(change(list(exponents))))
    return BruteForceOutcome(outcome.git_class, witnesses["semistable"], witnesses["stable"],
                             outcome.monomials_enumerated, outcome.fixed_point)


def _shifted(exponents, frm, to):
    exponents[frm] -= 1
    exponents[to] += 1
    return exponents


# faults in the witnesses of ([0:1], [1:1], [2:1], [1:0]) at genus 2 and
# degree 0 (N*r = 4, n = 2): semistable (4, 0, 4, 0), stable (4, 1, 3, 0)
WITNESS_FAULTS = {
    "length": ("stable", lambda m: m[:3], "it has 3 exponents for 4 slots"),
    "sum": ("stable", lambda m: [m[0], m[1] + 1, m[2], m[3]],
            "its exponents do not sum to N*r*n = 8"),
    "zero-slot": ("semistable", lambda m: _shifted(m, 0, 1),
                  "exponent 3 at the [0:1] slot 0 is not N*r = 4"),
    "inf-slot": ("stable", lambda m: _shifted(m, 2, 3),
                 "exponent 1 at the [1:0] slot 3 is not 0"),
    "range": ("stable", lambda m: [m[0], m[1] - 2, m[2] + 2, m[3]],
              "exponent -1 at slot 1 is outside [0, 4]"),
    "no-interior": ("stable", lambda m: [4, 0, 4, 0], "it has no interior exponent"),
}


@pytest.mark.parametrize("kind, change, message", list(WITNESS_FAULTS.values()),
                         ids=list(WITNESS_FAULTS))
def test_git_classify_witness_off_its_definition_exits_two(tmp_path, capsys, monkeypatch,
                                                             kind, change, message):
    path = write_configs(tmp_path / "c.json", [Configuration.of("L0", [Z, F(1), F(2), I])])
    search = cli.bruteforce_search
    monkeypatch.setattr(cli, "bruteforce_search",
                        lambda c, lin, r_max: _with_witness(search(c, lin, r_max), kind, change))
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}[0]: the {kind} witness fails its definition: {message}\n"


# local-model-verify


def test_local_verify_passes(capsys):
    code, payload, err = run_json(
        capsys, "local-model-verify", "--truncation", "4", "--cases", "3",
    )
    assert code == 0 and err == ""
    assert payload["all_passed"] is True
    assert payload["order"] == 4
    assert {c["name"] for c in payload["checks"]} >= {"smith_randomized", "hecke_round_trip"}


def test_local_verify_csv_and_determinism(capsys):
    argv = ("local-model-verify", "--truncation", "3",
            "--cases", "2", "--seed", "9", "--format", "csv")
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert code == 0
    assert first == second
    assert first.splitlines()[-1] == "# all_passed True"


# sha256 of local-model-verify stdout, recorded while the suite still
# checked P @ phi @ Q with dense products and drew its scalars as
# Fractions: how an identity is checked must not change the report
LOCAL_VERIFY_DIGESTS = {
    ("json",): "9b0a9ab39e9b3234a6e05b6c97da22b087bf4d441b34bb2460fe667a53617648",
    ("csv",): "ff1652d4d9cc67511000acb13940a153bfcf90584857dd067cb2175da318d3fc",
    ("json", "--truncation", "32", "--cases", "3"):
        "0486db18ff7e4904d02bc207512719e502d61b657634033d36253ca42c602e94",
    ("csv", "--truncation", "32", "--cases", "3"):
        "864c35f40795b21acac5ec86ea719fc43e77b68024996a6de1441fff7914ee6f",
    ("json", "--truncation", "2", "--cases", "1"):
        "f603cf20a9b83eb1365c1a281402e6d084ec72ece82a9716d8262d14e757302f",
    ("csv", "--truncation", "2", "--cases", "1"):
        "83cd614ccf6fe00e54cc61eab38548bcb038d64c32b2d003c6133c699ea6f777",
}


@pytest.mark.parametrize("flags", list(LOCAL_VERIFY_DIGESTS), ids=" ".join)
def test_local_verify_stdout_is_byte_identical(capsys, flags):
    code, out, err = run(capsys, "local-model-verify", "--format", *flags)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LOCAL_VERIFY_DIGESTS[flags]


def test_local_verify_failure_exits_two(capsys, monkeypatch):
    def fake_suite(order, seed, cases):
        return {
            "order": order, "seed": seed, "cases": cases,
            "checks": [{"name": "planted", "passed": False, "detail": "boom"}],
            "all_passed": False,
        }

    monkeypatch.setattr("su12fiber.local_model.verification_suite", fake_suite)
    code, payload, _ = run_json(capsys, "local-model-verify")
    assert code == 2
    assert payload["all_passed"] is False


def test_local_verify_catches_planted_fault_under_optimize():
    # python -O strips assert statements; the suite's checks must still fire
    fault = "local_model.higgs_vanishing_matches_point = lambda xi, h: False\n"
    result = run_python("-O", "-c", CLI_SCRIPT.format(fault), "local-model-verify", "--cases", "2")
    assert result.returncode == 2
    payload = json.loads(result.stdout)
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["hecke_round_trip"]
    assert failed[0]["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--genus", "101"),
        ("census", "--genus", "300", "--format", "csv"),
        ("stability", "--genus", "101", "--dbeta", "1", "--dgamma", "1"),
        ("git-classify", "--genus", "101", "--input", "no-such-configs.json"),
        ("local-model-verify", "--truncation", "33"),
        ("local-model-verify", "--truncation", "10000", "--cases", "1"),
        ("local-model-verify", "--cases", "501"),
        ("local-model-verify", "--cases", "10000000", "--truncation", "2"),
        # 4,300 digits: argparse reads it, but 2(g - 1 + d) has 4,301
        ("stability", "--genus", "2", "--degree", "5" + "0" * 4299, "--dbeta", "1",
         "--dgamma", "1"),
        ("stability", "--genus", "2", "--degree", "-5" + "0" * 4299, "--dbeta", "1",
         "--dgamma", "1", "--format", "csv"),
    ],
    ids=lambda argv: "_".join(
        a if len(a) < 100 else f"{len(a.lstrip('-'))}-digit" for a in argv
    ).replace("--", ""),
)
def test_oversize_requests_are_refused_before_work(argv):
    result = run_python("-m", "su12fiber", *argv, timeout=10)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "must be <=" in result.stderr


def test_size_bounds_admit_their_limits(capsys, monkeypatch):
    code, payload, _ = run_json(
        capsys, "stability", "--genus", str(cli.MAX_GENUS), "--dbeta", "1", "--dgamma", "1"
    )
    assert code == 0 and payload["genus"] == cli.MAX_GENUS
    seen = []
    monkeypatch.setattr(
        "su12fiber.local_model.verification_suite",
        lambda order, seed, cases: seen.append((order, cases)) or {
            "order": order, "seed": seed, "cases": cases, "checks": [], "all_passed": True,
        },
    )
    argv = ("local-model-verify", "--truncation", str(cli.MAX_TRUNCATION),
            "--cases", str(cli.MAX_CASES))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and seen == [(cli.MAX_TRUNCATION, cli.MAX_CASES)]


def test_local_verify_rejects_tiny_truncation(capsys):
    code, _, err = run(capsys, "local-model-verify", "--truncation", "1")
    assert code == 1
    assert "--truncation" in err


# parser plumbing


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    assert "error:" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "stability", "--genus", "2", "--dbeta", "1")
    assert code == 1
    assert "dgamma" in err


def test_cli_surface_matches_its_digests():
    # help, usage, errors and a valid call of each subcommand, byte for byte
    table = make_cli_digests.recorded()
    key = make_cli_digests.version_key(table)
    if key not in table:
        pytest.skip(f"no CLI surface digests recorded for Python {key}")
    result = run_python(make_cli_digests.__file__, "--check")
    assert result.returncode == 0, result.stdout


def echo(args):
    print(sorted(vars(args).items()))
    return 0


def echo_commands():
    return {name: c._replace(run=echo) for name, c in cli._COMMANDS.items()}


# ints Python converts to text only up to 4,300 digits, so int() refuses this one
TOO_LONG_INT = "1" * 4301

CLI_TOKENS = [
    *cli._COMMANDS,
    "--genus", "--degree", "--format", "--output", "--dbeta", "--dgamma", "--input",
    "--rmax", "--truncation", "--seed", "--cases",
    "-h", "--help", "--", "0", "2", "-1", "1.5", "json", "csv", "xml", "junk",
    "--genus=3", "--gen", "stabilit", "--nope", "-x",
    # both sides of main's rule for values: "-" and ASCII digits, or no "-" first
    "-0", "-12", "+3", " 3", "3_0", "\u0663", "-\u0663", "", "-", "-1.5", "-5 ",
    "--degree=-1", TOO_LONG_INT,
]

# values by the kind of flag: ones main reads without argparse, and ones it
# hands to argparse because argparse refuses them or they start with "-"
FLAG_VALUES = {
    int: (["0", "1", "2", "3", "-1", "-0", "-12", "+3", " 3", "3_0", "\u0663"],
          ["1.5", "-1.5", "-\u0663", TOO_LONG_INT]),
    str: (["c.json", "census", "-12", "x y", ""], ["-", "-5 ", "--", "-h"]),
}


def full_parser_main(argv):
    # main's usage-error handling around the top-level parser with every
    # subcommand: the reference for every route of main
    try:
        args = cli._build_parser().parse_args(argv)
    except cli._UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return cli.USAGE_ERROR
    return cli._COMMANDS[args.command].run(args)


@st.composite
def flag_pairs(draw):
    """A subcommand name and "--flag value" pairs, mostly well formed: every
    required flag, in shuffled order, some flags repeated, and one value in
    eight one that main hands to argparse."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[name].flags
    chosen = [f for f in flags if f.required] + draw(st.lists(st.sampled_from(flags), max_size=4))
    pairs = []
    for flag in draw(st.permutations(chosen)):
        good, bad = (flag.choices, ["xml"]) if flag.choices else FLAG_VALUES[flag.type or str]
        pairs += [flag.name, draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))]
    return [name, *pairs]


@settings(max_examples=500, deadline=None)
@given(
    # a subcommand name first in most uniform examples, so most take a route
    # that starts from the subcommand's own flags
    st.builds(
        lambda name, tokens: tokens if name is None else [name, *tokens],
        st.sampled_from([*cli._COMMANDS, None]),
        st.lists(st.sampled_from(CLI_TOKENS), max_size=8),
    )
    | flag_pairs()
)
def test_main_parses_as_the_full_parser(argv):
    # main reads argv as the top-level parser with every subcommand does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_COMMANDS", echo_commands())
        routed = make_cli_digests.run(argv)
        mp.setattr(cli, "main", full_parser_main)
        assert routed == make_cli_digests.run(argv)


def parser_count_case(argv, built, code=0):
    # labelled by argv and the subcommands it names
    named = argv[:1] if argv[0] in cli._COMMANDS else list(cli._COMMANDS)
    return pytest.param(
        argv, built, code, id="-".join("_".join(v).replace("-", "") for v in (argv, named))
    )


# the progs of the top-level parser and its subparsers, in the order built
ALL_PARSERS = ["su12fiber", *(f"su12fiber {name}" for name in cli._COMMANDS)]


@pytest.mark.parametrize(
    "argv, built, code",
    [
        # a subcommand name and exact "--flag value" pairs build no parser,
        # also with a subcommand name given as a value
        parser_count_case(["stability", "--genus", "2", "--dbeta", "1", "--dgamma", "1"], []),
        parser_count_case(["census", "--genus", "2"], []),
        parser_count_case(["git-classify", "--genus", "2", "--input", "c.json"], []),
        parser_count_case(["local-model-verify", "--cases", "1"], []),
        parser_count_case(["git-classify", "--genus", "2", "--input", "census"], []),
        # help, and an argv the flag table does not read exactly, build the
        # top-level parser, also when argv starts with a subcommand name
        parser_count_case(["census", "-h"], ALL_PARSERS),
        parser_count_case(["census", "--genus=2"], ALL_PARSERS),
        parser_count_case(["census", "--gen", "2"], ALL_PARSERS),
        parser_count_case(["census", "--genus", "two"], ALL_PARSERS, code=cli.USAGE_ERROR),
        parser_count_case(["--help"], ALL_PARSERS),
    ],
)
def test_a_call_builds_only_the_parsers_argv_names(monkeypatch, argv, built, code):
    # no parser for a call the flag table reads, and the top-level parser,
    # and with it every subparser, for any other argv
    progs = []
    init = cli._Parser.__init__

    def counted(self, **kwargs):
        progs.append(kwargs["prog"])
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    monkeypatch.setattr(cli, "_COMMANDS", echo_commands())
    assert make_cli_digests.run(argv)[0] == code
    assert progs == built


def test_python_dash_m_runs_the_cli():
    result = run_python("-m", "su12fiber", "census", "--genus", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout)["totals"]["all"] == 81


def test_output_flag_writes_file(tmp_path, capsys):
    configs = write_configs(
        tmp_path / "configs.json",
        [Configuration.of("L0", [Z, F(1), F(2), I]), Configuration.of("L0", [Z, Z, F(1), F(5)])],
    )
    calls = [
        ("stability", "--genus", "2", "--dbeta", "1", "--dgamma", "1"),
        ("census", "--genus", "2"),
        ("git-classify", "--genus", "2", "--input", configs),
        ("local-model-verify", "--truncation", "4", "--cases", "2"),
    ]
    assert {argv[0] for argv in calls} == set(cli._COMMANDS)
    out_path = tmp_path / "report"
    for argv in calls:
        for fmt in ("json", "csv"):
            code, printed, err = run(capsys, *argv, "--format", fmt)
            assert code == 0 and err == "" and printed, (argv, fmt)
            code, stdout, err = run(capsys, *argv, "--format", fmt, "--output", str(out_path))
            assert code == 0 and stdout == "" and err == "", (argv, fmt)
            assert out_path.read_bytes() == printed.encode("utf-8"), (argv, fmt)


# argv a handler refuses with exit 1; "{input}" is an empty configuration file
REFUSED = {
    "stability-1": ("stability", "--genus", "1", "--dbeta", "0", "--dgamma", "0"),
    "stability-101": ("stability", "--genus", "101", "--dbeta", "0", "--dgamma", "0"),
    "census-1": ("census", "--genus", "1"),
    "census-101": ("census", "--genus", "101"),
    "git-classify-1": ("git-classify", "--genus", "1", "--input", "{input}"),
    "git-classify-101": ("git-classify", "--genus", "101", "--input", "{input}"),
    "git-classify-missing-input": ("git-classify", "--genus", "2", "--input", "{input}.absent"),
    "local-model-verify-truncation-33": ("local-model-verify", "--truncation", "33"),
    "local-model-verify-cases-0": ("local-model-verify", "--cases", "0"),
}


@pytest.mark.parametrize("argv", list(REFUSED.values()), ids=list(REFUSED))
def test_refused_request_leaves_output_path_alone(tmp_path, capsys, argv):
    configs = write_configs(tmp_path / "configs.json", [])
    argv = [arg.format(input=configs) for arg in argv]
    missing, existing = tmp_path / "missing.json", tmp_path / "existing.json"
    existing.write_text("kept\n", encoding="utf-8")
    for path in (missing, existing):
        code, out, err = run(capsys, *argv, "--output", os.fspath(path))
        assert code == cli.USAGE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.exists()
    assert existing.read_text(encoding="utf-8") == "kept\n"


# the JSON writer


def dumps_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def text_or_error(write, payload):
    try:
        return write(payload)
    except ValueError as exc:  # an int past the int_max_str_digits limit
        return ValueError, str(exc)


# labels as a configuration file can hold them: any code point, lone
# surrogates included, and the characters JSON escapes
labels = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\ud800\udfff\ufeff\U0001d11e'),
    max_size=8,
)
# 4,299 to 4,301 digits, both signs: past 4,300, int.__repr__ raises for both writers
near_limit = st.builds(
    lambda n, rest, sign: sign * (10 ** (n - 1) + rest % 10 ** (n - 1)),
    st.integers(4299, 4301), st.integers(0, 2**14300), st.sampled_from((1, -1)),
)
# mostly small, so a payload rarely holds an int past the limit
report_ints = st.one_of(st.integers(), st.integers(-99, 99), st.integers(0, 10**6), near_limit)
config_payloads = st.fixed_dictionaries({
    "base": labels,
    "points": st.lists(st.sampled_from(["zero", "inf"]) | st.fixed_dictionaries({"t": labels}),
                       max_size=5),
})
witness_payloads = st.none() | st.fixed_dictionaries(
    {"power": report_ints, "exponents": st.lists(report_ints, max_size=5)}
)


def payload_of(command, **fields):
    return st.fixed_dictionaries({"command": st.just(command), **fields})


report_payloads = st.one_of(
    payload_of(
        "stability",
        **dict.fromkeys(["genus", "degree", "slots", "d_beta", "d_gamma", "d_rest",
                         "gamma_bound", "beta_bound"], report_ints),
        inequalities=st.lists(st.fixed_dictionaries(
            {"comparison": labels, "values": labels, "holds": st.booleans()}), max_size=4),
        stability=labels,
        stratum_dimension=st.none() | report_ints,
        split_degrees=st.none() | st.lists(report_ints, max_size=2),
    ),
    payload_of(
        "git-classify",
        **dict.fromkeys(["genus", "degree", "slots", "weight_parameter", "r_max"], report_ints),
        all_agree=st.booleans(),
        configurations=st.lists(st.fixed_dictionaries({
            "index": report_ints,
            "input": config_payloads,
            "closed_form": labels,
            "brute_force": labels,
            "agreement": st.booleans(),
            "fixed_point": st.booleans(),
            "monomials_enumerated": report_ints,
            "semistable_witness": witness_payloads,
            "stable_witness": witness_payloads,
            "representative": st.none() | config_payloads,
        }), max_size=3),
    ),
    payload_of(
        "local-model-verify",
        **dict.fromkeys(["cases", "order", "seed"], report_ints),
        all_passed=st.booleans(),
        checks=st.lists(st.fixed_dictionaries(
            {"name": labels, "passed": st.booleans(), "detail": labels}), max_size=4),
    ),
    # the census head, and its tail, whose totals are keyed by class name
    payload_of("census", degree=report_ints, genus=report_ints),
    st.fixed_dictionaries({"slots": report_ints,
                           "totals": st.dictionaries(labels, report_ints, max_size=5)}),
)


@settings(max_examples=300, deadline=None)
@given(report_payloads)
def test_json_writer_matches_json_dumps(payload):
    assert text_or_error(cli._json_text, payload) == text_or_error(dumps_text, payload)


class IntSubclass(int):
    pass


class Kind(enum.IntEnum):
    ONE = 1


# json.dumps prints each of these (a bool subclass cannot be made, so the
# int subclasses stand for it); the writer refuses them, so no value prints
# in a layout nothing checks, and 1.0 is never looked up as true
@pytest.mark.parametrize("value", [
    1.0, 0.0, float("nan"), (1, 2), (), IntSubclass(1), Kind.ONE, {1: "a"}, {True: "a"},
    {None: 0}, {"a": [1.0]}, [{"b": ("c",)}], {"a": {"b": {2: 3}}},
])
def test_json_writer_refuses_values_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json_text({"value": value})
    with pytest.raises(TypeError):
        cli._json_text([value])
