"""Exercises the command surface: payloads, formats, exit codes.

Most tests call cli.main in-process; a fresh interpreter is used where the
interpreter itself matters (python -O, python -m, a hard timeout).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from su12fiber import cli
from su12fiber.configuration import (
    Configuration,
    FiberPoint,
    config_from_json,
    config_to_json,
)
from su12fiber.exact import Scalar
from su12fiber.git_engine import GitClass

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
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "git-classify", "--genus", "2", "--input", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_git_classify_rejects_missing_file(capsys):
    code, _, err = run(capsys, "git-classify", "--genus", "2", "--input", "/nonexistent.json")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("t", ["1/0", 5])
def test_git_classify_rejects_malformed_coordinate(tmp_path, capsys, t):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([{"base": "L0", "points": ["zero", {"t": t}, {"t": "2"}, "inf"]}]))
    code, out, err = run(capsys, "git-classify", "--genus", "2", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}[0]: ") and err.count("\n") == 1


def test_git_classify_refuses_huge_rmax_before_counting(tmp_path):
    # the budget pre-check stops at the first power that overflows it,
    # so r_max = 2000 is refused as fast as r_max = 2
    path = write_configs(
        tmp_path / "c.json", [Configuration.of("L0", [Z, F(1), F(2), F(3), F(4), F(5), F(6), I])]
    )
    result = run_python(
        "-c", CLI_SCRIPT.format(""),
        "git-classify", "--genus", "3", "--rmax", "2000", "--input", path,
        timeout=10,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: ") and "exceeds budget" in result.stderr


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


def test_python_dash_m_runs_the_cli():
    result = run_python("-m", "su12fiber", "census", "--genus", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout)["totals"]["all"] == 81


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "census", "--genus", "2", "--output", str(out_path)
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out_path.read_text())["totals"]["all"] == 81
