"""The CI workflow runs checked-in scripts, not programs inlined in its text."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_workflow_runs_no_inline_python_program():
    # "python - <<'EOF'" and the like: a program fed on stdin from the workflow
    text = WORKFLOW.read_text(encoding="utf-8")
    inline = re.findall(r"^.*\bpython[\w.]*(?:\s+-\w+)*\s+-(?:\s.*)?$", text, re.M)
    heredocs = re.findall(r"^.*(?<!<)<<(?!<).*$", text, re.M)
    assert inline == [] and heredocs == []


# tests/ci scripts the workflow does not call -> why
NOT_CALLED = {
    "run_local.py": "it runs the workflow's own steps on a local machine",
}


def test_workflow_calls_each_ci_script_and_only_scripts_that_exist():
    text = WORKFLOW.read_text(encoding="utf-8")
    called = set(re.findall(r"tests/ci/[\w./-]+", text))
    assert all((ROOT / path).is_file() for path in called), called
    scripts = {p.name for p in (ROOT / "tests" / "ci").glob("*.py")} - set(NOT_CALLED)
    assert called == {f"tests/ci/{name}" for name in scripts}


# checks whose result can change between releases -> the cli-surface step that runs it
RELEASE_CHECKS = {
    "cli_digests": "tests/make_cli_digests.py --check",
    "json_writer": "tests/ci/json_writer.py",
    "census_digests": "tests/ci/census_digests.py",
    "census_genus100_json": "tests/ci/census_genus100.py json",
    "census_genus100_csv": "tests/ci/census_genus100.py csv",
    "import_set": "tests/ci/import_set.py",
}


@pytest.mark.parametrize("script", list(RELEASE_CHECKS.values()), ids=list(RELEASE_CHECKS))
def test_cli_surface_job_runs_the_check_under_every_release(script):
    # tier-1 checks the CLI and census bytes, the JSON writer, the genus-100
    # census's peak memory and the modules `import su12fiber.cli` loads under
    # two releases; the cli-surface matrix runs each check under all five
    job = WORKFLOW.read_text(encoding="utf-8").split("\n  cli-surface:\n", 1)[1]
    assert f"run: PYTHONPATH=src python {script}\n" in job
