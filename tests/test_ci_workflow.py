"""The CI workflow runs checked-in scripts, not programs inlined in its text."""

import re
from pathlib import Path

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


def test_cli_surface_job_checks_the_import_set_under_every_release():
    # tier-1 pins the modules `import su12fiber.cli` loads under two releases;
    # the cli-surface matrix runs the same check under all five
    job = WORKFLOW.read_text(encoding="utf-8").split("\n  cli-surface:\n", 1)[1]
    assert "run: PYTHONPATH=src python tests/ci/import_set.py\n" in job
