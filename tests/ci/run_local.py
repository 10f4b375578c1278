"""Run the offline steps of the CI workflow under local interpreters.

    python3 tests/ci/run_local.py INTERPRETER...

Reads the ``run:`` steps of both jobs in .github/workflows/tier1.yml and
runs each one under bash from the checkout, once per interpreter, with
``python`` and ``python3`` on PATH resolving to that interpreter and no
PYTHONPATH set, as on the runner.  Prints one line per step and
interpreter, PASS, FAIL or SKIP with the seconds taken, and the output of
each failed step.  Exits 1 if any step failed.

Skipped, with the reason printed:

* a step that runs ``pip install``, which needs the network;
* a step that reads the installed package (its name says "installed"),
  since nothing here installs it;
* a step that runs pytest, under an interpreter where ``import pytest``
  fails.

Stdlib only.  The workflow's matrices are not read: every step runs under
every interpreter given.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# the shell GitHub Actions runs a "run:" step with on Linux
SHELL = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c"]


def workflow_steps(text):
    """(job, step name, script) for each step with a ``run:`` key, in order."""
    steps, section, job, name = [], None, None, None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if re.match(r"[^\s#][^:]*:", line):
            section = line.split(":", 1)[0]
        elif section == "jobs" and re.fullmatch(r"  [\w-]+:\s*", line):
            job = line.strip()[:-1]
        elif re.match(r"\s*- (name|uses):", line):
            key, _, value = line.strip()[2:].partition(":")
            name = value.strip() if key == "name" else None
        elif re.match(r"\s+run:", line):
            indent = len(line) - len(line.lstrip())
            value = line.split(":", 1)[1].strip()
            if value in ("|", "|-"):
                block = []
                while i < len(lines) and (
                    not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
                ):
                    block.append(lines[i])
                    i += 1
                margin = min(len(b) - len(b.lstrip()) for b in block if b.strip())
                value = "\n".join(b[margin:] for b in block).strip("\n") + "\n"
            steps.append((job, name, value))
    return steps


def skip_reason(name, script, has_pytest):
    if "pip install" in script:
        return "installs with pip, which needs the network"
    if "installed" in name.lower():
        return "reads the installed package, which this runner does not install"
    if "pytest" in script and not has_pytest:
        return "pytest is not importable under this interpreter"
    return None


def interpreter_facts(interpreter):
    version = subprocess.run(
        [interpreter, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    has_pytest = subprocess.run(
        [interpreter, "-c", "import pytest"], capture_output=True
    ).returncode == 0
    return version, has_pytest


def main(interpreters):
    if not interpreters:
        sys.exit(__doc__.split("\n\n")[1])
    steps = workflow_steps(WORKFLOW.read_text(encoding="utf-8"))
    failed = False
    for interpreter in interpreters:
        version, has_pytest = interpreter_facts(interpreter)
        with tempfile.TemporaryDirectory() as bin_dir:
            for command in ("python", "python3"):
                path = Path(bin_dir, command)
                path.write_text(f'#!/bin/sh\nexec {shlex.quote(interpreter)} "$@"\n')
                path.chmod(0o755)
            env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
            env["PATH"] = bin_dir + os.pathsep + env.get("PATH", "")
            for job, name, script in steps:
                reason = skip_reason(name, script, has_pytest)
                start = time.monotonic()
                output = ""
                if reason is None:
                    proc = subprocess.run(
                        [*SHELL, script], cwd=ROOT, env=env,
                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                    )
                    status = "PASS" if proc.returncode == 0 else "FAIL"
                    output = proc.stdout if proc.returncode else ""
                else:
                    status = "SKIP"
                seconds = time.monotonic() - start
                note = f"  ({reason})" if reason else ""
                print(f"{status} {seconds:7.1f} s  {version:8}  {job}: {name}{note}", flush=True)
                if output:
                    print("\n".join("    " + line for line in output.splitlines()[-30:]))
                failed = failed or status == "FAIL"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
