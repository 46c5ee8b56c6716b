"""The CI workflow runs only scripts that exist in the repository."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# a script a step runs, as a repository path, with or without the
# workspace variable in front
_SCRIPT = re.compile(r"(?:\$GITHUB_WORKSPACE/)?([\w./-]+\.py)\b")


def _run_commands(text):
    """The command of every ``run:`` key, read as text: the rest of its line,
    or the lines of a block scalar (``run: |``), which are indented deeper
    than the key."""
    commands, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        key = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not key:
            continue
        indent, value = len(key.group(1)), key.group(2)
        if value[:1] not in "|>":
            commands.append(value)
            continue
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body.strip())
        commands.append("\n".join(block).strip())
    return commands


def _scripts(commands):
    return {path for command in commands for path in _SCRIPT.findall(command)}


def test_workflow_runs_only_scripts_that_exist():
    scripts = _scripts(_run_commands(WORKFLOW.read_text()))
    # the parser finds the steps it is meant to check
    assert {"tools/result_digest.py", "perfbench/run.py"} <= scripts
    missing = sorted(path for path in scripts if not (ROOT / path).is_file())
    assert not missing, f"{WORKFLOW.name} runs scripts that do not exist: {missing}"


def test_workflow_is_yaml_whose_scripts_the_text_reader_finds():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    commands = [step["run"] for job in workflow["jobs"].values()
                for step in job["steps"] if "run" in step]
    assert _scripts(commands) == _scripts(_run_commands(WORKFLOW.read_text()))
    assert len(commands) == len(_run_commands(WORKFLOW.read_text()))
