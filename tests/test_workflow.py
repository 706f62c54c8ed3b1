import re
import subprocess
import textwrap
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def run_blocks(text):
    """The shell of every ``run:`` key in a workflow, read without a YAML parser: a
    one-line value, or a ``|`` block of the lines indented deeper than its key."""
    lines = text.splitlines()
    blocks = []
    for number, line in enumerate(lines):
        key = re.match(r"^( *)(?:- )?run: (.*)$", line)
        if key is None:
            continue
        if key[2] != "|":
            blocks.append(key[2])
            continue
        body = []
        for inner in lines[number + 1:]:
            if inner.strip() and len(inner) - len(inner.lstrip(" ")) <= len(key[1]):
                break
            body.append(inner)
        blocks.append(textwrap.dedent("\n".join(body) + "\n"))
    return blocks


def test_every_workflow_run_block_is_valid_bash():
    # a quoting slip in a step would otherwise show only when GitHub runs the workflow;
    # bash -n parses a block without running it
    text = WORKFLOW.read_text()
    blocks = run_blocks(text)
    keys = [line for line in text.splitlines() if line.lstrip(" -").startswith("run:")]
    assert len(blocks) == len(keys) > 0
    for block in blocks:
        done = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True,
                              timeout=30)
        assert done.returncode == 0, f"{done.stderr}in this run block:\n{block}"
