"""The README's examples run as written.

Proves:
 Group 1 - the `## Library` block, run verbatim from the repository root,
           prints the cycle mean and cost it states, then the decay
           check's verdict it states, with every warning an error
 Group 2 - the `## Command line` blocks (thresholds, synthesize, simulate),
           run verbatim by the shell in that order beside a copy of the
           bundled scenario with FADECTRL_OUTDIR=out, each print the output
           block that follows them
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import fadectrl

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fadectrl.__file__).resolve().parents[1]


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# ── Group 1: the library example ─────────────────────────────────────────────

def test_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block
    # -W error, as CI's tier-1 step runs the in-process tests
    run = subprocess.run([sys.executable, "-W", "error", "-c", block.group(1)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, env=_env())
    assert run.returncode == 0, run.stderr
    # the conveyor FAILs at seed 1, as in the simulate example
    assert run.stdout == "24 3/5\nFalse\n"


# ── Group 2: the command-line examples ───────────────────────────────────────

def test_command_line_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Command line\n(.*?)^## ", readme, re.M | re.S).group(1)
    blocks = re.findall(r"^```sh\n(.*?)^```\n\n```\n(.*?)^```", section, re.M | re.S)
    assert [cmd.split()[1] for cmd, _ in blocks] == ["thresholds", "synthesize", "simulate"]
    (tmp_path / "scenarios").mkdir()
    shutil.copy(ROOT / "scenarios" / "assembly_cell.yaml", tmp_path / "scenarios")
    # `fadectrl` on PATH runs this interpreter's package, as the console
    # script does, with every warning an error
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "fadectrl"
    script.write_text('#!/bin/sh\nexec %s -W error -m fadectrl.cli "$@"\n'
                      % shlex.quote(sys.executable))
    script.chmod(0o755)
    env = dict(_env(), FADECTRL_OUTDIR="out",
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    for command, expected in blocks:
        run = subprocess.run(["sh", "-c", command], cwd=tmp_path, capture_output=True,
                             text=True, timeout=120, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout == expected, command
