"""The README's examples run as written.

Proves:
 Group 1 - the `## Library` block, run verbatim from the repository root,
           prints the cycle mean and cost it states, then a passing decay
           check, with every warning an error
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import fadectrl

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fadectrl.__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # -W error, as CI's tier-1 step runs the in-process tests
    run = subprocess.run([sys.executable, "-W", "error", "-c", block.group(1)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "24 3/5\nTrue\n"
