"""Rules for the package's source files.

Proves:
 Group 1 - no module checks a runtime invariant with `assert`, which
           `python -O` strips; invariants raise a ToolkitError instead
"""

import ast
from pathlib import Path

import fadectrl

PACKAGE = Path(fadectrl.__file__).resolve().parent


def test_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
