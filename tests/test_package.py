"""Rules for the package's source files.

Proves:
 Group 1 - no module checks a runtime invariant with `assert`, which
           `python -O` strips; invariants raise a ToolkitError instead
 Group 2 - every third-party import is declared in pyproject.toml: the
           package's in `dependencies`, the tests' there or in the `test`
           extra
 Group 3 - every function the benchmark traces (perfbench/tracing.py's
           TARGETS) is a callable of the module it names, read with `ast`
           so that no benchmark module is imported
 Group 4 - every name the package exports has a caller: another package
           module uses it, or README's library example does; every name in
           the export table resolves as an attribute of the package and is
           bound by `from fadectrl import *`
 Group 5 - no test module but test_cli.py imports fadectrl.cli: the
           others reach the pipeline through the library, as README's
           example does
"""

import ast
import importlib
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import fadectrl

PACKAGE = Path(fadectrl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
README = TESTS.parent / "README.md"


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


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared(key):
    """Distributions in pyproject.toml's `key = [...]` list, read with a
    pattern since Python 3.10 has no tomllib."""
    block = re.search(r"^%s = \[(.*?)\]" % key, PYPROJECT.read_text(), re.M | re.S)
    assert block, key
    return {_normalized(re.match(r"[A-Za-z0-9._-]+", req).group())
            for req in re.findall(r'"([^"]+)"', block.group(1))}


def _third_party_imports(paths, local):
    """Top-level module name -> first file importing it, for every module
    that is neither in the standard library nor local."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def _undeclared(imports, allowed):
    dists = packages_distributions()
    return sorted(
        "%s imports %s" % (where, top) for top, where in imports.items()
        if not {_normalized(d) for d in dists.get(top, [top])} & allowed
    )


def test_package_imports_are_dependencies():
    imports = _third_party_imports(sorted(PACKAGE.glob("*.py")), {"fadectrl"})
    assert {"numpy", "yaml"} <= set(imports)
    assert _undeclared(imports, _declared("dependencies")) == []


def test_test_imports_are_dependencies_or_test_extras():
    paths = sorted(TESTS.glob("*.py"))
    imports = _third_party_imports(paths, {"fadectrl"} | {p.stem for p in paths})
    assert {"pytest", "hypothesis"} <= set(imports)
    allowed = _declared("dependencies") | _declared("test")
    assert _undeclared(imports, allowed) == []


def _traced_targets():
    """(module, function) of each TARGETS entry in perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS in %s" % TRACING)


def test_traced_functions_exist():
    targets = _traced_targets()
    assert ("fadectrl.mas", "one_step_reach") in targets
    missing = [
        "%s.%s" % (module, name) for module, name in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def _used_names(tree) -> set:
    """Names a module reads: bare names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _export_table() -> dict:
    """`__init__`'s export -> module table, read with `ast`."""
    init = PACKAGE / "__init__.py"
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS in %s" % init)


def test_every_export_has_a_caller():
    init = PACKAGE / "__init__.py"
    exported = sorted(_export_table())
    assert "decay_threshold" in exported
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path != init:
            used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    example = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert example
    used |= _used_names(ast.parse(example.group(1)))
    assert [name for name in exported if name not in used] == []


def test_every_export_resolves_and_star_import_binds_it():
    table = _export_table()
    assert sorted(fadectrl.__all__) == sorted(table)
    for name, module in table.items():
        defining = importlib.import_module("fadectrl." + module)
        assert getattr(fadectrl, name) is getattr(defining, name), name
    assert set(table) <= set(dir(fadectrl))
    namespace = {}
    exec("from fadectrl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(table)


def _imports_cli(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        else:
            continue
        if any(m == "fadectrl.cli" or m.startswith("fadectrl.cli.") for m in modules):
            return True
    return False


def test_only_the_cli_tests_import_the_cli():
    paths = sorted(TESTS.glob("*.py"))
    assert TESTS / "test_cli.py" in paths
    assert _imports_cli(ast.parse((TESTS / "test_cli.py").read_text()))
    importing = [path.name for path in paths
                 if _imports_cli(ast.parse(path.read_text(), filename=str(path)))]
    assert importing == ["test_cli.py"]
