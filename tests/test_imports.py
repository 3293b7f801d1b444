"""Every module of the package and of the tests uses each name it imports,
every record field of the package is read somewhere in it, no module
of the package rewrites a frozen value, none computes with floats, and
every line of both fits in 88 columns.  Importing the CLI loads every
layer of the package and none of the heavy standard modules, and reading
the catalog's fixtures loads no path or package-resource module."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import nsakit

PACKAGE = Path(nsakit.__file__).parent
TESTS = Path(__file__).parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set:
    """Names read in code, including those inside string annotations."""
    annotations = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def test_modules_use_every_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used(tree)
        unused += [
            f"{path.parent.name}/{path.name}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _assignment(body: list, name: str):
    """The first statement of ``body`` that assigns to ``name`` alone."""
    for stmt in body:
        if isinstance(stmt, ast.Assign) and [
            getattr(target, "id", None) for target in stmt.targets
        ] == [name]:
            return stmt
    raise AssertionError(f"no assignment to {name}")


def _record_fields(tree: ast.Module):
    """(line, class, field) for every name in the ``_fields`` tuple of each
    class deriving from Record."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and "Record" in [
            base.id for base in cls.bases if isinstance(base, ast.Name)
        ]:
            stmt = _assignment(cls.body, "_fields")
            for name in ast.literal_eval(stmt.value):
                yield stmt.lineno, cls.name, name


def test_record_fields_are_read():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (f"{name}:{line}: {cls}.{field}", field)
        for name, tree in sorted(trees.items())
        for line, cls, field in _record_fields(tree)
    ]
    assert fields, "no record class found"
    unread = [where for where, field in fields if field not in read]
    assert not unread, "record fields never read:\n" + "\n".join(unread)


def test_no_module_calls_object_setattr():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    assert not calls, "object.__setattr__ calls:\n" + "\n".join(calls)


def test_no_module_uses_floating_point():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")
    ]
    assert not found, "float literals or float() calls:\n" + "\n".join(found)


def test_lines_fit_in_88_columns():
    long_lines = [
        f"{path.parent.name}/{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 88
    ]
    assert not long_lines, "lines over 88 columns:\n" + "\n".join(long_lines)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from nsakit import *", namespace)
    assert set(namespace) == {*nsakit.__all__, "__builtins__"}
    assert len(nsakit.__all__) == len(set(nsakit.__all__)) == 61
    assert "__version__" in nsakit.__all__
    assert not [
        name for name in nsakit.__all__
        if isinstance(getattr(nsakit, name), types.ModuleType)
        or (name.startswith("_") and name != "__version__")
    ]


def _bare_modules(code: str) -> set:
    """Modules loaded by ``code`` after it binds ``before`` to
    ``set(sys.modules)``, run under ``python -S`` so that site hooks load
    nothing first."""
    code += "; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_every_layer_and_no_heavy_module():
    added = _bare_modules("import sys; before = set(sys.modules); import nsakit.cli")
    # the benchmark tracer reads each of these from sys.modules
    layers = ast.literal_eval(
        _assignment(ast.parse(TRACER.read_text()).body, "MODULES").value
    )
    assert layers
    assert {f"nsakit.{m}" for m in layers} <= added
    assert not added & {"dataclasses", "inspect"}


def test_package_imports_exactly_these_standard_modules():
    """Every process that imports the package pays for these modules, so a
    new one is a decision made here, not a side effect of a change."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    assert found == {
        "__future__", "argparse", "bisect", "enum", "fractions", "functools",
        "json", "math", "operator", "os", "re", "sys", "types", "typing",
        "warnings",
    }


def test_catalog_verify_reads_fixtures_with_the_plain_file_reader():
    """A full ``catalog verify`` loads no path or package-resource module."""
    added = _bare_modules(
        "import io, sys; before = set(sys.modules); from nsakit.cli import main; "
        "sys.stdout = io.StringIO(); assert main(['catalog', 'verify']) == 0; "
        "sys.stdout = sys.__stdout__"
    )
    assert "nsakit.catalog" in added
    assert not added & {"pathlib", "importlib.resources", "zipfile", "tempfile"}
