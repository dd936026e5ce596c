"""Source hygiene of the package, read with the standard library's `ast`."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lbstates

PACKAGE = pathlib.Path(lbstates.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import of a module -> its line ('from __future__'
    imports bind nothing)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def stale_imports(source: str) -> dict:
    """The imported names that the module never reads, with their lines."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported_names(tree).items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    stale = stale_imports(path.read_text())
    assert not stale, f"{path.name} imports names it never uses: {stale}"


def test_a_stale_import_is_found():
    source = ("from __future__ import annotations\nimport math\nimport scipy.sparse as sp\n"
              "from .levels import alpha, theta_table\nalpha(1, 0.5, 'plus')\nsp.eye(2)\n")
    assert stale_imports(source) == {"math": 2, "theta_table": 4}


# what no module that the package's `__init__` or `cli` reaches at import
# time may import: the sparse oracle and the modules built on it load only
# for `check` (whose function-level import of `checks` is not followed) and
# for the tests
ORACLE_IMPORTS = ("scipy.sparse", "lbstates.ladders", "lbstates.pt", "lbstates.checks")


def module_imports(tree: ast.Module, package: str) -> set:
    """Absolute names of the modules a module imports when it is loaded:
    its imports outside function bodies, with `from x import y` read as
    both x and x.y (y may be a submodule)."""
    found = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = package if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return found


def command_path_violations(package_dir: pathlib.Path) -> dict:
    """The modules of the package reached from its `__init__` (which every
    command process runs first) and from `cli` through module-level imports,
    each mapped to the oracle imports it makes.  The oracle modules are not
    followed."""
    name = package_dir.name
    seen, todo, bad = set(), ["__init__", "cli"], {}
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        imports = module_imports(ast.parse((package_dir / f"{module}.py").read_text()), name)
        hits = sorted({o for o in ORACLE_IMPORTS for m in imports
                       if m == o or m.startswith(o + ".")})
        if hits:
            bad[f"{name}.{module}"] = hits
        subs = {m.split(".")[1] for m in imports if m.startswith(name + ".")}
        todo.extend(sub for sub in subs if f"{name}.{sub}" not in ORACLE_IMPORTS
                    and (package_dir / f"{sub}.py").exists())
    return bad


def test_command_path_imports_no_sparse_oracle():
    assert command_path_violations(PACKAGE) == {}


def test_command_path_rule_finds_an_oracle_import(tmp_path):
    copy = tmp_path / "lbstates"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    levels = copy / "levels.py"
    levels.write_text(levels.read_text() + "\nimport scipy.sparse\n")
    (copy / "floattext.py").write_text((copy / "floattext.py").read_text()
                                       + "\nfrom . import pt\n")
    (copy / "__init__.py").write_text((copy / "__init__.py").read_text()
                                      + "\nfrom .ladders import ladder_matrices\n")
    assert command_path_violations(copy) == {"lbstates.levels": ["scipy.sparse"],
                                             "lbstates.floattext": ["lbstates.pt"],
                                             "lbstates.__init__": ["lbstates.ladders"]}


ORACLE_MODULES = sorted(m for m in ORACLE_IMPORTS if m.startswith("lbstates."))

# runs the CLI as `python -m lbstates.cli` does, then prints its exit code
# and the oracle modules in sys.modules as its last stdout line
_LOADED_SCRIPT = """
import json, runpy, sys
sys.argv = ["lbstates"] + sys.argv[1:]
try:
    runpy.run_module("lbstates.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(set(sys.modules) & {%s})]))
""" % ", ".join(map(repr, ORACLE_MODULES))


@pytest.mark.parametrize("argv, loaded", [
    (["spectrum", "--pmax", "4"], []),
    (["state", "--family", "A", "--z2", "1", "--nmax", "40", "--pmax", "40"], []),
    (["density", "--family", "eta", "--V", "0.5", "--z2", "1", "--nmax", "40", "--pmax", "40",
      "--grid=-2:2:5,-2:2:5", "--out", "d.json"], []),
    (["scan-v", "--from", "0.5", "--to", "1.5", "--steps", "3", "--pmax", "4"], []),
    (["check", "--suite", "pt.theta"], ORACLE_MODULES),
], ids=["spectrum", "state", "density", "scan-v", "check"])
def test_a_command_process_loads_the_oracle_for_check_only(argv, loaded, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]
