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


def command_path(package_dir: pathlib.Path) -> dict:
    """The modules of the package that `import <package>.cli` loads: its
    `__init__` (which every command process runs first) and `cli`, and what
    they import at module level, each mapped to its parsed source.  The
    oracle modules are not followed."""
    name = package_dir.name
    trees, todo = {}, ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module in trees:
            continue
        trees[module] = ast.parse((package_dir / f"{module}.py").read_text())
        subs = {m.split(".")[1] for m in module_imports(trees[module], name)
                if m.startswith(name + ".")}
        todo.extend(sub for sub in subs if f"{name}.{sub}" not in ORACLE_IMPORTS
                    and (package_dir / f"{sub}.py").exists())
    return trees


def command_path_violations(package_dir: pathlib.Path) -> dict:
    """The `command_path` modules, each mapped to the oracle imports it
    makes (those that make none are left out)."""
    name, bad = package_dir.name, {}
    for module, tree in command_path(package_dir).items():
        imports = module_imports(tree, name)
        hits = sorted({o for o in ORACLE_IMPORTS for m in imports
                       if m == o or m.startswith(o + ".")})
        if hits:
            bad[f"{name}.{module}"] = hits
    return bad


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package's sources, for a test to plant a defect in."""
    copy = tmp_path / "lbstates"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    return copy


def test_command_path_imports_no_sparse_oracle():
    assert command_path_violations(PACKAGE) == {}


def test_command_path_rule_finds_an_oracle_import(package_copy):
    for module, line in (("levels", "import scipy.sparse"), ("floattext", "from . import pt"),
                         ("__init__", "from .ladders import ladder_matrices")):
        path = package_copy / f"{module}.py"
        path.write_text(path.read_text() + f"\n{line}\n")
    assert command_path_violations(package_copy) == {"lbstates.levels": ["scipy.sparse"],
                                                     "lbstates.floattext": ["lbstates.pt"],
                                                     "lbstates.__init__": ["lbstates.ladders"]}


# What a payload command process runs: the four commands that write a
# payload, and the entry point that dispatches them
PAYLOAD_ROOTS = ("cli.cmd_spectrum", "cli.cmd_state", "cli.cmd_density", "cli.cmd_scan",
                 "cli.cli_main")

# The only top-level definitions of a `command_path` module that no payload
# command reaches, each with the reason it stays there
UNREACHED_EXEMPT = {
    "spinor.level_matrix": "bench/tracing.py wraps it by name and patches the wrapper into"
                           " ladders; the traced run's layer metrics require its span",
    "levels.two_entry_columns": "the helper of spinor.level_matrix, which cannot import the"
                                " oracle module ladders",
    "__init__.__version__": "package metadata",
    "__init__.__all__": "the names `from lbstates import *` binds",
    "__init__.__getattr__": "loads cli_main on first use, for library callers",
}


def top_level_definitions(tree: ast.Module) -> dict:
    """Name -> the top-level def, class or assignment that binds it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))
    return defs


def package_imports(tree: ast.Module) -> dict:
    """Name bound by each module-level relative import -> (module, name),
    with name None where the bound name is a module (`from . import x`)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = ((node.module, alias.name) if node.module
                                                     else (alias.name, None))
    return bound


def reachability(package_dir: pathlib.Path, exempt: dict) -> dict:
    """The top-level definitions of the `command_path` modules that neither
    a `PAYLOAD_ROOTS` entry nor module-level code reaches, as 'module.name'.

    A def, class or assignment is followed once it is reached: every name
    its statement mentions (decorators, defaults and method bodies
    included), and every attribute read off a package module, is resolved
    through the module's imports to the definition it names.  Every other
    top-level statement runs at import and is a root.  The scan goes by
    name, so a local that shadows a top-level name counts as a use.
    Returns the unreached names not in `exempt` ("unreached") and the
    exempt names that are reached or not defined ("stale")."""
    trees = command_path(package_dir)
    defs = {m: top_level_definitions(t) for m, t in trees.items()}
    imports = {m: package_imports(t) for m, t in trees.items()}

    def resolve(module, name):
        while name is not None and name not in defs.get(module, {}):
            module, name = imports.get(module, {}).get(name, (None, None))
        return None if name is None else (module, name)

    def uses(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports[module].get(sub.value.id)
                if target is not None and target[1] is None:
                    yield resolve(target[0], sub.attr)

    todo = [tuple(root.split(".")) for root in PAYLOAD_ROOTS]
    for module, tree in trees.items():
        todo += [use for node in tree.body
                 if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                          ast.Assign, ast.AnnAssign, ast.AugAssign))
                 for use in uses(module, node)]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo.extend(uses(key[0], defs[key[0]][key[1]]))
    defined = {f"{m}.{name}" for m, names in defs.items() for name in names}
    unreached = defined - {f"{m}.{name}" for m, name in reached}
    return {"unreached": sorted(unreached - set(exempt)),
            "stale": {name: "not defined" if name not in defined else "reached"
                      for name in sorted(set(exempt) - unreached)}}


def test_command_modules_hold_only_what_a_command_runs():
    assert reachability(PACKAGE, UNREACHED_EXEMPT) == {"unreached": [], "stale": {}}


def test_reachability_rule_finds_an_unreached_definition(package_copy):
    levels = package_copy / "levels.py"
    levels.write_text(levels.read_text() + "\n\ndef planted(ps):\n    return window_levels(ps)\n")
    fock = package_copy / "fock.py"
    fock.write_text(fock.read_text() + "\nPLANTED_LIMIT = PSI_HARD_LIMIT\n")
    assert reachability(package_copy, UNREACHED_EXEMPT) == {
        "unreached": ["fock.PLANTED_LIMIT", "levels.planted"], "stale": {}}


def test_reachability_rule_finds_a_stale_exemption(package_copy):
    # a command now reaches spinor.level_matrix, and through it
    # levels.two_entry_columns; __version__ is gone
    cli = package_copy / "cli.py"
    cli.write_text(cli.read_text().replace(
        "def cmd_spectrum(args, parser) -> int:\n",
        "def cmd_spectrum(args, parser) -> int:\n    spinor.level_matrix(_cutoff(args))\n")
        + "\nfrom . import spinor\n")
    init = package_copy / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "0.1.0"\n', ""))
    assert reachability(package_copy, UNREACHED_EXEMPT) == {"unreached": [], "stale": {
        "__init__.__version__": "not defined", "levels.two_entry_columns": "reached",
        "spinor.level_matrix": "reached"}}


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
