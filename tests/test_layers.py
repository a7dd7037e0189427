"""The package's modules import each other one way, from polyring up to cli."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import affpi0

# the affpi0 modules each module may import; a new edge is a design change
ALLOWED = {
    "errors": set(),
    "polyring": {"errors"},
    "linalg": {"polyring"},
    "factor": {"errors", "polyring"},
    "solve": {"errors", "factor", "linalg", "polyring"},
    "algebra": {"errors", "polyring", "solve"},
    "mapspace": {"algebra", "errors", "polyring"},
    "derham": {"algebra", "errors", "linalg", "polyring"},
    "matrix_homotopy": {"algebra", "errors", "polyring"},
    "homotopy": {"algebra", "errors", "mapspace", "polyring", "solve"},
    "pi0": {"algebra", "derham", "errors", "factor", "linalg", "mapspace",
            "polyring", "solve"},
    "simplicial": {"algebra", "errors", "linalg", "mapspace", "pi0",
                   "polyring"},
    "cli": {"algebra", "derham", "errors", "homotopy", "mapspace",
            "matrix_homotopy", "pi0", "polyring", "simplicial"},
    "__init__": {"algebra", "derham", "mapspace", "pi0", "polyring"},
}

PACKAGE = os.path.dirname(os.path.abspath(affpi0.__file__))
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE)
                 if name.endswith(".py"))


def _targets(node: ast.AST) -> list[str]:
    """The affpi0 modules named by one import statement; a name that is not
    a module of the package comes from its __init__."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".")[1] for alias in node.names
                 if alias.name.startswith("affpi0.")]
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            if module != "affpi0" and not module.startswith("affpi0."):
                return []
            module = module.partition(".")[2]
        names = ([module.split(".")[0]] if module
                 else [alias.name for alias in node.names])
    else:
        return []
    return [name if name in MODULES else "__init__" for name in names]


def _package_imports(module: str) -> dict[str, int]:
    """The affpi0 modules that `module` imports, function bodies included,
    each with the line of its first import."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        for target in _targets(node):
            found.setdefault(target, node.lineno)
    return found


def test_the_table_names_every_module_and_runs_one_way():
    assert sorted(ALLOWED) == MODULES
    placed: set[str] = set()
    pending = dict(ALLOWED)
    while pending:
        ready = [m for m, deps in pending.items() if deps <= placed]
        assert ready, f"import cycle among {sorted(pending)}"
        placed.update(ready)
        for m in ready:
            del pending[m]


def test_every_module_imports_only_its_allowed_modules():
    outside = [f"{module}:{line} imports {target}"
               for module in MODULES
               for target, line in sorted(_package_imports(module).items())
               if target not in ALLOWED.get(module, set())]
    assert not outside, f"imports against the layer table: {outside}"


def _private_definitions_unreferenced() -> list[str]:
    """Private functions, methods and classes of the package (dunders
    aside) that no name or attribute in the package refers to."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module in MODULES:
        with open(os.path.join(PACKAGE, module + ".py"),
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), module)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in used)


def test_every_private_definition_has_a_caller_in_the_package():
    """A helper that only tests reach belongs in `tests/`."""
    unused = _private_definitions_unreferenced()
    assert not unused, f"private definitions nothing in affpi0 uses: {unused}"


def _imported_names_unused(module: str) -> list[str]:
    """The names that `module` binds by an import statement and never
    reads; `__all__` counts as a read, for the package's re-exports."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{module}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    unused = [entry for module in MODULES
              for entry in _imported_names_unused(module)]
    assert not unused, f"imported names the module never uses: {unused}"


def test_starting_the_cli_does_not_load_the_factoring_kernel():
    """`solve` and `pi0` import `factor` on first use: a request that
    splits no algebra and seeks no rational root never pays for it."""
    probe = ("import sys, affpi0.cli; "
             "print('affpi0.factor' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
