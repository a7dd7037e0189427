"""The runtime imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import affpi0

PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import affpi0
for info in pkgutil.iter_modules(affpi0.__path__):
    __import__("affpi0." + info.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_runtime_loads_only_stdlib_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(affpi0.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(json.loads(out))
    assert "affpi0" in loaded
    outside = sorted(loaded - {"affpi0"} - set(sys.stdlib_module_names))
    assert not outside, f"non-stdlib modules imported: {outside}"


def test_every_import_statement_names_stdlib_or_affpi0():
    """Scan every import statement, function bodies included: a
    function-local import escapes the load probe until the function runs."""
    package = os.path.dirname(os.path.abspath(affpi0.__file__))
    allowed = set(sys.stdlib_module_names) | {"affpi0"}
    outside = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [f"{name}:{node.lineno} {m}" for m in modules
                        if m.split(".")[0] not in allowed]
    assert not outside, f"imports outside the stdlib: {outside}"
