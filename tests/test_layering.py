"""Package layering: the transports sit below the kernel network model.

``repro.netstack.tcp`` builds its lanes from ``repro.transports``, so the
transports must import nothing from ``repro.netstack``.  Otherwise the
two packages import each other, and which one a program imports first
decides whether the import succeeds.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a program may import before anything else of the package.
FIRST_IMPORTS = ("repro", "repro.transports", "repro.netstack",
                 "repro.netstack.tcp", "repro.baselines", "repro.core")


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr


def _imported_modules(path: Path, package: str):
    """Every module named by an import statement of ``path`` (type-only
    imports included), relative imports resolved against ``package``."""
    parts = package.split(".")
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(parts[:len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_resolver_sees_relative_and_package_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from ..netstack.packet import Message\n"
                      "from .. import netstack\n"
                      "from .base import Lane\n")
    found = set(_imported_modules(source, "repro.transports"))
    assert {"repro.netstack.packet", "repro.netstack",
            "repro.transports.base"} <= found


def test_transports_import_nothing_from_netstack():
    package = SRC / "repro" / "transports"
    offenders = sorted(
        path.name for path in package.glob("*.py")
        if any(module == "repro.netstack"
               or module.startswith("repro.netstack.")
               for module in _imported_modules(path, "repro.transports")))
    assert offenders == []
