"""What the package imports: read from the source, and seen in a fresh
process."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "contact_tensor").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_source_files_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "expr.py", "report.py"}


# random: every verdict is exact, True from a certificate and False from
# a witness binding, never from sampled points (CI greps for it as well).
# dataclasses: a dataclass generates its methods with exec at every
# import; the records are NamedTuples
@pytest.mark.parametrize("banned", ["random", "dataclasses"])
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports(path, banned):
    assert banned not in imported_modules(path)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import json, sys; before = set(sys.modules); "
            "import contact_tensor.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    added = set(json.loads(out.stdout))
    assert "contact_tensor.cli" in added
    assert not added & {"dataclasses", "inspect"}
