"""The package metadata declares every third-party module the library imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.S | re.M).group(1)
    names = re.findall(r"[\"']([A-Za-z0-9_.\-]+)", listing)
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules():
    modules = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_third_party_import_is_declared():
    third_party = {
        module
        for module in imported_top_level_modules()
        if module not in sys.stdlib_module_names and module not in ("repro", "__future__")
    }
    assert {"numpy", "scipy"} <= third_party
    missing = third_party - declared_dependencies()
    assert not missing, f"imported by src/repro but not declared in pyproject.toml: {missing}"
