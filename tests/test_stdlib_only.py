"""The runtime is stdlib-only: every module of src/corelat imports only the
standard library and corelat itself, and parses as the oldest Python that
pyproject.toml's requires-python admits."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "corelat"
ALLOWED = sys.stdlib_module_names | {"corelat"}
# (3, 10) from requires-python = ">=3.10"
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                 (SRC.parent.parent / "pyproject.toml").read_text(),
                                 re.MULTILINE).groups()))


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        # feature_version refuses syntax newer than the floor, e.g. except* below 3.11
        for node in ast.walk(ast.parse(path.read_text(), str(path), feature_version=FLOOR)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
