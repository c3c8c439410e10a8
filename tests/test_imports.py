"""The package depends on numpy alone: every import in src/ is stdlib, numpy or relative."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quditswap"


def test_src_imports_only_stdlib_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] not in allowed]
    assert outside == []
