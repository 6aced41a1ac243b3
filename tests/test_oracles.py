"""The oracles stay independent of the code they check."""

import ast
from pathlib import Path


def test_oracles_import_only_error_types_from_fracprimes():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    ours = [n for n in names if n == "fracprimes" or n.startswith("fracprimes.")]
    assert ours and set(ours) == {"fracprimes.errors"}
