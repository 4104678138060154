"""The brute-force oracles stay out of the package."""

import ast
from pathlib import Path

import spsys

TESTS = Path(__file__).resolve().parent


def _top_level_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_no_oracle_is_defined_in_the_package():
    oracles = _top_level_names(TESTS / "oracles.py")
    assert oracles
    for module in sorted(Path(spsys.__file__).parent.glob("*.py")):
        shared = oracles & _top_level_names(module)
        assert not shared, f"{module.name} defines the test oracles {sorted(shared)}"
