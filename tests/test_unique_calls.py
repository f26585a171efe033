"""No values-only np.unique in the package: NumPy 2 hashes there, and numerics.sorted_unique is the fast form."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tkgd"
RETURN_FLAGS = {"return_index", "return_inverse", "return_counts"}


def _values_only_unique_calls(source: str, filename: str) -> list[int]:
    """Line numbers of np.unique / numpy.unique calls that pass none of RETURN_FLAGS."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "unique"):
            continue
        if not (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            continue
        if not RETURN_FLAGS & {kw.arg for kw in node.keywords}:
            lines.append(node.lineno)
    return lines


def test_detector_flags_values_only_calls():
    source = "import numpy as np\nnp.unique(a)\nnp.unique(a, return_index=True)\nnumpy.unique(b, axis=0)\n"
    assert _values_only_unique_calls(source, "<case>") == [2, 4]


def test_package_has_no_values_only_unique():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _values_only_unique_calls(path.read_text(encoding="utf-8"), str(path)))
    }
    assert found == {}, f"use numerics.sorted_unique instead of a values-only np.unique: {found}"
