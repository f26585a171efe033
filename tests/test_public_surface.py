"""Every name a tkgd module exports in __all__ has a user.

A user is a Name or Attribute reference in src/tkgd (strings and docstrings
do not count), an import in the acceptance suite, or a traced callable in
the benchmark tracer.  An exported name with none of these is dead code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tkgd"


def _assigned_literal(tree: ast.Module, name: str):
    """The literal value assigned to a module-level name, or None.

    None also for a computed value: the package's own __all__ is built from
    the submodules' names, which their modules' __all__ already list.
    """
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return None
    return None


def _unused_public_names(modules: dict[str, str], acceptance: str, tracer: str) -> list[str]:
    """'module.name' of each __all__ entry in modules (name -> source) that nothing uses."""
    trees = {name: ast.parse(source, name) for name, source in modules.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    pinned = {
        (node.module.removeprefix("tkgd."), alias.name)
        for node in ast.walk(ast.parse(acceptance))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tkgd.")
        for alias in node.names
    }
    functions = _assigned_literal(ast.parse(tracer), "FUNCTIONS")
    traced = {(module, attr.split(".")[0]) for _span, module, attr in functions}
    return [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in _assigned_literal(tree, "__all__") or ()
        if name not in referenced and (module, name) not in pinned | traced
    ]


def test_detector_flags_names_without_users():
    modules = {
        "a": '__all__ = ["used", "unused", "pinned", "traced", "Cls"]\n'
        'def used(): pass\n'
        'def unused():\n    """unused is named here only"""\n'
        "def pinned(): pass\ndef traced(): pass\nclass Cls: pass\n",
        "b": 'from .a import used, unused\nused()\nthing.Cls\nunused = 1\nprint("unused")\n',
    }
    acceptance = "from tkgd.a import pinned\nfrom tkgd.b import traced\n"
    tracer = 'FUNCTIONS = (("a.traced", "a", "traced.method"),)\n'
    assert _unused_public_names(modules, acceptance, tracer) == ["a.unused"]


def test_every_public_name_has_a_user():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert modules
    unused = _unused_public_names(
        modules,
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        (ROOT / "benchmarks" / "tracer.py").read_text(encoding="utf-8"),
    )
    assert unused == [], f"exported but used by nothing in src/tkgd, the acceptance suite or the tracer: {unused}"
