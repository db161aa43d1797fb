"""No public helper without a caller: every public top-level name that
``src/dsh_lab`` defines is used somewhere in ``src/dsh_lab`` besides its own
definition and the package's re-exports in ``__init__.py``."""

import ast
import collections
from pathlib import Path

import dsh_lab

SRC = Path(dsh_lab.__file__).parent

# Names only the tests use, kept because tests compare against them.
TEST_REFERENCES = {
    "random_element": "one draw of random_value_stack as an Element; the tests "
                      "check random_value_stack against successive draws of it",
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _scan(root: Path = SRC) -> tuple[dict[str, str], collections.Counter]:
    """(public top-level name -> defining file, uses of each name in src)."""
    defined: dict[str, str] = {}
    uses: collections.Counter = collections.Counter()
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(node)
            defined.update((name, path.name) for name in own if not name.startswith("_"))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    name = sub.attr
                else:
                    continue
                if name not in own:
                    uses[name] += 1
    return defined, uses


def test_every_public_name_has_a_caller_in_src():
    defined, uses = _scan()
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if not uses[name] and name not in TEST_REFERENCES)
    assert unused == []


def test_test_references_are_defined_and_unused_in_src():
    defined, uses = _scan()
    for name in TEST_REFERENCES:
        assert name in defined and not uses[name], name


def test_scan_sees_a_name_that_only_the_package_reexports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import helper, used\n")
    (tmp_path / "mod.py").write_text(
        "def helper():\n    return helper\n\n\ndef used():\n    pass\n\n\nX = used()\n")
    defined, uses = _scan(tmp_path)
    assert defined == {"helper": "mod.py", "used": "mod.py", "X": "mod.py"}
    assert (uses["helper"], uses["used"], uses["X"]) == (0, 1, 0)
