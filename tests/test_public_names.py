"""No public helper without a caller: every public top-level name that
``src/dsh_lab`` defines, and every public method of its top-level classes,
is used somewhere in ``src/dsh_lab`` besides its own definition and the
package's re-exports in ``__init__.py``. A method that overrides one of a
base class from outside the package is called by that library, not by
``src``, and is exempt."""

import ast
import collections
import importlib
from pathlib import Path

import dsh_lab

SRC = Path(dsh_lab.__file__).parent

# Names only the tests use, kept because tests compare against them.
TEST_REFERENCES = {
    "random_element": "one draw of random_value_stack as an Element; the tests "
                      "check random_value_stack against successive draws of it",
    "Permutation.compose": "permutation algebra of the reference that the tests "
                           "check the paths' permutations against",
    "Permutation.identity": "permutation algebra of the reference that the tests "
                            "check the paths' permutations against",
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _loads(node: ast.AST, own: list[str]):
    """The names and attribute names that ``node`` reads, other than ``own``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            name = sub.attr
        else:
            continue
        if name not in own:
            yield name


def _scan(root: Path = SRC) -> tuple[dict[str, str], collections.Counter]:
    """(public top-level name or ``Class.method`` -> defining file, uses of
    each name in src). A method's uses are those of its bare name, outside
    its own body."""
    defined: dict[str, str] = {}
    uses: collections.Counter = collections.Counter()
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(node)
            defined.update((name, path.name) for name in own if not name.startswith("_"))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, ast.ClassDef):
                uses.update(_loads(node, own))
                continue
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")):
                    defined[f"{node.name}.{sub.name}"] = path.name
                uses.update(_loads(sub, own + _defined_names(sub)))
            for sub in node.bases + node.keywords + node.decorator_list:
                uses.update(_loads(sub, own))
    return defined, uses


def _overrides_a_library_method(name: str, path: str) -> bool:
    """Whether ``Class.method`` overrides a method of a base class that the
    package does not define."""
    cls_name, _, method = name.rpartition(".")
    if not cls_name:
        return False
    cls = getattr(importlib.import_module(f"dsh_lab.{Path(path).stem}"), cls_name)
    return any(hasattr(base, method) for base in cls.__mro__[1:]
               if not base.__module__.startswith("dsh_lab"))


def test_every_public_name_has_a_caller_in_src():
    defined, uses = _scan()
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if not uses[name.rpartition(".")[2]] and name not in TEST_REFERENCES
                    and not _overrides_a_library_method(name, path))
    assert unused == []


def test_test_references_are_defined_and_unused_in_src():
    defined, uses = _scan()
    for name in TEST_REFERENCES:
        assert name in defined and not uses[name.rpartition(".")[2]], name


def test_scan_sees_a_name_that_only_the_package_reexports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import helper, used\n")
    (tmp_path / "mod.py").write_text(
        "def helper():\n    return helper\n\n\ndef used():\n    pass\n\n\nX = used()\n")
    defined, uses = _scan(tmp_path)
    assert defined == {"helper": "mod.py", "used": "mod.py", "X": "mod.py"}
    assert (uses["helper"], uses["used"], uses["X"]) == (0, 1, 0)


def test_scan_sees_methods_by_their_uses_outside_their_own_body(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class C:\n"
        "    def used(self):\n        return self.recursive()\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    def _private(self):\n        pass\n\n\n"
        "X = C().used\n")
    defined, uses = _scan(tmp_path)
    assert defined == {"C": "mod.py", "C.used": "mod.py", "C.recursive": "mod.py",
                       "X": "mod.py"}
    assert (uses["used"], uses["recursive"], uses["C"]) == (1, 1, 1)


def test_only_overrides_of_a_library_base_are_exempt():
    assert _overrides_a_library_method("_Parser.error", "cli.py")
    assert not _overrides_a_library_method("Permutation.compose", "matrixkit.py")
    assert not _overrides_a_library_method("random_element", "dsh_model.py")
