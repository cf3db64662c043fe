"""Every public function, class and method of the package has a caller that is not a test.

A caller is a reference to its name (an ``ast.Name``, an ``ast.Attribute`` or an
import alias) in the package itself, in the acceptance suite, in the test oracles of
``tests/helpers.py`` or in the benchmark harness under ``perfbench/`` (whose own
tests do not count).  Names are matched bare, so a method counts as reached when
any attribute of its name is read; docstrings and comments reach nothing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qshield").glob("*.py"))
CALLERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"] + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)
# the README's library entry points to preprocessing; the commands run their in-place twins
LIBRARY_API = {"fit_preprocess", "apply_preprocess"}


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def public_definitions(path: Path):
    """(qualified name, bare name) of each public top-level function and class, and of each
    public method of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_definition_has_a_caller():
    reached = set().union(*map(referenced_names, PACKAGE + CALLERS)) | LIBRARY_API
    unreached = [qualified for path in PACKAGE for qualified, name in public_definitions(path)
                 if name not in reached]
    assert unreached == []


def test_the_check_sees_a_definition_nothing_reaches(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
                      "class Box:\n    def opened(self):\n        pass\n")
    reached = referenced_names(module)
    found = [qualified for qualified, name in public_definitions(module) if name not in reached]
    assert found == ["mod.unused", "mod.Box", "mod.Box.opened"]
