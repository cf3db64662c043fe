"""The config layer and the orchestration import no model layer when they load.

``limits`` and ``pipeline`` are loaded by every command that reads a config, ``preprocess``
included, so an import of the simulator or a model layer at their top level would make every
command compile it. The check reads the import statements that run when a module loads
(those outside function bodies), by AST, so it times nothing.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qshield"
CONFIG_LAYER = ("limits.py", "pipeline.py")
MODEL_LAYERS = {"statevector", "encoding", "vqc", "qkernel", "evalstats", "explain"}


def load_time_imports(source: str) -> set[str]:
    """The last component of each module named by an import that runs when ``source`` loads."""
    names: set[str] = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rpartition(".")[2])
            else:  # from . import vqc
                names.update(alias.name for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return names


def test_config_layer_imports_no_model_layer():
    found = {name: sorted(load_time_imports((PACKAGE / name).read_text(encoding="utf-8"))
                          & MODEL_LAYERS) for name in CONFIG_LAYER}
    assert found == {name: [] for name in CONFIG_LAYER}


def test_limits_imports_no_qshield_module_but_errors():
    tree = ast.parse((PACKAGE / "limits.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors"}


def test_the_check_sees_a_load_time_import():
    source = ("import numpy as np\nfrom .vqc import VqcModel\nfrom . import qkernel\n"
              "if True:\n    from .evalstats import metrics\n"
              "class Box:\n    from .statevector import evolve\n"
              "def lazy():\n    from .explain import grad_attribution\n")
    assert load_time_imports(source) & MODEL_LAYERS == {"vqc", "qkernel", "evalstats",
                                                        "statevector"}
