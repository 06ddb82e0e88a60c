"""The package's import graph: every import of src/sdrnn is at module level,
and the module-level imports form no cycle.

Imports under `if TYPE_CHECKING:` do not run, so they are not counted. The
compiler runs its f search on the simulator, and the simulator names the
compiler's network type in annotations only, so the simulator imports the
compiler under TYPE_CHECKING and nowhere else.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdrnn"


def sources() -> dict[str, str]:
    """Module name (the file's stem) -> source, for each module of the package."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node: ast.Import | ast.ImportFrom, modules) -> set[str]:
    """The package modules that an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level == 0:
        names = [node.module]
    else:  # relative: `from .a import b` loads a; `from . import a` loads a
        names = [node.module] if node.module else [alias.name for alias in node.names]
    return {name.removeprefix("sdrnn.") for name in names if name} & set(modules)


def is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and (
        isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        or isinstance(node.test, ast.Attribute) and node.test.attr == "TYPE_CHECKING")


def module_level_imports(tree: ast.Module) -> list[ast.Import | ast.ImportFrom]:
    """The imports that run when the module loads: those outside every
    function and class body and outside `if TYPE_CHECKING:` blocks."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not (is_type_checking(node) or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))):
            todo.extend(child for child in ast.iter_child_nodes(node)
                        if isinstance(child, ast.stmt))
    return found


def function_level_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(function name, line) of each import inside a function body."""
    return [(func.name, node.lineno) for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


def imports_at_load(code: dict[str, str], module: str) -> set[str]:
    """The package modules that module's module-level imports load."""
    return set().union(*[imported_modules(node, code)
                         for node in module_level_imports(ast.parse(code[module]))])


def import_cycle(code: dict[str, str]) -> list[str] | None:
    """A cycle among the modules' module-level imports, as the list of
    modules along it (the first again at its end), or None."""
    graph = {name: imports_at_load(code, name) for name in code}
    done: set[str] = set()

    def visit(name, path):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        for other in sorted(graph[name]):
            if cycle := visit(other, path + [name]):
                return cycle
        done.add(name)
        return None

    for name in sorted(graph):
        if cycle := visit(name, []):
            return cycle
    return None


@pytest.mark.parametrize("module", sorted(sources()))
def test_no_import_inside_a_function(module):
    assert function_level_imports(ast.parse(sources()[module])) == []


def test_no_cycle_among_module_level_imports():
    assert import_cycle(sources()) is None


def test_convert_imports_the_simulator_and_not_the_reverse():
    code = sources()
    assert "snn_sim" in imports_at_load(code, "convert")
    assert "convert" not in imports_at_load(code, "snn_sim")


def test_a_type_checking_import_run_at_load_is_a_cycle():
    # the simulator's TYPE_CHECKING import of the compiler, made a plain one,
    # closes the cycle that the compiler's import of the simulator opens
    code = sources()
    code["snn_sim"] = code["snn_sim"].replace("if TYPE_CHECKING:", "if True:")
    assert import_cycle(code) in (["convert", "snn_sim", "convert"],
                                  ["snn_sim", "convert", "snn_sim"])


def test_an_import_in_a_function_is_found():
    tree = ast.parse("import math\n\ndef f():\n    from .snn_sim import simulate_batch\n")
    assert function_level_imports(tree) == [("f", 4)]
    assert imported_modules(module_level_imports(tree)[0], {"math"}) == {"math"}
