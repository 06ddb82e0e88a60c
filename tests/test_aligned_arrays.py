"""The simulator's per-step arrays are allocated through snn_sim._aligned,
so that each starts on a 64-byte boundary (see the snn_sim module
docstring).

numpy aligns its own allocations to 16 bytes only, and nothing but a timing
shows a step array that lost its boundary: the values stay the same. So this
guard reads the source. Each named array may be bound only by a call to
_aligned or to the kernel's laid_out, and laid_out returns only arrays that
_aligned made (or rows of them).
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sdrnn" / "snn_sim.py"
HELPER = "_aligned"
#: The kernel's helper that lays a constant out through HELPER.
LAYOUT = "laid_out"
#: The arrays each function allocates for the step: what a step writes, and
#: the constants the kernel lays out for it.
PER_STEP = {
    "sigma_delta_kernel": {"state", "decayed", "tmp", "fired", "spikes", "taus", "factor",
                           "bias", "w_fb", "scale", "half", "hi", "lo"},
    "_engine": {"drive", "now", "line", "product", "counts"},
}


def functions(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    """Each function defined in tree, nested ones included, by name."""
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def own_nodes(func: ast.FunctionDef):
    """The nodes of func's body, without those of the functions it defines."""
    todo = list(func.body)
    while todo:
        node = todo.pop(0)
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, (ast.FunctionDef, ast.Lambda)))


def bindings(func: ast.FunctionDef) -> list[tuple[str, ast.expr | None, int]]:
    """(name, value, line) of each binding of a name in func's own body. A
    tuple target takes the matching element of a tuple value; a target that
    unpacks anything else, and a for target, binds None."""
    found = []

    def bind(target, value, line):
        if isinstance(target, ast.Name):
            found.append((target.id, value, line))
        elif isinstance(target, (ast.Tuple, ast.List)):
            values = (value.elts if isinstance(value, (ast.Tuple, ast.List))
                      and len(value.elts) == len(target.elts) else [None] * len(target.elts))
            for t, v in zip(target.elts, values):
                bind(t, v, line)
        elif isinstance(target, ast.Starred):
            bind(target.value, None, line)

    for node in own_nodes(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, node.value, node.lineno)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            bind(node.target, node.value, node.lineno)
        elif isinstance(node, ast.For):
            bind(node.target, None, node.lineno)
    return found


def calls(value: ast.expr | None, allowed: set[str]) -> bool:
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in allowed)


def returned_names(value: ast.expr) -> set[str]:
    """The names whose arrays, or views of them, a return value can be;
    "<other>" for a value that is none of those."""
    if isinstance(value, ast.IfExp):
        return returned_names(value.body) | returned_names(value.orelse)
    if isinstance(value, ast.Subscript):
        return returned_names(value.value)
    return {value.id} if isinstance(value, ast.Name) else {"<other>"}


def misplaced(code: str) -> list[tuple[str, str, int]]:
    """(function, name, line) of each per-step array bound other than by
    HELPER or LAYOUT, of each one that is never bound, and of each name that
    LAYOUT returns without HELPER having made it."""
    funcs = functions(ast.parse(code))
    bad = []
    for fname, names in PER_STEP.items():
        bound = bindings(funcs[fname])
        bad += [(fname, name, line) for name, value, line in bound
                if name in names and not calls(value, {HELPER, LAYOUT})]
        bad += [(fname, name, 0) for name in sorted(names - {name for name, _, _ in bound})]
    layout = funcs[LAYOUT]
    made = {name for name, value, _ in bindings(layout) if calls(value, {HELPER})}
    unmade = {name for name, value, _ in bindings(layout) if not calls(value, {HELPER})}
    for node in own_nodes(layout):
        if isinstance(node, ast.Return):
            names = returned_names(node.value) if node.value else {"<other>"}
            bad += [(LAYOUT, name, node.lineno) for name in sorted(names)
                    if name not in made or name in unmade]
    return bad


def test_every_per_step_array_is_allocated_aligned():
    assert misplaced(SOURCE.read_text()) == []


def test_a_numpy_allocation_is_found():
    code = SOURCE.read_text()
    for old, new, name in [("drive = _aligned(shape)", "drive = np.zeros(shape)", "drive"),
                           ("tmp, fired, spikes = _aligned(shape)",
                            "tmp, fired, spikes = np.empty(shape)", "tmp")]:
        assert code.count(old) == 1
        assert [bad[1] for bad in misplaced(code.replace(old, new))] == [name]


def test_a_laid_out_constant_made_by_numpy_is_found():
    code = SOURCE.read_text()
    old = "out = _aligned((len(rows), *shape))"
    assert code.count(old) == 1
    found = misplaced(code.replace(old, "out = np.ascontiguousarray(np.zeros(shape))"))
    assert {(func, name) for func, name, _ in found} == {(LAYOUT, "out")}


def test_bindings_pair_tuples_and_mark_unpacking():
    func = ast.parse("def f(x):\n    a, b = g(), h()\n    c, d = x\n    for e in x:\n"
                     "        pass\n").body[0]
    assert [(name, calls(value, {"g"})) for name, value, _ in bindings(func)] == [
        ("a", True), ("b", False), ("c", False), ("d", False), ("e", False)]
