"""The archive layout has one owner: no module of src/sdrnn but errors
formats a layer entry name l{k}_{name} or opens an archive (np.load or an
NpzFile), so every loader reads its entries through errors, which checks
them against those its writer writes.

A string counts if it holds `l`, then a replacement field ({...} in an
f-string or a str.format template, %d and the like in a %-template), then
`_`, where the `l` does not end a longer word.
"""

import ast
import re

import pytest

from test_import_graph import sources

OWNER = "errors"

ENTRY_NAME = re.compile(r"(?<![A-Za-z0-9_])l(\{[^{}]*\}|%[a-z])_")


def template(node: ast.JoinedStr) -> str:
    """An f-string's text with each replacement field written as {}."""
    return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                   for part in node.values)


def layout_uses(code: str) -> list[tuple[int, str]]:
    """(line, what) of each entry name that the code formats and each
    archive that it opens."""
    found = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.JoinedStr):
            text = template(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            text = None
        if text is not None and ENTRY_NAME.search(text):
            found.append((node.lineno, "entry name"))
        if (isinstance(node, ast.Attribute) and node.attr == "NpzFile"
                or isinstance(node, ast.Name) and node.id == "NpzFile"):
            found.append((node.lineno, "NpzFile"))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
                and {alias.name for alias in node.names} & {"NpzFile", "load"}):
            found.append((node.lineno, "import"))
        if (isinstance(node, ast.Attribute) and node.attr == "load"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, "np.load"))
    return found


@pytest.mark.parametrize("module", sorted(set(sources()) - {OWNER}))
def test_only_errors_knows_the_archive_layout(module):
    assert layout_uses(sources()[module]) == []


def test_errors_is_found_to_know_it():
    # the owner writes and checks the entry names and opens the archives
    assert {what for _, what in layout_uses(sources()[OWNER])} == {"entry name", "NpzFile"}


@pytest.mark.parametrize("code, what", [
    ('name = f"l{li}_{name}"', "entry name"),
    ('name = f"l{li}_w_in"', "entry name"),
    ('name = "l{}_{}".format(li, name)', "entry name"),
    ('name = "l%d_%s" % (li, name)', "entry name"),
    ("data = np.load(path)", "np.load"),
    ("data = numpy.load(path)", "np.load"),
    ("data = np.lib.npyio.NpzFile(fh)", "NpzFile"),
    ("from numpy.lib.npyio import NpzFile", "import"),
    ("from numpy import load", "import")])
def test_a_use_of_the_layout_is_found(code, what):
    assert [w for _, w in layout_uses(code)] == [what]


@pytest.mark.parametrize("code", [
    'label = f"layer {li}: {key}"',
    'name = f"{path}: layer {li} must be a JSON object"',
    'model = f"model_{seed}_"',
    "values = json.load(fh)",
    "from json import load"])
def test_other_code_is_not_a_use(code):
    assert layout_uses(code) == []
