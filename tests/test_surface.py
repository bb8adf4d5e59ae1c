"""Every public function, class and method in src/divconv has a caller.

A caller is an identifier in src/ or in perfbench/, or a name that
perfbench/tracer.py spells as a string (it wraps functions by name). A name
that only the tests reach is dead weight: the tests should read the data
they need directly. Dunders and click commands are exempt, and so are the
named reference oracles in REFERENCES.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "divconv").glob("*.py"))

#: independent references that only the tests compare the pipeline against
REFERENCES = {"target_coefficient_via_sums", "octonary_1_1_closed_form"}


def _trees(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _identifiers(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _public_definitions(tree):
    """(qualified name, name) of each public top-level def or class and of each public method."""
    for node in tree.body:
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        if not public or _is_click_command(node):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def test_every_public_name_has_a_caller():
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    spelled = {
        node.value
        for node in ast.walk(tracer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    trees = _trees(SOURCES)
    called = _identifiers(trees) | _identifiers(_trees(sorted((ROOT / "perfbench").glob("*.py"))))
    uncalled = [
        f"{path.stem}.{qualified}"
        for path, tree in zip(SOURCES, trees)
        for qualified, name in _public_definitions(tree)
        if name not in called | spelled | REFERENCES
    ]
    assert uncalled == [], f"public names with no caller outside the tests: {uncalled}"
