"""Every public function, class and method in src/divconv has a caller.

A caller lives in src/ or in perfbench/, and it must reach the definition
itself, not just a name spelled the same way:

- a function or class m.name is reached by `from .m import name` or
  `from divconv.m import name`, by `x.name` where x is bound to the module m
  (`from . import m`, `from divconv import m`, `import divconv.m as x`), or
  by a bare `name` inside m itself;
- a method is reached by an attribute `.name` anywhere.

A name that perfbench/tracer.py only spells in a string is not reached: the
tracer skips a name it cannot find, so the string proves no caller.

A name that only the tests reach is dead weight: the tests should read the
data they need directly, and the references they check against live in
tests/reference.py. Dunders are exempt. A private top-level name (`_name`)
in src/divconv is read by its own module.

The slot format of a series packed into one int is decided in arith alone:
no other module imports struct or calls int.from_bytes or int.to_bytes.

Every name that a module in src/divconv or tests imports is read in it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "divconv").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _divconv_module(source: str | None, level: int) -> str | None:
    """The divconv module an import statement reads from, if any: `.m` and
    `divconv.m` give m, `.` and `divconv` give the package ""."""
    if level == 1:
        return source or ""
    if source == "divconv":
        return ""
    if level == 0 and source and source.startswith("divconv."):
        return source.removeprefix("divconv.")
    return None


def _reached(path: Path, tree) -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs this file reaches by binding, and the attribute names it uses."""
    own = path.stem if path.parent.name == "divconv" else None
    reached, attributes, aliases = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _divconv_module(node.module, node.level)
            for alias in node.names if module is not None else ():
                if module:
                    reached.add((module, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("divconv."):
                    aliases[alias.asname] = alias.name.removeprefix("divconv.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own is not None:
            reached.add((own, node.id))
    return reached, attributes


def _public_definitions(tree):
    """(name, None) of each public top-level def or class, and (method, class) of each public method."""
    for node in tree.body:
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        if not public:
            continue
        yield node.name, None
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, node.name


def test_every_public_name_has_a_caller():
    reached, attributes = set(), set()
    for path in CALLERS:
        pairs, names = _reached(path, ast.parse(path.read_text(), filename=str(path)))
        reached |= pairs
        attributes |= names
    uncalled = [
        f"{path.stem}.{cls}.{name}" if cls else f"{path.stem}.{name}"
        for path in SOURCES
        for name, cls in _public_definitions(ast.parse(path.read_text(), filename=str(path)))
        if (name not in attributes if cls else (path.stem, name) not in reached)
    ]
    assert uncalled == [], f"public names with no caller outside the tests: {uncalled}"


def _unread_private_names(tree) -> list[str]:
    """The private top-level names (`_name`, dunders aside) that the module
    defines or assigns and that no expression of it reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in defined if name.startswith("_") and not name.endswith("__") and name not in read]


def test_every_private_name_is_read_by_its_module():
    sample = "_A = 1\n__all__ = []\ndef _f(): return _A\ndef _g(): pass"
    assert _unread_private_names(ast.parse(sample)) == ["_f", "_g"]
    unread = [f"{path.stem}.{name}" for path in SOURCES for name in _unread_private_names(ast.parse(path.read_text()))]
    assert unread == [], f"private top-level names that their own module never reads: {unread}"


def test_only_arith_packs_integers_into_bytes():
    offenders = []
    for path in SOURCES:
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "struct" for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} imports struct")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "struct":
                offenders.append(f"{path.name}:{node.lineno} imports from struct")
            elif isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                offenders.append(f"{path.name}:{node.lineno} uses .{node.attr}")
    assert offenders == [], f"slot packing outside arith: {offenders}"


def _unread_imports(tree) -> list[str]:
    """The names that the module's imports bind and that no expression of it
    reads (`from __future__` binds none)."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        f"{node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if name not in read
    ]


def test_every_import_is_read():
    assert _unread_imports(ast.parse("from math import sqrt\nfrom operator import itemgetter\nx = sqrt(2)")) == [
        "2: itemgetter"
    ]
    unread = [f"{path.name}:{at}" for path in SOURCES + TESTS for at in _unread_imports(ast.parse(path.read_text()))]
    assert unread == [], f"imported names that the module never reads: {unread}"
