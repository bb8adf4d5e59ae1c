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

Every name of code that README.md gives in backticks exists: a
`module.name` or `Class.name` of src/divconv, a file, or a snake_case name
defined in src/divconv or tests/reference.py.
"""

import ast
import re
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


# backticked README words in the shape of a snake_case name that name no code: math symbols
README_SYMBOLS = {"a_m", "b_j", "r_d"}


def _definitions(path: Path) -> tuple[set[str], dict[str, set[str]]]:
    """(every name that the file defines: functions, classes, methods,
    assigned names, class fields and the string keys of dict literals, which
    are the JSON keys the commands write; {scope: names defined at its top
    level} for the module, by its stem, and for each class)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, scopes = set(), {}
    classes = [(node.name, node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope, body in [(path.stem, tree.body), *classes]:
        scopes[scope] = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scopes[scope].add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                scopes[scope] |= {target.id for target in targets if isinstance(target, ast.Name)}
        names |= scopes[scope]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Dict):
            names |= {key.value for key in node.keys if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    return names, scopes


def _unknown_readme_names(text: str, names: set[str], scopes: dict[str, set[str]]) -> list[str]:
    """The backticked spans outside code blocks that name code that does not
    exist: `scope.name` or `scope.name(...)` with scope a divconv module or
    class, `divconv.m` with no module m, a file `stem.py` or `stem.json`
    found neither at the root of the repository nor in a folder of code,
    and a snake_case `name` or `name(...)` that no file defines."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    unknown = []
    for span in re.findall(r"`([^`]+)`", text):
        if not (match := re.fullmatch(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?", span, flags=re.S)):
            continue
        scope, name = match.groups()
        if name in ("py", "json"):
            known = any((ROOT / folder / span).exists() for folder in ("", "src/divconv", "tests", "perfbench"))
        elif scope == "divconv":
            known = name in {path.stem for path in SOURCES}
        elif scope is not None:
            known = scope not in scopes or name in scopes[scope]
        else:
            known = not re.fullmatch(r"_?[a-z][a-z0-9]*(_[A-Za-z0-9]+)+", name) or name in names | README_SYMBOLS
        if not known:
            unknown.append(span)
    return unknown


def test_readme_names_only_what_exists():
    names, scopes = set(), {}
    for path in SOURCES + [ROOT / "tests" / "reference.py"]:
        defined, scoped = _definitions(path)
        names |= defined
        scopes |= scoped
    sample = "`eta.gone` `eta.walk_eta_quotients` `divconv.nothing` `gone.py` `eta.py` `gone_name(n)` `r_d`"
    sample += "\n```\n`gone_too`\n```"
    assert _unknown_readme_names(sample, names, scopes) == ["eta.gone", "divconv.nothing", "gone.py", "gone_name(n)"]
    unknown = _unknown_readme_names((ROOT / "README.md").read_text(), names, scopes)
    assert unknown == [], f"README.md names code that does not exist: {unknown}"
