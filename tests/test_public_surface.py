"""No public name in ``src/`` exists only for the tests.

Parses ``src/``, ``benchmarks/`` and ``examples/`` with :mod:`ast` and fails
on any public top-level ``def`` or ``class`` in ``src/`` that has no
reference outside its own definition.  A reference is a name, an attribute
or an imported name; package ``__init__`` re-exports (its imports and
``__all__``) are not references, and ``tests/`` is not read at all.  The
scan peels to a fixpoint: a name whose only references come from dead
definitions is dead too.  Names are matched by spelling, so a dead function
that shares its name with a live attribute goes unseen: the scan can miss a
dead name but never flags a live one.

A name that only a test needs belongs in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

# The user-facing API: the package's ``__all__`` and the shell's entry point.
ALLOWLIST = frozenset(
    {(obj.__module__, name) for name in repro.__all__ if isinstance(obj := getattr(repro, name), type)}
    | {("repro.shell", "main")}
)

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    names = set()
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Name:
            names.add(node.id)
        elif kind is ast.Attribute:
            names.add(node.attr)
        elif kind is ast.ImportFrom:
            names.update(alias.name for alias in node.names)
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list):
                stack.extend(item for item in value if isinstance(item, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append(value)
    return names


def _is_reexport(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


def _scan(src: Path = SRC, caller_dirs=CALLER_DIRS):
    """Return ``(definitions, references)``.

    ``definitions`` maps each top-level ``(module, name)`` in ``src``,
    private ones included, to its line; ``references`` is a list of
    ``(owner, names)`` where ``owner`` is the enclosing definition or
    ``None`` for module-level code (a root).
    """
    definitions: dict[tuple[str, str], int] = {}
    references: list[tuple[tuple[str, str] | None, set[str]]] = []
    files = [(path, True) for path in sorted(src.rglob("*.py"))]
    for directory in caller_dirs:
        files += [(path, False) for path in sorted(directory.rglob("*.py"))]
    for path, in_src in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        is_init = path.name == "__init__.py"
        for stmt in tree.body:
            if in_src and isinstance(stmt, _DEFINITIONS):
                owner = (_module_name(path, src), stmt.name)
                definitions[owner] = stmt.lineno
                references.append((owner, _names_in(stmt)))
            elif not (is_init and _is_reexport(stmt)):
                references.append((None, _names_in(stmt)))
    return definitions, references


def unreached_names(definitions, references, allowlist=ALLOWLIST) -> list[str]:
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in definitions:
        by_name.setdefault(key[1], []).append(key)
    live = set(definitions)
    # Peel to a fixpoint: a definition whose only references come from
    # definitions already found dead is dead too.
    while True:
        referenced = set(allowlist)
        for owner, names in references:
            if owner is None or owner in live:
                for name in names & by_name.keys():
                    referenced.update(key for key in by_name[name] if key != owner)
        if referenced >= live:
            return sorted(
                f"{module}.{name} (line {line})"
                for (module, name), line in definitions.items()
                if not name.startswith("_") and (module, name) not in live
            )
        live &= referenced


def test_every_public_name_in_src_has_a_caller():
    definitions, references = _scan()
    assert ALLOWLIST <= definitions.keys(), "an allowlisted name is no longer defined"
    unreached = unreached_names(definitions, references)
    assert not unreached, (
        "public top-level names in src/ with no caller in src/, benchmarks/ or "
        "examples/ (delete them, or move a test-only reference to "
        "tests/oracles.py):\n  " + "\n  ".join(unreached)
    )


# ----------------------------------------------------------------------
# The scan itself, on small trees whose dead names are known.


def _tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _unreached_in(root: Path, files: dict[str, str], allowlist=frozenset()) -> list[str]:
    _tree(root, files)
    definitions, references = _scan(root / "src", (root / "examples",))
    return [entry.split(" (")[0] for entry in unreached_names(definitions, references, allowlist)]


def test_scan_peels_names_only_dead_code_calls(tmp_path):
    files = {
        "src/pkg/mod.py": "def helper():\n    pass\n\ndef wrapper():\n    return helper()\n",
        "examples/demo.py": "",
    }
    assert _unreached_in(tmp_path, files) == ["pkg.mod.helper", "pkg.mod.wrapper"]


def test_scan_ignores_package_reexports(tmp_path):
    files = {
        "src/pkg/__init__.py": 'from pkg.mod import thing\n\n__all__ = ["thing"]\n',
        "src/pkg/mod.py": "def thing():\n    pass\n",
        "examples/demo.py": "",
    }
    assert _unreached_in(tmp_path, files) == ["pkg.mod.thing"]


def test_scan_counts_callers_outside_src(tmp_path):
    files = {
        "src/pkg/mod.py": "def thing():\n    pass\n\ndef unused():\n    pass\n",
        "examples/demo.py": "from pkg.mod import thing\n\nthing()\n",
    }
    assert _unreached_in(tmp_path, files) == ["pkg.mod.unused"]


def test_scan_does_not_count_self_reference(tmp_path):
    files = {
        "src/pkg/mod.py": "def walk(n):\n    return walk(n - 1) if n else 0\n",
        "examples/demo.py": "",
    }
    assert _unreached_in(tmp_path, files) == ["pkg.mod.walk"]


def test_scan_counts_module_level_code_as_a_root(tmp_path):
    files = {
        "src/pkg/mod.py": "def thing():\n    pass\n\nREGISTRY = {'thing': thing}\n",
        "examples/demo.py": "",
    }
    assert _unreached_in(tmp_path, files) == []


def test_scan_keeps_allowlisted_names_and_their_callees(tmp_path):
    files = {
        "src/pkg/api.py": (
            "def helper():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class Api:\n    def run(self):\n        return helper()\n"
        ),
        "examples/demo.py": "",
    }
    assert _unreached_in(tmp_path, files) == ["pkg.api.Api", "pkg.api.helper"]
    assert _unreached_in(tmp_path, files, frozenset({("pkg.api", "Api")})) == []
