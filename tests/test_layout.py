"""Layout guard: every function, class and method in src/ has a caller there.

A definition counts as used when a name or attribute of that spelling is
read in src/oldroyd2d or perfbench/*.py outside the definition's own
body, and the code holding that reference is itself used (module-level
code always is).  Names listed in oldroyd2d.__all__ count as used.  The
scan iterates to a fixed point, so helpers that only unused definitions
call are reported too.  Dunder methods are called by Python itself and
count as used whenever their class is.  Code only the tests need
belongs in tests/.
"""

import ast
from pathlib import Path

import oldroyd2d

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oldroyd2d"
BENCH = ROOT / "perfbench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(path: Path, defs: list, refs: dict, owned: bool) -> None:
    """Collect the definitions of an owned file and the references of any file.

    A reference is recorded under its name with the index of the innermost
    owned definition around it, or None at module level and in unowned files.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, owner):
        if owned and isinstance(node, _DEFS):
            defs.append((f"{path.name}:{node.lineno} {node.name}", node.name, owner))
            owner = len(defs) - 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append(owner)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.attr, []).append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)


def unused_definitions() -> list[str]:
    defs: list = []  # (label, name, index of the enclosing definition or None)
    refs: dict = {}  # name -> [index of the innermost enclosing definition or None]
    for path in sorted(PACKAGE.glob("*.py")):
        _scan(path, defs, refs, owned=True)
    for path in sorted(BENCH.glob("*.py")):
        _scan(path, defs, refs, owned=False)

    def ancestors(index):
        while index is not None:
            yield index
            index = defs[index][2]

    live: set = set()
    exported = set(oldroyd2d.__all__)
    changed = True
    while changed:
        changed = False
        for i, (_, name, owner) in enumerate(defs):
            if i in live:
                continue
            if name.startswith("__") and name.endswith("__"):
                used = owner is None or owner in live
            else:
                used = name in exported or any(
                    (where is None or where in live) and i not in ancestors(where)
                    for where in refs.get(name, ()))
            if used:
                live.add(i)
                changed = True
    return [label for i, (label, _, _) in enumerate(defs) if i not in live]


def test_every_definition_in_src_is_used_by_src():
    assert unused_definitions() == []
