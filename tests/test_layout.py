"""Layout guards over the AST of src/ and tests/.

Every function, class and method in src/ has a caller there.  A
definition counts as used when a name or attribute of that spelling is
read in src/oldroyd2d or perfbench/*.py outside the definition's own
body, and the code holding that reference is itself used (module-level
code always is).  For a module-level function an attribute read x.name
counts only when x is bound by an import to the module defining it, so a
method of the same spelling (EigenPair2.tr_log) cannot keep an unused
function alive.  Names listed in oldroyd2d.__all__ count as used.  The
scan iterates to a fixed point, so helpers that only unused definitions
call are reported too.  Dunder methods are called by Python itself and
count as used whenever their class is.  Code only the tests need
belongs in tests/.

No line in src/oldroyd2d is longer than MAX_LINE characters, so a line
count of src/ cannot drop by joining lines.

No module in src/oldroyd2d imports scipy: numpy is the only runtime
dependency, and scipy serves the tests' reference routes alone.

symcalc.eig_fields is the only function in src/ that calls hypot, so the
package holds one eigendecomposition: the solver's tr log T and cutoff chi
and the matrix-inequalities suite all run it.

The field classes are named component bundles that live in model.py, the
only module in src/ that names them: model.state_from_components is the
only place that builds one, and each holds only its component arrays, with
no grid, ghost rule, __post_init__ or method.  SimState.components() is the
only reader of a state's fields and of their arrays; every other function
in src/ unpacks that tuple, and so does every test.
"""

import ast
from dataclasses import fields
from pathlib import Path

import oldroyd2d
from oldroyd2d.model import ScalarField2D, SimState, SymTensorField2D, VectorField2D

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oldroyd2d"
BENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

MAX_LINE = 99

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_bindings(tree) -> dict:
    """Local name -> package module stem, for each import that binds a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "oldroyd2d"):
            # from . import grid as g2, from oldroyd2d import cli
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound


def _scan(path: Path, defs: list, refs: dict, owned: bool) -> None:
    """Collect the definitions of an owned file and the references of any file.

    A definition is (label, name, index of the enclosing definition or None,
    the file's module stem if it is a module-level function else None).
    A reference is recorded under its name as (index of the innermost owned
    definition around it or None, module), where module is None for a bare
    name and, for an attribute read x.name, the module stem x is bound to by
    an import, or "" when x is anything else.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = _module_bindings(tree)

    def visit(node, owner):
        if owned and isinstance(node, _DEFS):
            stem = path.stem if owner is None and isinstance(node, _FUNCS) else None
            defs.append((f"{path.name}:{node.lineno} {node.name}", node.name, owner, stem))
            owner = len(defs) - 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append((owner, None))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = bound.get(node.value.id, "") if isinstance(node.value, ast.Name) else ""
            refs.setdefault(node.attr, []).append((owner, base))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)


def unused_definitions() -> list[str]:
    defs: list = []  # (label, name, enclosing definition, module stem of a module-level function)
    refs: dict = {}  # name -> [(innermost enclosing definition, module of an attribute base)]
    for path in sorted(PACKAGE.glob("*.py")):
        _scan(path, defs, refs, owned=True)
    for path in sorted(BENCH.glob("*.py")):
        _scan(path, defs, refs, owned=False)

    def ancestors(index):
        while index is not None:
            yield index
            index = defs[index][2]

    def reaches(stem, module):
        # a module-level function is reached by its bare name or through its module
        return stem is None or module is None or module == stem

    live: set = set()
    exported = set(oldroyd2d.__all__)
    changed = True
    while changed:
        changed = False
        for i, (_, name, owner, stem) in enumerate(defs):
            if i in live:
                continue
            if name.startswith("__") and name.endswith("__"):
                used = owner is None or owner in live
            else:
                used = name in exported or any(
                    (where is None or where in live) and i not in ancestors(where)
                    and reaches(stem, module)
                    for where, module in refs.get(name, ()))
            if used:
                live.add(i)
                changed = True
    return [label for i, (label, _, _, _) in enumerate(defs) if i not in live]


def test_every_definition_in_src_is_used_by_src():
    assert unused_definitions() == []


def field_constructions() -> list[str]:
    """Each *Field2D(...) call in src/ outside model.state_from_components."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, func):
            if isinstance(node, _FUNCS):
                func = node.name
            elif isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", "")
                if name.endswith("Field2D") and \
                        (path.name, func) != ("model.py", "state_from_components"):
                    found.append(f"{path.name}:{node.lineno} {name}(...) in {func}")
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_fields_are_built_only_by_state_from_components():
    assert field_constructions() == []


def field_class_names() -> list[str]:
    """Each *Field2D class, import or name in src/ outside model.py."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                name = node.name
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = getattr(node, "id", None) or node.attr
            else:
                continue
            if name.endswith("Field2D"):
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_field_classes_hold_only_component_arrays():
    assert field_class_names() == []
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name.endswith("Field2D")]
    assert sorted(c.name for c in classes) == [
        "ScalarField2D", "SymTensorField2D", "VectorField2D"]
    for cls in classes:
        for stmt in cls.body:
            docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            assert docstring or isinstance(stmt, ast.AnnAssign), (cls.name, stmt.lineno)
            if isinstance(stmt, ast.AnnAssign):
                assert stmt.target.id != "grid", cls.name
                # a ClassVar, such as a ghost rule, or a default is not a component array
                assert ast.unparse(stmt.annotation) == "np.ndarray", (cls.name, stmt.lineno)
                assert stmt.value is None, (cls.name, stmt.lineno)


# SimState's fields (rho, u, eta, T) and the fields' arrays (data, x, y, xx, xy, yy)
FIELD_ATTRIBUTES = frozenset(
    [f.name for f in fields(SimState) if f.type.endswith("Field2D")]
    + [f.name for cls in (ScalarField2D, VectorField2D, SymTensorField2D) for f in fields(cls)])
FIELD_READERS = {("model.py", "components"), ("model.py", "state_from_components")}


def field_attribute_uses() -> list[str]:
    """Each read or write of a FIELD_ATTRIBUTES attribute in src/ outside FIELD_READERS.

    Only modules that name SimState are scanned: closure.py and symcalc.py
    hold no state, and their .xx, .xy and .yy are those of GradU2 and SymMat2,
    their .T numpy's transpose.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if not any(isinstance(node, ast.Name) and node.id == "SimState"
                   for node in ast.walk(tree)):
            continue

        def visit(node, func):
            if isinstance(node, _FUNCS):
                func = node.name
            elif isinstance(node, ast.Attribute) and node.attr in FIELD_ATTRIBUTES and \
                    (path.name, func) not in FIELD_READERS:
                found.append(f"{path.name}:{node.lineno} .{node.attr} in {func}")
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_fields_are_read_only_through_components():
    assert FIELD_ATTRIBUTES == {"rho", "u", "eta", "T", "data", "x", "y", "xx", "xy", "yy"}
    assert field_attribute_uses() == []


# A state's field followed by one of its arrays, and the fields that a bare
# read names.  A bare .T is not listed: numpy's transpose has that spelling.
STORAGE_CHAINS = frozenset([("rho", "data"), ("eta", "data"), ("u", "x"), ("u", "y"),
                            ("T", "xx"), ("T", "xy"), ("T", "yy")])
STORAGE_FIELDS = frozenset(["rho", "eta", "u"])


def storage_reads_in_tests() -> list[str]:
    """Each line of tests/*.py that reaches into a state's fields past components()."""
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value.attr if isinstance(node.value, ast.Attribute) else None
            if (base, node.attr) in STORAGE_CHAINS or node.attr in STORAGE_FIELDS:
                found.add((path.name, node.lineno))
    return [f"{name}:{lineno}" for name, lineno in sorted(found)]


def test_tests_read_states_only_through_components():
    assert storage_reads_in_tests() == []


def test_no_line_in_src_is_longer_than_max_line():
    long = [f"{path.name}:{lineno} has {len(line)} characters"
            for path in sorted(PACKAGE.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def scipy_imports() -> list[str]:
    """Each import statement in src/ that names scipy or one of its submodules."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    return found


def test_no_module_in_src_imports_scipy():
    assert scipy_imports() == []


def hypot_callers() -> list[str]:
    """module.function of each function in src/ that calls hypot, as math.hypot, np.hypot or bare."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, func):
            if isinstance(node, _FUNCS):
                func = node.name
            elif isinstance(node, ast.Call):
                callee = node.func
                if (getattr(callee, "id", None) or getattr(callee, "attr", None)) == "hypot":
                    found.append(f"{path.stem}.{func}")
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_only_eig_fields_calls_hypot():
    assert hypot_callers() == ["symcalc.eig_fields"]
