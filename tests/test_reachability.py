"""Reachability guard: the run command enters every function in grid, model and integrate.

test_layout.py reports definitions that nothing in src/ names, but a name
shared with another definition (a field's copy() and ndarray.copy, say)
hides an unused one from that scan.  This test runs five small configs
through cli.main(["run", ...]), and one config that breaks a parameter
constraint, under sys.setprofile, and requires that every function and
method written in grid.py, model.py and integrate.py was entered.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from oldroyd2d import cli, grid, integrate, model

MODULES = (grid, model, integrate)


def defined(module) -> set:
    """(module name, qualified name) of each function and method in module's source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add((module.__name__, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def configs(tmp_path) -> list:
    """Config texts at 8^2, each a few steps long, covering the run paths."""
    base = "nx = 8\nny = 8\nmuS = 0.1\neps = 0.1\nalpha = 0.1\n"
    snap = tmp_path / "snap"
    return [
        base + "initial = perturbed-equilibrium\nt_end = 0.01\n"
        f"csv = {tmp_path}/series.csv\nsnapshot = {snap}\n",
        f"initial = file:{snap}\nmuS = 0.1\neps = 0.1\nt_end = 0.005\n",
        base + "scheme = imex\nsigma2 = 0.01\ninitial = shear-layer\nt_end = 0.01\n",
        base + "sigma1 = 0.01\nsigma3 = 0.05\nmuB = 0.05\ndelta = 0.5\n"
        "initial = perturbed-equilibrium\nt_end = 0.01\n",
        "nx = 8\nny = 8\ndt = 0.001\nt_end = 0.003\n",
    ]


def test_run_command_enters_every_function(tmp_path):
    watched = {m.__name__ for m in MODULES}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_globals.get("__name__")
            if name in watched:
                entered.add((name, frame.f_code.co_qualname))

    codes = []
    texts = configs(tmp_path) + ["nx = 2\n"]  # nx < 4 raises ParamError
    sys.setprofile(profile)
    try:
        for i, text in enumerate(texts):
            path = tmp_path / f"run{i}.cfg"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(["run", str(path)]))
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0, 0, 1]
    missing = sorted(set().union(*map(defined, MODULES)) - entered)
    assert missing == []
