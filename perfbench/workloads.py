"""The benchmark's workloads: inputs drawn from a seed, one operation, its gate.

Each workload puts a different layer of the solver under load;
BENCHMARK.json and README.md say which and why.  The solver only ever
sees the generated config text (or, for the oracle, the generated verify
seed).  The package must be importable before this module is imported;
run.py arranges that.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oldroyd2d import cli, closure, diagnostics, integrate

NAMES = ("rk2-128-diag", "imex-256-sigma2", "oracle")

SOLVER_ERRORS = ("BlowupError", "DegenerateStateError", "NotSPDError")
DRIFT_TOL = 1e-11
RESIDUAL_TOL = 5e-3
ORACLE_SUITES = ("closure", "matrix-inequalities")


def solver_errors() -> tuple:
    """The solver's failure exceptions, looked up where integrate exposes them."""
    return tuple(getattr(integrate, n) for n in SOLVER_ERRORS)


def state_digest(state) -> str:
    """sha256 over the final fields' bytes in a fixed order."""
    h = hashlib.sha256()
    for arr in (state.rho.data, state.u.x, state.u.y, state.eta.data,
                state.T.xx, state.T.xy, state.T.yy):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One operation's result.  ``checks`` maps gate name -> passed."""

    attempted: int
    failed: int
    digest: str = ""
    checks: dict = field(default_factory=dict)
    floor_hits: int = 0
    detail: str = ""


@contextlib.contextmanager
def _patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _drift_checks(result, initial) -> dict:
    mass, eta = diagnostics.conservation(result.final, initial)
    return {"mass_drift<=1e-11": mass <= DRIFT_TOL, "eta_drift<=1e-11": eta <= DRIFT_TOL}


def gate_rk2(result, initial, rows) -> dict:
    checks = _drift_checks(result, initial)
    checks["residual_max<=5e-3"] = max(r["residual"] for r in rows) <= RESIDUAL_TOL
    checks["min_eig>0_every_row"] = all(r["min_eig"] > 0.0 for r in rows)
    return checks


def gate_imex(result, initial, rows) -> dict:
    checks = _drift_checks(result, initial)
    checks["min_eig>0_final"] = rows[-1]["min_eig"] > 0.0
    s = result.final
    checks["fields_finite"] = all(
        bool(np.all(np.isfinite(a)))
        for a in (s.rho.data, s.u.x, s.u.y, s.eta.data, s.T.xx, s.T.xy, s.T.yy))
    return checks


class RunWorkload:
    """``run`` on a config: build the initial state, integrate, gate the result."""

    min_steps = 100

    def __init__(self, name, text, gate, setup_repeats):
        self.name = name
        self.text = text
        self.gate = gate
        self.setup_repeats = setup_repeats
        self.inputs = {"config": text}

    def setup(self):
        self.cfg = cli.parse_config(self.text)
        self.initial = cli.build_initial(self.cfg)

    def op(self) -> Outcome:
        cfg = self.cfg
        rec = diagnostics.TimeseriesRecorder(cfg.phys, cfg.reg)
        try:
            result = integrate.run(self.initial, cfg.phys, cfg.reg, cfg.step,
                                   diag_hooks=(rec.hook,))
        except solver_errors() as err:
            return Outcome(1, 1, detail=f"{type(err).__name__}: {err}")
        checks = self.gate(result, self.initial, rec.rows())
        return Outcome(1, 0 if all(checks.values()) else 1, state_digest(result.final),
                       checks, result.floor_hits)

    def step_clock(self, samples):
        """The only instrumentation of an untraced run: time each solver step."""
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                samples.append((clock() - t0) * 1e3)
                return out
            return timed

        return _patched(integrate, "step", make)


class OracleWorkload:
    """The closure and matrix-inequalities verify suites."""

    name = "oracle"
    setup_repeats = 5
    min_steps = 100

    def __init__(self, verify_seed: int, src: Path):
        self.verify_seed = verify_seed
        self.src = src
        self.inputs = {"suites": list(ORACLE_SUITES), "verify_seed": verify_seed}

    def setup(self):
        # The suites build their inputs themselves; what a user waits for
        # before either starts is a fresh interpreter importing the CLI.
        env = dict(os.environ, PYTHONPATH=str(self.src))
        subprocess.run([sys.executable, "-c", "import oldroyd2d.cli"],
                       env=env, check=True)

    def op(self) -> Outcome:
        """Both suites; a suite that raises a solver error counts as failed."""
        texts, checks, errors = [], {}, []
        for suite in ORACLE_SUITES:
            try:
                text, code = cli.verify_report(suite, self.verify_seed)
            except solver_errors() as err:
                text, code = "", None
                errors.append(f"{suite}: {type(err).__name__}: {err}")
            texts.append(text)
            checks[f"{suite}_exit_0"] = code == 0
        failed = sum(1 for ok in checks.values() if not ok)
        digest = "" if errors else hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
        return Outcome(len(ORACLE_SUITES), failed, digest, checks, detail="; ".join(errors))

    def step_clock(self, samples):
        """Interval between successive kinetic steps of one closure comparison.

        One interval covers a whole closure time step: fp_step,
        macro_moment_step, the boundary-mass check and any sampling.
        """
        clock = time.perf_counter
        last = [None]

        def make_step(fn):
            def timed(*args, **kwargs):
                now = clock()
                if last[0] is not None:
                    samples.append((now - last[0]) * 1e3)
                last[0] = now
                return fn(*args, **kwargs)
            return timed

        def make_compare(fn):
            def bounded(*args, **kwargs):
                last[0] = None
                try:
                    return fn(*args, **kwargs)
                finally:
                    last[0] = None
            return bounded

        stack = contextlib.ExitStack()
        stack.enter_context(_patched(closure, "fp_step", make_step))
        stack.enter_context(_patched(closure, "closure_compare", make_compare))
        return stack


def make(name: str, seed: int, src: Path, smoke: bool = False):
    """Workload ``name`` with inputs drawn from ``seed``.

    ``smoke`` shrinks the grids to 8^2 and the horizons to a few steps so
    the smoke test can exercise every code path quickly.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(seed)
    amp = rng.uniform(0.03, 0.08)
    verify_seed = rng.randrange(2 ** 31)
    if name == "oracle":
        wl = OracleWorkload(verify_seed, src)
    elif name == "rk2-128-diag":
        n, t_end = (8, 0.1) if smoke else (128, 0.018)
        wl = RunWorkload(name,
            f"nx = {n}\nny = {n}\nmuS = 0.05\neps = 0.05\nalpha = 0.1\n"
            f"initial = perturbed-equilibrium\namp = {amp!r}\n"
            f"t_end = {t_end!r}\ndiag_every = 1\n", gate_rk2, setup_repeats=5)
        wl.inputs["amp"] = amp
    else:
        n, t_end = (8, 0.05) if smoke else (256, 0.0084)
        wl = RunWorkload(name,
            f"nx = {n}\nny = {n}\nmuS = 0.01\neps = 0.05\nalpha = 0.1\n"
            f"sigma2 = 0.01\nscheme = imex\ninitial = shear-layer\namp = {amp!r}\n"
            f"t_end = {t_end!r}\ndiag_every = 1000000\n", gate_imex, setup_repeats=3)
        wl.inputs["amp"] = amp
    if smoke:
        wl.setup_repeats = 1
        wl.min_steps = 0
    return wl
