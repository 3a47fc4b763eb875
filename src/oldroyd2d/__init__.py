"""2D compressible Oldroyd-B flow with stress diffusion.

Submodules cover the closed-form symmetric 2x2 matrix calculus, the
structured-grid field operators, the regularized model right-hand sides,
explicit time integration, energy/positivity diagnostics, a kinetic
Fokker-Planck oracle for the macroscopic closure, the config text format
and initial data (``oldroyd2d.config``), and the command line front end
(``oldroyd2d.cli``, run as ``python -m oldroyd2d``).
"""

from oldroyd2d.symcalc import NotSPDError, SymMat2
from oldroyd2d.grid import Grid2D
from oldroyd2d.model import PhysParams, RegParams, SimState, equilibrium_state
from oldroyd2d.integrate import (
    BlowupError,
    DegenerateStateError,
    RunResult,
    StepConfig,
    auto_dt,
    run,
    step,
)
from oldroyd2d.diagnostics import (
    EnergyReport,
    TimeseriesRecorder,
    conservation,
    energy,
    energy_budget_gap,
    spd_monitor,
)
from oldroyd2d.closure import GradU2, closure_compare

__all__ = [
    "SymMat2",
    "NotSPDError",
    "Grid2D",
    "PhysParams",
    "RegParams",
    "SimState",
    "equilibrium_state",
    "StepConfig",
    "RunResult",
    "BlowupError",
    "DegenerateStateError",
    "auto_dt",
    "step",
    "run",
    "EnergyReport",
    "TimeseriesRecorder",
    "energy",
    "energy_budget_gap",
    "conservation",
    "spd_monitor",
    "GradU2",
    "closure_compare",
]

__version__ = "0.1.0"
