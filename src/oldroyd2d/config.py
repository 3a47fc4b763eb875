"""Run configuration: config text to RunConfig, and RunConfig to the initial state.

Config files are flat ``key = value`` text, one key per physical or
numerical symbol, with '#' comments.  Each key is a field of one
parameter dataclass, which states its default and constraints; the
parser reports a violation with the line that caused it instead of a
bare traceback.  build_initial turns a config into its initial state:
one of the PRESETS, or a snapshot file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from oldroyd2d.grid import Grid2D, ParamError, mollify_initial, require
from oldroyd2d.integrate import StepConfig
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
    load_state,
    state_from_components,
)

PRESETS = ("equilibrium", "perturbed-equilibrium", "shear-layer")


class ConfigError(ValueError):
    """Unusable configuration; the message carries the offending line."""


# ---------------------------------------------------------------------------
# Config keys.  One flat key per symbol; 'lambda' maps to PhysParams.lam.


@dataclass(frozen=True)
class RunConfig:
    grid: Optional[Grid2D]  # None for a file: initial, which takes the snapshot's grid
    phys: PhysParams
    reg: RegParams
    step: StepConfig
    initial: str = "equilibrium"
    rho_bar: float = 1.0
    eta_bar: float = 1.0
    amp: float = 0.05
    csv: str = ""
    snapshot: str = ""

    def __post_init__(self):
        require(self.initial in PRESETS
                or (self.initial.startswith("file:") and len(self.initial) > 5),
                f"initial = {self.initial!r} must be one of {', '.join(PRESETS)} "
                "or file:<path>", "initial")
        require(self.rho_bar > 0.0, f"rho_bar = {self.rho_bar} violates rho_bar > 0",
                "rho_bar")
        require(self.eta_bar > 0.0, f"eta_bar = {self.eta_bar} violates eta_bar > 0",
                "eta_bar")
        require(0.0 <= self.amp < 1.0,
                f"amp = {self.amp} violates 0 <= amp < 1 (relative perturbation "
                "sizes at or above 1 destroy positivity of the preset data)", "amp")
        mollified = self.grid is not None and self.initial != "equilibrium"
        cap = min(self.grid.lx, self.grid.ly) if mollified else math.inf
        require(self.reg.theta <= cap,
                f"theta = {self.reg.theta} violates theta <= min(lx, ly) = {cap} for "
                f"initial = {self.initial} (the mollifier must fit the domain)",
                "theta", "lx", "ly", "initial")


def _cast_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"expects a number, got {text!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"expects a finite number, got {text!r}")
    return val


def _cast_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expects an integer, got {text!r}") from None


def _cast_dt(text: str) -> Optional[float]:
    if text == "auto":
        return None
    return _cast_float(text)


# grid keys; a file: initial takes its grid from the snapshot instead
_GRID_KEYS = ("nx", "ny", "lx", "ly")
# config key -> (owner, field).  The owner states the field's type, default
# and constraints; a key left out of the config text takes the owner's
# default, except for _PARSER_DEFAULTS.
_KEY_TABLE: dict[str, tuple[type, str]] = {
    **{key: (Grid2D, key) for key in _GRID_KEYS},
    **{key: (PhysParams, key)
       for key in ("a", "gamma", "muS", "muB", "eps", "k", "L", "delta")},
    "lambda": (PhysParams, "lam"),
    "A0": (PhysParams, "A0"),
    **{key: (RegParams, key)
       for key in ("alpha", "sigma1", "Gamma", "sigma2", "sigma3", "theta")},
    **{key: (StepConfig, key)
       for key in ("dt", "t_end", "cfl", "scheme", "diag_every")},
    **{key: (RunConfig, key) for key in ("initial", "rho_bar", "eta_bar", "amp",
                                         "csv", "snapshot")},
}
# Grid2D has no default size; the baseline run is regularized with alpha = 0.1
_PARSER_DEFAULTS = {"nx": 64, "ny": 64, "alpha": 0.1}
# field annotation -> caster; the owners' modules postpone annotations, so
# each annotation is its source text
_CASTS = {"int": _cast_int, "float": _cast_float, "str": str, "Optional[float]": _cast_dt}
_CASTER = {key: _CASTS[owner.__annotations__[name]]
           for key, (owner, name) in _KEY_TABLE.items()}


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text; unknown keys and violations are errors."""
    lines_by_key: dict[str, int] = {}
    values = dict(_PARSER_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines_by_key:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {lines_by_key[key]})")
        try:
            values[key] = _CASTER[key](val)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: key {key!r} {err}") from None
        lines_by_key[key] = lineno

    def build(owner, **extra):
        """The owner built from its keys; a violation cites its latest line."""
        kwargs = {name: values[key] for key, (o, name) in _KEY_TABLE.items()
                  if o is owner and key in values}
        try:
            return owner(**kwargs, **extra)
        except ParamError as err:
            hits = [lines_by_key[k] for k in err.keys if k in lines_by_key]
            prefix = f"line {max(hits)}: " if hits else ""
            raise ConfigError(prefix + str(err)) from None

    grid = build(Grid2D)
    sections = {"phys": build(PhysParams), "reg": build(RegParams),
                "step": build(StepConfig)}
    from_file = values.get("initial", "").startswith("file:")
    cfg = build(RunConfig, grid=None if from_file else grid, **sections)
    for key in _GRID_KEYS:
        if from_file and key in lines_by_key:
            raise ConfigError(
                f"line {lines_by_key[key]}: {key} cannot be set with "
                f"initial = {cfg.initial}: the grid comes from the snapshot")
    return cfg


# ---------------------------------------------------------------------------
# Initial data.


def _perturb_preset(cfg: RunConfig) -> list:
    """A mollified preset's raw initial data: the equilibrium components, perturbed."""
    rho, ux, uy, eta, txx, txy, tyy = equilibrium_state(
        cfg.grid, cfg.phys, cfg.reg, rho_bar=cfg.rho_bar, eta_bar=cfg.eta_bar).components()
    x, y = cfg.grid.cell_centers()
    px, py = np.pi * x / cfg.grid.lx, np.pi * y / cfg.grid.ly
    amp = cfg.amp
    # Each perturbed component replaces its equilibrium array and frees it: writing
    # into the zero-filled arrays instead costs about 300 more page faults per 256^2
    # setup.  sin^2 factors keep the velocity compatible with no-slip walls.
    ux = amp * np.sin(px) ** 2 * np.sin(2.0 * py)
    if cfg.initial == "perturbed-equilibrium":
        rho = rho * (1.0 + amp * np.cos(px) * np.cos(py))
        eta = eta * (1.0 + 0.5 * amp * np.cos(px))
        uy = -amp * np.sin(2.0 * px) * np.sin(py) ** 2
        txy = 0.1 * amp * txx * np.cos(px) * np.cos(py)
        txx = txx * (1.0 + 0.3 * amp * np.cos(py))
        tyy = tyy * (1.0 + 0.2 * amp * np.cos(px))
    return [rho, ux, uy, eta, txx, txy, tyy]


def build_initial(cfg: RunConfig) -> SimState:
    """Initial state for a config: preset construction plus mollification.

    The equilibrium preset is returned exactly (the mollifier's positivity
    shift would detune the stress from its relaxation target); the other
    presets are mollified at radius theta, all seven components in one
    pass, and then the components in SimState.LIFTED are lifted by theta.
    file:<path> loads the state file a previous run wrote as its snapshot
    and uses it verbatim, time included.
    """
    if cfg.initial.startswith("file:"):
        path = cfg.initial[5:]
        try:
            return load_state(path)
        except OSError as err:
            raise ConfigError(f"cannot read snapshot {path}: {err}") from err
        except ValueError as err:
            raise ConfigError(f"malformed snapshot {path}: {err}") from err
    if cfg.initial == "equilibrium":
        return equilibrium_state(cfg.grid, cfg.phys, cfg.reg,
                                 rho_bar=cfg.rho_bar, eta_bar=cfg.eta_bar)
    th = cfg.reg.theta
    comps = mollify_initial(cfg.grid, _perturb_preset(cfg), th)
    for i in SimState.LIFTED:
        comps[i] += th
    return state_from_components(0.0, cfg.grid, *comps)
