"""Config parsing, run orchestration, verification suites, and limit sweeps.

Config files are flat ``key = value`` text, one key per physical or
numerical symbol, with '#' comments.  Each key is a field of one
parameter dataclass, which states its default and constraints; the
parser reports a violation with the line that caused it instead of a
bare traceback.

Exit code contract: 0 success, 1 unusable configuration, 2 run aborted
(blowup, vacuum, loss of stress positivity, or a summary quantity that is
not finite), 3 verification suite found a counterexample.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oldroyd2d import closure as cl
from oldroyd2d import diagnostics as dg
from oldroyd2d import symcalc as sc
from oldroyd2d.grid import (
    Grid2D,
    ParamError,
    SymTensorField2D,
    cell_sum,
    mollify_initial,
    require,
)
from oldroyd2d.integrate import (
    BlowupError,
    DegenerateStateError,
    StepConfig,
    run,
)
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
    load_state,
    save_state,
)
from oldroyd2d.symcalc import NotSPDError, SymMat2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_COUNTEREXAMPLE = 3

DEFAULT_SEED = 20260817
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


def _perturb_preset(state: SimState, cfg: RunConfig) -> None:
    """Turn the equilibrium state into a mollified preset's raw initial data."""
    x, y = cfg.grid.cell_centers()
    px, py = np.pi * x / cfg.grid.lx, np.pi * y / cfg.grid.ly
    amp, T = cfg.amp, state.T
    # Each perturbed component replaces its equilibrium array: writing into
    # the zero-filled arrays instead costs about 300 more page faults per
    # 256^2 setup.  sin^2 factors keep the velocity compatible with no-slip walls.
    state.u.x = amp * np.sin(px) ** 2 * np.sin(2.0 * py)
    if cfg.initial == "perturbed-equilibrium":
        state.rho.data = state.rho.data * (1.0 + amp * np.cos(px) * np.cos(py))
        state.eta.data = state.eta.data * (1.0 + 0.5 * amp * np.cos(px))
        state.u.y = -amp * np.sin(2.0 * px) * np.sin(py) ** 2
        T.xy = 0.1 * amp * T.xx * np.cos(px) * np.cos(py)
        T.xx = T.xx * (1.0 + 0.3 * amp * np.cos(py))
        T.yy = T.yy * (1.0 + 0.2 * amp * np.cos(px))


def build_initial(cfg: RunConfig) -> SimState:
    """Initial state for a config: preset construction plus mollification.

    The equilibrium preset is returned exactly (the mollifier's positivity
    shift would detune the stress from its relaxation target); the other
    presets are mollified at radius theta, which also lifts eta and the
    stress eigenvalues by theta.  file:<path> loads the state file a
    previous run wrote as its snapshot and uses it verbatim, time included.
    """
    if cfg.initial.startswith("file:"):
        path = cfg.initial[5:]
        try:
            return load_state(path)
        except OSError as err:
            raise ConfigError(f"cannot read snapshot {path}: {err}") from err
        except ValueError as err:
            raise ConfigError(f"malformed snapshot {path}: {err}") from err
    raw = equilibrium_state(cfg.grid, cfg.phys, cfg.reg,
                            rho_bar=cfg.rho_bar, eta_bar=cfg.eta_bar)
    if cfg.initial == "equilibrium":
        return raw
    _perturb_preset(raw, cfg)
    th = cfg.reg.theta
    return SimState(
        t=0.0,
        rho=mollify_initial(raw.rho, th),
        u=mollify_initial(raw.u, th),
        eta=mollify_initial(raw.eta, th),
        T=mollify_initial(raw.T, th),
    )


# ---------------------------------------------------------------------------
# run subcommand.


def _file_io(action: str, path, op: Callable):
    """op(path); an OSError becomes the ConfigError 'cannot <action> <path>: <reason>'."""
    try:
        return op(path)
    except OSError as err:
        raise ConfigError(f"cannot {action} {path}: {err}") from err


def _read_config(path) -> RunConfig:
    text = _file_io("read config", path, lambda p: Path(p).read_text(encoding="utf-8"))
    return parse_config(text)


def _check_output_dirs(cfg: RunConfig, keys: tuple[str, ...]) -> None:
    """Fail before any work when the directory of an output named by keys does not exist."""
    for key in keys:
        path = getattr(cfg, key)
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {key} {path}: no directory {Path(path).parent}")


def _exit_codes(cmd: Callable[..., int]) -> Callable[..., int]:
    """The subcommand cmd; a ConfigError exits 1, a run abort 2, each with one stderr line.

    Floating-point warnings are silenced: a non-finite value is reported
    by the abort or summary check it reaches, on that one line.
    """

    @functools.wraps(cmd)
    def wrapped(*args, **kwargs) -> int:
        try:
            with np.errstate(all="ignore"):
                return cmd(*args, **kwargs)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except (BlowupError, DegenerateStateError, NotSPDError) as err:
            print(f"run aborted: {err}", file=sys.stderr)
            return EXIT_RUNTIME

    return wrapped


def _row_summary(rows) -> dict:
    """residual_max and min_eig_final of a recorded run, as run and sweep print them."""
    return {
        # np.max, unlike max, lets a NaN in any row through
        "residual_max": float(np.max([row["residual"] for row in rows])),
        "min_eig_final": rows[-1]["min_eig"],
    }


def _non_finite(values: dict) -> list:
    """Names of the values that are not finite numbers."""
    return [name for name, value in values.items() if not math.isfinite(value)]


@_exit_codes
def cmd_run(config_path) -> int:
    cfg = _read_config(config_path)
    _check_output_dirs(cfg, ("csv", "snapshot"))
    initial = build_initial(cfg)
    rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
    result = run(initial, cfg.phys, cfg.reg, cfg.step,
                 diag_hooks=(rec.hook,))
    rows = rec.rows()
    if cfg.csv:
        _file_io("write csv", cfg.csv, lambda path: dg.write_timeseries(path, rows))
    if cfg.snapshot:
        _file_io("write snapshot", cfg.snapshot, lambda path: save_state(result.final, path))
    mass_drift, eta_drift = dg.conservation(result.final, initial)
    summary = {**_row_summary(rows), "mass_drift": mass_drift, "eta_drift": eta_drift}
    broken = _non_finite(summary)
    if broken:
        print(f"run aborted: {broken[0]} is not finite", file=sys.stderr)
        return EXIT_RUNTIME
    print("completed: steps={} t_final={:.17g} residual_max={:.6e} "
          "min_eig_final={:.6e} mass_drift={:.3e} eta_drift={:.3e} "
          "floor_hits={}".format(result.steps, result.final.t, *summary.values(),
                                 result.floor_hits))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand.  Each suite is a pure function of its seed; reports
# contain no timing or environment data so repeated seeds give identical
# bytes.


def _rand_spd(rng: np.random.Generator) -> SymMat2:
    lam1 = 10.0 ** rng.uniform(-3.0, 3.0)
    lam2 = 10.0 ** rng.uniform(-3.0, 3.0)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    c, s = math.cos(ang), math.sin(ang)
    return SymMat2(lam1 * c * c + lam2 * s * s,
                   (lam1 - lam2) * c * s,
                   lam1 * s * s + lam2 * c * c)


_SMOOTH_MODES = 3  # cosine modes per direction in the suites' random fields


def _smooth_random(grid: Grid2D, rng: np.random.Generator,
                   scale: float = 1.0) -> np.ndarray:
    x, y = grid.cell_centers()
    out = np.zeros((grid.nx, grid.ny))
    for kx in range(_SMOOTH_MODES + 1):
        for ky in range(_SMOOTH_MODES + 1):
            amp = scale * rng.normal() / (1.0 + kx * kx + ky * ky)
            phx, phy = rng.uniform(0.0, 2.0 * np.pi, size=2)
            out += amp * np.cos(kx * np.pi * x / grid.lx + phx) \
                       * np.cos(ky * np.pi * y / grid.ly + phy)
    return out


def _random_spd_field(grid: Grid2D, rng: np.random.Generator,
                      floor_scale: float = 1.0) -> SymTensorField2D:
    """Smooth SPD field with eigenvalues floor_scale * exp(smooth)."""
    g1 = floor_scale * np.exp(_smooth_random(grid, rng, scale=0.8))
    g2 = floor_scale * np.exp(_smooth_random(grid, rng, scale=0.8))
    ang = _smooth_random(grid, rng, scale=1.2)
    xx, xy, yy = sc.recombine_fields(g1, g2, np.cos(ang), np.sin(ang))
    return SymTensorField2D(grid, xx, xy, yy)


class _SuiteReport:
    """Pass counts and first failure per check, in the order the checks first run."""

    def __init__(self, name: str, seed: int):
        self.title = f"suite {name} seed {seed}"
        self.counts: dict[str, list[int]] = {}  # check -> [passed, evaluated]
        self.failures: dict[str, str] = {}  # check -> detail of its first failure

    def check(self, name: str, ok: bool, detail: Callable[[], str]) -> None:
        """Count one evaluation; detail() runs only on the check's first failure."""
        count = self.counts.setdefault(name, [0, 0])
        count[1] += 1
        if ok:
            count[0] += 1
        elif name not in self.failures:
            self.failures[name] = detail()

    def render(self) -> tuple[str, int]:
        """The counterexample is the first failed check, with its first failing detail."""
        lines = [self.title]
        lines += [f"{name}: {passed}/{total}" for name, (passed, total) in self.counts.items()]
        failed = [name for name in self.counts if name in self.failures]
        if failed:
            lines += ["result: FAIL", f"counterexample: {failed[0]}: {self.failures[failed[0]]}"]
        else:
            lines.append("result: PASS")
        return "\n".join(lines) + "\n", EXIT_COUNTEREXAMPLE if failed else EXIT_OK


# (check, phi, phi', kind) of the two trace inequality chains
_CHAINS = (("concave-chain", math.log, lambda s: 1.0 / s, "concave"),
           ("convex-chain", lambda s: s * s, lambda s: 2.0 * s, "convex"))


def _suite_matrix(seed: int) -> _SuiteReport:
    rep = _SuiteReport("matrix-inequalities", seed)
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        r = sc.scalar_log_ineq(a, b)
        rep.check("scalar-log", r.holds, lambda: f"a={a!r} b={b!r} lhs={r.lhs!r} rhs={r.rhs!r}")
        A, B = _rand_spd(rng), _rand_spd(rng)
        r = sc.matrix_log_diff_ineq(A, B)
        rep.check("matrix-log-diff", r.holds,
                  lambda: f"A={A!r} B={B!r} lhs={r.lhs!r} rhs={r.rhs!r}")
        for name, phi, dphi, kind in _CHAINS:
            ch = sc.convexity_trace_ineq(phi, dphi, kind, A, B)
            rep.check(name, ch.holds, lambda: f"A={A!r} B={B!r} left={ch.left!r} "
                                              f"mid={ch.mid!r} right={ch.right!r}")
        tl = sc.tr_log(A)
        ld = math.log(A.det())
        rep.check("trlog-logdet", abs(tl - ld) <= 1e-10 * (1.0 + abs(tl)),
                  lambda: f"A={A!r} tr_log={tl!r} log_det={ld!r}")
    return rep


def _suite_field(seed: int) -> _SuiteReport:
    rep = _SuiteReport("field-inequalities", seed)
    rng = np.random.default_rng(seed)
    grid = Grid2D(64, 64)
    sigma3 = 0.01
    for i in range(100):
        # half the draws dip below the cutoff so both branches are hit
        scale = 1.0 if i % 2 == 0 else 0.02
        T = _random_spd_field(grid, rng, floor_scale=scale)
        for name, r in (("log-grad-bound", dg.log_grad_bound(T)),
                        ("cutoff-log-grad-bound", dg.cutoff_log_grad_bound(T, sigma3))):
            rep.check(name, r.holds,
                      lambda: f"field #{i}: lhs={r.lhs!r} rhs={r.rhs!r} margin={r.margin!r}")
    # scalar-exponent family T = exp(s) I: the two sides coincide, so the
    # discrete ratio must sit within a factor 2 of equality
    s = 0.4 * _smooth_random(grid, rng, scale=1.0)
    e = np.exp(s)
    zero = np.zeros_like(e)
    T = SymTensorField2D(grid, e, zero, e)
    r = dg.log_grad_bound(T)
    ratio = r.rhs / r.lhs if r.lhs > 0.0 else 1.0
    rep.check("scalar-exponent-ratio", 0.5 <= ratio <= 2.0,
              lambda: f"lhs={r.lhs!r} rhs={r.rhs!r} ratio={ratio!r}")
    return rep


def _verify_run_config(nx: int, amp: float, alpha: float = 0.1) -> RunConfig:
    """Shared small perturbed run used by the runtime suites."""
    text = "\n".join([
        f"nx = {nx}", f"ny = {nx}",
        "muS = 0.1", "eps = 0.1",
        f"alpha = {alpha!r}",
        "initial = perturbed-equilibrium",
        f"amp = {amp!r}",
        "t_end = 0.3",
    ])
    return parse_config(text)


def _suite_conservation(seed: int) -> _SuiteReport:
    rep = _SuiteReport("conservation", seed)
    rng = np.random.default_rng(seed)
    cfg = _verify_run_config(32, amp=float(rng.uniform(0.03, 0.08)))
    initial = build_initial(cfg)
    result = run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=())
    mass_drift, eta_drift = dg.conservation(result.final, initial)
    for name, drift in (("mass-drift", mass_drift), ("eta-drift", eta_drift)):
        rep.check(name, abs(drift) <= 1e-11, lambda: f"relative drift {drift!r}")
    return rep


def _suite_closure(seed: int) -> _SuiteReport:
    rep = _SuiteReport("closure", seed)
    rng = np.random.default_rng(seed)
    phys = PhysParams(k=1.0, A0=1.0, lam=0.5)
    rate = float(rng.uniform(0.05, 0.15))
    r = cl.closure_compare(cl.GradU2.shear(rate), 1.0, phys,
                           t_end=5.0, nq=128)
    rep.check("shear", r.max_error <= 2e-2, lambda: f"rate={rate!r} max_error={r.max_error!r}")
    r = cl.closure_compare(cl.GradU2(), 1.0, phys, t_end=2.0, nq=64)
    rep.check("kappa-zero", r.max_error <= 1e-10, lambda: f"max_error={r.max_error!r}")
    omega = float(rng.uniform(0.1, 0.3))
    r = cl.closure_compare(cl.GradU2.rotation(omega), 1.0, phys,
                           t_end=3.0, nq=64)
    rep.check("rotation", r.max_error <= 5e-4,
              lambda: f"omega={omega!r} max_error={r.max_error!r}")
    return rep


def _suite_convergence(seed: int) -> _SuiteReport:
    rep = _SuiteReport("convergence", seed)
    rng = np.random.default_rng(seed)

    # step-size order on the uniform relaxation ODE (exact exponential)
    phys = PhysParams(muS=0.1, eps=0.1)
    reg = RegParams(alpha=0.1)
    grid = Grid2D(8, 8)
    base = equilibrium_state(grid, phys, reg)
    errs = []
    t_eq = float(base.T.xx[0, 0])
    rate = phys.A0 / (2.0 * phys.lam)
    t_end = 0.5
    exact = t_eq + (3.0 - t_eq) * math.exp(-rate * t_end)
    for dt in (2e-2, 1e-2):
        state = base.copy()
        state.T.xx[...] = 3.0
        state.T.yy[...] = 3.0
        cfg = StepConfig(dt=dt, t_end=t_end, diag_every=10 ** 9)
        out = run(state, phys, reg, cfg, diag_hooks=())
        errs.append(abs(float(out.final.T.xx[0, 0]) - exact))
    order_ratio = errs[0] / errs[1] if errs[1] > 0.0 else math.inf
    rep.check("dt-order", order_ratio >= 3.0, lambda: f"errors={errs!r} ratio={order_ratio!r}")

    # the two-sided energy budget gap shrinks under space-time refinement.
    # The one-sided residual is already zero whenever the scheme leans on
    # its numerical dissipation, so it cannot show convergence; and with
    # alpha > 0 the budget's log-gradient term is only a lower bound for
    # the true diffusive dissipation, so the gap is checked at alpha = 0
    # where the smooth-solution budget closes exactly.
    amp = float(rng.uniform(0.03, 0.08))
    gaps = []
    residuals = []
    for nx in (16, 32):
        cfg = _verify_run_config(nx, amp, alpha=0.0)
        initial = build_initial(cfg)
        rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
        run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=(rec.hook,))
        gaps.append(dg.energy_budget_gap(rec.reports))
        residuals.append(_row_summary(rec.rows())["residual_max"])
    rep.check("budget-gap-refinement",
              gaps[1] < 0.7 * gaps[0] and residuals[1] <= residuals[0],
              lambda: f"gaps={gaps!r} residuals={residuals!r}")
    return rep


_SUITE_FUNCS = {
    "matrix-inequalities": _suite_matrix,
    "field-inequalities": _suite_field,
    "conservation": _suite_conservation,
    "closure": _suite_closure,
    "convergence": _suite_convergence,
}
SUITES = tuple(_SUITE_FUNCS)


def verify_report(suite: str, seed: int = DEFAULT_SEED) -> tuple[str, int]:
    if suite not in _SUITE_FUNCS:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _SUITE_FUNCS[suite](seed).render()


@_exit_codes
def cmd_verify(suite: str, seed: int = DEFAULT_SEED) -> int:
    text, code = verify_report(suite, seed)
    sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# sweep subcommand.


def parse_values(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--values expects comma-separated numbers, "
                          f"got {text!r}") from None
    if not vals:
        raise ConfigError("--values is empty")
    if any(not math.isfinite(v) or v <= 0.0 for v in vals):
        raise ConfigError(f"sweep values must be positive, got {vals!r}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(
            f"sweep values must decrease strictly toward 0, got {vals!r}")
    return vals


def _alpha_variant(base: SimState, cfg: RunConfig, alpha: float):
    state = base.copy()
    state.T.xx[...] += alpha
    state.T.yy[...] += alpha
    return state, cfg.phys, replace(cfg.reg, alpha=alpha)


def _delta_scaled_eta(eta: np.ndarray, delta: float) -> np.ndarray:
    """Initial polymer density of a delta-sweep run."""
    return eta / (1.0 + delta ** 0.25 * np.sqrt(eta))


def _delta_variant(base: SimState, cfg: RunConfig, delta: float):
    state = base.copy()
    state.eta.data[...] = _delta_scaled_eta(base.eta.data, delta)
    return state, replace(cfg.phys, delta=delta), cfg.reg


def _field_distance(a: SimState, b: SimState) -> float:
    grid = a.rho.grid
    total = cell_sum(grid, (a.rho.data - b.rho.data) ** 2)
    total += cell_sum(grid, (a.u.x - b.u.x) ** 2 + (a.u.y - b.u.y) ** 2)
    total += cell_sum(grid, (a.eta.data - b.eta.data) ** 2)
    total += dg.stress_norms(SymTensorField2D(grid, a.T.xx - b.T.xx, a.T.xy - b.T.xy,
                                              a.T.yy - b.T.yy))[1]
    return math.sqrt(total)


@_exit_codes
def cmd_sweep(config_path, knob: str, values_text: str) -> int:
    cfg = _read_config(config_path)
    values = parse_values(values_text)
    if knob not in ("alpha", "delta"):
        raise ConfigError(f"unknown sweep knob {knob!r}")
    if cfg.step.dt is None:
        raise ConfigError(
            "sweep requires an explicit dt: auto step sizes differ "
            "across knob values and would confound the comparison")
    if knob == "delta" and cfg.phys.L == 0.0:
        raise ConfigError(
            "delta sweep requires L > 0: with L = 0 the polymer "
            "pressure vanishes entirely as delta -> 0")
    if knob == "alpha" and cfg.reg.sigma3 > 0.0 \
            and min(values) <= cfg.reg.sigma3:
        raise ConfigError(
            f"alpha sweep values must stay above sigma3 = "
            f"{cfg.reg.sigma3} (cutoff constraint sigma3 < min(alpha, "
            "theta))")
    _check_output_dirs(cfg, ("csv",))  # a sweep writes no snapshot
    if knob == "alpha":
        # the base state ignores the cutoff, which alpha = 0 would violate
        base = build_initial(
            replace(cfg, reg=replace(cfg.reg, alpha=0.0, sigma3=0.0)))
    else:
        base = build_initial(cfg)

    make = _alpha_variant if knob == "alpha" else _delta_variant
    bound_rows = []
    if knob == "delta":
        eta0_mass = cell_sum(base.eta.grid, base.eta.data)
        for v in values:
            lhs = v * cell_sum(base.eta.grid, _delta_scaled_eta(base.eta.data, v) ** 2)
            rhs = math.sqrt(v) * eta0_mass
            bound_rows.append((v, lhs, rhs))

    def one(v: float):
        state, phys, reg = make(base, cfg, v)
        rec = dg.TimeseriesRecorder(phys, reg)
        try:
            result = run(state, phys, reg, cfg.step, diag_hooks=(rec.hook,))
        except (BlowupError, DegenerateStateError, NotSPDError) as err:
            return v, None, None, str(err)
        return v, result, rec.rows(), None

    outcomes = [one(v) for v in values]

    failures = [(v, err) for v, _, _, err in outcomes if err is not None]
    if failures:
        for v, err in failures:
            print(f"{knob}={v!r}: run aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    summaries = [_row_summary(rows) for _, _, rows, _ in outcomes]
    pairs = list(zip(outcomes, outcomes[1:]))
    field_l2 = [_field_distance(ra.final, rb.final) for (_, ra, *_), (_, rb, *_) in pairs]
    broken = [(repr(v), name) for (v, *_), summary in zip(outcomes, summaries)
              for name in _non_finite(summary)]
    broken += [(f"{va!r}->{vb!r}", "field_l2")
               for ((va, *_), (vb, *_)), fdist in zip(pairs, field_l2)
               if not math.isfinite(fdist)]
    if broken:
        for label, name in broken:
            print(f"{knob}={label}: run aborted: {name} is not finite", file=sys.stderr)
        return EXIT_RUNTIME

    lines = [f"sweep knob={knob} values={','.join(repr(v) for v in values)} "
             f"t_end={cfg.step.t_end!r} dt={cfg.step.dt!r}"]
    for (v, result, _, _), summary in zip(outcomes, summaries):
        lines.append(
            "run {}={!r}: steps={} residual_max={!r} min_eig_final={!r}".format(
                knob, v, result.steps, *summary.values()))
    for v, lhs, rhs in bound_rows:
        ok = lhs <= rhs * (1.0 + 1e-12)
        lines.append(f"bound delta={v!r}: delta*l2_sq(eta0_delta)={lhs!r} "
                     f"<= sqrt(delta)*mass(eta0)={rhs!r} {'ok' if ok else 'VIOLATED'}")
    for ((va, _, rowa, _), (vb, _, rowb, _)), fdist in zip(pairs, field_l2):
        n = min(len(rowa), len(rowb))
        edist = max(abs(rowa[i]["E_total"] - rowb[i]["E_total"])
                    for i in range(n))
        lines.append(f"pair {knob}={va!r}->{vb!r}: field_l2={fdist!r} "
                     f"energy_dist={edist!r}")
    if len(field_l2) >= 2:
        dec = all(b < a for a, b in zip(field_l2, field_l2[1:]))
        lines.append(f"cauchy_decreasing: {'yes' if dec else 'no'}")
    else:
        lines.append("cauchy_decreasing: n/a")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.csv:
        _file_io("write csv", cfg.csv, lambda path: Path(path).write_bytes(text.encode("ascii")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oldroyd2d",
        description="2D compressible viscoelastic flow with stress diffusion")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate a configured run")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="run a seeded verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sw = sub.add_parser("sweep", help="rerun a config along a limit knob")
    p_sw.add_argument("config")
    p_sw.add_argument("--knob", required=True, choices=("alpha", "delta"))
    p_sw.add_argument("--values", required=True)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage errors
        # are configuration problems under this tool's exit contract
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "verify":
        return cmd_verify(args.suite, args.seed)
    return cmd_sweep(args.config, args.knob, args.values)


if __name__ == "__main__":
    sys.exit(main())
