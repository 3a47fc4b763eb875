"""Config parsing, run orchestration, verification suites, and limit sweeps.

Config files are flat ``key = value`` text, one key per physical or
numerical symbol, with '#' comments.  Every constraint on the parameter
dataclasses is re-checked at parse time so violations are reported with
the line that caused them instead of a bare traceback.

Exit code contract: 0 success, 1 unusable configuration, 2 run aborted
(blowup, vacuum, or loss of stress positivity), 3 verification suite
found a counterexample.
"""

from __future__ import annotations

import argparse
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
    ScalarField2D,
    SymTensorField2D,
    VectorField2D,
    cell_sum,
    load_snapshot,
    mollify_initial,
    save_snapshot,
)
from oldroyd2d.integrate import (
    BlowupError,
    DegenerateStateError,
    RunResult,
    StepConfig,
    run,
)
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
)
from oldroyd2d.symcalc import NotSPDError, SymMat2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_COUNTEREXAMPLE = 3

DEFAULT_SEED = 20260817
PRESETS = ("equilibrium", "perturbed-equilibrium", "shear-layer")
SUITES = (
    "matrix-inequalities",
    "field-inequalities",
    "conservation",
    "closure",
    "convergence",
)

# state attribute -> field kind; each is saved to <prefix>.<attribute>.snap
_SNAPSHOT_KINDS = {"rho": ScalarField2D, "u": VectorField2D,
                   "eta": ScalarField2D, "T": SymTensorField2D}


class ConfigError(ValueError):
    """Unusable configuration; the message carries the offending line."""


# ---------------------------------------------------------------------------
# Config keys.  One flat key per symbol; 'lambda' maps to PhysParams.lam.


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


def _cast_str(text: str) -> str:
    return text


# (caster, default) in serialization order; defaults describe an
# equilibrium run with the baseline regularization alpha = 0.1.
_KEY_TABLE: dict[str, tuple[Callable, object]] = {
    "nx": (_cast_int, 64),
    "ny": (_cast_int, 64),
    "lx": (_cast_float, 1.0),
    "ly": (_cast_float, 1.0),
    "a": (_cast_float, 1.0),
    "gamma": (_cast_float, 2.0),
    "muS": (_cast_float, 1.0),
    "muB": (_cast_float, 0.0),
    "eps": (_cast_float, 1.0),
    "k": (_cast_float, 1.0),
    "L": (_cast_float, 1.0),
    "delta": (_cast_float, 0.0),
    "lambda": (_cast_float, 1.0),
    "A0": (_cast_float, 1.0),
    "alpha": (_cast_float, 0.1),
    "sigma1": (_cast_float, 0.0),
    "Gamma": (_cast_float, 4.0),
    "sigma2": (_cast_float, 0.0),
    "sigma3": (_cast_float, 0.0),
    "theta": (_cast_float, 0.1),
    "dt": (_cast_dt, None),
    "t_end": (_cast_float, 1.0),
    "cfl": (_cast_float, 0.4),
    "scheme": (_cast_str, "rk2"),
    "diag_every": (_cast_int, 1),
    "initial": (_cast_str, "equilibrium"),
    "rho_bar": (_cast_float, 1.0),
    "eta_bar": (_cast_float, 1.0),
    "amp": (_cast_float, 0.05),
    "csv": (_cast_str, ""),
    "snapshot": (_cast_str, ""),
    "seed": (_cast_int, DEFAULT_SEED),
}

# grid keys; a file: initial takes its grid from the snapshots instead
_GRID_KEYS = ("nx", "ny", "lx", "ly")


@dataclass(frozen=True)
class RunConfig:
    nx: Optional[int]  # the grid keys are None for a file: initial
    ny: Optional[int]
    lx: Optional[float]
    ly: Optional[float]
    phys: PhysParams
    reg: RegParams
    step: StepConfig
    initial: str
    rho_bar: float
    eta_bar: float
    amp: float
    csv: str
    snapshot: str
    seed: int


def _constraint_checks(v: dict) -> list[tuple[bool, tuple[str, ...], str]]:
    """(violated, involved keys, message) triples covering every contract."""
    sig3 = v["sigma3"]
    return [
        (v["nx"] < 4, ("nx",), f"nx = {v['nx']} violates nx >= 4"),
        (v["ny"] < 4, ("ny",), f"ny = {v['ny']} violates ny >= 4"),
        (v["lx"] <= 0.0, ("lx",), f"lx = {v['lx']} violates lx > 0"),
        (v["ly"] <= 0.0, ("ly",), f"ly = {v['ly']} violates ly > 0"),
        (v["a"] <= 0.0, ("a",),
         f"a = {v['a']} violates a > 0 (pressure coefficient)"),
        (v["gamma"] <= 1.0, ("gamma",),
         f"gamma = {v['gamma']} violates gamma > 1 (adiabatic exponent)"),
        (v["muS"] <= 0.0, ("muS",),
         f"muS = {v['muS']} violates muS > 0 (shear viscosity)"),
        (v["muB"] < 0.0, ("muB",),
         f"muB = {v['muB']} violates muB >= 0 (bulk viscosity)"),
        (v["eps"] <= 0.0, ("eps",),
         f"eps = {v['eps']} violates eps > 0 (stress diffusion)"),
        (v["k"] <= 0.0, ("k",), f"k = {v['k']} violates k > 0"),
        (v["L"] < 0.0, ("L",), f"L = {v['L']} violates L >= 0"),
        (v["delta"] < 0.0, ("delta",),
         f"delta = {v['delta']} violates delta >= 0"),
        (v["L"] + v["delta"] == 0.0, ("L", "delta"),
         "L and delta cannot both vanish (the polymer pressure needs at "
         "least one of them)"),
        (v["lambda"] <= 0.0, ("lambda",),
         f"lambda = {v['lambda']} violates lambda > 0 (relaxation time)"),
        (v["A0"] <= 0.0, ("A0",), f"A0 = {v['A0']} violates A0 > 0"),
        (v["alpha"] < 0.0, ("alpha",),
         f"alpha = {v['alpha']} violates alpha >= 0"),
        (v["sigma1"] < 0.0, ("sigma1",),
         f"sigma1 = {v['sigma1']} violates sigma1 >= 0"),
        (v["sigma2"] < 0.0, ("sigma2",),
         f"sigma2 = {v['sigma2']} violates sigma2 >= 0"),
        (sig3 < 0.0, ("sigma3",), f"sigma3 = {sig3} violates sigma3 >= 0"),
        (v["theta"] <= 0.0, ("theta",),
         f"theta = {v['theta']} violates theta > 0 (mollification radius)"),
        (v["sigma1"] > 0.0 and v["Gamma"] < 4.0, ("Gamma", "sigma1"),
         f"Gamma = {v['Gamma']} violates Gamma >= 4, required whenever "
         "sigma1 > 0 (artificial pressure exponent)"),
        (sig3 > 0.0 and not sig3 < min(v["alpha"], v["theta"]),
         ("sigma3", "alpha", "theta"),
         f"sigma3 = {sig3} violates sigma3 < min(alpha, theta) = "
         f"{min(v['alpha'], v['theta'])} (the eigenvalue cutoff must sit "
         "below the stress shift and the mollification radius)"),
        (v["dt"] is not None and v["dt"] <= 0.0, ("dt",),
         f"dt = {v['dt']} violates dt > 0 (or the literal 'auto')"),
        (v["t_end"] < 0.0, ("t_end",),
         f"t_end = {v['t_end']} violates t_end >= 0"),
        (not 0.0 < v["cfl"] <= 1.0, ("cfl",),
         f"cfl = {v['cfl']} violates 0 < cfl <= 1"),
        (v["scheme"] not in ("rk2", "imex"), ("scheme",),
         f"scheme = {v['scheme']!r} must be 'rk2' or 'imex'"),
        (v["diag_every"] < 1, ("diag_every",),
         f"diag_every = {v['diag_every']} violates diag_every >= 1"),
        (v["initial"] not in PRESETS
         and not (v["initial"].startswith("file:") and len(v["initial"]) > 5),
         ("initial",),
         f"initial = {v['initial']!r} must be one of {', '.join(PRESETS)} "
         "or file:<path prefix>"),
        (v["rho_bar"] <= 0.0, ("rho_bar",),
         f"rho_bar = {v['rho_bar']} violates rho_bar > 0"),
        (v["eta_bar"] <= 0.0, ("eta_bar",),
         f"eta_bar = {v['eta_bar']} violates eta_bar > 0"),
        (not 0.0 <= v["amp"] < 1.0, ("amp",),
         f"amp = {v['amp']} violates 0 <= amp < 1 (relative perturbation "
         "sizes at or above 1 destroy positivity of the preset data)"),
        (v["seed"] < 0, ("seed",), f"seed = {v['seed']} violates seed >= 0"),
    ]


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text; unknown keys and violations are errors."""
    lines_by_key: dict[str, int] = {}
    values = {key: default for key, (_, default) in _KEY_TABLE.items()}
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
        caster = _KEY_TABLE[key][0]
        try:
            values[key] = caster(val)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: key {key!r} {err}") from None
        lines_by_key[key] = lineno
    for violated, keys, message in _constraint_checks(values):
        if not violated:
            continue
        hits = [lines_by_key[k] for k in keys if k in lines_by_key]
        prefix = f"line {max(hits)}: " if hits else ""
        raise ConfigError(prefix + message)
    if values["initial"].startswith("file:"):
        for key in _GRID_KEYS:
            if key in lines_by_key:
                raise ConfigError(
                    f"line {lines_by_key[key]}: {key} cannot be set with "
                    f"initial = {values['initial']}: the grid comes from "
                    "the snapshots")
            values[key] = None
    try:
        phys = PhysParams(
            a=values["a"], gamma=values["gamma"], muS=values["muS"],
            muB=values["muB"], eps=values["eps"], k=values["k"],
            L=values["L"], delta=values["delta"], lam=values["lambda"],
            A0=values["A0"],
        )
        reg = RegParams(
            alpha=values["alpha"], sigma1=values["sigma1"],
            Gamma=values["Gamma"], sigma2=values["sigma2"],
            sigma3=values["sigma3"], theta=values["theta"],
        )
        step = StepConfig(
            dt=values["dt"], t_end=values["t_end"], cfl=values["cfl"],
            scheme=values["scheme"], diag_every=values["diag_every"],
        )
    except ValueError as err:
        # the explicit checks above should have caught everything first
        raise ConfigError(str(err)) from err
    return RunConfig(
        nx=values["nx"], ny=values["ny"], lx=values["lx"], ly=values["ly"],
        phys=phys, reg=reg, step=step, initial=values["initial"],
        rho_bar=values["rho_bar"], eta_bar=values["eta_bar"],
        amp=values["amp"], csv=values["csv"], snapshot=values["snapshot"],
        seed=values["seed"],
    )


def serialize(cfg: RunConfig) -> str:
    """Emit text whose parse compares equal to cfg (round-trip invariant)."""
    values = {
        "nx": cfg.nx, "ny": cfg.ny, "lx": cfg.lx, "ly": cfg.ly,
        "a": cfg.phys.a, "gamma": cfg.phys.gamma, "muS": cfg.phys.muS,
        "muB": cfg.phys.muB, "eps": cfg.phys.eps, "k": cfg.phys.k,
        "L": cfg.phys.L, "delta": cfg.phys.delta, "lambda": cfg.phys.lam,
        "A0": cfg.phys.A0,
        "alpha": cfg.reg.alpha, "sigma1": cfg.reg.sigma1,
        "Gamma": cfg.reg.Gamma, "sigma2": cfg.reg.sigma2,
        "sigma3": cfg.reg.sigma3, "theta": cfg.reg.theta,
        "dt": "auto" if cfg.step.dt is None else repr(cfg.step.dt),
        "t_end": cfg.step.t_end, "cfl": cfg.step.cfl,
        "scheme": cfg.step.scheme, "diag_every": cfg.step.diag_every,
        "initial": cfg.initial, "rho_bar": cfg.rho_bar,
        "eta_bar": cfg.eta_bar, "amp": cfg.amp,
        "csv": cfg.csv, "snapshot": cfg.snapshot, "seed": cfg.seed,
    }
    lines = []
    for key in _KEY_TABLE:
        val = values[key]
        if val is None:
            continue
        text = repr(val) if isinstance(val, float) else str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Initial data.


def _load_state(prefix: str) -> SimState:
    fields = {}
    geom = None
    for attr, kind in _SNAPSHOT_KINDS.items():
        path = f"{prefix}.{attr}.snap"
        try:
            fields[attr] = load_snapshot(path)
        except OSError as err:
            raise ConfigError(f"cannot read snapshot {path}: {err}") from err
        except ValueError as err:
            raise ConfigError(f"malformed snapshot {path}: {err}") from err
        if not isinstance(fields[attr], kind):
            raise ConfigError(
                f"snapshot {path} holds a {type(fields[attr]).__name__}, "
                f"expected a {kind.__name__}")
        g = fields[attr].grid
        if geom is None:
            geom = g
        elif g != geom:
            raise ConfigError(
                f"snapshot {path} grid {g.nx}x{g.ny} does not match "
                f"{geom.nx}x{geom.ny} from {prefix}.rho.snap")
    return SimState(t=0.0, rho=fields["rho"], u=fields["u"],
                    eta=fields["eta"], T=fields["T"])


def _save_state(state: SimState, prefix: str) -> None:
    for attr in _SNAPSHOT_KINDS:
        save_snapshot(getattr(state, attr), f"{prefix}.{attr}.snap")


def _preset_fields(grid: Grid2D, cfg: RunConfig) -> SimState:
    x, y = grid.cell_centers()
    px, py = np.pi * x / grid.lx, np.pi * y / grid.ly
    shape = (grid.nx, grid.ny)
    amp = cfg.amp
    t_eq = cfg.phys.k * (cfg.eta_bar + cfg.reg.alpha)
    rho = np.full(shape, cfg.rho_bar)
    eta = np.full(shape, cfg.eta_bar)
    ux, uy = np.zeros(shape), np.zeros(shape)
    txx, txy, tyy = np.full(shape, t_eq), np.zeros(shape), np.full(shape, t_eq)
    if cfg.initial == "perturbed-equilibrium":
        rho = cfg.rho_bar * (1.0 + amp * np.cos(px) * np.cos(py))
        eta = cfg.eta_bar * (1.0 + 0.5 * amp * np.cos(px))
        # sin^2 factors keep the velocity compatible with no-slip walls
        ux = amp * np.sin(px) ** 2 * np.sin(2.0 * py)
        uy = -amp * np.sin(2.0 * px) * np.sin(py) ** 2
        txx = t_eq * (1.0 + 0.3 * amp * np.cos(py))
        tyy = t_eq * (1.0 + 0.2 * amp * np.cos(px))
        txy = 0.1 * amp * t_eq * np.cos(px) * np.cos(py)
    elif cfg.initial == "shear-layer":
        ux = amp * np.sin(px) ** 2 * np.sin(2.0 * py)
    return SimState(
        t=0.0,
        rho=ScalarField2D(grid, rho, "rho"),
        u=VectorField2D(grid, ux, uy, "u"),
        eta=ScalarField2D(grid, eta, "eta"),
        T=SymTensorField2D(grid, txx, txy, tyy, "T"),
    )


def build_initial(cfg: RunConfig) -> SimState:
    """Initial state for a config: preset construction plus mollification.

    The equilibrium preset is returned exactly (the mollifier's positivity
    shift would detune the stress from its relaxation target); the other
    presets are mollified at radius theta, which also lifts eta and the
    stress eigenvalues by theta.  file: prefixes load four snapshot files
    written by a previous run and are used verbatim.
    """
    if cfg.initial.startswith("file:"):
        return _load_state(cfg.initial[5:])
    grid = Grid2D(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    if cfg.initial == "equilibrium":
        return equilibrium_state(grid, cfg.phys, cfg.reg,
                                 rho_bar=cfg.rho_bar, eta_bar=cfg.eta_bar)
    raw = _preset_fields(grid, cfg)
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


def _read_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)


def cmd_run(config_path) -> int:
    try:
        cfg = _read_config(config_path)
        initial = build_initial(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
    try:
        result = run(initial, cfg.phys, cfg.reg, cfg.step,
                     diag_hooks=(rec.hook,))
    except (BlowupError, DegenerateStateError, NotSPDError) as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    rows = rec.rows()
    if cfg.csv:
        dg.write_timeseries(cfg.csv, rows)
    if cfg.snapshot:
        _save_state(result.final, cfg.snapshot)
    mass_drift, eta_drift = dg.conservation(result.final, initial)
    print("completed: steps={} t_final={:.17g} residual_max={:.6e} "
          "min_eig_final={:.6e} mass_drift={:.3e} eta_drift={:.3e} "
          "floor_hits={}".format(
              result.steps, result.final.t,
              max(row["residual"] for row in rows),
              rows[-1]["min_eig"], mass_drift, eta_drift, result.floor_hits))
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
    return SymTensorField2D(grid, xx, xy, yy, "T")


class _SuiteReport:
    def __init__(self, name: str, seed: int):
        self.lines = [f"suite {name} seed {seed}"]
        self.counterexample: Optional[str] = None

    def add(self, check: str, passed: int, total: int,
            failure: Optional[str]) -> None:
        self.lines.append(f"{check}: {passed}/{total}")
        if failure is not None and self.counterexample is None:
            self.counterexample = f"{check}: {failure}"

    def render(self) -> tuple[str, int]:
        ok = self.counterexample is None
        tail = ["result: PASS" if ok else "result: FAIL"]
        if not ok:
            tail.append(f"counterexample: {self.counterexample}")
        return "\n".join(self.lines + tail) + "\n", \
            EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _suite_matrix(seed: int) -> _SuiteReport:
    rep = _SuiteReport("matrix-inequalities", seed)
    rng = np.random.default_rng(seed)
    n = 10_000
    counts = {"scalar-log": 0, "matrix-log-diff": 0, "concave-chain": 0,
              "convex-chain": 0, "trlog-logdet": 0}
    fails: dict[str, Optional[str]] = {k: None for k in counts}

    def note(check: str, ok: bool, detail: str) -> None:
        if ok:
            counts[check] += 1
        elif fails[check] is None:
            fails[check] = detail

    for _ in range(n):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        r = sc.scalar_log_ineq(a, b)
        note("scalar-log", r.holds, f"a={a!r} b={b!r} lhs={r.lhs!r} rhs={r.rhs!r}")
        A, B = _rand_spd(rng), _rand_spd(rng)
        r = sc.matrix_log_diff_ineq(A, B)
        note("matrix-log-diff", r.holds, f"A={A!r} B={B!r} lhs={r.lhs!r} rhs={r.rhs!r}")
        ch = sc.convexity_trace_ineq(math.log, lambda s: 1.0 / s, "concave", A, B)
        note("concave-chain", ch.holds,
             f"A={A!r} B={B!r} left={ch.left!r} mid={ch.mid!r} right={ch.right!r}")
        ch = sc.convexity_trace_ineq(lambda s: s * s, lambda s: 2.0 * s,
                                     "convex", A, B)
        note("convex-chain", ch.holds,
             f"A={A!r} B={B!r} left={ch.left!r} mid={ch.mid!r} right={ch.right!r}")
        tl = sc.tr_log(A)
        ld = math.log(A.det())
        ok = abs(tl - ld) <= 1e-10 * (1.0 + abs(tl))
        note("trlog-logdet", ok, f"A={A!r} tr_log={tl!r} log_det={ld!r}")
    for check, passed in counts.items():
        rep.add(check, passed, n, fails[check])
    return rep


def _suite_field(seed: int) -> _SuiteReport:
    rep = _SuiteReport("field-inequalities", seed)
    rng = np.random.default_rng(seed)
    grid = Grid2D(64, 64)
    n = 100
    sigma3 = 0.01
    ok_plain = ok_cut = 0
    fail_plain = fail_cut = None
    for i in range(n):
        # half the draws dip below the cutoff so both branches are hit
        scale = 1.0 if i % 2 == 0 else 0.02
        T = _random_spd_field(grid, rng, floor_scale=scale)
        r = dg.log_grad_bound(T)
        if r.holds:
            ok_plain += 1
        elif fail_plain is None:
            fail_plain = f"field #{i}: lhs={r.lhs!r} rhs={r.rhs!r} margin={r.margin!r}"
        rc = dg.cutoff_log_grad_bound(T, sigma3)
        if rc.holds:
            ok_cut += 1
        elif fail_cut is None:
            fail_cut = f"field #{i}: lhs={rc.lhs!r} rhs={rc.rhs!r} margin={rc.margin!r}"
    rep.add("log-grad-bound", ok_plain, n, fail_plain)
    rep.add("cutoff-log-grad-bound", ok_cut, n, fail_cut)
    # scalar-exponent family T = exp(s) I: the two sides coincide, so the
    # discrete ratio must sit within a factor 2 of equality
    s = 0.4 * _smooth_random(grid, rng, scale=1.0)
    e = np.exp(s)
    zero = np.zeros_like(e)
    T = SymTensorField2D(grid, e, zero, e, "T")
    r = dg.log_grad_bound(T)
    ratio = r.rhs / r.lhs if r.lhs > 0.0 else 1.0
    ok = 0.5 <= ratio <= 2.0
    rep.add("scalar-exponent-ratio", int(ok), 1,
            None if ok else f"lhs={r.lhs!r} rhs={r.rhs!r} ratio={ratio!r}")
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
    tol = 1e-11
    rep.add("mass-drift", int(abs(mass_drift) <= tol), 1,
            None if abs(mass_drift) <= tol else f"relative drift {mass_drift!r}")
    rep.add("eta-drift", int(abs(eta_drift) <= tol), 1,
            None if abs(eta_drift) <= tol else f"relative drift {eta_drift!r}")
    return rep


def _suite_closure(seed: int) -> _SuiteReport:
    rep = _SuiteReport("closure", seed)
    rng = np.random.default_rng(seed)
    phys = PhysParams(k=1.0, A0=1.0, lam=0.5)
    rate = float(rng.uniform(0.05, 0.15))
    r = cl.closure_compare(cl.GradU2.shear(rate), 1.0, phys,
                           t_end=5.0, nq=128)
    ok = r.max_error <= 2e-2
    rep.add("shear", int(ok), 1,
            None if ok else f"rate={rate!r} max_error={r.max_error!r}")
    r = cl.closure_compare(cl.GradU2(), 1.0, phys, t_end=2.0, nq=64)
    ok = r.max_error <= 1e-10
    rep.add("kappa-zero", int(ok), 1,
            None if ok else f"max_error={r.max_error!r}")
    omega = float(rng.uniform(0.1, 0.3))
    r = cl.closure_compare(cl.GradU2.rotation(omega), 1.0, phys,
                           t_end=3.0, nq=64)
    ok = r.max_error <= 5e-4
    rep.add("rotation", int(ok), 1,
            None if ok else f"omega={omega!r} max_error={r.max_error!r}")
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
    t_eq = phys.k * (1.0 + reg.alpha)
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
    ok = order_ratio >= 3.0
    rep.add("dt-order", int(ok), 1,
            None if ok else f"errors={errs!r} ratio={order_ratio!r}")

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
        residuals.append(max(row["residual"] for row in rec.rows()))
    ok = gaps[1] < 0.7 * gaps[0] and residuals[1] <= residuals[0]
    rep.add("budget-gap-refinement", int(ok), 1,
            None if ok else f"gaps={gaps!r} residuals={residuals!r}")
    return rep


_SUITE_FUNCS = {
    "matrix-inequalities": _suite_matrix,
    "field-inequalities": _suite_field,
    "conservation": _suite_conservation,
    "closure": _suite_closure,
    "convergence": _suite_convergence,
}


def verify_report(suite: str, seed: int = DEFAULT_SEED) -> tuple[str, int]:
    if suite not in _SUITE_FUNCS:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _SUITE_FUNCS[suite](seed).render()


def cmd_verify(suite: str, seed: int = DEFAULT_SEED) -> int:
    try:
        text, code = verify_report(suite, seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
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


def _delta_variant(base: SimState, cfg: RunConfig, delta: float):
    state = base.copy()
    scaled = base.eta.data / (1.0 + delta ** 0.25 * np.sqrt(base.eta.data))
    state.eta.data[...] = scaled
    return state, replace(cfg.phys, delta=delta), cfg.reg


def _field_distance(a: SimState, b: SimState) -> float:
    grid = a.rho.grid
    total = cell_sum(grid, (a.rho.data - b.rho.data) ** 2)
    total += cell_sum(grid, (a.u.x - b.u.x) ** 2 + (a.u.y - b.u.y) ** 2)
    total += cell_sum(grid, (a.eta.data - b.eta.data) ** 2)
    total += cell_sum(grid, (a.T.xx - b.T.xx) ** 2
                      + 2.0 * (a.T.xy - b.T.xy) ** 2
                      + (a.T.yy - b.T.yy) ** 2)
    return math.sqrt(total)


def cmd_sweep(config_path, knob: str, values_text: str) -> int:
    try:
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
        if knob == "alpha":
            base = build_initial(replace(cfg, reg=replace(cfg.reg, alpha=0.0)))
        else:
            base = build_initial(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    make = _alpha_variant if knob == "alpha" else _delta_variant
    bound_rows = []
    if knob == "delta":
        eta0_mass = cell_sum(base.eta.grid, base.eta.data)
        for v in values:
            scaled = base.eta.data / (1.0 + v ** 0.25 * np.sqrt(base.eta.data))
            lhs = v * cell_sum(base.eta.grid, scaled ** 2)
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

    lines = [f"sweep knob={knob} values={','.join(repr(v) for v in values)} "
             f"t_end={cfg.step.t_end!r} dt={cfg.step.dt!r}"]
    for v, result, rows, _ in outcomes:
        lines.append(
            "run {}={!r}: steps={} residual_max={!r} min_eig_final={!r}".format(
                knob, v, result.steps,
                max(row["residual"] for row in rows),
                rows[-1]["min_eig"]))
    for v, lhs, rhs in bound_rows:
        ok = lhs <= rhs * (1.0 + 1e-12)
        lines.append(f"bound delta={v!r}: delta*l2_sq(eta0_delta)={lhs!r} "
                     f"<= sqrt(delta)*mass(eta0)={rhs!r} {'ok' if ok else 'VIOLATED'}")
    diffs = []
    for (va, ra, rowa, _), (vb, rb, rowb, _) in zip(outcomes, outcomes[1:]):
        fdist = _field_distance(ra.final, rb.final)
        n = min(len(rowa), len(rowb))
        edist = max(abs(rowa[i]["E_total"] - rowb[i]["E_total"])
                    for i in range(n))
        diffs.append(fdist)
        lines.append(f"pair {knob}={va!r}->{vb!r}: field_l2={fdist!r} "
                     f"energy_dist={edist!r}")
    if len(diffs) >= 2:
        dec = all(b < a for a, b in zip(diffs, diffs[1:]))
        lines.append(f"cauchy_decreasing: {'yes' if dec else 'no'}")
    else:
        lines.append("cauchy_decreasing: n/a")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.csv:
        with open(cfg.csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
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
