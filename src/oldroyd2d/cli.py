"""Run orchestration, verification suites, and limit sweeps.

The commands read their config through oldroyd2d.config (parse_config,
build_initial), which also holds the config format.

Exit code contract: 0 success, 1 unusable configuration (one that does
not fit in memory included), 2 run aborted (blowup, vacuum, loss of
stress positivity, or a summary quantity that is not finite),
3 verification suite found a counterexample.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from oldroyd2d import closure as cl
from oldroyd2d import diagnostics as dg
from oldroyd2d import symcalc as sc
from oldroyd2d.config import ConfigError, RunConfig, build_initial, parse_config
from oldroyd2d.grid import Grid2D, cell_sum
from oldroyd2d.integrate import (
    RUN_ABORTS,
    StepConfig,
    run,
)
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
    save_state,
    state_from_components,
)
from oldroyd2d.symcalc import SymMat2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_COUNTEREXAMPLE = 3

DEFAULT_SEED = 20260817


# ---------------------------------------------------------------------------
# run subcommand.


def _file_io(action: str, path, op: Callable):
    """op(path); an OSError, or text that is not UTF-8, becomes the ConfigError
    'cannot <action> <path>: <reason>' (a decode reason names the byte offset)."""
    try:
        return op(path)
    except (OSError, UnicodeDecodeError) as err:
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
    """The subcommand cmd; ConfigError or MemoryError exit 1, a run abort 2, each on one line.

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
        except MemoryError as err:
            print(f"out of memory: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except RUN_ABORTS as err:
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


def _spd_from(lam1_exp: np.ndarray, lam2_exp: np.ndarray, ang: np.ndarray) -> SymMat2:
    """The SPD matrices with eigenvalues 10**lam1_exp, 10**lam2_exp rotated by ang."""
    lam1 = 10.0 ** lam1_exp
    lam2 = 10.0 ** lam2_exp
    c, s = np.cos(ang), np.sin(ang)
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
                      floor_scale: float = 1.0):
    """Smooth SPD field (xx, xy, yy) with eigenvalues floor_scale * exp(smooth)."""
    g1 = floor_scale * np.exp(_smooth_random(grid, rng, scale=0.8))
    g2 = floor_scale * np.exp(_smooth_random(grid, rng, scale=0.8))
    ang = _smooth_random(grid, rng, scale=1.2)
    return sc.recombine_fields(g1, g2, np.cos(ang), np.sin(ang))


class _SuiteReport:
    """Pass counts and first failure per check, in the order the checks first run."""

    def __init__(self, name: str, seed: int):
        self.title = f"suite {name} seed {seed}"
        self.counts: dict[str, list[int]] = {}  # check -> [passed, evaluated]
        self.failures: dict[str, str] = {}  # check -> detail of its first failure

    def check(self, name: str, ok: bool, detail: Callable[[], str]) -> None:
        """Count one evaluation; detail() runs only on the check's first failure."""
        self.check_samples(name, np.array([ok]), lambda i: detail())

    def check_samples(self, name: str, ok: np.ndarray, detail: Callable[[int], str]) -> None:
        """Count a block of evaluations; detail(i) runs only for the check's first
        failing sample i."""
        count = self.counts.setdefault(name, [0, 0])
        passed = np.count_nonzero(ok)
        count[0] += passed
        count[1] += ok.size
        if passed < ok.size and name not in self.failures:
            self.failures[name] = detail(sc.first_false(ok))

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
_CHAINS = (("concave-chain", np.log, lambda s: 1.0 / s, "concave"),
           ("convex-chain", lambda s: s * s, lambda s: 2.0 * s, "convex"))


# One matrix-inequalities sample draws, in order: the two exponents of the
# scalar pair, then the two eigenvalue exponents and the angle of A and of B.
_SAMPLE_LOW = (-3.0, -3.0, -3.0, -3.0, 0.0, -3.0, -3.0, 0.0)
_SAMPLE_HIGH = (3.0, 3.0, 3.0, 3.0, 2.0 * np.pi, 3.0, 3.0, 2.0 * np.pi)
_MATRIX_SAMPLES = 10_000
# Samples checked as one set of arrays.  Blocks of 100, 1,000 or 2,000 leave
# the same peak RSS after the closure suite that follows, 10,000 add 2.6 MB.
# The suite takes 31 ms in blocks of 100 and 8 ms in blocks of 1,000, but
# the benchmark's oracle peak RSS grows with every operation that fits its
# time budget, so the blocks stay at 100.
_MATRIX_BLOCK = 100


def _suite_matrix(seed: int) -> _SuiteReport:
    rep = _SuiteReport("matrix-inequalities", seed)
    rng = np.random.default_rng(seed)
    for _ in range(_MATRIX_SAMPLES // _MATRIX_BLOCK):
        # one call draws the block in the order of per-sample scalar draws;
        # row j of u is the j-th draw of every sample
        u = np.transpose(rng.uniform(_SAMPLE_LOW, _SAMPLE_HIGH, size=(_MATRIX_BLOCK, 8))).copy()
        a = 10.0 ** u[0]
        b = 10.0 ** u[1]
        r = sc.scalar_log_ineq(a, b)
        rep.check_samples("scalar-log", r.holds, lambda i: (
            f"a={float(a[i])!r} b={float(b[i])!r} "
            f"lhs={float(r.lhs[i])!r} rhs={float(r.rhs[i])!r}"))
        A, B = _spd_from(*u[2:5]), _spd_from(*u[5:])
        eA, eB = sc.decompose(A), sc.decompose(B)
        r = sc.matrix_log_diff_ineq(A, B, eA, eB)
        rep.check_samples("matrix-log-diff", r.holds, lambda i: (
            f"A={A.sample(i)!r} B={B.sample(i)!r} "
            f"lhs={float(r.lhs[i])!r} rhs={float(r.rhs[i])!r}"))
        for name, phi, dphi, kind in _CHAINS:
            ch = sc.convexity_trace_ineq(phi, dphi, kind, A, B, eA, eB)
            rep.check_samples(name, ch.holds, lambda i: (
                f"A={A.sample(i)!r} B={B.sample(i)!r} left={float(ch.left[i])!r} "
                f"mid={float(ch.mid[i])!r} right={float(ch.right[i])!r}"))
        # matrix_log_diff_ineq has checked eA's lam2 > 0
        tl = np.log(eA[0]) + np.log(eA[1])
        ld = np.log(A.det())
        rep.check_samples("trlog-logdet", abs(tl - ld) <= 1e-10 * (1.0 + abs(tl)), lambda i: (
            f"A={A.sample(i)!r} tr_log={float(tl[i])!r} log_det={float(ld[i])!r}"))
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
        for name, r in (("log-grad-bound", dg.log_grad_bound(grid, *T)),
                        ("cutoff-log-grad-bound", dg.cutoff_log_grad_bound(grid, *T, sigma3))):
            rep.check(name, r.holds,
                      lambda: f"field #{i}: lhs={r.lhs!r} rhs={r.rhs!r} margin={r.margin!r}")
    # scalar-exponent family T = exp(s) I: the two sides coincide, so the
    # discrete ratio must sit within a factor 2 of equality
    s = 0.4 * _smooth_random(grid, rng, scale=1.0)
    e = np.exp(s)
    r = dg.log_grad_bound(grid, e, np.zeros_like(e), e)
    ratio = r.rhs / r.lhs if r.lhs > 0.0 else 1.0
    rep.check("scalar-exponent-ratio", 0.5 <= ratio <= 2.0,
              lambda: f"lhs={r.lhs!r} rhs={r.rhs!r} ratio={ratio!r}")
    return rep


def _verify_run_config(nx: int, amp: float, alpha: float = 0.1) -> RunConfig:
    """Shared small perturbed run used by the runtime suites."""
    return RunConfig(Grid2D(nx, nx), PhysParams(muS=0.1, eps=0.1), RegParams(alpha=alpha),
                     StepConfig(t_end=0.3), initial="perturbed-equilibrium", amp=amp)


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
    rho, ux, uy, eta, txx, txy, tyy = equilibrium_state(grid, phys, reg).components()
    errs = []
    t_eq = float(txx[0, 0])
    rate = phys.A0 / (2.0 * phys.lam)
    t_end = 0.5
    exact = t_eq + (3.0 - t_eq) * math.exp(-rate * t_end)
    stressed = state_from_components(0.0, grid, rho, ux, uy, eta,
                                     np.full_like(txx, 3.0), txy, np.full_like(tyy, 3.0))
    for dt in (2e-2, 1e-2):
        cfg = StepConfig(dt=dt, t_end=t_end, diag_every=10 ** 9)
        out = run(stressed, phys, reg, cfg, diag_hooks=())
        errs.append(abs(float(out.final.components()[4][0, 0]) - exact))
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
    if seed < 0:
        raise ConfigError(f"seed = {seed} violates seed >= 0")
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


# The variants share the base arrays they leave unchanged: run copies its initial state.
def _alpha_variant(base: SimState, cfg: RunConfig, alpha: float):
    rho, ux, uy, eta, txx, txy, tyy = base.components()
    state = state_from_components(base.t, base.grid, rho, ux, uy, eta,
                                  txx + alpha, txy, tyy + alpha)
    return state, cfg.phys, replace(cfg.reg, alpha=alpha)


def _delta_scaled_eta(eta: np.ndarray, delta: float) -> np.ndarray:
    """Initial polymer density of a delta-sweep run."""
    return eta / (1.0 + delta ** 0.25 * np.sqrt(eta))


def _delta_variant(base: SimState, cfg: RunConfig, delta: float):
    rho, ux, uy, eta, *T = base.components()
    eta = _delta_scaled_eta(eta, delta)
    state = state_from_components(base.t, base.grid, rho, ux, uy, eta, *T)
    return state, replace(cfg.phys, delta=delta), cfg.reg


def _field_distance(a: SimState, b: SimState) -> float:
    rho, ux, uy, eta, *T = (p - q for p, q in zip(a.components(), b.components()))
    total = cell_sum(a.grid, rho ** 2)
    total += cell_sum(a.grid, ux ** 2 + uy ** 2)
    total += cell_sum(a.grid, eta ** 2)
    total += dg.stress_norms(a.grid, *T)[1]
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
    if cfg.snapshot:
        raise ConfigError(
            f"sweep writes no snapshot: remove snapshot = {cfg.snapshot} from the config")
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
    _check_output_dirs(cfg, ("csv",))
    if knob == "alpha":
        # the base state ignores the cutoff, which alpha = 0 would violate
        base = build_initial(
            replace(cfg, reg=replace(cfg.reg, alpha=0.0, sigma3=0.0)))
    else:
        base = build_initial(cfg)

    make = _alpha_variant if knob == "alpha" else _delta_variant
    # every value runs before any summary is checked, so every failing value is listed
    runs, aborted = [], []
    for v in values:
        state, phys, reg = make(base, cfg, v)
        rec = dg.TimeseriesRecorder(phys, reg)
        try:
            result = run(state, phys, reg, cfg.step, diag_hooks=(rec.hook,))
        except RUN_ABORTS as err:
            aborted.append(f"{knob}={v!r}: run aborted: {err}")
        else:
            runs.append((v, result, rec.rows()))

    lines = [f"sweep knob={knob} values={','.join(repr(v) for v in values)} "
             f"t_end={cfg.step.t_end!r} dt={cfg.step.dt!r}"]
    if not aborted:
        field_l2 = []
        for v, result, rows in runs:
            summary = _row_summary(rows)
            aborted += [f"{knob}={v!r}: run aborted: {name} is not finite"
                        for name in _non_finite(summary)]
            lines.append("run {}={!r}: steps={} residual_max={!r} min_eig_final={!r}".format(
                knob, v, result.steps, *summary.values()))
        if knob == "delta":
            _, _, _, eta0, *_ = base.components()
            eta0_mass = cell_sum(base.grid, eta0)
            for v in values:
                lhs = v * cell_sum(base.grid, _delta_scaled_eta(eta0, v) ** 2)
                rhs = math.sqrt(v) * eta0_mass
                ok = lhs <= rhs * (1.0 + 1e-12)
                lines.append(f"bound delta={v!r}: delta*l2_sq(eta0_delta)={lhs!r} "
                             f"<= sqrt(delta)*mass(eta0)={rhs!r} {'ok' if ok else 'VIOLATED'}")
        for (va, ra, rowa), (vb, rb, rowb) in zip(runs, runs[1:]):
            fdist = _field_distance(ra.final, rb.final)
            if not math.isfinite(fdist):
                aborted.append(f"{knob}={va!r}->{vb!r}: run aborted: field_l2 is not finite")
            field_l2.append(fdist)
            edist = max(abs(x["E_total"] - y["E_total"]) for x, y in zip(rowa, rowb))
            lines.append(f"pair {knob}={va!r}->{vb!r}: field_l2={fdist!r} "
                         f"energy_dist={edist!r}")
        dec = all(b < a for a, b in zip(field_l2, field_l2[1:]))
        verdict = "n/a" if len(field_l2) < 2 else "yes" if dec else "no"
        lines.append(f"cauchy_decreasing: {verdict}")
    if aborted:
        print("\n".join(aborted), file=sys.stderr)
        return EXIT_RUNTIME
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
