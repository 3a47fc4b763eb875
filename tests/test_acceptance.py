"""Acceptance suite: one test and one printed verdict line per criterion.

Run with pytest -v -s to see the per-criterion lines.  Every threshold is
stated inline; runtimes are wall-clock on the host running the suite.
"""

import math
import time

import numpy as np
import pytest

import oracles
from oldroyd2d import cli
from oldroyd2d import diagnostics as dg
from oldroyd2d import symcalc as sc
from oldroyd2d.closure import GradU2, closure_compare
from oldroyd2d.grid import NEUMANN, Grid2D, cell_sum, grad_x, grad_y
from oldroyd2d.integrate import StepConfig, run, step
from oldroyd2d.model import PhysParams, RegParams, equilibrium_state

SEED = 20260817


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def recorded_run(text):
    """Parse config text, run it, and return (config, recorder, result)."""
    cfg = cli.parse_config(text)
    initial = cli.build_initial(cfg)
    rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
    result = run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=(rec.hook,))
    return cfg, rec, result


def test_criterion_01_matrix_inequality_oracles():
    t0 = time.perf_counter()
    text, code = cli.verify_report("matrix-inequalities", seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = code == 0 and text.count("10000/10000") == 5 and elapsed < 5.0
    verdict(1, ok,
            f"5 oracle families x 10^4 seeded samples hold in {elapsed:.2f}s "
            "(< 5s, slack <= 1e-10)")


def test_criterion_02_identity_suite():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        lam1 = 10.0 ** rng.uniform(-3.0, 3.0)
        lam2 = 10.0 ** rng.uniform(-3.0, 3.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        c, s = math.cos(ang), math.sin(ang)
        p = sc.SymMat2(lam1 * c * c + lam2 * s * s, (lam1 - lam2) * c * s,
                       lam1 * s * s + lam2 * c * c)
        tl = oracles.tr_log(p)
        worst = max(worst, abs(tl - math.log(p.det())) / (1.0 + abs(tl)))

    def path_residual(dt):
        ts = np.arange(0.0, 1.0 + dt / 2.0, dt)
        mats = []
        for t in ts:
            l1 = 1.5 + 0.4 * math.sin(t)
            l2 = 0.8 + 0.3 * math.cos(2.0 * t)
            a = 0.7 * t
            c, s = math.cos(a), math.sin(a)
            mats.append(sc.SymMat2(l1 * c * c + l2 * s * s, (l1 - l2) * c * s,
                                   l1 * s * s + l2 * c * c))
        return oracles.jacobi_residual(mats, dt)

    r_base = path_residual(1e-3)
    r_half = path_residual(5e-4)
    order = math.log2(r_base / r_half)
    ok = worst <= 1e-10 and r_base <= 1e-6 and 1.8 <= order <= 2.2
    verdict(2, ok,
            f"tr log = log det to {worst:.1e} on 10^4 samples; determinant "
            f"derivative residual {r_base:.2e} <= 1e-6 at dt=1e-3, order "
            f"{order:.3f}")


def test_criterion_03_field_inequalities():
    rng = np.random.default_rng(SEED)
    grid = Grid2D(64, 64)
    worst_margin = math.inf
    sigma3 = 0.01
    for i in range(100):
        scale = 1.0 if i % 2 == 0 else 0.02
        T = cli._random_spd_field(grid, rng, floor_scale=scale)
        worst_margin = min(worst_margin, dg.log_grad_bound(grid, *T).margin,
                           dg.cutoff_log_grad_bound(grid, *T, sigma3).margin)
    # scalar-exponent family T = e^s I: tr log T = 2s, both sides reduce
    # to 2 int |grad s|^2, so the bound is met with equality
    x, y = grid.cell_centers()
    s = 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    e = np.exp(s)
    r = dg.log_grad_bound(grid, e, np.zeros_like(e), e)
    gx = grad_x(s, NEUMANN, grid.hx)
    gy = grad_y(s, NEUMANN, grid.hy)
    hand = 2.0 * cell_sum(grid, gx**2 + gy**2)
    lhs_match = abs(r.lhs - hand) <= 1e-10 * (1.0 + hand)
    equality = abs(r.rhs / r.lhs - 1.0) <= 1e-2
    ok = worst_margin >= -1e-8 and lhs_match and equality
    verdict(3, ok,
            f"log-gradient bounds on 100 random smooth SPD 64x64 fields, "
            f"worst margin {worst_margin:.3e} >= -1e-8; scalar-exponent "
            f"family matches 2*int|grad s|^2 with rhs/lhs = {r.rhs / r.lhs:.6f}")


def test_criterion_04_conservation():
    details = []
    ok = True
    for preset in ("equilibrium", "perturbed-equilibrium"):
        text = ("nx = 64\nny = 64\nmuS = 0.05\neps = 0.05\nalpha = 0.1\n"
                f"initial = {preset}\namp = 0.05\nt_end = 1.0\n")
        cfg = cli.parse_config(text)
        initial = cli.build_initial(cfg)
        t0 = time.perf_counter()
        result = run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=())
        elapsed = time.perf_counter() - t0
        mass_drift, eta_drift = dg.conservation(result.final, initial)
        ok = ok and mass_drift <= 1e-11 and eta_drift <= 1e-11 and elapsed < 60.0
        details.append(f"{preset}: mass {mass_drift:.1e}, eta {eta_drift:.1e}, "
                       f"{elapsed:.0f}s")
    verdict(4, ok, "64x64 runs to t_end=1 keep relative drifts <= 1e-11 "
            "(< 60s each); " + "; ".join(details))


def test_criterion_05_equilibrium_fixed_point():
    phys = PhysParams(muS=0.1, eps=0.1)
    reg = RegParams(alpha=0.1)
    grid = Grid2D(16, 16)
    state = equilibrium_state(grid, phys, reg)
    cfg = StepConfig(dt=1e-3, t_end=1.0, diag_every=1)
    after = step(state, phys, reg, cfg, dt=1e-3, floor_counter=[0])
    change = max(np.abs(new - old).max()
                 for new, old in zip(after.components(), state.components()))
    rec = dg.TimeseriesRecorder(phys, reg)
    result = run(state, phys, reg, cfg, diag_hooks=(rec.hook,))
    residual = oracles.energy_inequality_residual(rec.reports)
    ok = change <= 1e-12 and result.steps == 1000 and residual <= 1e-10
    verdict(5, ok,
            f"equilibrium is a discrete fixed point: per-step change "
            f"{change:.1e} <= 1e-12, energy residual {residual:.1e} <= 1e-10 "
            f"over {result.steps} steps")


def test_criterion_06_energy_inequality():
    residuals = {}
    gaps_alpha0 = {}
    for nx in (64, 128):
        text = (f"nx = {nx}\nny = {nx}\nmuS = 0.05\neps = 0.05\nalpha = 0.1\n"
                "initial = perturbed-equilibrium\namp = 0.05\n"
                "t_end = 0.2\ndiag_every = 20\n")
        _, rec, _ = recorded_run(text)
        residuals[nx] = max(row["residual"] for row in rec.rows())
        _, rec0, _ = recorded_run(text.replace("alpha = 0.1", "alpha = 0"))
        gaps_alpha0[nx] = dg.energy_budget_gap(rec0.reports)
    # the positive part cannot rise under refinement; the two-sided gap is
    # only expected to vanish at alpha = 0, where the smooth-solution
    # budget is an equality rather than a one-sided estimate
    ok = (residuals[64] <= 5e-3 and residuals[128] <= residuals[64]
          and gaps_alpha0[128] < 0.7 * gaps_alpha0[64])
    verdict(6, ok,
            f"positive-part residual {residuals[64]:.2e} <= 5e-3 at 64^2 auto "
            f"dt and {residuals[128]:.2e} at 128^2; alpha=0 budget gap falls "
            f"{gaps_alpha0[64]:.2e} -> {gaps_alpha0[128]:.2e} under halving")


def test_criterion_07_stress_positivity():
    details = []
    ok = True
    for alpha in (0.1, 0.01):
        text = (f"nx = 32\nny = 32\nmuS = 0.1\neps = 0.1\nalpha = {alpha}\n"
                "initial = perturbed-equilibrium\namp = 0.08\n"
                "t_end = 0.3\ndiag_every = 5\n")
        _, rec, _ = recorded_run(text)
        low = min(row["min_eig"] for row in rec.rows())
        ok = ok and low > 0.0
        details.append(f"alpha={alpha}: min eig {low:.3f}")
    # sigma3-level run: the cutoff tensor's eigenvalues are max(sigma3, .)
    sigma3 = 0.05
    cfg = cli.parse_config(
        "nx = 32\nny = 32\nmuS = 0.1\neps = 0.1\nalpha = 0.1\n"
        f"sigma3 = {sigma3}\ninitial = perturbed-equilibrium\namp = 0.08\n"
        "t_end = 0.3\ndiag_every = 5\n")
    initial = cli.build_initial(cfg)
    lam_mins = []

    def eig_hook(s):
        lam_mins.append(float(sc.eig_fields(*s.components()[4:])[1].min()))

    run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=(eig_hook,))
    cut_mins = [max(sigma3, v) for v in lam_mins]
    ok = ok and all(v >= sigma3 for v in cut_mins) and min(lam_mins) > 0.0
    details.append(f"sigma3 run: cutoff min eig {min(cut_mins):.3f} >= {sigma3}")
    verdict(7, ok, "stress stays positive definite at every output time; "
            + "; ".join(details))


def test_criterion_08_kinetic_closure():
    t0 = time.perf_counter()
    phys = PhysParams(k=1.0, A0=1.0, lam=0.5)
    shear = GradU2.shear(0.1)
    e128 = closure_compare(shear, 1.0, phys, t_end=5.0, nq=128).max_error
    e64 = closure_compare(shear, 1.0, phys, t_end=5.0, nq=64).max_error
    e_zero = closure_compare(GradU2(), 1.0, phys, t_end=2.0, nq=64).max_error
    e_rot = closure_compare(GradU2.rotation(0.2), 1.0, phys,
                            t_end=5.0, nq=128).max_error
    elapsed = time.perf_counter() - t0
    ratio = e64 / e128
    ok = (e128 <= 2e-2 and ratio >= 3.0 and e_zero <= 1e-10
          and e_rot <= 1e-4 and elapsed < 120.0)
    verdict(8, ok,
            f"shear closure error {e128:.2e} <= 2e-2 at nq=128, halving dq "
            f"reduces it {ratio:.1f}x >= 3x; kappa=0 {e_zero:.1e}, rotation "
            f"{e_rot:.1e}; {elapsed:.0f}s < 120s")


SWEEP_TEXT = ("nx = 32\nny = 32\nmuS = 0.1\neps = 0.1\nL = 1\n"
              "initial = perturbed-equilibrium\namp = 0.05\n"
              "dt = 0.001\nt_end = 0.5\ndiag_every = 25\n")


def sweep_diffs(capsys, tmp_path, knob, values):
    path = tmp_path / f"{knob}.cfg"
    path.write_text(SWEEP_TEXT)
    code = cli.cmd_sweep(str(path), knob, values)
    out = capsys.readouterr().out
    diffs = [float(line.split("field_l2=")[1].split()[0])
             for line in out.splitlines() if line.startswith("pair ")]
    return code, out, diffs


def test_criterion_09_limit_sweeps(capsys, tmp_path):
    code_a, out_a, diffs_a = sweep_diffs(capsys, tmp_path, "alpha",
                                         "0.1,0.05,0.025")
    code_d, out_d, diffs_d = sweep_diffs(capsys, tmp_path, "delta",
                                         "0.1,0.01,0.001")
    bounds_ok = all(line.endswith("ok") for line in out_d.splitlines()
                    if line.startswith("bound delta="))
    ok = (code_a == 0 and code_d == 0
          and len(diffs_a) == 2 and diffs_a[1] < diffs_a[0]
          and len(diffs_d) == 2 and diffs_d[1] < diffs_d[0]
          and bounds_ok)
    verdict(9, ok,
            f"successive L2 field differences shrink: alpha {diffs_a[0]:.3e}"
            f" -> {diffs_a[1]:.3e}, delta {diffs_d[0]:.3e} -> {diffs_d[1]:.3e};"
            " delta initial-data bound holds at every value")


def stress_monitor_for(text):
    cfg = cli.parse_config(text)
    initial = cli.build_initial(cfg)
    times, stresses = [], []

    def hook(s):
        times.append(s.t)
        stresses.append(tuple(comp.copy() for comp in s.components()[4:]))

    run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=(hook,))
    return oracles.stress_l2_monitor(initial.grid, times, stresses, cfg.phys)


def test_criterion_10_stress_norm_bound():
    benchmarks = {
        "equilibrium": ("nx = 16\nny = 16\nmuS = 0.1\neps = 0.1\n"
                        "dt = 0.001\nt_end = 1.2\ndiag_every = 20\n"),
        "perturbed": ("nx = 32\nny = 32\nmuS = 0.1\neps = 0.1\n"
                      "initial = perturbed-equilibrium\namp = 0.05\n"
                      "t_end = 1.2\ndiag_every = 20\n"),
        "shear-layer": ("nx = 32\nny = 32\nmuS = 0.1\neps = 0.1\n"
                        "initial = shear-layer\namp = 0.2\n"
                        "t_end = 1.2\ndiag_every = 20\n"),
    }
    ok = True
    for name, text in benchmarks.items():
        rep = stress_monitor_for(text)
        ok = ok and not rep.doubled and math.isfinite(rep.bound)
    delta_bounds = []
    for d in (0.1, 0.01, 0.001):
        rep = stress_monitor_for(
            f"nx = 16\nny = 16\nmuS = 0.1\neps = 0.1\nL = 1\ndelta = {d}\n"
            "initial = perturbed-equilibrium\namp = 0.05\n"
            "dt = 0.001\nt_end = 1.0\ndiag_every = 20\n")
        ok = ok and not rep.doubled
        delta_bounds.append(rep.bound)
    spread = max(delta_bounds) / min(delta_bounds)
    ok = ok and spread <= 1.05
    verdict(10, ok,
            "sup-t stress L2 plus accumulated gradient norm never doubles "
            f"per unit time on any benchmark; delta-sweep bound spread "
            f"{spread:.6f} <= 1.05 at fixed L")
