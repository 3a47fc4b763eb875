"""Tests for the run-time monitors: energy budget, conservation, positivity."""

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oldroyd2d import diagnostics as dg
from oldroyd2d import grid as g2
from oldroyd2d import integrate as itg
from oldroyd2d import symcalc
from oldroyd2d.grid import (
    NEUMANN,
    Grid2D,
    ScalarField2D,
    SymTensorField2D,
    VectorField2D,
    cell_sum,
)
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
    tr_log_field,
    velocity_jacobian,
)
from oldroyd2d.symcalc import NotSPDError
from oracles import stress_l2_monitor

# frozen by direct evaluation: |O| (a/(g-1) + kL + delta + 1) on the unit square
ENERGY_UNIT_STATE = 3.5
# adding alpha log alpha - alpha for alpha = 0.1
ALPHA_CONST_01 = -0.3302585092994046
ENERGY_UNIT_STATE_ALPHA = 3.1697414907005954
# trapezoidal residual series for totals (1.0, 1.4, 1.3) at t = 0, 0.5, 1.0
# with dissipation-minus-source rates (0.2, 0.4, 0.6), normalized by E0 + 1
SYNTHETIC_RESIDUALS = (0.0, 0.275, 0.35)
# fitted Korn ratio for any horizontal shear u = (g(y), 0): sqrt(2)
KORN_SHEAR = 1.4142135623730951


def unit_state(n=8, rho=1.0, eta=1.0, t_diag=1.0):
    g = Grid2D(n, n, 1.0, 1.0)
    shape = (n, n)
    return SimState(
        t=0.0,
        rho=ScalarField2D(g, np.full(shape, rho)),
        u=VectorField2D(g, np.zeros(shape), np.zeros(shape)),
        eta=ScalarField2D(g, np.full(shape, eta)),
        T=SymTensorField2D(
            g, np.full(shape, t_diag), np.zeros(shape), np.full(shape, t_diag),
        ),
    )


def perturbed_state(n, amp=0.08):
    g = Grid2D(n, n, 1.0, 1.0)
    X, Y = g.cell_centers()
    rho = 1.0 + amp * np.cos(np.pi * X) * np.cos(np.pi * Y)
    eta = 1.0 + 0.5 * amp * np.cos(np.pi * X)
    ux = amp * np.sin(np.pi * X) ** 2 * np.sin(2 * np.pi * Y)
    uy = -amp * np.sin(2 * np.pi * X) * np.sin(np.pi * Y) ** 2
    txx = 1.0 + 0.3 * amp * np.cos(np.pi * Y)
    txy = 0.1 * amp * np.cos(np.pi * X) * np.cos(np.pi * Y)
    return SimState(
        t=0.0,
        rho=ScalarField2D(g, rho),
        u=VectorField2D(g, ux, uy),
        eta=ScalarField2D(g, eta),
        T=SymTensorField2D(g, txx, txy, np.ones_like(txx)),
    )


def report_with(t, total, rate):
    """EnergyReport with the given stored total and dissipation-source gap."""
    zero = dict.fromkeys(
        ("pressure_pot", "artificial_pot", "polymer_entropy", "polymer_quad",
         "stress_trace", "eta_diss", "newtonian_diss", "inverse_term",
         "log_grad", "force_work", "eta_source", "const_source"), 0.0,
    )
    return dg.EnergyReport(t=t, kinetic=total, stress_relax=rate, **zero)


class TestEnergyReport:
    def test_unit_state_frozen(self):
        state = unit_state()
        phys = PhysParams(a=1.0, gamma=2.0, k=1.0, L=1.0, delta=0.5)
        rep = dg.energy(state, phys, RegParams(alpha=0.0))
        assert rep.total == pytest.approx(ENERGY_UNIT_STATE, rel=1e-13)
        assert rep.kinetic == 0.0
        assert rep.eta_diss == 0.0
        assert rep.newtonian_diss == 0.0
        # T = I is the relaxation equilibrium for eta = 1, so the rates cancel
        assert rep.stress_relax == pytest.approx(rep.eta_source, rel=1e-13)

    def test_unit_state_alpha_frozen(self):
        state = unit_state()
        phys = PhysParams(a=1.0, gamma=2.0, k=1.0, L=1.0, delta=0.5)
        rep = dg.energy(state, phys, RegParams(alpha=0.1))
        assert rep.total == pytest.approx(ENERGY_UNIT_STATE_ALPHA, rel=1e-13)
        assert rep.stress_trace == pytest.approx(1.0 + ALPHA_CONST_01, rel=1e-13)
        # tr log I = 0, so only the additive constant moved
        assert rep.log_grad == 0.0
        assert rep.const_source > 0.0

    def test_vacuum_state(self):
        state = unit_state(rho=0.0, eta=0.0)
        phys = PhysParams(a=1.0, gamma=2.0, k=1.0, L=1.0, delta=0.5)
        rep = dg.energy(state, phys, RegParams(alpha=0.0))
        assert rep.kinetic == 0.0
        assert rep.pressure_pot == 0.0
        # eta log eta extends by 0, leaving the +1 under the kL factor
        assert rep.polymer_entropy == pytest.approx(1.0, rel=1e-13)
        assert rep.eta_diss == 0.0
        assert math.isfinite(rep.total)

    def test_artificial_pressure_term(self):
        state = unit_state(rho=2.0)
        phys = PhysParams(a=1.0, gamma=2.0)
        rep = dg.energy(state, phys, RegParams(sigma1=0.5, Gamma=4.0))
        assert rep.artificial_pot == pytest.approx(0.5 / 3.0 * 2.0**4, rel=1e-13)

    def test_not_spd_with_alpha(self):
        state = unit_state()
        data = state.T.xx.copy()
        yy = state.T.yy.copy()
        yy[3, 4] = -0.1
        bad = SymTensorField2D(state.T.grid, data, state.T.xy.copy(), yy)
        bad_state = SimState(0.0, state.rho, state.u, state.eta, bad)
        with pytest.raises(NotSPDError):
            dg.energy(bad_state, PhysParams(), RegParams(alpha=0.1))
        # without the log terms the same field is merely reported, not fatal
        rep = dg.energy(bad_state, PhysParams(), RegParams(alpha=0.0))
        assert math.isfinite(rep.total)

    @pytest.mark.parametrize("alpha", [0.0, 0.07])
    def test_nonnegative_on_random_states(self, alpha):
        rng = np.random.default_rng(20260817)
        g = Grid2D(12, 12, 1.0, 1.0)
        X, Y = g.cell_centers()
        phys = PhysParams(a=0.7, gamma=1.6, k=0.9, L=1.1, delta=0.3)
        reg = RegParams(alpha=alpha)
        for _ in range(10):
            rho = np.exp(0.5 * rng.normal() * np.cos(np.pi * X))
            eta = np.exp(0.4 * rng.normal() * np.cos(np.pi * Y))
            ux = rng.normal() * np.sin(np.pi * X) * np.sin(np.pi * Y)
            s1 = np.exp(0.8 * rng.normal() * np.cos(np.pi * X))
            s2 = np.exp(0.8 * rng.normal() * np.cos(2 * np.pi * Y))
            state = SimState(
                0.0,
                ScalarField2D(g, rho),
                VectorField2D(g, ux, 0.3 * ux),
                ScalarField2D(g, eta),
                SymTensorField2D(g, s1, np.zeros_like(s1), s2),
            )
            rep = dg.energy(state, phys, reg)
            assert rep.total >= 0.0
            for name in ("eta_diss", "newtonian_diss", "stress_relax",
                         "inverse_term", "log_grad", "eta_source", "const_source"):
                val = getattr(rep, name)
                assert math.isfinite(val) and val >= 0.0


class TestEnergyResidual:
    def test_empty_series(self):
        assert dg.energy_inequality_residual([]) == 0.0
        assert dg.energy_residual_series([]) == []

    def test_synthetic_frozen(self):
        reports = [
            report_with(0.0, 1.0, 0.2),
            report_with(0.5, 1.4, 0.4),
            report_with(1.0, 1.3, 0.6),
        ]
        series = dg.energy_residual_series(reports)
        assert series == pytest.approx(list(SYNTHETIC_RESIDUALS), rel=1e-12)
        assert dg.energy_inequality_residual(reports) == pytest.approx(0.35, rel=1e-12)
        # the two-sided gap agrees where the one-sided residual is positive
        assert dg.energy_budget_gap(reports) == pytest.approx(0.35, rel=1e-12)
        # a NaN report is not skipped
        poisoned = reports + [report_with(1.5, math.nan, 0.6)]
        assert math.isnan(dg.energy_inequality_residual(poisoned))
        assert math.isnan(dg.energy_budget_gap(poisoned))

    def test_budget_gap_sees_extra_dissipation(self):
        # energy drops faster than the recorded rates account for: the
        # one-sided residual forgives that, the two-sided gap does not
        reports = [report_with(0.0, 2.0, 0.5), report_with(1.0, 1.0, 0.5)]
        assert dg.energy_inequality_residual(reports) == 0.0
        assert dg.energy_budget_gap(reports) == pytest.approx(0.5 / 3.0, rel=1e-12)
        assert dg.energy_budget_gap([]) == 0.0

    @seed(20260817)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=8))
    def test_one_sided(self, drops):
        # strictly dissipating series with no recorded rates: residual stays 0
        totals = 10.0 + np.concatenate([[0.0], -np.cumsum(drops)])
        reports = [report_with(0.1 * i, tot, 0.0) for i, tot in enumerate(totals)]
        assert dg.energy_inequality_residual(reports) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_equilibrium_run(self, alpha):
        g = Grid2D(16, 16, 1.0, 1.0)
        phys = PhysParams()
        reg = RegParams(alpha=alpha)
        state = equilibrium_state(g, phys, reg, rho_bar=1.0, eta_bar=1.2)
        rec = dg.TimeseriesRecorder(phys, reg)
        itg.run(state, phys, reg,
                itg.StepConfig(dt=1e-3, t_end=0.2, scheme="rk2", diag_every=10),
                diag_hooks=[rec.hook])
        assert dg.energy_inequality_residual(rec.reports) <= 1e-10


class TestConservation:
    def test_identity(self):
        state = perturbed_state(8)
        assert dg.conservation(state, state) == (0.0, 0.0)

    def test_fault_injection(self):
        state = perturbed_state(8)
        tampered = state.copy()
        tampered.rho.data[2, 2] += 1e-3
        drift, _ = dg.conservation(tampered, state)
        assert drift > 1e-6

    def test_short_run(self):
        state = perturbed_state(16)
        phys = PhysParams(muS=0.05, eps=0.05)
        reg = RegParams(alpha=0.0)
        res = itg.run(state, phys, reg,
                      itg.StepConfig(dt=1e-3, t_end=0.05, scheme="rk2"))
        mass_drift, eta_drift = dg.conservation(res.final, state)
        assert mass_drift <= 1e-11
        assert eta_drift <= 1e-11


class TraceStats(NamedTuple):
    inv_trace: float  # int tr(T^-1); nan when T is not SPD
    entropy_trace: float  # int tr(T - alpha log T); nan when alpha > 0 and not SPD


def trace_stats(T: SymTensorField2D, alpha: float = 0.0) -> TraceStats:
    """The trace integrals a run must bound; nan where they need an SPD T."""
    grid = T.grid
    lam1, lam2 = symcalc.eig_fields(T.xx, T.xy, T.yy)
    tr_t = T.xx + T.yy
    if np.all(lam2 > 0.0) and np.all(np.isfinite(lam2)):
        det = T.xx * T.yy - T.xy**2
        inv_trace = cell_sum(grid, tr_t / det)
        if alpha != 0.0:
            entropy_trace = cell_sum(grid, tr_t - alpha * (np.log(lam1) + np.log(lam2)))
        else:
            entropy_trace = cell_sum(grid, tr_t)
    else:
        inv_trace = math.nan
        entropy_trace = cell_sum(grid, tr_t) if alpha == 0.0 else math.nan
    return TraceStats(inv_trace, entropy_trace)


class TestSPDMonitor:
    def test_identity_tensor(self):
        state = unit_state()
        rep = dg.spd_monitor(state.T)
        assert rep.min_eig == 1.0
        stats = trace_stats(state.T)
        assert stats.inv_trace == pytest.approx(2.0, rel=1e-13)
        assert stats.entropy_trace == pytest.approx(2.0, rel=1e-13)
        # tr log I = 0: the alpha-weighted integral is unchanged
        stats_a = trace_stats(state.T, alpha=0.3)
        assert stats_a.entropy_trace == pytest.approx(2.0, rel=1e-13)

    def test_indefinite_cell_located(self):
        state = unit_state()
        yy = state.T.yy.copy()
        yy[5, 2] = -0.1
        T = SymTensorField2D(state.T.grid, state.T.xx.copy(), state.T.xy.copy(), yy)
        rep = dg.spd_monitor(T)
        assert rep.min_eig == pytest.approx(-0.1, rel=1e-13)
        assert rep.argmin == (5, 2)
        stats = trace_stats(T, alpha=0.1)
        assert math.isnan(stats.inv_trace)
        assert math.isnan(stats.entropy_trace)
        # with alpha = 0 the plain trace integral is still reported
        stats0 = trace_stats(T, alpha=0.0)
        assert math.isfinite(stats0.entropy_trace)

    def test_agrees_with_solver_on_far_apart_eigenvalues(self):
        # mean - radius cancels to 0 here; the solver's det / lam1 does not
        state = unit_state()
        xx, yy = state.T.xx.copy(), state.T.yy.copy()
        xx[2, 3], yy[2, 3] = 1e8, 1e-9
        T = SymTensorField2D(state.T.grid, xx, state.T.xy.copy(), yy)
        assert np.all(np.isfinite(tr_log_field(T)))
        rep = dg.spd_monitor(T)
        assert rep.min_eig == 1e-9
        assert rep.argmin == (2, 3)

    def test_healthy_run_stays_spd(self):
        state = perturbed_state(12)
        phys = PhysParams(muS=0.1, eps=0.1)
        reg = RegParams(alpha=0.1)
        minima = []
        itg.run(state, phys, reg,
                itg.StepConfig(dt=1e-3, t_end=0.05, scheme="rk2", diag_every=5),
                diag_hooks=[lambda s: minima.append(dg.spd_monitor(s.T).min_eig)])
        assert minima
        assert min(minima) > 0.0


def relaxation_distance(state: SimState, phys: PhysParams, reg: RegParams) -> float:
    """Squared L2 distance of the stress from its local relaxation target."""
    target = phys.k * (state.eta.data + reg.alpha)
    dxx = state.T.xx - target
    dyy = state.T.yy - target
    return cell_sum(state.rho.grid, dxx**2 + 2.0 * state.T.xy**2 + dyy**2)


class TestStressL2Monitor:
    def test_equilibrium_series_constant(self):
        phys = PhysParams()
        reg = RegParams(alpha=0.0)
        g = Grid2D(8, 8, 1.0, 1.0)
        state = equilibrium_state(g, phys, reg)
        times = [0.0, 0.5, 1.0, 1.5]
        rep = stress_l2_monitor(times, [state.T] * 4, phys)
        assert not rep.doubled
        assert rep.l2_series == pytest.approx([rep.sup_l2] * 4, rel=1e-13)
        expected = rep.sup_l2 * (1.0 + phys.A0 / (4.0 * phys.lam) * 1.5)
        assert rep.bound == pytest.approx(expected, rel=1e-12)

    def test_doubling_flag(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        phys = PhysParams()

        def scaled(c):
            arr = np.full((8, 8), c)
            return SymTensorField2D(g, arr, np.zeros_like(arr), arr.copy())

        times = [0.0, 0.6, 1.2]
        growing = [scaled(1.0), scaled(1.3), scaled(1.7)]  # l2 ratio 2.89 over 1.2
        assert stress_l2_monitor(times, growing, phys).doubled
        tame = [scaled(1.0), scaled(1.1), scaled(1.2)]  # l2 ratio 1.44
        assert not stress_l2_monitor(times, tame, phys).doubled

    def test_pure_relaxation_monotone(self):
        # constant-in-space fields: the stress follows the relaxation flow
        g = Grid2D(8, 8, 1.0, 1.0)
        phys = PhysParams()
        reg = RegParams(alpha=0.1)
        state = equilibrium_state(g, phys, reg)
        xx = np.full((8, 8), 2.5)
        xy = np.full((8, 8), 0.3)
        yy = np.full((8, 8), 0.8)
        state = SimState(0.0, state.rho, state.u, state.eta,
                         SymTensorField2D(g, xx, xy, yy))
        series = []
        itg.run(state, phys, reg,
                itg.StepConfig(dt=5e-3, t_end=1.0, scheme="rk2", diag_every=1),
                diag_hooks=[lambda s: series.append(relaxation_distance(s, phys, reg))])
        # distance to the target contracts by exp(-A0 t / lam) ~ 0.37 at t = 1
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(series, series[1:]))
        assert series[-1] < 0.5 * series[0]


def renormalization_residual(
    b: Callable[[np.ndarray], np.ndarray],
    rho_series: Sequence[ScalarField2D],
    u_series: Sequence[VectorField2D],
    dt: float,
    b_prime: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Max residual of d/dt int b(rho) + int (b'(rho) rho - b(rho)) div u.

    The transport term int div(b(rho) u) is included as well; it telescopes
    to zero under no-slip and costs nothing.  b must be C^1 on (0, inf) and
    continuous at 0, with derivative b_prime.
    """
    if len(rho_series) != len(u_series):
        raise ValueError("rho and velocity series must pair up")
    if len(rho_series) < 2:
        return 0.0
    grid = rho_series[0].grid

    def spatial(rho: ScalarField2D, u: VectorField2D) -> float:
        brho = b(rho.data)
        transport = cell_sum(
            grid, g2.upwind_div(u.x, u.y, brho, rho.bc, grid.hx, grid.hy)
        )
        div_u = g2.grad_x(u.x, u.bc, grid.hx) + g2.grad_y(u.y, u.bc, grid.hy)
        compress = cell_sum(grid, (b_prime(rho.data) * rho.data - brho) * div_u)
        return transport + compress

    worst = 0.0
    spatial_prev = spatial(rho_series[0], u_series[0])
    mass_prev = cell_sum(grid, b(rho_series[0].data))
    for rho, u in zip(rho_series[1:], u_series[1:]):
        spatial_next = spatial(rho, u)
        mass_next = cell_sum(grid, b(rho.data))
        residual = (mass_next - mass_prev) / dt + 0.5 * (spatial_prev + spatial_next)
        worst = max(worst, abs(residual))
        spatial_prev, mass_prev = spatial_next, mass_next
    return worst


class TestRenormalization:
    def test_constant_state_exact_zero(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        rho = ScalarField2D(g, np.full((8, 8), 1.3))
        u = VectorField2D(g, np.zeros((8, 8)), np.zeros((8, 8)))
        res = renormalization_residual(lambda s: s * s, [rho, rho], [u, u],
                                          dt=0.1, b_prime=lambda s: 2.0 * s)
        assert res == 0.0

    def _run_series(self, n, dt, t_end):
        state = perturbed_state(n)
        phys = PhysParams(muS=0.05, eps=0.05)
        reg = RegParams(alpha=0.0)
        rhos, us = [], []

        def collect(s):
            rhos.append(s.rho.copy())
            us.append(s.u.copy())

        itg.run(state, phys, reg,
                itg.StepConfig(dt=dt, t_end=t_end, scheme="rk2", diag_every=1),
                diag_hooks=[collect])
        return rhos, us

    def test_identity_matches_continuity(self):
        rhos, us = self._run_series(16, 2e-3, 0.04)
        res = renormalization_residual(lambda s: s, rhos, us, dt=2e-3,
                                          b_prime=np.ones_like)
        assert res <= 1e-11

    def test_square_first_order(self):
        coarse = self._run_series(16, 2e-3, 0.04)
        fine = self._run_series(32, 1e-3, 0.04)
        b, bp = (lambda s: s * s), (lambda s: 2.0 * s)
        r_c = renormalization_residual(b, *coarse, dt=2e-3, b_prime=bp)
        r_f = renormalization_residual(b, *fine, dt=1e-3, b_prime=bp)
        assert r_c / r_f >= 1.9  # observed order ~1.0 under (h, dt) halving

    def test_default_derivative_fallback(self):
        # a central-difference b' stands in for the exact one
        def b(s):
            return s * s

        def central(s):
            h = 1e-6 * (1.0 + np.abs(s))
            return (b(s + h) - b(s - h)) / (2.0 * h)

        rhos, us = self._run_series(12, 2e-3, 0.02)
        exact = renormalization_residual(b, rhos, us, dt=2e-3,
                                            b_prime=lambda s: 2.0 * s)
        approx = renormalization_residual(b, rhos, us, dt=2e-3, b_prime=central)
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-12)


class FittedIneq(NamedTuple):
    lhs: float
    rhs: float  # norm quantity the fitted constant multiplies
    constant: float  # lhs / rhs, or 0 when both sides vanish


class FieldIneqReport(NamedTuple):
    korn: FittedIneq
    gagliardo_nirenberg: FittedIneq
    log_grad_bound: dg.FieldIneq
    cutoff_log_grad_bound: dg.FieldIneq


def _fitted(lhs: float, rhs: float) -> FittedIneq:
    constant = lhs / rhs if rhs > 0.0 else 0.0
    return FittedIneq(lhs, rhs, constant)


def functional_ineq_checks(state: SimState, sigma3: float = 0.0) -> FieldIneqReport:
    """Evaluate both sides of each functional inequality on one snapshot.

    Korn and Gagliardo-Nirenberg come back with fitted constants (reported,
    not asserted); the two log-gradient bounds come back with margins.
    """
    grid = state.rho.grid
    jxx, jxy, jyx, jyy = velocity_jacobian(state.u)
    grad_norm = math.sqrt(cell_sum(grid, jxx**2 + jxy**2 + jyx**2 + jyy**2))
    dev_norm = math.sqrt(cell_sum(grid, dg._div_and_dev2(jxx, jxy, jyx, jyy)[1]))
    korn = _fitted(grad_norm, dev_norm)

    eta = state.eta
    l4 = cell_sum(grid, eta.data**4) ** 0.25
    l2 = math.sqrt(cell_sum(grid, eta.data**2))
    dex = g2.grad_x(eta.data, eta.bc, grid.hx)
    dey = g2.grad_y(eta.data, eta.bc, grid.hy)
    w12 = math.sqrt(cell_sum(grid, eta.data**2 + dex**2 + dey**2))
    gn = _fitted(l4, math.sqrt(l2 * w12) if l2 * w12 > 0.0 else 0.0)

    return FieldIneqReport(
        korn=korn,
        gagliardo_nirenberg=gn,
        log_grad_bound=dg.log_grad_bound(state.T),
        cutoff_log_grad_bound=dg.cutoff_log_grad_bound(state.T, sigma3),
    )


class TestFunctionalIneq:
    def test_constant_fields_trivial(self):
        state = unit_state()
        rep = functional_ineq_checks(state, sigma3=0.05)
        assert rep.log_grad_bound.lhs == 0.0
        assert rep.log_grad_bound.rhs == 0.0
        assert rep.log_grad_bound.holds
        assert rep.cutoff_log_grad_bound.holds
        assert rep.korn.constant == 0.0  # u = 0: both norms vanish

    def test_korn_shear_frozen(self):
        state = unit_state(n=16)
        _, Y = state.rho.grid.cell_centers()
        u = VectorField2D(state.rho.grid, 0.3 * Y * (1.0 - Y), np.zeros_like(Y))
        rep = functional_ineq_checks(
            SimState(0.0, state.rho, u, state.eta, state.T))
        assert rep.korn.constant == pytest.approx(KORN_SHEAR, rel=1e-12)

    def test_gn_constant_field(self):
        # eta = c on the unit square: fitted constant is exactly 1
        state = unit_state(eta=2.0)
        rep = functional_ineq_checks(state)
        assert rep.gagliardo_nirenberg.constant == pytest.approx(1.0, rel=1e-12)

    def test_scalar_exponent_family(self):
        # T = e^{s} I: tr log T = 2s, so the left side is exactly 2 int |grad s|^2
        # and each derivative contributes 2 e^{-2s} |D e^s|^2 to the right side
        g = Grid2D(32, 32, 1.0, 1.0)
        X, Y = g.cell_centers()
        s = 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        es = np.exp(s)
        T = SymTensorField2D(g, es, np.zeros_like(es), es.copy())
        res = dg.log_grad_bound(T)
        gx = g2.grad_x(s, NEUMANN, g.hx)
        gy = g2.grad_y(s, NEUMANN, g.hy)
        hand_lhs = 2.0 * g2.cell_sum(g, gx**2 + gy**2)
        dex = g2.grad_x(es, NEUMANN, g.hx)
        dey = g2.grad_y(es, NEUMANN, g.hy)
        hand_rhs = 2.0 * g2.cell_sum(g, np.exp(-2.0 * s) * (dex**2 + dey**2))
        assert res.lhs == pytest.approx(hand_lhs, rel=1e-13)
        assert res.rhs == pytest.approx(hand_rhs, rel=1e-13)
        # equality case of the bound: the two sides agree to discretization error
        assert res.holds
        assert res.rhs == pytest.approx(res.lhs, rel=2e-4)

    def test_random_spd_fields(self):
        rng = np.random.default_rng(20260817)
        g = Grid2D(32, 32, 1.0, 1.0)
        X, Y = g.cell_centers()

        def smooth(amp):
            out = np.zeros_like(X)
            for kx in range(3):
                for ky in range(3):
                    out += rng.normal() * np.cos(kx * np.pi * X) * np.cos(ky * np.pi * Y)
            return amp * out / 3.0

        for _ in range(20):
            l1, l2 = np.exp(smooth(0.6)), np.exp(smooth(0.6))
            phi = smooth(0.8)
            c, sn = np.cos(phi), np.sin(phi)
            T = SymTensorField2D(
                g,
                l1 * c * c + l2 * sn * sn,
                (l1 - l2) * c * sn,
                l1 * sn * sn + l2 * c * c,
            )
            assert dg.log_grad_bound(T).holds
            assert dg.cutoff_log_grad_bound(T, 0.05).holds

    def test_cutoff_tolerates_indefinite(self):
        g = Grid2D(8, 8, 1.0, 1.0)
        xx = np.full((8, 8), 1.0)
        yy = xx.copy()
        yy[4, 4] = -0.2  # floored up to sigma3 by the cutoff
        T = SymTensorField2D(g, xx, np.zeros_like(xx), yy)
        rep = dg.cutoff_log_grad_bound(T, 0.3)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
        with pytest.raises(NotSPDError):
            dg.log_grad_bound(T)


class TestTimeseriesCSV:
    def test_column_layout_frozen(self):
        assert dg.CSV_COLUMNS == (
            "t", "mass", "eta_mass", "E_total",
            "kinetic", "pressure_pot", "artificial_pot", "polymer_entropy",
            "polymer_quad", "stress_trace",
            "eta_diss", "newtonian_diss", "stress_relax", "inverse_term",
            "log_grad", "force_work", "eta_source", "const_source",
            "residual", "min_eig", "sup_T", "l2_T",
        )

    def _record(self, tmp_path, name):
        state = perturbed_state(8)
        phys = PhysParams(muS=0.1, eps=0.1)
        reg = RegParams(alpha=0.1)
        rec = dg.TimeseriesRecorder(phys, reg)
        itg.run(state, phys, reg,
                itg.StepConfig(dt=1e-3, t_end=0.01, scheme="rk2", diag_every=2),
                diag_hooks=[rec.hook])
        path = tmp_path / name
        dg.write_timeseries(path, rec.rows())
        return rec, path

    def test_round_trip_and_cadence(self, tmp_path):
        rec, path = self._record(tmp_path, "series.csv")
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(dg.CSV_COLUMNS)
        assert len(lines) == 1 + 6  # initial sample plus every second of 10 steps
        values = [dict(zip(dg.CSV_COLUMNS, map(float, ln.split(","))))
                  for ln in lines[1:]]
        for row, rep in zip(values, rec.reports):
            assert row["E_total"] == rep.total  # 17 digits round-trip float64
            assert row["residual"] >= 0.0
        assert values[-1]["t"] == pytest.approx(0.01, rel=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        _, path_a = self._record(tmp_path, "a.csv")
        _, path_b = self._record(tmp_path, "b.csv")
        assert path_a.read_bytes() == path_b.read_bytes()
