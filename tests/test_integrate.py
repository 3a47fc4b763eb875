"""Stepper tests: stability bound, fixed points, ODE accuracy, conservation,
blowup reporting, IMEX diffusion solves, determinism."""

import math
import re

import numpy as np
import pytest

import oracles
from oldroyd2d.grid import Grid2D, ParamError
from oldroyd2d.integrate import (
    BLOWUP_LIMIT,
    BlowupError,
    DegenerateStateError,
    RunResult,
    StepConfig,
    _check_finite,
    _neumann_heat_solve,
    _neumann_symbol,
    auto_dt,
    run,
    step,
)
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    equilibrium_state,
    state_from_components,
)
from oldroyd2d.symcalc import NotSPDError
from oldroyd2d import cli, integrate, model
from oldroyd2d import diagnostics as dg
from oldroyd2d import symcalc as sc
from oldroyd2d import grid as g2


def unit_grid(n):
    return Grid2D(n, n, 1.0, 1.0)


def perturbed_state(grid, amp=0.05, alpha=0.1, k=1.0, eta_bar=1.0):
    """Smooth compatible perturbation of the uniform equilibrium."""
    x, y = grid.cell_centers()
    shape = (grid.nx, grid.ny)
    rho = 1.0 + amp * np.cos(np.pi * x) * np.cos(np.pi * y)
    eta = eta_bar + amp * np.cos(np.pi * x)
    ux = amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    uy = -amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    t_eq = k * (eta_bar + alpha)
    txx = t_eq + amp * np.cos(np.pi * y)
    tyy = t_eq - amp * np.cos(np.pi * y)
    txy = 0.1 * amp * np.sin(np.pi * x) * np.sin(np.pi * y)
    return state_from_components(0.0, grid, rho, ux, uy, eta, txx, txy, tyy)


class TestStepConfig:
    def test_defaults(self):
        cfg = StepConfig()
        assert cfg.dt is None and cfg.cfl == 0.4 and cfg.scheme == "rk2"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(dt=0.0),
            dict(t_end=-1.0),
            dict(cfl=0.0),
            dict(cfl=1.5),
            dict(scheme="rk4"),
            dict(diag_every=0),
            dict(t_end=math.inf),
            dict(t_end=math.nan),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ParamError) as err:
            StepConfig(**kw)
        assert err.value.keys == tuple(kw)


class TestAutoDt:
    def test_diffusion_dominated_formula(self):
        g = unit_grid(16)
        phys = PhysParams(eps=2.0, muS=0.01, muB=0.0)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        cfg = StepConfig(cfl=0.4)
        want = 0.4 * g.hx**2 / (4.0 * 2.0)
        assert auto_dt(state, phys, reg, cfg) == pytest.approx(want, rel=1e-12)

    def test_doubling_eps_halves_dt(self):
        g = unit_grid(16)
        reg = RegParams()
        cfg = StepConfig()
        dts = []
        for eps in (1.0, 2.0):
            phys = PhysParams(eps=eps, muS=0.01)
            state = equilibrium_state(g, phys, reg)
            dts.append(auto_dt(state, phys, reg, cfg))
        assert dts[0] == pytest.approx(2.0 * dts[1], rel=1e-12)

    def test_advective_limit_governs_fast_flow(self):
        g = unit_grid(16)
        phys = PhysParams(eps=1e-4, muS=1e-4)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        state.components()[1][:] = 50.0
        cfg = StepConfig(cfl=0.4)
        c_max = math.sqrt(phys.a * phys.gamma)  # rho = 1
        want_adv = 0.4 * g.hx / (50.0 + c_max)
        got = auto_dt(state, phys, reg, cfg)
        assert got == pytest.approx(want_adv, rel=1e-12)
        # and the diffusive branch alone would have allowed a larger step
        assert got < 0.4 * g.hx**2 / (4.0 * 1e-4)

    def test_degenerate_density(self):
        g = unit_grid(8)
        phys = PhysParams()
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        state.components()[0][2, 2] = 0.0
        with pytest.raises(DegenerateStateError):
            auto_dt(state, phys, reg, StepConfig())

    @pytest.mark.parametrize("kwargs, rho_bar, cause", [
        # (muS + muB) / rho_min overflows 4 * diffusivity
        (dict(muS=1e308), 1.0, r"diffusive bound: diffusivity 1\.0+e\+308 over h\^2 = \S+"),
        # 1.5 ** gamma overflows the pressure derivative, so the sound speed
        (dict(gamma=1e308), 1.5, r"advective bound: max \|u\| = 0\.000e\+00, "
                                 r"sound speed c = inf"),
        # A0 / (2 lambda) overflows and 2 lambda / A0 underflows to zero
        (dict(A0=1e308, lam=1e-300), 1.0, r"relaxation bound: rate A0 / \(2 lambda\) = inf"),
    ])
    def test_vanished_bound_names_itself(self, kwargs, rho_bar, cause):
        g = unit_grid(8)
        phys = PhysParams(**kwargs)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg, rho_bar=rho_bar)
        with np.errstate(all="ignore"), pytest.raises(DegenerateStateError) as err:
            auto_dt(state, phys, reg, StepConfig())
        assert re.fullmatch(r"stability bound dt = 0\.0 vanished in the " + cause,
                            str(err.value))

    def test_relaxation_limit_governs_stiff_relaxation(self):
        g = unit_grid(16)
        phys = PhysParams(eps=0.01, muS=0.01, lam=1e-3, A0=2.0)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        got = auto_dt(state, phys, reg, StepConfig(cfl=0.4))
        assert got == 0.4 * 2.0 * 1e-3 / 2.0
        # (A0 / 2 lam) * dt stays at cfl, so the explicit relaxation is monotone
        assert phys.A0 / (2.0 * phys.lam) * got <= 0.4 + 1e-15

    def test_stiff_relaxation_run_stays_spd(self):
        # Without the relaxation bound auto picks dt = 7.99e-3, where
        # (A0 / 2 lam) * dt = 4.0, and the run aborts with NotSPDError at
        # t = 0.016: an unstable explicit step, not a loss of definiteness.
        cfg = cli.parse_config(
            "nx = 32\nny = 32\nmuS = 0.01\neps = 0.01\nlambda = 1e-3\n"
            "initial = perturbed-equilibrium\nt_end = 0.05\n")
        initial = cli.build_initial(cfg)
        assert auto_dt(initial, cfg.phys, cfg.reg, cfg.step) == pytest.approx(8e-4, rel=1e-12)
        rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
        result = run(initial, cfg.phys, cfg.reg, cfg.step, diag_hooks=(rec.hook,))
        rows = rec.rows()
        assert result.steps == 63
        assert min(row["min_eig"] for row in rows) > 1.0
        assert max(row["residual"] for row in rows) <= 1e-6
        mass_drift, eta_drift = dg.conservation(result.final, initial)
        assert mass_drift <= 1e-11 and eta_drift <= 1e-11

    def test_sigma2_enters_explicit_bound_only(self):
        g = unit_grid(16)
        phys = PhysParams(eps=0.01, muS=0.01)
        reg = RegParams(sigma2=5.0)
        state = equilibrium_state(g, phys, reg)
        explicit = auto_dt(state, phys, reg, StepConfig(scheme="rk2"))
        imex = auto_dt(state, phys, reg, StepConfig(scheme="imex"))
        assert explicit == pytest.approx(0.4 * g.hx**2 / (4.0 * 5.0), rel=1e-12)
        assert imex > 10.0 * explicit


class TestEquilibriumFixedPoint:
    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    def test_single_step_fixed(self, scheme):
        g = unit_grid(8)
        phys = PhysParams(eps=0.3, muS=0.2, delta=0.1)
        reg = RegParams(alpha=0.1)
        state = equilibrium_state(g, phys, reg, rho_bar=1.2, eta_bar=0.9)
        cfg = StepConfig(dt=1e-3, scheme=scheme)
        out = step(state, phys, reg, cfg, dt=cfg.dt)
        rho, ux, _, eta, txx, txy, _ = out.components()
        rho0, _, _, eta0, txx0, _, _ = state.components()
        assert np.abs(rho - rho0).max() <= 1e-12
        assert np.abs(ux).max() <= 1e-12
        assert np.abs(eta - eta0).max() <= 1e-12
        assert np.abs(txx - txx0).max() <= 1e-12
        assert np.abs(txy).max() <= 1e-12


class TestRelaxationAccuracy:
    def _uniform_relax_error(self, dt, n_steps):
        g = unit_grid(4)
        phys = PhysParams(k=1.0, A0=2.0, lam=0.5, eps=0.3)
        reg = RegParams(alpha=0.1)
        shape = (4, 4)
        t0 = 3.0
        state = state_from_components(
            0.0, g, np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape),
            np.full(shape, t0), np.zeros(shape), np.full(shape, t0))
        cfg = StepConfig(dt=dt)
        for _ in range(n_steps):
            state = step(state, phys, reg, cfg, dt=cfg.dt)
        rate = phys.A0 / (2 * phys.lam)
        t_eq = phys.k * (1.0 + reg.alpha)
        exact = t_eq + (t0 - t_eq) * math.exp(-rate * n_steps * dt)
        return abs(state.components()[4][0, 0] - exact)

    def test_matches_exponential(self):
        err = self._uniform_relax_error(1e-3, 200)
        assert err < 1e-6

    def test_second_order_in_dt(self):
        e_coarse = self._uniform_relax_error(0.02, 50)
        e_fine = self._uniform_relax_error(0.01, 100)
        order = math.log2(e_coarse / e_fine)
        assert order >= 1.9

    def test_smooth_pde_self_convergence(self):
        g = unit_grid(8)
        phys = PhysParams(eps=0.2, muS=0.1)
        reg = RegParams(alpha=0.1)
        base = perturbed_state(g, amp=0.02)

        def final_state(dt, n):
            s = base.copy()
            cfg = StepConfig(dt=dt)
            for _ in range(n):
                s = step(s, phys, reg, cfg, dt=cfg.dt)
            return s

        ref = final_state(2.5e-4, 64)
        errs = []
        for dt, n in ((2e-3, 8), (1e-3, 16)):
            _, ux, _, _, txx, _, _ = final_state(dt, n).components()
            _, ux_ref, _, _, txx_ref, _, _ = ref.components()
            errs.append(np.abs(txx - txx_ref).max() + np.abs(ux - ux_ref).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.5


class TestConservation:
    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    def test_mass_and_eta_over_run(self, scheme):
        g = unit_grid(16)
        phys = PhysParams(eps=0.1, muS=0.05)
        reg = RegParams(alpha=0.1, sigma2=0.02 if scheme == "rk2" else 0.0)
        state = perturbed_state(g)
        rho, _, _, eta, *_ = state.components()
        mass0 = g2.cell_sum(state.grid, rho)
        eta0 = g2.cell_sum(state.grid, eta)
        cfg = StepConfig(t_end=0.1, scheme=scheme)
        result = run(state, phys, reg, cfg)
        rho, _, _, eta, *_ = result.final.components()
        mass1 = g2.cell_sum(result.final.grid, rho)
        eta1 = g2.cell_sum(result.final.grid, eta)
        assert abs(mass1 - mass0) <= 1e-11 * abs(mass0)
        assert abs(eta1 - eta0) <= 1e-11 * abs(eta0)
        assert result.steps > 0

    def test_imex_density_diffusion_on_odd_grid(self):
        # sigma2 > 0: rho takes the implicit solve too, on odd sizes in both axes
        g = Grid2D(9, 13, 1.0, 1.3)
        phys = PhysParams(eps=0.1, muS=0.05)
        reg = RegParams(alpha=0.1, sigma2=0.02)
        state = perturbed_state(g)
        result = run(state, phys, reg, StepConfig(t_end=0.1, scheme="imex"))
        mass_drift, eta_drift = dg.conservation(result.final, state)
        assert mass_drift <= 1e-11 and eta_drift <= 1e-11
        assert result.steps > 0


class TestRun:
    def test_zero_t_end_returns_initial(self):
        g = unit_grid(8)
        phys = PhysParams()
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        calls = []
        result = run(state, phys, reg, StepConfig(t_end=0.0), diag_hooks=[calls.append])
        assert result.steps == 0
        # the hooks still see the initial state, so a summary has one row
        assert [s.t for s in calls] == [0.0]
        assert np.array_equal(result.final.components()[0], state.components()[0])

    def test_t_end_inside_restart_tolerance_records_once(self):
        g = unit_grid(8)
        phys = PhysParams()
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        state.t = 1e17  # t + 0.01 rounds back to t
        calls = []
        result = run(state, phys, reg, StepConfig(t_end=0.01), diag_hooks=[calls.append])
        assert result.steps == 0 and [s.t for s in calls] == [1e17]

    def test_step_that_cannot_advance_t_aborts(self):
        g = unit_grid(8)
        phys = PhysParams()
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        state.t = 1e17  # t + dt == t for dt = 0.001
        calls = []

        def bounded(s):
            calls.append(s.t)
            assert len(calls) <= 3, "the run kept stepping without advancing t"

        with pytest.raises(DegenerateStateError) as err:
            run(state, phys, reg, StepConfig(dt=0.001, t_end=1e4), diag_hooks=[bounded])
        assert calls == [1e17]
        assert str(err.value) == ("time step dt=0.001 does not advance t=1e+17"
                                  " (run failed at t=1e+17)")

    def test_diag_cadence_and_hooks(self):
        g = unit_grid(8)
        phys = PhysParams(eps=0.2, muS=0.1)
        reg = RegParams(alpha=0.1)
        state = perturbed_state(g)

        times, max_u = [], []

        def hook(s):
            times.append(s.t)
            max_u.append(float(np.abs(s.components()[1]).max()))

        cfg = StepConfig(dt=1e-3, t_end=0.02, diag_every=5)
        result = run(state, phys, reg, cfg, diag_hooks=[hook])
        assert result.steps == 20
        assert len(times) == len(max_u) == 5
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.02, abs=1e-12)

    def test_deterministic(self):
        g = unit_grid(8)
        phys = PhysParams(eps=0.2, muS=0.1)
        reg = RegParams(alpha=0.1)
        cfg = StepConfig(t_end=0.05)
        t1, t2 = [], []
        r1 = run(perturbed_state(g), phys, reg, cfg, diag_hooks=[lambda s: t1.append(s.t)])
        r2 = run(perturbed_state(g), phys, reg, cfg, diag_hooks=[lambda s: t2.append(s.t)])
        rho1, _, _, _, txx1, _, _ = r1.final.components()
        rho2, _, _, _, txx2, _, _ = r2.final.components()
        assert np.array_equal(rho1, rho2)
        assert np.array_equal(txx1, txx2)
        assert t1 == t2

    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    def test_step_builds_one_state(self, scheme, monkeypatch):
        # the stages run on plain arrays; only the returned state is built
        built = []

        def counted(t, *args):
            built.append(t)
            return state_from_components(t, *args)
        monkeypatch.setattr(integrate, "state_from_components", counted)
        state = perturbed_state(unit_grid(8))
        reg = RegParams(alpha=0.1, sigma2=0.1)
        new = step(state, PhysParams(), reg, StepConfig(scheme=scheme), dt=1e-4)
        assert built == [new.t]

    @pytest.mark.parametrize("scheme, laps", [("rk2", 10), ("imex", 0)])
    def test_step_shares_faces_and_jacobian(self, scheme, laps, monkeypatch):
        # each stage builds its face velocities and velocity Jacobian once, and
        # the IMEX stages never build the laplacians the implicit solve handles
        calls = {"face_velocities": 0, "velocity_jacobian": 0, "lap": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for module in (g2, model, integrate):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        reg = RegParams(alpha=0.1, sigma2=0.01)
        step(perturbed_state(unit_grid(8)), PhysParams(), reg, StepConfig(scheme=scheme), dt=1e-4)
        assert calls == {"face_velocities": 2, "velocity_jacobian": 2, "lap": laps}

    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    def test_step_takes_one_momentum_divergence_per_stage(self, scheme, monkeypatch):
        # the momentum assembly takes one divergence of its total stress, and
        # tr log T of an SPD stress needs no eigendecomposition: per stage, 4
        # gradients build the Jacobian, 4 the divergence and 2 grad rho (sigma2)
        calls = {"grad": 0, "tensor_divergence": 0, "eig_fields": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for name in ("grad_x", "grad_y"):
            monkeypatch.setattr(g2, name, counted("grad", getattr(g2, name)))
        monkeypatch.setattr(g2, "tensor_divergence",
                            counted("tensor_divergence", g2.tensor_divergence))
        monkeypatch.setattr(sc, "eig_fields", counted("eig_fields", sc.eig_fields))
        reg = RegParams(alpha=0.1, sigma2=0.01)
        step(perturbed_state(unit_grid(8)), PhysParams(), reg, StepConfig(scheme=scheme), dt=1e-4)
        assert calls == {"grad": 20, "tensor_divergence": 2, "eig_fields": 0}

    def test_error_carries_failing_time(self):
        g = unit_grid(8)
        phys = PhysParams(eps=1.0)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        rng = np.random.default_rng(0)
        txx = state.components()[4]
        txx += BLOWUP_LIMIT / 10 * rng.random((8, 8))
        cfg = StepConfig(dt=1.0, t_end=5.0)  # far beyond the stability bound
        with pytest.raises(BlowupError) as err:
            run(state, phys, reg, cfg)
        assert "run failed at t=" in str(err.value)

    def test_hook_abort_carries_failing_time(self):
        # auto_dt ignores the stress size, so with k = 1000 an unstable
        # explicit step drives the stress indefinite; the diagnostics hook
        # after that step is the first to see it
        cfg = cli.parse_config(
            "nx = 32\nny = 32\nk = 1000\nlambda = 100\nmuS = 0.01\neps = 0.01\n"
            "amp = 0.5\ninitial = perturbed-equilibrium\nt_end = 0.15\n")
        rec = dg.TimeseriesRecorder(cfg.phys, cfg.reg)
        seen = []

        def hook(state):
            seen.append(state.t)
            return rec.hook(state)
        with pytest.raises(NotSPDError) as err:
            run(cli.build_initial(cfg), cfg.phys, cfg.reg, cfg.step, diag_hooks=(hook,))
        # the run is unstable, so the failing time moves with the rounding of a step
        assert str(err.value).endswith("in energy report (run failed at t=0.0914858)")
        assert str(err.value).endswith(f"(run failed at t={seen[-1]:.6g})")

    def test_auto_dt_abort_carries_failing_time(self, monkeypatch):
        calls = []

        def vacuum_on_second_call(state, phys, reg, cfg):
            calls.append(state.t)
            if len(calls) == 2:
                raise DegenerateStateError("density minimum at or below floor")
            return 1e-3

        monkeypatch.setattr(integrate, "auto_dt", vacuum_on_second_call)
        with pytest.raises(DegenerateStateError) as err:
            run(perturbed_state(unit_grid(8)), PhysParams(eps=0.2, muS=0.1),
                RegParams(alpha=0.1), StepConfig(t_end=0.05))
        assert calls == [0.0, 1e-3]
        assert str(err.value) == "density minimum at or below floor (run failed at t=0.001)"


class TestBlowup:
    def test_unstable_step_raises(self):
        g = unit_grid(8)
        phys = PhysParams(eps=1.0)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        rng = np.random.default_rng(1)
        txx = state.components()[4]
        txx += 1e11 * rng.random((8, 8))
        with pytest.raises(BlowupError):
            # dt far above the diffusive limit amplifies the noise at once
            step(state, phys, reg, StepConfig(dt=10.0), dt=10.0)

    def test_error_names_component_and_cell(self):
        g = unit_grid(8)
        phys = PhysParams(eps=1.0)
        reg = RegParams()
        state = equilibrium_state(g, phys, reg)
        rng = np.random.default_rng(1)
        txx = state.components()[4]
        txx += 1e11 * rng.random((8, 8))
        with pytest.raises(BlowupError) as err:
            step(state, phys, reg, StepConfig(dt=10.0), dt=10.0)
        # the density is checked first and is already out of range
        assert str(err.value).startswith("field magnitude ")
        assert str(err.value).endswith(" at t=10 in rho at cell (1, 1)")

    @pytest.mark.parametrize("index, name", [
        (0, "rho"), (1, "rho*u_x"), (2, "rho*u_y"), (3, "eta"),
        (4, "T_xx"), (5, "T_xy"), (6, "T_yy"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0 * BLOWUP_LIMIT])
    def test_check_finite_names_first_failing_component(self, index, name, bad):
        y = [np.ones((6, 5)) for _ in range(7)]
        y[index][4, 2] = bad
        if index < 6:
            y[index + 1][1, 1] = np.nan  # a later failure is not reported
        with pytest.raises(BlowupError) as err:
            _check_finite(y, 0.5)
        assert str(err.value).endswith(f" at t=0.5 in {name} at cell (4, 2)")


# the implicit solve's grids: square, then odd and non-square sizes with
# anisotropic spacing, where the transform's DC row, Nyquist column and
# unpaired middle rows differ from the even square case
SOLVE_GRIDS = [
    (16, 16, 1.0, 1.0, 0.37),
    (12, 40, 2.0, 0.5, 1e-3),
    (256, 256, 1.0, 1.0, 2.5e-6),
    (5, 7, 1.0, 1.0, 0.2),
    (9, 12, 1.3, 0.7, 0.05),
]


class TestImex:
    @pytest.mark.parametrize("nx, ny, lx, ly, kappa_dt", [
        (16, 16, 1.0, 1.0, 0.37),
        (5, 7, 1.0, 1.0, 0.2),
        (9, 12, 1.3, 0.7, 0.05),
        (9, 13, 0.6, 1.7, 0.01),
    ])
    def test_heat_solve_algebraic_identity(self, nx, ny, lx, ly, kappa_dt):
        # x - kappa*lap(x) must reproduce the right-hand side exactly
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(3)
        b = rng.standard_normal((nx, ny))
        x = _neumann_heat_solve(b, 1.0 - kappa_dt * _neumann_symbol(g))
        recon = x - kappa_dt * g2.lap(x, "scalar-Neumann", g.hx, g.hy)
        assert np.abs(recon - b).max() <= 1e-11 * (1.0 + np.abs(b).max())

    @pytest.mark.parametrize("nx, ny, lx, ly, kappa_dt", SOLVE_GRIDS)
    def test_shared_denominator_matches_per_call_solve_bitwise(self, nx, ny, lx, ly,
                                                                kappa_dt):
        g = Grid2D(nx, ny, lx, ly)
        b = np.random.default_rng(nx + ny).standard_normal((nx, ny))
        keep = b.copy()
        x = _neumann_heat_solve(b, 1.0 - kappa_dt * _neumann_symbol(g))
        assert np.array_equal(x, oracles.neumann_heat_solve_fft(keep, kappa_dt, g.hx, g.hy))
        assert np.array_equal(b, keep)

    @pytest.mark.parametrize("nx, ny, lx, ly, kappa_dt", SOLVE_GRIDS)
    def test_matches_scipy_dct_solve_to_rounding(self, nx, ny, lx, ly, kappa_dt):
        # the numpy.fft route and scipy.fft's DCT round differently; both are
        # within a few ulp of max|b| (at most 2.2 measured over these grids)
        g = Grid2D(nx, ny, lx, ly)
        b = np.random.default_rng(nx + ny).standard_normal((nx, ny))
        x = _neumann_heat_solve(b, 1.0 - kappa_dt * _neumann_symbol(g))
        ref = oracles.neumann_heat_solve_np(b, kappa_dt, g.hx, g.hy)
        assert np.abs(x - ref).max() <= 8 * np.finfo(float).eps * np.abs(b).max()

    def test_large_dt_stays_bounded(self):
        g = unit_grid(16)
        phys = PhysParams(eps=5.0, muS=0.01)
        reg = RegParams(alpha=0.1)
        state = perturbed_state(g)
        explicit_limit = 0.4 * g.hx**2 / (4 * phys.eps)
        cfg = StepConfig(dt=20 * explicit_limit, scheme="imex")
        s = state
        for _ in range(20):
            s = step(s, phys, reg, cfg, dt=cfg.dt)
        _, _, _, eta, txx, _, _ = s.components()
        assert np.abs(eta).max() < 10.0
        assert np.abs(txx).max() < 10.0

    def test_matches_rk2_on_smooth_run(self):
        g = unit_grid(8)
        phys = PhysParams(eps=0.2, muS=0.1)
        reg = RegParams(alpha=0.1)
        state = perturbed_state(g, amp=0.02)
        cfg_a = StepConfig(dt=5e-4, t_end=0.02, scheme="rk2")
        cfg_b = StepConfig(dt=5e-4, t_end=0.02, scheme="imex")
        ra = run(state, phys, reg, cfg_a)
        rb = run(state, phys, reg, cfg_b)
        _, _, _, eta_a, txx_a, _, _ = ra.final.components()
        _, _, _, eta_b, txx_b, _, _ = rb.final.components()
        assert np.abs(eta_a - eta_b).max() < 5e-4
        assert np.abs(txx_a - txx_b).max() < 5e-3
