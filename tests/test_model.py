"""Model RHS tests: parameter validation, pointwise formulas, equilibria,
conservation, the relaxation ODE, and a brute-force sigma3 assembly oracle."""

import math

import numpy as np
import pytest

import oracles
from oldroyd2d import grid as g2
from oldroyd2d.grid import Grid2D, cell_sum
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    equilibrium_state,
    newtonian_stress,
    polymer_pressure,
    pressure,
    rhs_continuity,
    rhs_eta,
    rhs_momentum,
    rhs_stress,
    state_from_components,
    tr_log_field,
    velocity_jacobian,
)
from oldroyd2d.symcalc import NotSPDError

PRESSURE_2_WITH_ART = 5.6  # 1*2^2 + 0.1*2^4


def unit_grid(n):
    return Grid2D(n, n, 1.0, 1.0)


def make_state(grid, rho, ux, uy, eta, txx, txy, tyy, t=0.0):
    return state_from_components(t, grid, rho, ux, uy, eta, txx, txy, tyy)


def stage(grid, comps):
    """The face bundle and the velocity Jacobian that a stage hands its terms."""
    _, ux, uy, *_ = comps
    return g2.face_velocities(ux, uy), velocity_jacobian(grid, ux, uy)


def random_state(grid, seed, spd_shift=3.0):
    rng = np.random.default_rng(seed)
    shape = (grid.nx, grid.ny)
    rho = 1.0 + 0.5 * rng.random(shape)
    eta = 1.0 + 0.5 * rng.random(shape)
    ux = rng.standard_normal(shape)
    uy = rng.standard_normal(shape)
    txy = 0.3 * rng.standard_normal(shape)
    txx = spd_shift + rng.random(shape)
    tyy = spd_shift + rng.random(shape)
    return make_state(grid, rho, ux, uy, eta, txx, txy, tyy)


class TestParams:
    def test_defaults_valid(self):
        PhysParams()
        RegParams()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(a=0.0),
            dict(gamma=1.0),
            dict(muS=0.0),
            dict(muB=-1.0),
            dict(eps=0.0),
            dict(k=0.0),
            dict(L=-1.0),
            dict(delta=-0.1),
            dict(L=0.0, delta=0.0),
            dict(lam=0.0),
            dict(A0=0.0),
        ],
    )
    def test_phys_rejects(self, kw):
        with pytest.raises(ValueError):
            PhysParams(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=-0.1),
            dict(theta=0.0),
            dict(sigma1=0.1, Gamma=3.0),
            dict(sigma3=0.05, alpha=0.0),
            dict(sigma3=0.05, alpha=0.1, theta=0.01),
            dict(sigma3=0.2, alpha=0.1, theta=0.5),
        ],
    )
    def test_reg_rejects(self, kw):
        with pytest.raises(ValueError):
            RegParams(**kw)

    def test_reg_accepts_active_cutoff(self):
        RegParams(alpha=0.1, sigma3=0.05, theta=0.1)


class TestPressure:
    def test_power_law(self):
        p = pressure(np.full((4, 4), 3.0), PhysParams(a=1.0, gamma=2.0), RegParams())
        assert np.allclose(p, 9.0, atol=0.0)

    def test_vacuum(self):
        p = pressure(np.zeros((4, 4)), PhysParams(gamma=1.4), RegParams())
        assert np.all(p == 0.0)

    def test_artificial_component_frozen(self):
        p = pressure(np.full((4, 4), 2.0), PhysParams(a=1.0, gamma=2.0),
                     RegParams(sigma1=0.1, Gamma=4.0))
        assert np.allclose(p, PRESSURE_2_WITH_ART, atol=1e-14)


class TestNewtonianStress:
    def test_zero_velocity(self):
        g = unit_grid(8)
        sxx, sxy, syy = newtonian_stress(
            velocity_jacobian(g, np.zeros((8, 8)), np.zeros((8, 8))), PhysParams())
        assert np.all(sxx == 0.0) and np.all(sxy == 0.0) and np.all(syy == 0.0)

    def test_dilation_gives_bulk_only(self):
        # u = (x, y) has grad u = I on the interior: deviatoric part drops out
        g = unit_grid(16)
        x, y = g.cell_centers()
        sxx, sxy, syy = newtonian_stress(velocity_jacobian(g, x, y), PhysParams(muS=0.7, muB=0.3))
        inner = slice(1, -1)
        assert np.allclose(sxx[inner, inner], 2 * 0.3, atol=1e-13)
        assert np.allclose(sxy[inner, inner], 0.0, atol=1e-13)
        assert np.allclose(syy[inner, inner], 2 * 0.3, atol=1e-13)

    def test_shear_symmetrizes(self):
        # u = (y, 0): grad u = [[0,1],[0,0]], S = muS [[0, 1/2], [1/2, 0]]
        g = unit_grid(16)
        _, y = g.cell_centers()
        jac = velocity_jacobian(g, y, np.zeros_like(y))
        sxx, sxy, syy = newtonian_stress(jac, PhysParams(muS=2.0, muB=0.0))
        inner = slice(1, -1)
        assert np.allclose(sxx[inner, inner], 0.0, atol=1e-13)
        assert np.allclose(sxy[inner, inner], 1.0, atol=1e-13)
        assert np.allclose(syy[inner, inner], 0.0, atol=1e-13)


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_continuity_integral_zero(self, seed):
        g = unit_grid(12)
        state = random_state(g, seed)
        faces, _ = stage(g, state.components())
        for reg in (RegParams(), RegParams(sigma2=0.3)):
            total = cell_sum(g, rhs_continuity(g, state.components(), faces, PhysParams(), reg))
            assert abs(total) <= 1e-12 * (1.0 + np.abs(state.components()[0]).max() / g.hx)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_eta_integral_zero(self, seed):
        g = unit_grid(12)
        state = random_state(g, seed)
        faces, _ = stage(g, state.components())
        total = cell_sum(g, rhs_eta(g, state.components(), faces, PhysParams()))
        assert abs(total) <= 1e-12 * (1.0 + np.abs(state.components()[3]).max() / g.hx)

    def test_continuity_zero_velocity_no_diffusion(self):
        g = unit_grid(8)
        state = random_state(g, 9)
        _, ux, uy, *_ = state.components()
        ux[:] = 0.0
        uy[:] = 0.0
        faces, _ = stage(g, state.components())
        out = rhs_continuity(g, state.components(), faces, PhysParams(), RegParams())
        assert np.all(out == 0.0)


class TestEquilibrium:
    def test_all_rhs_vanish(self):
        g = unit_grid(8)
        phys = PhysParams(a=1.3, gamma=1.7, muS=0.4, muB=0.1, eps=0.2,
                          k=0.9, L=1.2, delta=0.3, lam=2.0, A0=1.5)
        for alpha in (0.0, 0.1):
            reg = RegParams(alpha=alpha)
            state = equilibrium_state(g, phys, reg, rho_bar=1.4, eta_bar=0.8)
            assert np.allclose(state.components()[4], phys.k * (0.8 + alpha), atol=0.0)
            comps = state.components()
            faces, jac = stage(g, comps)
            assert np.abs(rhs_continuity(g, comps, faces, phys, reg)).max() == 0.0
            assert np.abs(rhs_eta(g, comps, faces, phys)).max() == 0.0
            mx, my = rhs_momentum(g, comps, faces, jac, phys, reg)
            assert np.abs(mx).max() <= 1e-13
            assert np.abs(my).max() <= 1e-13
            s = rhs_stress(g, comps, faces, jac, phys, reg)
            assert len(s) == 3
            for comp in s:
                assert np.abs(comp).max() <= 1e-13

    def test_rejects_nonpositive_means(self):
        g = unit_grid(8)
        with pytest.raises(ValueError):
            equilibrium_state(g, PhysParams(), RegParams(), rho_bar=0.0)

    # a <= 0 check alone lets these through as a NaN or an inf state
    @pytest.mark.parametrize("name", ["rho_bar", "eta_bar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_means(self, name, value):
        with pytest.raises(ValueError, match=name):
            equilibrium_state(unit_grid(8), PhysParams(), RegParams(), **{name: value})

    def test_perturbed_stress_pure_relaxation(self):
        g = unit_grid(8)
        phys = PhysParams(A0=1.5, lam=0.75)
        reg = RegParams(alpha=0.1)
        state = equilibrium_state(g, phys, reg)
        *_, txx, _, tyy = state.components()
        txx += 0.01
        tyy += 0.01
        out = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
        rate = phys.A0 / (2 * phys.lam)  # = 1.0 here
        assert np.allclose(out[0], -rate * 0.01, atol=1e-14)
        assert np.allclose(out[1], 0.0, atol=1e-14)
        assert np.allclose(out[2], -rate * 0.01, atol=1e-14)


class TestStressRelaxationODE:
    def test_rhs_matches_exact_derivative(self):
        # u = 0, uniform eta and T: dT/dt = (k A0/2l)(eta+a) I - (A0/2l) T
        g = unit_grid(8)
        phys = PhysParams(k=0.8, A0=1.3, lam=0.65, eps=0.5)
        reg = RegParams(alpha=0.2)
        shape = (8, 8)
        t0 = np.array([[2.0, 0.3], [0.3, 1.1]])
        state = make_state(
            g,
            np.ones(shape),
            np.zeros(shape),
            np.zeros(shape),
            np.full(shape, 1.5),
            np.full(shape, t0[0, 0]),
            np.full(shape, t0[0, 1]),
            np.full(shape, t0[1, 1]),
        )
        rate = phys.A0 / (2 * phys.lam)
        t_eq = phys.k * (1.5 + reg.alpha)
        exact = -rate * (t0 - t_eq * np.eye(2))
        out = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
        assert np.allclose(out[0], exact[0, 0], atol=1e-12)
        assert np.allclose(out[1], exact[0, 1], atol=1e-12)
        assert np.allclose(out[2], exact[1, 1], atol=1e-12)

    def test_exact_solution_over_interval(self):
        # integrate the uniform relaxation exactly and check the rhs along it
        phys = PhysParams(k=1.0, A0=2.0, lam=1.0)
        reg = RegParams(alpha=0.1)
        g = unit_grid(8)
        shape = (8, 8)
        rate = phys.A0 / (2 * phys.lam)
        t_eq = phys.k * (1.0 + reg.alpha)
        t0 = np.array([[3.0, -0.4], [-0.4, 0.9]])
        for t in (0.0, 0.3, 1.7):
            decay = math.exp(-rate * t)
            tt = t_eq * np.eye(2) + (t0 - t_eq * np.eye(2)) * decay
            state = make_state(
                g,
                np.ones(shape),
                np.zeros(shape),
                np.zeros(shape),
                np.ones(shape),
                np.full(shape, tt[0, 0]),
                np.full(shape, tt[0, 1]),
                np.full(shape, tt[1, 1]),
                t=t,
            )
            out = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
            exact = -rate * (tt - t_eq * np.eye(2))
            assert np.allclose(out[0], exact[0, 0], atol=1e-12)
            assert np.allclose(out[1], exact[0, 1], atol=1e-12)
            assert np.allclose(out[2], exact[1, 1], atol=1e-12)


class TestHeatKernelDecay:
    def test_eta_decay_rate(self):
        errs = []
        for n in (32, 64):
            g = unit_grid(n)
            x, _ = g.cell_centers()
            eta = 1.0 + np.cos(np.pi * x)
            shape = (n, n)
            state = make_state(
                g, np.ones(shape), np.zeros(shape), np.zeros(shape), eta,
                np.ones(shape), np.zeros(shape), np.ones(shape),
            )
            phys = PhysParams(eps=0.7)
            faces, _ = stage(g, state.components())
            out = rhs_eta(g, state.components(), faces, phys)
            want = -phys.eps * np.pi**2 * (eta - 1.0)
            errs.append(np.abs(out - want).max())
        assert math.log2(errs[0] / errs[1]) >= 1.9


class TestMomentum:
    def test_not_spd_abort_names_cell(self):
        g = unit_grid(8)
        state = random_state(g, 2)
        *_, txx, _, tyy = state.components()
        txx[3, 5] = -2.0
        tyy[3, 5] = -2.0
        with pytest.raises(NotSPDError) as err:
            rhs_momentum(g, state.components(), *stage(g, state.components()), PhysParams(),
                         RegParams(alpha=0.1))
        assert "(3, 5)" in str(err.value)

    def test_non_finite_cell_named_before_indefinite_one(self):
        # T = 2 I with one NaN: the NaN cell is named, not a healthy one
        g = unit_grid(4)
        xx = np.full((4, 4), 2.0)
        xx[1, 2] = np.nan
        T = (xx, np.zeros((4, 4)), np.full((4, 4), 2.0))
        with pytest.raises(NotSPDError, match=r"^stress is not finite at cell \(1, 2\) "
                           r"\(eigenvalue nan\) in probe$"):
            tr_log_field(*T, context="probe")
        # an indefinite cell earlier in the array does not take precedence
        xx[0, 0] = -1.0
        with pytest.raises(NotSPDError, match=r"not finite at cell \(1, 2\)"):
            tr_log_field(*T, context="probe")
        xx[1, 2] = 2.0
        with pytest.raises(NotSPDError, match=r"^stress lost positive definiteness at "
                           r"cell \(0, 0\) \(min eigenvalue -1.000e\+00\) in probe$"):
            tr_log_field(*T, context="probe")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_all_non_finite_stress_is_not_spd_error(self, bad):
        full = np.full((4, 4), bad)
        with pytest.raises(NotSPDError, match=r"not finite at cell \(0, 0\)"):
            tr_log_field(full, np.zeros((4, 4)), full, context="probe")

    def test_overflowing_eigenvalue_of_finite_stress_is_named(self):
        # 1e300 I is finite, but its eigenvalue overflows inside eig_fields
        full = np.full((4, 4), 1e300)
        with pytest.raises(NotSPDError, match=r"^stress eigenvalue overflowed at cell \(0, 0\) "
                           r"\(T_xx = 1.000e\+300, T_xy = 0.000e\+00, T_yy = 1.000e\+300\) "
                           r"in probe$"):
            tr_log_field(full, np.zeros((4, 4)), full, context="probe")

    def test_alpha_zero_tolerates_indefinite_stress(self):
        g = unit_grid(8)
        state = random_state(g, 2)
        state.components()[4][3, 5] = -2.0
        rhs_momentum(g, state.components(), *stage(g, state.components()), PhysParams(),
                     RegParams(alpha=0.0))

    def test_zero_knobs_bit_for_bit(self):
        # inactive knob parameters (Gamma, theta) must not leak into values
        g = unit_grid(10)
        comps = random_state(g, 4).components()
        phys = PhysParams(muB=0.2, delta=0.4)
        reg_a = RegParams(alpha=0.0, sigma1=0.0, Gamma=4.0, sigma2=0.0,
                          sigma3=0.0, theta=0.1)
        reg_b = RegParams(alpha=0.0, sigma1=0.0, Gamma=7.0, sigma2=0.0,
                          sigma3=0.0, theta=0.9)
        faces, jac = stage(g, comps)
        for op, args in ((rhs_continuity, (faces,)), (rhs_momentum, (faces, jac)),
                         (rhs_stress, (faces, jac))):
            out_a, out_b = op(g, comps, *args, phys, reg_a), op(g, comps, *args, phys, reg_b)
            if op is rhs_continuity:
                out_a, out_b = [out_a], [out_b]
            for ca, cb in zip(out_a, out_b):
                assert np.array_equal(ca, cb)

    def test_sigma2_coupling_matches_manufactured(self):
        errs = []
        sigma2 = 0.6
        for n in (32, 64):
            g = unit_grid(n)
            x, y = g.cell_centers()
            ux = np.sin(np.pi * x) * np.sin(np.pi * y)
            uy = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
            rho = 2.0 + np.cos(np.pi * x) * np.cos(np.pi * y)
            shape = (n, n)
            state = make_state(g, rho, ux, uy, np.ones(shape),
                               np.ones(shape), np.zeros(shape), np.ones(shape))
            phys = PhysParams()
            comps = state.components()
            faces, jac = stage(g, comps)
            with_term = rhs_momentum(g, comps, faces, jac, phys, RegParams(sigma2=sigma2))
            without = rhs_momentum(g, comps, faces, jac, phys, RegParams())
            got_x = with_term[0] - without[0]
            # minus sigma2 * sum_j d_j u_x d_j rho, evaluated analytically
            dux_dx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            dux_dy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            drho_dx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            drho_dy = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            want_x = -sigma2 * (dux_dx * drho_dx + dux_dy * drho_dy)
            inner = slice(2, -2)
            errs.append(np.abs(got_x[inner, inner] - want_x[inner, inner]).max())
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_continuity_manufactured_order(self):
        errs = []
        for n in (64, 128):
            g = unit_grid(n)
            x, y = g.cell_centers()
            ux = np.sin(np.pi * x) * np.sin(np.pi * y)
            uy = np.sin(2 * np.pi * x) * np.sin(np.pi * y)
            rho = 2.0 + np.cos(np.pi * x) * np.cos(2 * np.pi * y)
            shape = (n, n)
            state = make_state(g, rho, ux, uy, np.ones(shape),
                               np.ones(shape), np.zeros(shape), np.ones(shape))
            faces, _ = stage(g, state.components())
            out = rhs_continuity(g, state.components(), faces, PhysParams(), RegParams())
            drho_dx = -np.pi * np.sin(np.pi * x) * np.cos(2 * np.pi * y)
            drho_dy = -2 * np.pi * np.cos(np.pi * x) * np.sin(2 * np.pi * y)
            div_u = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) + \
                np.pi * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
            want = -(ux * drho_dx + uy * drho_dy + rho * div_u)
            inner = slice(2, -2)
            errs.append(np.abs(out[inner, inner] - want[inner, inner]).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 0.8


def kramers_tensor(state: SimState, phys: PhysParams):
    """Elastic extra stress K = T - (k L eta + delta eta^2) I, as (xx, xy, yy)."""
    _, _, _, eta, txx, txy, tyy = state.components()
    solvent = polymer_pressure(eta, phys)
    return txx - solvent, txy, tyy - solvent


class TestKramersSplit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_divergence_split(self, seed):
        from oldroyd2d import grid as g2

        g = unit_grid(12)
        state = random_state(g, seed)
        phys = PhysParams(k=0.9, L=1.1, delta=0.25)
        kx, ky = g2.tensor_divergence(*kramers_tensor(state, phys), g.hx, g.hy)
        _, _, _, eta, txx, txy, tyy = state.components()
        tx, ty = g2.tensor_divergence(txx, txy, tyy, g.hx, g.hy)
        solvent = phys.k * phys.L * eta + phys.delta * eta**2
        gx = g2.grad_x(solvent, g2.NEUMANN, g.hx)
        gy = g2.grad_y(solvent, g2.NEUMANN, g.hy)
        scale = 1.0 + np.abs(tx).max() + np.abs(gx).max()
        assert np.abs(kx - (tx - gx)).max() <= 1e-12 * scale
        assert np.abs(ky - (ty - gy)).max() <= 1e-12 * scale


def brute_force_stress_rhs(state, phys, reg):
    """Dense per-cell reassembly of the stress rhs using the scalar API.

    Deliberately written with loops, np.pad ghosts, and SymMat2 calls so
    the vectorized production path is checked against a second route.
    """
    from oldroyd2d.symcalc import SymMat2

    g = state.grid
    nx, ny = g.nx, g.ny
    hx, hy = g.hx, g.hy

    def mirror(arr):
        return np.pad(arr, 1, mode="edge")

    def odd(arr):
        p = np.pad(arr, 1, mode="edge")
        p[0, :] *= -1
        p[-1, :] *= -1
        p[:, 0] *= -1
        p[:, -1] *= -1
        # corners flip twice through the two walls; rebuild them explicitly
        p[0, 0] = -p[1, 1]
        p[0, -1] = -p[1, -2]
        p[-1, 0] = -p[-2, 1]
        p[-1, -1] = -p[-2, -2]
        return p

    _, ux, uy, eta, *stress = state.components()
    if reg.sigma3 != 0.0:
        comps = np.zeros((nx, ny, 3))
        for i in range(nx):
            for j in range(ny):
                cell = SymMat2(*(float(c[i, j]) for c in stress))
                m = oracles.chi_cutoff(reg.sigma3, cell)
                comps[i, j] = (m.xx, m.xy, m.yy)
        txx, txy, tyy = comps[:, :, 0], comps[:, :, 1], comps[:, :, 2]
    else:
        txx, txy, tyy = stress

    ux_p, uy_p = odd(ux), odd(uy)
    out = np.zeros((nx, ny, 3))
    rate = phys.A0 / (2 * phys.lam)

    for comp_idx, comp in enumerate((txx, txy, tyy)):
        cp = mirror(comp)
        for i in range(nx):
            for j in range(ny):
                ii, jj = i + 1, j + 1
                # upwind fluxes on the four faces
                ue = 0.5 * (ux_p[ii, jj] + ux_p[ii + 1, jj])
                uw = 0.5 * (ux_p[ii - 1, jj] + ux_p[ii, jj])
                un = 0.5 * (uy_p[ii, jj] + uy_p[ii, jj + 1])
                us = 0.5 * (uy_p[ii, jj - 1] + uy_p[ii, jj])
                fe = ue * (cp[ii, jj] if ue > 0 else cp[ii + 1, jj])
                fw = uw * (cp[ii - 1, jj] if uw > 0 else cp[ii, jj])
                fn = un * (cp[ii, jj] if un > 0 else cp[ii, jj + 1])
                fs = us * (cp[ii, jj - 1] if us > 0 else cp[ii, jj])
                out[i, j, comp_idx] -= (fe - fw) / hx + (fn - fs) / hy

    txx_p, txy_p, tyy_p = (mirror(c) for c in stress)
    for i in range(nx):
        for j in range(ny):
            ii, jj = i + 1, j + 1
            jxx = (ux_p[ii + 1, jj] - ux_p[ii - 1, jj]) / (2 * hx)
            jxy = (ux_p[ii, jj + 1] - ux_p[ii, jj - 1]) / (2 * hy)
            jyx = (uy_p[ii + 1, jj] - uy_p[ii - 1, jj]) / (2 * hx)
            jyy = (uy_p[ii, jj + 1] - uy_p[ii, jj - 1]) / (2 * hy)
            tt = np.array([[txx[i, j], txy[i, j]], [txy[i, j], tyy[i, j]]])
            jac = np.array([[jxx, jxy], [jyx, jyy]])
            stretch = jac @ tt + tt @ jac.T
            lap_big = np.zeros((2, 2))
            for arr, (r, c) in (
                (txx_p, (0, 0)),
                (txy_p, (0, 1)),
                (tyy_p, (1, 1)),
            ):
                val = (arr[ii + 1, jj] - 2 * arr[ii, jj] + arr[ii - 1, jj]) / hx**2
                val += (arr[ii, jj + 1] - 2 * arr[ii, jj] + arr[ii, jj - 1]) / hy**2
                lap_big[r, c] = val
                lap_big[c, r] = val
            source = phys.k * rate * (eta[i, j] + reg.alpha)
            full = stretch + phys.eps * lap_big + source * np.eye(2) - rate * tt
            out[i, j, 0] += full[0, 0]
            out[i, j, 1] += full[0, 1]
            out[i, j, 2] += full[1, 1]
    return out


class TestSigma3BruteForce:
    def test_cutoff_active_everywhere(self):
        # eigenvalues of T all below sigma3: every boxed slot sees sigma3 I
        g = unit_grid(4)
        rng = np.random.default_rng(11)
        shape = (4, 4)
        txx = 0.01 * rng.random(shape)
        tyy = 0.01 * rng.random(shape)
        txy = np.zeros(shape)
        state = make_state(
            g, np.ones(shape), 0.3 * rng.standard_normal(shape),
            0.3 * rng.standard_normal(shape), 1.0 + rng.random(shape),
            txx, txy, tyy,
        )
        phys = PhysParams(eps=0.4, k=0.9, A0=1.2, lam=0.8)
        reg = RegParams(alpha=0.1, sigma3=0.05, theta=0.2)
        got = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
        want = brute_force_stress_rhs(state, phys, reg)
        assert np.abs(got[0] - want[:, :, 0]).max() <= 1e-12
        assert np.abs(got[1] - want[:, :, 1]).max() <= 1e-12
        assert np.abs(got[2] - want[:, :, 2]).max() <= 1e-12

    def test_generic_state_agrees(self):
        g = unit_grid(4)
        state = random_state(g, 21, spd_shift=0.02)
        phys = PhysParams(eps=0.4)
        reg = RegParams(alpha=0.1, sigma3=0.05, theta=0.2)
        got = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
        want = brute_force_stress_rhs(state, phys, reg)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got[0] - want[:, :, 0]).max() <= 1e-12 * scale
        assert np.abs(got[1] - want[:, :, 1]).max() <= 1e-12 * scale
        assert np.abs(got[2] - want[:, :, 2]).max() <= 1e-12 * scale

    def test_sigma3_zero_agrees_too(self):
        g = unit_grid(4)
        state = random_state(g, 22)
        phys = PhysParams()
        reg = RegParams()
        got = rhs_stress(g, state.components(), *stage(g, state.components()), phys, reg)
        want = brute_force_stress_rhs(state, phys, reg)
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got[0] - want[:, :, 0]).max() <= 1e-12 * scale
        assert np.abs(got[1] - want[:, :, 1]).max() <= 1e-12 * scale
        assert np.abs(got[2] - want[:, :, 2]).max() <= 1e-12 * scale
