"""Tests for the kinetic oracle and the macroscopic moment closure."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from oldroyd2d import closure as cl
from oldroyd2d.grid import Grid2D, face_velocities
from oldroyd2d.integrate import BlowupError
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    equilibrium_state,
    rhs_stress,
    velocity_jacobian,
)
from oldroyd2d.symcalc import SymMat2

# frozen: Gaussian normalization 1/(2 pi)
MAXWELLIAN_PEAK = 0.15915494309189535
# frozen oracle values for the covariance relaxation C(t) = I + (C0 - I) e^{-t}
# with C0 = diag(1.6, 0.7), A0 = 2 lam = 1, t = 0.5
COV_RELAXED = (1.36391839582758, 0.81804080208621)

PHYS = PhysParams(k=1.0, A0=1.0, lam=0.5)  # relaxation rate A0 / 2 lam = 1


def number_density(psi: np.ndarray, Q: float = 8.0) -> float:
    """Midpoint-rule integral of psi over the configuration box [-Q, Q]^2."""
    return float(np.sum(psi)) * (2.0 * Q / len(psi)) ** 2


def gaussian_distribution(c11, c22, nq=128, Q=8.0):
    q = cl.centers(nq, Q)
    norm = 2.0 * math.pi * math.sqrt(c11 * c22)
    return np.exp(-0.5 * (q[:, None] ** 2 / c11 + q[None, :] ** 2 / c22)) / norm


class TestTypes:
    def test_gradu_validation(self):
        with pytest.raises(ValueError, match="finite"):
            cl.GradU2(xy=math.inf)
        assert cl.GradU2.shear(0.3) == cl.GradU2(xy=0.3)
        assert cl.GradU2.rotation(0.3) == cl.GradU2(xy=0.3, yx=-0.3)

    def test_distribution_validation(self):
        # the workspace checks the box, so closure_compare rejects it before any step
        with pytest.raises(ValueError, match="at least 4"):
            cl._FpWork(2, 8.0, cl.GradU2(), PHYS)
        with pytest.raises(ValueError, match="positive"):
            cl._FpWork(4, 0.0, cl.GradU2(), PHYS)
        with pytest.raises(ValueError, match="at least 4"):
            cl.closure_compare(cl.GradU2(), 1.0, PHYS, t_end=0.1, nq=2)
        with pytest.raises(ValueError, match="positive"):
            cl.closure_compare(cl.GradU2(), 1.0, PHYS, t_end=0.1, nq=4, Q=0.0)

    def test_centers_symmetric(self):
        q = cl.centers(16, 4.0)
        assert q[0] == pytest.approx(-4.0 + 0.5 * 0.5)  # dq = 2 Q / nq = 0.5
        np.testing.assert_allclose(q, -q[::-1], atol=1e-15)


class TestMoments:
    def test_maxwellian_peak_frozen(self):
        assert cl.maxwellian(0.0, 0.0) == pytest.approx(MAXWELLIAN_PEAK, rel=1e-15)

    def test_equilibrium_moments(self):
        psi = cl.equilibrium_distribution(1.0, nq=128, Q=8.0)
        assert number_density(psi) == pytest.approx(1.0, abs=1e-12)
        T = cl.kramers_stress(psi, 8.0, 1.0)
        assert T.xx == pytest.approx(1.0, abs=1e-12)
        assert T.yy == pytest.approx(1.0, abs=1e-12)
        assert T.xy == 0.0

    def test_truncation_tail_bound(self):
        # coarser box: discrete mass still within the Gaussian tail bound
        psi = cl.equilibrium_distribution(1.0, nq=96, Q=6.0)
        assert abs(number_density(psi, 6.0) - 1.0) <= math.exp(-18.0)

    def test_scaling_and_zero(self):
        psi = cl.equilibrium_distribution(2.5, nq=64, Q=8.0)
        assert number_density(psi) == pytest.approx(2.5, rel=1e-12)
        T = cl.kramers_stress(psi, 8.0, 0.8)
        assert T.xx == pytest.approx(0.8 * 2.5, rel=1e-12)
        zero = np.zeros((16, 16))
        assert number_density(zero) == 0.0
        assert cl.kramers_stress(zero, 8.0, 1.0) == SymMat2(0.0, 0.0, 0.0)

    def test_shifted_gaussian_covariance_split(self):
        # second moment = covariance + mean outer product, scaled by eta
        nq, Q = 160, 8.0
        mu = (1.5, -0.5)
        q = cl.centers(nq, Q)
        X, Y = q[:, None], q[None, :]
        eta_bar = 0.7
        psi = eta_bar * np.exp(
            -0.5 * ((X - mu[0]) ** 2 + (Y - mu[1]) ** 2)
        ) / (2.0 * math.pi)
        k = 1.3
        T = cl.kramers_stress(psi, Q, k)
        eta = number_density(psi, Q)
        assert T.xx / k - eta * mu[0] ** 2 == pytest.approx(eta, abs=1e-8)
        assert T.yy / k - eta * mu[1] ** 2 == pytest.approx(eta, abs=1e-8)
        assert T.xy / k - eta * mu[0] * mu[1] == pytest.approx(0.0, abs=1e-8)


class TestFpStep:
    def test_equilibrium_stationary(self):
        psi = cl.equilibrium_distribution(1.0, nq=128, Q=8.0)
        dt = cl.fp_cfl_dt(cl.GradU2(), PHYS, 128, 8.0)
        stepped = cl.fp_step(psi, cl._FpWork(128, 8.0, cl.GradU2(), PHYS), dt)
        # the ratio flux vanishes identically on the sampled Maxwellian
        assert np.max(np.abs(stepped - psi)) <= 1e-10

    def test_mass_conserved_on_rough_data(self):
        rng = np.random.default_rng(7)
        psi = rng.uniform(0.0, 1.0, (64, 64))
        kappa = cl.GradU2.shear(0.3)
        dt = cl.fp_cfl_dt(kappa, PHYS, 64, 8.0)
        work = cl._FpWork(64, 8.0, kappa, PHYS)
        m0 = number_density(psi)
        for _ in range(5):
            psi = cl.fp_step(psi, work, dt)
        assert abs(number_density(psi) - m0) <= 1e-12 * m0

    def test_positivity_preserved(self):
        rng = np.random.default_rng(11)
        psi = rng.uniform(0.0, 1.0, (48, 48))
        psi[rng.uniform(size=psi.shape) < 0.3] = 0.0  # hard zero patches
        kappa = cl.GradU2.shear(0.5)
        dt = cl.fp_cfl_dt(kappa, PHYS, 48, 8.0)
        work = cl._FpWork(48, 8.0, kappa, PHYS)
        for _ in range(5):
            psi = cl.fp_step(psi, work, dt)
            assert psi.min() >= 0.0

    def test_blowup_detected(self):
        psi = cl.equilibrium_distribution(1.0, nq=16, Q=8.0)
        psi[8, 8] = math.inf
        with pytest.raises(BlowupError):
            cl.fp_step(psi, cl._FpWork(16, 8.0, cl.GradU2(), PHYS), 1e-3)

    def test_covariance_relaxation_oracle(self):
        psi = gaussian_distribution(1.6, 0.7)
        t_end = 0.5
        dt0 = cl.fp_cfl_dt(cl.GradU2(), PHYS, 128, 8.0)
        n = math.ceil(t_end / dt0)
        dt = t_end / n
        work = cl._FpWork(128, 8.0, cl.GradU2(), PHYS)
        for _ in range(n):
            psi = cl.fp_step(psi, work, dt)
        C = cl.kramers_stress(psi, 8.0, 1.0)
        assert C.xx == pytest.approx(COV_RELAXED[0], abs=1e-3)
        assert C.yy == pytest.approx(COV_RELAXED[1], abs=1e-3)
        assert abs(C.xy) <= 1e-10


STRETCH = cl.GradU2(xx=0.2, xy=0.7, yx=-0.3, yy=-0.2)  # sheared stretching flow


def rough_distribution(nq, seed):
    """Random density with hard-zero patches, so every limiter branch runs."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.05, 1.0, (nq, nq))
    data[rng.uniform(size=data.shape) < 0.2] = 0.0
    return data


class TestSlabFlux:
    """The workspace slopes and fluxes reproduce np.take / np.pad bit for bit."""

    @staticmethod
    def flux_inputs(nq, axis):
        """The reference flux's arguments for a sheared, stretching flow and random psi."""
        rng = np.random.default_rng(nq)
        psi = rng.uniform(0.05, 1.0, (nq, nq))
        kappa = STRETCH
        dq = 2.0 * 8.0 / nq
        q = cl.centers(nq, 8.0)
        qf = q[:-1] + 0.5 * dq
        m1 = np.exp(-0.5 * q**2)
        eq_face = np.sqrt(m1[:-1] * m1[1:])
        if axis == 0:
            vel = kappa.xx * qf[:, None] + kappa.xy * q[None, :]
            return psi, vel, psi / m1[:, None], eq_face[:, None], dq
        vel = kappa.yx * q[:, None] + kappa.yy * qf[None, :]
        return psi, vel, psi / m1[None, :], eq_face[None, :], dq

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("nq", [8, 64, 128])
    def test_matches_take_and_pad_bitwise(self, nq, axis):
        psi, vel, ratio, eq_face, dq = self.flux_inputs(nq, axis)
        assert np.any(vel > 0.0) and np.any(vel < 0.0)  # both upwind branches
        diff = PHYS.A0 / (4.0 * PHYS.lam)
        work = cl._FpWork(nq, 8.0, STRETCH, PHYS)
        # the workspace runs the y axis as axis 0 of the transposed density
        data = psi if axis == 0 else np.ascontiguousarray(psi.T)

        def frame(arr):
            return arr if axis == 0 else arr.T

        got = cl._mc_slopes(data, work)
        ref = frame(oracles.mc_slopes_np(psi, axis))
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        got = cl._axis_flux(data, work.axes[axis], work)
        ref = frame(oracles.axis_flux_np(psi, vel, ratio, eq_face, diff, dq, axis))
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestFpStepWorkspace:
    """fp_step against the fresh-temporary reference step, and its memory contract."""

    @pytest.mark.parametrize("kappa", [cl.GradU2.shear(0.3), cl.GradU2.rotation(0.2), STRETCH],
                             ids=["shear", "rotation", "stretch"])
    @pytest.mark.parametrize("nq", [8, 64, 128])
    def test_matches_reference_step_bitwise(self, nq, kappa):
        psi = ref = rough_distribution(nq, seed=nq)
        dt = cl.fp_cfl_dt(kappa, PHYS, nq, 8.0)
        work = cl._FpWork(nq, 8.0, kappa, PHYS)
        for _ in range(100):
            psi = cl.fp_step(psi, work, dt)
            ref = oracles.fp_step_np(ref, 8.0, kappa, PHYS, dt)
            assert psi.tobytes() == ref.tobytes()

    def test_signed_zeros_and_subnormals_bitwise(self):
        psi = rough_distribution(16, seed=3)
        psi[psi == 0.0] = -0.0
        psi[3, :] = 5e-324
        psi[:, 5] = 2.2e-308
        psi[8:, :] = -0.0
        dt = cl.fp_cfl_dt(STRETCH, PHYS, 16, 8.0)
        # kappa entries equal as floats but not as bits give face velocities
        # of opposite zero sign, which reach the -0.0 cells of the result
        plus, minus = cl.GradU2(), cl.GradU2(-0.0, -0.0, -0.0, -0.0)
        for kappa in (plus, minus, plus, cl.GradU2(xx=-0.0, xy=0.5), STRETCH):
            ref = oracles.fp_step_np(psi, 8.0, kappa, PHYS, dt)
            got = cl.fp_step(psi, cl._FpWork(16, 8.0, kappa, PHYS), dt)
            assert got.tobytes() == ref.tobytes()

    def test_input_untouched_and_results_fresh(self):
        kappa = cl.GradU2.shear(0.5)
        psi0 = rough_distribution(32, seed=5)
        before = psi0.tobytes()
        dt = cl.fp_cfl_dt(kappa, PHYS, 32, 8.0)
        work = cl._FpWork(32, 8.0, kappa, PHYS)
        psi1 = cl.fp_step(psi0, work, dt)
        kept = psi1.tobytes()
        psi2 = cl.fp_step(psi1, work, dt)
        cl.fp_step(psi2, work, dt)
        assert psi0.tobytes() == before and psi1.tobytes() == kept
        for a, b in ((psi0, psi1), (psi1, psi2), (psi0, psi2)):
            assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(psi, row) for psi in (psi1, psi2) for row in
                       (work.faces, work.cells, work.transposed))

    def test_constants_built_once_per_comparison(self, monkeypatch):
        built = []

        class Counted(cl._FpWork):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cl, "_FpWork", Counted)
        shear, rotation = cl.GradU2.shear(0.1), cl.GradU2.rotation(0.1)
        cl.closure_compare(shear, 1.0, PHYS, t_end=0.2, nq=32)
        cl.closure_compare(rotation, 1.0, PHYS, t_end=0.2, nq=32)
        assert built == [(32, 8.0, shear, PHYS), (32, 8.0, rotation, PHYS)]

    def test_each_kinetic_step_calls_the_module_fp_step(self, monkeypatch):
        # perfbench's oracle workload times a step by replacing closure.fp_step;
        # a local alias in closure_compare would leave it without a sample
        calls = [0]
        real = cl.fp_step

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(cl, "fp_step", counted)
        rep = cl.closure_compare(cl.GradU2.shear(0.1), 1.0, PHYS, t_end=0.2, nq=32)
        assert rep.steps > 1 and calls[0] == rep.steps

    @pytest.mark.parametrize("nq", [4, 5, 63, 64, 128])
    def test_scratch_rows_start_on_cache_lines(self, nq):
        work = cl._FpWork(nq, 8.0, STRETCH, PHYS)
        rows = (*work.faces, work.cells, work.transposed, work.mask)
        assert [row.ctypes.data % 64 for row in rows] == [0] * 5
        assert [row.shape for row in rows] == [(nq - 1, nq)] * 2 + [(nq, nq)] * 3
        assert all(row.flags.c_contiguous for row in rows)
        assert work.mask.dtype == bool
        # the rows are disjoint, so no pass overwrites another's data
        assert not any(np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[i + 1:])

    def test_warm_step_allocates_only_its_result(self):
        nq = 128
        kappa = STRETCH
        dt = cl.fp_cfl_dt(kappa, PHYS, nq, 8.0)
        work = cl._FpWork(nq, 8.0, kappa, PHYS)
        psi = cl.fp_step(rough_distribution(nq, seed=1), work, dt)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cl.fp_step(psi, work, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3.5 * nq * nq * 8


class TestMacroMomentStep:
    def test_fixed_point(self):
        T = SymMat2(1.0, 0.0, 1.0)  # k eta I with k = eta = 1
        out = cl.macro_moment_step(T, 1.0, cl.GradU2(), PHYS, dt=0.1)
        assert out == pytest.approx(T, rel=1e-14)

    def test_exponential_relaxation(self):
        T0 = SymMat2(2.0, 0.3, 0.5)
        T = T0
        dt, t_end = 1e-3, 1.0
        for _ in range(int(round(t_end / dt))):
            T = cl.macro_moment_step(T, 1.0, cl.GradU2(), PHYS, dt)
        decay = math.exp(-t_end)  # rate A0 / 2 lam = 1
        for got, t0v, eq in ((T.xx, 2.0, 1.0), (T.xy, 0.3, 0.0), (T.yy, 0.5, 1.0)):
            assert got == pytest.approx(eq + (t0v - eq) * decay, abs=1e-10)

    def test_shear_steady_state_matches_linear_solve(self):
        rate = PHYS.A0 / (2.0 * PHYS.lam)
        gd = 0.4
        kappa = cl.GradU2.shear(gd)
        # direct solve of kappa T + T kappa^T - rate T = -rate k eta I
        A = np.array([
            [-rate, 2.0 * gd, 0.0],
            [0.0, -rate, gd],
            [0.0, 0.0, -rate],
        ])
        rhs = np.array([-rate, 0.0, -rate])  # k = eta = 1
        exact = np.linalg.solve(A, rhs)
        T = SymMat2(1.0, 0.0, 1.0)
        for _ in range(4000):
            T = cl.macro_moment_step(T, 1.0, kappa, PHYS, 0.01)
        assert T.xx == pytest.approx(exact[0], abs=1e-8)
        assert T.xy == pytest.approx(exact[1], abs=1e-8)
        assert T.yy == pytest.approx(exact[2], abs=1e-8)


class TestSolverSourceTerms:
    """The oracle's moment equation is the solver's stress right-hand side
    restricted to a homogeneous state: uniform T and eta, linear velocity."""

    @pytest.mark.parametrize("kappa", [
        cl.GradU2.shear(0.7),
        cl.GradU2.rotation(0.4),
        cl.GradU2(xx=0.5, yy=-0.5),
    ], ids=["shear", "rotation", "strain"])
    def test_rhs_stress_matches_moment_rhs(self, kappa):
        phys = PhysParams(k=1.3, A0=1.5, lam=0.6, eps=0.2)
        reg = RegParams(alpha=0.0)
        state = equilibrium_state(Grid2D(16, 16), phys, reg, eta_bar=1.2)
        _, ux, uy, _, txx, txy, tyy = state.components()
        txx[...], txy[...], tyy[...] = 1.7, 0.3, 0.9
        x, y = state.grid.cell_centers()
        # u = kappa (x - 1/2): its centered gradient is kappa away from the walls
        ux[...] = kappa.xx * (x - 0.5) + kappa.xy * (y - 0.5)
        uy[...] = kappa.yx * (x - 0.5) + kappa.yy * (y - 0.5)
        faces, jac = face_velocities(ux, uy), velocity_jacobian(state.grid, ux, uy)
        got = rhs_stress(state.grid, state.components(), faces, jac, phys, reg)
        want = cl._moment_rhs(1.7, 0.3, 0.9, 1.2, kappa, phys)
        inner = (slice(2, -2), slice(2, -2))
        assert len(got) == 3
        for comp, value in zip(got, want):
            assert np.max(np.abs(comp[inner] - value)) <= 1e-14


class TestClosureCompare:
    def test_equilibrium_agreement(self):
        rep = cl.closure_compare(cl.GradU2(), 1.0, PHYS, t_end=2.0, nq=64, Q=8.0)
        assert rep.max_error <= 1e-12
        assert rep.boundary_fraction <= 1e-12

    def test_weak_shear_benchmark(self):
        rep64 = cl.closure_compare(cl.GradU2.shear(0.1), 1.0, PHYS,
                                   t_end=5.0, nq=64, Q=8.0)
        assert rep64.max_error <= 2e-3  # observed 1.12e-3
        rep128 = cl.closure_compare(cl.GradU2.shear(0.1), 1.0, PHYS,
                                    t_end=5.0, nq=128, Q=8.0)
        assert rep64.max_error / rep128.max_error >= 3.0  # observed 3.97

    def test_rotation_keeps_isotropy(self):
        rep = cl.closure_compare(cl.GradU2.rotation(0.2), 1.0, PHYS,
                                 t_end=3.0, nq=64, Q=8.0)
        final = rep.samples[-1].macro
        assert final.xx == 1.0 and final.xy == 0.0 and final.yy == 1.0
        assert rep.max_error <= 5e-4  # observed 1.62e-4 on the coarse grid

    def test_boundary_decay_invariant(self):
        rep = cl.closure_compare(cl.GradU2.shear(0.1), 1.0, PHYS,
                                 t_end=1.0, nq=64, Q=8.0)
        # re-run the kinetic side to inspect the final distribution
        psi = cl.equilibrium_distribution(1.0, 64, 8.0)
        work = cl._FpWork(64, 8.0, cl.GradU2.shear(0.1), PHYS)
        for _ in range(rep.steps):
            psi = cl.fp_step(psi, work, rep.dt)
        edge = max(psi[0].max(), psi[-1].max(), psi[:, 0].max(), psi[:, -1].max())
        assert edge <= 1e-8 * psi.max()

    def test_truncation_breach(self):
        # a Q = 4 box already holds visible equilibrium mass on the edge ring
        with pytest.raises(cl.TruncationBreach, match="enlarge Q"):
            cl.closure_compare(cl.GradU2(), 1.0, PHYS, t_end=0.5, nq=32, Q=4.0)

    @pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf])
    def test_horizon_must_be_finite_and_positive(self, t_end):
        with pytest.raises(ValueError, match="t_end must be a finite positive number"):
            cl.closure_compare(cl.GradU2.shear(0.1), 1.0, PHYS, t_end=t_end, nq=32)

    @pytest.mark.parametrize("eta_bar", [-1.0, 0.0, math.nan, math.inf])
    def test_eta_bar_must_be_finite_and_positive(self, eta_bar):
        with pytest.raises(ValueError, match="eta_bar must be a finite positive number"):
            cl.closure_compare(cl.GradU2.shear(0.1), eta_bar, PHYS, t_end=0.1, nq=16)
