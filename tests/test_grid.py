"""Grid operator tests: exactness on polynomials, adjointness, conservation,
manufactured-solution orders, mollifier behavior, state-file round-trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oldroyd2d.grid import (
    DIRICHLET,
    NEUMANN,
    Grid2D,
    _bump_kernel,
    _fast_len,
    _pad,
    cell_sum,
    face_velocities,
    grad_x,
    grad_y,
    lap,
    mollify_initial,
    tensor_divergence,
    upwind_div,
)
from oldroyd2d.model import load_state, save_state, state_from_components

CONSERVE_TOL = 1e-12


def unit_grid(n):
    return Grid2D(n, n, 1.0, 1.0)


def rng_field(grid, rng):
    return rng.standard_normal((grid.nx, grid.ny))


def rng_velocity(grid, rng):
    return rng.standard_normal((grid.nx, grid.ny)), rng.standard_normal((grid.nx, grid.ny))


def grad(g, f):
    """Gradient of the scalar array f under the scalar ghost rule."""
    return grad_x(f, NEUMANN, g.hx), grad_y(f, NEUMANN, g.hy)


def div(g, vx, vy):
    """Divergence of the velocity (vx, vy) under the velocity ghost rule."""
    return grad_x(vx, DIRICHLET, g.hx) + grad_y(vy, DIRICHLET, g.hy)


def laplace(g, f):
    return lap(f, NEUMANN, g.hx, g.hy)


def advect(g, ux, uy, f):
    return upwind_div(face_velocities(ux, uy), f, NEUMANN, g.hx, g.hy)


class TestGridType:
    def test_spacing(self):
        g = Grid2D(8, 16, 2.0, 4.0)
        assert g.hx == 0.25 and g.hy == 0.25
        assert g.area == 8.0

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Grid2D(3, 8)
        with pytest.raises(ValueError):
            Grid2D(8, 2)

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            Grid2D(8, 8, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_lengths(self, bad):
        # a snapshot header can carry these; nan would also break grid equality
        with pytest.raises(ValueError):
            Grid2D(8, 8, bad, 1.0)
        with pytest.raises(ValueError):
            Grid2D(8, 8, 1.0, bad)

    def test_field_shape_check(self):
        """state_from_components checks every component's shape and names the bad one."""
        g = unit_grid(4)
        names = ("rho", "u_x", "u_y", "eta", "T_xx", "T_xy", "T_yy")
        for i, name in enumerate(names):
            comps = [np.zeros((4, 4)) for _ in names]
            comps[i] = np.zeros((5, 4))
            with pytest.raises(ValueError, match=rf"^component {name} has shape \(5, 4\)"):
                state_from_components(0.0, g, *comps)

    def test_components_are_the_arrays_passed_in_order(self):
        """A float64 array is kept, so a write through components() reaches the state."""
        g = unit_grid(4)
        comps = [np.full((4, 4), float(i)) for i in range(7)]
        state = state_from_components(0.0, g, *comps)
        got = state.components()
        assert len(got) == 7 and all(a is b for a, b in zip(got, comps))
        got[4][1, 2] = -2.0
        assert state.components()[4][1, 2] == -2.0
        assert state.copy().components()[4][1, 2] == -2.0

    @pytest.mark.parametrize("make", [
        lambda i: np.full((4, 4), i, dtype=np.int64),
        lambda i: np.full((4, 4), i, dtype=np.float32),
        lambda i: [[i] * 4] * 4,
    ], ids=["int64", "float32", "list"])
    def test_components_are_converted_to_float64(self, make):
        comps = [make(i) for i in range(7)]
        got = state_from_components(0.0, unit_grid(4), *comps).components()
        for i, arr in enumerate(got):
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert np.array_equal(arr, np.full((4, 4), float(i)))


class TestWallRule:
    """No-slip walls for velocity, homogeneous Neumann for everything else."""

    def test_constant_velocity_sees_the_walls(self):
        g = Grid2D(8, 8, 1.0, 2.0)
        c = 0.75
        ux, uy = np.full((8, 8), c), np.full((8, 8), c)
        gx = grad_x(ux, DIRICHLET, g.hx)
        gy = grad_y(uy, DIRICHLET, g.hy)
        assert np.all(gx[0, :] == c / g.hx) and np.all(gx[-1, :] == -c / g.hx)
        assert np.all(gy[:, 0] == c / g.hy) and np.all(gy[:, -1] == -c / g.hy)
        assert np.all(gx[1:-1, :] == 0.0) and np.all(gy[:, 1:-1] == 0.0)

    def test_constant_scalar_and_tensor_have_zero_gradient(self):
        g = Grid2D(8, 8, 1.0, 2.0)
        one = np.full((8, 8), 0.75)
        assert np.all(grad_x(one, NEUMANN, g.hx) == 0.0)
        assert np.all(grad_y(one, NEUMANN, g.hy) == 0.0)


class TestGhostPadding:
    """The slice-based ghost fill reproduces np.pad(mode="edge") bit for bit."""

    @staticmethod
    def layouts(nx, ny, rng):
        a = rng.standard_normal((nx, ny))
        # signed zeros on the edges and inside: the odd ghost of +0.0 is -0.0
        a[0, 0], a[-1, -1], a[0, -1], a[-1, 0] = 0.0, -0.0, -0.0, 0.0
        a[rng.uniform(size=a.shape) < 0.2] = -0.0
        a[rng.uniform(size=a.shape) < 0.2] = 0.0
        strided = np.empty((2 * nx, ny + 1))
        strided[::2, 1:] = a
        return {"C": a, "F": np.asfortranarray(a), "strided": strided[::2, 1:]}

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_matches_np_pad_bitwise(self, bc, axis):
        rng = np.random.default_rng(20260817)
        for nx in range(4, 13):
            for ny in range(4, 13):
                for order, a in self.layouts(nx, ny, rng).items():
                    got = _pad(a, bc, axis)
                    ref = oracles.pad_np(a, bc == DIRICHLET, axis)
                    where = f"{nx}x{ny} {order}"
                    assert got.shape == ref.shape, where
                    assert got.tobytes() == ref.tobytes(), where
                    assert got.flags.c_contiguous == ref.flags.c_contiguous, where
                    assert got.flags.f_contiguous == ref.flags.f_contiguous, where

    def test_input_untouched(self):
        a = np.arange(16.0).reshape(4, 4)
        before = a.copy()
        for axis in (0, 1):
            _pad(a, DIRICHLET, axis)
        assert np.array_equal(a, before)


class TestGradient:
    def test_constant_is_zero(self):
        g = unit_grid(8)
        vx, vy = grad(g, np.full((8, 8), 3.7))
        assert np.all(vx == 0.0) and np.all(vy == 0.0)

    def test_linear_exact_interior(self):
        g = unit_grid(16)
        x, _ = g.cell_centers()
        vx, vy = grad(g, x)
        assert np.allclose(vx[1:-1, :], 1.0, atol=0.0)
        assert np.all(vy == 0.0)

    def test_quadratic_order_two(self):
        errs = []
        for n in (32, 64):
            g = unit_grid(n)
            x, y = g.cell_centers()
            vx, _ = grad(g, x * x + y * y)
            err = np.abs(vx[1:-1, 1:-1] - 2.0 * x[1:-1, 1:-1]).max()
            errs.append(err)
        # centered differences are exact on quadratics; interior error is
        # round-off, so just require both tiny rather than a ratio
        assert errs[0] < 1e-12 and errs[1] < 1e-12

    def test_smooth_order_two(self):
        errs = []
        for n in (32, 64):
            g = unit_grid(n)
            x, y = g.cell_centers()
            vx, _ = grad(g, np.sin(2 * x + y) + np.cos(y))
            exact = 2.0 * np.cos(2 * x + y)
            errs.append(np.abs(vx[1:-1, 1:-1] - exact[1:-1, 1:-1]).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestDivergence:
    def test_constant_zero(self):
        g = unit_grid(8)
        assert np.allclose(div(g, np.ones((8, 8)), np.ones((8, 8)))[1:-1, 1:-1], 0.0, atol=0.0)

    def test_identity_map_two(self):
        g = unit_grid(16)
        x, y = g.cell_centers()
        assert np.allclose(div(g, x, y)[1:-1, 1:-1], 2.0, atol=1e-13)

    def test_tensor_identity_zero(self):
        g = unit_grid(8)
        one = np.ones((8, 8))
        dx, dy = tensor_divergence(one, 0 * one, one, g.hx, g.hy)
        assert np.allclose(dx[1:-1, 1:-1], 0.0, atol=0.0)
        assert np.allclose(dy[1:-1, 1:-1], 0.0, atol=0.0)


class TestAdjointnessAndConservation:
    @seed(20260817)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_div_grad_adjoint(self, n, s):
        g = unit_grid(n)
        rng = np.random.default_rng(s)
        vx, vy = rng_velocity(g, rng)
        f = rng_field(g, rng)
        lhs = cell_sum(g, div(g, vx, vy) * f)
        gfx, gfy = grad(g, f)
        rhs = -cell_sum(g, vx * gfx + vy * gfy)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @seed(20260817)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_divergence_integral_zero(self, n, s):
        g = unit_grid(n)
        vx, vy = rng_velocity(g, np.random.default_rng(s))
        total = cell_sum(g, div(g, vx, vy))
        assert abs(total) <= CONSERVE_TOL * (1.0 + np.abs(vx).max() + np.abs(vy).max())

    @seed(20260817)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_neumann_laplacian_integral_zero(self, n, s):
        g = unit_grid(n)
        f = rng_field(g, np.random.default_rng(s))
        total = cell_sum(g, laplace(g, f))
        assert abs(total) <= CONSERVE_TOL * (1.0 + np.abs(f).max()) / (g.hx * g.hy)

    @seed(20260817)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_advection_conserves_cell_sums(self, s):
        g = unit_grid(10)
        rng = np.random.default_rng(s)
        ux, uy = rng_velocity(g, rng)
        f = rng_field(g, rng)
        total = cell_sum(g, advect(g, ux, uy, f))
        scale = (1.0 + np.abs(f).max()) * (1.0 + np.abs(ux).max() + np.abs(uy).max())
        assert abs(total) <= CONSERVE_TOL * scale / min(g.hx, g.hy)


class TestLinearity:
    def test_exact_on_dyadic_inputs(self):
        g = unit_grid(8)
        rng = np.random.default_rng(3)
        fa = rng.integers(-8, 8, size=(8, 8)).astype(float)
        fb = rng.integers(-8, 8, size=(8, 8)).astype(float)
        a, b = 2.0, -0.5
        combo = a * fa + b * fb
        sep_x = a * grad(g, fa)[0] + b * grad(g, fb)[0]
        assert np.array_equal(grad(g, combo)[0], sep_x)
        lap_combo = laplace(g, combo)
        lap_sep = a * laplace(g, fa) + b * laplace(g, fb)
        assert np.array_equal(lap_combo, lap_sep)

    def test_advection_linear_in_transported_field(self):
        g = unit_grid(8)
        rng = np.random.default_rng(4)
        ux = rng.integers(-4, 4, size=(8, 8)).astype(float)
        uy = rng.integers(-4, 4, size=(8, 8)).astype(float)
        fa = rng.integers(-8, 8, size=(8, 8)).astype(float)
        fb = rng.integers(-8, 8, size=(8, 8)).astype(float)
        combo = advect(g, ux, uy, 2.0 * fa - fb)
        sep = 2.0 * advect(g, ux, uy, fa) - advect(g, ux, uy, fb)
        assert np.array_equal(combo, sep)


class TestLaplacian:
    def test_constant_neumann_zero(self):
        g = unit_grid(8)
        assert np.all(laplace(g, np.full((8, 8), 2.5)) == 0.0)

    def test_neumann_eigenfunction(self):
        errs = []
        for n in (32, 64):
            g = unit_grid(n)
            x, _ = g.cell_centers()
            f = np.cos(np.pi * x)
            got = laplace(g, f)
            want = -(np.pi**2) * f
            errs.append(np.abs(got - want).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_dirichlet_tag_on_velocity(self):
        g = unit_grid(16)
        x, y = g.cell_centers()
        ux = np.sin(np.pi * x) * np.sin(np.pi * y)
        got = lap(ux, DIRICHLET, g.hx, g.hy)
        want = -2.0 * np.pi**2 * ux
        # interior truncation O(h^2); boundary ghost is first order
        assert np.abs(got[2:-2, 2:-2] - want[2:-2, 2:-2]).max() < 0.4


class TestAdvection:
    def test_zero_velocity(self):
        g = unit_grid(8)
        rng = np.random.default_rng(5)
        t = [rng.standard_normal((8, 8)) for _ in range(3)]
        zero = np.zeros((8, 8))
        faces = face_velocities(zero, zero)
        out = [upwind_div(faces, comp, NEUMANN, g.hx, g.hy) for comp in t]
        assert np.all(out[0] == 0.0) and np.all(out[1] == 0.0) and np.all(out[2] == 0.0)

    def test_constant_tensor_linear_velocity(self):
        # u = (x, 0) has div u = 1, so Div(uT) = T on interior cells
        g = unit_grid(16)
        x, _ = g.cell_centers()
        t = [np.full_like(x, 2.0), np.full_like(x, -1.0), np.full_like(x, 0.5)]
        zero = np.zeros_like(x)
        faces = face_velocities(x, zero)
        out = [upwind_div(faces, comp, NEUMANN, g.hx, g.hy) for comp in t]
        assert np.allclose(out[0][1:-1, 1:-1], 2.0, atol=1e-13)
        assert np.allclose(out[1][1:-1, 1:-1], -1.0, atol=1e-13)
        assert np.allclose(out[2][1:-1, 1:-1], 0.5, atol=1e-13)

    def test_first_order_convergence(self):
        errs = []
        for n in (64, 128):
            g = unit_grid(n)
            x, y = g.cell_centers()
            ux = np.sin(np.pi * x) * np.sin(np.pi * y)
            uy = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
            f = 2.0 + np.cos(np.pi * x) * np.cos(np.pi * y)
            # exact div(u f) assembled from product rule
            dux_dx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            duy_dy = 2 * np.pi * np.sin(np.pi * x) * np.cos(2 * np.pi * y)
            df_dx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            df_dy = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            exact = ux * df_dx + uy * df_dy + f * (dux_dx + duy_dy)
            got = advect(g, ux, uy, f)
            errs.append(np.abs(got[2:-2, 2:-2] - exact[2:-2, 2:-2]).max())
        order = math.log2(errs[0] / errs[1])
        assert 0.8 <= order <= 1.6


class TestMollifier:
    """grid.mollify_initial smooths arrays only; the theta lift that follows is
    build_initial's (tests/test_cli.py, TestPresets)."""

    def test_constant_is_kept(self):
        g = unit_grid(16)
        (out,) = mollify_initial(g, [np.full((16, 16), 2.0)], theta=0.1)
        assert np.allclose(out, 2.0, atol=1e-14)

    def test_vector_unshifted(self):
        g = unit_grid(16)
        out_x, out_y = mollify_initial(g, [np.full((16, 16), 1.5), np.zeros((16, 16))],
                                       theta=0.1)
        assert np.allclose(out_x, 1.5, atol=1e-14)
        assert np.allclose(out_y, 0.0, atol=1e-14)

    def test_tensor_min_eig_floor(self):
        from oldroyd2d.symcalc import eig_fields

        g = unit_grid(16)
        x, y = g.cell_centers()
        # rank-one data: one eigenvalue identically zero; the kernel's
        # weights are nonnegative, so the smoothed tensor stays semidefinite
        xx, xy, yy = mollify_initial(g, [x * x, x * np.sin(y), np.sin(y) ** 2], theta=0.05)
        assert eig_fields(xx, xy, yy)[1].min() >= -1e-12

    def test_l1_distance_shrinks_dyadically(self):
        g = unit_grid(64)
        x, y = g.cell_centers()
        f = np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        dists = []
        for k in range(4):
            theta = 0.2 / 2**k
            (out,) = mollify_initial(g, [f], theta)
            dists.append(cell_sum(g, np.abs(out - f)))
        assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))

    def test_rejects_nonpositive_radius(self):
        g = unit_grid(8)
        with pytest.raises(ValueError):
            mollify_initial(g, [np.zeros((8, 8))], 0.0)

    # without the check, NaN fails in int(ceil(theta / h)) and inf overflows there
    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, theta):
        with pytest.raises(ValueError, match="mollifier radius theta"):
            mollify_initial(unit_grid(8), [np.zeros((8, 8))], theta)

    # theta^2 underflows to 0 at 1e-200 (the zero-mass branch: a 1 x 1
    # identity) and to a subnormal at 1e-160 (only the center tap is inside)
    @pytest.mark.parametrize("theta", [1e-200, 1e-160])
    def test_bump_kernel_of_a_tiny_radius_raises_no_fp_error(self, theta):
        g = unit_grid(16)
        with np.errstate(all="raise"):
            kernel = _bump_kernel(g, theta)
        rx, ry = kernel.shape[0] // 2, kernel.shape[1] // 2
        assert kernel[rx, ry] == 1.0 and kernel.sum() == 1.0

    # (nx, ny, lx, ly, theta): radii from below one cell (a one-tap
    # kernel) to wider than the domain (rx > nx, ry > ny)
    @pytest.mark.parametrize("nx, ny, lx, ly, theta", [
        (4, 4, 1.0, 1.0, 0.1),
        (4, 4, 1.0, 1.0, 3.0),
        (8, 8, 1.0, 2.0, 0.3),
        (8, 8, 1.0, 1.0, 0.01),
        (12, 40, 1.0, 1.0, 0.2),
        (12, 40, 0.5, 3.0, 1.2),
        (64, 16, 2.0, 0.5, 0.1),
        (100, 37, 1.0, 3.0, 0.05),
        (256, 256, 1.0, 1.0, 0.03),
    ])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_direct_tap_sum(self, nx, ny, lx, ly, theta, layout):
        g = Grid2D(nx, ny, lx, ly)
        kernel = _bump_kernel(g, theta)
        rng = np.random.default_rng(nx * ny)
        for scale in (1e-8, 1.0, 1e8):
            raw = scale * rng.standard_normal((2 * nx, 3 * ny))
            if layout == "strided":
                x = raw[::2, ::3]
            elif layout == "F":
                x = np.asfortranarray(raw[:nx, :ny])
            else:
                x = raw[:nx, :ny].copy()
            y = scale * np.cos(7.0 * raw[nx:, ny : 2 * ny])
            keep = x.copy(), y.copy()
            out = mollify_initial(g, [x, y], theta)
            for got, arr in zip(out, (x, y)):
                assert got.shape == (nx, ny) and got.dtype == np.float64
                ref = oracles.convolve_direct(arr, kernel)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(arr).max()
            assert np.array_equal(x, keep[0]) and np.array_equal(y, keep[1])

    # (nx, ny, lx, ly, theta): the benchmark's 128^2 and 256^2 radius, a
    # non-square kernel (12 x 20 on 1 x 3), a radius below one cell (a
    # 3 x 3 kernel with one tap) and one whose square underflows (the
    # 1 x 1 identity kernel of _bump_kernel's zero-mass branch)
    @pytest.mark.parametrize("nx, ny, lx, ly, theta", [
        (8, 8, 1.0, 1.0, 0.3),
        (12, 20, 1.0, 3.0, 0.2),
        (16, 16, 1.0, 1.0, 0.1),
        (64, 48, 2.0, 1.0, 0.1),
        (128, 128, 1.0, 1.0, 0.1),
        (256, 256, 1.0, 1.0, 0.1),
        (16, 16, 1.0, 1.0, 0.01),
        (16, 16, 1.0, 1.0, 1e-200),
    ])
    def test_matches_scipy_form_bit_for_bit(self, nx, ny, lx, ly, theta):
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(nx * ny)
        raw = rng.standard_normal((2 * nx, 3 * ny))
        comps = [1.0 + 0.05 * raw[:nx, :ny], 1e-8 * raw[nx:, :ny], 1e8 * raw[:nx, ny:2 * ny],
                 np.full((nx, ny), 2.0), np.asfortranarray(raw[nx:, ny:2 * ny]),
                 raw[::2, ::3], np.cos(7.0 * raw[:nx, 2 * ny:])]
        keep = [c.copy() for c in comps]
        got = mollify_initial(g, comps, theta)
        ref = oracles.mollify_scipy(g, comps, theta)
        assert len(got) == len(comps)
        for a, b in zip(got, ref):
            assert a.shape == (nx, ny) and a.dtype == np.float64 and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        assert all(np.array_equal(c, k) for c, k in zip(comps, keep))

    def test_fast_len_is_scipys_real_next_fast_len(self):
        import scipy.fft

        for n in range(1, 5000):
            assert _fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


class TestIntegrate:
    def test_unit_constant(self):
        g = Grid2D(8, 8, 2.0, 3.0)
        assert cell_sum(g, np.ones((8, 8))) == pytest.approx(6.0, abs=1e-14)

    def test_zero(self):
        g = unit_grid(8)
        assert cell_sum(g, np.zeros((8, 8))) == 0.0

    def test_linear_exact(self):
        # midpoint quadrature integrates linears exactly
        g = unit_grid(32)
        x, _ = g.cell_centers()
        assert cell_sum(g, x) == pytest.approx(0.5, abs=1e-14)


class TestSnapshot:
    """model.save_state / model.load_state: one file holds grid, time and fields."""

    @seed(20260817)
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=4, max_value=9),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    # 0.9 / 5 * 5 is 0.8999999999999999: a header of spacings lost this grid
    @example(5, 5, 0.9, 0.9, 0)
    def test_round_trip_bit_exact(self, nx, ny, lx, ly, s):
        import tempfile, os

        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(s)
        comps = [rng.standard_normal((nx, ny)) for _ in range(7)]
        comps[0][0, 0] = -0.0  # the sign of zero and subnormals survive too
        comps[6][-1, -1] = 5e-324
        state = state_from_components(float(rng.uniform(0.0, 10.0)), g, *comps)
        with tempfile.TemporaryDirectory() as d:
            p1 = os.path.join(d, "a.state")
            p2 = os.path.join(d, "b.state")
            save_state(state, p1)
            loaded = load_state(p1)
            assert loaded.t == state.t
            assert loaded.grid == g
            assert loaded.grid.area == g.area
            for got, want in zip(loaded.components(), state.components()):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            save_state(loaded, p2)
            with open(p1, "rb") as fa, open(p2, "rb") as fb:
                assert fa.read() == fb.read()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_component_and_cell(self, tmp_path, bad):
        g = unit_grid(8)
        zero = np.zeros((8, 8))
        txy, tyy = zero.copy(), zero + 1.0
        txy[3, 5] = bad
        tyy[6, 1] = bad  # a later component is not reported first
        state = state_from_components(0.0, g, zero + 1.0, zero, zero, zero + 1.0,
                                      zero + 1.0, txy, tyy)
        save_state(state, tmp_path / "t.state")
        with pytest.raises(ValueError, match=r"^non-finite T_xy at cell \(3, 5\)$"):
            load_state(tmp_path / "t.state")
