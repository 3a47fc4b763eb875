"""The in-place stencils, right-hand sides and stage updates.

Bitwise oracles: grid.grad_x/grad_y/lap/upwind_div/tensor_divergence,
model.newtonian_stress, model.add_stretching/add_relaxation (on arrays
and on floats) and the two SSP-RK2 stage updates of integrate must
reproduce the plain expressions kept in tests/oracles.py byte for
byte, memory order included, on C, Fortran and strided inputs holding
signed zeros, NaNs of both signs, infinities, values near 1e+-300 and
1e+-308, and subnormals.
A NaN's sign and an infinity's fate depend on the order of the operands,
so the bytes pin the order of every operation.

No aliasing: no solver function writes into an input array (the face
bundle and the velocity Jacobian that a stage shares among its terms
included), and the state a step or a run returns shares no memory with
the state it was given.

The IMEX explicit stage leaves out exactly the diffusions that
integrate._implicit_terms hands to the implicit solve.
"""

import itertools

import numpy as np
import pytest

import oracles
from oldroyd2d import grid as g2
from oldroyd2d import diagnostics as dg
from oldroyd2d import integrate, model
from oldroyd2d.grid import DIRICHLET, NEUMANN, Grid2D
from oldroyd2d.model import PhysParams, RegParams, SimState

SHAPES = [(8, 8), (4, 4), (5, 7), (9, 6)]
LAYOUTS = ["C", "F", "strided"]
SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300,
            1.5e308, -1.7e308, 5e-324, -2.5e-323]
# ordinary values, values whose sums overflow, and subnormals, whose
# products and halves round differently when regrouped
SCALES = [1.0, 1e307, 1e-310]


def special_array(shape, rng, layout, scale=1.0):
    """Random values at the scale, every special value sprinkled in, in the layout."""
    a = scale * rng.standard_normal(shape)
    flat = a.reshape(-1)
    cells = rng.choice(flat.size, size=min(flat.size, 2 * len(SPECIALS)), replace=False)
    for i, cell in enumerate(cells):
        flat[cell] = SPECIALS[i % len(SPECIALS)]
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        big = np.empty((2 * shape[0], shape[1] + 1))
        big[::2, 1:] = a
        return big[::2, 1:]
    return a


def assert_same_bits(got, want, where=""):
    assert got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where
    assert got.flags.c_contiguous == want.flags.c_contiguous, where
    assert got.flags.f_contiguous == want.flags.f_contiguous, where


def cases():
    for shape, layout in itertools.product(SHAPES, LAYOUTS):
        yield pytest.param(shape, layout, id=f"{shape[0]}x{shape[1]}-{layout}")


@pytest.fixture(autouse=True)
def quiet_float_errors():
    with np.errstate(all="ignore"):
        yield


class TestBitwiseOracles:
    @pytest.mark.parametrize("shape, layout", cases())
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_grad_and_lap(self, shape, layout, bc):
        rng = np.random.default_rng(11)
        hx, hy = 1.0 / shape[0], 0.7 / shape[1]
        for scale in SCALES:
            a = special_array(shape, rng, layout, scale)
            assert_same_bits(g2.grad_x(a, bc, hx), oracles.grad_x_np(a, bc, hx), "grad_x")
            assert_same_bits(g2.grad_y(a, bc, hy), oracles.grad_y_np(a, bc, hy), "grad_y")
            assert_same_bits(g2.lap(a, bc, hx, hy), oracles.lap_np(a, bc, hx, hy), "lap")

    @pytest.mark.parametrize("shape, layout", cases())
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_upwind_div(self, shape, layout, bc):
        rng = np.random.default_rng(12)
        hx, hy = 1.0 / shape[0], 0.7 / shape[1]
        for scale in SCALES:
            ux, uy, a = (special_array(shape, rng, layout, scale) for _ in range(3))
            assert_same_bits(g2.upwind_div(g2.face_velocities(ux, uy), a, bc, hx, hy),
                             oracles.upwind_div_np(ux, uy, a, bc, hx, hy))

    def test_upwind_div_mixed_layouts(self):
        # the values must agree; the memory order of a result built from
        # operands in different orders is numpy's choice in both forms
        rng = np.random.default_rng(13)
        for layouts in itertools.product(LAYOUTS, repeat=3):
            ux, uy, a = (special_array((8, 8), rng, lay, 1e307) for lay in layouts)
            got = g2.upwind_div(g2.face_velocities(ux, uy), a, NEUMANN, 0.125, 0.125)
            want = oracles.upwind_div_np(ux, uy, a, NEUMANN, 0.125, 0.125)
            assert got.tobytes() == want.tobytes(), str(layouts)

    @pytest.mark.parametrize("shape, layout", cases())
    def test_tensor_divergence(self, shape, layout):
        rng = np.random.default_rng(14)
        grid = Grid2D(shape[0], shape[1], 1.0, 0.7)
        for scale in SCALES:
            comps = [special_array(shape, rng, layout, scale) for _ in range(3)]
            got = g2.tensor_divergence(*comps, grid.hx, grid.hy)
            want = oracles.tensor_divergence_np(*comps, grid.hx, grid.hy)
            assert len(got) == 2
            assert_same_bits(got[0], want[0], "x")
            assert_same_bits(got[1], want[1], "y")

    @pytest.mark.parametrize("shape, layout", cases())
    @pytest.mark.parametrize("muB", [0.0, 0.3])
    def test_newtonian_stress(self, shape, layout, muB):
        rng = np.random.default_rng(15)
        grid = Grid2D(shape[0], shape[1], 1.0, 0.7)
        phys = PhysParams(muS=0.7, muB=muB)
        for scale in SCALES:
            ux, uy = (special_array(shape, rng, layout, scale) for _ in range(2))
            got = model.newtonian_stress(model.velocity_jacobian(grid, ux, uy), phys)
            want = oracles.newtonian_stress_np(ux, uy, grid.hx, grid.hy, phys.muS, muB)
            assert len(got) == 3
            for name, g, w in zip(("xx", "xy", "yy"), got, want):
                assert_same_bits(g, w, name)

    @pytest.mark.parametrize("shape, layout", cases())
    def test_stress_sources(self, shape, layout):
        rng = np.random.default_rng(17)
        phys = PhysParams(k=0.9, A0=1.3, lam=0.7)
        for scale in SCALES:
            jac = [special_array(shape, rng, layout, scale) for _ in range(4)]
            t = [special_array(shape, rng, layout, scale) for _ in range(3)]
            eta = special_array(shape, rng, layout, scale)
            out = [special_array(shape, rng, layout, scale) for _ in range(3)]
            # a sum or product of two NaNs keeps its first operand's: cells
            # holding NaNs of random sign in random operands pin the order
            for cell in range(32):
                idx = np.unravel_index(cell % (shape[0] * shape[1]), shape)
                for a in (*jac, *t, eta, *out):
                    if rng.random() < 0.5:
                        a[idx] = -np.nan if rng.random() < 0.5 else np.nan
            got = [a.copy(order="K") for a in out]
            model.add_stretching(got, *jac, *t)
            for name, g, w in zip(("xx", "xy", "yy"), got, oracles.stretching_np(out, *jac, *t)):
                assert_same_bits(g, w, "stretching " + name)
            got = [a.copy(order="K") for a in out]
            model.add_relaxation(got, *t, eta, phys)
            for name, g, w in zip(("xx", "xy", "yy"), got,
                                  oracles.relaxation_np(out, *t, eta, phys)):
                assert_same_bits(g, w, "relaxation " + name)

    def test_stress_sources_on_floats(self):
        # the kinetic oracle's moment equation passes Python floats.  The
        # interpreter's generic and specialized float adds may order their
        # operands differently, so which NaN a NaN + NaN keeps depends on
        # the call history: NaNs compare as NaNs, every other value by bits
        rng = np.random.default_rng(18)
        phys = PhysParams(k=0.9, A0=1.3, lam=0.7)
        values = [float(v) for v in SPECIALS] + [float(v) for v in rng.standard_normal(6)]
        for _ in range(2000):
            args = [values[i] for i in rng.integers(len(values), size=8)]
            out = [values[i] for i in rng.integers(len(values), size=3)]
            want = oracles.relaxation_np(oracles.stretching_np(out, *args[:7]),
                                         *args[4:7], args[7], phys)
            got = list(out)
            model.add_stretching(got, *args[:7])
            model.add_relaxation(got, *args[4:7], args[7], phys)
            assert all(type(g) is float for g in got)
            got, want = np.array(got), np.array(want)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), args
            assert got[~nan].tobytes() == want[~nan].tobytes(), args

    @pytest.mark.parametrize("shape, layout", cases())
    @pytest.mark.parametrize("dt", [1e-3, 0.37, 1e300])
    @pytest.mark.parametrize("scale", SCALES)
    def test_stage_updates(self, shape, layout, dt, scale):
        rng = np.random.default_rng(16)

        def comps():
            return [special_array(shape, rng, layout, scale) for _ in range(7)]

        y0, f0, y1, f1 = comps(), comps(), comps(), comps()
        want1 = oracles.euler_stage_np(y0, f0, dt)
        want2 = oracles.heun_stage_np(y0, y1, f1, dt)
        # the stage updates consume the right-hand side arrays they are given
        got1 = integrate._euler_stage(y0, [f.copy(order="K") for f in f0], dt)
        got2 = integrate._heun_stage(y0, y1, [f.copy(order="K") for f in f1], dt)
        for g, w in zip(got1, want1):
            assert_same_bits(g, w, "y0 + dt * f")
        for g, w in zip(got2, want2):
            assert_same_bits(g, w, "0.5 * (y0 + y1 + dt * f)")


def smooth_state(n, rng) -> SimState:
    """A positive density, small velocity and SPD stress with random texture."""
    grid = Grid2D(n, n, 1.0, 1.0)

    def noise(scale):
        return scale * rng.standard_normal((n, n))

    return model.state_from_components(
        0.25, grid, 1.0 + noise(0.05), noise(0.05), noise(0.05), 1.0 + noise(0.05),
        1.2 + noise(0.05), noise(0.02), 1.2 + noise(0.05))


KNOB_SETS = {
    "base": (PhysParams(muS=0.1, eps=0.1), RegParams()),
    "alpha-sigma2": (PhysParams(muS=0.1, eps=0.1), RegParams(alpha=0.1, sigma2=0.01)),
    "sigma1-sigma3-muB-delta": (PhysParams(muS=0.1, muB=0.05, eps=0.1, delta=0.5),
                                RegParams(alpha=0.1, sigma1=0.01, sigma3=0.05)),
}


class TestNoAliasing:
    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    @pytest.mark.parametrize("knobs", list(KNOB_SETS))
    def test_step_leaves_inputs_and_returns_fresh_arrays(self, scheme, knobs):
        phys, reg = KNOB_SETS[knobs]
        state = smooth_state(12, np.random.default_rng(21))
        before = [a.copy() for a in state.components()]
        out = integrate.step(state, phys, reg, integrate.StepConfig(scheme=scheme), dt=1e-4)
        for a, b in zip(state.components(), before):
            assert a.tobytes() == b.tobytes()
        outs = out.components()
        for a, b in itertools.product(outs, state.components()):
            assert not np.shares_memory(a, b)
        for a, b in itertools.combinations(outs, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("scheme", ["rk2", "imex"])
    @pytest.mark.parametrize("hooked", [False, True], ids=["no-hooks", "hooks"])
    def test_run_leaves_initial_and_returns_fresh_arrays(self, scheme, hooked):
        # cli's sweep variants share the base state's arrays and rely on this
        phys, reg = KNOB_SETS["alpha-sigma2"]
        state = smooth_state(12, np.random.default_rng(26))
        before = [a.copy() for a in state.components()]
        hooks = (dg.TimeseriesRecorder(phys, reg).hook,) if hooked else ()
        cfg = integrate.StepConfig(dt=1e-4, t_end=3e-4, scheme=scheme)
        result = integrate.run(state, phys, reg, cfg, diag_hooks=hooks)
        assert result.steps == 3
        for a, b in zip(state.components(), before):
            assert a.tobytes() == b.tobytes()
        for a, b in itertools.product(result.final.components(), state.components()):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("knobs", list(KNOB_SETS))
    def test_rhs_terms_leave_inputs(self, knobs):
        phys, reg = KNOB_SETS[knobs]
        state = smooth_state(12, np.random.default_rng(22))
        before = [a.copy() for a in state.components()]
        g, comps = state.grid, state.components()
        rho, ux, uy, eta, txx, txy, tyy = comps
        faces, jac = g2.face_velocities(ux, uy), model.velocity_jacobian(g, ux, uy)
        shared = [*faces[0], *faces[1], *jac]
        shared_before = [a.copy() for a in shared]
        for diffuse in (True, False):
            model.rhs_continuity(g, comps, faces, phys, reg, diffuse)
            model.rhs_momentum(g, comps, faces, jac, phys, reg)
            model.rhs_eta(g, comps, faces, phys, diffuse)
            model.rhs_stress(g, comps, faces, jac, phys, reg, diffuse)
        model.newtonian_stress(jac, phys)
        model.pressure(rho, phys, reg)
        model.polymer_pressure(eta, phys)
        model.tr_log_field(txx, txy, tyy, context="probe")
        for scheme in ("rk2", "imex"):
            integrate._rhs(g, comps, phys, reg, scheme)
        for a, b in zip(state.components(), before):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(shared, shared_before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_stencils_leave_inputs(self, layout):
        rng = np.random.default_rng(23)
        ux, uy, a = (special_array((8, 8), rng, layout) for _ in range(3))
        before = [x.copy() for x in (ux, uy, a)]
        faces = g2.face_velocities(ux, uy)
        faces_before = [x.copy() for x in (*faces[0], *faces[1])]
        for bc in (DIRICHLET, NEUMANN):
            g2.grad_x(a, bc, 0.1)
            g2.grad_y(a, bc, 0.1)
            g2.lap(a, bc, 0.1, 0.1)
            out = g2.upwind_div(faces, a, bc, 0.1, 0.1)
            for x in (ux, uy, a, *faces[0], *faces[1]):
                assert not np.shares_memory(out, x)
        g2.tensor_divergence(ux, uy, a, 0.1, 0.1)
        for x, b in zip((ux, uy, a), before):
            assert x.tobytes() == b.tobytes()
        for x, b in zip((*faces[0], *faces[1]), faces_before):
            assert x.tobytes() == b.tobytes()
        for x in (*faces[0], *faces[1]):
            assert not np.shares_memory(x, ux) and not np.shares_memory(x, uy)

    def test_heat_solve_leaves_its_argument(self):
        grid = Grid2D(8, 6, 1.0, 0.7)
        arr = np.random.default_rng(24).standard_normal((8, 6))
        before = arr.copy()
        denom = 1.0 - 0.01 * integrate._neumann_symbol(grid)
        out = integrate._neumann_heat_solve(arr, denom)
        assert arr.tobytes() == before.tobytes()
        assert not np.shares_memory(out, arr)

    def test_rhs_outputs_are_fresh(self):
        state = smooth_state(8, np.random.default_rng(25))
        phys, reg = KNOB_SETS["alpha-sigma2"]
        g, comps = state.grid, state.components()
        _, ux, uy, *_ = comps
        faces, jac = g2.face_velocities(ux, uy), model.velocity_jacobian(g, ux, uy)
        for diffuse in (True, False):
            outs = [model.rhs_continuity(g, comps, faces, phys, reg, diffuse),
                    model.rhs_eta(g, comps, faces, phys, diffuse),
                    *model.rhs_momentum(g, comps, faces, jac, phys, reg),
                    *model.rhs_stress(g, comps, faces, jac, phys, reg, diffuse),
                    *model.newtonian_stress(jac, phys)]
            assert len(outs) == 10
            for a, b in itertools.product(outs, [*comps, *faces[0], *faces[1], *jac]):
                assert not np.shares_memory(a, b)
            for a, b in itertools.combinations(outs, 2):
                assert not np.shares_memory(a, b)


class TestImexExplicitStage:
    @pytest.mark.parametrize("knobs", list(KNOB_SETS))
    def test_leaves_out_exactly_the_implicit_diffusions(self, knobs):
        # the full and the explicit right-hand side agree bit for bit where
        # _implicit_terms lists nothing, and differ by kappa * lap where it does
        phys, reg = KNOB_SETS[knobs]
        state = smooth_state(12, np.random.default_rng(27))
        g, comps = state.grid, state.components()
        full = integrate._rhs(g, comps, phys, reg, "rk2")
        explicit = integrate._rhs(g, comps, phys, reg, "imex")
        kappas = {i: kappa for kappa, indices in integrate._implicit_terms(phys, reg)
                  for i in indices}
        assert len(full) == len(explicit) == 7
        for i, (f, e) in enumerate(zip(full, explicit)):
            if i not in kappas:
                assert f.tobytes() == e.tobytes(), i
                continue
            want = kappas[i] * g2.lap(comps[i], NEUMANN, g.hx, g.hy)
            scale = np.abs(f).max() + np.abs(e).max() + np.abs(want).max()
            assert np.abs(want).max() > 1e-3 * scale, i
            assert np.abs((f - e) - want).max() <= 16 * np.finfo(float).eps * scale, i
