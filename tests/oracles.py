"""Independent reference routes for the tests.

The matrix-calculus references go through numpy.linalg / scipy rather
than the closed-form 2x2 formulas in the package, so a bug in the
package cannot hide in the expected values.  The ghost-padding and
kinetic-flux references are the plain np.pad / np.take formulations the
package's slice-based versions must reproduce bit for bit (fp_step_np is
the whole kinetic step built from them with fresh temporaries); the
stencils, the Newtonian stress, the two stress source terms and the two
SSP-RK2 stage updates are the plain expressions (grad_x_np ...
heun_stage_np) that the package's
in-place versions must reproduce bit for bit; and
eig_fields_np is the nested np.where eigendecomposition the package's
masked-divide eig_fields / rotation_fields must reproduce bit for bit.
convolve_direct is the tap-by-tap kernel sum the package's FFT mollifier
must match to rounding, mollify_scipy the scipy.fft form of that mollifier
that the package's numpy.fft one must reproduce bit for bit, and
neumann_heat_solve_np the per-call DCT heat solve its shared-denominator
version must reproduce bit for bit.
matrix_log_diff_ineq_per_call and convexity_trace_ineq_per_call are the
inequality checkers with every term decomposing its matrix again (through
apply_scalar and tr_log); the package's one-decomposition checkers must
reproduce them bit for bit.

The rest are checks that more than one test module runs and the solver
never does, built on the package's closed-form 2x2 calculus: tr log of
one matrix (tr_log), the lift of a scalar function to one matrix
(apply_scalar) and over component arrays (apply_scalar_fields), the
eigenvalue cutoff chi (chi_scalar, chi_cutoff), the centered-difference
residual of Jacobi's formula along a matrix path (jacobi_residual, with
sym_scale), the largest one-sided energy budget residual of a run
(energy_inequality_residual), and the stress norm bound accumulated over
a sampled run of (xx, xy, yy) arrays (stress_l2_monitor, StressL2Report,
stress_grad_l2).
"""

import math
from typing import NamedTuple, Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from oldroyd2d import grid as g2
from oldroyd2d.diagnostics import energy_residual_series, stress_norms
from oldroyd2d.grid import cell_sum
from oldroyd2d.integrate import BlowupError
from oldroyd2d.model import PhysParams
from oldroyd2d.symcalc import (_CONVEXITY_SLACK, _MATRIX_LOG_SLACK, DIM, ChainResult,
                                IneqResult, NotSPDError, SymMat2, eig, eig_fields,
                                recombine_fields, rotation_fields)


def eig_np(mat: np.ndarray):
    """Eigenvalues (descending) and eigenvectors of a symmetric 2x2 array."""
    lam, vecs = np.linalg.eigh(mat)
    order = np.argsort(lam)[::-1]
    return lam[order], vecs[:, order]


def logm_np(mat: np.ndarray) -> np.ndarray:
    return scipy.linalg.logm(mat).real


def tr_log_np(mat: np.ndarray) -> float:
    return float(np.log(np.linalg.det(mat)))


def apply_scalar_np(g, mat: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(mat)
    return vecs @ np.diag([g(v) for v in lam]) @ vecs.T


def chi_np(s3: float, mat: np.ndarray) -> np.ndarray:
    return apply_scalar_np(lambda s: max(s3, s), mat)


def g_cutoff_np(s3: float, s: float) -> float:
    """Logarithm above the cutoff, tangent-line continuation below."""
    if s >= s3:
        return np.log(s)
    return s / s3 + np.log(s3) - 1.0


def random_spd(rng: np.random.Generator, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Random SPD 2x2 with eigenvalues log-uniform in [lo, hi]."""
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=2))
    phi = rng.uniform(0.0, np.pi)
    c, s = np.cos(phi), np.sin(phi)
    o = np.array([[c, -s], [s, c]])
    return o @ np.diag(lam) @ o.T


def random_sym(rng: np.random.Generator, scale: float = 3.0) -> np.ndarray:
    a, b, c = rng.uniform(-scale, scale, size=3)
    return np.array([[a, b], [b, c]])


def eig_fields_np(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray):
    """Componentwise (lam1, lam2, cos, sin), branches chosen by np.where."""
    mean = 0.5 * (xx + yy)
    half_gap = 0.5 * (xx - yy)
    radius = np.hypot(half_gap, xy)
    det = xx * yy - xy * xy
    big_pos = mean + radius
    big_neg = mean - radius
    with np.errstate(divide="ignore", invalid="ignore"):
        from_pos = np.where(big_pos != 0.0, det / np.where(big_pos != 0.0, big_pos, 1.0), big_neg)
        from_neg = det / np.where(big_neg != 0.0, big_neg, 1.0)
    nonneg = mean >= 0.0
    lam1 = np.where(nonneg, big_pos, from_neg)
    lam2 = np.where(nonneg, from_pos, big_neg)
    angle = 0.5 * np.arctan2(2.0 * xy, xx - yy)
    tie = (lam1 - lam2) < 1e-14 * (1.0 + np.abs(lam1))
    angle = np.where(tie, 0.0, angle)
    return lam1, lam2, np.cos(angle), np.sin(angle)


def pad_np(arr: np.ndarray, odd: bool, axis: int) -> np.ndarray:
    """One edge-replicated ghost layer on the axis, negated when odd."""
    padded = np.pad(arr, [(1, 1) if ax == axis else (0, 0) for ax in range(arr.ndim)],
                    mode="edge")
    if odd:
        first = [slice(None)] * arr.ndim
        last = [slice(None)] * arr.ndim
        first[axis] = 0
        last[axis] = -1
        padded[tuple(first)] *= -1.0
        padded[tuple(last)] *= -1.0
    return padded


def grad_x_np(arr: np.ndarray, bc: str, hx: float) -> np.ndarray:
    p = pad_np(arr, bc == g2.DIRICHLET, 0)
    return (p[2:, :] - p[:-2, :]) / (2.0 * hx)


def grad_y_np(arr: np.ndarray, bc: str, hy: float) -> np.ndarray:
    p = pad_np(arr, bc == g2.DIRICHLET, 1)
    return (p[:, 2:] - p[:, :-2]) / (2.0 * hy)


def lap_np(arr: np.ndarray, bc: str, hx: float, hy: float) -> np.ndarray:
    px = pad_np(arr, bc == g2.DIRICHLET, 0)
    py = pad_np(arr, bc == g2.DIRICHLET, 1)
    ddx = (px[2:, :] - 2.0 * arr + px[:-2, :]) / (hx * hx)
    ddy = (py[:, 2:] - 2.0 * arr + py[:, :-2]) / (hy * hy)
    return ddx + ddy


def upwind_div_np(ux, uy, arr, arr_bc: str, hx: float, hy: float) -> np.ndarray:
    """Upwind div(u * arr): face velocity times the upwind cell, differenced."""
    odd = arr_bc == g2.DIRICHLET
    pux = pad_np(ux, True, 0)
    fx_vel = 0.5 * (pux[:-1, :] + pux[1:, :])
    pa = pad_np(arr, odd, 0)
    flux_x = fx_vel * np.where(fx_vel > 0.0, pa[:-1, :], pa[1:, :])
    puy = pad_np(uy, True, 1)
    fy_vel = 0.5 * (puy[:, :-1] + puy[:, 1:])
    pa = pad_np(arr, odd, 1)
    flux_y = fy_vel * np.where(fy_vel > 0.0, pa[:, :-1], pa[:, 1:])
    return (flux_x[1:, :] - flux_x[:-1, :]) / hx + (flux_y[:, 1:] - flux_y[:, :-1]) / hy


def tensor_divergence_np(xx, xy, yy, hx: float, hy: float):
    """Row-wise divergence of a mirror-ghost symmetric tensor, as (vx, vy)."""
    bc = g2.NEUMANN
    return (grad_x_np(xx, bc, hx) + grad_y_np(xy, bc, hy),
            grad_x_np(xy, bc, hx) + grad_y_np(yy, bc, hy))


def newtonian_stress_np(ux, uy, hx: float, hy: float, muS: float, muB: float):
    """muS (sym grad u - (div u / 2) I) + muB (div u) I as (xx, xy, yy)."""
    bc = g2.DIRICHLET
    jxx, jxy = grad_x_np(ux, bc, hx), grad_y_np(ux, bc, hy)
    jyx, jyy = grad_x_np(uy, bc, hx), grad_y_np(uy, bc, hy)
    div_u = jxx + jyy
    sym_xy = 0.5 * (jxy + jyx)
    half_div = 0.5 * div_u
    sxx = muS * (jxx - half_div)
    syy = muS * (jyy - half_div)
    sxy = muS * sym_xy
    if muB != 0.0:
        sxx = sxx + muB * div_u
        syy = syy + muB * div_u
    return sxx, sxy, syy


def stretching_np(out, jxx, jxy, jyx, jyy, txx, txy, tyy):
    """out + (J T + T J^T) as a new list, one plain expression per component."""
    return [out[0] + 2.0 * (jxx * txx + jxy * txy),
            out[1] + (jxx * txy + jxy * tyy + txx * jyx + txy * jyy),
            out[2] + 2.0 * (jyx * txy + jyy * tyy)]


def relaxation_np(out, txx, txy, tyy, eta, phys: PhysParams):
    """out + (A0 / 2 lambda) (k eta I - T) as a new list, one plain expression per component."""
    relax = phys.A0 / (2.0 * phys.lam)
    source = phys.k * relax * eta
    return [out[0] + (source - relax * txx),
            out[1] + -relax * txy,
            out[2] + (source - relax * tyy)]


def euler_stage_np(y0, f, dt: float):
    return [a + dt * b for a, b in zip(y0, f)]


def heun_stage_np(y0, y1, f, dt: float):
    return [0.5 * (a + b + dt * c) for a, b, c in zip(y0, y1, f)]


def mc_slopes_np(psi: np.ndarray, axis: int) -> np.ndarray:
    """Monotonized-central limited slopes; zero in the outermost cells."""
    d = np.diff(psi, axis=axis)
    dm = np.take(d, range(0, d.shape[axis] - 1), axis=axis)
    dp = np.take(d, range(1, d.shape[axis]), axis=axis)
    same = dm * dp > 0.0
    lim = np.sign(dm) * np.minimum(
        np.minimum(2.0 * np.abs(dm), 2.0 * np.abs(dp)), 0.5 * np.abs(dm + dp)
    )
    inner = np.where(same, lim, 0.0)
    pad = [(0, 0), (0, 0)]
    pad[axis] = (1, 1)
    return np.pad(inner, pad)


def axis_flux_np(psi2d, face_vel, ratio, eq_face, diff, dq, axis):
    """Interior-face flux along one axis: limited upwind drift + ratio diffusion."""
    slopes = mc_slopes_np(psi2d, axis)
    n = psi2d.shape[axis]

    def take(arr, lo, hi):
        return np.take(arr, range(lo, hi), axis=axis)

    left = take(psi2d, 0, n - 1) + 0.5 * take(slopes, 0, n - 1)
    right = take(psi2d, 1, n) - 0.5 * take(slopes, 1, n)
    drift = np.where(face_vel >= 0.0, face_vel * left, face_vel * right)
    fp = -diff * eq_face * (take(ratio, 1, n) - take(ratio, 0, n - 1)) / dq
    return drift + fp


def fp_step_np(psi, Q, kappa, phys, dt) -> np.ndarray:
    """The kinetic step of density psi on [-Q, Q]^2 built from axis_flux_np
    with fresh temporaries.

    Every flux and update is the expression closure.fp_step evaluates in
    its reused workspace, so the two must agree bit for bit.
    """
    if not np.all(np.isfinite(psi)):
        raise BlowupError("kinetic distribution lost finiteness")
    nq = psi.shape[0]
    dq = 2.0 * Q / nq
    q = -Q + (np.arange(nq) + 0.5) * dq
    qf = q[:-1] + 0.5 * dq
    diff = phys.A0 / (4.0 * phys.lam)
    m1 = np.exp(-0.5 * q**2)
    eq_face = np.sqrt(m1[:-1] * m1[1:])
    with np.errstate(over="ignore"):
        vel_x = kappa.xx * qf[:, None] + kappa.xy * q[None, :]
        flux_x = axis_flux_np(psi, vel_x, psi / m1[:, None], eq_face[:, None],
                              diff, dq, 0)
        vel_y = kappa.yx * q[:, None] + kappa.yy * qf[None, :]
        flux_y = axis_flux_np(psi, vel_y, psi / m1[None, :], eq_face[None, :],
                              diff, dq, 1)
        out = psi.copy()
        out[0, :] -= dt / dq * flux_x[0, :]
        out[1:-1, :] -= dt / dq * np.diff(flux_x, axis=0)
        out[-1, :] += dt / dq * flux_x[-1, :]
        out[:, 0] -= dt / dq * flux_y[:, 0]
        out[:, 1:-1] -= dt / dq * np.diff(flux_y, axis=1)
        out[:, -1] += dt / dq * flux_y[:, -1]
    if not np.all(np.isfinite(out)):
        raise BlowupError("kinetic distribution lost finiteness")
    return out


def convolve_direct(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Kernel sweep with edge-replicated padding (constants preserved)."""
    rx = kernel.shape[0] // 2
    ry = kernel.shape[1] // 2
    padded = np.pad(arr, ((rx, rx), (ry, ry)), mode="edge")
    out = np.zeros_like(arr)
    nx, ny = arr.shape
    for a in range(kernel.shape[0]):
        for b in range(kernel.shape[1]):
            w = kernel[a, b]
            if w != 0.0:
                out += w * padded[a : a + nx, b : b + ny]
    return out


def mollify_scipy(grid, comps, theta: float) -> list:
    """grid.mollify_initial on scipy.fft: np.pad, then transforms zero-padded by shape."""
    nx, ny = grid.nx, grid.ny
    kernel = g2._bump_kernel(grid, theta)
    rx, ry = kernel.shape[0] // 2, kernel.shape[1] // 2
    shape = (scipy.fft.next_fast_len(nx + 2 * rx, real=True),
             scipy.fft.next_fast_len(ny + 2 * ry, real=True))
    kernel_hat = scipy.fft.rfft2(kernel[::-1, ::-1], shape)

    def smooth(arr):
        padded = np.pad(arr, ((rx, rx), (ry, ry)), mode="edge")
        full = scipy.fft.irfft2(scipy.fft.rfft2(padded, shape) * kernel_hat, shape)
        return full[2 * rx : 2 * rx + nx, 2 * ry : 2 * ry + ny].copy()

    return [smooth(arr) for arr in comps]


def neumann_heat_solve_np(arr: np.ndarray, kappa_dt: float, hx: float, hy: float) -> np.ndarray:
    """Solve (I - kappa_dt * lap_neumann) x = arr via DCT-II diagonalization."""
    nx, ny = arr.shape
    lam_x = (2.0 * np.cos(np.pi * np.arange(nx) / nx) - 2.0) / (hx * hx)
    lam_y = (2.0 * np.cos(np.pi * np.arange(ny) / ny) - 2.0) / (hy * hy)
    denom = 1.0 - kappa_dt * (lam_x[:, None] + lam_y[None, :])
    spec = scipy.fft.dctn(arr, type=2, norm="ortho")
    return scipy.fft.idctn(spec / denom, type=2, norm="ortho")


def apply_scalar(g, p: SymMat2) -> SymMat2:
    """Lift the scalar function g to p through its own eigendecomposition."""
    e = eig(p)
    return SymMat2(*recombine_fields(g(e.lam1), g(e.lam2), math.cos(e.angle), math.sin(e.angle)))


def tr_log(p: SymMat2) -> float:
    """tr log of an SPD matrix through its own eigendecomposition."""
    e = eig(p)
    if e.lam2 <= 0.0:
        raise NotSPDError(f"tr log needs eigenvalues > 0, got min {e.lam2}")
    return math.log(e.lam1) + math.log(e.lam2)


def matrix_log_diff_ineq_per_call(a: SymMat2, b: SymMat2) -> IneqResult:
    """matrix_log_diff_ineq with every term decomposing its matrix again."""
    ea, eb = eig(a), eig(b)
    if ea.lam2 <= 0.0 or eb.lam2 <= 0.0:
        raise NotSPDError("both arguments must be positive definite")
    lhs = (tr_log(a) - tr_log(b)) ** 2
    inv_a = apply_scalar(lambda s: 1.0 / s, a)
    inv_b = apply_scalar(lambda s: 1.0 / s, b)
    rhs = -DIM * a.sub(b).inner(inv_a.sub(inv_b))
    scale = 1.0 + abs(lhs) + abs(rhs)
    return IneqResult(lhs, rhs, lhs <= rhs + _MATRIX_LOG_SLACK * scale)


def convexity_trace_ineq_per_call(g, g_prime, kind: str, a: SymMat2, b: SymMat2) -> ChainResult:
    """convexity_trace_ineq with every lift decomposing its matrix again."""
    if kind not in ("concave", "convex"):
        raise ValueError("kind must be 'concave' or 'convex'")
    diff = a.sub(b)
    left = diff.inner(apply_scalar(g_prime, b))
    mid = apply_scalar(g, a).trace() - apply_scalar(g, b).trace()
    right = diff.inner(apply_scalar(g_prime, a))
    scale = 1.0 + abs(left) + abs(mid) + abs(right)
    slack = _CONVEXITY_SLACK * scale
    if kind == "concave":
        holds = (left >= mid - slack) and (mid >= right - slack)
    else:
        holds = (left <= mid + slack) and (mid <= right + slack)
    return ChainResult(left, mid, right, holds)


def apply_scalar_fields(g, xx: np.ndarray, xy: np.ndarray, yy: np.ndarray):
    """Lift a numpy-vectorized scalar g over component arrays."""
    lam1, lam2 = eig_fields(xx, xy, yy)
    c, s = rotation_fields(xx, xy, yy, lam1, lam2)
    return recombine_fields(g(lam1), g(lam2), c, s)


def chi_scalar(s3: float, s: float) -> float:
    return s3 if s < s3 else s


def chi_cutoff(s3: float, p: SymMat2) -> SymMat2:
    """Eigenvalue-wise max with s3; output SPD with min eigenvalue >= s3."""
    if s3 <= 0.0:
        raise ValueError("cutoff level must be positive")
    return apply_scalar(lambda s: chi_scalar(s3, s), p)


def sym_scale(p: SymMat2, c: float) -> SymMat2:
    return SymMat2(c * p.xx, c * p.xy, c * p.yy)


def jacobi_residual(path: Sequence[SymMat2], dt: float) -> float:
    """Centered-difference residual of d(log det P) = tr(P^-1 dP).

    Max over interior samples; O(dt^2) for smooth SPD paths.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    pairs = [eig(p) for p in path]
    for e in pairs:
        if e.lam2 <= 0.0:
            raise NotSPDError("path must stay positive definite")
    worst = 0.0
    for i in range(1, len(path) - 1):
        d_logdet = (
            math.log(path[i + 1].det()) - math.log(path[i - 1].det())
        ) / (2.0 * dt)
        dp = sym_scale(path[i + 1].sub(path[i - 1]), 1.0 / (2.0 * dt))
        inv_p = apply_scalar(lambda s: 1.0 / s, path[i])
        worst = max(worst, abs(d_logdet - inv_p.inner(dp)))
    return worst


def energy_inequality_residual(reports) -> float:
    """Max over report times of the one-sided budget residual; 0 if empty.

    The residual_max that run and sweep print is the same np.max over the
    recorder's residual column (cli._row_summary).
    """
    series = energy_residual_series(reports)
    # np.max, unlike max, lets a NaN report through
    return float(np.max(series)) if series else 0.0


def stress_grad_l2(grid, xx, xy, yy) -> float:
    """int |grad T|^2, summed over both derivative directions."""
    total = 0.0
    for comp, weight in ((xx, 1.0), (xy, 2.0), (yy, 1.0)):
        dx = g2.grad_x(comp, g2.NEUMANN, grid.hx)
        dy = g2.grad_y(comp, g2.NEUMANN, grid.hy)
        total += weight * cell_sum(grid, dx**2 + dy**2)
    return total


class StressL2Report(NamedTuple):
    bound: float  # sup_t int |T|^2 + eps int int |grad T|^2 + (A0/4 lam) int int |T|^2
    sup_l2: float
    grad_accum: float
    relax_accum: float
    l2_series: tuple[float, ...]
    doubled: bool  # some value more than doubled over a unit-time window


def stress_l2_monitor(
    grid,
    times: Sequence[float],
    stresses: Sequence[tuple],
    phys: PhysParams,
) -> StressL2Report:
    """Accumulate the stress norm bound over a run's (xx, xy, yy) samples on grid; flag blowup."""
    if len(times) != len(stresses):
        raise ValueError("times and stress snapshots must pair up")
    l2_vals = [stress_norms(grid, *T)[1] for T in stresses]
    grad_vals = [stress_grad_l2(grid, *T) for T in stresses]
    grad_accum = 0.0
    relax_accum = 0.0
    for i in range(1, len(times)):
        half_dt = 0.5 * (times[i] - times[i - 1])
        grad_accum += half_dt * (grad_vals[i - 1] + grad_vals[i])
        relax_accum += half_dt * (l2_vals[i - 1] + l2_vals[i])
    sup_l2 = max(l2_vals) if l2_vals else 0.0
    bound = sup_l2 + phys.eps * grad_accum + phys.A0 / (4.0 * phys.lam) * relax_accum

    doubled = not all(math.isfinite(v) for v in l2_vals)
    window_min = math.inf
    lag = 0
    for j in range(len(times)):
        while lag < j and times[j] - times[lag] >= 1.0:
            window_min = min(window_min, l2_vals[lag])
            lag += 1
        if window_min < math.inf and l2_vals[j] > 2.0 * window_min:
            doubled = True
    return StressL2Report(bound, sup_l2, grad_accum, relax_accum, tuple(l2_vals), doubled)
