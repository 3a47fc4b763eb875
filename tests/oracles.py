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
that the package's numpy.fft one must reproduce bit for bit,
neumann_heat_solve_fft the plain-expression numpy.fft form of the DCT heat
solve, with its own per-call denominator, that the package's in-place
version must reproduce bit for bit, and neumann_heat_solve_np the
scipy.fft DCT form of the same solve, which it must match to rounding.
matrix_log_diff_ineq_fields_per_call and
convexity_trace_ineq_fields_per_call are the inequality checkers with
every term decomposing its matrices again (through apply_scalar_mat and
tr_log_fields); the package's one-decomposition checkers must reproduce
them bit for bit, exceptions included.
rhs_momentum_by_terms is the momentum right-hand side with one divergence per
term of the total stress and tr log T as log lam1 + log lam2 (tr_log_eig);
the package's one-divergence rhs_momentum must match it within the bound
stated in tests/test_model.py, and its tr_log_field must raise what
tr_log_eig raises, message for message.  KNOB_SETS are the knob settings
those tests and the in-place tests run.

eig, EigenPair2 and lift are the closed-form 2x2 eigendecomposition of one
matrix in plain float arithmetic and math-module calls, the scalar twin of
the package's eig_fields / rotation_fields.  On them rest the scalar
references: scalar_log_ineq_math, matrix_log_diff_ineq_per_call and
convexity_trace_ineq_per_call, which the package's array checkers must
match within the ulp bounds stated in tests/test_symcalc.py (numpy's SIMD
log and cos may round differently from libm's).

The rest are checks that more than one test module runs and the solver
never does, built on that closed-form 2x2 calculus: tr log of
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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from oldroyd2d import grid as g2
from oldroyd2d.diagnostics import energy_residual_series, stress_norms
from oldroyd2d.grid import cell_sum
from oldroyd2d.integrate import BlowupError
from oldroyd2d import model
from oldroyd2d.model import PhysParams, RegParams
from oldroyd2d.symcalc import (_CONVEXITY_SLACK, _MATRIX_LOG_SLACK, _SCALAR_LOG_SLACK,
                                _TIE_BREAK_REL, DIM, ChainResult, IneqResult, NotSPDError,
                                SymMat2, eig_fields, recombine_fields, rotation_fields)


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


def tr_log_eig(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray, context: str) -> np.ndarray:
    """tr log T as log lam1 + log lam2 of eig_fields, aborting as model.tr_log_field must."""
    lam1, lam2 = eig_fields(xx, xy, yy)
    if np.any(lam2 <= 0.0) or not np.all(np.isfinite(lam2)):
        where = f" in {context}"
        finite = np.isfinite(lam2)
        if not finite.all():
            idx = np.unravel_index(np.argmin(finite), lam2.shape)
            cell = tuple(int(v) for v in idx)
            if np.isfinite(xx[idx]) and np.isfinite(xy[idx]) and np.isfinite(yy[idx]):
                raise NotSPDError(
                    f"stress eigenvalue overflowed at cell {cell} (T_xx = {xx[idx]:.3e},"
                    f" T_xy = {xy[idx]:.3e}, T_yy = {yy[idx]:.3e}){where}")
            raise NotSPDError(
                f"stress is not finite at cell {cell} (eigenvalue {lam2[idx]:.3e}){where}")
        idx = np.unravel_index(np.argmin(lam2), lam2.shape)
        raise NotSPDError(
            f"stress lost positive definiteness at cell {tuple(int(v) for v in idx)}"
            f" (min eigenvalue {lam2[idx]:.3e}){where}")
    return np.log(lam1) + np.log(lam2)


def rhs_momentum_by_terms(grid, comps, faces, jac, phys: PhysParams, reg):
    """The momentum right-hand side with one divergence per term of the total stress."""
    rho, ux, uy, eta, txx, txy, tyy = comps
    hx, hy = grid.hx, grid.hy
    visc_x, visc_y = g2.tensor_divergence(*model.newtonian_stress(jac, phys), hx, hy)
    div_x, div_y = g2.tensor_divergence(txx, txy, tyy, hx, hy)
    p = model.pressure(rho, phys, reg)
    solvent = model.polymer_pressure(eta, phys)
    out_x = (-g2.upwind_div(faces, rho * ux, g2.DIRICHLET, hx, hy)
             - g2.grad_x(p, g2.NEUMANN, hx) - g2.grad_x(solvent, g2.NEUMANN, hx)
             + visc_x + div_x)
    out_y = (-g2.upwind_div(faces, rho * uy, g2.DIRICHLET, hx, hy)
             - g2.grad_y(p, g2.NEUMANN, hy) - g2.grad_y(solvent, g2.NEUMANN, hy)
             + visc_y + div_y)
    if reg.alpha != 0.0:
        trlog = tr_log_eig(txx, txy, tyy, context="momentum assembly")
        out_x = out_x - 0.5 * reg.alpha * g2.grad_x(trlog, g2.NEUMANN, hx)
        out_y = out_y - 0.5 * reg.alpha * g2.grad_y(trlog, g2.NEUMANN, hy)
    if reg.sigma2 != 0.0:
        jxx, jxy, jyx, jyy = jac
        drho_x, drho_y = g2.grad_x(rho, g2.NEUMANN, hx), g2.grad_y(rho, g2.NEUMANN, hy)
        out_x = out_x - reg.sigma2 * (jxx * drho_x + jxy * drho_y)
        out_y = out_y - reg.sigma2 * (jyx * drho_x + jyy * drho_y)
    return out_x, out_y


# The knob sets that the in-place and momentum-assembly tests run: every
# regularization knob and both optional physical terms (muB, delta) active somewhere.
KNOB_SETS = {
    "base": (PhysParams(muS=0.1, eps=0.1), RegParams()),
    "alpha-sigma2": (PhysParams(muS=0.1, eps=0.1), RegParams(alpha=0.1, sigma2=0.01)),
    "sigma1-sigma3-muB-delta": (PhysParams(muS=0.1, muB=0.05, eps=0.1, delta=0.5),
                                RegParams(alpha=0.1, sigma1=0.01, sigma3=0.05)),
}


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


def neumann_symbol_np(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of the mirror-ghost Neumann laplacian on the DCT-II modes (k, l)."""
    lam_x = (2.0 * np.cos(np.pi * np.arange(nx) / nx) - 2.0) / (hx * hx)
    lam_y = (2.0 * np.cos(np.pi * np.arange(ny) / ny) - 2.0) / (hy * hy)
    return lam_x[:, None] + lam_y[None, :]


def neumann_heat_solve_np(arr: np.ndarray, kappa_dt: float, hx: float, hy: float) -> np.ndarray:
    """Solve (I - kappa_dt * lap_neumann) x = arr via scipy.fft's DCT-II."""
    denom = 1.0 - kappa_dt * neumann_symbol_np(*arr.shape, hx, hy)
    spec = scipy.fft.dctn(arr, type=2, norm="ortho")
    return scipy.fft.idctn(spec / denom, type=2, norm="ortho")


def neumann_heat_solve_fft(arr: np.ndarray, kappa_dt: float, hx: float, hy: float) -> np.ndarray:
    """The same solve through numpy.fft, in fresh arrays: Makhoul's reorder, the 2D real FFT,
    the quarter-wave twiddles and their inverses, with fancy indexing for each permutation."""
    nx, ny = arr.shape
    hy_modes = ny // 2 + 1
    sym = neumann_symbol_np(nx, ny, hx, hy)
    modes = np.arange(hy_modes)
    # half-spectrum column l: real part y-mode l, imaginary part y-mode (ny - l) % ny
    denom = 1.0 - kappa_dt * np.stack([sym[:, modes], sym[:, (ny - modes) % ny]],
                                      axis=2).reshape(nx, -1)
    px = np.concatenate([np.arange(0, nx, 2), np.arange(nx - 1 - nx % 2, 0, -2)])
    py = np.concatenate([np.arange(0, ny, 2), np.arange(ny - 1 - ny % 2, 0, -2)])
    rev = (nx - np.arange(nx)) % nx  # row k -> row -k
    tx = np.exp(-0.5j * np.pi / nx * np.arange(nx))[:, None]
    ty = np.exp(-0.5j * np.pi / ny * np.arange(hy_modes))
    half = 0.5 * tx
    w = np.fft.fft(np.fft.rfft(arr[px][:, py], axis=1), axis=0) * ty
    g = w * half + w[rev] * half.conj()
    g = (np.ascontiguousarray(g).view(np.float64) / denom).view(np.complex128)
    g_rev = np.where(np.arange(nx)[:, None] == 0, 0.0, g[rev])  # g_nx = 0
    w = (g + g_rev * -1j) * tx.conj() * ty.conj()
    x = np.fft.irfft(np.fft.ifft(w, axis=0), ny, axis=1)
    out = np.empty_like(x)
    out[np.ix_(px, py)] = x
    return out


@dataclass(frozen=True)
class EigenPair2:
    """Ordered eigenvalues lam1 >= lam2 plus the rotation angle of O.

    O = [[cos phi, -sin phi], [sin phi, cos phi]] maps the standard basis
    onto the eigenvectors, first column belonging to lam1.
    """

    lam1: float
    lam2: float
    angle: float

    def tr_log(self) -> float:
        """tr log of the matrix, for positive eigenvalues."""
        return math.log(self.lam1) + math.log(self.lam2)


def eig(p: SymMat2) -> EigenPair2:
    """Closed-form eigendecomposition of one float matrix via the characteristic quadratic.

    The smaller-magnitude root comes from det/lam to dodge the
    subtraction cancellation when the eigenvalues are far apart.  The
    rotation angle comes from atan2 on the off-diagonal structure,
    guarded so that a (near-)repeated eigenvalue yields O = I.
    """
    mean = 0.5 * (p.xx + p.yy)
    half_gap = 0.5 * (p.xx - p.yy)
    radius = math.hypot(half_gap, p.xy)
    if radius == 0.0:
        return EigenPair2(mean, mean, 0.0)
    if mean >= 0.0:
        lam1 = mean + radius
        lam2 = p.det() / lam1 if lam1 != 0.0 else mean - radius
    else:
        lam2 = mean - radius
        lam1 = p.det() / lam2
    if lam1 - lam2 < _TIE_BREAK_REL * (1.0 + abs(lam1)):
        return EigenPair2(lam1, lam2, 0.0)
    angle = 0.5 * math.atan2(2.0 * p.xy, p.xx - p.yy)
    return EigenPair2(lam1, lam2, angle)


def lift(g: Callable[[float], float], e: EigenPair2) -> SymMat2:
    """The scalar function g lifted to the matrix whose eigendecomposition is e."""
    return SymMat2(*recombine_fields(g(e.lam1), g(e.lam2), math.cos(e.angle), math.sin(e.angle)))


def scalar_log_ineq_math(a: float, b: float) -> IneqResult:
    """symcalc.scalar_log_ineq for one pair of floats, on math.log."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("arguments must be positive")
    lhs = -(a - b) * (1.0 / a - 1.0 / b)
    rhs = (math.log(a) - math.log(b)) ** 2
    return IneqResult(lhs, rhs, lhs >= rhs - _SCALAR_LOG_SLACK)


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


def apply_scalar_mat(g, p: SymMat2) -> SymMat2:
    """apply_scalar_fields on the entry arrays of p, as a SymMat2."""
    return SymMat2(*apply_scalar_fields(g, p.xx, p.xy, p.yy))


def tr_log_fields(p: SymMat2) -> np.ndarray:
    """tr log of each matrix of p through its own eig_fields call."""
    lam1, lam2 = eig_fields(p.xx, p.xy, p.yy)
    return np.log(lam1) + np.log(lam2)


def matrix_log_diff_ineq_fields_per_call(a: SymMat2, b: SymMat2) -> IneqResult:
    """symcalc.matrix_log_diff_ineq with every term decomposing its matrices again."""
    spd = [x > 0.0 and y > 0.0 for x, y in zip(eig_fields(a.xx, a.xy, a.yy)[1].ravel(),
                                                eig_fields(b.xx, b.xy, b.yy)[1].ravel())]
    if not all(spd):
        raise NotSPDError(f"both arguments must be positive definite (sample {spd.index(False)})")
    lhs = (tr_log_fields(a) - tr_log_fields(b)) ** 2
    inv_a = apply_scalar_mat(lambda s: 1.0 / s, a)
    inv_b = apply_scalar_mat(lambda s: 1.0 / s, b)
    rhs = -DIM * a.sub(b).inner(inv_a.sub(inv_b))
    scale = 1.0 + np.abs(lhs) + np.abs(rhs)
    return IneqResult(lhs, rhs, lhs <= rhs + _MATRIX_LOG_SLACK * scale)


def convexity_trace_ineq_fields_per_call(g, g_prime, kind: str,
                                         a: SymMat2, b: SymMat2) -> ChainResult:
    """symcalc.convexity_trace_ineq with every lift decomposing its matrices again."""
    if kind not in ("concave", "convex"):
        raise ValueError("kind must be 'concave' or 'convex'")
    diff = a.sub(b)
    left = diff.inner(apply_scalar_mat(g_prime, b))
    mid = apply_scalar_mat(g, a).trace() - apply_scalar_mat(g, b).trace()
    right = diff.inner(apply_scalar_mat(g_prime, a))
    scale = 1.0 + np.abs(left) + np.abs(mid) + np.abs(right)
    slack = _CONVEXITY_SLACK * scale
    if kind == "concave":
        holds = (left >= mid - slack) & (mid >= right - slack)
    else:
        holds = (left <= mid + slack) & (mid <= right + slack)
    return ChainResult(left, mid, right, holds)


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
