"""Independent reference routes for the tests.

The matrix-calculus references go through numpy.linalg / scipy rather
than the closed-form 2x2 formulas in the package, so a bug in the
package cannot hide in the expected values.  The ghost-padding and
kinetic-flux references are the plain np.pad / np.take formulations the
package's slice-based versions must reproduce bit for bit, and
eig_fields_np is the nested np.where eigendecomposition the package's
masked-divide eig_fields / rotation_fields must reproduce bit for bit.
convolve_direct is the tap-by-tap kernel sum the package's FFT mollifier
must match to rounding, and neumann_heat_solve_np the per-call DCT heat
solve its shared-denominator version must reproduce bit for bit.
"""

import numpy as np
import scipy.fft
import scipy.linalg


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


def neumann_heat_solve_np(arr: np.ndarray, kappa_dt: float, hx: float, hy: float) -> np.ndarray:
    """Solve (I - kappa_dt * lap_neumann) x = arr via DCT-II diagonalization."""
    nx, ny = arr.shape
    lam_x = (2.0 * np.cos(np.pi * np.arange(nx) / nx) - 2.0) / (hx * hx)
    lam_y = (2.0 * np.cos(np.pi * np.arange(ny) / ny) - 2.0) / (hy * hy)
    denom = 1.0 - kappa_dt * (lam_x[:, None] + lam_y[None, :])
    spec = scipy.fft.dctn(arr, type=2, norm="ortho")
    return scipy.fft.idctn(spec / denom, type=2, norm="ortho")
