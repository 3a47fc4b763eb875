"""Structured cell-centered grid and stencil operators.

The domain is the rectangle (0, lx) x (0, ly) split into nx x ny cells
with samples at cell centers.  Boundary handling goes through one layer
of ghost cells, and each field kind has one fixed ghost rule: odd
reflection realizes the no-slip (homogeneous Dirichlet) condition for
velocity, mirror ghosts realize homogeneous Neumann conditions for
scalars and tensors; each stencil call names its rule.  The state and the
field bundles that store its component arrays live in model.py.  All operators
take plain (nx, ny) arrays with the spacings or the grid and return new arrays;
nothing here mutates its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# The two ghost rules: DIRICHLET is the odd reflection of velocity,
# NEUMANN the mirror of every other field.  The odd reflection makes every
# wall-face velocity exactly zero, which keeps the upwind fluxes
# conservative.
DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class ParamError(ValueError):
    """A parameter violates its constraint; keys names the config keys involved."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def require(ok: bool, message: str, *keys: str) -> None:
    """Raise ParamError(message, *keys) unless ok."""
    if not ok:
        raise ParamError(message, *keys)


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangle (0,lx) x (0,ly) with nx x ny cell centers."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        require(self.nx >= 4, f"nx = {self.nx} violates nx >= 4", "nx")
        require(self.ny >= 4, f"ny = {self.ny} violates ny >= 4", "ny")
        require(self.lx > 0.0, f"lx = {self.lx} violates lx > 0", "lx")
        require(self.ly > 0.0, f"ly = {self.ly} violates ly > 0", "ly")
        # the config parser rejects inf; a snapshot header can still carry it
        require(self.lx < math.inf and self.ly < math.inf,
                f"domain side lengths {self.lx} x {self.ly} must be finite",
                "lx", "ly")
        # cell_sum scales by hx * hy and lap divides by hx * hx and hy * hy
        require(math.isfinite(self.lx * self.ly),
                f"domain area lx * ly = {self.lx} * {self.ly} overflows", "lx", "ly")
        # one float64 component must be addressable; this also keeps nx and
        # ny small enough to convert to float in hx and hy
        limit = np.iinfo(np.intp).max
        require(self.nx * self.ny * 8 <= limit,
                f"grid nx * ny = {self.nx} * {self.ny} is too large: one component "
                f"needs 8 * nx * ny bytes, at most {limit}", "nx", "ny")
        tiny, huge = sys.float_info.min, sys.float_info.max
        require(tiny <= self.hx * self.hx <= huge and tiny <= self.hy * self.hy <= huge,
                f"cell spacings lx / nx = {self.hx:.3e} and ly / ny = {self.hy:.3e} "
                "must have squares that are normal floats", "nx", "ny", "lx", "ly")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def area(self) -> float:
        return self.lx * self.ly

    def cell_centers(self):
        """Meshgrid arrays (x, y) of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


# ---------------------------------------------------------------------------
# Ghost-cell padding and array-level stencils.  Axis 0 is x, axis 1 is y.
# The stencils apply the operations of their plain expressions in the same
# order (tests/oracles.py keeps those forms), but in place and into out=
# arrays, and each drops a ghost buffer before it makes the next: fewer and
# shorter-lived temporaries let a step reuse freed heap blocks instead of
# growing the heap and faulting in fresh pages.


def _pad(arr: np.ndarray, bc: str, axis: int) -> np.ndarray:
    """One ghost layer on both ends of the given axis.

    Mirror ghost (Neumann): ghost equals the adjacent interior value.
    Odd reflection (Dirichlet): ghost equals minus the interior value,
    putting the zero of the linear interpolant on the wall face.

    Slice copies into an empty array give the values and the memory
    order of ``np.pad(mode="edge")``, without its per-call overhead.
    The odd ghosts are negated in place after the copy, never written
    through ``np.negative(..., out=ghost_view)``: numpy 2.4 writes wrong
    values into a strided ``out`` of that form for some shapes (8x8).
    """
    shape = list(arr.shape)
    shape[axis] += 2
    padded = np.empty(shape, dtype=arr.dtype, order="F" if arr.flags.fnc else "C")
    # swap the padded axis to the front so the copies are one set of slices
    p = padded.swapaxes(0, axis)
    a = arr.swapaxes(0, axis)
    p[1:-1] = a
    p[0] = a[0]
    p[-1] = a[-1]
    if bc == DIRICHLET:
        p[0] *= -1.0
        p[-1] *= -1.0
    return padded


def grad_x(arr: np.ndarray, bc: str, hx: float) -> np.ndarray:
    p = _pad(arr, bc, 0)
    out = np.subtract(p[2:, :], p[:-2, :])
    out /= 2.0 * hx
    return out


def grad_y(arr: np.ndarray, bc: str, hy: float) -> np.ndarray:
    p = _pad(arr, bc, 1)
    out = np.subtract(p[:, 2:], p[:, :-2])
    out /= 2.0 * hy
    return out


def lap(arr: np.ndarray, bc: str, hx: float, hy: float) -> np.ndarray:
    two = 2.0 * arr
    p = _pad(arr, bc, 0)
    ddx = np.subtract(p[2:, :], two)
    ddx += p[:-2, :]
    ddx /= hx * hx
    del p
    p = _pad(arr, bc, 1)
    ddy = np.subtract(p[:, 2:], two, out=two)
    ddy += p[:, :-2]
    ddy /= hy * hy
    del p
    return ddx + ddy


def _upwind_flux(u: np.ndarray, arr: np.ndarray, arr_bc: str, axis: int) -> np.ndarray:
    """Face velocity times the upwind value on the faces across the axis.

    The face velocity averages the two cells beside the face; the upwind
    value is arr in the cell the face velocity comes from.  The result
    has one more entry along the axis than arr.
    """
    pu = _pad(u, DIRICHLET, axis).swapaxes(0, axis)
    flux = np.add(pu[:-1], pu[1:])
    flux *= 0.5
    del pu
    pa = _pad(arr, arr_bc, axis).swapaxes(0, axis)
    flux *= np.where(flux > 0.0, pa[:-1], pa[1:])
    return flux.swapaxes(0, axis)


def upwind_div(ux: np.ndarray, uy: np.ndarray,
               arr: np.ndarray, arr_bc: str, hx: float, hy: float) -> np.ndarray:
    """Conservative first-order upwind discretization of div(u * arr).

    Face velocities average the two adjacent cells of the no-slip
    velocity (ux, uy); the odd reflection makes every wall-face velocity
    exactly zero, so the total flux telescopes to zero and cell sums are
    conserved.
    """
    flux_x = _upwind_flux(ux, arr, arr_bc, 0)  # x-faces, shape (nx+1, ny)
    flux_y = _upwind_flux(uy, arr, arr_bc, 1)  # y-faces, shape (nx, ny+1)
    dx = np.subtract(flux_x[1:, :], flux_x[:-1, :])
    dx /= hx
    dy = np.subtract(flux_y[:, 1:], flux_y[:, :-1])
    dy /= hy
    return dx + dy


def tensor_divergence(xx, xy, yy, hx: float, hy: float):
    """Row-wise divergence (Div T)_k = sum_l d_l T_kl of a mirror-ghost tensor, as (vx, vy)."""
    vx = grad_x(xx, NEUMANN, hx)
    vx += grad_y(xy, NEUMANN, hy)
    vy = grad_x(xy, NEUMANN, hx)
    vy += grad_y(yy, NEUMANN, hy)
    return vx, vy


def cell_sum(grid: Grid2D, arr: np.ndarray) -> float:
    """Midpoint-rule quadrature of a cell array."""
    return float(np.sum(arr) * grid.hx * grid.hy)


# ---------------------------------------------------------------------------
# Friedrichs-style mollifier for initial data.


def _bump_kernel(grid: Grid2D, theta: float) -> np.ndarray:
    """Quartic bump c(1 - r^2/theta^2)^2 on r < theta, unit discrete mass."""
    rx = int(math.ceil(theta / grid.hx))
    ry = int(math.ceil(theta / grid.hy))
    dx = np.arange(-rx, rx + 1) * grid.hx
    dy = np.arange(-ry, ry + 1) * grid.hy
    r2 = dx[:, None] ** 2 + dy[None, :] ** 2
    # only cells inside the support divide by theta^2, which may underflow to 0
    inside = r2 < theta * theta
    w = np.zeros_like(r2)
    w[inside] = (1.0 - r2[inside] / (theta * theta)) ** 2
    total = w.sum()
    if total == 0.0:  # support smaller than one cell: identity kernel
        w = np.zeros((1, 1))
        w[0, 0] = 1.0
        return w
    return w / total


def _fast_len(n: int) -> int:
    """The least 5-smooth length 2^a 3^b 5^c >= n, a fast real-FFT size."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def mollify_initial(grid: Grid2D, comps, theta: float) -> list:
    """Smooth each raw initial component array on grid at radius theta.

    Correlates each array with the unit-mass bump of radius theta and
    returns the results as fresh arrays, in the order of comps.  The
    positivity lift that follows the smoothing is the caller's.

    Each component is edge-replicated by the kernel radius (constants are
    preserved) and convolved with the flipped kernel by one real FFT pair.
    The transform sizes are no shorter than the padded array: the linear
    convolution is nonzero on [0, nx + 4 rx), a circular one of length
    L >= nx + 2 rx folds only indices >= L back, and those land below
    2 rx, outside the valid window [2 rx, 2 rx + nx).

    The transforms run on numpy.fft into three buffers shared by all
    components: at 256^2, fresh result arrays per transform made the
    seven-component call about 1.4x slower.  Their order and the single
    1/(P Q) scale of the inverse are those of scipy.fft's rfft2/irfft2,
    so the output is bit for bit that of tests/oracles.mollify_scipy.
    """
    if not 0.0 < theta < math.inf:  # NaN fails both comparisons
        raise ValueError(f"mollifier radius theta = {theta!r} must be finite and positive")
    nx, ny = grid.nx, grid.ny
    kernel = _bump_kernel(grid, theta)
    rx, ry = kernel.shape[0] // 2, kernel.shape[1] // 2
    mx, my = nx + 2 * rx, ny + 2 * ry
    P, Q = _fast_len(mx), _fast_len(my)
    # zero beyond the padded block: each component overwrites only
    # [:mx, :my], which also covers the kernel written here first
    buf = np.zeros((P, Q))
    buf[: kernel.shape[0], : kernel.shape[1]] = kernel[::-1, ::-1]
    kernel_hat = np.fft.rfft2(buf)  # one kernel spectrum for all components
    spec = np.empty_like(kernel_hat)
    full = np.empty((P, Q))
    scale = 1.0 / (P * Q)

    def smooth(arr):
        buf[rx : rx + nx, ry : ry + ny] = arr
        buf[:rx, ry : ry + ny] = arr[0]
        buf[rx + nx : mx, ry : ry + ny] = arr[-1]
        buf[:mx, :ry] = buf[:mx, ry : ry + 1]
        buf[:mx, ry + ny : my] = buf[:mx, ry + ny - 1 : ry + ny]
        np.fft.rfft2(buf, out=spec)
        np.multiply(spec, kernel_hat, out=spec)
        # irfft2's axis order (axis 0, then the real axis 1), unscaled
        np.fft.ifft(spec, axis=0, norm="forward", out=spec)
        np.fft.irfft(spec, Q, axis=1, norm="forward", out=full)
        return full[2 * rx : 2 * rx + nx, 2 * ry : 2 * ry + ny] * scale

    return [smooth(arr) for arr in comps]
