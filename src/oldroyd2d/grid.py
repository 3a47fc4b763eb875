"""Structured cell-centered grid, field containers, and stencil operators.

The domain is the rectangle (0, lx) x (0, ly) split into nx x ny cells
with samples at cell centers.  Boundary handling goes through one layer
of ghost cells, and each field kind has one fixed ghost rule: odd
reflection realizes the no-slip (homogeneous Dirichlet) condition for
velocity, mirror ghosts realize homogeneous Neumann conditions for
scalars and tensors.  All operators are linear stencils acting on whole
component arrays; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.fft

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


@dataclass
class ScalarField2D:
    grid: Grid2D
    data: np.ndarray
    bc: ClassVar[str] = NEUMANN

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("scalar data must have shape (nx, ny)")

    def copy(self) -> "ScalarField2D":
        return ScalarField2D(self.grid, self.data.copy())

    def components(self):
        return (self.data,)


@dataclass
class VectorField2D:
    grid: Grid2D
    x: np.ndarray
    y: np.ndarray
    bc: ClassVar[str] = DIRICHLET

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        shape = (self.grid.nx, self.grid.ny)
        if self.x.shape != shape or self.y.shape != shape:
            raise ValueError("vector components must have shape (nx, ny)")

    def copy(self) -> "VectorField2D":
        return VectorField2D(self.grid, self.x.copy(), self.y.copy())

    def components(self):
        return (self.x, self.y)


@dataclass
class SymTensorField2D:
    """Symmetric tensor field storing (xx, xy, yy) per cell."""

    grid: Grid2D
    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray
    bc: ClassVar[str] = NEUMANN

    def __post_init__(self):
        self.xx = np.asarray(self.xx, dtype=np.float64)
        self.xy = np.asarray(self.xy, dtype=np.float64)
        self.yy = np.asarray(self.yy, dtype=np.float64)
        shape = (self.grid.nx, self.grid.ny)
        for comp in (self.xx, self.xy, self.yy):
            if comp.shape != shape:
                raise ValueError("tensor components must have shape (nx, ny)")

    def copy(self) -> "SymTensorField2D":
        return SymTensorField2D(
            self.grid, self.xx.copy(), self.xy.copy(), self.yy.copy()
        )

    def components(self):
        return (self.xx, self.xy, self.yy)

    def frobenius_sq(self) -> np.ndarray:
        """Pointwise squared Frobenius norm, the off-diagonal counted twice."""
        return self.xx**2 + 2.0 * self.xy**2 + self.yy**2


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


def tensor_divergence(t: SymTensorField2D) -> VectorField2D:
    """Row-wise divergence (Div T)_k = sum_l d_l T_kl."""
    g = t.grid
    vx = grad_x(t.xx, t.bc, g.hx)
    vx += grad_y(t.xy, t.bc, g.hy)
    vy = grad_x(t.xy, t.bc, g.hx)
    vy += grad_y(t.yy, t.bc, g.hy)
    return VectorField2D(g, vx, vy)


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
    w = np.where(r2 < theta * theta, (1.0 - r2 / (theta * theta)) ** 2, 0.0)
    total = w.sum()
    if total == 0.0:  # support smaller than one cell: identity kernel
        w = np.zeros((1, 1))
        w[0, 0] = 1.0
        return w
    return w / total


def _fft_shape(nx: int, ny: int, rx: int, ry: int):
    """Transform sizes no shorter than the padded array.

    The linear convolution of the padded array with the kernel is
    nonzero on [0, nx + 4 rx); a circular one of length L >= nx + 2 rx
    folds only indices >= L back, and those land below 2 rx, outside the
    valid window [2 rx, 2 rx + nx).
    """
    return (scipy.fft.next_fast_len(nx + 2 * rx, real=True),
            scipy.fft.next_fast_len(ny + 2 * ry, real=True))


def _convolve_component(arr: np.ndarray, kernel_hat: np.ndarray, rx: int, ry: int) -> np.ndarray:
    """Kernel correlation with edge-replicated padding (constants preserved).

    kernel_hat is the real FFT of the flipped (2 rx + 1) x (2 ry + 1)
    kernel at _fft_shape(nx, ny, rx, ry); one convolution with it is the
    correlation with the kernel.
    """
    nx, ny = arr.shape
    shape = _fft_shape(nx, ny, rx, ry)
    padded = np.pad(arr, ((rx, rx), (ry, ry)), mode="edge")
    full = scipy.fft.irfft2(scipy.fft.rfft2(padded, shape) * kernel_hat, shape)
    return full[2 * rx : 2 * rx + nx, 2 * ry : 2 * ry + ny].copy()


def mollify_initial(data, theta: float):
    """Smooth raw initial data and lift it off the degenerate set.

    Convolves each component with the unit-mass bump of radius theta,
    then applies the positivity shift: + theta for scalars, + theta on
    the diagonal for tensors (min eigenvalue >= theta afterwards).
    Vectors are smoothed without a shift.
    """
    if theta <= 0.0:
        raise ValueError("mollifier radius must be positive")
    grid = data.grid
    kernel = _bump_kernel(grid, theta)
    rx, ry = kernel.shape[0] // 2, kernel.shape[1] // 2
    # one kernel spectrum for all components of the field
    kernel_hat = scipy.fft.rfft2(kernel[::-1, ::-1], _fft_shape(grid.nx, grid.ny, rx, ry))

    def smooth(arr):
        return _convolve_component(arr, kernel_hat, rx, ry)

    if isinstance(data, ScalarField2D):
        out = smooth(data.data) + theta
        return ScalarField2D(grid, out)
    if isinstance(data, VectorField2D):
        return VectorField2D(grid, smooth(data.x), smooth(data.y))
    if isinstance(data, SymTensorField2D):
        return SymTensorField2D(
            grid,
            smooth(data.xx) + theta,
            smooth(data.xy),
            smooth(data.yy) + theta,
        )
    raise TypeError(f"unsupported field type {type(data).__name__}")

