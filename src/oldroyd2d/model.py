"""Right-hand-side assembly for the regularized compressible Oldroyd-B system.

Unknowns: density rho, velocity u (no-slip), polymer number density eta,
extra stress T (symmetric, diffusive).  The regularization knobs are

  alpha   - logarithmic stress term in the momentum equation,
  sigma1  - artificial pressure sigma1 * rho^Gamma,
  sigma2  - density diffusion plus the compensating velocity-gradient
            coupling in the momentum equation,
  sigma3  - eigenvalue cutoff chi applied to T in the transport,
            stretching, and relaxation slots (diffusion acts on T itself),
  theta   - mollification radius for initial data.

With every knob at zero the assembled right-hand sides coincide with
the base model bit for bit: knob terms are skipped, not multiplied by 0.

SimState holds t, the grid and four fields.  The field bundles (ScalarField2D,
VectorField2D, SymTensorField2D) are defined here and nowhere else: only
state_from_components builds them and only SimState.components() reads them.
Every function below the state takes and returns plain arrays; rhs_momentum
returns (x, y), rhs_stress [xx, xy, yy].
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from oldroyd2d import grid as g2
from oldroyd2d import symcalc
from oldroyd2d.grid import Grid2D, require
from oldroyd2d.symcalc import NotSPDError


@dataclass(frozen=True)
class PhysParams:
    """Physical constants; lambda is spelled lam (reserved word)."""

    a: float = 1.0          # pressure coefficient
    gamma: float = 2.0      # adiabatic exponent (> d/2 = 1)
    muS: float = 1.0        # shear viscosity
    muB: float = 0.0        # bulk viscosity
    eps: float = 1.0        # center-of-mass / stress diffusion
    k: float = 1.0          # Boltzmann-temperature product
    L: float = 1.0          # bead-number parameter
    delta: float = 0.0      # interaction coefficient
    lam: float = 1.0        # relaxation (Deborah) parameter
    A0: float = 1.0         # Rouse eigenvalue

    def __post_init__(self):
        require(self.a > 0.0, f"a = {self.a} violates a > 0 (pressure coefficient)", "a")
        require(self.gamma > 1.0,
                f"gamma = {self.gamma} violates gamma > 1 (adiabatic exponent)", "gamma")
        require(self.muS > 0.0, f"muS = {self.muS} violates muS > 0 (shear viscosity)", "muS")
        require(self.muB >= 0.0, f"muB = {self.muB} violates muB >= 0 (bulk viscosity)", "muB")
        require(self.eps > 0.0, f"eps = {self.eps} violates eps > 0 (stress diffusion)", "eps")
        require(self.k > 0.0, f"k = {self.k} violates k > 0", "k")
        require(self.L >= 0.0, f"L = {self.L} violates L >= 0", "L")
        require(self.delta >= 0.0, f"delta = {self.delta} violates delta >= 0", "delta")
        require(self.L + self.delta != 0.0,
                "L and delta cannot both vanish (the polymer pressure needs at "
                "least one of them)", "L", "delta")
        require(self.lam > 0.0,
                f"lambda = {self.lam} violates lambda > 0 (relaxation time)", "lambda")
        require(self.A0 > 0.0, f"A0 = {self.A0} violates A0 > 0", "A0")


@dataclass(frozen=True)
class RegParams:
    alpha: float = 0.0
    sigma1: float = 0.0
    Gamma: float = 4.0
    sigma2: float = 0.0
    sigma3: float = 0.0
    theta: float = 0.1

    def __post_init__(self):
        for key in ("alpha", "sigma1", "sigma2", "sigma3"):
            val = getattr(self, key)
            require(val >= 0.0, f"{key} = {val} violates {key} >= 0", key)
        require(self.theta > 0.0,
                f"theta = {self.theta} violates theta > 0 (mollification radius)", "theta")
        require(self.sigma1 <= 0.0 or self.Gamma >= 4.0,
                f"Gamma = {self.Gamma} violates Gamma >= 4, required whenever "
                "sigma1 > 0 (artificial pressure exponent)", "Gamma", "sigma1")
        cap = min(self.alpha, self.theta)
        require(self.sigma3 <= 0.0 or self.sigma3 < cap,
                f"sigma3 = {self.sigma3} violates sigma3 < min(alpha, theta) = "
                f"{cap} (the eigenvalue cutoff must sit below the stress shift "
                "and the mollification radius)", "sigma3", "alpha", "theta")


@dataclass
class ScalarField2D:
    data: np.ndarray


@dataclass
class VectorField2D:
    x: np.ndarray
    y: np.ndarray


@dataclass
class SymTensorField2D:
    """Symmetric tensor field storing (xx, xy, yy) per cell."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray


@dataclass
class SimState:
    t: float
    grid: Grid2D
    rho: ScalarField2D
    u: VectorField2D
    eta: ScalarField2D
    T: SymTensorField2D
    # Indices into components() that the mollified presets lift by theta:
    # rho, eta and the diagonal of T, so that rho, eta and both eigenvalues
    # of T are >= theta afterwards; the velocity and T_xy are not lifted.
    LIFTED: ClassVar[tuple[int, ...]] = (0, 3, 4, 6)

    def components(self) -> tuple:
        """The seven component arrays: rho, u_x, u_y, eta, T_xx, T_xy, T_yy."""
        return (self.rho.data, self.u.x, self.u.y, self.eta.data,
                self.T.xx, self.T.xy, self.T.yy)

    def copy(self) -> "SimState":
        return state_from_components(self.t, self.grid,
                                     *(comp.copy() for comp in self.components()))


def state_from_components(t: float, grid: Grid2D, rho, ux, uy, eta, txx, txy, tyy) -> SimState:
    """The state at time t on grid whose fields hold the seven component arrays.

    Each is converted to float64 (a float64 array is kept, not copied); ValueError
    names the first one whose shape is not (nx, ny)."""
    shape = (grid.nx, grid.ny)
    comps = [np.asarray(c, dtype=np.float64) for c in (rho, ux, uy, eta, txx, txy, tyy)]
    for name, comp in zip(_STATE_COMPONENTS, comps):
        if comp.shape != shape:
            raise ValueError(f"component {name} has shape {comp.shape}, not (nx, ny) = {shape}")
    rho, ux, uy, eta, txx, txy, tyy = comps
    return SimState(t, grid, ScalarField2D(rho), VectorField2D(ux, uy), ScalarField2D(eta),
                    SymTensorField2D(txx, txy, tyy))


# A state file is one ASCII line "<tag> nx ny lx ly t", its floats written by repr so
# that they read back exactly, then the seven components as row-major little-endian float64:
_STATE_COMPONENTS = ("rho", "u_x", "u_y", "eta", "T_xx", "T_xy", "T_yy")
_STATE_TAG = "oldroyd2d-state-v1"


def save_state(state: SimState, path) -> None:
    """Write state to one file that load_state reads back bit for bit."""
    g = state.grid
    header = f"{_STATE_TAG} {g.nx} {g.ny} {g.lx!r} {g.ly!r} {state.t!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for comp in state.components():
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def load_state(path) -> SimState:
    """Read a file written by save_state; OSError if unreadable, ValueError if malformed."""
    header, _, payload = Path(path).read_bytes().partition(b"\n")
    try:
        tag, nx, ny, lx, ly, t = header.decode("ascii").split()
        nx, ny, lx, ly, t = int(nx), int(ny), float(lx), float(ly), float(t)
    except ValueError:
        raise ValueError(f"unreadable header {header[:80]!r}") from None
    if tag != _STATE_TAG:
        raise ValueError(f"format tag {tag[:40]!r} is not {_STATE_TAG!r}")
    if not np.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    grid = Grid2D(nx, ny, lx, ly)
    if len(payload) != 8 * nx * ny * 7:
        raise ValueError(f"payload has {len(payload)} bytes, expected 8 * {nx} * {ny} * 7")
    comps = np.frombuffer(payload, dtype="<f8").reshape(7, nx, ny)
    for name, comp in zip(_STATE_COMPONENTS, comps):
        if not np.isfinite(comp).all():
            idx = np.unravel_index(np.argmin(np.isfinite(comp)), comp.shape)
            raise ValueError(f"non-finite {name} at cell {tuple(int(v) for v in idx)}")
    return state_from_components(t, grid, *(c.copy() for c in comps))


def _scaled(c: float, arr: np.ndarray) -> np.ndarray:
    """c * arr, computed in arr's own storage."""
    arr *= c
    return arr


def pressure(rho: np.ndarray, phys: PhysParams, reg: RegParams) -> np.ndarray:
    """a rho^gamma plus the artificial sigma1 rho^Gamma term."""
    base = np.maximum(rho, 0.0)  # 0^gamma := 0, tolerate advection undershoot
    p = _scaled(phys.a, base**phys.gamma)
    if reg.sigma1 != 0.0:
        base **= reg.Gamma
        p += _scaled(reg.sigma1, base)
    return p


def polymer_pressure(eta: np.ndarray, phys: PhysParams) -> np.ndarray:
    """k L eta + delta eta^2; the delta term is skipped, not multiplied by 0."""
    out = phys.k * phys.L * eta
    if phys.delta != 0.0:
        out += _scaled(phys.delta, eta**2)
    return out


def velocity_jacobian(grid: Grid2D, ux: np.ndarray, uy: np.ndarray):
    """Jacobian arrays (J_ij = d_j u_i) of the no-slip velocity (ux, uy)."""
    jxx = g2.grad_x(ux, g2.DIRICHLET, grid.hx)
    jxy = g2.grad_y(ux, g2.DIRICHLET, grid.hy)
    jyx = g2.grad_x(uy, g2.DIRICHLET, grid.hx)
    jyy = g2.grad_y(uy, g2.DIRICHLET, grid.hy)
    return jxx, jxy, jyx, jyy


def newtonian_stress(grid: Grid2D, ux: np.ndarray, uy: np.ndarray, phys: PhysParams):
    """muS (sym grad u - (div u / 2) I) + muB (div u) I, d = 2, as (xx, xy, yy)."""
    # the Jacobian arrays are this call's own, so the stress is built in them
    sxx, sxy, jyx, syy = velocity_jacobian(grid, ux, uy)
    div_u = sxx + syy
    half_div = div_u * 0.5
    sxy += jyx
    sxy *= 0.5
    sxy *= phys.muS
    sxx -= half_div
    sxx *= phys.muS
    syy -= half_div
    syy *= phys.muS
    if phys.muB != 0.0:
        div_u *= phys.muB
        sxx += div_u
        syy += div_u
    return sxx, sxy, syy


def rhs_continuity(state: SimState, phys: PhysParams, reg: RegParams) -> np.ndarray:
    """-div(rho u) with conservative upwind flux, plus sigma2 diffusion."""
    g = state.grid
    rho, ux, uy, *_ = state.components()
    out = g2.upwind_div(ux, uy, rho, g2.NEUMANN, g.hx, g.hy)
    np.negative(out, out=out)
    if reg.sigma2 != 0.0:
        out += _scaled(reg.sigma2, g2.lap(rho, g2.NEUMANN, g.hx, g.hy))
    return out


def rhs_eta(state: SimState, phys: PhysParams) -> np.ndarray:
    g = state.grid
    _, ux, uy, eta, *_ = state.components()
    out = g2.upwind_div(ux, uy, eta, g2.NEUMANN, g.hx, g.hy)
    np.negative(out, out=out)
    out += _scaled(phys.eps, g2.lap(eta, g2.NEUMANN, g.hx, g.hy))
    return out


def tr_log_field(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray, context: str) -> np.ndarray:
    """Pointwise tr log T; aborts naming the first non-finite cell, else the
    worst cell, and the context, if T is not SPD."""
    lam1, lam2 = symcalc.eig_fields(xx, xy, yy)
    if np.any(lam2 <= 0.0) or not np.all(np.isfinite(lam2)):
        where = f" in {context}"
        finite = np.isfinite(lam2)
        if not finite.all():
            idx = np.unravel_index(np.argmin(finite), lam2.shape)
            cell = tuple(int(v) for v in idx)
            if np.isfinite(xx[idx]) and np.isfinite(xy[idx]) and np.isfinite(yy[idx]):
                # eig_fields' determinant overflows once |T| passes about 1.3e154
                raise NotSPDError(
                    f"stress eigenvalue overflowed at cell {cell} (T_xx = {xx[idx]:.3e},"
                    f" T_xy = {xy[idx]:.3e}, T_yy = {yy[idx]:.3e}){where}")
            raise NotSPDError(
                f"stress is not finite at cell {cell} (eigenvalue {lam2[idx]:.3e}){where}")
        idx = np.unravel_index(np.argmin(lam2), lam2.shape)
        raise NotSPDError(
            f"stress lost positive definiteness at cell {tuple(int(v) for v in idx)}"
            f" (min eigenvalue {lam2[idx]:.3e}){where}"
        )
    out = np.log(lam1, out=lam1)
    out += np.log(lam2, out=lam2)
    return out


def rhs_momentum(state: SimState, phys: PhysParams, reg: RegParams):
    """Right-hand side (x, y) for the conservative momentum density rho u."""
    g = state.grid
    rho, ux, uy, eta, txx, txy, tyy = state.components()

    # transport of momentum components by the same upwind flux as mass;
    # each temporary below is released right after its last use, so the
    # assembly holds few arrays at once
    out_x = g2.upwind_div(ux, uy, rho * ux, g2.DIRICHLET, g.hx, g.hy)
    out_y = g2.upwind_div(ux, uy, rho * uy, g2.DIRICHLET, g.hx, g.hy)
    np.negative(out_x, out=out_x)
    np.negative(out_y, out=out_y)

    p = pressure(rho, phys, reg)
    out_x -= g2.grad_x(p, g2.NEUMANN, g.hx)
    out_y -= g2.grad_y(p, g2.NEUMANN, g.hy)
    del p

    solvent = polymer_pressure(eta, phys)
    out_x -= g2.grad_x(solvent, g2.NEUMANN, g.hx)
    out_y -= g2.grad_y(solvent, g2.NEUMANN, g.hy)
    del solvent

    div_x, div_y = g2.tensor_divergence(*newtonian_stress(g, ux, uy, phys), g.hx, g.hy)
    out_x += div_x
    out_y += div_y
    del div_x, div_y

    div_x, div_y = g2.tensor_divergence(txx, txy, tyy, g.hx, g.hy)
    out_x += div_x
    out_y += div_y
    del div_x, div_y

    if reg.alpha != 0.0:
        trlog = tr_log_field(txx, txy, tyy, context="momentum assembly")
        out_x -= _scaled(0.5 * reg.alpha, g2.grad_x(trlog, g2.NEUMANN, g.hx))
        out_y -= _scaled(0.5 * reg.alpha, g2.grad_y(trlog, g2.NEUMANN, g.hy))
        del trlog

    if reg.sigma2 != 0.0:
        jxx, jxy, jyx, jyy = velocity_jacobian(g, ux, uy)
        drho_x = g2.grad_x(rho, g2.NEUMANN, g.hx)
        drho_y = g2.grad_y(rho, g2.NEUMANN, g.hy)
        jxx *= drho_x
        jxx += np.multiply(jxy, drho_y, out=jxy)
        out_x -= _scaled(reg.sigma2, jxx)
        jyx *= drho_x
        jyx += np.multiply(jyy, drho_y, out=jyy)
        out_y -= _scaled(reg.sigma2, jyx)

    return out_x, out_y


def rhs_stress(state: SimState, phys: PhysParams, reg: RegParams) -> list:
    """Stress transport, stretching, diffusion, and Maxwell relaxation, as [xx, xy, yy].

    With sigma3 active the cutoff tensor enters transport, stretching,
    and relaxation; the diffusion keeps acting on T itself.
    """
    g = state.grid
    _, ux, uy, eta, *T = state.components()

    if reg.sigma3 != 0.0:
        txx, txy, tyy = symcalc.cutoff_fields(*T, reg.sigma3)[1]
    else:
        txx, txy, tyy = T

    out = [
        g2.upwind_div(ux, uy, comp, g2.NEUMANN, g.hx, g.hy)
        for comp in (txx, txy, tyy)
    ]
    for comp in out:
        np.negative(comp, out=comp)
    add_stretching(out, *velocity_jacobian(g, ux, uy), txx, txy, tyy)
    for i, comp in enumerate(T):
        out[i] += _scaled(phys.eps, g2.lap(comp, g2.NEUMANN, g.hx, g.hy))
    add_relaxation(out, txx, txy, tyy, eta + reg.alpha, phys)

    return out


# The two stress source terms below are shared by rhs_stress (on arrays) and
# the kinetic oracle's moment equation (on floats).  Each adds in place to
# out = [xx, xy, yy], one component at a time, and builds each term by
# augmented assignment in its plain expression's operation order: on the
# solver's grids every expression temporary costs page faults, and on
# floats the same statements simply rebind.


def add_stretching(out, jxx, jxy, jyx, jyy, txx, txy, tyy) -> None:
    """Add the upper-convected stretching J T + T J^T, with J_ij = d_j u_i."""
    t = jxx * txx
    t += jxy * txy
    t *= 2.0
    out[0] += t
    t = jxx * txy
    t += jxy * tyy
    t += txx * jyx
    t += txy * jyy
    out[1] += t
    t = jyx * txy
    t += jyy * tyy
    t *= 2.0
    out[2] += t


def add_relaxation(out, txx, txy, tyy, eta, phys: PhysParams) -> None:
    """Add the Maxwell relaxation (A0 / 2 lambda) (k eta I - T)."""
    relax = phys.A0 / (2.0 * phys.lam)
    rate = phys.k * relax
    # the source rate * eta is built twice, once as each diagonal term
    t = rate * eta
    t -= relax * txx
    out[0] += t
    out[1] += -relax * txy
    t = rate * eta
    t -= relax * tyy
    out[2] += t


def equilibrium_state(
    grid: Grid2D,
    phys: PhysParams,
    reg: RegParams,
    rho_bar: float = 1.0,
    eta_bar: float = 1.0,
) -> SimState:
    """Spatially uniform rest state; every right-hand side vanishes on it."""
    for name, val in (("rho_bar", rho_bar), ("eta_bar", eta_bar)):
        require(0.0 < val < np.inf, f"{name} = {val} must be finite and positive", name)
    shape = (grid.nx, grid.ny)
    t_eq = phys.k * (eta_bar + reg.alpha)
    return state_from_components(
        0.0, grid, np.full(shape, rho_bar), np.zeros(shape), np.zeros(shape),
        np.full(shape, eta_bar), np.full(shape, t_eq), np.zeros(shape), np.full(shape, t_eq))
