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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from oldroyd2d import grid as g2
from oldroyd2d import symcalc
from oldroyd2d.grid import (
    Grid2D,
    ScalarField2D,
    SymTensorField2D,
    VectorField2D,
    require,
)
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
    f: Optional[VectorField2D] = None  # static body force; None means zero

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
class SimState:
    t: float
    rho: ScalarField2D
    u: VectorField2D
    eta: ScalarField2D
    T: SymTensorField2D

    def copy(self) -> "SimState":
        return SimState(self.t, self.rho.copy(), self.u.copy(), self.eta.copy(), self.T.copy())


def state_from_components(t: float, grid: Grid2D, rho, ux, uy, eta, txx, txy, tyy) -> SimState:
    """The state at time t whose fields hold the seven component arrays."""
    return SimState(
        t=t,
        rho=ScalarField2D(grid, rho),
        u=VectorField2D(grid, ux, uy),
        eta=ScalarField2D(grid, eta),
        T=SymTensorField2D(grid, txx, txy, tyy),
    )


# A state file is one ASCII line "<tag> nx ny lx ly t", its floats written by repr so
# that they read back exactly, then the seven components as row-major little-endian float64:
_STATE_COMPONENTS = ("rho", "u_x", "u_y", "eta", "T_xx", "T_xy", "T_yy")
_STATE_TAG = "oldroyd2d-state-v1"


def save_state(state: SimState, path) -> None:
    """Write state to one file that load_state reads back bit for bit."""
    g = state.rho.grid
    header = f"{_STATE_TAG} {g.nx} {g.ny} {g.lx!r} {g.ly!r} {state.t!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for field in (state.rho, state.u, state.eta, state.T):
            for comp in field.components():
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


def pressure(rho: ScalarField2D, phys: PhysParams, reg: RegParams) -> ScalarField2D:
    """a rho^gamma plus the artificial sigma1 rho^Gamma term."""
    base = np.maximum(rho.data, 0.0)  # 0^gamma := 0, tolerate advection undershoot
    p = _scaled(phys.a, base**phys.gamma)
    if reg.sigma1 != 0.0:
        base **= reg.Gamma
        p += _scaled(reg.sigma1, base)
    return ScalarField2D(rho.grid, p)


def polymer_pressure(eta: np.ndarray, phys: PhysParams) -> np.ndarray:
    """k L eta + delta eta^2; the delta term is skipped, not multiplied by 0."""
    out = phys.k * phys.L * eta
    if phys.delta != 0.0:
        out += _scaled(phys.delta, eta**2)
    return out


def velocity_jacobian(u: VectorField2D):
    """Jacobian arrays (J_ij = d_j u_i) with the field's own ghost rule."""
    g = u.grid
    jxx = g2.grad_x(u.x, u.bc, g.hx)
    jxy = g2.grad_y(u.x, u.bc, g.hy)
    jyx = g2.grad_x(u.y, u.bc, g.hx)
    jyy = g2.grad_y(u.y, u.bc, g.hy)
    return jxx, jxy, jyx, jyy


def newtonian_stress(u: VectorField2D, phys: PhysParams) -> SymTensorField2D:
    """muS (sym grad u - (div u / 2) I) + muB (div u) I, d = 2."""
    # the Jacobian arrays are this call's own, so the stress is built in them
    sxx, sxy, jyx, syy = velocity_jacobian(u)
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
    return SymTensorField2D(u.grid, sxx, sxy, syy)


def rhs_continuity(state: SimState, phys: PhysParams, reg: RegParams) -> ScalarField2D:
    """-div(rho u) with conservative upwind flux, plus sigma2 diffusion."""
    g = state.rho.grid
    out = g2.upwind_div(state.u.x, state.u.y, state.rho.data, state.rho.bc, g.hx, g.hy)
    np.negative(out, out=out)
    if reg.sigma2 != 0.0:
        out += _scaled(reg.sigma2, g2.lap(state.rho.data, state.rho.bc, g.hx, g.hy))
    return ScalarField2D(g, out)


def rhs_eta(state: SimState, phys: PhysParams) -> ScalarField2D:
    g = state.eta.grid
    out = g2.upwind_div(state.u.x, state.u.y, state.eta.data, state.eta.bc, g.hx, g.hy)
    np.negative(out, out=out)
    out += _scaled(phys.eps, g2.lap(state.eta.data, state.eta.bc, g.hx, g.hy))
    return ScalarField2D(g, out)


def tr_log_field(T: SymTensorField2D, context: str = "") -> np.ndarray:
    """Pointwise tr log T; aborts naming the first non-finite cell, else the
    worst cell, if T is not SPD."""
    lam1, lam2 = symcalc.eig_fields(T.xx, T.xy, T.yy)
    if np.any(lam2 <= 0.0) or not np.all(np.isfinite(lam2)):
        where = f" in {context}" if context else ""
        finite = np.isfinite(lam2)
        if not finite.all():
            idx = np.unravel_index(np.argmin(finite), lam2.shape)
            raise NotSPDError(
                f"stress is not finite at cell {tuple(int(v) for v in idx)}"
                f" (eigenvalue {lam2[idx]:.3e}){where}")
        idx = np.unravel_index(np.argmin(lam2), lam2.shape)
        raise NotSPDError(
            f"stress lost positive definiteness at cell {tuple(int(v) for v in idx)}"
            f" (min eigenvalue {lam2[idx]:.3e}){where}"
        )
    out = np.log(lam1, out=lam1)
    out += np.log(lam2, out=lam2)
    return out


def rhs_momentum(state: SimState, phys: PhysParams, reg: RegParams) -> VectorField2D:
    """Right-hand side for the conservative momentum density rho u."""
    g = state.rho.grid
    rho, u, eta, T = state.rho, state.u, state.eta, state.T

    # transport of momentum components by the same upwind flux as mass;
    # each temporary below is released right after its last use, so the
    # assembly holds few arrays at once
    out_x = g2.upwind_div(u.x, u.y, rho.data * u.x, u.bc, g.hx, g.hy)
    out_y = g2.upwind_div(u.x, u.y, rho.data * u.y, u.bc, g.hx, g.hy)
    np.negative(out_x, out=out_x)
    np.negative(out_y, out=out_y)

    p = pressure(rho, phys, reg)
    out_x -= g2.grad_x(p.data, p.bc, g.hx)
    out_y -= g2.grad_y(p.data, p.bc, g.hy)
    del p

    solvent = polymer_pressure(eta.data, phys)
    out_x -= g2.grad_x(solvent, eta.bc, g.hx)
    out_y -= g2.grad_y(solvent, eta.bc, g.hy)
    del solvent

    div = g2.tensor_divergence(newtonian_stress(u, phys))
    out_x += div.x
    out_y += div.y
    del div

    div = g2.tensor_divergence(T)
    out_x += div.x
    out_y += div.y
    del div

    if reg.alpha != 0.0:
        trlog = tr_log_field(T, context="momentum assembly")
        out_x -= _scaled(0.5 * reg.alpha, g2.grad_x(trlog, T.bc, g.hx))
        out_y -= _scaled(0.5 * reg.alpha, g2.grad_y(trlog, T.bc, g.hy))
        del trlog

    if reg.sigma2 != 0.0:
        jxx, jxy, jyx, jyy = velocity_jacobian(u)
        drho_x = g2.grad_x(rho.data, rho.bc, g.hx)
        drho_y = g2.grad_y(rho.data, rho.bc, g.hy)
        jxx *= drho_x
        jxx += np.multiply(jxy, drho_y, out=jxy)
        out_x -= _scaled(reg.sigma2, jxx)
        jyx *= drho_x
        jyx += np.multiply(jyy, drho_y, out=jyy)
        out_y -= _scaled(reg.sigma2, jyx)

    if phys.f is not None:
        out_x += rho.data * phys.f.x
        out_y += rho.data * phys.f.y

    return VectorField2D(g, out_x, out_y)


def rhs_stress(state: SimState, phys: PhysParams, reg: RegParams) -> SymTensorField2D:
    """Stress transport, stretching, diffusion, and Maxwell relaxation.

    With sigma3 active the cutoff tensor enters transport, stretching,
    and relaxation; the diffusion keeps acting on T itself.
    """
    g = state.T.grid
    u, eta, T = state.u, state.eta, state.T

    if reg.sigma3 != 0.0:
        txx, txy, tyy = symcalc.cutoff_fields(T.xx, T.xy, T.yy, reg.sigma3)[1]
    else:
        txx, txy, tyy = T.xx, T.xy, T.yy

    out = [
        g2.upwind_div(u.x, u.y, comp, T.bc, g.hx, g.hy)
        for comp in (txx, txy, tyy)
    ]
    for comp in out:
        np.negative(comp, out=comp)
    add_stretching(out, *velocity_jacobian(u), txx, txy, tyy)
    for i, comp in enumerate((T.xx, T.xy, T.yy)):
        out[i] += _scaled(phys.eps, g2.lap(comp, T.bc, g.hx, g.hy))
    add_relaxation(out, txx, txy, tyy, eta.data + reg.alpha, phys)

    return SymTensorField2D(g, out[0], out[1], out[2])


# The two stress source terms below are shared by rhs_stress (on arrays) and
# the kinetic oracle's moment equation (on floats).  Each adds in place to
# out = [xx, xy, yy], one component at a time: building the terms as new
# arrays first costs page faults on the solver's grids.


def add_stretching(out, jxx, jxy, jyx, jyy, txx, txy, tyy) -> None:
    """Add the upper-convected stretching J T + T J^T, with J_ij = d_j u_i."""
    out[0] += 2.0 * (jxx * txx + jxy * txy)
    out[1] += jxx * txy + jxy * tyy + txx * jyx + txy * jyy
    out[2] += 2.0 * (jyx * txy + jyy * tyy)


def add_relaxation(out, txx, txy, tyy, eta, phys: PhysParams) -> None:
    """Add the Maxwell relaxation (A0 / 2 lambda) (k eta I - T)."""
    relax = phys.A0 / (2.0 * phys.lam)
    source = phys.k * relax * eta
    out[0] += source - relax * txx
    out[1] += -relax * txy
    out[2] += source - relax * tyy


def equilibrium_state(
    grid: Grid2D,
    phys: PhysParams,
    reg: RegParams,
    rho_bar: float = 1.0,
    eta_bar: float = 1.0,
) -> SimState:
    """Spatially uniform rest state; every right-hand side vanishes on it."""
    if rho_bar <= 0.0 or eta_bar <= 0.0:
        raise ValueError("equilibrium density and polymer density must be positive")
    shape = (grid.nx, grid.ny)
    t_eq = phys.k * (eta_bar + reg.alpha)
    return state_from_components(
        0.0, grid, np.full(shape, rho_bar), np.zeros(shape), np.zeros(shape),
        np.full(shape, eta_bar), np.full(shape, t_eq), np.zeros(shape), np.full(shape, t_eq))
